"""Source categories and default carbon emission factors.

The default CEF table maps each source category to grams of CO2-equivalent
per kWh of generation. Coal is pinned at 1000 g/kWh (the conventional
round number for a coal plant); the remaining non-zero values are typical
published figures for operational (combustion-only) emissions. They are
stand-ins, not ground truth: every value can be overridden per run via a
small YAML table (see :func:`gridcarbon.scenarios.load_cef_table`) or per
category in a scenario file.

Under the operational-emissions model used throughout this package,
renewables and nuclear are carbon-free (CEF exactly 0). Biomass burns
fuel, so it carries a non-zero factor and is not treated as carbon-free
even though it is often classed as renewable.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from itertools import accumulate
from operator import sub

from .errors import SchemaError

# Every category a source may declare; mirrors ElectricityMaps-style
# generation breakdowns.
SOURCE_CATEGORIES: frozenset[str] = frozenset(
    {
        "solar",
        "wind",
        "hydro",
        "nuclear",
        "coal",
        "gas",
        "oil",
        "biomass",
        "geothermal",
        "unknown",
        "other-renewable",
        "other-fossil",
    }
)

# Categories whose generation counts as carbon-free energy (CFE).
CARBON_FREE_CATEGORIES: frozenset[str] = frozenset(
    {"solar", "wind", "hydro", "nuclear", "geothermal", "other-renewable"}
)

# Default CEF per category, g CO2-eq per kWh. Overridable; see module docstring.
DEFAULT_CEF: dict[str, float] = {
    "solar": 0.0,
    "wind": 0.0,
    "hydro": 0.0,
    "nuclear": 0.0,
    "geothermal": 0.0,
    "other-renewable": 0.0,
    "coal": 1000.0,
    "gas": 490.0,
    "oil": 650.0,
    "biomass": 230.0,
    "other-fossil": 700.0,
    "unknown": 475.0,
}


# _YAML_LOADER: libyaml's parser with PyYAML's resolver composes the nodes
# (as yaml.SafeLoader does, several times faster); _load_yaml builds the
# common nodes itself and leaves the rest to this loader's SafeConstructor.
# It is set on first use, like every PyYAML import here, so that only the
# commands that read YAML import PyYAML. Tests set it to yaml.SafeLoader.
def __getattr__(name: str):
    """Module attributes set on first access (PEP 562): ``_YAML_LOADER``."""
    if name != "_YAML_LOADER":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import yaml

    global _YAML_LOADER
    _YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    return _YAML_LOADER


def _loader():
    """``_YAML_LOADER``, set on the first call unless already set."""
    return globals().get("_YAML_LOADER") or __getattr__("_YAML_LOADER")


_STR, _NULL, _BOOL, _INT, _FLOAT, _SEQ, _MAP, _MERGE, _VALUE = (
    "tag:yaml.org,2002:" + name
    for name in ("str", "null", "bool", "int", "float", "seq", "map", "merge", "value")
)


class _ConstructorOnly(Exception):
    """A collection node that only the loader's constructor builds."""


def _load_yaml(stream):
    """Decode one YAML document from a stream or string: the object, or the
    error, that ``yaml.load(stream, Loader=_YAML_LOADER)`` gives.

    The loader composes the document into nodes. Strings, nulls, booleans,
    decimal ints without a leading 0, floats that ``float()`` reads, and
    sequence and mapping nodes (scalar keys, no ``<<`` or ``=`` key) are
    built here, memoised by node so that aliases and recursive anchors
    resolve. Any other scalar goes to the loader's ``construct_document``.
    Any other collection, and any error, sends the whole document to
    ``construct_document``: SafeConstructor rewrites merge and ``=`` keys
    in the nodes as it builds a mapping, so a collection built on its own
    could leave the document decoding differently from ``yaml.load``.
    Scalar constructors read only their node and change nothing.
    """
    loader = _loader()(stream)
    try:
        root = loader.get_single_node()
        if root is None:
            return None
        try:
            return _construct(root, loader)
        except Exception:  # the constructor raises it too, or builds what was left to it
            loader.constructed_objects, loader.recursive_objects = {}, {}
            loader.state_generators, loader.deep_construct = [], False
            return loader.construct_document(root)
    finally:
        loader.dispose()


def _read_yaml(stream, name: str):
    """:func:`_load_yaml` of an input called ``name``. A value that its
    tag's constructor cannot build (``!!bool maybe`` raises ``KeyError``,
    ``!!int ""`` ``IndexError``) is one :class:`SchemaError` naming the
    input; YAML syntax errors and I/O errors pass through unchanged. A
    document that could nest more than ``_C_NESTING`` levels deep goes to
    the pure-Python loader, whose RecursionError becomes this SchemaError.
    """
    import yaml

    try:
        text = stream.read()
        source = io.StringIO(text)
        source.name = getattr(stream, "name", "<file>")  # which YAML error marks name
        if _could_nest_deeper(text, _C_NESTING):
            return yaml.load(source, Loader=yaml.SafeLoader)
        return _load_yaml(source)
    except (yaml.YAMLError, OSError):
        raise
    except Exception as exc:
        raise SchemaError(f"{name}: cannot decode a YAML value: {type(exc).__name__}: {exc}") from exc


# libyaml's composer recurses on the C stack, which overflows (SIGSEGV) some
# 25 000 levels deep; PyYAML's pure-Python composer raises RecursionError.
_C_NESTING = 1000
_NOT_BRACKETS = bytes(set(range(256)) - set(b"[]{}"))
_BRACKET_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1 and -1 as signed bytes
_BLANK_OR_INDICATOR = bytes(32 if byte in b"-?: \t" else 120 for byte in range(256))  # to " " or "x"


def _could_nest_deeper(text: str, levels: int) -> bool:
    """Whether a YAML document could nest collections more than ``levels``
    deep, over-approximated from its text.

    Block collections nest by indentation, or on one line after ``- ``,
    ``? `` or ``: ``: at most twice as deep as the longest run of blanks and
    those indicators. Flow collections nest at most as deep as the brackets
    open at once, where a closing one with none open counts for nothing (a
    scalar outside them may hold one). A quoted scalar, comment or tag
    could hide a closing bracket, so a text with ``"``, ``'``, ``#`` or
    ``!`` is measured from libyaml's parse events, which do not recurse.
    """
    if any(mark in text for mark in "\"'#!"):
        import yaml
        from yaml.events import CollectionEndEvent, CollectionStartEvent

        depth = 0
        try:
            for event in yaml.parse(text, Loader=_loader()):
                if isinstance(event, CollectionStartEvent):
                    depth += 1
                    if depth > levels:
                        return True
                elif isinstance(event, CollectionEndEvent):
                    depth -= 1
        except yaml.YAMLError:  # the loader stops at the same error
            pass
        return False
    raw = text.encode("utf-8", "surrogatepass")
    if b" " * (levels // 4) in raw.translate(_BLANK_OR_INDICATOR):
        return True
    # Dropping each adjacent open-close pair lowers the deepest point by at most one.
    steps = raw.translate(_BRACKET_STEPS, _NOT_BRACKETS).replace(b"\x01\xff", b"")
    depths = list(accumulate(memoryview(steps).cast("b"), initial=0))
    return 1 + max(map(sub, depths, accumulate(depths, min))) > levels // 2


def _construct(root, loader):
    """The object SafeConstructor builds from ``root``, for the nodes
    :func:`_load_yaml` lists; raises for any other collection."""
    from yaml.nodes import MappingNode, ScalarNode, SequenceNode

    memo = {}  # collection node -> its list or dict, filled or being filled
    bool_values = loader.bool_values

    def build(node):
        tag = node.tag
        if node.__class__ is ScalarNode:
            value = node.value
            if tag == _STR:
                return value
            if tag == _FLOAT:
                try:
                    return float(value)  # the same number as the constructor's
                except ValueError:  # .inf, .nan, 1:30.5, ...
                    return loader.construct_document(node)
            if tag == _INT:
                digits = value[1:] if value.startswith(("+", "-")) else value
                if digits.isascii() and digits.isdigit() and (digits[0] != "0" or digits == "0"):
                    return int(value)
                return loader.construct_document(node)  # 0x1F, 017, 1_000, 1:30, ...
            if tag == _BOOL:
                return bool_values[value.lower()]
            if tag == _NULL:
                return None
            return loader.construct_document(node)
        if node in memo:
            return memo[node]
        if tag == _SEQ and node.__class__ is SequenceNode:
            data = memo[node] = []
            data.extend(map(build, node.value))
            return data
        if tag == _MAP and node.__class__ is MappingNode:
            data = memo[node] = {}
            for key_node, value_node in node.value:
                if key_node.__class__ is not ScalarNode or key_node.tag in (_MERGE, _VALUE):
                    raise _ConstructorOnly(key_node.tag)
                data[build(key_node)] = build(value_node)
            return data
        raise _ConstructorOnly(tag)

    return build(root)


def check_categories(categories: Iterable[str]) -> None:
    """Raise ValueError for a name that is not a source category."""
    for category in categories:
        if category not in SOURCE_CATEGORIES:
            raise ValueError(f"unknown source category {category!r}")
