"""Source categories and default carbon emission factors.

The default CEF table maps each source category to grams of CO2-equivalent
per kWh of generation. Coal is pinned at 1000 g/kWh (the conventional
round number for a coal plant); the remaining non-zero values are typical
published figures for operational (combustion-only) emissions. They are
stand-ins, not ground truth: every value can be overridden per run via a
small YAML table (see :func:`load_cef_table`) or per source in a scenario
file.

Under the operational-emissions model used throughout this package,
renewables and nuclear are carbon-free (CEF exactly 0). Biomass burns
fuel, so it carries a non-zero factor and is not treated as carbon-free
even though it is often classed as renewable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import inf, isfinite
from pathlib import Path

import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

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


# libyaml's parser with PyYAML's resolver composes the nodes (as
# yaml.SafeLoader does, several times faster); _load_yaml builds the common
# nodes itself and leaves the rest to this loader's SafeConstructor.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

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
    loader = _YAML_LOADER(stream)
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
    input; YAML syntax errors and I/O errors pass through unchanged."""
    try:
        return _load_yaml(stream)
    except (yaml.YAMLError, OSError):
        raise
    except Exception as exc:
        raise SchemaError(f"{name}: cannot decode a YAML value: {type(exc).__name__}: {exc}") from exc


def _construct(root, loader):
    """The object SafeConstructor builds from ``root``, for the nodes
    :func:`_load_yaml` lists; raises for any other collection."""
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


def is_carbon_free_category(category: str) -> bool:
    return category in CARBON_FREE_CATEGORIES


def check_categories(categories: Iterable[str]) -> None:
    """Raise ValueError for a name that is not a source category."""
    for category in categories:
        if category not in SOURCE_CATEGORIES:
            raise ValueError(f"unknown source category {category!r}")


def _float(value: int | float) -> float:
    """``float(value)``, with an int beyond the float range read as infinite."""
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


def load_cef_table(path: str | Path) -> dict[str, float]:
    """Load a CEF override table: a YAML mapping of category -> g/kWh.

    Unknown categories and non-numeric, non-finite or negative values are
    rejected so a typo in an override file cannot silently leave the
    default in place.
    """
    with open(path, encoding="utf-8") as fh:
        raw = _read_yaml(fh, f"CEF table {path}")
    if not isinstance(raw, Mapping):
        raise SchemaError(f"CEF table {path} must be a mapping of category -> g/kWh")
    table: dict[str, float] = {}
    for key, value in raw.items():
        if key not in SOURCE_CATEGORIES:
            raise SchemaError(f"CEF table {path}: unknown category {key!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"CEF table {path}: value for {key!r} must be a number")
        number = _float(value)
        if not isfinite(number):
            raise SchemaError(f"CEF table {path}: value for {key!r} must be finite, got {number}")
        if number < 0:
            raise SchemaError(f"CEF table {path}: value for {key!r} must be >= 0")
        table[key] = number
    return table
