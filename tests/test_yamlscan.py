"""The YAML subset scanner against ``yaml.load``.

Every document that ``yamlscan._Scanner`` reads decodes to what
``yaml.load`` gives, types included. Every document it declines goes to
PyYAML unchanged, so ``_read_yaml`` gives what ``yaml.load`` gives, or
raises the same error.
"""

from __future__ import annotations

import io

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcarbon import yamlscan
from test_scenarios import _as_read, _outcome, _same

DECLINED = object()


def _scanned(text: str):
    """The scanner's value for ``text``, or DECLINED."""
    try:
        return yamlscan._Scanner(text).document()
    except yamlscan._Declined:
        return DECLINED


def _check(text: str):
    """Assert that the scanner's value, if it reads ``text``, and the
    reader's result are ``yaml.load``'s; return the scanner's value."""
    expected = _outcome(lambda: yaml.load(io.StringIO(text), Loader=yamlscan._loader()))
    scanned = _scanned(text)
    if scanned is not DECLINED:
        assert _same(scanned, expected, {}, set()), (text, scanned, expected)
    got = _outcome(lambda: yamlscan._read_yaml(io.StringIO(text), "doc"))
    assert _same(got, _as_read(expected), {}, set()), (text, got, expected)
    return scanned


# Scalars in the subset: some that JSON reads as it is, some floats it does
# not (1., .5, 01.5), strings holding # and blanks, and words that YAML 1.1
# reads as strings. A comma is only for block values.
_READ = (
    "c1", "r0", "market_based", "solar farm", "a#b", "a  b", "y", "n", "20", "-7", "0", "-0",
    "0.5", "-0.0", "480.25", "1.5e+3", "1.5E-3", "1.0e+400", "1.", ".5", "01.5", "true", "false",
    "null", "~",
)
# Scalars that the resolver reads otherwise, that only PyYAML reads, or that
# are not YAML at all.
_EDGE = (
    "1e5", "1.5e5", "1_000", "0x1F", "017", "+1", "-.5", "-.inf", ".nan", "yes", "On", "NULL", "True",
    "TrUe", "2022-01-01", "1:30", "a: b", "a:b", "café", "'q'", '"q"', "&a x", "*a", "!!str x",
    "!!bool maybe", "<<", "=", "? a", "- a", "|", ">-", "@x", "`x`", "%x", "x]", "{", "-", "9" * 5000,
)
_KEYS = ("name", "id", "region", "demand_kwh", "wind", "coal", "a b", "k#1", "x")
_EDGE_KEYS = ("1", "1.5", "true", "~", "null", "yes", "<<", "=", "'q'", "-a", "2022-01-01", "café", "a:b", "x")
_WORDS = ("grid", "solar,", "50%", "C1's", '"quoted"', "# hash", "a#b", "key: value", "[x]", "-", "!tag", "&a")
# Changes that take a document out of the subset, or out of YAML.
_BREAKS = (
    lambda text: text.replace("\n", "\t\n", 1),
    lambda text: text.replace("\n", "\r\n"),
    lambda text: "\ufeff" + text,
    lambda text: "---\n" + text,
    lambda text: text + "\n...\n",
    lambda text: "%YAML 1.1\n---\n" + text,
    lambda text: text + "\n" + text,
    lambda text: text.replace("\n  ", "\n   ", 1),
    lambda text: text.replace("\n ", "\n", 1),
    lambda text: text.replace("\n", "\n\n  more\n", 1),
    lambda text: text.replace(": ", ":", 1),
    lambda text: text.replace(", ", ",\n", 1),
    lambda text: text.replace("\n", "   \n", 1),
    lambda text: text.replace("- ", "- - ", 1),
)


@st.composite
def block_documents(draw) -> tuple[str, bool]:
    """A scenario-shaped block document and whether it is in the subset.

    Top-level keys hold plain scalars, ``>`` folded scalars (at the end of
    the text too, with or without a final line break), nested block
    mappings, block sequences of flow maps or scalars (indented or not),
    and flow collections, some over several lines; whole-line and trailing
    comments and blank lines come between them. A document out of the
    subset draws edge-case scalars and keys, or has one of ``_BREAKS``."""
    clean = draw(st.booleans())

    def pick(ok, edge):
        return draw(st.sampled_from(ok if clean or draw(st.integers(0, 3)) else edge))

    def keys(count: int) -> list[str]:
        if clean:
            return draw(st.lists(st.sampled_from(_KEYS), min_size=count, max_size=count, unique=True))
        return [pick(_KEYS, _EDGE_KEYS) for _ in range(count)]

    def comment() -> str:
        return draw(st.sampled_from(["", "", "", "  # note", " # it's: [x]"]))

    def flow(depth: int) -> str:
        count = draw(st.integers(0, 3))
        sep = draw(st.sampled_from([", ", ", ", ",", " , ", ",\n"]))
        if depth < 2 and draw(st.booleans()):
            items = [flow(depth + 1) if draw(st.integers(0, 3)) == 0 else pick(_READ, _EDGE) for _ in range(count)]
            return "[" + sep.join(items) + "]"
        values = [flow(depth + 1) if depth < 2 and draw(st.integers(0, 3)) == 0 else pick(_READ, _EDGE)
                  for _ in range(count)]
        pad = draw(st.sampled_from(["", "", " "]))
        return "{" + pad + sep.join(f"{k}: {v}" for k, v in zip(keys(count), values)) + pad + "}"

    def wrap(text: str, indent: int) -> str:
        """A flow collection's line breaks, continued deeper than ``indent``."""
        return text.replace("\n", "\n" + " " * (indent + draw(st.integers(1, 4))))

    def folded(indent: int) -> list[str]:
        margin = indent + draw(st.integers(1, 3))
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8))
        return [" " * margin + " ".join(words[i : i + 3]) for i in range(0, len(words), 3)]

    def mapping(indent: int, depth: int) -> list[str]:
        lines = []
        for key in keys(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["scalar", "scalar", "flow", "folded", "mapping", "sequence", "null"]))
            if depth >= 2 and kind in ("mapping", "sequence"):
                kind = "scalar"
            head = " " * indent + key + ":"
            if kind == "scalar":
                lines.append(f"{head} {pick(_READ + ('x, y',), _EDGE)}{comment()}")
            elif kind == "flow":
                lines.append(head + " " + wrap(flow(0), indent) + comment())
            elif kind == "folded":
                lines += [head + " >" + comment(), *folded(indent)]
            elif kind == "mapping":
                lines += [head + comment(), *mapping(indent + draw(st.integers(1, 3)), depth + 1)]
            elif kind == "sequence":
                lines += [head + comment(), *sequence(indent + draw(st.integers(0, 2)))]
            else:
                lines.append(head + comment())
            if draw(st.integers(0, 4)) == 0:  # a comment as deep as folded text above is more of it
                deeper = [" " * (indent + 1) + "# deeper"] * (kind != "folded")
                lines.append(draw(st.sampled_from(["", "# a comment line", *deeper])))
        return lines

    def sequence(indent: int) -> list[str]:
        count = draw(st.integers(1, 4))
        items = [wrap(flow(1), indent) if draw(st.booleans()) else pick(_READ, _EDGE) for _ in range(count)]
        return [" " * indent + "- " + item + comment() for item in items]

    shape = draw(st.sampled_from(["mapping", "mapping", "mapping", "sequence", "flow"]))
    if shape == "mapping":
        lines = mapping(draw(st.sampled_from([0, 0, 0, 2])), 0)
    elif shape == "sequence":
        lines = sequence(0)
    else:
        lines = [wrap(flow(0), 0)]
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "\n", ""]))
    if not clean and draw(st.booleans()):
        text = draw(st.sampled_from(_BREAKS))(text)
    return text, clean


@pytest.mark.differential
@settings(deadline=None)
@given(document=block_documents())
def test_scanner_differential(document: tuple[str, bool]) -> None:
    """The scanner reads every document in the subset to ``yaml.load``'s
    value; the reader gives ``yaml.load``'s value or error on every one."""
    text, clean = document
    scanned = _check(text)
    if clean:
        assert scanned is not DECLINED, text


# The whitelist's edge cases, as a block value, a flow value, a sequence
# item, a block key and a flow key.
_EDGE_CASES = (
    "1e5", "1.5e5", "1.5e+5", "1_000", "0x1F", "017", ".5", "+1", "-.inf", "yes", "On", "NULL", "~",
    "2022-01-01", "1:30", "café", "ñ",
)
_SHAPES = ("a: {}\n", "{{a: {}}}\n", "- {}\n", "[{}]\n", "{}: a\n", "{{{}: a}}\n")


@pytest.mark.parametrize("edge", _EDGE_CASES)
@pytest.mark.parametrize("shape", _SHAPES)
def test_scanner_edge_cases(shape: str, edge: str) -> None:
    _check(shape.format(edge))


# Documents and whether the scanner reads them.
_DOCUMENTS = {
    "numeric keys": ("1: a\n2.5: b\n", False),
    "duplicate keys": ("a: 1\nb: 2\na: 3\n", False),
    "duplicate flow keys": ("{a: 1, b: 2, a: 3}\n", False),
    "equal keys": ("{1: a, 1.0: b}\n", False),
    "directive": ("%YAML 1.1\n---\na: 1\n", False),
    "percent at a line start": ("a: 1\n%b: 2\n", False),
    "non-ASCII letters": ("name: Zürich\n", False),
    "folded at the end with a line break": ("a: 1\nb: >\n  x y\n  z\n", True),
    "folded at the end without one": ("a: 1\nb: >\n  x y\n  z", True),
    "folded then blank lines": ("a: >\n  x\n\n\nb: 1\n", True),
    "folded of two paragraphs": ("a: >\n  x\n\n  y\nb: 1\n", False),
    "folded with # as content": ("a: > # header comment\n  x # y\n  a#b\n# comment\nb: c#d # comment\n", True),
    "folded more indented": ("a: >\n  x\n    y\n", False),
    "folded then # as content": ("a: >\n  x\n\n  # y\nb: 1\n", False),
    "folded then blanks as content": ("a: >\n  x\n   \nb: 1\n", False),
    "key deeper than its mapping": ("a: 1\n  b: 2\n", False),
    "key between two indentations": ("a:\n    b: 1\n  c: 2\n", False),
    "comments everywhere": (
        "# head\nname: t  # trailing\nregions:\n  # inside\n  r: {generation: {wind: 1}}  # flow\n"
        "consumers:\n- {id: a, region: r, demand_kwh: 1}\n  # between\n- {id: b, region: r, demand_kwh: 2}\n",
        True,
    ),
    "flow over lines": ("- {id: ppa-1, buyer: C1,\n   # comment\n   source: solar, energy_mwh: [0,\n     10]}\n", True),
    "flow key on two lines": ("{a\n  : 1}\n", False),
    "plain scalar over two lines": ("{a: b\n  c}\n", False),
    "empty value": ("a:\nb: 1\n", True),
    "indentless sequence": ("a:\n- 1\n- x\nb: 2\n", True),
    "flow on the next line": ("a:\n  [1, 2]\nb: {}\n", True),
    "empty document": ("# only a comment\n", True),
    "quoted string": ('name: "t"\n', False),
    "too deep": ("a: " + "[" * 30 + "]" * 30 + "\n", False),
    "long key": ("k" * 1100 + ": 1\n", False),
}


@pytest.mark.parametrize("name", _DOCUMENTS)
def test_scanner_documents(name: str) -> None:
    text, read = _DOCUMENTS[name]
    assert (_check(text) is not DECLINED) == read, text
