"""Reading the YAML inputs: scenarios, CEF tables and contract lists.

:func:`_read_yaml` first tries :class:`_Scanner`, a stdlib line scanner
for the subset that the bundled and generated scenarios use: block
mappings, block sequences of one-line items, flow collections, a ``>``
folded scalar, plain scalars and comments. It reads a document only when
every scalar is in a strict whitelist, and then gives what ``yaml.load``
gives. Any other document goes to ``yaml.load`` unchanged, so every error
stays PyYAML's, and PyYAML is imported only for such a document.
"""

from __future__ import annotations

import io
import json
import re
import sys
from functools import lru_cache

from .errors import SchemaError


_YAML_LOADER = None  # the loader of declined documents, if set; tests set yaml.SafeLoader


def _loader():
    """``_YAML_LOADER``, or else libyaml's parser with PyYAML's resolver (as
    yaml.SafeLoader does, several times faster) if PyYAML has libyaml."""
    import yaml

    return _YAML_LOADER or (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def _read_yaml(stream, name: str):
    """The YAML document read from ``stream``, an input called ``name``: the
    object, or the error, that ``yaml.load`` with :func:`_loader` gives.
    :class:`_Scanner` reads a document in its subset, and ``yaml.load`` any
    other. A value that its tag's constructor cannot build (``!!bool
    maybe`` raises ``KeyError``, ``!!int ""`` ``IndexError``) is one
    :class:`SchemaError` naming the input; YAML syntax errors and I/O
    errors pass through unchanged. A document that nests more than
    ``_C_NESTING`` levels deep is this SchemaError, naming the
    RecursionError that PyYAML's pure-Python composer would raise on it.
    """
    try:
        text = stream.read()
        try:
            return _Scanner(text).document()
        except _Declined:
            pass
        if _could_nest_deeper(text, _C_NESTING):
            raise RecursionError(f"collections nest more than {_C_NESTING} levels deep")
        import yaml

        source = io.StringIO(text)
        source.name = getattr(stream, "name", "<file>")  # which YAML error marks name
        return yaml.load(source, Loader=_loader())
    except OSError:
        raise
    except Exception as exc:
        yaml = sys.modules.get("yaml")  # only a declined document imported it
        if yaml is not None and isinstance(exc, yaml.YAMLError):
            raise
        raise SchemaError(f"{name}: cannot decode a YAML value: {type(exc).__name__}: {exc}") from exc


class _Declined(Exception):
    """The document is outside the subset that :class:`_Scanner` reads."""


# Any character but printable ASCII and the line feed: tabs, CR, a BOM, ...
_OUTSIDE = re.compile(r"[^\n -~]").search
# The plain scalars read, in the types YAML 1.1's resolver gives them: ints
# and floats that JSON reads alike, true, false and null; other floats with a
# dot and, if any, a signed exponent; ~; and letter-led strings other than a
# YAML 1.1 bool or null word.
_SCALAR = re.compile(
    r"(true|false|null|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+][0-9]+)?)?)"
    r"|(-?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?)|(~)"
    r"|(?!(?i:yes|no|on|off|true|false|null)\Z)[A-Za-z][-A-Za-z0-9 _.,/()%+#]*"
).fullmatch
# Flow collections split at brackets, commas, colons and line breaks. A colon
# must follow its key on the line and be followed by a blank: YAML versions
# read other colons differently.
_FLOW_SPLIT = re.compile(r"([][{},:\n])").split
_LONE_COLON = re.compile(r":(?![ \n])|\n:").search
_DEPTH = 20  # deeper nesting is declined
_KEY_LENGTH = 1000  # YAML limits a plain key to 1024 characters


@lru_cache(maxsize=4096)  # keys and many values recur
def _json(token: str) -> str:
    """The JSON text of a whitelisted plain scalar, blanks around it cut; ""
    for blanks alone."""
    token = token.strip(" ")
    if not token:
        return ""
    match = _SCALAR(token)
    if match is None or len(token) > _KEY_LENGTH:
        raise _Declined(token)
    kind = match.lastindex
    if kind is None:
        return f'"{token}"'
    return token if kind == 1 else repr(float(token)) if kind == 2 else "null"


def _unique(pairs: list) -> dict:
    """A JSON object as a dict; a duplicate key declines the document."""
    items = dict(pairs)
    if len(items) != len(pairs):
        raise _Declined("a duplicate key")
    return items


def _line(raw: str):
    """A line's indentation and its content without the comment, or None for
    a blank or comment line."""
    content = raw.lstrip(" ")
    if not content or content[0] == "#":
        return None
    cut = content.find(" #")
    return len(raw) - len(content), (content if cut < 0 else content[:cut]).rstrip(" ")


class _Scanner:
    """Rewrites a YAML document of the subset as JSON, line by line, and
    decodes that; raises :class:`_Declined` on anything else."""

    def __init__(self, text: str):
        if not isinstance(text, str) or _OUTSIDE(text):
            raise _Declined("a character other than printable ASCII")
        self.raw = text.split("\n")
        self.lines = [_line(raw) for raw in self.raw]
        self.pos = 0

    def document(self):
        """The document's value: the node under a key above its first line."""
        text = self.node("", -1, 0)
        if self.peek() is not None:
            raise _Declined("a line after the document")
        try:
            return json.loads(text, object_pairs_hook=_unique)
        except ValueError as exc:  # brackets that do not pair, a key that is not a string, ...
            raise _Declined(exc) from None

    def peek(self):
        """The next line that is not blank or a comment, or None at the end."""
        while self.pos < len(self.lines) and self.lines[self.pos] is None:
            self.pos += 1
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def node(self, rest: str, indent: int, depth: int) -> str:
        """The JSON text of the node after ``key:`` or ``-`` on a line at
        ``indent``: ``rest`` of that line, or the lines below it."""
        if depth > _DEPTH:
            raise _Declined("too deep")
        if rest == ">":
            return json.dumps(self.folded(indent))
        if rest:
            return self.flow(rest, indent) if rest[0] in "{[" else _json(rest)
        line = self.peek()
        if line is None or line[0] < indent or line[0] == indent and line[1][:2] != "- ":
            return "null"
        if line[1][:2] == "- ":
            return self.sequence(line[0], depth)
        if line[1][0] in "{[":
            self.pos += 1
            return self.flow(line[1], line[0])
        return self.mapping(line[0], depth)

    def mapping(self, indent: int, depth: int) -> str:
        """The JSON text of a block mapping, its keys at ``indent``."""
        entries = []
        while (line := self.peek()) is not None and line[0] >= indent:
            key, colon, rest = line[1].partition(":")
            if line[0] > indent or not colon or rest[:1] not in ("", " "):
                raise _Declined(line[1])
            self.pos += 1
            entries.append(_json(key) + ":" + self.node(rest.lstrip(" "), indent, depth + 1))
        return "{" + ",".join(entries) + "}"

    def sequence(self, indent: int, depth: int) -> str:
        """The JSON text of a block sequence of one-line items, its dashes
        at ``indent``."""
        items = []
        while (line := self.peek()) is not None and line[0] == indent and line[1][:2] == "- ":
            self.pos += 1
            items.append(self.node(line[1][2:].lstrip(" "), indent, depth + 1))
        return "[" + ",".join(items) + "]"

    def folded(self, indent: int) -> str:
        """The value of a ``>`` scalar of one paragraph: lines at one
        indentation deeper than ``indent``, none ending in a blank, then
        empty lines at most before a line less indented."""
        raw, end = self.raw, self.pos
        margin = len(raw[end]) - len(raw[end].lstrip(" ")) if end < len(raw) else 0
        pad, lines = " " * margin, []
        while margin > indent and end < len(raw) and raw[end].startswith(pad) and raw[end].strip(" "):
            line = raw[end][margin:]
            if line[0] == " " or line[-1] == " ":
                raise _Declined(line)
            lines.append(line)
            end += 1
        after = end
        while after < len(raw) and not raw[after]:
            after += 1
        if not lines or after < len(raw) and (raw[after].startswith(pad) or not raw[after].strip(" ")):
            raise _Declined("a folded scalar of other than one paragraph")
        self.pos = end
        return " ".join(lines) + ("\n" if end < len(raw) else "")

    def flow(self, text: str, indent: int) -> str:
        """The JSON text of the flow collection that ``text`` opens,
        continued on the lines below deeper than ``indent`` until its
        brackets close."""
        pieces, opened = [text], _opened(text)
        while opened > 0:
            line = self.peek()
            if line is None or line[0] <= indent:
                raise _Declined("an unclosed flow collection")
            self.pos += 1
            pieces.append(line[1])
            opened += _opened(line[1])
        text = "\n".join(pieces)  # a plain scalar over two lines is two JSON values
        if _LONE_COLON(text) or text.count("{") + text.count("[") > _DEPTH:
            raise _Declined(text)
        parts = _FLOW_SPLIT(text)
        parts[::2] = map(_json, parts[::2])
        return "".join(parts)


def _opened(text: str) -> int:
    """How many more brackets ``text`` opens than it closes."""
    return text.count("{") + text.count("[") - text.count("}") - text.count("]")


# libyaml's composer recurses on the C stack, which overflows (SIGSEGV) some
# 25 000 levels deep; PyYAML's pure-Python composer raises RecursionError.
_C_NESTING = 1000


def _could_nest_deeper(text: str, levels: int) -> bool:
    """Whether a YAML document nests collections more than ``levels`` deep,
    measured from libyaml's parse events, which do not recurse, up to its
    first syntax error."""
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
