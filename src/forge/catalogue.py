"""Enterprise tool catalogue: loading, validation and indexing.

On-disk format is a JSON array of tool objects:

    [{"name": "...", "description": "...",
      "parameters": {"<pname>": {"type": "...", "description": "...", "required": true}}}]

Unknown extra fields on tools and parameters are preserved for round-trips
but otherwise ignored. Parameter order is preserved from the file so that
prompt rendering stays byte-reproducible.

``Catalogue.render`` owns the JSON that prompts show for tools. Each tool
is encoded once (``Tool.json_text``, through ``dump_json``); a list is
spliced from those strings and is byte-equal to ``json.dumps([t.to_dict()
...], ensure_ascii=False, indent=2)``.

``dump_json`` is forge's one writer of indented JSON, beside ``parse_json``,
its one reader. It splices ``json.dumps(value, ensure_ascii=False,
indent=2)`` from leaves that json's C encoder escapes, because ``indent``
sends ``json.dumps`` to its pure-Python encoder, which is slower and leaves
a cycle of closures for the garbage collector on every call. Strings go
through json's C escaper (``encode_str``); ``_scalar`` writes ``null``,
``true``, ``false`` and the repr of an exact ``int`` or finite ``float``
itself, as json does, and hands only NaN, the infinities and subclasses to
a JSON encoder, so a tool's ``required`` flags and integer leaves build no
encoder object.

``parse_catalogue`` reads the top-level array one tool object at a time
with json's own C scanner (``_scan``, the one ``json.loads`` uses): it
checks each object, in file order, records its name, its start offset in
the decoded text and its embedding text (``tool_text``'s format, ``_text``),
and drops it. The ``Catalogue`` keeps the decoded text, the offsets, the
name index and the texts, so its memory is about the file's text plus the
embedding texts, with no container per tool, and a ``Tool`` is decoded from
its offset and built on first read: a ``generate`` that reads 42 tools of a
5,000-tool catalogue builds 42. At any fault the read stops and the text is
decoded whole (``parse_json``) and checked as one list, so every
``CatalogueError`` message, and which of two faults wins, is that of a whole
decode. The parse holds one tool's containers at a time and keeps none, so
it starts no collection of Python's cyclic GC and needs no pause.

``MAX_DEPTH`` bounds how deep any JSON value from outside forge may nest,
and ``parse_json`` owns the bound: deeper is a ValueError with one message,
whatever the interpreter's recursion limit. A checked tool object nests
only under its extra keys, so ``_check_tool`` walks only a tool that has
one, and the bound, far below any interpreter's limit, makes the reader
and a whole decode accept the same texts. Every value forge writes was read
through ``parse_json`` or built by forge, so ``_dump``, which recurses two
frames per level, never nears the limit.
"""

from __future__ import annotations

import json
import math
import re
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

# the Python types a JSON value of each parameter type tag decodes to
TAG_TYPES = {"string": str, "integer": int, "number": (int, float), "boolean": bool,
             "array": list, "object": dict}
# a tuple, not a set: membership compares with ==, so an unhashable
# (list-valued) type is reported as unknown rather than raising TypeError
TYPE_TAGS = tuple(TAG_TYPES)
_PARAM_KEYS = ("type", "description", "required")
_TOOL_KEYS = ("name", "description", "parameters")


class CatalogueError(ValueError):
    """Raised when a catalogue file fails parsing or schema validation."""


def typed(name: str, value, kind: type | tuple[type, ...], noun: str):
    """``value``, which JSON field ``name`` must hold as a ``kind`` (never a
    bool, which JSON keeps apart from numbers); else a ValueError naming the
    field. Configs, scenario and trace records are all read through it."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return value


def fault(exc: Exception) -> str:
    """The text that reports a fault in a config file or a remote reply:
    a KeyError's is ``missing key 'name'``, since its own is the bare key."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


# the JSON escape of a UTF-16 surrogate: only a text that holds one can
# decode to a lone surrogate
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _encode_surrogates(value, text: str, start: int = 0, end: int = sys.maxsize) -> None:
    """A UnicodeEncodeError if ``value``, decoded from ``text[start:end]``,
    holds a lone surrogate; only a text that holds a surrogate escape can."""
    if _SURROGATE_ESCAPE.search(text, start, end):
        json.dumps(value, ensure_ascii=False).encode("utf-8")


# how many arrays and objects deep a JSON value from outside forge may nest
MAX_DEPTH = 64


def _too_deep(limit: int) -> str:
    """The one message for JSON nested more than ``limit`` levels deep."""
    return f"JSON nested deeper than {limit} levels"


def _nested_past(value, limit: int) -> bool:
    """Whether a JSON-decoded ``value`` nests more than ``limit`` arrays and
    objects deep (a scalar is 0 deep, ``[]`` 1); walked one level at a time,
    without recursion, listing only the containers of each level."""
    level = [value] if type(value) is dict or type(value) is list else []
    for _ in range(limit):
        if not level:
            return False
        level = [c for v in level for c in (v.values() if type(v) is dict else v)
                 if type(c) is dict or type(c) is list]
    return bool(level)


# a JSON string (or the rest of a text cut inside one), or a bracket
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"?|[][{}]', re.DOTALL)


def _opens_past(text: str, end: int, limit: int) -> bool:
    """Whether ``text[:end]`` opens more than ``limit`` arrays and objects
    that it has not closed, at any point."""
    depth = 0
    for token in _STRING_OR_BRACKET.finditer(text, 0, end):
        bracket = token[0]
        if bracket == "[" or bracket == "{":
            depth += 1
            if depth > limit:
                return True
        elif bracket == "]" or bracket == "}":
            depth -= 1
    return False


def parse_json(text: str | bytes, max_depth: int = MAX_DEPTH):
    """``json.loads``, whose only failure is a ValueError. Bytes (as every
    input file and remote reply arrives) must be UTF-8, a leading BOM
    skipped. A value nested more than ``max_depth`` deep is refused with one
    message, as is a malformed text that nests that deep before its fault
    and a text past the interpreter's own limit, so the rule is the same on
    every interpreter. A value holding a lone surrogate (the escape
    ``"\\ud83d"``) is refused: UTF-8 cannot encode it, so a fingerprint or
    prompt would fail."""
    if isinstance(text, bytes):
        # what json.loads does with UTF-8, but strict: it passes encoded surrogates
        text = text.decode("utf-8-sig")
    try:
        value = json.loads(text)
    except RecursionError:
        raise ValueError(_too_deep(max_depth)) from None
    except json.JSONDecodeError as exc:
        if _opens_past(text, exc.pos, max_depth):
            raise ValueError(_too_deep(max_depth)) from None
        raise
    if _nested_past(value, max_depth):
        raise ValueError(_too_deep(max_depth))
    try:
        _encode_surrogates(value, text)
    except UnicodeEncodeError as exc:
        raise ValueError(f"JSON text holds a lone surrogate {exc.object[exc.start]!r}, "
                         "which UTF-8 cannot encode") from None
    return value


# json's C scanner, the one json.loads runs: _scan(text, i) decodes the JSON
# value that starts at text[i] and returns it with its end offset (a
# StopIteration where no value starts). Threads share it as json.loads shares
# its one decoder: the key memo it clears after each value only dedupes keys.
_scan = json.JSONDecoder().scan_once
# a catalogue array's opening bracket, and each separator after a tool
# object (group 1: "," or "]"), with JSON's four whitespace characters around
_OPEN = re.compile(r"[ \t\n\r]*\[[ \t\n\r]*")
_NEXT = re.compile(r"[ \t\n\r]*([,\]])[ \t\n\r]*")


# the C string escaper ``json.dumps(..., ensure_ascii=False)`` uses, and one
# C-backed encoder for the scalars ``_scalar`` does not write itself
encode_str = json.encoder.encode_basestring
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


def _scalar(value) -> str:
    """``value``, a JSON scalar other than a string, as json writes it:
    the literal of ``None``, ``True`` or ``False``, and the repr of an exact
    ``int`` or finite ``float`` (json's own text for both). NaN, the
    infinities, subclasses and other types go through ``_encode_scalar``,
    which builds an encoder object on every call."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return _encode_scalar(value)


def dump_json(value) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2)`` for JSON-decoded
    data (string keys; a key of any other type raises TypeError), spliced
    from C-encoded leaves."""
    return _dump(value, "\n")


def _dump(value, pad: str) -> str:
    """``value`` as ``dump_json`` writes it at the nesting level whose line
    break and indent are ``pad``."""
    if isinstance(value, str):
        return encode_str(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [encode_str(k) + ": " + _dump(v, inner) for k, v in value.items()]) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_dump(v, inner) for v in value]) + pad + "]"
    return _scalar(value)


class ParamSpec(NamedTuple):
    """One parameter of a tool: (type, description, required), plus the
    file's extra keys.

    A NamedTuple because a catalogue builds one per parameter, and
    positional construction costs about a third of a frozen dataclass's.
    ``extra`` has no default (each spec gets its own dict) and, unlike
    ``Tool.extra``, takes part in equality.
    """

    type_tag: str
    description: str
    required: bool
    extra: dict

    def to_dict(self) -> dict:
        d = {"type": self.type_tag, "description": self.description, "required": self.required}
        d.update(self.extra)
        return d


@dataclass(frozen=True)
class Tool:
    """A callable endpoint: name, description, ordered parameter map."""

    name: str
    description: str
    params: dict[str, ParamSpec]
    extra: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "description": self.description,
            "parameters": {p: spec.to_dict() for p, spec in self.params.items()},
        }
        d.update(self.extra)
        return d

    @cached_property
    def json_text(self) -> str:
        """``dump_json(to_dict())``: indented JSON, encoded once per tool
        (the cache writes the instance ``__dict__``, which a frozen
        dataclass allows)."""
        return dump_json(self.to_dict())


class Catalogue:
    """A checked catalogue, in file order: its decoded JSON text, each tool
    object's start offset in it, a name index and each tool's embedding
    text (``texts``, what ``tool_text`` gives for the tool). Safe for
    concurrent reads.

    A ``Tool`` is decoded from its offset and built on first read (``get``)
    and kept; ``tools`` builds every one, in catalogue order, on first access
    and is a plain list after that. Every tool object was checked by
    ``parse_catalogue``, so a build checks nothing. The built-tool map takes
    no lock: a build is a pure function of the text, and two threads that
    build one tool at once keep the first.

    It holds no retrieval state: a command builds its ``retrieval.ToolIndex`` once.
    """

    def __init__(self, text: str, starts: array, index: dict[str, int], texts: list[str]):
        self.text = text  # tool row i's JSON object starts at text[starts[i]]
        self.starts = starts
        self.index = index  # name -> row
        self.texts = texts
        self._built: dict[str, Tool] = {}

    def __len__(self) -> int:
        return len(self.starts)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def get(self, name: str) -> Tool:
        tool = self._built.get(name)
        if tool is None:
            tool = self._built.setdefault(name, _build_tool(self.text, self.starts[self.row(name)]))
        return tool

    def row(self, name: str) -> int:
        """The tool's position in the catalogue; a KeyError when it is unknown."""
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(f"unknown tool: {name!r}") from None

    @cached_property
    def tools(self) -> list[Tool]:
        """Every tool, in catalogue order; the tools ``get`` built are reused."""
        built = self._built
        for name, row in self.index.items():
            if name not in built:
                built.setdefault(name, _build_tool(self.text, self.starts[row]))
        return [built[name] for name in self.index]

    def names(self) -> list[str]:
        return list(self.index)

    def render(self, names: list[str]) -> str:
        """The named tools, in order, as an indented JSON array.

        Splices the cached per-tool ``dump_json`` strings, indented one more
        level; this is byte-equal to ``dump_json`` of the list whole,
        because a JSON string never holds a raw newline.
        """
        if not names:
            return "[]"
        return "[\n  " + ",\n  ".join(
            self.get(n).json_text.replace("\n", "\n  ") for n in names) + "\n]"


def _check_tool(raw: object) -> str:
    """The name of one on-disk tool object, once it and each of its
    parameters pass every schema check and it fits under ``MAX_DEPTH``
    inside the catalogue array; else a CatalogueError naming the first
    fault. A tool without an extra key is 3 levels deep, so only a tool
    with one is walked."""
    if not isinstance(raw, dict):
        raise CatalogueError("tool entry must be a JSON object")
    for key in _TOOL_KEYS:
        if key not in raw:
            raise CatalogueError(f"tool entry missing key {key!r}")
    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise CatalogueError("tool name must be a non-empty string")
    if not isinstance(raw["description"], str):
        raise CatalogueError(f"tool {name!r}: description must be a string")
    params = raw["parameters"]
    if not isinstance(params, dict):
        raise CatalogueError(f"tool {name!r}: parameters must be an object")
    extra = len(raw) > 3
    for pname, param in params.items():
        if not isinstance(param, dict):
            raise CatalogueError(f"tool {name!r}: parameter {pname!r} must be an object")
        if len(param) > 3:
            extra = True
        for key in _PARAM_KEYS:
            if key not in param:
                raise CatalogueError(f"tool {name!r}: parameter {pname!r} missing key {key!r}")
        if param["type"] not in TYPE_TAGS:
            raise CatalogueError(
                f"tool {name!r}: parameter {pname!r} has unknown type {param['type']!r}")
        description = param["description"]
        if not isinstance(description, str) or not description:
            raise CatalogueError(f"tool {name!r}: parameter {pname!r} description must be non-empty")
        if not isinstance(param["required"], bool):
            raise CatalogueError(f"tool {name!r}: parameter {pname!r} required must be boolean")
    if extra and _nested_past(raw, MAX_DEPTH - 1):
        raise CatalogueError(f"malformed catalogue JSON: {_too_deep(MAX_DEPTH)}")
    return name


def _build_tool(text: str, start: int) -> Tool:
    """The ``Tool`` of the JSON tool object that starts at ``text[start]``,
    one that ``_check_tool`` passed; checks nothing. Every key of
    ``_PARAM_KEYS`` and ``_TOOL_KEYS`` is present, so any further key is an
    extra."""
    entry = _scan(text, start)[0]
    params = {}
    for pname, p in entry["parameters"].items():
        extra = {k: v for k, v in p.items() if k not in _PARAM_KEYS} if len(p) > 3 else {}
        params[pname] = ParamSpec(p["type"], p["description"], p["required"], extra)
    extra = {k: v for k, v in entry.items() if k not in _TOOL_KEYS} if len(entry) > 3 else {}
    return Tool(entry["name"], entry["description"], params, extra)


# how ``_text`` reads a parameter's description: from a built tool's
# ``ParamSpec`` and from a checked JSON tool object's parameter object
_SPEC_DESCRIPTION = attrgetter("description")
_ENTRY_DESCRIPTION = itemgetter("description")


def _text(name: str, description: str, params: dict, describe) -> str:
    """The embedding text of a tool: name, description, then one
    "param: description" line per parameter in declaration order, each
    description read by ``describe(spec)``."""
    lines = [name, description]
    for pname, spec in params.items():
        lines.append(f"{pname}: {describe(spec)}")
    return "\n".join(lines)


def tool_text(tool: Tool) -> str:
    """Canonical text rendering of a tool for embedding (``_text``); the
    catalogue's ``texts`` hold it for every tool."""
    return _text(tool.name, tool.description, tool.params, _SPEC_DESCRIPTION)


def load_catalogue(path: str | Path) -> Catalogue:
    """``parse_catalogue`` of a JSON file's bytes; a file that cannot be
    read is a CatalogueError too."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CatalogueError(f"cannot read catalogue file {path}: {exc}") from exc
    return parse_catalogue(data)


def parse_catalogue(text: str | bytes) -> Catalogue:
    """Parse and validate a tool catalogue's JSON text or bytes: CatalogueError
    on JSON that ``parse_json`` cannot read, schema violations, duplicate tool
    names or an empty catalogue. Pure function of its input.

    The text is read one tool object at a time (``_read_tools``); at the
    read's first fault it is decoded whole and checked as one list, which
    raises the CatalogueError that a whole decode finds first."""
    cat = _read_tools(text)
    if cat is not None:
        return cat
    try:
        raw = parse_json(text)
    except ValueError as exc:
        raise CatalogueError(f"malformed catalogue JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CatalogueError("catalogue must be a JSON array of tool objects")
    if not raw:
        raise CatalogueError("catalogue must contain at least one tool")
    names: set[str] = set()
    for entry in raw:
        name = _check_tool(entry)
        if name in names:
            raise CatalogueError(f"duplicate tool name: {name!r}")
        names.add(name)
    raise AssertionError("the reader refused a catalogue that a whole decode accepts")


def _read_tools(text: str | bytes) -> Catalogue | None:
    """The catalogue of a JSON array of valid tool objects, read one object
    at a time; None at any fault.

    Each object is decoded from its offset (``_scan``), checked and dropped.
    The read accepts exactly the texts that ``parse_json`` decodes to such
    an array: ``_check_tool`` holds each tool to the depth bound, far below
    the interpreter's limit, so a tool object decodes alone exactly when
    it decodes inside the whole array.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8-sig")  # as parse_json decodes it
        step = _OPEN.match(text)
        if step is None:
            return None
        starts, index, texts = array("q"), {}, []
        while True:
            start = step.end()
            value, end = _scan(text, start)  # a StopIteration where no value starts
            name = _check_tool(value)  # the depth bound too
            _encode_surrogates(value, text, start, end)
            if name in index:
                return None
            index[name] = len(starts)
            starts.append(start)
            texts.append(_text(name, value["description"], value["parameters"],
                               _ENTRY_DESCRIPTION))
            step = _NEXT.match(text, end)
            if step is None or step[1] == "]":
                break
    except (StopIteration, ValueError, RecursionError):
        return None
    if step is None or step.end() != len(text):
        return None
    return Catalogue(text, starts, index, texts)


def required_args(tool: Tool) -> list[str]:
    """Names of the tool's required parameters, in declaration order."""
    return [p for p, spec in tool.params.items() if spec.required]
