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

``parse_catalogue`` runs with Python's cyclic garbage collector paused
(``no_gc``) and then restores the caller's GC state. A 5,000-tool catalogue
allocates about 17 containers per tool and no reference cycle, and each 700
allocations would otherwise start a collection that walks the catalogue
built so far.
"""

from __future__ import annotations

import gc
import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, wraps
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


def parse_json(text: str | bytes):
    """``json.loads``, whose only failure is a ValueError: JSON nested past
    the recursion limit raises one with RecursionError's message. Bytes (as
    every input file and remote reply arrives) must be UTF-8, a leading BOM
    skipped. A value holding a lone surrogate (the escape ``"\\ud83d"``) is
    refused: UTF-8 cannot encode it, so a fingerprint or prompt would fail."""
    if isinstance(text, bytes):
        # what json.loads does with UTF-8, but strict: it passes encoded surrogates
        text = text.decode("utf-8-sig")
    try:
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except RecursionError as exc:
        raise ValueError(str(exc)) from exc
    except UnicodeEncodeError as exc:
        raise ValueError(f"JSON text holds a lone surrogate {exc.object[exc.start]!r}, "
                         "which UTF-8 cannot encode") from None
    return value


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


def no_gc(fn):
    """``fn`` run with the cyclic garbage collector paused; the caller's GC
    state is restored after it, so the GC is re-enabled only if it was on.

    Its one caller is ``parse_catalogue``, which keeps every container it
    allocates and makes no reference cycle; an index block frees what it
    makes, so a pause there would save no collection. The pause is
    process-wide and not safe for overlapping calls (A disables, B reads
    "off", A re-enables, B disables for good), so a function that can make
    a remote call or run dialogue work is never wrapped.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


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


@dataclass
class Catalogue:
    """Immutable collection of tools with a name index. Safe for concurrent reads.

    It holds no retrieval state: a command builds its ``retrieval.ToolIndex`` once.
    """

    tools: list[Tool]
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.tools)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def get(self, name: str) -> Tool:
        if name not in self.index:
            raise KeyError(f"unknown tool: {name!r}")
        return self.tools[self.index[name]]

    def names(self) -> list[str]:
        return [t.name for t in self.tools]

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


def _parse_param(tool_name: str, pname: str, raw: object) -> ParamSpec:
    if not isinstance(raw, dict):
        raise CatalogueError(f"tool {tool_name!r}: parameter {pname!r} must be an object")
    for key in _PARAM_KEYS:
        if key not in raw:
            raise CatalogueError(f"tool {tool_name!r}: parameter {pname!r} missing key {key!r}")
    type_tag = raw["type"]
    if type_tag not in TYPE_TAGS:
        raise CatalogueError(
            f"tool {tool_name!r}: parameter {pname!r} has unknown type {type_tag!r}"
        )
    description = raw["description"]
    if not isinstance(description, str) or not description:
        raise CatalogueError(f"tool {tool_name!r}: parameter {pname!r} description must be non-empty")
    required = raw["required"]
    if not isinstance(required, bool):
        raise CatalogueError(f"tool {tool_name!r}: parameter {pname!r} required must be boolean")
    # every key of _PARAM_KEYS is present, so any further key is an extra
    extra = ({k: v for k, v in raw.items() if k not in _PARAM_KEYS}
             if len(raw) > len(_PARAM_KEYS) else {})
    return ParamSpec(type_tag, description, required, extra)


def parse_tool(raw: object) -> Tool:
    """Validate one tool object from the on-disk representation."""
    if not isinstance(raw, dict):
        raise CatalogueError("tool entry must be a JSON object")
    for key in _TOOL_KEYS:
        if key not in raw:
            raise CatalogueError(f"tool entry missing key {key!r}")
    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise CatalogueError("tool name must be a non-empty string")
    description = raw["description"]
    if not isinstance(description, str):
        raise CatalogueError(f"tool {name!r}: description must be a string")
    params_raw = raw["parameters"]
    if not isinstance(params_raw, dict):
        raise CatalogueError(f"tool {name!r}: parameters must be an object")
    params = {pname: _parse_param(name, pname, praw) for pname, praw in params_raw.items()}
    extra = ({k: v for k, v in raw.items() if k not in _TOOL_KEYS}
             if len(raw) > len(_TOOL_KEYS) else {})
    return Tool(name=name, description=description, params=params, extra=extra)


def load_catalogue(path: str | Path) -> Catalogue:
    """``parse_catalogue`` of a JSON file's bytes; a file that cannot be
    read is a CatalogueError too."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CatalogueError(f"cannot read catalogue file {path}: {exc}") from exc
    return parse_catalogue(data)


@no_gc
def parse_catalogue(text: str | bytes) -> Catalogue:
    """Parse and validate a tool catalogue's JSON text or bytes: CatalogueError
    on JSON that ``parse_json`` cannot read, schema violations, duplicate tool
    names or an empty catalogue. Pure function of its input."""
    try:
        raw = parse_json(text)
    except ValueError as exc:
        raise CatalogueError(f"malformed catalogue JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CatalogueError("catalogue must be a JSON array of tool objects")
    if not raw:
        raise CatalogueError("catalogue must contain at least one tool")
    index: dict[str, int] = {}
    for i, entry in enumerate(raw):
        raw[i] = tool = parse_tool(entry)  # each raw entry is freed once parsed
        if tool.name in index:
            raise CatalogueError(f"duplicate tool name: {tool.name!r}")
        index[tool.name] = i
    return Catalogue(tools=raw, index=index)


def required_args(tool: Tool) -> list[str]:
    """Names of the tool's required parameters, in declaration order."""
    return [p for p, spec in tool.params.items() if spec.required]
