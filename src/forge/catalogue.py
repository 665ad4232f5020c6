"""Enterprise tool catalogue: loading, validation and indexing.

On-disk format is a JSON array of tool objects:

    [{"name": "...", "description": "...",
      "parameters": {"<pname>": {"type": "...", "description": "...", "required": true}}}]

Unknown extra fields on tools and parameters are preserved for round-trips
but otherwise ignored. Parameter order is preserved from the file so that
prompt rendering stays byte-reproducible.

``Catalogue.render`` owns the JSON that prompts show for tools. Each tool
is encoded once (``Tool.json_text``); a list is spliced from those strings
and is byte-equal to ``json.dumps([t.to_dict() ...], ensure_ascii=False,
indent=2)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

# a tuple, not a set: membership compares with ==, so an unhashable
# (list-valued) type is reported as unknown rather than raising TypeError
TYPE_TAGS = ("string", "integer", "number", "boolean", "array", "object")
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
        """``to_dict()`` as indented JSON, encoded once per tool (the
        cache writes the instance ``__dict__``, which a frozen dataclass
        allows)."""
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)


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

        Splices the cached per-tool strings, indented one more level; this
        is byte-equal to encoding the list whole, because a JSON string
        never holds a raw newline.
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
    """Load and validate a tool catalogue from a JSON file.

    Raises CatalogueError on malformed JSON, schema violations, duplicate
    tool names, or an empty catalogue. Pure function of the file bytes.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogueError(f"cannot read catalogue file {path}: {exc}") from exc
    return parse_catalogue(text)


def parse_catalogue(text: str) -> Catalogue:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogueError(f"malformed catalogue JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CatalogueError("catalogue must be a JSON array of tool objects")
    if not raw:
        raise CatalogueError("catalogue must contain at least one tool")
    tools: list[Tool] = []
    index: dict[str, int] = {}
    for entry in raw:
        tool = parse_tool(entry)
        if tool.name in index:
            raise CatalogueError(f"duplicate tool name: {tool.name!r}")
        index[tool.name] = len(tools)
        tools.append(tool)
    return Catalogue(tools=tools, index=index)


def required_args(tool: Tool) -> list[str]:
    """Names of the tool's required parameters, in declaration order."""
    return [p for p, spec in tool.params.items() if spec.required]
