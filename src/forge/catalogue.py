"""Enterprise tool catalogue: loading, validation and indexing.

On-disk format is a JSON array of tool objects:

    [{"name": "...", "description": "...",
      "parameters": {"<pname>": {"type": "...", "description": "...", "required": true}}}]

Unknown extra fields on tools and parameters are preserved for round-trips
but otherwise ignored. Parameter order is preserved from the file so that
prompt rendering stays byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

TYPE_TAGS = ("string", "integer", "number", "boolean", "array", "object")


class CatalogueError(ValueError):
    """Raised when a catalogue file fails parsing or schema validation."""


@dataclass(frozen=True)
class ParamSpec:
    """One parameter of a tool: (type, description, required)."""

    type_tag: str
    description: str
    required: bool
    extra: dict = field(default_factory=dict, compare=False)

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


@dataclass
class Catalogue:
    """Immutable collection of tools with a name index. Safe for concurrent reads.

    ``_indexes`` caches one retrieval index per embedder identity; retrieval
    writes each entry once, under a lock.
    """

    tools: list[Tool]
    index: dict[str, int]
    _indexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def to_json(self) -> str:
        return json.dumps([t.to_dict() for t in self.tools], ensure_ascii=False, indent=2)


def _parse_param(tool_name: str, pname: str, raw: object) -> ParamSpec:
    if not isinstance(raw, dict):
        raise CatalogueError(f"tool {tool_name!r}: parameter {pname!r} must be an object")
    for key in ("type", "description", "required"):
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
    extra = {k: v for k, v in raw.items() if k not in ("type", "description", "required")}
    return ParamSpec(type_tag=type_tag, description=description, required=required, extra=extra)


def parse_tool(raw: object) -> Tool:
    """Validate one tool object from the on-disk representation."""
    if not isinstance(raw, dict):
        raise CatalogueError("tool entry must be a JSON object")
    for key in ("name", "description", "parameters"):
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
    params: dict[str, ParamSpec] = {}
    for pname, praw in params_raw.items():
        params[pname] = _parse_param(name, pname, praw)
    extra = {k: v for k, v in raw.items() if k not in ("name", "description", "parameters")}
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
