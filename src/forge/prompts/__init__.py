"""Versioned prompt assets.

Assets live as text files next to this module, one per (name, version).
Asset ids look like "assistant_system:v1". Slots use {{name}} markers.
"""

from __future__ import annotations

import functools
import re
from importlib import resources

_SLOT_RE = re.compile(r"\{\{(\w+)\}\}")


@functools.cache
def get_prompt(asset_id: str) -> str:
    """Load a prompt asset by id, e.g. ``get_prompt("user_proxy:v1")``.

    Each asset is read once per process; an unknown id raises ``KeyError``
    every time, since exceptions are not cached."""
    name, _, version = asset_id.partition(":")
    filename = f"{name}_{version}.txt"
    ref = resources.files(__package__).joinpath(filename)
    if not ref.is_file():
        raise KeyError(f"unknown prompt asset: {asset_id!r}")
    return ref.read_text(encoding="utf-8")


def render(template: str, **slots: str) -> str:
    """Fill every {{slot}} marker; unknown or missing slots are errors."""

    def _sub(match: re.Match) -> str:
        key = match.group(1)
        if key not in slots:
            raise KeyError(f"template slot {{{{{key}}}}} not provided")
        return slots[key]

    filled = _SLOT_RE.sub(_sub, template)
    return filled
