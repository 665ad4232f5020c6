"""Deterministic seed derivation.

All randomness in the pipeline flows from one root seed; sub-seeds are
derived by hashing (seed, label) so that replays are reproducible across
processes and concurrency levels.
"""

from __future__ import annotations

import hashlib
import zlib


def split_seed(seed: int, label: str) -> int:
    """Derive a child seed from a parent seed and a context label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def dialogue_seed(dialogue_id: str, label: str) -> int:
    """The seed of request ``label`` about a finished dialogue (a judge
    verdict or a rubric grade), derived from the dialogue's id."""
    return split_seed(zlib.crc32(dialogue_id.encode("utf-8")), label)
