"""Tool embedding and nearest-neighbour retrieval.

Two embedder backends:

* HashEmbedder -- deterministic token-hash bag-of-words, fully offline.
  Lowercase, split on non-alphanumerics, hash each token into one of
  ``dimension`` buckets (stable CRC32, not the per-process builtin hash),
  L2-normalize.
* RemoteEmbedder -- OpenAI-style /embeddings endpoint, routed through the
  gateway's HTTP layer so only one module touches the network.

Similarity is the inner product of L2-normalized vectors (cosine). A
catalogue or persona store is embedded once per embedder identity into a
float32 ``VectorIndex``. A query scores every row with one matrix product,
shortlists the rows within a margin of the k-th score, and re-scores the
shortlist with the float64 embedding, so rankings and score floats equal
those of an exhaustive float64 scan. The margin: a float32 dot product of
length d errs by at most (d + 2) * 2**-24 * |q| * |v|, so a margin of
(d + 4) * 2**-23 * |q| * max|v| keeps every row that can reach the k-th score.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import threading
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from . import gateway
from .catalogue import Catalogue, Tool

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class Embedder(Protocol):
    """Frozen text encoder: same text always maps to the same vector."""

    dimension: int
    identity: str

    def embed(self, text: str) -> np.ndarray: ...


@dataclass(frozen=True)
class DistractorSet:
    """The k tools most similar to a seed tool, with similarity scores."""

    seed: str
    members: tuple[tuple[str, float], ...]

    def names(self) -> list[str]:
        return [name for name, _ in self.members]

    def to_dict(self) -> dict:
        return {"seed": self.seed, "members": [[n, s] for n, s in self.members]}

    @classmethod
    def from_dict(cls, d: dict) -> "DistractorSet":
        return cls(seed=d["seed"], members=tuple((n, float(s)) for n, s in d["members"]))


def tool_text(tool: Tool) -> str:
    """Canonical text rendering of a tool for embedding.

    Name, description, then one "param: description" line per parameter in
    declaration order.
    """
    lines = [tool.name, tool.description]
    for pname, spec in tool.params.items():
        lines.append(f"{pname}: {spec.description}")
    return "\n".join(lines)


class HashEmbedder:
    """Deterministic bag-of-words embedder over hashed token buckets."""

    def __init__(self, dimension: int = 256):
        self.dimension = dimension
        self.identity = f"hash-bow-{dimension}"

    def embed(self, text: str) -> np.ndarray:
        buckets = [zlib.crc32(token.encode("utf-8")) % self.dimension
                   for token in _TOKEN_RE.findall(text.lower())]
        vec = np.bincount(buckets, minlength=self.dimension).astype(np.float64)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


class RemoteEmbedder:
    """Embedder backed by a remote embedding endpoint."""

    def __init__(self, endpoint: str, model_id: str, dimension: int,
                 api_key_env: str | None = None, timeout: float = 30.0,
                 retry_limit: int = 3):
        self.endpoint = endpoint
        self.model_id = model_id
        self.dimension = dimension
        self.identity = f"remote-{model_id}"
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.retry_limit = retry_limit

    def embed(self, text: str) -> np.ndarray:
        body = {"model": self.model_id, "input": [text]}
        reply = gateway.post_json(
            self.endpoint, body, api_key_env=self.api_key_env,
            timeout=self.timeout, retry_limit=self.retry_limit,
        )
        vec = np.asarray(reply["data"][0]["embedding"], dtype=np.float64)
        if vec.shape != (self.dimension,):
            raise ValueError(
                f"embedding endpoint returned dimension {vec.shape[0]}, expected {self.dimension}"
            )
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        return vec


class EmbeddingCache:
    """Optional text-hash -> vector cache, versioned by embedder identity.

    Concurrent inserts of identical keys are idempotent.
    """

    def __init__(self, embedder: Embedder):
        self.embedder = embedder
        self.dimension = embedder.dimension
        self.identity = embedder.identity
        self._vectors: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def embed(self, text: str) -> np.ndarray:
        key = self._key(text)
        with self._lock:
            hit = self._vectors.get(key)
        if hit is not None:
            return hit
        vec = self.embedder.embed(text)
        with self._lock:
            self._vectors.setdefault(key, vec)
        return vec

    def save(self, path: str | Path) -> None:
        with self._lock:
            payload = {
                "embedder": self.identity,
                "dimension": self.dimension,
                "vectors": {k: v.tolist() for k, v in self._vectors.items()},
            }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    def load(self, path: str | Path) -> None:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("embedder") != self.identity:
            raise ValueError(
                f"cache was built by embedder {payload.get('embedder')!r}, "
                f"this cache serves {self.identity!r}"
            )
        with self._lock:
            for k, v in payload["vectors"].items():
                self._vectors.setdefault(k, np.asarray(v, dtype=np.float64))


class VectorIndex:
    """Texts embedded once into a float32 matrix, queried with exact scores.

    ``top`` orders rows by their float64 score descending, then by ``keys``
    ascending (row position when no keys are given), exactly as a full scan
    that re-embeds every text would.
    """

    def __init__(self, texts: list[str], emb: Embedder, keys: list | None = None):
        self.texts = texts
        self.emb = emb
        self.keys = range(len(texts)) if keys is None else keys
        self.matrix = np.empty((len(texts), emb.dimension), dtype=np.float32)
        peak = 0.0
        for row, vec in enumerate(map(emb.embed, texts)):
            self.matrix[row] = vec
            peak = max(peak, float(np.dot(vec, vec)))
        self._max_norm = math.sqrt(peak)

    def top(self, query: np.ndarray, k: int, exclude: int | None = None) -> list[tuple[int, float]]:
        """The k best (row, score) pairs for a float64 query, ``exclude`` left out."""
        n = len(self.texts)
        k = min(k, n - (exclude is not None))
        if k < 1:
            return []
        approx = self.matrix @ query.astype(np.float32)
        if exclude is not None:
            approx[exclude] = -np.inf
        kth = float(np.partition(approx, n - k)[n - k])
        # twice the float32 error bound on any score (module docstring)
        margin = ((self.matrix.shape[1] + 4) * 2.0 ** -23
                  * float(np.linalg.norm(query)) * self._max_norm)
        scored = sorted(
            (-float(np.dot(query, self.emb.embed(self.texts[row]))), self.keys[row], row)
            for row in np.flatnonzero(approx >= kth - margin).tolist()
        )
        return [(row, -neg) for neg, _, row in scored[:k]]


_INDEX_LOCK = threading.Lock()


def cached_index(owner, emb: Embedder, build: Callable[[], VectorIndex]) -> VectorIndex:
    """The owner's index for this embedder identity, built on first use.

    ``owner._indexes`` is written once per identity under a lock, so
    concurrent first queries build one index.
    """
    with _INDEX_LOCK:
        index = owner._indexes.get(emb.identity)
        if index is None:
            index = owner._indexes[emb.identity] = build()
    return index


def _catalogue_index(cat: Catalogue, emb: Embedder) -> VectorIndex:
    return cached_index(
        cat, emb, lambda: VectorIndex([tool_text(t) for t in cat.tools], emb, cat.names()))


def nearest_distractors(cat: Catalogue, seed: str, k: int, emb: Embedder) -> DistractorSet:
    """Top-k tools most similar to the seed, excluding the seed itself.

    Exact over the whole catalogue; ties broken by ascending tool name.
    """
    if seed not in cat:
        raise KeyError(f"unknown seed tool: {seed!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    seed_vec = emb.embed(tool_text(cat.get(seed)))
    top = _catalogue_index(cat, emb).top(seed_vec, k, exclude=cat.index[seed])
    return DistractorSet(seed=seed, members=tuple((cat.tools[row].name, s) for row, s in top))


def search_catalogue(cat: Catalogue, query: str, k: int, emb: Embedder) -> list[tuple[str, float]]:
    """Top-k tools for a free-text query (exact, name tie-break).

    This is the live retriever the assistant consults during synthesis.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    top = _catalogue_index(cat, emb).top(emb.embed(query), k)
    return [(cat.tools[row].name, s) for row, s in top]


def candidate_pool(seed: str, dset: DistractorSet, rng_seed: int) -> list[str]:
    """Seed plus distractors, shuffled by a seeded RNG.

    The shuffle keeps the gold tool's presentation position uniform across
    seeds while staying reproducible for any fixed seed.
    """
    if dset.seed != seed:
        raise ValueError(f"distractor set belongs to {dset.seed!r}, not {seed!r}")
    pool = [seed] + dset.names()
    random.Random(rng_seed).shuffle(pool)
    return pool
