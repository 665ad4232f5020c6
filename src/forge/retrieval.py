"""Tool embedding and nearest-neighbour retrieval.

Two embedder backends:

* HashEmbedder -- deterministic token-hash bag-of-words, fully offline.
  The tokens are the maximal runs of ASCII ``a-z0-9`` in ``str.lower()``
  of the text. Each token's UTF-8 bytes are hashed into one of
  ``dimension`` buckets (stable CRC32, not the per-process builtin hash),
  and the bucket counts are L2-normalized.
* RemoteEmbedder -- OpenAI-style /embeddings endpoint, routed through the
  gateway's HTTP layer so only one module touches the network.

Similarity is the inner product of L2-normalized vectors (cosine). A
catalogue or persona store is embedded once per embedder identity into a
float32 ``VectorIndex``, ``_BLOCK_ROWS`` texts at a time through
``Embedder.embed_many``. So the build holds no catalogue-wide temporary:
beyond the matrix it keeps one block's tokens, bucket ids and int64 and
float64 rows, under 1 MiB at d = 256. ``HashEmbedder.embed_many`` hashes a
block's tokens in one C-level pass and counts them with one
``np.bincount``; its rows are byte-equal to ``embed``'s.

A query scores every row with one matrix product, shortlists the rows
within a margin of the k-th score, and re-scores the shortlist with the
float64 embedding, so rankings and score floats equal those of an
exhaustive float64 scan. The margin: a float32 dot product of
length d errs by at most (d + 2) * 2**-24 * |q| * |v|, so a margin of
(d + 4) * 2**-23 * |q| * max|v| keeps every row that can reach the k-th score.
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain
from typing import Protocol

import numpy as np

from . import gateway
from .catalogue import Catalogue, Tool

# every byte outside ASCII a-z0-9 becomes a space; each byte of a multi-byte
# UTF-8 sequence is >= 0x80, so the tokens are those of re "[a-z0-9]+"
_TABLE = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
               for b in range(256))

# texts per VectorIndex build step; 512 raised a 5,000-tool generate's
# peak RSS by ~5 MB
_BLOCK_ROWS = 64


def _tokens(text: str) -> list[bytes]:
    # "surrogatepass" encodes a lone surrogate as three bytes >= 0x80
    return text.lower().encode("utf-8", "surrogatepass").translate(_TABLE).split()


class Embedder(Protocol):
    """Frozen text encoder: same text always maps to the same vector."""

    dimension: int
    identity: str

    def embed(self, text: str) -> np.ndarray: ...

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """float64 array of shape (len(texts), dimension); row i equals embed(texts[i])."""
        ...


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
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.identity = f"hash-bow-{dimension}"

    def _buckets(self, tokens, count: int) -> np.ndarray:
        """Bucket id of each token, hashed in C."""
        return np.fromiter(map(zlib.crc32, tokens), np.int64, count=count) % self.dimension

    def embed(self, text: str) -> np.ndarray:
        tokens = _tokens(text)
        if not tokens:
            return np.zeros(self.dimension)
        counts = np.bincount(self._buckets(tokens, len(tokens)), minlength=self.dimension)
        # the squared norm of integer counts is exact, so this equals
        # dividing by np.linalg.norm of the float64 counts
        return counts / math.sqrt(counts @ counts)

    def embed_many(self, texts: list[str]) -> np.ndarray:
        d, rows = self.dimension, len(texts)
        tokens = list(map(_tokens, texts))
        lengths = np.fromiter(map(len, tokens), np.int64, count=rows)
        # row r's tokens count into the flat buckets [r * d, (r + 1) * d)
        buckets = self._buckets(chain.from_iterable(tokens), int(lengths.sum()))
        buckets += np.repeat(np.arange(0, rows * d, d, dtype=np.int64), lengths)
        counts = np.bincount(buckets, minlength=rows * d).reshape(rows, d)
        # exact integer squared norms; a zero-token row divides 0 by 1
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        norms[norms == 0] = 1.0
        return counts / norms[:, None]


class RemoteEmbedder:
    """Embedder backed by a remote embedding endpoint."""

    def __init__(self, endpoint: str, model_id: str, dimension: int,
                 api_key_env: str | None = None, timeout: float = 30.0,
                 retry_limit: int = 3):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
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

    def embed_many(self, texts: list[str]) -> np.ndarray:
        # one request per text: batching waits for a documented server cap
        return np.array([self.embed(t) for t in texts]).reshape(len(texts), self.dimension)


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
        for start in range(0, len(texts), _BLOCK_ROWS):
            block = emb.embed_many(texts[start:start + _BLOCK_ROWS])
            self.matrix[start:start + len(block)] = block
            peak = max(peak, float(np.einsum("ij,ij->i", block, block).max()))
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
