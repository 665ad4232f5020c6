"""Tool embedding and nearest-neighbour retrieval.

Two embedder backends:

* HashEmbedder -- deterministic token-hash bag-of-words, fully offline.
  The tokens are the maximal runs of ASCII ``a-z0-9`` in ``str.lower()``
  of the text. Each token's UTF-8 bytes are hashed into one of
  ``dimension`` buckets (stable CRC32, not the per-process builtin hash),
  and the bucket counts are L2-normalized.
* RemoteEmbedder -- OpenAI-style /embeddings endpoint, held as a gateway
  ``BackendConfig`` (30 s timeout, 3 retries); each text is one call of
  ``gateway.post_json``, the package's one remote call.

A tool's embedding text has one format, ``catalogue.tool_text`` (importable
from here too): ``parse_catalogue`` writes every tool's text into the
catalogue's ``texts`` as it reads the file, a ``ToolIndex`` embeds that list
and builds no ``Tool``, and a distractor query names its members from the
index keys, so only the tools a dialogue reads are built
(``catalogue.Catalogue.get``).

Similarity is the inner product of L2-normalized vectors (cosine). A
command builds each index it queries once, before the first dialogue, and
every retrieval function takes the index: no cache or lock sits behind a
query. A build embeds its texts into a float32 matrix, ``_BLOCK_ROWS`` at a
time, so it holds no catalogue-wide temporary: beyond what the index keeps
it holds one block's tokens, bucket ids and int64 and float64 rows, under
1 MiB at d = 256. ``HashEmbedder.count_many``, its one counter, hashes a
list of texts' tokens in one C-level pass, counts them with one
``np.bincount`` and returns the counts with each row's exact norm. A hash
index builds each block through it, and ``embed(text)`` is its row for
``[text]`` over that row's norm. Any other embedder's block is ``embed`` of
each text. Neither a build nor a query pauses Python's cyclic GC: a block
frees every container it makes before it returns, so a pause there would
save no collection.

An index gives back each row's exact float64 embedding, bitwise
``embed(text)``, without calling the embedder again. It starts with one
norm a row (8 bytes, 40 KB at 5,000 texts): a hash row is its integer
counts c over their norm n, restored as ``rint(float64(matrix row) * n) / n``
-- the float32 row errs by at most c * 2**-24 relative to c / n, so while
every count is below 2**22 (``_EXACT_COUNT``) the product rounds back to c.
One rule covers every other row: the first block that cannot be restored
from its norms -- any non-hash block, or a hash block with a count at or
past the bound -- switches the index to float64 rows, restoring the rows
built before it, N * d * 8 bytes beside the float32 matrix (10 MB at 5,000
texts and d = 256).

A query scores every row with one matrix product, shortlists the rows
within a margin of the k-th score, and re-scores the shortlist with the
rows' float64 embeddings, so rankings and score floats equal those of an
exhaustive float64 scan. The margin: a float32 dot product of
length d errs by at most (d + 2) * 2**-24 * |q| * |v|, so a margin of
(d + 4) * 2**-23 * |q| * max|v| keeps every row that can reach the k-th score.
A free-text search embeds its query once; a distractor query and a persona
draw read the seed tool's row and embed nothing.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Protocol

import numpy as np

from . import gateway
from .catalogue import Catalogue, tool_text, typed

# every byte outside ASCII a-z0-9 becomes a space; each byte of a multi-byte
# UTF-8 sequence is >= 0x80, so the tokens are those of re "[a-z0-9]+"
_TABLE = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
               for b in range(256))

# texts per VectorIndex build step; 512 raised a 5,000-tool generate's
# peak RSS by ~5 MB
_BLOCK_ROWS = 64

# a hash row whose bucket counts all stay below this is restored bitwise
# from its float32 row and its norm (module docstring)
_EXACT_COUNT = 2 ** 22


def _tokens(text: str) -> list[bytes]:
    # "surrogatepass" encodes a lone surrogate as three bytes >= 0x80
    return text.lower().encode("utf-8", "surrogatepass").translate(_TABLE).split()


class Embedder(Protocol):
    """Frozen text encoder: same text always maps to the same vector."""

    dimension: int

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
        """The set a ``to_dict`` record describes; a field of the wrong JSON
        type is a ValueError naming the field."""
        pair = "a [name, score] pair"
        members = typed("distractors members", d["members"], list, f"an array of {pair}s")
        for member in members:
            if len(typed("distractor member", member, list, pair)) != 2:
                raise ValueError(f"distractor member must be {pair}, got {member!r}")
            typed("distractor name", member[0], str, "a string")
            typed("distractor score", member[1], (int, float), "a number")
        try:
            scored = tuple((name, float(score)) for name, score in members)
        except OverflowError:
            raise ValueError("distractor score must be a number within float range, "
                             "got a larger integer") from None
        return cls(seed=typed("distractors seed", d["seed"], str, "a string"), members=scored)


class HashEmbedder:
    """Deterministic bag-of-words embedder over hashed token buckets."""

    def __init__(self, dimension: int = 256):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension

    def count_many(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Each text's int64 bucket counts, shape (len(texts), dimension),
        and each row's exact L2 norm, 1.0 for a zero-token row."""
        d, rows = self.dimension, len(texts)
        tokens = list(map(_tokens, texts))
        lengths = list(map(len, tokens))
        # row r's tokens hash in C and count into the flat buckets [r * d, (r + 1) * d)
        buckets = np.fromiter(map(zlib.crc32, chain.from_iterable(tokens)), np.int64,
                              count=sum(lengths)) % d
        buckets += np.repeat(np.arange(0, rows * d, d, dtype=np.int64), lengths)
        counts = np.bincount(buckets, minlength=rows * d).reshape(rows, d)
        # exact integer squared norms; a zero-token row divides 0 by 1
        norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", counts, counts), 1))
        return counts, norms

    def embed(self, text: str) -> np.ndarray:
        counts, norms = self.count_many([text])
        return counts[0] / norms[0]


class RemoteEmbedder:
    """Embedder backed by a remote embedding endpoint."""

    def __init__(self, endpoint: str, model_id: str, dimension: int,
                 api_key_env: str | None = None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.backend = gateway.BackendConfig("remote", model_id, endpoint, api_key_env,
                                             timeout=30.0)
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        body = {"model": self.backend.model_id, "input": [text]}
        vec = gateway.post_json(self.backend, body, self._vector)
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def _vector(self, reply) -> np.ndarray:
        vec = np.asarray(reply["data"][0]["embedding"], dtype=np.float64)
        if vec.shape != (self.dimension,) or not np.isfinite(vec).all():
            raise ValueError(f"embedding must have dimension {self.dimension} and finite "
                             f"values, got shape {vec.shape}")
        return vec


class VectorIndex:
    """Texts embedded once into a float32 matrix, queried with exact scores.

    ``top`` orders rows by their float64 score descending, then by ``keys``
    ascending (row position when no keys are given), exactly as a full scan
    that re-embeds every text would. ``rows`` gives back texts' float64
    embeddings without embedding them again.
    """

    def __init__(self, texts: list[str], emb: Embedder, keys: list | None = None):
        n = len(texts)
        self.texts = texts
        self.emb = emb
        self.keys = range(n) if keys is None else keys
        self.matrix = np.empty((n, emb.dimension), dtype=np.float32)
        # one norm a row until a block cannot be restored from its norms
        # (module docstring); then float64 rows, marked by _norms is None
        self._norms, self._rows = np.empty(n), None
        peak = 0.0
        for start in range(0, n, _BLOCK_ROWS):
            chunk = texts[start:start + _BLOCK_ROWS]
            stop = start + len(chunk)
            if isinstance(emb, HashEmbedder):
                counts, norms = emb.count_many(chunk)
                block, exact = counts / norms[:, None], counts.max() < _EXACT_COUNT
            else:  # one request per text: batching waits for a documented server cap
                block, exact = np.array([emb.embed(t) for t in chunk]), False
            if self._norms is not None and not exact:  # the rows built so far restored
                rows = np.empty((n, emb.dimension))
                rows[:start] = self.rows(slice(start))
                self._rows, self._norms = rows, None
            if self._norms is not None:
                self._norms[start:stop] = norms
            else:
                self._rows[start:stop] = block
            self.matrix[start:stop] = block
            peak = max(peak, float(np.einsum("ij,ij->i", block, block).max()))
        self._max_norm = math.sqrt(peak)

    def rows(self, which) -> np.ndarray:
        """The float64 embeddings of the rows ``which`` (an index array or a
        slice), each bitwise ``emb.embed`` of its text."""
        if self._norms is None:
            return self._rows[which]
        norms = self._norms[which, None]
        return np.rint(self.matrix[which] * norms) / norms

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
        shortlist = np.flatnonzero(approx >= kth - margin)
        # one dot product per row, as in the exhaustive scan
        scored = sorted(
            (-float(np.dot(query, vec)), self.keys[row], row)
            for row, vec in zip(shortlist.tolist(), self.rows(shortlist))
        )
        return [(row, -neg) for neg, _, row in scored[:k]]


class ToolIndex(VectorIndex):
    """A catalogue's tools embedded once: a ``VectorIndex`` over their
    ``tool_text`` rows, keyed by tool name, that carries its catalogue. Its
    ``texts`` are the catalogue's own list, so it builds no ``Tool``."""

    def __init__(self, cat: Catalogue, emb: Embedder):
        super().__init__(cat.texts, emb, cat.names())
        self.cat = cat


def nearest_distractors(tools: ToolIndex, seed: str, k: int) -> DistractorSet:
    """Top-k tools most similar to the seed, excluding the seed itself.

    Exact over the whole catalogue; ties broken by ascending tool name. An
    unknown seed is a KeyError.
    """
    row = tools.cat.row(seed)
    top = tools.top(tools.rows([row])[0], k, exclude=row)
    return DistractorSet(seed=seed, members=tuple((tools.keys[row], s) for row, s in top))


def search_catalogue(tools: ToolIndex, query: str, k: int) -> list[tuple[str, float]]:
    """Top-k tools for a free-text query (exact, name tie-break).

    This is the live retriever the assistant consults during synthesis.
    """
    return [(tools.keys[row], s) for row, s in tools.top(tools.emb.embed(query), k)]


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
