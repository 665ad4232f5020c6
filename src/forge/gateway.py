"""Uniform chat-completion gateway for every LLM-backed role.

Two backend kinds:

* remote -- OpenAI-style chat-completions endpoint with retry/backoff.
  Credentials come from an environment variable named in the config,
  never from config files.
* scripted -- bit-deterministic replay keyed by request fingerprint, so
  the whole pipeline runs offline in tests. There is no record mode:
  transcripts are built ahead of a run (ROADMAP.md, open item 3).

A fingerprint is the sha256 of ``canonical_request``'s bytes, which stay
the reference. ``fingerprint`` streams the same bytes into the hash in
pieces: each message's fragment comes from a bounded LRU cache, so the
system prompt and history a dialogue re-sends every turn are encoded once
while they stay recent, and memory does not grow with run length.

All network I/O in the package goes through ``post_json``. It imports
the HTTP client, ``requests``, on the first remote call, so a scripted run
never loads it. A global max-in-flight semaphore applies backpressure
across threads and is held only around one HTTP round trip, so nested
pools cannot deadlock on it. Inside it, each call borrows a
``requests.Session`` from a LIFO pool and returns it afterwards: a session
is used by one thread at a time, the pool never holds more than
``MAX_IN_FLIGHT`` of them, and connections are reused across calls and
across short-lived worker threads.

``fan_out`` is the package's one thread pool: results come back in item
order, so replies, not their arrival, decide every output. Independent
calls to one backend overlap only when it is remote (``call_width``); a
scripted lookup is CPU-bound under the interpreter lock, so it stays
inline.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

MAX_IN_FLIGHT = 8

_in_flight = threading.BoundedSemaphore(MAX_IN_FLIGHT)

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_RETRY_AFTER_STATUS = {429, 503}
_MAX_BACKOFF_S = 5.0

# distinct (role, content) fragments ``fingerprint`` keeps encoded: room for
# the whole context (2 * t_max + 1 = 25 messages at the default t_max) of 8
# dialogues synthesized at once
FRAGMENT_CACHE_SIZE = 256

# idle ``requests.Session`` objects, taken and returned under _in_flight;
# last in, first out, so the sessions with warm connections are the ones reused
_sessions: list = []


class GatewayError(Exception):
    """Base class for gateway failures."""


class GatewayTimeout(GatewayError):
    """The remote endpoint did not answer within the configured timeout."""


class RetryExhaustedError(GatewayError):
    """All retry attempts against the remote endpoint failed."""


class TranscriptMissError(GatewayError):
    """No scripted reply is registered for this request fingerprint."""


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"invalid role: {self.role!r}")
        if self.role in ("system", "user") and not self.content:
            raise ValueError(f"{self.role} message must have non-empty content")


@dataclass(frozen=True)
class CompletionRequest:
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    seed: int | None = None
    max_tokens: int = 1024

    def __post_init__(self):
        if not self.messages:
            raise ValueError("request must contain at least one message")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        for i, msg in enumerate(self.messages):
            if msg.role == "system" and i != 0:
                raise ValueError("system message only allowed in first position")


@dataclass
class BackendConfig:
    kind: str  # remote | scripted
    model_id: str = ""
    endpoint: str | None = None
    api_key_env: str | None = None
    retry_limit: int = 3
    timeout: float = 60.0
    transcript: "Transcript | None" = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("remote", "scripted"):
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote backend requires an endpoint")
        if not 0 <= self.retry_limit <= 10:
            raise ValueError(f"retry_limit must be between 0 and 10, got {self.retry_limit}")
        if (isinstance(self.timeout, bool) or not isinstance(self.timeout, (int, float))
                or not 0 < self.timeout < math.inf):
            raise ValueError(f"timeout must be a positive number of seconds, "
                             f"got {self.timeout!r}")
        if self.kind == "scripted" and self.transcript is None:
            raise ValueError("scripted backend requires a transcript")

    @classmethod
    def from_dict(cls, d: dict, transcript: "Transcript | None" = None) -> "BackendConfig":
        """The backend a config spec describes; an unset key takes its default."""
        keys = ("model_id", "endpoint", "api_key_env", "retry_limit", "timeout")
        return cls(kind=d["kind"], transcript=transcript, **{k: d[k] for k in keys if k in d})


def prompt_request(prompt: str, seed: int, temperature: float,
                   max_tokens: int) -> CompletionRequest:
    """The one-user-message request every single-prompt role sends."""
    return CompletionRequest(messages=(ChatMessage("user", prompt),),
                             temperature=temperature, seed=seed, max_tokens=max_tokens)


def canonical_request(model_id: str, req: CompletionRequest) -> str:
    """Canonical JSON serialization of a request: the reference for the
    bytes a fingerprint hashes (``fingerprint`` streams them instead)."""
    payload = {
        "model": model_id,
        "messages": [{"role": m.role, "content": m.content} for m in req.messages],
        "temperature": req.temperature,
        "seed": req.seed,
    }
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


# the encoder settings of ``canonical_request``, built once
_canonical = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


@functools.lru_cache(maxsize=FRAGMENT_CACHE_SIZE)
def _message_fragment(role: str, content: str) -> bytes:
    return _canonical({"role": role, "content": content}).encode("utf-8")


def fingerprint(model_id: str, req: CompletionRequest) -> str:
    """sha256 hex digest of ``canonical_request(model_id, req)``'s UTF-8
    bytes, fed in pieces: ``{"messages":[``, the cached message fragments
    joined by ``,``, then the sorted ``model`` / ``seed`` / ``temperature``
    tail. Only the tail is encoded on every call."""
    digest = hashlib.sha256(b'{"messages":[')
    digest.update(b",".join([_message_fragment(m.role, m.content) for m in req.messages]))
    tail = _canonical({"model": model_id, "seed": req.seed, "temperature": req.temperature})
    digest.update(b"]," + tail[1:].encode("utf-8"))
    return digest.hexdigest()


class Transcript:
    """Scripted replies keyed by request fingerprint.

    Each fingerprint maps to an ordered list of replies: ``complete``
    returns the first and ``sample_n`` the first n, so identical requests
    always replay identically, across processes.
    """

    def __init__(self, replies: dict[str, list[str]] | None = None):
        self.replies: dict[str, list[str]] = dict(replies or {})

    def register(self, key: str | CompletionRequest, replies: str | list[str],
                 model_id: str = "") -> None:
        if isinstance(key, CompletionRequest):
            key = fingerprint(model_id, key)
        if isinstance(replies, str):
            replies = [replies]
        self.replies[key] = list(replies)

    def lookup(self, fp: str, n: int) -> list[str]:
        entry = self.replies.get(fp)
        if entry is None:
            raise TranscriptMissError(f"no scripted reply for fingerprint {fp}")
        if len(entry) < n:
            raise TranscriptMissError(
                f"scripted transcript has {len(entry)} replies for {fp}, need {n}"
            )
        return entry[:n]

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.replies, ensure_ascii=False, indent=2), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("transcript must be a JSON object")
        replies = {k: ([v] if isinstance(v, str) else list(v)) for k, v in raw.items()}
        return cls(replies)


def _auth_headers(api_key_env: str | None) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    if api_key_env:
        key = os.environ.get(api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
    return headers


def _retry_delay(retry_after: str | None, backoff: float) -> float:
    """Seconds to wait before the next attempt: a delta-seconds
    ``Retry-After`` capped at the backoff cap, else the exponential
    backoff (a missing, negative or HTTP-date value)."""
    try:
        seconds = float(retry_after)
    except (TypeError, ValueError):
        return backoff
    return min(seconds, _MAX_BACKOFF_S) if seconds >= 0 else backoff


def post_json(url: str, body: dict, api_key_env: str | None = None,
              timeout: float = 60.0, retry_limit: int = 3) -> dict:
    """POST a JSON body with exponential backoff on transient failures.

    Shared by chat completion and embedding calls; honours the global
    in-flight limit, reuses pooled connections, and waits as long as a
    429 or 503 reply's ``Retry-After`` asks, up to the backoff cap.
    """
    import requests  # loaded by the first call, so a scripted run never pays for it

    last_error: Exception | None = None
    delay = 0.0
    for attempt in range(retry_limit + 1):
        if attempt > 0:
            time.sleep(delay)
        delay = min(0.1 * (2 ** attempt), _MAX_BACKOFF_S)
        try:
            with _in_flight:
                try:
                    session = _sessions.pop()
                except IndexError:
                    session = requests.Session()
                try:
                    resp = session.post(url, json=body, headers=_auth_headers(api_key_env),
                                        timeout=timeout)
                finally:
                    _sessions.append(session)
        except requests.Timeout as exc:
            last_error = GatewayTimeout(f"request to {url} timed out after {timeout}s")
            last_error.__cause__ = exc
            continue
        except requests.ConnectionError as exc:
            last_error = GatewayError(f"connection to {url} failed: {exc}")
            continue
        if resp.status_code in _RETRYABLE_STATUS:
            last_error = GatewayError(f"{url} returned HTTP {resp.status_code}")
            if resp.status_code in _RETRY_AFTER_STATUS:
                delay = _retry_delay(resp.headers.get("Retry-After"), delay)
            continue
        if resp.status_code != 200:
            raise GatewayError(f"{url} returned HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise GatewayError(f"{url} returned non-JSON body") from exc
    if isinstance(last_error, GatewayTimeout):
        raise last_error
    raise RetryExhaustedError(
        f"gave up on {url} after {retry_limit + 1} attempts: {last_error}"
    )


def _remote_complete(cfg: BackendConfig, req: CompletionRequest) -> str:
    body = {
        "model": cfg.model_id,
        "messages": [{"role": m.role, "content": m.content} for m in req.messages],
        "temperature": req.temperature,
        "max_tokens": req.max_tokens,
    }
    if req.seed is not None:
        body["seed"] = req.seed
    reply = post_json(cfg.endpoint, body, api_key_env=cfg.api_key_env,
                      timeout=cfg.timeout, retry_limit=cfg.retry_limit)
    try:
        return reply["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise GatewayError(f"malformed completion response: {reply!r}") from exc


def complete(cfg: BackendConfig, req: CompletionRequest) -> str:
    """One completion from the configured backend."""
    if cfg.kind == "scripted":
        fp = fingerprint(cfg.model_id, req)
        return cfg.transcript.lookup(fp, 1)[0]
    return _remote_complete(cfg, req)


def sample_n(cfg: BackendConfig, req: CompletionRequest, n: int) -> list[str]:
    """n independent completions for the same request, in sample order.

    Scripted backends supply the first n replies registered for the
    fingerprint. Remote backends issue n calls at once through
    ``fan_out``; when a seed is set, sample i is sent with seed + i so the
    samples are not forced identical, and it stays in position i whatever
    order the replies arrive in.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cfg.kind == "scripted":
        fp = fingerprint(cfg.model_id, req)
        return cfg.transcript.lookup(fp, n)
    subs = [req if req.seed is None else replace(req, seed=req.seed + i) for i in range(n)]
    return fan_out(lambda sub: _remote_complete(cfg, sub), subs, n)


def call_width(cfg: BackendConfig, width: int) -> int:
    """Workers for ``width`` independent calls to one backend: all of them
    at once when it is remote, inline when it is scripted."""
    return width if cfg.kind == "remote" else 1


def fan_out(fn, items, workers: int) -> list:
    """``fn`` over ``items``, results in item order; inline when
    ``workers <= 1``, since a one-worker pool only adds a thread."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
