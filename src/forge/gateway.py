"""Uniform chat-completion gateway for every LLM-backed role.

Two backend kinds:

* remote -- OpenAI-style chat-completions endpoint with retry/backoff.
  Credentials come from an environment variable named in the config,
  never from config files.
* scripted -- bit-deterministic replay keyed by request fingerprint, so
  the whole pipeline runs offline in tests. There is no record mode:
  transcripts are built ahead of a run (ROADMAP.md, open item 4).

All network I/O in the package goes through this module. A global
max-in-flight semaphore applies backpressure across threads.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

DEFAULT_MAX_IN_FLIGHT = 8

_in_flight = threading.BoundedSemaphore(DEFAULT_MAX_IN_FLIGHT)

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


class GatewayError(Exception):
    """Base class for gateway failures."""


class GatewayTimeout(GatewayError):
    """The remote endpoint did not answer within the configured timeout."""


class RetryExhaustedError(GatewayError):
    """All retry attempts against the remote endpoint failed."""


class TranscriptMissError(GatewayError):
    """No scripted reply is registered for this request fingerprint."""


def set_max_in_flight(limit: int) -> None:
    """Resize the global in-flight limit (applies to new acquisitions)."""
    global _in_flight
    if limit < 1:
        raise ValueError("max in-flight limit must be >= 1")
    _in_flight = threading.BoundedSemaphore(limit)


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
    model_id: str
    endpoint: str | None = None
    api_key_env: str | None = None
    retry_limit: int = 3
    timeout: float = 60.0
    transcript_path: str | None = None
    transcript: "Transcript | None" = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("remote", "scripted"):
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote backend requires an endpoint")
        if self.retry_limit > 10:
            raise ValueError("retry_limit must be <= 10")

    @classmethod
    def from_dict(cls, d: dict) -> "BackendConfig":
        return cls(
            kind=d["kind"],
            model_id=d.get("model_id", ""),
            endpoint=d.get("endpoint"),
            api_key_env=d.get("api_key_env"),
            retry_limit=d.get("retry_limit", 3),
            timeout=d.get("timeout", 60.0),
            transcript_path=d.get("transcript"),
        )


def canonical_request(model_id: str, req: CompletionRequest) -> str:
    """Canonical JSON serialization used for fingerprinting."""
    payload = {
        "model": model_id,
        "messages": [{"role": m.role, "content": m.content} for m in req.messages],
        "temperature": req.temperature,
        "seed": req.seed,
    }
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def fingerprint(model_id: str, req: CompletionRequest) -> str:
    return hashlib.sha256(canonical_request(model_id, req).encode("utf-8")).hexdigest()


class Transcript:
    """Scripted replies keyed by request fingerprint.

    Each fingerprint maps to an ordered list of replies: ``complete``
    returns the first and ``sample_n`` the first n, so identical requests
    always replay identically, across processes.
    """

    def __init__(self, replies: dict[str, list[str]] | None = None):
        self.replies: dict[str, list[str]] = dict(replies or {})
        self.served: list[str] = []
        self._lock = threading.Lock()

    def register(self, key: str | CompletionRequest, replies: str | list[str],
                 model_id: str = "") -> None:
        if isinstance(key, CompletionRequest):
            key = fingerprint(model_id, key)
        if isinstance(replies, str):
            replies = [replies]
        self.replies[key] = list(replies)

    def lookup(self, fp: str, n: int) -> list[str]:
        entry = self.replies.get(fp)
        with self._lock:
            self.served.append(fp)
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
        replies = {k: ([v] if isinstance(v, str) else list(v)) for k, v in raw.items()}
        return cls(replies)


def _transcript_for(cfg: BackendConfig) -> Transcript:
    if cfg.transcript is None:
        if not cfg.transcript_path:
            raise GatewayError("scripted backend requires a transcript")
        cfg.transcript = Transcript.load(cfg.transcript_path)
    return cfg.transcript


def _auth_headers(api_key_env: str | None) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    if api_key_env:
        key = os.environ.get(api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
    return headers


def post_json(url: str, body: dict, api_key_env: str | None = None,
              timeout: float = 60.0, retry_limit: int = 3) -> dict:
    """POST a JSON body with exponential backoff on transient failures.

    Shared by chat completion and embedding calls; honours the global
    in-flight limit.
    """
    last_error: Exception | None = None
    for attempt in range(retry_limit + 1):
        if attempt > 0:
            time.sleep(min(0.1 * (2 ** (attempt - 1)), 5.0))
        try:
            with _in_flight:
                resp = requests.post(url, json=body, headers=_auth_headers(api_key_env),
                                     timeout=timeout)
        except requests.Timeout as exc:
            last_error = GatewayTimeout(f"request to {url} timed out after {timeout}s")
            last_error.__cause__ = exc
            continue
        except requests.ConnectionError as exc:
            last_error = GatewayError(f"connection to {url} failed: {exc}")
            continue
        if resp.status_code in _RETRYABLE_STATUS:
            last_error = GatewayError(f"{url} returned HTTP {resp.status_code}")
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
        return _transcript_for(cfg).lookup(fp, 1)[0]
    return _remote_complete(cfg, req)


def sample_n(cfg: BackendConfig, req: CompletionRequest, n: int) -> list[str]:
    """n independent completions for the same request.

    Scripted backends supply the first n replies registered for the
    fingerprint; remote backends issue n calls, varying the seed when one
    is set so the samples are not forced identical.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cfg.kind == "scripted":
        fp = fingerprint(cfg.model_id, req)
        return _transcript_for(cfg).lookup(fp, n)
    out = []
    for i in range(n):
        sub = req if req.seed is None else CompletionRequest(
            messages=req.messages, temperature=req.temperature,
            seed=req.seed + i, max_tokens=req.max_tokens,
        )
        out.append(_remote_complete(cfg, sub))
    return out
