"""Uniform chat-completion gateway for every LLM-backed role.

Two backend kinds:

* remote -- OpenAI-style chat-completions endpoint with retry/backoff.
  Credentials come from an environment variable named in the config,
  never from config files.
* scripted -- bit-deterministic replay keyed by request fingerprint, so
  the whole pipeline runs offline in tests. There is no record mode:
  transcripts are built ahead of a run (ROADMAP.md, open item 3).

A fingerprint is the sha256 of ``canonical_request``'s UTF-8 bytes, which
stay the reference that tests hash against and are the same bytes
whichever way a request was built. ``fingerprint`` streams them into the
hash in pieces: ``{"messages":[``, the message fragments joined by ``,``,
then the ``model`` / ``seed`` / ``temperature`` tail, written from
``encode_str`` and ``catalogue._scalar`` so no JSON encoder object is built
per call. A dialogue re-sends its whole context every turn, so a turn's
request is built with ``CompletionRequest.extend`` from the request of an
earlier turn. Such a request hashes its prefix (everything before the tail)
lazily, on its first fingerprint: it copies its parent's prefix state and
feeds it only the fragments of the messages added since, so a dialogue
hashes each message once rather than once per later turn, and a remote run,
which fingerprints nothing, hashes nothing. The states are shared without a
lock: a stored state is only ever copied, never updated, and two threads
that compute one prefix at once store equal states, so computing it twice
is harmless.

A request built from scratch hashes all its fragments and encodes each of
them again. The benchmark's stub and planner, tests and
``dataclasses.replace`` build requests so, and so does the filling stage's
first request, which re-sends the selection history under a new system
prompt. No fragment is cached: the prefix states are the only cache, so a
request its caller drops keeps none of its text alive here.
A fragment is spliced from the content's UTF-8 bytes: when
they hold no byte below 0x20 but ``\\n``, three ``bytes.replace`` calls
escape ``\\``, ``"`` and ``\\n`` as json does; any other text goes through
json's C escaper (``catalogue.encode_str``). The byte path is why both
exist: a ``pipeline-deep`` round's 1,200 requests fingerprinted from
scratch take ~28 ms with it and ~40 ms when every fragment splices
``encode_str``'s output (2-core Xeon, Python 3.11).
Text that UTF-8 cannot encode (a lone surrogate) has no fingerprint;
``catalogue.parse_json``, which reads every JSON text from outside the
program, refuses it, so no transcript, config or remote reply brings one in.

A ``BackendConfig`` describes every remote endpoint, chat and embedding
alike, and all network I/O goes through the one remote call,
``post_json(cfg, body, decode)``. The first remote call imports
``requests`` and creates the process's one transport adapter
(``requests.adapters.HTTPAdapter``), so a scripted run never loads it. Each
call prepares its request itself and hands it straight to the adapter:
there is no ``Session``, so nothing is read from the environment (proxies,
``~/.netrc``, CA bundle variables) and redirects are not followed. A global
max-in-flight semaphore applies backpressure across threads and is held
only around one HTTP round trip, reply body included, so nested pools
cannot deadlock on it and the adapter's LIFO connection pool never needs
more than ``MAX_IN_FLIGHT`` connections; they are reused across calls and
across short-lived worker threads.

``fan_out`` runs the package's thread pools: it yields results in item
order as they finish, so replies, not their arrival, decide every output,
and keeps only a window of items a few times the pool's width ahead of its
reader, so its memory does not grow with the number of items.
Its optional second stage starts on each result as soon as it is ready.
Independent calls to one backend overlap only when it is remote
(``call_width``); a scripted lookup is CPU-bound under the interpreter
lock, so it stays inline.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from urllib.parse import urlsplit

from .catalogue import _scalar, dump_json, encode_str, fault, parse_json, typed

MAX_IN_FLIGHT = 8

_in_flight = threading.BoundedSemaphore(MAX_IN_FLIGHT)

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_RETRY_AFTER_STATUS = {429, 503}
_MAX_BACKOFF_S = 5.0
# the longest ``BackendConfig.timeout``, one day: the transport fails on a
# far larger one (1e10 s overflows time_t, a 400-digit integer a float)
MAX_TIMEOUT_S = 86400
# the largest config ``concurrency``, the width of a command's ``fan_out``:
# a pool starts a thread per item up to its width while at most
# MAX_IN_FLIGHT remote calls run, and past sys.maxsize // 2 the width
# overflows the reorder window's ``islice``
MAX_CONCURRENCY = 1024

# the one ``requests.adapters.HTTPAdapter`` and the headers every request
# carries besides its own (requests' defaults), both made by the first remote call
_adapter = None
_base_headers: dict = {}
_adapter_lock = threading.Lock()


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
    # the request this one extends, until ``_prefix`` has read it, and the
    # sha256 state of the fingerprint bytes before the tail; neither is a
    # part of the request, so equality, hash, repr and ``replace`` ignore them
    _parent: CompletionRequest | None = field(default=None, init=False, repr=False,
                                              compare=False)
    _state: object = field(default=None, init=False, repr=False, compare=False)

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

    def extend(self, messages: tuple[ChatMessage, ...], seed: int | None) -> "CompletionRequest":
        """This request's messages followed by ``messages``, sent with
        ``seed`` and this request's sampling settings; its fingerprint
        hashes only the added messages' fragments after this request's
        prefix."""
        child = CompletionRequest(self.messages + messages, self.temperature, seed,
                                  self.max_tokens)
        object.__setattr__(child, "_parent", self)
        return child

    def _prefix(self):
        """The sha256 state of ``{"messages":[`` and the message fragments
        joined by ``,``, computed on first use and kept (see the module
        docstring for why no lock guards it)."""
        state = self._state
        if state is None:
            parent = self._parent
            if parent is None:
                state = hashlib.sha256(b'{"messages":[' + b",".join(
                    [_message_fragment(m.role, m.content) for m in self.messages]))
            else:
                state = parent._prefix().copy()
                for m in self.messages[len(parent.messages):]:
                    state.update(b"," + _message_fragment(m.role, m.content))
            object.__setattr__(self, "_state", state)
            object.__setattr__(self, "_parent", None)
        return state


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
        typed("model_id", self.model_id, str, "a string")
        typed("api_key_env", self.api_key_env, (str, type(None)), "a string or null")
        if self.kind == "remote":
            url = urlsplit(typed("endpoint", self.endpoint, str, "a URL string"))
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError(f"remote endpoint must be an http or https URL with a "
                                 f"host, got {self.endpoint!r}")
        if not 0 <= typed("retry_limit", self.retry_limit, int, "an integer") <= 10:
            raise ValueError(f"retry_limit must be between 0 and 10, got {self.retry_limit}")
        if (isinstance(self.timeout, bool) or not isinstance(self.timeout, (int, float))
                or not 0 < self.timeout <= MAX_TIMEOUT_S):
            raise ValueError(f"timeout must be a positive number of seconds up to "
                             f"{MAX_TIMEOUT_S}, got {self.timeout!r}")
        if self.kind == "scripted" and self.transcript is None:
            raise ValueError("scripted backend requires a transcript")


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


# the control bytes json escapes besides ``\n``: a text holding one goes
# through json's escaper instead of ``_message_fragment``'s bytes.replace calls
_ESCAPED_CONTROLS = bytes(range(0x0a)) + bytes(range(0x0b, 0x20))


def _message_fragment(role: str, content: str) -> bytes:
    text = content.encode("utf-8")
    if len(text.translate(None, _ESCAPED_CONTROLS)) == len(text):
        text = b'"' + text.replace(b"\\", b"\\\\").replace(b'"', b'\\"').replace(
            b"\n", b"\\n") + b'"'
    else:
        text = encode_str(content).encode("utf-8")
    return b'{"content":' + text + b',"role":"' + role.encode("utf-8") + b'"}'


def fingerprint(model_id: str, req: CompletionRequest) -> str:
    """sha256 hex digest of ``canonical_request(model_id, req)``'s UTF-8
    bytes: a copy of the request's prefix state fed the sorted ``model`` /
    ``seed`` / ``temperature`` tail. Only the tail is encoded on every call."""
    digest = req._prefix().copy()
    digest.update(('],"model":' + encode_str(model_id) + ',"seed":' + _scalar(req.seed)
                   + ',"temperature":' + _scalar(req.temperature) + "}").encode("utf-8"))
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
        Path(path).write_text(dump_json(self.replies), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        raw = parse_json(Path(path).read_bytes())
        if not isinstance(raw, dict):
            raise ValueError("transcript must be a JSON object")
        replies = {k: [v] if isinstance(v, str) else v for k, v in raw.items()}
        for fp, entry in replies.items():
            if not isinstance(entry, list) or not all(isinstance(r, str) for r in entry):
                raise ValueError(f"replies for {fp} must be a string or an array of strings")
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


def _transport():
    """The process's one transport adapter, created by the first remote call."""
    global _adapter
    with _adapter_lock:
        if _adapter is None:
            from requests.adapters import HTTPAdapter
            from requests.utils import default_headers

            _base_headers.update(default_headers())
            _adapter = HTTPAdapter(pool_maxsize=MAX_IN_FLIGHT)
        return _adapter


def post_json(cfg: BackendConfig, body: dict, decode):
    """``decode`` of the JSON reply to ``body`` POSTed to ``cfg``'s endpoint,
    with exponential backoff on transient failures.

    Honours the global in-flight limit, reuses pooled connections, and
    waits as long as a 429 or 503 reply's ``Retry-After`` asks, up to the
    backoff cap. A timeout is a GatewayTimeout; any other transport failure
    (a refused or dropped connection, a body cut short) is retried. A body
    that ``parse_json`` cannot read (not UTF-8 JSON, nested too deep, or
    holding a lone surrogate), or a reply ``decode`` cannot read (KeyError,
    IndexError, TypeError, ValueError, or OverflowError for a number past
    float range), is a GatewayError and is not retried.
    """
    import requests  # imported here, so a scripted run never loads it
    from requests.models import PreparedRequest

    adapter = _adapter or _transport()
    url, timeout = cfg.endpoint, cfg.timeout
    # only the parts the adapter reads: no cookies, auth or hooks to prepare
    prep = PreparedRequest()
    prep.prepare_method("POST")
    prep.prepare_url(url, None)
    prep.prepare_headers({**_base_headers, **_auth_headers(cfg.api_key_env)})
    prep.prepare_body(json.dumps(body, allow_nan=False).encode("utf-8"), None)
    last_error: Exception | None = None
    delay = 0.0
    for attempt in range(cfg.retry_limit + 1):
        if attempt > 0:
            time.sleep(delay)
        delay = min(0.1 * (2 ** attempt), _MAX_BACKOFF_S)
        try:
            with _in_flight:
                resp = adapter.send(prep, timeout=timeout)
                resp.content  # read inside the limit, so the connection is pooled again
        except requests.Timeout as exc:
            last_error = GatewayTimeout(f"request to {url} timed out after {timeout}s")
            last_error.__cause__ = exc
            continue
        except requests.RequestException as exc:  # a failed connection or a cut-short body
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
            return decode(parse_json(resp.content))
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise GatewayError(f"{url} returned a malformed reply: {fault(exc)}") from exc
    if isinstance(last_error, GatewayTimeout):
        raise last_error
    raise RetryExhaustedError(
        f"gave up on {url} after {cfg.retry_limit + 1} attempts: {last_error}"
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
    return post_json(cfg, body, lambda reply: typed(
        "completion content", reply["choices"][0]["message"]["content"], str, "a string"))


def _replies(cfg: BackendConfig, req: CompletionRequest, n: int) -> list[str]:
    if cfg.kind == "scripted":
        return cfg.transcript.lookup(fingerprint(cfg.model_id, req), n)
    subs = [req if req.seed is None else replace(req, seed=req.seed + i) for i in range(n)]
    return list(fan_out(lambda sub: _remote_complete(cfg, sub), subs, n))


def complete(cfg: BackendConfig, req: CompletionRequest) -> str:
    """One completion from the configured backend."""
    return _replies(cfg, req, 1)[0]


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
    return _replies(cfg, req, n)


def call_width(cfg: BackendConfig, width: int) -> int:
    """Workers for ``width`` independent calls to one backend: all of them
    at once when it is remote, inline when it is scripted."""
    return width if cfg.kind == "remote" else 1


@contextmanager
def _pool(workers: int):
    """A thread pool whose queued calls are cancelled when any exception but
    a GatewayError leaves the block, an interrupt included. After a
    GatewayError they still run, so the calls that a failed call costs do
    not depend on timing."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            yield pool
        except GatewayError:
            raise
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _in_order(pool, fn, items, ahead: int, read=Future.result):
    """``read`` of ``pool.submit(fn, item)`` for each item, in item order,
    with at most ``ahead`` items submitted and not yet read; each future is
    dropped once read, so memory does not grow with the number of items. A
    GatewayError submits every remaining item before it is re-raised, so
    that, as ``_pool`` lets them run, the calls a failure costs do not
    depend on timing."""
    items = iter(items)
    window = deque(pool.submit(fn, item) for item in islice(items, ahead))
    while window:
        try:
            result = read(window.popleft())
        except GatewayError:
            for item in items:
                pool.submit(fn, item)
            raise
        window.extend(pool.submit(fn, item) for item in islice(items, 1))
        yield result


def fan_out(fn, items, workers: int, then=None, then_workers: int = 1):
    """``fn`` over ``items``, yielding each result in item order as soon as
    it and every earlier one are done (``list()`` it for all); inline when
    ``workers <= 1``, since a one-worker pool only adds a thread. On a pool
    the futures, read in item order, are the reorder buffer, at most
    ``2 * workers`` items ahead of the reader, and the first exception in
    item order is raised. A GatewayError lets the remaining items run, so
    the calls a failure costs do not depend on timing; any other exception,
    an interrupt included, cancels the queued ones and submits no more, as
    does closing the iterator early.

    With ``then``, each item's result is ``then(fn(item))``, and ``then``
    starts on a result as soon as ``fn`` returns it: on a second pool
    ``then_workers`` wide, while the other items' ``fn`` calls go on, or
    inline after ``fn`` when ``then_workers <= 1``. With a second pool,
    ``fn`` runs on a pool too, one wide at least, so that both stages'
    results are read, and their failures seen, in item order; the reader
    is then ``workers + then_workers`` items ahead at most."""
    if then is not None and then_workers <= 1:
        yield from fan_out(lambda item: then(fn(item)), items, workers)
    elif then is not None:
        def first(item):
            return stage.submit(then, fn(item))

        with _pool(then_workers) as stage, _pool(max(workers, 1)) as pool:
            yield from _in_order(pool, first, items, max(workers, 1) + then_workers,
                                 lambda future: future.result().result())
    elif workers <= 1:
        yield from map(fn, items)
    else:
        with _pool(workers) as pool:
            yield from _in_order(pool, fn, items, 2 * workers)
