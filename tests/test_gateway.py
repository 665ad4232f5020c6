import hashlib
import json
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from forge import gateway
from forge.gateway import (
    FRAGMENT_CACHE_SIZE,
    MAX_IN_FLIGHT,
    BackendConfig,
    ChatMessage,
    CompletionRequest,
    GatewayError,
    GatewayTimeout,
    RetryExhaustedError,
    Transcript,
    TranscriptMissError,
    canonical_request,
    complete,
    fan_out,
    fingerprint,
    sample_n,
)

from conftest import chat, chat_reply, child_env


def req(text="hello", seed=1, temperature=0.0):
    return CompletionRequest(
        messages=(ChatMessage("user", text),), temperature=temperature, seed=seed)


# ---------------------------------------------------------------------------
# scripted backend


def test_scripted_replay():
    t = Transcript()
    t.register(req(), "hello back", model_id="m")
    cfg = BackendConfig(kind="scripted", model_id="m", transcript=t)
    assert complete(cfg, req()) == "hello back"


def test_scripted_miss():
    cfg = BackendConfig(kind="scripted", model_id="m", transcript=Transcript())
    with pytest.raises(TranscriptMissError):
        complete(cfg, req())


def test_scripted_is_deterministic_for_identical_fingerprints():
    t = Transcript()
    t.register(req(), ["first", "second"], model_id="m")
    cfg = BackendConfig(kind="scripted", model_id="m", transcript=t)
    assert complete(cfg, req()) == "first"
    assert complete(cfg, req()) == "first"


def test_sample_n_returns_registered_candidates_in_order():
    t = Transcript()
    t.register(req(), ["c1", "c2", "c3"], model_id="m")
    cfg = BackendConfig(kind="scripted", model_id="m", transcript=t)
    assert sample_n(cfg, req(), 3) == ["c1", "c2", "c3"]


def test_sample_n_one_equals_complete():
    t = Transcript()
    t.register(req(), ["only"], model_id="m")
    cfg = BackendConfig(kind="scripted", model_id="m", transcript=t)
    assert sample_n(cfg, req(), 1) == [complete(cfg, req())]


def test_sample_n_insufficient_replies():
    t = Transcript()
    t.register(req(), ["c1"], model_id="m")
    cfg = BackendConfig(kind="scripted", model_id="m", transcript=t)
    with pytest.raises(TranscriptMissError, match="need 3"):
        sample_n(cfg, req(), 3)


def test_fingerprint_stable_across_processes():
    # frozen values: catch accidental fingerprint scheme changes, which
    # would invalidate every recorded transcript
    fp = fingerprint("m", req())
    assert fp == "527095fd99fee7dbc4692e25972b433402b807fdf10ab7e7c939617407900c1f"
    escapes = CompletionRequest((ChatMessage("system", 'S\u00e9 "quoted"\\ path\nline 2 \u2603'),
                                 ChatMessage("user", "hi"), ChatMessage("assistant", "")),
                                temperature=0.7, seed=None)
    assert fingerprint("m-\u00e9", escapes) == (
        "8840049caf2bf5678dd2c819407b258086ccb22f03c6de3737c45fdea374f758")
    assert fp == fingerprint("m", req())
    assert fp != fingerprint("other", req())
    assert fp != fingerprint("m", req(seed=2))
    assert len(fp) == 64


_content = st.text(st.characters(codec="utf-8")
                   | st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028\u00e9\u2603\U0001f600'),
                   max_size=20)


@st.composite
def chat_requests(draw):
    pool = draw(st.lists(_content.filter(bool), min_size=1, max_size=3))
    body = st.sampled_from(pool) | _content.filter(bool)
    messages = [ChatMessage("system", draw(body))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 5))):
        messages.append(ChatMessage("user", draw(body)))
        messages.append(ChatMessage("assistant", draw(st.just("") | body)))
    if draw(st.booleans()):
        messages.pop()
    temperature = draw(st.integers(0, 3) | st.floats(0, 2, allow_nan=False))
    seed = draw(st.none() | st.integers(-2**63, 2**63))
    return CompletionRequest(tuple(messages), temperature=temperature, seed=seed)


@settings(deadline=None)
@given(_content, chat_requests())
def test_fingerprint_hashes_the_canonical_request(model_id, request):
    reference = hashlib.sha256(canonical_request(model_id, request).encode("utf-8"))
    assert fingerprint(model_id, request) == reference.hexdigest()


def test_fingerprint_cache_stays_bounded():
    first = req("message 0")
    expected = hashlib.sha256(canonical_request("m", first).encode("utf-8")).hexdigest()
    for i in range(2 * FRAGMENT_CACHE_SIZE):
        fingerprint("m", req(f"message {i}"))
        assert gateway._message_fragment.cache_info().currsize <= FRAGMENT_CACHE_SIZE
    assert fingerprint("m", first) == expected  # evicted, then encoded again


def test_transcript_file_round_trip(tmp_path):
    t = Transcript()
    t.register(req(), ["a", "b"], model_id="m")
    t.register(req("bye"), "single", model_id="m")
    t.save(tmp_path / "t.json")
    loaded = Transcript.load(tmp_path / "t.json")
    cfg = BackendConfig(kind="scripted", model_id="m", transcript=loaded)
    assert complete(cfg, req()) == "a"
    assert complete(cfg, req("bye")) == "single"


# ---------------------------------------------------------------------------
# config validation


def test_remote_requires_endpoint():
    with pytest.raises(ValueError, match="endpoint"):
        BackendConfig(kind="remote", model_id="m")


def test_retry_limit_cap():
    for key, value in [("retry_limit", 11), ("retry_limit", -1), ("timeout", 0),
                       ("timeout", -1.5), ("timeout", "60"), ("timeout", True),
                       ("timeout", float("nan")), ("timeout", float("inf"))]:
        with pytest.raises(ValueError, match=key):
            BackendConfig(kind="remote", model_id="m", endpoint="http://x", **{key: value})


def test_backend_field_types():
    for key, value in [("retry_limit", 2.0), ("model_id", ["x"]), ("model_id", None),
                       ("api_key_env", 5), ("endpoint", "localhost:8080/v1"),
                       ("endpoint", "file:///tmp/x"), ("endpoint", "http:///v1"),
                       ("endpoint", 5)]:
        with pytest.raises(ValueError, match=key):
            BackendConfig(**{"kind": "remote", "model_id": "m", "endpoint": "http://x",
                             key: value})


def test_request_validation():
    with pytest.raises(ValueError):
        CompletionRequest(messages=())
    with pytest.raises(ValueError):
        CompletionRequest(messages=(ChatMessage("user", "x"),), temperature=-1)
    with pytest.raises(ValueError):
        ChatMessage("user", "")
    with pytest.raises(ValueError):
        ChatMessage("tool", "x")


def test_system_message_must_lead():
    with pytest.raises(ValueError, match="first position"):
        CompletionRequest(messages=(
            ChatMessage("user", "x"), ChatMessage("system", "y")))


# ---------------------------------------------------------------------------
# remote backend against a local stub


class StubScript:
    """A ``loopback`` responder that answers request i with
    ``script[min(i, len(script) - 1)]``, a (status, reply_text, delay) step,
    and keeps every request body."""

    def __init__(self):
        self.script = []  # list of (status, reply_text, delay)
        self.retry_after = None  # Retry-After header sent with every non-200 reply
        self.bodies = []
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return len(self.bodies)

    def __call__(self, body: dict):
        with self._lock:
            self.bodies.append(body)
            status, text, delay = self.script[min(self.calls, len(self.script)) - 1]
        headers = ({"Retry-After": self.retry_after}
                   if status != 200 and self.retry_after is not None else {})
        return status, headers, chat_reply(text), delay


@pytest.fixture
def stub(loopback):
    script = StubScript()
    script.endpoint, _ = loopback(script)
    return script


def remote_cfg(endpoint, **kw):
    return BackendConfig(kind="remote", model_id="stub-model", endpoint=endpoint, **kw)


def test_remote_success(stub):
    stub.script = [(200, "remote reply", 0)]
    assert complete(remote_cfg(stub.endpoint), req()) == "remote reply"
    assert stub.bodies[0]["model"] == "stub-model"
    assert stub.bodies[0]["seed"] == 1


def test_remote_retries_on_transient_500(stub):
    stub.script = [(500, "boom", 0), (500, "boom", 0), (200, "recovered", 0)]
    assert complete(remote_cfg(stub.endpoint), req()) == "recovered"
    assert stub.calls == 3


def test_remote_exhausts_retries(stub):
    stub.script = [(503, "down", 0)]
    with pytest.raises(RetryExhaustedError):
        complete(remote_cfg(stub.endpoint, retry_limit=2), req())
    assert stub.calls == 3


def test_remote_non_retryable_status_fails_fast(stub):
    stub.script = [(400, "bad", 0)]
    with pytest.raises(Exception, match="HTTP 400"):
        complete(remote_cfg(stub.endpoint), req())
    assert stub.calls == 1


@pytest.mark.parametrize("text", [None, 5, ["a"]])
def test_remote_reply_without_text_is_gateway_error(stub, text):
    """A completion whose content is not a string is malformed: a
    GatewayError, not retried."""
    stub.script = [(200, text, 0)]
    with pytest.raises(GatewayError, match="completion content must be a string"):
        complete(remote_cfg(stub.endpoint), req())
    assert stub.calls == 1


@pytest.mark.parametrize("body, message", [
    (b'{"choices": ' + b"[" * 5000 + b"]" * 5000 + b"}", "maximum recursion depth"),
    (b'{"choices": [{"message": {"content": "caf\xe9"}}]}', "'utf-8' codec can't decode"),
], ids=["nested-past-recursion-limit", "not-utf-8"])
def test_remote_malformed_chat_reply_is_gateway_error(loopback, body, message):
    """A chat reply body that is not UTF-8 JSON is a GatewayError after one
    request: it is not retried."""
    endpoint, server = loopback(lambda request: (200, {}, body, 0.0))
    with pytest.raises(GatewayError, match=f"malformed reply: {message}"):
        complete(remote_cfg(endpoint), req())
    assert len(server.ports) == 1


def test_remote_timeout(stub):
    stub.script = [(200, "slow", 1.0)]
    with pytest.raises(GatewayTimeout):
        complete(remote_cfg(stub.endpoint, timeout=0.2, retry_limit=1), req())


def test_remote_sample_n_issues_distinct_calls(stub):
    stub.script = [(200, "body", 0)]
    out = sample_n(remote_cfg(stub.endpoint), req(seed=10), 3)
    assert len(out) == 3
    assert stub.calls == 3
    seeds = [b["seed"] for b in stub.bodies]
    assert sorted(seeds) == [10, 11, 12]  # the calls overlap, so arrival order is free


@pytest.mark.parametrize("status,retry_after,slept", [
    (429, "0.5", 0.5),
    (503, "3600", 5.0),  # capped at the backoff cap
    (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.1),  # HTTP-date: the first backoff
    (429, "-1", 0.1),
    (429, None, 0.1),
    (500, "0.5", 0.1),  # only 429 and 503 carry a meaningful Retry-After
])
def test_retry_after_sets_the_wait(stub, monkeypatch, status, retry_after, slept):
    sleeps = []
    monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
    stub.script = [(status, "busy", 0), (200, "done", 0)]
    stub.retry_after = retry_after
    assert complete(remote_cfg(stub.endpoint), req()) == "done"
    assert sleeps == [slept]


@pytest.mark.parametrize("api_key_env,key,sent", [
    ("FORGE_TEST_KEY", "sk-test", "Bearer sk-test"),
    ("FORGE_TEST_KEY", None, None),  # the named variable is unset
    (None, "sk-test", None),  # no variable named: the environment is never read
])
def test_authorization_header_comes_from_the_key_variable(loopback, monkeypatch,
                                                          api_key_env, key, sent):
    endpoint, server = loopback(lambda body: (200, {}, chat_reply("ok"), 0))
    monkeypatch.delenv("FORGE_TEST_KEY", raising=False)
    if key is not None:
        monkeypatch.setenv("FORGE_TEST_KEY", key)
    assert complete(remote_cfg(endpoint, api_key_env=api_key_env), req()) == "ok"
    [headers] = server.headers
    assert headers.get("Authorization") == sent


def test_remote_sample_n_overlaps_and_keeps_sample_order(loopback):
    latency = {10: 0.4, 11: 0.3, 12: 0.2}  # the first sample is answered last
    endpoint, _ = loopback(chat(lambda model_id, r: (f"seed {r.seed}", latency[r.seed])))
    start = time.perf_counter()
    out = sample_n(remote_cfg(endpoint), req(seed=10), 3)
    elapsed = time.perf_counter() - start
    assert out == ["seed 10", "seed 11", "seed 12"]
    assert elapsed < 2 * max(latency.values())


def test_remote_calls_reuse_one_connection(loopback):
    endpoint, server = loopback(chat(lambda model_id, r: ("pong", 0.0)))
    cfg = remote_cfg(endpoint)
    assert [complete(cfg, req()) for _ in range(5)] == ["pong"] * 5
    assert len(server.ports) == 5
    assert len(set(server.ports)) == 1


def test_dropped_keep_alive_connection_is_reopened(loopback):
    """A pooled connection that the server closed after its reply is not
    reused: the next call opens a new one, without a retry."""
    endpoint, server = loopback(chat(lambda model_id, r: ("pong", 0.0)))
    server.drop_connections = True
    cfg = remote_cfg(endpoint, retry_limit=0)
    assert complete(cfg, req()) == "pong"
    assert server.dropped.wait(5)
    assert complete(cfg, req()) == "pong"
    assert len(server.ports) == 2 and len(set(server.ports)) == 2


@pytest.mark.parametrize("status", [307, 308])
def test_redirect_is_not_followed(loopback, status):
    """A redirect fails the call like any other non-200 status: it is not
    followed (the body would be sent to the new location) and not retried."""
    endpoint, server = loopback(lambda body: (status, {"Location": endpoint}, {}, 0.0))
    with pytest.raises(GatewayError, match=f"HTTP {status}"):
        complete(remote_cfg(endpoint), req())
    assert len(server.ports) == 1


def _serve_cut_short_bodies(listener: socket.socket, stop: threading.Event,
                            requests_seen: list) -> None:
    """Answer each request on ``listener`` with a 200 that promises a
    100-byte body, send 10 bytes of it and close the connection."""
    while not stop.is_set():
        try:
            conn, _ = listener.accept()
        except TimeoutError:
            continue
        with conn:
            conn.settimeout(5)
            head = b""
            while b"\r\n\r\n" not in head:
                head += conn.recv(4096)
            headers, _, body = head.partition(b"\r\n\r\n")
            length = next(int(line.split(b":")[1]) for line in headers.split(b"\r\n")
                          if line.lower().startswith(b"content-length:"))
            while len(body) < length:
                body += conn.recv(4096)
            requests_seen.append(json.loads(body))
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                         b"Content-Length: 100\r\n\r\n" + b'{"choices":')


def test_cut_short_reply_body_is_retried():
    """A reply whose body ends before its Content-Length is a transport
    failure like a dropped connection: retried, then RetryExhaustedError."""
    requests_seen: list = []
    stop = threading.Event()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.settimeout(0.05)
        server = threading.Thread(target=_serve_cut_short_bodies,
                                  args=(listener, stop, requests_seen), daemon=True)
        server.start()
        endpoint = f"http://127.0.0.1:{listener.getsockname()[1]}/v1/chat/completions"
        try:
            with pytest.raises(RetryExhaustedError, match="after 2 attempts"):
                complete(remote_cfg(endpoint, retry_limit=1), req())
        finally:
            stop.set()
            server.join(timeout=5)
            gateway._adapter.close()  # no pooled socket outlives the test
    assert not server.is_alive()
    assert len(requests_seen) == 2


def test_session_pool_stays_bounded_under_contention(loopback):
    endpoint, server = loopback(chat(lambda model_id, r: (str(r.seed), 0.005)))
    cfg = remote_cfg(endpoint)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = list(fan_out(lambda i: complete(cfg, req(seed=i)), range(64), 2 * MAX_IN_FLIGHT))
    finally:
        sys.setswitchinterval(interval)
    assert out == [str(i) for i in range(64)]
    assert len(set(server.ports)) <= MAX_IN_FLIGHT



def test_fan_out_runs_every_item_when_one_fails():
    """A failed call does not cancel the items queued behind it: the calls a
    failure costs do not depend on how fast it failed."""
    ran = []

    def fn(i):
        if i == 0:
            raise GatewayError("first")
        time.sleep(0.01)
        ran.append(i)

    with pytest.raises(GatewayError, match="first"):
        list(fan_out(fn, range(6), 2))
    assert sorted(ran) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("exc", [ValueError("fatal"), KeyboardInterrupt()])
def test_fan_out_cancels_queued_items_on_any_other_failure(exc):
    """Any other exception, an interrupt included, cancels the queued items:
    only item 1, already running, and item 2, which the failed worker may
    have taken before the cancel, can run."""
    ran = []

    def fn(i):
        if i == 0:
            raise exc
        time.sleep(0.05)
        ran.append(i)

    with pytest.raises(type(exc)):
        list(fan_out(fn, range(8), 2))
    assert set(ran) <= {1, 2}


def test_fan_out_yields_each_result_once_it_and_every_earlier_one_are_done():
    """Results come in item order, each before a later item has finished."""
    release = threading.Event()

    def fn(i):
        if i == 2:
            assert release.wait(5)
        return i

    results = fan_out(fn, range(4), 2)
    assert [next(results), next(results)] == [0, 1]  # item 2 is still held
    release.set()
    assert list(results) == [2, 3]


def test_fan_out_consumer_that_stops_early_cancels_queued_items():
    ran = []

    def fn(i):
        time.sleep(0.05)
        ran.append(i)
        return i

    results = fan_out(fn, range(8), 2)
    assert next(results) == 0
    results.close()
    assert len(ran) <= 4  # items 0 and 1, and what the two workers took before the cancel


def test_fan_out_second_stage_failure_cancels_queued_items():
    """A failure in ``then`` is seen in item order, while the first stage
    goes on, and cancels what both stages still have queued."""
    ran = []

    def fn(i):
        time.sleep(0.02)
        ran.append(i)
        return i

    def then(i):
        if i == 0:
            raise ValueError("fatal")
        return i

    with pytest.raises(ValueError, match="fatal"):
        list(fan_out(fn, range(10), 1, then, 2))
    assert len(ran) <= 3


def test_fan_out_second_stage_starts_before_the_first_ends():
    """``then`` runs on each result while later items are still running,
    and results come back in item order."""
    events, lock = [], threading.Lock()

    def fn(i):
        time.sleep(0.05 * i)
        with lock:
            events.append(("fn", i))
        return i

    def then(i):
        with lock:
            events.append(("then", i))
        return -i

    assert list(fan_out(fn, range(3), 1, then, 2)) == [0, -1, -2]
    assert events.index(("then", 0)) < events.index(("fn", 2))


def test_first_remote_call_loads_the_http_client_once(loopback):
    """In a fresh interpreter the first remote call is a 3-sample
    ``sample_n``: three threads race on the first ``requests`` import, and
    the replies still come back in sample order."""
    latency = {10: 0.3, 11: 0.2, 12: 0.1}  # the first sample is answered last
    endpoint, server = loopback(chat(lambda model_id, r: (f"seed {r.seed}", latency[r.seed])))
    script = ("import json, sys\n"
              "from forge.gateway import BackendConfig, ChatMessage, CompletionRequest, sample_n\n"
              "before = 'requests' in sys.modules\n"
              "cfg = BackendConfig(kind='remote', model_id='m', endpoint=sys.argv[1],\n"
              "                    retry_limit=0)\n"
              "req = CompletionRequest((ChatMessage('user', 'hi'),), seed=10)\n"
              "print(json.dumps({'before': before, 'replies': sample_n(cfg, req, 3),\n"
              "                  'after': 'requests' in sys.modules}))\n")
    proc = subprocess.run([sys.executable, "-c", script, endpoint], capture_output=True,
                          text=True, timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "before": False, "replies": ["seed 10", "seed 11", "seed 12"], "after": True}
    assert len(server.ports) == 3
