import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from forge.gateway import (
    BackendConfig,
    ChatMessage,
    CompletionRequest,
    GatewayTimeout,
    RetryExhaustedError,
    Transcript,
    TranscriptMissError,
    complete,
    fingerprint,
    sample_n,
)


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
    # frozen value: catches accidental fingerprint scheme changes, which
    # would invalidate every recorded transcript
    fp = fingerprint("m", req())
    assert fp == fingerprint("m", req())
    assert fp != fingerprint("other", req())
    assert fp != fingerprint("m", req(seed=2))
    assert len(fp) == 64


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
    with pytest.raises(ValueError, match="retry_limit"):
        BackendConfig(kind="remote", model_id="m", endpoint="http://x", retry_limit=11)


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


class StubHandler(BaseHTTPRequestHandler):
    script = []  # list of (status, reply_text, delay)
    calls = 0
    bodies = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        StubHandler.bodies.append(json.loads(self.rfile.read(length)))
        idx = min(StubHandler.calls, len(StubHandler.script) - 1)
        status, text, delay = StubHandler.script[idx]
        StubHandler.calls += 1
        if delay:
            time.sleep(delay)
        body = json.dumps(
            {"choices": [{"message": {"content": text}}]}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    StubHandler.calls = 0
    StubHandler.bodies = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def remote_cfg(endpoint, **kw):
    return BackendConfig(kind="remote", model_id="stub-model", endpoint=endpoint, **kw)


def test_remote_success(stub_server):
    StubHandler.script = [(200, "remote reply", 0)]
    assert complete(remote_cfg(stub_server), req()) == "remote reply"
    assert StubHandler.bodies[0]["model"] == "stub-model"
    assert StubHandler.bodies[0]["seed"] == 1


def test_remote_retries_on_transient_500(stub_server):
    StubHandler.script = [(500, "boom", 0), (500, "boom", 0), (200, "recovered", 0)]
    assert complete(remote_cfg(stub_server), req()) == "recovered"
    assert StubHandler.calls == 3


def test_remote_exhausts_retries(stub_server):
    StubHandler.script = [(503, "down", 0)]
    with pytest.raises(RetryExhaustedError):
        complete(remote_cfg(stub_server, retry_limit=2), req())
    assert StubHandler.calls == 3


def test_remote_non_retryable_status_fails_fast(stub_server):
    StubHandler.script = [(400, "bad", 0)]
    with pytest.raises(Exception, match="HTTP 400"):
        complete(remote_cfg(stub_server), req())
    assert StubHandler.calls == 1


def test_remote_timeout(stub_server):
    StubHandler.script = [(200, "slow", 1.0)]
    with pytest.raises(GatewayTimeout):
        complete(remote_cfg(stub_server, timeout=0.2, retry_limit=1), req())


def test_remote_sample_n_issues_distinct_calls(stub_server):
    StubHandler.script = [(200, "body", 0)]
    out = sample_n(remote_cfg(stub_server), req(seed=10), 3)
    assert len(out) == 3
    assert StubHandler.calls == 3
    seeds = [b["seed"] for b in StubHandler.bodies]
    assert seeds == [10, 11, 12]

