import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from forge.engine import AssistantTurn, DialogueTrace, ToolCall, UserTurn
from forge.gateway import BackendConfig, Transcript
from forge.validation import (
    ValidationInfraError,
    judge_requests,
    run_cascade,
    validate_format,
    validate_llm,
    validate_toolargs,
    validate_toolcall,
)

from conftest import GOLD_ARGS, SEED_TOOL, build_replay_world, scripted_backend, simple_trace


@pytest.fixture(scope="module")
def world():
    return build_replay_world()


def passing_judges(world, trace):
    transcript = Transcript()
    reqs = judge_requests(trace, world.scenario, world.cat)
    transcript.register(reqs["relevancy"], "PASS", "m-rel")
    transcript.register(reqs["critique"], "PASS", "m-crit")
    return {"relevancy": scripted_backend("m-rel", transcript),
            "critique": scripted_backend("m-crit", transcript)}


# ---------------------------------------------------------------------------
# format validator


def test_replay_sample_passes_format(world):
    ok, reason = validate_format(world.expected_trace)
    assert ok, reason


def test_consecutive_user_turns_fail():
    t = DialogueTrace(dialogue_id="d", scenario_ref="s", messages=[
        UserTurn("one"), UserTurn("two"),
        AssistantTurn(thought="t", content="x"),
    ])
    ok, reason = validate_format(t)
    assert not ok and "alternation" in reason


def test_missing_thought_fails():
    t = simple_trace()
    t.messages[1] = AssistantTurn(thought="", content="x")
    ok, reason = validate_format(t)
    assert not ok and "thought" in reason


def test_dialogue_must_end_on_assistant_turn():
    t = simple_trace()
    t.messages.append(UserTurn("dangling"))
    ok, reason = validate_format(t)
    assert not ok


def test_empty_payload_fails_format():
    t = simple_trace()
    t.messages[-1] = AssistantTurn(thought="t", content="")
    ok, _ = validate_format(t)
    assert not ok


def test_mixed_payload_fails_format():
    t = simple_trace()
    t.messages[-1] = AssistantTurn(thought="t", content="and words",
                                   tool_calls=[ToolCall("x", {})])
    ok, reason = validate_format(t)
    assert not ok and "mixes" in reason


# ---------------------------------------------------------------------------
# toolcall / toolargs validators


def test_gold_call_passes(world):
    ok, reason = validate_toolcall(world.expected_trace, world.scenario)
    assert ok, reason


def test_distractor_call_fails(world):
    t = simple_trace(calls=[("fn_2231_logistics_order_tracking", {"orderId": "x"})])
    ok, reason = validate_toolcall(t, world.scenario)
    assert not ok and "expected" in reason


def test_no_call_fails(world):
    t = simple_trace()  # turn-cap trace, no calls
    ok, reason = validate_toolcall(t, world.scenario)
    assert not ok and "no tool call" in reason


def test_two_calls_fail(world):
    t = simple_trace(calls=[(SEED_TOOL, dict(GOLD_ARGS)), (SEED_TOOL, dict(GOLD_ARGS))])
    ok, reason = validate_toolcall(t, world.scenario)
    assert not ok


def test_exact_args_pass(world):
    ok, reason = validate_toolargs(world.expected_trace, world.scenario)
    assert ok, reason


def test_missing_arg_fails(world):
    t = simple_trace(calls=[(SEED_TOOL, {"nodeId": 437292})])
    ok, reason = validate_toolargs(t, world.scenario)
    assert not ok and "transportRequestId" in reason


def test_superfluous_arg_fails(world):
    args = dict(GOLD_ARGS)
    args["region"] = "emea"
    t = simple_trace(calls=[(SEED_TOOL, args)])
    ok, reason = validate_toolargs(t, world.scenario)
    assert not ok and "region" in reason


def test_wrong_value_fails(world):
    t = simple_trace(calls=[(SEED_TOOL, {"nodeId": 1, "transportRequestId": 957841})])
    ok, reason = validate_toolargs(t, world.scenario)
    assert not ok and "nodeId" in reason


def test_string_typed_numbers_pass_canonically(world):
    t = simple_trace(calls=[(SEED_TOOL, {"nodeId": "437292",
                                         "transportRequestId": "957841"})])
    ok, reason = validate_toolargs(t, world.scenario)
    assert ok, reason


# ---------------------------------------------------------------------------
# LLM stage


def test_scripted_judges_pass(world):
    judges = passing_judges(world, world.expected_trace)
    assert validate_llm(world.expected_trace, world.scenario, world.cat, judges) == []


def test_critique_failure_rejects(world):
    transcript = Transcript()
    reqs = judge_requests(world.expected_trace, world.scenario, world.cat)
    transcript.register(reqs["relevancy"], "PASS", "m-rel")
    transcript.register(reqs["critique"],
                        "FAIL: user revealed all slots unprompted", "m-crit")
    judges = {"relevancy": scripted_backend("m-rel", transcript),
              "critique": scripted_backend("m-crit", transcript)}
    failures = validate_llm(world.expected_trace, world.scenario, world.cat, judges)
    assert failures == [("critique", "user revealed all slots unprompted")]


def test_unrecognized_judge_reply_counts_as_failure(world):
    transcript = Transcript()
    reqs = judge_requests(world.expected_trace, world.scenario, world.cat)
    transcript.register(reqs["relevancy"], "maybe?", "m-rel")
    transcript.register(reqs["critique"], "PASS", "m-crit")
    judges = {"relevancy": scripted_backend("m-rel", transcript),
              "critique": scripted_backend("m-crit", transcript)}
    failures = validate_llm(world.expected_trace, world.scenario, world.cat, judges)
    assert len(failures) == 1 and failures[0][0] == "relevancy"


def test_judge_infrastructure_error_after_retry(world):
    # a scripted miss raises a GatewayError both times -> infra error
    judges = {"relevancy": scripted_backend("m-rel", Transcript()),
              "critique": scripted_backend("m-crit", Transcript())}
    with pytest.raises(ValidationInfraError):
        validate_llm(world.expected_trace, world.scenario, world.cat, judges)


class FlakyJudgeHandler(BaseHTTPRequestHandler):
    """First request per prompt stalls past the client timeout; retries
    answer instantly."""

    seen = {}

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        key = hash(body["messages"][0]["content"])
        FlakyJudgeHandler.seen[key] = FlakyJudgeHandler.seen.get(key, 0) + 1
        if FlakyJudgeHandler.seen[key] == 1:
            time.sleep(0.8)
        payload = json.dumps({"choices": [{"message": {"content": "PASS"}}]}).encode()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def log_message(self, *args):
        pass


def test_judge_timeout_retried_once_then_passes(world):
    FlakyJudgeHandler.seen = {}
    server = ThreadingHTTPServer(("127.0.0.1", 0), FlakyJudgeHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        judge = BackendConfig(kind="remote", model_id="m", endpoint=endpoint,
                              timeout=0.25, retry_limit=0)
        judges = {"relevancy": judge, "critique": judge}
        failures = validate_llm(world.expected_trace, world.scenario, world.cat, judges)
        assert failures == []
        assert all(count == 2 for count in FlakyJudgeHandler.seen.values())
    finally:
        server.shutdown()


# ---------------------------------------------------------------------------
# full cascade ordering


def test_format_failure_short_circuits(world):
    t = simple_trace()
    t.messages[1] = AssistantTurn(thought="", content="x")
    report = run_cascade(t, world.scenario, world.cat,
                         passing_judges(world, world.expected_trace))
    assert report.verdict == "reject"
    assert [name for name, _ in report.failures] == ["format"]
    assert set(report.stage_timings) == {"format"}


def test_toolcall_failure_skips_toolargs(world):
    t = simple_trace(calls=[("fn_2231_logistics_order_tracking", {"orderId": "x"})])
    report = run_cascade(t, world.scenario, world.cat, None)
    assert set(report.stage_timings) == {"format", "toolcall"}
    assert [name for name, _ in report.failures] == ["toolcall"]


def test_toolargs_failure_skips_llm_stage(world):
    t = simple_trace(calls=[(SEED_TOOL, {"nodeId": 437292})])
    report = run_cascade(t, world.scenario, world.cat,
                         passing_judges(world, world.expected_trace))
    assert set(report.stage_timings) == {"format", "toolcall", "toolargs"}
    assert [name for name, _ in report.failures] == ["toolargs"]


def test_all_pass_accepts(world):
    judges = passing_judges(world, world.expected_trace)
    report = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    assert report.accepted
    assert report.failures == []
    assert set(report.stage_timings) == {
        "format", "toolcall", "toolargs", "relevancy", "critique"}


def test_accepted_dialogue_satisfies_stopping_criterion(world):
    from forge.engine import check_stopping

    judges = passing_judges(world, world.expected_trace)
    report = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    assert report.accepted
    final = world.expected_trace.messages[-1]
    assert check_stopping(final, world.scenario) == "success"


def test_each_judge_is_timed_separately(world, monkeypatch):
    import forge.validation

    judges = passing_judges(world, world.expected_trace)
    replay = forge.validation.complete

    def slow_critique(cfg, req):
        if cfg.model_id == "m-crit":
            time.sleep(0.2)
        return replay(cfg, req)

    monkeypatch.setattr(forge.validation, "complete", slow_critique)
    report = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    assert report.accepted
    assert report.stage_timings["critique"] >= 0.2 > report.stage_timings["relevancy"]


def test_report_disk_format_omits_timings(world):
    t = simple_trace(calls=[(SEED_TOOL, {"nodeId": 437292})])
    report = run_cascade(t, world.scenario, world.cat, None)
    assert "stage_timings" not in report.to_dict()


def test_cascade_deterministic_with_scripted_judges(world):
    judges = passing_judges(world, world.expected_trace)
    r1 = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    r2 = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    assert r1.to_dict() == r2.to_dict()
