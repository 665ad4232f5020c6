import threading

import pytest

from forge.engine import AssistantTurn, DialogueTrace, ToolCall, UserTurn
from forge.gateway import BackendConfig, GatewayError, Transcript
from forge.validation import (
    judge_requests,
    run_cascade,
    validate_format,
    validate_llm,
    validate_toolargs,
    validate_toolcall,
)

from conftest import (
    GOLD_ARGS,
    SEED_TOOL,
    build_replay_world,
    chat_reply,
    scripted_backend,
    simple_trace,
)


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


@pytest.mark.parametrize("messages,reason", [
    ([], "alternation: empty dialogue"),
    ([UserTurn("  "), AssistantTurn(thought="t", content="x")], "user turn 0 is empty"),
    ([UserTurn("hi"), AssistantTurn(thought=None, raw="no think block")],
     "assistant turn 1 is malformed raw output"),
    # the trace-shape rule, blank user turns included, comes before assistant faults
    ([UserTurn("hi"), AssistantTurn(thought=None, raw="no think block"),
      UserTurn(""), AssistantTurn(thought="t", content="x")], "user turn 2 is empty"),
])
def test_format_rejects_with_reason(messages, reason):
    t = DialogueTrace(dialogue_id="d", scenario_ref="s", messages=messages)
    assert validate_format(t) == (False, reason)


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


@pytest.mark.parametrize("verdict", ["FAIL:", "FAILED:", "FAILURE:", "failed"],
                         ids=["FAIL", "FAILED", "FAILURE", "failed-no-colon"])
def test_critique_failure_rejects(world, verdict):
    """The reason is the text after the verdict word and its optional colon."""
    transcript = Transcript()
    reqs = judge_requests(world.expected_trace, world.scenario, world.cat)
    transcript.register(reqs["relevancy"], "PASS", "m-rel")
    transcript.register(reqs["critique"],
                        f"{verdict} user revealed all slots unprompted", "m-crit")
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


def test_judge_infrastructure_error_after_retry(world, monkeypatch):
    # a scripted miss is a GatewayError -> infra error, after one lookup
    lookups = []
    lookup = Transcript.lookup
    monkeypatch.setattr(Transcript, "lookup",
                        lambda self, fp, n: lookups.append(fp) or lookup(self, fp, n))
    judges = {"relevancy": scripted_backend("m-rel", Transcript()),
              "critique": scripted_backend("m-crit", Transcript())}
    with pytest.raises(GatewayError, match="^relevancy judge failed: no scripted reply"):
        validate_llm(world.expected_trace, world.scenario, world.cat, judges)
    assert len(lookups) == 1


def test_judge_timeout_retried_once_then_passes(world, loopback):
    # the first request per prompt stalls past the client timeout; retries answer at once
    seen, lock = {}, threading.Lock()

    def flaky(body):
        key = hash(body["messages"][0]["content"])
        with lock:
            seen[key] = seen.get(key, 0) + 1
            first = seen[key] == 1
        return 200, {}, chat_reply("PASS"), 0.8 if first else 0.0

    endpoint, _ = loopback(flaky)
    judge = BackendConfig(kind="remote", model_id="m", endpoint=endpoint,
                          timeout=0.25, retry_limit=1)
    judges = {"relevancy": judge, "critique": judge}
    failures = validate_llm(world.expected_trace, world.scenario, world.cat, judges)
    assert failures == []
    assert all(count == 2 for count in seen.values())


# ---------------------------------------------------------------------------
# full cascade ordering


def test_format_failure_short_circuits(world, stages_run):
    t = simple_trace()
    t.messages[1] = AssistantTurn(thought="", content="x")
    report = run_cascade(t, world.scenario, world.cat,
                         passing_judges(world, world.expected_trace))
    assert report.verdict == "reject"
    assert [name for name, _ in report.failures] == ["format"]
    assert stages_run == ["format"]


def test_toolcall_failure_skips_toolargs(world, stages_run):
    t = simple_trace(calls=[("fn_2231_logistics_order_tracking", {"orderId": "x"})])
    report = run_cascade(t, world.scenario, world.cat, None)
    assert stages_run == ["format", "toolcall"]
    assert [name for name, _ in report.failures] == ["toolcall"]


def test_toolargs_failure_skips_llm_stage(world, stages_run):
    t = simple_trace(calls=[(SEED_TOOL, {"nodeId": 437292})])
    report = run_cascade(t, world.scenario, world.cat,
                         passing_judges(world, world.expected_trace))
    assert stages_run == ["format", "toolcall", "toolargs"]
    assert [name for name, _ in report.failures] == ["toolargs"]


def test_all_pass_accepts(world, stages_run):
    judges = passing_judges(world, world.expected_trace)
    report = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    assert report.accepted
    assert report.failures == []
    assert stages_run == ["format", "toolcall", "toolargs", "relevancy", "critique"]


def test_accepted_dialogue_satisfies_stopping_criterion(world):
    judges = passing_judges(world, world.expected_trace)
    report = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    assert report.accepted
    assert validate_toolcall(world.expected_trace, world.scenario) == (True, None)
    assert validate_toolargs(world.expected_trace, world.scenario) == (True, None)


def test_scripted_judges_run_inline(world, no_thread_pool):
    judges = passing_judges(world, world.expected_trace)
    report = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    assert report.accepted


def test_one_remote_judge_runs_both_concurrently(world, monkeypatch):
    import forge.validation

    widths = []

    def record_width(fn, items, workers):
        widths.append(workers)
        return [fn(item) for item in items]

    monkeypatch.setattr(forge.validation, "fan_out", record_width)
    judges = passing_judges(world, world.expected_trace)
    validate_llm(world.expected_trace, world.scenario, world.cat, judges)
    remote = BackendConfig(kind="remote", model_id="m", endpoint="http://127.0.0.1:9/")
    monkeypatch.setattr(forge.validation, "complete", lambda cfg, req: "PASS")
    validate_llm(world.expected_trace, world.scenario, world.cat,
                 {**judges, "critique": remote})
    assert widths == [1, 2]


def test_report_disk_format_omits_timings(world):
    t = simple_trace(calls=[(SEED_TOOL, {"nodeId": 437292})])
    report = run_cascade(t, world.scenario, world.cat, None)
    assert "stage_timings" not in report.to_dict()


def test_cascade_deterministic_with_scripted_judges(world):
    judges = passing_judges(world, world.expected_trace)
    r1 = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    r2 = run_cascade(world.expected_trace, world.scenario, world.cat, judges)
    assert r1.to_dict() == r2.to_dict()
