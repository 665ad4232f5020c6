import json

import pytest
from hypothesis import given, strategies as st

from forge.engine import (
    AssistantFormatError,
    AssistantTurn,
    DialogueTrace,
    EngineConfig,
    RetrieverMissError,
    ToolCall,
    UserTurn,
    WrongToolError,
    args_equal,
    assistant_request,
    canonical_equal,
    check_stopping,
    committed_tool,
    parse_assistant_output,
    run_tool_selection,
    serialize_assistant_turn,
    synthesize_dialogue,
    user_request,
    user_system_prompt,
)
from forge.gateway import Transcript
from forge.retrieval import DistractorSet
from forge.scenario import Scenario
from forge.seeds import split_seed

from conftest import (
    GOLD_ARGS,
    RAW_A1,
    RAW_A2_COMMIT,
    RAW_A3_CALL,
    SEED_TOOL,
    build_replay_world,
    scripted_backend,
)


# ---------------------------------------------------------------------------
# output parsing


def test_parse_content_reply():
    turn = parse_assistant_output("<think>x</think> hello")
    assert turn.thought == "x"
    assert turn.content == "hello"
    assert turn.tool_calls is None


def test_parse_tool_call_reply():
    turn = parse_assistant_output('<think>x</think> [{"name":"t","args":{}}]')
    assert turn.tool_calls == [ToolCall("t", {})]
    assert turn.content == ""


def test_parse_missing_think_block():
    with pytest.raises(AssistantFormatError, match="think"):
        parse_assistant_output("no think tags")


def test_parse_unparseable_call_json():
    with pytest.raises(AssistantFormatError, match="unparseable"):
        parse_assistant_output("<think>x</think> [{broken")


def test_parse_empty_payload():
    with pytest.raises(AssistantFormatError, match="empty"):
        parse_assistant_output("<think>x</think>   ")


def test_parse_malformed_call_entry():
    with pytest.raises(AssistantFormatError, match="malformed"):
        parse_assistant_output('<think>x</think> [{"name":"t"}]')


def test_serialize_round_trip_content():
    turn = parse_assistant_output("<think>reasoning</think> a reply")
    assert parse_assistant_output(serialize_assistant_turn(turn)) == turn


def test_serialize_round_trip_calls():
    turn = parse_assistant_output(RAW_A3_CALL)
    again = parse_assistant_output(serialize_assistant_turn(turn))
    assert again.tool_calls == turn.tool_calls


# ---------------------------------------------------------------------------
# canonical comparison


def test_numeric_string_equals_integer():
    assert canonical_equal("437292", 437292)
    assert canonical_equal(3, "3.0")


def test_strings_compared_trimmed():
    assert canonical_equal(" abc ", "abc")
    assert not canonical_equal("abc", "abd")


def test_booleans_strict():
    assert canonical_equal(True, True)
    assert not canonical_equal(True, 1)
    assert not canonical_equal(False, 0)
    assert not canonical_equal(True, "true")


def test_containers_recursive():
    assert canonical_equal([1, "2"], ["1", 2])
    assert canonical_equal({"a": "5"}, {"a": 5})
    assert not canonical_equal({"a": 1}, {"b": 1})


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_integer_always_equals_its_repr(n):
    assert canonical_equal(n, str(n))


@given(st.text(max_size=30))
def test_string_equality_is_reflexive_after_strip(s):
    assert canonical_equal(s, s.strip()) or s.strip() != s.strip()


def test_args_equal_rejects_superset_and_subset():
    gold = {"a": 1, "b": 2}
    assert args_equal({"a": 1, "b": 2}, gold)
    assert not args_equal({"a": 1}, gold)
    assert not args_equal({"a": 1, "b": 2, "c": 3}, gold)


# ---------------------------------------------------------------------------
# stopping and commitment


def scn_stub(gold_args=None):
    return Scenario(
        seed_tool=SEED_TOOL, persona="p", goal="g",
        distractors=DistractorSet(seed=SEED_TOOL, members=(("other", 0.5),)),
        pool=[SEED_TOOL, "other"], gold_args=gold_args or dict(GOLD_ARGS), rng_seed=1)


def call_turn(name=SEED_TOOL, args=None, extra_calls=()):
    calls = [ToolCall(name, dict(GOLD_ARGS) if args is None else args)]
    calls.extend(ToolCall(n, a) for n, a in extra_calls)
    return AssistantTurn(thought="t", tool_calls=calls)


def test_stopping_success_on_exact_call():
    assert check_stopping(call_turn(), scn_stub()) == "success"


def test_stopping_continue_on_extra_key():
    args = dict(GOLD_ARGS)
    args["region"] = "emea"
    assert check_stopping(call_turn(args=args), scn_stub()) == "continue"


def test_stopping_success_under_canonical_numeric_comparison():
    args = {"nodeId": "437292", "transportRequestId": 957841}
    assert check_stopping(call_turn(args=args), scn_stub()) == "success"


def test_stopping_continue_on_wrong_tool():
    assert check_stopping(call_turn(name="other"), scn_stub()) == "continue"


def test_stopping_cap_pending():
    turn = AssistantTurn(thought="t", content="still asking")
    assert check_stopping(turn, scn_stub(), at_cap=True) == "cap_pending"


def test_commitment_via_marker():
    turn = parse_assistant_output(RAW_A2_COMMIT)
    assert committed_tool(turn) == SEED_TOOL


def test_commitment_via_tool_call():
    assert committed_tool(call_turn()) == SEED_TOOL


def test_no_commitment_on_plain_reply():
    assert committed_tool(parse_assistant_output(RAW_A1)) is None


# ---------------------------------------------------------------------------
# the scripted two-phase replay


def test_selection_stage_replay():
    w = build_replay_world()
    prefix = run_tool_selection(w.scenario, w.cat, w.emb,
                                w.backends["user_proxy"], w.backends["assistant"], w.ecfg)
    assert not prefix.capped
    # two user turns and one assistant turn survive; the committing message is gone
    assert len(prefix.messages) == 3
    assert isinstance(prefix.messages[0], UserTurn)
    assert isinstance(prefix.messages[2], UserTurn)
    texts = [serialize_assistant_turn(m) for m in prefix.messages
             if isinstance(m, AssistantTurn)]
    assert all("Let me set that up" not in t for t in texts)


def test_full_synthesis_replay_matches_expected_trace():
    w = build_replay_world()
    trace = synthesize_dialogue(w.scenario, w.cat, w.emb,
                                w.backends["user_proxy"], w.backends["assistant"], w.ecfg)
    assert trace.to_dict() == w.expected_trace.to_dict()
    assert trace.pair_count() == 3
    assert trace.phase_boundary == 2
    assert trace.terminated_by == "tool_call"
    final = trace.messages[-1]
    assert final.tool_calls == [ToolCall(SEED_TOOL, dict(GOLD_ARGS))]


def test_synthesis_is_bit_deterministic():
    t1 = synthesize_dialogue(*(lambda w: (w.scenario, w.cat, w.emb,
                                          w.backends["user_proxy"],
                                          w.backends["assistant"], w.ecfg))(build_replay_world()))
    t2 = synthesize_dialogue(*(lambda w: (w.scenario, w.cat, w.emb,
                                          w.backends["user_proxy"],
                                          w.backends["assistant"], w.ecfg))(build_replay_world()))
    assert json.dumps(t1.to_dict()) == json.dumps(t2.to_dict())


def test_successful_trace_has_single_final_call_turn():
    w = build_replay_world()
    trace = synthesize_dialogue(w.scenario, w.cat, w.emb,
                                w.backends["user_proxy"], w.backends["assistant"], w.ecfg)
    call_turns = [i for i, m in enumerate(trace.messages)
                  if isinstance(m, AssistantTurn) and m.tool_calls]
    assert call_turns == [len(trace.messages) - 1]


def test_assistant_context_matches_expected_fingerprints():
    """The requests the engine actually issues are exactly the h^a_t / h^u_t
    contexts the transcript was keyed with, in order: u1, a1, u2, the
    removed committing turn, then the filling turns."""
    w = build_replay_world()
    synthesize_dialogue(w.scenario, w.cat, w.emb,
                        w.backends["user_proxy"], w.backends["assistant"], w.ecfg)
    assert w.transcript.served == w.engine_fingerprints
    assert len(w.engine_fingerprints) == 7


def test_wrong_tool_commitment_rejects():
    w = build_replay_world()
    bad_commit = ('<think>The order tracker fits. '
                  '<<select: fn_2231_logistics_order_tracking>></think> On it.')
    # overwrite the committing reply at the same fingerprint
    from forge.engine import selection_system_prompt, shuffled_candidates
    from forge.retrieval import search_catalogue

    msgs = w.expected_trace.messages[:3]
    sys_sel_fp_req = assistant_request(
        _selection_prompt(w), msgs[:3], split_seed(w.rng_seed, "sel:0:asst:3"), w.ecfg)
    w.transcript.register(sys_sel_fp_req, bad_commit, "m-asst")
    with pytest.raises(WrongToolError):
        run_tool_selection(w.scenario, w.cat, w.emb,
                           w.backends["user_proxy"], w.backends["assistant"], w.ecfg)


def _selection_prompt(w):
    from forge.engine import selection_system_prompt
    return selection_system_prompt(w.cat, w.presented, w.ecfg)


def test_retriever_miss_rejects_after_five_attempts():
    w = build_replay_world()
    # a query that matches nothing in the seed tool's vocabulary cannot be
    # produced with a 6-tool catalogue (k = pool size = 6 covers everything),
    # so shrink the pool instead: k=1 pool of 2 over 6 tools
    scn = w.scenario
    small = Scenario(
        seed_tool=scn.seed_tool, persona=scn.persona, goal=scn.goal,
        distractors=DistractorSet(seed=scn.seed_tool,
                                  members=(("fn_2231_logistics_order_tracking", 0.5),)),
        pool=[scn.seed_tool, "fn_2231_logistics_order_tracking"],
        gold_args=scn.gold_args, rng_seed=scn.rng_seed)
    transcript = Transcript()
    gw_user = scripted_backend("m-user", transcript)
    gw_asst = scripted_backend("m-asst", transcript)
    sys_u = user_system_prompt(small, w.cat, w.ecfg)
    # an opening about warehouses and freight rates outranks the seed tool
    misleading = ("I need to compare contracted freight rates for a shipping lane "
                  "and manage warehouse staffing resources for a warehouse zone.")
    for attempt in range(w.ecfg.regen_attempts):
        transcript.register(
            user_request(sys_u, [], split_seed(small.rng_seed, f"sel:{attempt}:user:0"),
                         w.ecfg),
            misleading, "m-user")
    with pytest.raises(RetrieverMissError):
        run_tool_selection(small, w.cat, w.emb, gw_user, gw_asst, w.ecfg)


def test_param_free_tool_calls_immediately():
    """After selection commits, a param-free tool is called without any
    further user input."""
    w = build_replay_world()
    tool = "fn_6642_delivery_schedule_refresh"
    scn = Scenario(
        seed_tool=tool, persona="p", goal="refresh the schedule",
        distractors=DistractorSet(seed=tool, members=((SEED_TOOL, 0.5),)),
        pool=[tool, SEED_TOOL], gold_args={}, rng_seed=123)
    transcript = Transcript()
    gw_user = scripted_backend("m-user", transcript)
    gw_asst = scripted_backend("m-asst", transcript)
    ecfg = w.ecfg
    sys_u = user_system_prompt(scn, w.cat, ecfg)
    opening = "Could you refresh the consolidated delivery schedule for today?"
    transcript.register(
        user_request(sys_u, [], split_seed(123, "sel:0:user:0"), ecfg), opening, "m-user")
    from forge.engine import (filling_system_prompt, selection_system_prompt,
                              shuffled_candidates)
    from forge.retrieval import search_catalogue

    retrieved = [n for n, _ in search_catalogue(w.cat, opening, 2, w.emb)]
    assert tool in retrieved
    presented = shuffled_candidates(retrieved, split_seed(123, "sel:0:present"))
    sys_sel = selection_system_prompt(w.cat, presented, ecfg)
    msgs = [UserTurn(opening)]
    transcript.register(
        assistant_request(sys_sel, msgs, split_seed(123, "sel:0:asst:1"), ecfg),
        f"<think>Clear match. <<select: {tool}>></think> One moment.", "m-asst")
    sys_fill = filling_system_prompt(w.cat, presented, tool, ecfg)
    transcript.register(
        assistant_request(sys_fill, msgs, split_seed(123, "fill:asst:1"), ecfg),
        f'<think>No parameters needed.</think> [{{"name": "{tool}", "args": {{}}}}]',
        "m-asst")
    trace = synthesize_dialogue(scn, w.cat, w.emb, gw_user, gw_asst, ecfg)
    assert trace.pair_count() == 1
    assert trace.phase_boundary == 1
    assert trace.terminated_by == "tool_call"
    assert trace.messages[-1].tool_calls == [ToolCall(tool, {})]
    assert check_stopping(trace.messages[-1], scn) == "success"


def test_turn_cap_terminates_filling():
    w = build_replay_world()
    ecfg = EngineConfig(t_max=2)
    scn = w.scenario
    transcript = Transcript()
    gw_user = scripted_backend("m-user", transcript)
    gw_asst = scripted_backend("m-asst", transcript)
    sys_u = user_system_prompt(scn, w.cat, ecfg)
    opening = "I want to keep watch over our transport activities."
    transcript.register(
        user_request(sys_u, [], split_seed(scn.rng_seed, "sel:0:user:0"), ecfg),
        opening, "m-user")
    from forge.engine import (filling_system_prompt, selection_system_prompt,
                              shuffled_candidates)
    from forge.retrieval import search_catalogue

    retrieved = [n for n, _ in search_catalogue(w.cat, opening, len(scn.pool), w.emb)]
    presented = shuffled_candidates(retrieved, split_seed(scn.rng_seed, "sel:0:present"))
    sys_sel = selection_system_prompt(w.cat, presented, ecfg)
    msgs = [UserTurn(opening)]
    transcript.register(
        assistant_request(sys_sel, msgs, split_seed(scn.rng_seed, "sel:0:asst:1"), ecfg),
        f"<think>Sure. <<select: {scn.seed_tool}>></think> ok", "m-asst")
    sys_fill = filling_system_prompt(w.cat, presented, scn.seed_tool, ecfg)
    never_calls = "<think>Need more info.</think> Could you share more details?"
    transcript.register(
        assistant_request(sys_fill, msgs, split_seed(scn.rng_seed, "fill:asst:1"), ecfg),
        never_calls, "m-asst")
    msgs2 = msgs + [parse_assistant_output(never_calls)]
    follow_up = "I am not sure what you need."
    transcript.register(
        user_request(sys_u, msgs2, split_seed(scn.rng_seed, "fill:user:2"), ecfg),
        follow_up, "m-user")
    msgs3 = msgs2 + [UserTurn(follow_up)]
    transcript.register(
        assistant_request(sys_fill, msgs3, split_seed(scn.rng_seed, "fill:asst:3"), ecfg),
        never_calls, "m-asst")
    trace = synthesize_dialogue(scn, w.cat, w.emb, gw_user, gw_asst, ecfg)
    assert trace.terminated_by == "turn_cap"
    assert trace.pair_count() == 2


# ---------------------------------------------------------------------------
# trace model


def test_trace_round_trip():
    w = build_replay_world()
    d = w.expected_trace.to_dict()
    assert DialogueTrace.from_dict(d).to_dict() == d


def test_trace_pairs_reject_misaligned_messages():
    t = DialogueTrace(dialogue_id="d", scenario_ref="s",
                      messages=[UserTurn("a"), UserTurn("b")])
    with pytest.raises(ValueError, match="alternate"):
        t.turns()


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(t_max=1)
    with pytest.raises(ValueError):
        EngineConfig(regen_attempts=0)


def test_nan_spelling_compares_as_text():
    assert canonical_equal("NAN", "NAN")
    assert canonical_equal(" nan", "nan ")
    assert not canonical_equal("nan", "NaN")
