import json

import pytest
from hypothesis import given, strategies as st

from forge import engine
from forge.engine import (
    AssistantFormatError,
    AssistantTurn,
    DialogueTrace,
    EngineConfig,
    RetrieverMissError,
    ToolCall,
    UserTurn,
    WrongToolError,
    assistant_request,
    canonical_equal,
    committed_tool,
    parse_assistant_output,
    run_tool_selection,
    selection_system_prompt,
    serialize_assistant_turn,
    shuffled_candidates,
    synthesize_dialogue,
    user_request,
    user_system_prompt,
)
from forge.gateway import Transcript, fingerprint
from forge.retrieval import DistractorSet, search_catalogue
from forge.scenario import Scenario
from forge.seeds import split_seed
from forge.validation import validate_toolargs, validate_toolcall

from conftest import (
    GOLD_ARGS,
    RAW_A1,
    RAW_A2_COMMIT,
    RAW_A3_CALL,
    RAW_LONG_INT_CALLS,
    RAW_NESTED_CALLS,
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


def test_parse_nested_call_json_is_unparseable():
    """JSON nested past the recursion limit, or holding an integer past
    Python's digit limit, is one unparseable reply."""
    with pytest.raises(AssistantFormatError, match="unparseable tool-call JSON: maximum "
                                                   "recursion depth exceeded"):
        parse_assistant_output(RAW_NESTED_CALLS)
    with pytest.raises(AssistantFormatError, match=r"unparseable tool-call JSON: Exceeds "
                                                   r"the limit \(4300 digits\)"):
        parse_assistant_output(RAW_LONG_INT_CALLS)


def test_parse_empty_payload():
    with pytest.raises(AssistantFormatError, match="empty"):
        parse_assistant_output("<think>x</think>   ")


def test_parse_malformed_call_entry():
    with pytest.raises(AssistantFormatError, match="malformed"):
        parse_assistant_output('<think>x</think> [{"name":"t"}]')


@pytest.mark.parametrize("raw,reason", [
    ("", "empty assistant output"),
    ("<think>never closed [", "missing </think>"),
    ("<think>x</think> []", "tool-call list is empty"),
    ('<think>x</think> [{"name": "t", "args": [1]}]', "args must be an object"),
])
def test_parse_rejects_malformed_output(raw, reason):
    with pytest.raises(AssistantFormatError, match=reason):
        parse_assistant_output(raw)


@pytest.mark.parametrize("name", [None, ["a"], 3])
def test_parse_non_string_tool_name_is_malformed(name):
    """A call whose name is not a string is not coerced into one."""
    raw = "<think>x</think> " + json.dumps([{"name": name, "args": {}}])
    with pytest.raises(AssistantFormatError, match="tool-call name must be a string"):
        parse_assistant_output(raw)


def test_blank_proxy_reply_is_a_dialogue_error():
    assert engine.utterance("  hi \n") == "hi"
    with pytest.raises(engine.BlankUtteranceError, match="user proxy reply is blank"):
        engine.utterance(" \n\t")
    assert engine.BlankUtteranceError in engine.DIALOGUE_ERRORS


def test_proxy_is_shown_a_placeholder_for_an_empty_reply():
    req = user_request("sys", [UserTurn("hi"), AssistantTurn(thought=None, raw="")], 1)
    assert req.messages[-1].role == "user"
    assert req.messages[-1].content == engine.EMPTY_REPLY == "(empty reply)"


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
    assert canonical_equal({"a": 1, "b": 2}, gold)
    assert not canonical_equal({"a": 1}, gold)
    assert not canonical_equal({"a": 1, "b": 2, "c": 3}, gold)


# ---------------------------------------------------------------------------
# commitment


def test_commitment_via_marker():
    turn = parse_assistant_output(RAW_A2_COMMIT)
    assert committed_tool(turn) == SEED_TOOL


def test_commitment_via_tool_call():
    turn = AssistantTurn(thought="t", tool_calls=[ToolCall(SEED_TOOL, dict(GOLD_ARGS))])
    assert committed_tool(turn) == SEED_TOOL


def test_no_commitment_on_plain_reply():
    assert committed_tool(parse_assistant_output(RAW_A1)) is None


# ---------------------------------------------------------------------------
# the scripted two-phase replay


def test_selection_stage_replay():
    w = build_replay_world()
    prefix = run_tool_selection(w.scenario, w.tools,
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
    trace = synthesize_dialogue(w.scenario, w.tools,
                                w.backends["user_proxy"], w.backends["assistant"], w.ecfg)
    assert trace.to_dict() == w.expected_trace.to_dict()
    assert trace.pair_count() == 3
    assert trace.phase_boundary == 2
    assert trace.terminated_by == "tool_call"
    final = trace.messages[-1]
    assert final.tool_calls == [ToolCall(SEED_TOOL, dict(GOLD_ARGS))]


def test_synthesis_is_bit_deterministic():
    t1 = synthesize_dialogue(*(lambda w: (w.scenario, w.tools,
                                          w.backends["user_proxy"],
                                          w.backends["assistant"], w.ecfg))(build_replay_world()))
    t2 = synthesize_dialogue(*(lambda w: (w.scenario, w.tools,
                                          w.backends["user_proxy"],
                                          w.backends["assistant"], w.ecfg))(build_replay_world()))
    assert json.dumps(t1.to_dict()) == json.dumps(t2.to_dict())


def test_successful_trace_has_single_final_call_turn():
    w = build_replay_world()
    trace = synthesize_dialogue(w.scenario, w.tools,
                                w.backends["user_proxy"], w.backends["assistant"], w.ecfg)
    call_turns = [i for i, m in enumerate(trace.messages)
                  if isinstance(m, AssistantTurn) and m.tool_calls]
    assert call_turns == [len(trace.messages) - 1]


def test_user_prompt_rendered_once_per_dialogue(monkeypatch):
    renders = []

    def counting(scn, cat, cfg=None):
        renders.append(scn.scenario_id)
        return user_system_prompt(scn, cat)

    monkeypatch.setattr(engine, "user_system_prompt", counting)
    w = build_replay_world()
    trace = synthesize_dialogue(w.scenario, w.tools,
                                w.backends["user_proxy"], w.backends["assistant"], w.ecfg)
    assert trace.terminated_by == "tool_call" and trace.phase_boundary == 2
    assert renders == [w.scenario.scenario_id]


@pytest.fixture
def lookups(monkeypatch):
    """Every fingerprint looked up in any scripted transcript, in order."""
    served = []
    lookup = Transcript.lookup

    def recording(self, fp, n):
        served.append(fp)
        return lookup(self, fp, n)

    monkeypatch.setattr(Transcript, "lookup", recording)
    return served


def test_assistant_context_matches_expected_fingerprints(lookups):
    """The requests the engine actually issues are exactly the h^a_t / h^u_t
    contexts the transcript was keyed with, in order: u1, a1, u2, the
    removed committing turn, then the filling turns."""
    w = build_replay_world()
    synthesize_dialogue(w.scenario, w.tools,
                        w.backends["user_proxy"], w.backends["assistant"], w.ecfg)
    assert lookups == w.engine_fingerprints
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
        _selection_prompt(w), msgs[:3], split_seed(w.rng_seed, "sel:0:asst:3"))
    w.transcript.register(sys_sel_fp_req, bad_commit, "m-asst")
    with pytest.raises(WrongToolError):
        run_tool_selection(w.scenario, w.tools,
                           w.backends["user_proxy"], w.backends["assistant"], w.ecfg)


def _selection_prompt(w):
    from forge.engine import selection_system_prompt
    return selection_system_prompt(w.cat, w.presented)


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
    sys_u = user_system_prompt(small, w.cat)
    # an opening about warehouses and freight rates outranks the seed tool
    misleading = ("I need to compare contracted freight rates for a shipping lane "
                  "and manage warehouse staffing resources for a warehouse zone.")
    for attempt in range(w.ecfg.regen_attempts):
        transcript.register(
            user_request(sys_u, [], split_seed(small.rng_seed, f"sel:{attempt}:user:0")),
            misleading, "m-user")
    with pytest.raises(RetrieverMissError):
        run_tool_selection(small, w.tools, gw_user, gw_asst, w.ecfg)


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
    sys_u = user_system_prompt(scn, w.cat)
    opening = "Could you refresh the consolidated delivery schedule for today?"
    transcript.register(
        user_request(sys_u, [], split_seed(123, "sel:0:user:0")), opening, "m-user")
    from forge.engine import (filling_system_prompt, selection_system_prompt,
                              shuffled_candidates)
    from forge.retrieval import search_catalogue

    retrieved = [n for n, _ in search_catalogue(w.tools, opening, 2)]
    assert tool in retrieved
    presented = shuffled_candidates(retrieved, split_seed(123, "sel:0:present"))
    sys_sel = selection_system_prompt(w.cat, presented)
    msgs = [UserTurn(opening)]
    transcript.register(
        assistant_request(sys_sel, msgs, split_seed(123, "sel:0:asst:1")),
        f"<think>Clear match. <<select: {tool}>></think> One moment.", "m-asst")
    sys_fill = filling_system_prompt(w.cat, presented, tool)
    transcript.register(
        assistant_request(sys_fill, msgs, split_seed(123, "fill:asst:1")),
        f'<think>No parameters needed.</think> [{{"name": "{tool}", "args": {{}}}}]',
        "m-asst")
    trace = synthesize_dialogue(scn, w.tools, gw_user, gw_asst, w.ecfg)
    assert trace.pair_count() == 1
    assert trace.phase_boundary == 1
    assert trace.terminated_by == "tool_call"
    assert trace.messages[-1].tool_calls == [ToolCall(tool, {})]
    assert validate_toolcall(trace, scn) == (True, None)
    assert validate_toolargs(trace, scn) == (True, None)


def test_turn_cap_terminates_filling():
    w = build_replay_world()
    ecfg = EngineConfig(t_max=2)
    scn = w.scenario
    transcript = Transcript()
    gw_user = scripted_backend("m-user", transcript)
    gw_asst = scripted_backend("m-asst", transcript)
    sys_u = user_system_prompt(scn, w.cat)
    opening = "I want to keep watch over our transport activities."
    transcript.register(
        user_request(sys_u, [], split_seed(scn.rng_seed, "sel:0:user:0")),
        opening, "m-user")
    from forge.engine import (filling_system_prompt, selection_system_prompt,
                              shuffled_candidates)
    from forge.retrieval import search_catalogue

    retrieved = [n for n, _ in search_catalogue(w.tools, opening, len(scn.pool))]
    presented = shuffled_candidates(retrieved, split_seed(scn.rng_seed, "sel:0:present"))
    sys_sel = selection_system_prompt(w.cat, presented)
    msgs = [UserTurn(opening)]
    transcript.register(
        assistant_request(sys_sel, msgs, split_seed(scn.rng_seed, "sel:0:asst:1")),
        f"<think>Sure. <<select: {scn.seed_tool}>></think> ok", "m-asst")
    sys_fill = filling_system_prompt(w.cat, presented, scn.seed_tool)
    never_calls = "<think>Need more info.</think> Could you share more details?"
    transcript.register(
        assistant_request(sys_fill, msgs, split_seed(scn.rng_seed, "fill:asst:1")),
        never_calls, "m-asst")
    msgs2 = msgs + [parse_assistant_output(never_calls)]
    follow_up = "I am not sure what you need."
    transcript.register(
        user_request(sys_u, msgs2, split_seed(scn.rng_seed, "fill:user:2")),
        follow_up, "m-user")
    msgs3 = msgs2 + [UserTurn(follow_up)]
    transcript.register(
        assistant_request(sys_fill, msgs3, split_seed(scn.rng_seed, "fill:asst:3")),
        never_calls, "m-asst")
    trace = synthesize_dialogue(scn, w.tools, gw_user, gw_asst, ecfg)
    assert trace.terminated_by == "turn_cap"
    assert trace.pair_count() == 2


def test_turn_cap_terminates_selection(lookups):
    """An assistant that never commits yields the capped selection trace,
    built from u0, a1, u2 and a3 in that order."""
    w = build_replay_world()
    scn = w.scenario
    transcript = Transcript()
    opening = "I want to keep watch over our transport activities."
    asking = "<think>Not sure yet.</think> Could you tell me more?"
    follow_up = "It is about the requests moving through one node."
    retrieved = [n for n, _ in search_catalogue(w.tools, opening, len(scn.pool))]
    assert scn.seed_tool in retrieved
    presented = shuffled_candidates(retrieved, split_seed(scn.rng_seed, "sel:0:present"))
    sys_u = user_system_prompt(scn, w.cat)
    sys_sel = selection_system_prompt(w.cat, presented)
    msgs1 = [UserTurn(opening)]
    msgs2 = msgs1 + [parse_assistant_output(asking)]
    msgs3 = msgs2 + [UserTurn(follow_up)]
    steps = [
        (user_request(sys_u, [], split_seed(scn.rng_seed, "sel:0:user:0")), opening, "m-user"),
        (assistant_request(sys_sel, msgs1, split_seed(scn.rng_seed, "sel:0:asst:1")),
         asking, "m-asst"),
        (user_request(sys_u, msgs2, split_seed(scn.rng_seed, "sel:0:user:2")),
         follow_up, "m-user"),
        (assistant_request(sys_sel, msgs3, split_seed(scn.rng_seed, "sel:0:asst:3")),
         asking, "m-asst"),
    ]
    for req, reply, model_id in steps:
        transcript.register(req, reply, model_id)
    trace = synthesize_dialogue(scn, w.tools, scripted_backend("m-user", transcript),
                                scripted_backend("m-asst", transcript), EngineConfig(t_max=2))
    assert len(trace.messages) == 4
    assert trace.terminated_by == "turn_cap"
    assert trace.phase_boundary == 2
    assert lookups == [fingerprint(model_id, req) for req, _, model_id in steps]


# ---------------------------------------------------------------------------
# trace model


def test_trace_round_trip():
    w = build_replay_world()
    d = w.expected_trace.to_dict()
    assert DialogueTrace.from_dict(d).to_dict() == d


def test_trace_round_trip_keeps_raw_turn():
    d = DialogueTrace(dialogue_id="d", scenario_ref="s", messages=[
        UserTurn("hello"), AssistantTurn(thought=None, raw="no think block")]).to_dict()
    assert d["messages"][1]["raw"] == "no think block"
    back = DialogueTrace.from_dict(d)
    assert back.messages[1].malformed and back.to_dict() == d


@pytest.mark.parametrize("path,value,field", [
    (("dialogue_id",), 5, "trace dialogue_id"), (("scenario_ref",), None, "trace scenario_ref"),
    (("messages",), {}, "trace messages"), (("phase_boundary",), "1", "trace phase_boundary"),
    (("phase_boundary",), True, "trace phase_boundary"),
    (("terminated_by",), 5, "trace terminated_by"),
    (("messages", 0), "hello", "trace message"), (("messages", 0, "content"), 5, "message content"),
    (("messages", 1, "content"), None, "message content"),
    (("messages", 1, "thought"), 5, "message thought"), (("messages", 1, "raw"), [], "message raw"),
    (("messages", 5, "tool_calls"), {}, "message tool_calls"),
    (("messages", 5, "tool_calls", 0), "call", "tool call"),
    (("messages", 5, "tool_calls", 0, "name"), 5, "tool call name"),
    (("messages", 5, "tool_calls", 0, "args"), [], "tool call args")])
def test_trace_from_dict_checks_types(path, value, field):
    d = build_replay_world().expected_trace.to_dict()
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ValueError, match=f"^{field} must be"):
        DialogueTrace.from_dict(d)


def test_trace_pairs_reject_misaligned_messages():
    t = DialogueTrace(dialogue_id="d", scenario_ref="s",
                      messages=[UserTurn("a"), UserTurn("b")])
    with pytest.raises(ValueError, match="^alternation: message 1 should be an assistant turn$"):
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


def test_integer_string_past_the_digit_limit_compares_as_text():
    """A digit string too long for int() is compared as text, never raises."""
    digits = "1" * 5000
    assert canonical_equal(digits, f" {digits} ")
    assert not canonical_equal(digits, "x")
    assert not canonical_equal(digits, digits + "1")
    assert not canonical_equal(digits, 1)
