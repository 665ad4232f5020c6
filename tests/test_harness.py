import dataclasses
import logging
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from forge import harness
from forge.engine import (
    AssistantTurn,
    EngineConfig,
    UserTurn,
    assistant_request,
    selection_system_prompt,
    user_request,
    user_system_prompt,
)
from forge.gateway import Transcript, fingerprint
from forge.harness import (
    EvalTask,
    VotingConfig,
    eval_dynamic,
    eval_static,
    invert_vote,
    pool_votes,
    run_benchmark,
    vote_utterance,
    voter_request,
)
from forge.metrics import extract_call, rubric_request
from forge.retrieval import DistractorSet
from forge.scenario import Scenario
from forge.seeds import split_seed

from conftest import (
    RAW_A1,
    RAW_A2_FILL,
    RAW_A3_CALL,
    SEED_TOOL,
    build_replay_world,
    remote_backend,
    scripted_backend,
    static_candidate,
    transcript_responder,
)


@pytest.fixture(scope="module")
def world():
    return build_replay_world()


def eval_scenario(rng_seed=555, gold_args=None):
    return Scenario(
        seed_tool=SEED_TOOL, persona="an operations manager", goal="keep watch",
        distractors=DistractorSet(
            seed=SEED_TOOL, members=(("fn_2231_logistics_order_tracking", 0.5),)),
        pool=[SEED_TOOL, "fn_2231_logistics_order_tracking"],
        gold_args=gold_args if gold_args is not None else {"nodeId": 1,
                                                           "transportRequestId": 2},
        rng_seed=rng_seed)


# ---------------------------------------------------------------------------
# voting primitives


def test_pool_votes_mode():
    # votes 2,1,2 in one-based terms are 1,0,1 zero-based: candidate 2 wins
    assert pool_votes([1, 0, 1]) == 1


def test_pool_votes_tie_breaks_to_lowest_index():
    assert pool_votes([2, 0]) == 0
    assert pool_votes([1, 2]) == 1
    assert pool_votes([0, 1, 2]) == 0


def test_invert_vote_definition():
    perm = [2, 0, 1]  # position 1 shows candidate 2, etc.
    assert invert_vote(perm, 1) == 2
    assert invert_vote(perm, 2) == 0
    assert invert_vote(perm, 3) == 1


def test_invert_vote_range_check():
    with pytest.raises(IndexError):
        invert_vote([0, 1], 3)


@given(st.integers(min_value=1, max_value=8), st.integers())
@settings(max_examples=100, deadline=None)
def test_permutation_inversion_round_trip(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    for orig in range(n):
        position = perm.index(orig) + 1
        assert invert_vote(perm, position) == orig


# ---------------------------------------------------------------------------
# vote_utterance with scripted generator and voters


def voting_fixture(world, candidates, desired_original=None, n=3, m=3,
                   rng_seed=777, bad_votes=None):
    """Scripted generator + voters. When desired_original is given, every
    voter picks the position of that candidate in its own permutation."""
    scn = eval_scenario()
    transcript = Transcript()
    gen_req = user_request(
        user_system_prompt(scn, world.cat), [],
        split_seed(rng_seed, "gen:0"))
    transcript.register(gen_req, candidates, "m-gen")
    voter_transcript = Transcript()
    for j in range(m):
        perm, req = voter_request(scn, [], candidates, rng_seed, j)
        if bad_votes is not None:
            reply = bad_votes[j]
        else:
            reply = str(perm.index(desired_original) + 1)
        voter_transcript.register(req, reply, "m-voter")
    vcfg = VotingConfig(
        generator=scripted_backend("m-gen", transcript),
        voter=scripted_backend("m-voter", voter_transcript),
        n_samples=n, m_voters=m, rng_seed=rng_seed)
    return scn, vcfg


def test_unanimous_voters_select_candidate_three(world):
    candidates = ["first option", "second option", "third option"]
    scn, vcfg = voting_fixture(world, candidates, desired_original=2)
    assert vote_utterance(scn, user_system_prompt(scn, world.cat), [], vcfg) == "third option"


def test_n_equals_one_skips_voters(world):
    scn = eval_scenario()
    transcript = Transcript()
    gen_req = user_request(
        user_system_prompt(scn, world.cat), [],
        split_seed(9, "gen:0"))
    transcript.register(gen_req, ["the only one"], "m-gen")
    vcfg = VotingConfig(
        generator=scripted_backend("m-gen", transcript),
        voter=scripted_backend("m-voter", Transcript()),  # would raise if used
        n_samples=1, m_voters=3, rng_seed=9)
    assert vote_utterance(scn, user_system_prompt(scn, world.cat), [], vcfg) == "the only one"


def test_out_of_range_votes_discarded_with_fallback(world, caplog):
    candidates = ["first option", "second option", "third option"]
    scn, vcfg = voting_fixture(world, candidates, bad_votes=["9", "zero", ""])
    with caplog.at_level(logging.WARNING):
        chosen = vote_utterance(scn, user_system_prompt(scn, world.cat), [], vcfg)
    assert chosen == "first option"
    assert any("discarded" in rec.message for rec in caplog.records)


def test_vote_past_the_digit_limit_is_discarded(world):
    """A vote too long for int() is discarded like an out-of-range one."""
    candidates = ["first option", "second option", "third option"]
    scn, vcfg = voting_fixture(world, candidates,
                               bad_votes=["9" * 5000, "placeholder", "0" * 4999 + "1"])
    perm1, req = voter_request(scn, [], candidates, 777, 1)
    vcfg.voter.transcript.register(req, str(perm1.index(2) + 1), "m-voter")
    assert vote_utterance(scn, user_system_prompt(scn, world.cat), [], vcfg) == "third option"


def test_partial_votes_still_pool(world):
    candidates = ["first option", "second option", "third option"]
    # voters 0 and 2 invalid, voter 1 picks original candidate 2
    scn, vcfg = voting_fixture(world, candidates, bad_votes=["99", "placeholder", "oops"])
    # rebuild voter 1's reply to point at candidate index 2
    perm1, req = voter_request(scn, [], candidates, 777, 1)
    vcfg.voter.transcript.register(req, str(perm1.index(2) + 1), "m-voter")
    assert vote_utterance(scn, user_system_prompt(scn, world.cat), [], vcfg) == "third option"


def test_remote_voters_overlap_and_pool_in_voter_order(world, loopback):
    candidates = ["first option", "second option", "third option"]
    scn, vcfg = voting_fixture(world, candidates, bad_votes=["1", "2", "3"])
    expected = vote_utterance(scn, user_system_prompt(scn, world.cat), [], vcfg)
    delays = {fingerprint("m-voter", voter_request(scn, [], candidates, 777, j)[1]):
              0.4 - 0.1 * j for j in range(3)}  # voter 0 is answered last
    endpoint, _ = loopback(transcript_responder(vcfg.voter.transcript, delays))
    remote = dataclasses.replace(vcfg, voter=remote_backend("m-voter", endpoint))
    start = time.perf_counter()
    assert vote_utterance(scn, user_system_prompt(scn, world.cat), [], remote) == expected
    assert time.perf_counter() - start < 2 * max(delays.values())


def test_scripted_voting_starts_no_thread(world, no_thread_pool):
    candidates = ["first option", "second option", "third option"]
    scn, vcfg = voting_fixture(world, candidates, desired_original=2)
    assert vote_utterance(scn, user_system_prompt(scn, world.cat), [], vcfg) == "third option"


def test_voting_matches_naive_enumerator_bulk():
    from oracles import naive_vote_winner

    rng = random.Random(31337)
    for _ in range(2000):
        n, m = 3, 3
        perms = []
        positions = []
        for _ in range(m):
            perm = list(range(n))
            rng.shuffle(perm)
            perms.append(perm)
            positions.append(rng.choice([None, 1, 2, 3]))
        votes = []
        for perm, pos in zip(perms, positions):
            if pos is None:
                continue
            votes.append(invert_vote(perm, pos))
        got = pool_votes(votes) if votes else 0
        assert got == naive_vote_winner(perms, positions, n)


# ---------------------------------------------------------------------------
# static evaluation


def test_static_replaying_gold_reproduces_gold(world):
    replies = [RAW_A1, RAW_A2_FILL, RAW_A3_CALL]
    cand = static_candidate(world, replies)
    task = EvalTask(scenario=world.scenario, gold_dialogue=world.expected_trace)
    trace = eval_static(task, cand, world.cat)
    assert [m.to_dict() for m in trace.messages] == \
        [m.to_dict() for m in world.expected_trace.messages]
    assert trace.terminated_by == "tool_call"


def test_static_keeps_gold_user_turns_intact(world):
    bad_call = '<think>jump early</think> [{"name": "fn_2231_logistics_order_tracking", "args": {"orderId": "x"}}]'
    replies = [bad_call, bad_call, bad_call]
    cand = static_candidate(world, replies)
    task = EvalTask(scenario=world.scenario, gold_dialogue=world.expected_trace)
    trace = eval_static(task, cand, world.cat)
    gold_users = [u.text for u, _ in world.expected_trace.turns()]
    got_users = [m.text for m in trace.messages if isinstance(m, UserTurn)]
    assert got_users == gold_users


def test_static_distractor_call_scores_ftr(world):
    bad_call = ('<think>call now</think> '
                '[{"name": "fn_2231_logistics_order_tracking", "args": {"orderId": "x"}}]')
    replies = [bad_call, bad_call, bad_call]
    cand = static_candidate(world, replies)
    task = EvalTask(scenario=world.scenario, gold_dialogue=world.expected_trace)
    trace = eval_static(task, cand, world.cat)
    rec = extract_call(trace)
    assert rec.t_dagger == 1
    assert rec.tnames == {"fn_2231_logistics_order_tracking"}


def test_static_malformed_output_marks_turn_and_continues(world):
    replies = ["no think markers at all", RAW_A2_FILL, RAW_A3_CALL]
    cand = static_candidate(world, replies)
    task = EvalTask(scenario=world.scenario, gold_dialogue=world.expected_trace)
    trace = eval_static(task, cand, world.cat)
    first = trace.messages[1]
    assert first.malformed
    assert trace.pair_count() == 3
    assert trace.messages[-1].tool_calls is not None


# ---------------------------------------------------------------------------
# dynamic evaluation


def dynamic_fixture(world, assistant_replies, t_max=4, rng_seed=888):
    """n=1 sampling (no voters): scripted generator utterances plus
    scripted assistant replies, built step by step."""
    from forge.engine import parse_assistant_output

    scn = eval_scenario(rng_seed=rng_seed)
    gen_t = Transcript()
    asst_t = Transcript()
    sys_u = user_system_prompt(scn, world.cat)
    sys_a = selection_system_prompt(world.cat, scn.pool)
    messages = []
    for t, (utterance, reply) in enumerate(assistant_replies, start=1):
        gen_req = user_request(sys_u, messages,
                               split_seed(rng_seed, f"gen:{len(messages)}"))
        gen_t.register(gen_req, [utterance], "m-gen")
        messages.append(UserTurn(utterance))
        asst_req = assistant_request(sys_a, messages,
                                     split_seed(scn.rng_seed, f"dyn:asst:{t}"))
        asst_t.register(asst_req, reply, "m-cand")
        try:
            messages.append(parse_assistant_output(reply))
        except Exception:
            messages.append(AssistantTurn(thought=None, raw=reply))
    vcfg = VotingConfig(generator=scripted_backend("m-gen", gen_t),
                        voter=scripted_backend("m-voter", Transcript()),
                        n_samples=1, m_voters=1, rng_seed=rng_seed)
    return scn, scripted_backend("m-cand", asst_t), vcfg


GOLD_CALL = ('<think>done</think> [{"name": "' + SEED_TOOL +
             '", "args": {"nodeId": 1, "transportRequestId": 2}}]')
ASKING = "<think>need more</think> Which node is this about?"


def test_dynamic_terminates_on_tool_call(world):
    steps = [("I need to check transports.", ASKING),
             ("Node 1, request 2.", GOLD_CALL)]
    scn, cand, vcfg = dynamic_fixture(world, steps)
    trace = eval_dynamic(scn, cand, world.cat, vcfg, 4)
    assert trace.pair_count() == 2
    assert trace.terminated_by == "tool_call"


def test_user_prompt_rendered_once_per_rollout(world, monkeypatch):
    renders = []

    def counting(scn, cat, cfg=None):
        renders.append(scn.scenario_id)
        return user_system_prompt(scn, cat)

    steps = [(f"utterance {i}", ASKING) for i in range(3)]
    scn, cand, vcfg = dynamic_fixture(world, steps, rng_seed=890)
    monkeypatch.setattr(harness, "user_system_prompt", counting)
    trace = eval_dynamic(scn, cand, world.cat, vcfg, 3)
    assert trace.pair_count() == 3
    assert renders == [scn.scenario_id]


def test_dynamic_call_at_turn_cap_is_tool_call(world):
    steps = [("utterance 1", ASKING), ("utterance 2", ASKING), ("Node 1, request 2.", GOLD_CALL)]
    scn, cand, vcfg = dynamic_fixture(world, steps, rng_seed=892)
    trace = eval_dynamic(scn, cand, world.cat, vcfg, 3)
    assert trace.pair_count() == 3
    assert trace.terminated_by == "tool_call"


def test_dynamic_never_calling_assistant_hits_cap(world):
    steps = [(f"utterance {i}", ASKING) for i in range(3)]
    scn, cand, vcfg = dynamic_fixture(world, steps, rng_seed=889)
    trace = eval_dynamic(scn, cand, world.cat, vcfg, 3)
    assert trace.pair_count() == 3
    assert trace.terminated_by == "turn_cap"


def test_benchmark_dynamic_turn_cap_is_engine_t_max(world):
    steps = [(f"utterance {i}", ASKING) for i in range(2)]
    scn, cand, vcfg = dynamic_fixture(world, steps, rng_seed=891)
    traces = []
    run_benchmark([EvalTask(scenario=scn)], cand, world.cat, vcfg, None,
                  EngineConfig(t_max=2), concurrency=1, on_trace=traces.append)
    assert traces[0].pair_count() == 2
    assert traces[0].terminated_by == "turn_cap"


def test_dynamic_empty_reply_is_a_malformed_turn(world):
    """An empty candidate reply is kept as a malformed turn and the rollout
    goes on: the proxy is shown ``EMPTY_REPLY`` for it."""
    steps = [("I need to check transports.", ""), ("Node 1, request 2.", GOLD_CALL)]
    scn, cand, vcfg = dynamic_fixture(world, steps, rng_seed=893)
    traces = []
    report, failed = run_benchmark([EvalTask(scenario=scn)], cand, world.cat,
                                   vcfg, None, EngineConfig(t_max=4), concurrency=1,
                                   on_trace=traces.append)
    [trace] = traces
    assert failed == [] and trace.pair_count() == 2
    assert trace.messages[1].malformed and trace.messages[1].raw == ""
    assert trace.terminated_by == "tool_call" and report.per_dialogue[0]["acc"] == 1


def test_blank_winning_candidate_costs_one_task(world):
    """A blank candidate that wins the vote costs its task, not the run."""
    scn, vcfg = voting_fixture(world, ["", "second option", "third option"],
                               desired_original=0)
    traces = []
    report, failed = run_benchmark([EvalTask(scenario=scn)],
                                   scripted_backend("m-cand", Transcript()),
                                   world.cat, vcfg, None, EngineConfig(), concurrency=1,
                                   on_trace=traces.append)
    assert report is None and traces == []
    assert failed == [{"dialogue_id": f"{scn.scenario_id}#dynamic",
                       "error": "user proxy reply is blank"}]


def test_dynamic_is_deterministic(world):
    steps = [("I need to check transports.", ASKING),
             ("Node 1, request 2.", GOLD_CALL)]
    scn, cand, vcfg = dynamic_fixture(world, steps, rng_seed=890)
    t1 = eval_dynamic(scn, cand, world.cat, vcfg, 4)
    t2 = eval_dynamic(scn, cand, world.cat, vcfg, 4)
    assert t1.to_dict() == t2.to_dict()


# ---------------------------------------------------------------------------
# run_benchmark


def test_perfect_assistant_benchmark(world):
    tasks = []
    backends = []
    for i in range(3):
        scn = eval_scenario(rng_seed=1000 + i)
        gold = _tiny_gold(scn)
        tasks.append(EvalTask(scenario=scn, gold_dialogue=gold))
        backends.append((scn, gold))
    cand = _static_multi_candidate(world, backends, reply_for=lambda scn: GOLD_CALL)
    traces = []
    report, _ = run_benchmark(tasks, cand, world.cat, None, None, world.ecfg,
                              concurrency=1, on_trace=traces.append)
    assert report.acc == 1.0
    assert report.ftr == 0.0
    assert report.tar == 0.0
    assert len(traces) == 3


def _tiny_gold(scn):
    from conftest import simple_trace

    return simple_trace(dialogue_id=f"{scn.scenario_id}#gold",
                        scenario_ref=scn.scenario_id, pairs=1,
                        calls=[(scn.seed_tool, dict(scn.gold_args))])


def _static_multi_candidate(world, scenario_golds, reply_for):
    transcript = Transcript()
    for scn, gold in scenario_golds:
        sys_a = selection_system_prompt(world.cat, scn.pool)
        messages = [UserTurn(gold.turns()[0][0].text)]
        req = assistant_request(sys_a, messages,
                                split_seed(scn.rng_seed, "static:asst:1"))
        transcript.register(req, reply_for(scn), "m-cand")
    return scripted_backend("m-cand", transcript)


def test_mixed_benchmark_hand_computed(world):
    distractor_call = ('<think>x</think> '
                       '[{"name": "fn_2231_logistics_order_tracking", "args": {"orderId": "n"}}]')
    abstain = "<think>x</think> Could you say more?"
    replies = {1000: GOLD_CALL, 1001: distractor_call, 1002: abstain}
    tasks, backends = [], []
    for i in range(3):
        scn = eval_scenario(rng_seed=1000 + i)
        gold = _tiny_gold(scn)
        tasks.append(EvalTask(scenario=scn, gold_dialogue=gold))
        backends.append((scn, gold))
    cand = _static_multi_candidate(world, backends,
                                   reply_for=lambda scn: replies[scn.rng_seed])
    report, _ = run_benchmark(tasks, cand, world.cat, None, None, world.ecfg, concurrency=1)
    assert report.acc == pytest.approx(1 / 3)
    assert report.ftr == pytest.approx(1 / 3)
    assert report.tar == pytest.approx(1 / 3)
    assert report.tcp == pytest.approx(1 / 2)  # 1 aligned name over 2 predicted
    assert report.tcr == pytest.approx(1 / 3)  # over 3 references


def test_task_without_gold_requires_voting_config(world):
    with pytest.raises(ValueError, match="voting config"):
        run_benchmark([EvalTask(scenario=eval_scenario())], scripted_backend("x", Transcript()),
                      world.cat, None, None, world.ecfg, concurrency=1)


def test_empty_task_list_rejected(world):
    with pytest.raises(ValueError, match="empty corpus"):
        run_benchmark([], scripted_backend("x", Transcript()), world.cat,
                      None, None, world.ecfg, concurrency=1)


def test_exclusions_drop_from_scoring_but_not_traces(world):
    tasks, backends = [], []
    for i in range(2):
        scn = eval_scenario(rng_seed=1000 + i)
        gold = _tiny_gold(scn)
        tasks.append(EvalTask(scenario=scn, gold_dialogue=gold))
        backends.append((scn, gold))
    cand = _static_multi_candidate(world, backends, reply_for=lambda scn: GOLD_CALL)
    excluded_id = tasks[0].scenario.scenario_id
    traces = []
    report, _ = run_benchmark(tasks, cand, world.cat, None, None, world.ecfg,
                              concurrency=1, exclusions={excluded_id}, on_trace=traces.append)
    assert len(traces) == 2
    assert len(report.per_dialogue) == 1


def test_scripted_judge_grades_inline_and_skips_exclusions(world, no_thread_pool):
    """With every backend scripted, grading runs inline after each rollout;
    an excluded task's trace is kept and never sent to the judge."""
    tasks, backends = [], []
    for i in range(3):
        scn = eval_scenario(rng_seed=3000 + i)
        gold = _tiny_gold(scn)
        tasks.append(EvalTask(scenario=scn, gold_dialogue=gold))
        backends.append((scn, gold))
    cand = _static_multi_candidate(world, backends, reply_for=lambda scn: GOLD_CALL)
    grades, looked_up = Transcript(), []
    for task, grade in zip(tasks, "23"):
        grades.register(rubric_request(eval_static(task, cand, world.cat), 1), grade, "m-rubric")
    grades.lookup = lambda fp, n: looked_up.append(fp) or Transcript.lookup(grades, fp, n)
    traces = []
    report, _ = run_benchmark(tasks, cand, world.cat, None,
                              scripted_backend("m-rubric", grades), world.ecfg, concurrency=1,
                              exclusions={tasks[2].scenario.scenario_id},
                              on_trace=traces.append)
    assert len(traces) == 3 and len(looked_up) == 2
    assert [row["conv_rel"] for row in report.per_dialogue] == [0.5, 1.0]
    assert report.conv_rel == 0.75


def test_concurrent_benchmark_matches_serial(world):
    tasks, backends = [], []
    for i in range(4):
        scn = eval_scenario(rng_seed=2000 + i)
        gold = _tiny_gold(scn)
        tasks.append(EvalTask(scenario=scn, gold_dialogue=gold))
        backends.append((scn, gold))
    cand = _static_multi_candidate(world, backends, reply_for=lambda scn: GOLD_CALL)
    traces1, traces4 = [], []
    report1, _ = run_benchmark(tasks, cand, world.cat, None, None, world.ecfg,
                               concurrency=1, on_trace=traces1.append)
    report4, _ = run_benchmark(tasks, cand, world.cat, None, None, world.ecfg,
                               concurrency=4, on_trace=traces4.append)
    assert [t.to_dict() for t in traces1] == [t.to_dict() for t in traces4]
    assert report1.to_dict() == report4.to_dict()
