import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from forge.engine import AssistantTurn, DialogueTrace, ToolCall, UserTurn
from forge.gateway import Transcript, fingerprint
from forge.metrics import (
    CallRecord,
    Reference,
    conv_relevancy,
    corpus_prf,
    dialogue_indicators,
    extract_call,
    grade_corpus,
    lexical_metrics,
    rubric_request,
    score_corpus,
    tokenize,
)

from conftest import (
    paired,
    remote_backend,
    scripted_backend,
    simple_trace,
    transcript_responder,
)
from oracles import naive_metrics, naive_ngd, random_corpus

REF = Reference(gold_tool="gold", gold_args={"a": 1, "b": 2})


def record(names_args: list[tuple[str, dict]], t=1) -> CallRecord:
    args = {}
    for name, a in names_args:
        args.setdefault(name, a)
    return CallRecord(tnames=frozenset(n for n, _ in names_args),
                      args_by_tool=args, t_dagger=t)


EMPTY = CallRecord(tnames=frozenset(), args_by_tool={}, t_dagger=None)


# ---------------------------------------------------------------------------
# call extraction


def test_extract_first_call_only():
    t = simple_trace(pairs=4, calls=[("x", {"k": 1})], call_at=2)
    rec = extract_call(t)
    assert rec.t_dagger == 2
    assert rec.tnames == {"x"}


def test_extract_min_over_multiple_calls():
    trace = simple_trace(pairs=4, calls=[("early", {})], call_at=2)
    trace.messages[7] = AssistantTurn(thought="t", tool_calls=[ToolCall("late", {})])
    rec = extract_call(trace)
    assert rec.tnames == {"early"}
    assert rec.t_dagger == 2


def test_extract_no_call_is_empty():
    rec = extract_call(simple_trace(pairs=2))
    assert rec.is_empty and rec.t_dagger is None


def test_extract_multi_tool_turn():
    t = simple_trace(pairs=1, calls=[("a", {"x": 1}), ("b", {"y": 2})])
    rec = extract_call(t)
    assert rec.tnames == {"a", "b"}
    assert rec.keys() == {"x", "y"}


def test_malformed_turns_are_abstentions():
    trace = DialogueTrace(dialogue_id="d", scenario_ref="s", messages=[
        UserTurn("u"), AssistantTurn(thought=None, raw="garbled output"),
    ])
    assert extract_call(trace).is_empty


# ---------------------------------------------------------------------------
# dialogue indicators


def test_exact_call_indicators():
    rec = record([("gold", {"a": 1, "b": 2})])
    assert dialogue_indicators(rec, REF) == (1, 0, 0)


def test_gold_plus_distractor_counts_one_superfluous():
    rec = record([("gold", {"a": 1, "b": 2}), ("distractor", {})])
    # acc fails on the set mismatch; exactly one superfluous invocation
    assert dialogue_indicators(rec, REF) == (0, 1, 0)


def test_abstention_indicators():
    assert dialogue_indicators(EMPTY, REF) == (0, 0, 1)


def test_wrong_args_fail_acc():
    rec = record([("gold", {"a": 1})])
    assert dialogue_indicators(rec, REF)[0] == 0
    rec = record([("gold", {"a": 1, "b": 2, "c": 3})])
    assert dialogue_indicators(rec, REF)[0] == 0


def test_canonical_values_pass_acc():
    rec = record([("gold", {"a": "1", "b": "2"})])
    assert dialogue_indicators(rec, REF) == (1, 0, 0)


def test_two_distractors_count_two():
    rec = record([("d1", {}), ("d2", {})])
    assert dialogue_indicators(rec, REF) == (0, 2, 0)


def test_acc_implies_no_ftr_property():
    rng = random.Random(4)
    for _ in range(300):
        traces, refs = random_corpus(rng, max_dialogues=5)
        for t in traces:
            gold_tool, gold_args = refs[t["scenario_ref"]]
            trace = DialogueTrace.from_dict(t)
            acc, ftr, tar = dialogue_indicators(
                extract_call(trace), Reference(gold_tool, gold_args))
            assert acc + tar <= 1
            if acc == 1:
                assert ftr == 0


# ---------------------------------------------------------------------------
# corpus precision / recall


def test_tcp_tcr_two_dialogue_fixture():
    """d1 exact gold call, d2 distractor call: M={d1}; both denominators 2."""
    pairs = [
        (record([("gold", {"a": 1, "b": 2})]), REF),
        (record([("distractor", {"a": 1})]), REF),
    ]
    tcp, tcr, pkp, pkr = corpus_prf(pairs)
    assert tcp == 0.5
    assert tcr == 0.5


def test_pkp_extra_key_fixture():
    """Gold call with both gold keys plus one extra: PKP=2/3, PKR=2/2."""
    pairs = [(record([("gold", {"a": 1, "b": 2, "extra": 9})]), REF)]
    tcp, tcr, pkp, pkr = corpus_prf(pairs)
    assert pkp == pytest.approx(2 / 3)
    assert pkr == 1.0


def test_perfect_corpus_all_ones():
    pairs = [(record([("gold", {"a": 1, "b": 2})]), REF) for _ in range(4)]
    assert corpus_prf(pairs) == (1.0, 1.0, 1.0, 1.0)


def test_all_abstaining_corpus_has_undefined_precision():
    pairs = [(EMPTY, REF), (EMPTY, REF)]
    tcp, tcr, pkp, pkr = corpus_prf(pairs)
    assert tcp is None and pkp is None
    assert tcr == 0.0 and pkr == 0.0


def test_param_free_references_leave_pkr_undefined():
    ref = Reference(gold_tool="gold", gold_args={})
    pairs = [(record([("gold", {})]), ref)]
    tcp, tcr, pkp, pkr = corpus_prf(pairs)
    assert tcp == 1.0 and tcr == 1.0
    assert pkp is None and pkr is None


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        corpus_prf([])


def test_single_tool_predictions_make_tcp_equal_tcr():
    rng = random.Random(11)
    for _ in range(50):
        traces, refs = random_corpus(rng, max_dialogues=10)
        pairs = []
        for t in traces:
            rec = extract_call(DialogueTrace.from_dict(t))
            if len(rec.tnames) > 1 or rec.is_empty:
                continue
            gold_tool, gold_args = refs[t["scenario_ref"]]
            pairs.append((rec, Reference(gold_tool, gold_args)))
        if not pairs:
            continue
        tcp, tcr, _, _ = corpus_prf(pairs)
        assert tcp == tcr  # one prediction per reference, one name each


# ---------------------------------------------------------------------------
# oracle equivalence


def test_metrics_match_naive_oracle_on_random_corpora():
    rng = random.Random(20250809)
    for _ in range(30):
        trace_dicts, raw_refs = random_corpus(rng)
        traces = [DialogueTrace.from_dict(d) for d in trace_dicts]
        refs = {sid: Reference(g, a) for sid, (g, a) in raw_refs.items()}
        report = score_corpus(paired(traces, refs))
        expected = naive_metrics(trace_dicts, raw_refs)
        for key in ("acc", "ftr", "tar", "tcp", "tcr", "pkp", "pkr"):
            got = getattr(report, key)
            want = expected[key]
            if want is None:
                assert got is None, key
            else:
                assert got == pytest.approx(want, abs=1e-12), key


# ---------------------------------------------------------------------------
# conversation relevancy


def grades_backend(trace, grades):
    t = Transcript()
    for turn_idx, grade in enumerate(grades, start=1):
        t.register(rubric_request(trace, turn_idx), str(grade), "m-rubric")
    return scripted_backend("m-rubric", t)


def test_conv_rel_mixed_grades():
    trace = simple_trace(pairs=2)
    judge = grades_backend(trace, [3, 2])
    assert conv_relevancy(trace, judge) == 0.75


def test_conv_rel_all_top_grades():
    trace = simple_trace(pairs=3)
    judge = grades_backend(trace, [3, 3, 3])
    assert conv_relevancy(trace, judge) == 1.0


def test_conv_rel_all_bottom_grades():
    trace = simple_trace(pairs=3)
    judge = grades_backend(trace, [1, 1, 1])
    assert conv_relevancy(trace, judge) == 0.0


def test_remote_rubric_grades_overlap_and_keep_dialogue_order(loopback):
    traces = [simple_trace(dialogue_id=f"d{i}", scenario_ref=f"s{i}", pairs=1)
              for i in range(3)]
    refs = {f"s{i}": REF for i in range(3)}
    transcript, delays = Transcript(), {}
    for i, trace in enumerate(traces):
        req = rubric_request(trace, 1)
        transcript.register(req, str(i + 1), "m-rubric")
        delays[fingerprint("m-rubric", req)] = 0.4 - 0.1 * i  # d0 is graded last
    endpoint, _ = loopback(transcript_responder(transcript, delays))
    start = time.perf_counter()
    report = score_corpus(paired(traces, refs),
                          grade_corpus(traces, remote_backend("m-rubric", endpoint)))
    elapsed = time.perf_counter() - start
    assert [row["conv_rel"] for row in report.per_dialogue] == [0.0, 0.5, 1.0]
    scripted = score_corpus(paired(traces, refs),
                            grade_corpus(traces, scripted_backend("m-rubric", transcript)))
    assert report.to_dict() == scripted.to_dict()
    assert elapsed < 2 * max(delays.values())


def test_scripted_rubric_grading_starts_no_thread(no_thread_pool):
    trace = simple_trace(pairs=2)
    judge = grades_backend(trace, [3, 2])
    assert score_corpus([(trace, REF)], grade_corpus([trace], judge)).conv_rel == 0.75


def test_rubric_prompt_excludes_thoughts():
    trace = simple_trace(pairs=2)
    req = rubric_request(trace, 2)
    prompt = req.messages[0].content
    assert "assistant reply 1" in prompt  # prior public reply in history
    assert "thought 1" not in prompt
    assert "thought 2" not in prompt


# ---------------------------------------------------------------------------
# lexical metrics


def test_ttr_direct_count():
    trace = simple_trace(pairs=1, contents=["the tool the tool"])
    ttr, _ = lexical_metrics([trace])
    assert ttr == 0.5


def test_ngd2_fixture():
    trace = simple_trace(pairs=1, contents=["a b a b"])
    _, ngd = lexical_metrics([trace])
    assert ngd[2] == pytest.approx(2 / 3)


def test_all_distinct_tokens_ttr_one():
    trace = simple_trace(pairs=1, contents=["one two three four five six seven eight nine ten"])
    ttr, _ = lexical_metrics([trace])
    assert ttr == 1.0


def test_short_corpus_leaves_large_ngrams_undefined():
    trace = simple_trace(pairs=1, contents=["only three words"])
    ttr, ngd = lexical_metrics([trace])
    assert ngd[3] is not None
    assert ngd[4] is None


def test_thoughts_and_call_payloads_excluded():
    trace = simple_trace(pairs=2, calls=[("zqxwv", {"kjhgf": "dsapo"})])
    ttr, _ = lexical_metrics([trace])
    tokens = tokenize("assistant reply 1")
    # only the first pair's content contributes; call payload tokens absent
    assert ttr == len(set(tokens)) / len(tokens)


def test_malformed_turn_counts_its_raw_text():
    trace = simple_trace(pairs=2, contents=["alpha beta", "unused"])
    trace.messages[3] = AssistantTurn(thought=None, raw="alpha gamma delta")
    ttr, ngd = lexical_metrics([trace])
    assert ttr == 4 / 5  # alpha beta | alpha gamma delta
    assert ngd[2] == 1.0


def test_lexical_invariant_under_reordering():
    traces = [simple_trace(dialogue_id=f"d{i}", contents=[f"alpha beta {i}", "gamma delta"],
                           pairs=2) for i in range(6)]
    forward = lexical_metrics(traces)
    backward = lexical_metrics(list(reversed(traces)))
    assert forward == backward


def test_ngrams_do_not_span_messages():
    t1 = simple_trace(pairs=2, contents=["aa bb", "cc dd"])
    _, ngd = lexical_metrics([t1])
    # bigrams: (aa,bb) and (cc,dd); never (bb,cc)
    assert ngd[2] == 1.0


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "B"]), max_size=6).map(" ".join),
                min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_ngd_matches_naive_oracle(texts):
    """Empty prose and messages shorter than n contribute no n-grams."""
    _, ngd = lexical_metrics([simple_trace(pairs=len(texts), contents=texts)])
    assert ngd == {n: naive_ngd(texts, n) for n in ngd}


# ---------------------------------------------------------------------------
# report assembly


def test_score_corpus_full_shape():
    traces = [
        simple_trace(dialogue_id="d1", scenario_ref="s1",
                     calls=[("gold", {"a": 1, "b": 2})]),
        simple_trace(dialogue_id="d2", scenario_ref="s2"),
    ]
    refs = {"s1": REF, "s2": REF}
    report = score_corpus(paired(traces, refs))
    assert report.acc == 0.5
    assert report.tar == 0.5
    assert report.ftr == 0.0
    assert len(report.per_dialogue) == 2
    assert report.per_dialogue[0]["t_dagger"] == 2
    d = report.to_dict()
    assert set(d["ngd"]) == {"2", "3", "4"}


def test_csv_row_marks_undefined():
    traces = [simple_trace(dialogue_id="d1", scenario_ref="s1")]
    report = score_corpus([(d, REF) for d in traces])
    csv = report.to_csv_row()
    assert "undefined" in csv
    assert csv.splitlines()[0].startswith("tcp,tcr,")


@given(st.lists(st.sampled_from(["exact", "abstain", "distractor"]),
                min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_acc_tar_are_means_of_indicators(cases):
    traces = []
    refs = {}
    for i, case in enumerate(cases):
        sid = f"s{i}"
        refs[sid] = Reference("gold", {"a": 1})
        if case == "exact":
            traces.append(simple_trace(dialogue_id=f"d{i}", scenario_ref=sid,
                                       calls=[("gold", {"a": 1})]))
        elif case == "distractor":
            traces.append(simple_trace(dialogue_id=f"d{i}", scenario_ref=sid,
                                       calls=[("bad", {"a": 1})]))
        else:
            traces.append(simple_trace(dialogue_id=f"d{i}", scenario_ref=sid))
    report = score_corpus(paired(traces, refs))
    n = len(cases)
    assert report.acc == cases.count("exact") / n
    assert report.tar == cases.count("abstain") / n
    assert report.ftr == cases.count("distractor") / n
