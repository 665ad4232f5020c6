import hashlib
import json
import random

import pytest

from forge.engine import (
    assistant_request,
    parse_assistant_output,
    selection_system_prompt,
    serialize_assistant_turn,
)
from forge.export import compute_stats, export, slice_dialogue

from conftest import build_replay_world, simple_trace

SYS = "system prompt under test"


def test_three_turn_dialogue_yields_three_samples():
    trace = simple_trace(pairs=3, calls=[("t", {"a": 1})])
    assert len(slice_dialogue(trace, SYS)) == 3


def test_replay_sample_final_target_is_the_call():
    w = build_replay_world()
    samples = slice_dialogue(w.expected_trace, SYS)
    assert len(samples) == 3
    target = samples[2].messages[-1]
    assert target["learn"] is True
    parsed = parse_assistant_output(target["content"])
    assert parsed.tool_calls is not None
    assert parsed.tool_calls[0].args == {"nodeId": 437292, "transportRequestId": 957841}


def test_sample_context_is_the_served_assistant_context():
    # train/serve parity: sample t trains on exactly the context the
    # assistant's request carries at turn t
    w = build_replay_world()
    sys_prompt = selection_system_prompt(w.cat, w.scenario.pool)
    messages = w.expected_trace.messages
    samples = slice_dialogue(w.expected_trace, sys_prompt)
    assert len(samples) == len(messages) // 2
    for t, sample in enumerate(samples, start=1):
        served = assistant_request(sys_prompt, messages[:2 * t - 1], 0).messages
        assert [(m["role"], m["content"]) for m in sample.messages[:-1]] == [
            (m.role, m.content) for m in served]
        assert not any(m["learn"] for m in sample.messages[:-1])


def test_sample_context_structure():
    trace = simple_trace(pairs=2, calls=[("t", {})])
    samples = slice_dialogue(trace, SYS)
    first = samples[0]
    roles = [m["role"] for m in first.messages]
    assert roles == ["system", "user", "assistant"]
    second = samples[1]
    roles = [m["role"] for m in second.messages]
    assert roles == ["system", "user", "assistant", "user", "assistant"]
    assert [m["learn"] for m in second.messages] == [False, False, False, False, True]


def test_exactly_one_learnable_message_per_sample():
    trace = simple_trace(pairs=4, calls=[("t", {})])
    for sample in slice_dialogue(trace, SYS):
        learnable = [m for m in sample.messages if m["learn"]]
        assert len(learnable) == 1
        assert learnable[0] is sample.messages[-1]
        assert sample.messages[-2]["role"] == "user"


def test_prefix_consistency():
    """Each sample's messages are a strict prefix of the next sample's."""
    trace = simple_trace(pairs=3, calls=[("t", {})])
    samples = slice_dialogue(trace, SYS)
    for earlier, later in zip(samples, samples[1:]):
        earlier_ctx = [(m["role"], m["content"]) for m in earlier.messages]
        later_ctx = [(m["role"], m["content"]) for m in later.messages]
        assert later_ctx[: len(earlier_ctx)] == earlier_ctx
        assert len(later_ctx) == len(earlier_ctx) + 2


def test_context_targets_reproduce_dialogue_serialization():
    w = build_replay_world()
    samples = slice_dialogue(w.expected_trace, SYS)
    last = samples[-1]
    rebuilt = []
    for m in last.messages[1:]:
        rebuilt.append(m["content"])
    expected = []
    for u, a in w.expected_trace.turns():
        expected.append(u.text)
        expected.append(serialize_assistant_turn(a))
    assert rebuilt == expected


def test_slice_count_law_on_random_dialogues():
    rng = random.Random(99)
    for _ in range(200):
        pairs = rng.randrange(1, 13)
        trace = simple_trace(pairs=pairs, calls=[("t", {"k": 1})])
        assert len(slice_dialogue(trace, SYS)) == pairs


# ---------------------------------------------------------------------------
# export files


def test_export_writes_one_line_per_sample(tmp_path):
    trace = simple_trace(pairs=3, calls=[("t", {})])
    samples = slice_dialogue(trace, SYS)
    manifest = export(samples, tmp_path / "samples.jsonl")
    lines = (tmp_path / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert manifest["sample_count"] == 3
    assert manifest["dialogue_count"] == 1
    assert manifest["training_executed"] is False
    assert manifest["reference_training_settings"]["lora_rank"] == 16
    assert manifest["reference_training_settings"]["lora_alpha"] == 16
    assert manifest["reference_training_settings"]["peak_learning_rate"] == 1e-4
    assert manifest["reference_training_settings"]["epochs"] == 1


def test_re_export_is_byte_identical(tmp_path):
    trace = simple_trace(pairs=2, calls=[("t", {})])
    samples = slice_dialogue(trace, SYS)
    m1 = export(samples, tmp_path / "a.jsonl")
    m2 = export(samples, tmp_path / "b.jsonl")
    b1 = (tmp_path / "a.jsonl").read_bytes()
    b2 = (tmp_path / "b.jsonl").read_bytes()
    assert b1 == b2
    assert m1["sha256"] == m2["sha256"]
    assert m1["sha256"] == hashlib.sha256(b1).hexdigest()


def test_export_round_trip_parses_back(tmp_path):
    trace = simple_trace(pairs=3, calls=[("t", {"a": "b"})])
    samples = slice_dialogue(trace, SYS)
    export(samples, tmp_path / "samples.jsonl")
    lines = (tmp_path / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [s.to_dict() for s in samples]


# ---------------------------------------------------------------------------
# corpus stats


def test_boundary_arithmetic():
    trace = simple_trace(pairs=3, calls=[("t", {})], phase_boundary=2)
    stats = compute_stats([trace], {"s1": 2})
    assert stats.turns == {3: 1}
    assert stats.params == {2: 1}
    assert stats.disamb_turns == {2: 1}
    assert stats.paramfill_turns == {1: 1}


def test_param_free_dialogue_hits_zero_fill_bucket():
    trace = simple_trace(pairs=2, calls=[("t", {})], phase_boundary=2)
    stats = compute_stats([trace], {"s1": 0})
    assert stats.paramfill_turns == {0: 1}
    assert stats.params == {0: 1}


def test_empty_corpus_all_zero():
    stats = compute_stats([], {})
    assert stats.corpus_size == 0
    assert stats.turns == {} and stats.paramfill_turns == {}


def test_histogram_mass_equals_corpus_size():
    rng = random.Random(5)
    traces, counts = [], {}
    for i in range(40):
        pairs = rng.randrange(1, 8)
        boundary = rng.randrange(1, pairs + 1)
        sid = f"s{i}"
        traces.append(simple_trace(dialogue_id=f"d{i}", scenario_ref=sid, pairs=pairs,
                                   calls=[("t", {})], phase_boundary=boundary))
        counts[sid] = rng.randrange(0, 5)
    stats = compute_stats(traces, counts)
    for hist in (stats.turns, stats.params, stats.disamb_turns, stats.paramfill_turns):
        assert sum(hist.values()) == 40


def test_stats_reject_missing_boundary():
    trace = simple_trace(pairs=2, calls=[("t", {})])
    with pytest.raises(ValueError, match="phase boundary"):
        compute_stats([trace], {"s1": 1})


def test_stats_csv_shape():
    trace = simple_trace(pairs=3, calls=[("t", {})], phase_boundary=2)
    stats = compute_stats([trace], {"s1": 2})
    lines = stats.to_csv().strip().splitlines()
    assert lines[0] == "histogram,bucket,count"
    assert "turns,3,1" in lines
    assert "paramfill_turns,1,1" in lines


def test_stats_dict_round_trip_keys_sorted():
    traces = [
        simple_trace(dialogue_id="a", scenario_ref="s1", pairs=3,
                     calls=[("t", {})], phase_boundary=1),
        simple_trace(dialogue_id="b", scenario_ref="s1", pairs=1,
                     calls=[("t", {})], phase_boundary=1),
    ]
    stats = compute_stats(traces, {"s1": 2})
    d = stats.to_dict()
    assert list(d["turns"]) == ["1", "3"]
    assert d["corpus_size"] == 2
