import copy
import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from forge.engine import (
    AssistantTurn,
    DialogueTrace,
    ToolCall,
    UserTurn,
    assistant_request,
    parse_assistant_output,
    selection_system_prompt,
    serialize_assistant_turn,
)
from forge.export import compute_stats, export, slice_dialogue

from conftest import build_replay_world, paired, simple_trace

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


def test_streamed_export_hashes_the_written_file(tmp_path):
    world = build_replay_world()
    sys_prompt = selection_system_prompt(world.cat, world.scenario.pool)
    traces = [world.expected_trace, *world.extra_traces.values()]
    samples = [s for d in traces for s in slice_dialogue(d, sys_prompt)]
    manifest = export((s for s in samples), tmp_path / "samples.jsonl")
    written = (tmp_path / "samples.jsonl").read_bytes()
    # the whole-payload construction the streamed writer replaces
    reference = ("\n".join(json.dumps(s.to_dict(), ensure_ascii=False) for s in samples)
                 + "\n").encode("utf-8")
    assert written == reference
    assert manifest["sha256"] == hashlib.sha256(written).hexdigest()
    assert manifest["sample_count"] == len(samples)
    assert manifest["dialogue_count"] == len(traces)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.jsonl"]


# texts that need escaping: quote, backslash, control characters, U+2028,
# non-ASCII and non-BMP characters
_text = st.text(alphabet=st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u00e9\U0001f600')
                | st.characters(codec="utf-8"), max_size=8)


@st.composite
def _assistant_turns(draw):
    thought = draw(_text)
    if draw(st.booleans()):
        return AssistantTurn(thought=thought, content=draw(_text))
    return AssistantTurn(thought=thought,
                         tool_calls=[ToolCall(draw(_text), {draw(_text): draw(_text)})])


@st.composite
def _corpora(draw):
    """(system prompt, traces): 2-4 dialogues of 1-5 pairs on one system
    prompt, each opening with the user turn the one before it opened with;
    ids alternate, so a third dialogue reuses the first one's id."""
    sys_prompt, opening = draw(_text), "u" + draw(_text)
    ids = [f"d0{draw(_text)}", f"d1{draw(_text)}"]
    traces = []
    for i in range(draw(st.integers(2, 4))):
        messages = []
        for t in range(draw(st.integers(1, 5))):
            messages.append(UserTurn(opening if t == 0 else "u" + draw(_text)))
            messages.append(draw(_assistant_turns()))
        traces.append(DialogueTrace(dialogue_id=ids[i % 2], scenario_ref="s", messages=messages))
    return sys_prompt, traces


@settings(deadline=None)
@given(_corpora(), st.data())
def test_export_lines_are_json_dumps_of_each_sample(corpus, data):
    """Every line is ``json.dumps(s.to_dict(), ensure_ascii=False)``, whatever
    the texts hold and however dialogues share messages and ids, and the
    manifest hashes exactly those bytes. A lone surrogate, which UTF-8
    cannot encode, fails the export and leaves no file behind."""
    sys_prompt, traces = corpus
    samples = [s for d in traces for s in slice_dialogue(d, sys_prompt)]
    expected = b"".join((json.dumps(s.to_dict(), ensure_ascii=False) + "\n").encode("utf-8")
                        for s in samples)
    bad = copy.deepcopy(samples)
    sample = data.draw(st.sampled_from(bad))
    data.draw(st.sampled_from(sample.messages))["content"] += "\ud800"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.jsonl"
        manifest = export(iter(samples), path)
        assert path.read_bytes() == expected
        assert manifest["sha256"] == hashlib.sha256(expected).hexdigest()
        assert (manifest["sample_count"], manifest["dialogue_count"]) == (
            len(samples), len({d.dialogue_id for d in traces}))
        path.unlink()
        with pytest.raises(UnicodeEncodeError):
            export(iter(bad), path)
        assert list(Path(tmp).iterdir()) == []


def test_empty_export_writes_an_empty_file(tmp_path):
    manifest = export(iter(()), tmp_path / "samples.jsonl")
    assert (tmp_path / "samples.jsonl").read_bytes() == b""
    assert manifest["sha256"] == hashlib.sha256(b"").hexdigest()
    assert (manifest["sample_count"], manifest["dialogue_count"]) == (0, 0)


# ---------------------------------------------------------------------------
# corpus stats


def test_boundary_arithmetic():
    trace = simple_trace(pairs=3, calls=[("t", {})], phase_boundary=2)
    stats = compute_stats([(trace, 2)])
    assert stats.turns == {3: 1}
    assert stats.params == {2: 1}
    assert stats.disamb_turns == {2: 1}
    assert stats.paramfill_turns == {1: 1}


def test_param_free_dialogue_hits_zero_fill_bucket():
    trace = simple_trace(pairs=2, calls=[("t", {})], phase_boundary=2)
    stats = compute_stats([(trace, 0)])
    assert stats.paramfill_turns == {0: 1}
    assert stats.params == {0: 1}


def test_empty_corpus_all_zero():
    stats = compute_stats([])
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
    stats = compute_stats(paired(traces, counts))
    for hist in (stats.turns, stats.params, stats.disamb_turns, stats.paramfill_turns):
        assert sum(hist.values()) == 40


def test_stats_reject_missing_boundary():
    trace = simple_trace(pairs=2, calls=[("t", {})])
    with pytest.raises(ValueError, match="phase boundary"):
        compute_stats([(trace, 1)])


def test_stats_csv_shape():
    trace = simple_trace(pairs=3, calls=[("t", {})], phase_boundary=2)
    stats = compute_stats([(trace, 2)])
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
    stats = compute_stats([(d, 2) for d in traces])
    d = stats.to_dict()
    assert list(d["turns"]) == ["1", "3"]
    assert d["corpus_size"] == 2
