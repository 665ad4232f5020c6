import argparse
import gc
import json
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from forge import cli, engine, gateway, harness, retrieval, scenario
from forge.cli import load_pipeline_config, main
from forge.engine import (
    AssistantTurn,
    UserTurn,
    assistant_request,
    selection_system_prompt,
    user_request,
    user_system_prompt,
)
from forge.export import slice_dialogue
from forge.gateway import Transcript, fingerprint
from forge.harness import EvalTask, eval_static
from forge.metrics import rubric_request
from forge.scenario import Scenario, goal_request, sample_persona, slots_request
from forge.seeds import split_seed
from forge.validation import judge_requests

from conftest import (
    CATALOGUE_TOOLS,
    GOLD_ARGS,
    RAW_A1,
    RAW_A2_FILL,
    RAW_A3_CALL,
    RAW_LONG_INT_CALLS,
    RAW_NESTED_CALLS,
    RAW_U3,
    ROOT_SEED,
    SEED_TOOL,
    build_replay_world,
    chat,
    chat_reply,
    chat_request,
    child_env,
    json_encoder_garbage,
    static_candidate,
    transcript_responder,
)


@pytest.fixture
def world(tmp_path):
    return build_replay_world(tmp_path)


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# catalogue / distractors


def test_catalogue_lint_ok(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(CATALOGUE_TOOLS), encoding="utf-8")
    assert run(["catalogue", "lint", path]) == 0


def test_main_leaves_no_parser_as_cyclic_garbage(tmp_path):
    """``main`` builds its argument parser once per process, so calls do not
    leave a parser's reference cycles for the cyclic GC to find."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(CATALOGUE_TOOLS), encoding="utf-8")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert [run(["catalogue", "lint", path]) for _ in range(2)] == [0, 0]
        gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert parsers == []


def test_generate_leaves_no_json_encoder_garbage(world):
    """One in-process ``generate`` writes its indented texts (tool JSON,
    parameter values) through ``catalogue.dump_json``, so it leaves no
    closure cycle of json's pure-Python encoder for the cyclic GC."""
    codes = []
    garbage = json_encoder_garbage(lambda: codes.append(
        run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])))
    assert codes == [0]
    assert garbage == []


def test_main_runs_the_command_bound_at_call_time(tmp_path, monkeypatch):
    """The parser is built once, yet each call runs the ``cmd_*`` function
    the module binds when it is made, as a tracer that rebinds it expects."""
    assert run(["catalogue", "lint", tmp_path / "missing.json"]) == 1
    monkeypatch.setattr(cli, "cmd_catalogue_lint", lambda args: 7)
    assert run(["catalogue", "lint", tmp_path / "missing.json"]) == 7


def test_catalogue_lint_bad_file(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([CATALOGUE_TOOLS[0], CATALOGUE_TOOLS[0]]), encoding="utf-8")
    assert run(["catalogue", "lint", path]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_distractors_lists_k_neighbours(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(CATALOGUE_TOOLS), encoding="utf-8")
    assert run(["distractors", path, SEED_TOOL, "--k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all("\t" in line for line in lines)


@pytest.mark.parametrize("argv", [["no_such_tool"], [SEED_TOOL, "--k", "0"]],
                         ids=["unknown-seed", "k-0"])
def test_distractors_checks_arguments_before_embedding(tmp_path, monkeypatch, argv):
    def no_build(*args):
        raise AssertionError("the catalogue was embedded")

    monkeypatch.setattr(retrieval.VectorIndex, "__init__", no_build)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(CATALOGUE_TOOLS), encoding="utf-8")
    assert run(["distractors", path, *argv]) == 2


# ---------------------------------------------------------------------------
# generate -> validate -> export -> stats -> score


def test_generate_accepts_replayed_dialogue(world, capsys):
    assert run(["generate", "--config", world.config_path,
                "--seed-tools", SEED_TOOL]) == 0
    out = world.tmp_path / "out"
    corpus = (out / "corpus.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert len(corpus) == 1
    trace = json.loads(corpus[0])
    final = trace["messages"][-1]
    assert final["tool_calls"] == [
        {"name": SEED_TOOL, "args": {"nodeId": 437292, "transportRequestId": 957841}}]
    assert (out / "rejected.jsonl").read_text(encoding="utf-8") == ""
    scenarios = (out / "scenarios.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert len(scenarios) == 1
    assert "accepted=1" in capsys.readouterr().out


def test_generate_is_byte_deterministic(tmp_path):
    w1 = build_replay_world(tmp_path / "run1")
    w2 = build_replay_world(tmp_path / "run2")
    for w in (w1, w2):
        assert run(["generate", "--config", w.config_path,
                    "--seed-tools", SEED_TOOL]) == 0
    for name in ("corpus.jsonl", "scenarios.jsonl", "rejected.jsonl"):
        b1 = (tmp_path / "run1" / "out" / name).read_bytes()
        b2 = (tmp_path / "run2" / "out" / name).read_bytes()
        assert b1 == b2, name


def test_generate_unknown_seed_tool_is_config_error(world, capsys):
    assert run(["generate", "--config", world.config_path,
                "--seed-tools", "no_such_tool"]) == 2
    assert "unknown seed tools" in capsys.readouterr().err


def test_generate_duplicate_seed_tool_is_config_error(world, capsys):
    assert run(["generate", "--config", world.config_path,
                "--seed-tools", f"{SEED_TOOL}, {SEED_TOOL}"]) == 2
    assert f"duplicate seed tools: [{SEED_TOOL!r}]" in capsys.readouterr().err
    assert not (world.tmp_path / "out").exists()  # stopped before any dialogue


@pytest.mark.parametrize("seed_tools", ["", " , "])
def test_generate_seed_tools_naming_no_tool_is_config_error(world, capsys, seed_tools):
    """An empty list is not "every tool": it exits 2 before the output
    directory is touched, so the previous run's files stay as they were."""
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 0
    out = world.tmp_path / "out"
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    capsys.readouterr()
    assert run(["generate", "--config", world.config_path, "--seed-tools", seed_tools]) == 2
    assert f"config error: --seed-tools {seed_tools!r} names no tool" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_validate_command_accepts_generated_corpus(world):
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    out = world.tmp_path / "out"
    code = run(["validate", out / "corpus.jsonl",
                "--config", world.config_path,
                "--scenarios", out / "scenarios.jsonl",
                "--out", out / "reports.jsonl"])
    assert code == 0
    reports = [json.loads(l) for l in
               (out / "reports.jsonl").read_text(encoding="utf-8").splitlines()]
    assert reports[0]["verdict"] == "accept"
    assert "stage_timings" not in reports[0]


def test_validate_flags_bad_dialogue(world):
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    out = world.tmp_path / "out"
    corpus = json.loads((out / "corpus.jsonl").read_text(encoding="utf-8"))
    corpus["messages"][-1]["tool_calls"][0]["args"].pop("nodeId")
    bad_path = world.tmp_path / "bad_corpus.jsonl"
    bad_path.write_text(json.dumps(corpus) + "\n", encoding="utf-8")
    code = run(["validate", bad_path,
                "--config", world.config_path,
                "--scenarios", out / "scenarios.jsonl"])
    assert code == 1


def test_validate_unreachable_judges_report_error_per_dialogue(world, capsys, refused_endpoint):
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    out = world.tmp_path / "out"
    record = json.loads((out / "corpus.jsonl").read_text(encoding="utf-8"))
    corpus = world.tmp_path / "two.jsonl"
    corpus.write_text("".join(json.dumps({**record, "dialogue_id": d}) + "\n"
                              for d in ("d-a", "d-b")), encoding="utf-8")
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    for name in ("relevancy", "critique"):
        cfg["backends"][name] = {"kind": "remote", "model_id": "m-judge", "retry_limit": 0,
                                 "endpoint": refused_endpoint}
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    code = run(["validate", corpus, "--config", world.config_path,
                "--scenarios", out / "scenarios.jsonl", "--out", out / "reports.jsonl"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error on d-a: " in err and "error on d-b: " in err
    reports = [json.loads(l) for l in
               (out / "reports.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [r["dialogue_id"] for r in reports] == ["d-a", "d-b"]
    for r in reports:
        assert r["verdict"] == "error"
        [[stage, message]] = r["failures"]
        assert stage == "judges" and "relevancy judge failed: " in message


def judge_corpus(world, dialogue_ids) -> tuple:
    """A corpus of the generated dialogue under each of ``dialogue_ids``, and
    its scenario file. Only the generated id has scripted judge replies."""
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    out = world.tmp_path / "out"
    record = json.loads((out / "corpus.jsonl").read_text(encoding="utf-8"))
    corpus = world.tmp_path / "judged.jsonl"
    corpus.write_text("".join(json.dumps({**record, "dialogue_id": d or record["dialogue_id"]})
                              + "\n" for d in dialogue_ids), encoding="utf-8")
    return corpus, out / "scenarios.jsonl"


@pytest.mark.parametrize("retry_limit", [0, 1])
def test_validate_sends_retry_limit_plus_one_requests_per_judge(world, loopback, monkeypatch,
                                                                capsys, retry_limit):
    monkeypatch.setattr(gateway.time, "sleep", lambda seconds: None)
    corpus, scenarios = judge_corpus(world, ["d-a", "d-b"])
    requests = []
    endpoint, _ = loopback(lambda body: requests.append(
        (body["seed"], body["messages"][0]["content"])) or (503, {}, {}, 0))
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    for name in ("relevancy", "critique"):
        cfg["backends"][name] = {"kind": "remote", "model_id": "m-judge",
                                 "retry_limit": retry_limit, "endpoint": endpoint}
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["validate", corpus, "--config", world.config_path,
                "--scenarios", scenarios]) == 1
    assert capsys.readouterr().err.startswith("error on d-a: relevancy judge failed: gave up")
    # one distinct request per judge per dialogue, each sent retry_limit + 1 times
    assert sorted(Counter(requests).values()) == [retry_limit + 1] * 4


def test_validate_output_does_not_depend_on_concurrency(world, capsys, monkeypatch):
    corpus, scenarios = judge_corpus(world, [None, "d-miss", None])
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    widths, run_items = [], cli.run_items
    monkeypatch.setattr(cli, "run_items", lambda fn, items, workers: widths.append(workers)
                        or run_items(fn, items, workers))
    results = []
    for concurrency in (1, 8):
        world.config_path.write_text(json.dumps({**cfg, "concurrency": concurrency}),
                                     encoding="utf-8")
        out = world.tmp_path / f"reports-{concurrency}.jsonl"
        capsys.readouterr()
        code = run(["validate", corpus, "--config", world.config_path,
                    "--scenarios", scenarios, "--out", out])
        results.append((code, *capsys.readouterr(), out.read_bytes()))
    assert widths == [1, 8]
    assert results[0] == results[1]
    code, stdout, stderr, reports = results[0]
    assert code == 1 and stderr.startswith("error on d-miss: relevancy judge failed: ")
    assert [json.loads(line)["verdict"] for line in reports.splitlines()] == [
        "accept", "error", "accept"]


def test_export_emits_three_masked_samples(world):
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    out = world.tmp_path / "out"
    code = run(["export", out / "corpus.jsonl",
                "--config", world.config_path,
                "--scenarios", out / "scenarios.jsonl",
                "--out-dir", out / "sft"])
    assert code == 0
    lines = (out / "sft" / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    for line in lines:
        sample = json.loads(line)
        learnable = [m for m in sample["messages"] if m["learn"]]
        assert len(learnable) == 1
        assert sample["messages"][-1]["learn"] is True
        assert sample["messages"][0]["role"] == "system"
    manifest = json.loads((out / "sft" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["sample_count"] == 3
    assert manifest["training_executed"] is False


def test_export_is_byte_deterministic(tmp_path):
    digests = []
    for name in ("run1", "run2"):
        w = build_replay_world(tmp_path / name)
        run(["generate", "--config", w.config_path, "--seed-tools", SEED_TOOL])
        out = tmp_path / name / "out"
        run(["export", out / "corpus.jsonl", "--config", w.config_path,
             "--scenarios", out / "scenarios.jsonl", "--out-dir", out / "sft"])
        digests.append((out / "sft" / "samples.jsonl").read_bytes())
    assert digests[0] == digests[1]


def test_manifest_does_not_depend_on_how_the_out_dir_is_spelled(world, monkeypatch):
    """One out-dir named relative, absolute and from another working
    directory gives byte-equal ``manifest.json``, with the resolved path."""
    tmp, out = world.tmp_path, world.tmp_path / "out"
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 0
    manifests = []
    for cwd, out_dir in ((tmp, "sft"), (tmp, tmp / "sft"), (out, "../sft")):
        monkeypatch.chdir(cwd)
        assert run(["export", out / "corpus.jsonl", "--config", world.config_path,
                    "--scenarios", out / "scenarios.jsonl", "--out-dir", out_dir]) == 0
        manifests.append((tmp / "sft" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1] == manifests[2]
    path = json.loads(manifests[0])["path"]
    assert path == str((tmp / "sft" / "samples.jsonl").resolve())


def test_failed_export_leaves_no_samples_file(world, monkeypatch):
    assert run(["generate", "--config", world.config_path]) == 0
    out = world.tmp_path / "out"
    sliced = []

    def slice_until_second(trace, sys_prompt):
        sliced.append(trace.dialogue_id)
        if len(sliced) == 2:
            raise ValueError("slice failed")
        return slice_dialogue(trace, sys_prompt)

    monkeypatch.setattr(cli, "slice_dialogue", slice_until_second)
    with pytest.raises(ValueError, match="slice failed"):
        run(["export", out / "corpus.jsonl", "--config", world.config_path,
             "--scenarios", out / "scenarios.jsonl", "--out-dir", out / "sft"])
    assert len(sliced) == 2
    assert list((out / "sft").iterdir()) == []


def test_export_rejects_a_trace_that_does_not_alternate(world, capsys):
    assert run(["generate", "--config", world.config_path]) == 0
    out = world.tmp_path / "out"
    corpus, scenarios = out / "corpus.jsonl", out / "scenarios.jsonl"
    records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    records[-1]["messages"].pop()
    bad_id = records[-1]["dialogue_id"]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    assert run(["export", corpus, "--config", world.config_path,
                "--scenarios", scenarios, "--out-dir", out / "sft"]) == 2
    err = capsys.readouterr().err
    assert str(corpus) in err and repr(bad_id) in err
    assert not (out / "sft" / "samples.jsonl").exists()
    assert not (out / "sft" / "samples.jsonl.part").exists()

    assert run(["validate", corpus, "--config", world.config_path,
                "--scenarios", scenarios, "--out", out / "reports.jsonl"]) == 1
    reports = {r["dialogue_id"]: r for r in map(
        json.loads, (out / "reports.jsonl").read_text(encoding="utf-8").splitlines())}
    assert reports[bad_id]["verdict"] == "reject"
    assert [stage for stage, _ in reports[bad_id]["failures"]] == ["format"]


@pytest.mark.parametrize("text", ["", "  "])
def test_a_blank_gold_user_turn_is_refused_where_the_trace_is_read(world, capsys, monkeypatch,
                                                                   text):
    """No request can send a blank user message, so every command that serves
    or trains on the trace exits 2 naming the corpus and dialogue before any
    output or LLM call; ``validate`` rejects it at ``format`` and ``score``,
    which sends nothing, scores it."""
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 0
    out = world.tmp_path / "out"
    corpus, scenarios = out / "corpus.jsonl", out / "scenarios.jsonl"
    [record] = map(json.loads, corpus.read_text(encoding="utf-8").splitlines())
    record["messages"][0]["content"] = text
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    fault = (f"config error: corpus {corpus}: dialogue {record['dialogue_id']!r}: "
             "user turn 0 is empty")
    monkeypatch.setattr(harness, "complete", lambda backend, req: pytest.fail("LLM call"))
    cfg_path = world.tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "mode": "static", "catalogue": "catalogue.json", "scenarios": "out/scenarios.jsonl",
        "gold_corpus": "out/corpus.jsonl", "rng_seed": 1, "out_dir": "bench_out",
        "assistant": {"kind": "scripted", "model_id": "m-cand",
                      "transcript": "transcripts.json"}}), encoding="utf-8")
    capsys.readouterr()
    assert run(["bench", "run", cfg_path]) == 2
    assert fault in capsys.readouterr().err
    assert not (world.tmp_path / "bench_out").exists()
    assert run(["export", corpus, "--config", world.config_path,
                "--scenarios", scenarios, "--out-dir", out / "sft"]) == 2
    assert fault in capsys.readouterr().err
    assert run(["stats", corpus, "--scenarios", scenarios, "--out", out / "stats.json"]) == 2
    assert fault in capsys.readouterr().err
    assert sorted(f.name for f in out.iterdir()) == [
        "corpus.jsonl", "rejected.jsonl", "scenarios.jsonl"]

    assert run(["validate", corpus, "--config", world.config_path,
                "--scenarios", scenarios, "--out", out / "reports.jsonl"]) == 1
    [report] = map(json.loads, (out / "reports.jsonl").read_text(encoding="utf-8").splitlines())
    assert report["failures"] == [["format", "user turn 0 is empty"]]
    assert run(["score", corpus, "--refs", scenarios, "--out", out / "report.json"]) == 0
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["acc"] == 1.0


def test_scripted_pipeline_never_loads_the_http_client(world):
    """A scripted generate -> validate -> export -> stats -> score run, in a
    fresh interpreter, imports neither ``requests`` nor ``urllib3``."""
    out = world.tmp_path / "out"
    corpus, scenarios = str(out / "corpus.jsonl"), str(out / "scenarios.jsonl")
    config = str(world.config_path)
    commands = [
        ["generate", "--config", config],
        ["validate", corpus, "--config", config, "--scenarios", scenarios],
        ["export", corpus, "--config", config, "--scenarios", scenarios,
         "--out-dir", str(out / "sft")],
        ["stats", corpus, "--scenarios", scenarios, "--out", str(out / "stats.json")],
        ["score", corpus, "--refs", scenarios, "--out", str(out / "report.json")],
    ]
    script = ("import json, sys\n"
              "from forge.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "loaded = [m for m in ('requests', 'urllib3') if m in sys.modules]\n"
              "print(json.dumps({'codes': codes, 'loaded': loaded}))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0, 0], "loaded": []}
    assert json.loads((out / "sft" / "manifest.json").read_text("utf-8"))["sample_count"] > 0


def test_stats_command(world, capsys):
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    capsys.readouterr()  # drop the generate summary
    out = world.tmp_path / "out"
    code = run(["stats", out / "corpus.jsonl",
                "--scenarios", out / "scenarios.jsonl",
                "--csv", out / "stats.csv"])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["corpus_size"] == 1
    assert stats["turns"] == {"3": 1}
    assert stats["params"] == {"2": 1}
    assert stats["disamb_turns"] == {"2": 1}
    assert stats["paramfill_turns"] == {"1": 1}
    assert (out / "stats.csv").read_text(encoding="utf-8").startswith("histogram,bucket,count")


def test_score_command_on_generated_corpus(world, capsys):
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    out = world.tmp_path / "out"
    code = run(["score", out / "corpus.jsonl",
                "--refs", out / "scenarios.jsonl",
                "--out", out / "report.json"])
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["acc"] == 1.0
    assert report["ftr"] == 0.0
    assert report["tar"] == 0.0
    assert report["tcp"] == 1.0


def test_missing_config_is_exit_2(tmp_path, capsys):
    assert run(["generate", "--config", tmp_path / "nope.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_requires_rng_seed(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    (tmp_path / "cat.json").write_text(json.dumps(CATALOGUE_TOOLS), encoding="utf-8")
    path.write_text(json.dumps({"catalogue": "cat.json"}), encoding="utf-8")
    assert run(["generate", "--config", path]) == 2
    assert "rng_seed" in capsys.readouterr().err


def test_config_checks_paths_exist(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"catalogue": "missing.json", "rng_seed": 1}),
                    encoding="utf-8")
    assert run(["generate", "--config", path]) == 2


def test_generate_wrong_tool_rejected(world, capsys):
    bad_commit = ("<think>The order tracker fits. "
                  "<<select: fn_2231_logistics_order_tracking>></think> On it.")
    world.transcript.register(world.commit_request, bad_commit, "m-asst")
    world.transcript.save(world.tmp_path / "transcripts.json")
    assert run(["generate", "--config", world.config_path,
                "--seed-tools", SEED_TOOL]) == 0
    out = world.tmp_path / "out"
    assert (out / "corpus.jsonl").read_text(encoding="utf-8") == ""
    rejected = [json.loads(l) for l in
                (out / "rejected.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(rejected) == 1
    assert "fn_2231_logistics_order_tracking" in rejected[0]["reason"]
    assert "accepted=0 rejected=1" in capsys.readouterr().out


_LONE = "JSON text holds a lone surrogate '\\ud83d', which UTF-8 cannot encode"


def _reply_ends_in_a_lone_surrogate(world):
    transcripts = world.tmp_path / "transcripts.json"
    raw = json.loads(transcripts.read_text(encoding="utf-8"))
    fp = world.engine_fingerprints[0]  # the user proxy's first reply
    raw[fp] = [raw[fp][0] + "\ud83d"]
    transcripts.write_text(json.dumps(raw), encoding="utf-8")  # as the escape "\ud83d"
    return 2, f"config error: cannot load transcript {transcripts}: {_LONE}"


def _model_id_ends_in_a_lone_surrogate(world):
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    cfg["backends"]["goal"]["model_id"] = "m-goal\ud83d"
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    return 2, f"config error: cannot load config {world.config_path}: {_LONE}"


def _tool_description_ends_in_a_lone_surrogate(world):
    catalogue = world.tmp_path / "catalogue.json"
    tools = json.loads(catalogue.read_text(encoding="utf-8"))
    tools[0]["description"] += "\ud83d"
    catalogue.write_text(json.dumps(tools), encoding="utf-8")
    return 1, f"invalid input: malformed catalogue JSON: {_LONE}"


def _persona_ends_in_a_lone_surrogate(world):
    personas = world.tmp_path / "personas.json"
    texts = json.loads(personas.read_text(encoding="utf-8"))
    texts[0] += "\ud83d"
    personas.write_text(json.dumps(texts), encoding="utf-8")
    return 2, f"{personas}: {_LONE}"


@pytest.mark.parametrize("spoil", [_reply_ends_in_a_lone_surrogate,
                                   _model_id_ends_in_a_lone_surrogate,
                                   _tool_description_ends_in_a_lone_surrogate,
                                   _persona_ends_in_a_lone_surrogate],
                         ids=["transcript-reply", "model-id", "catalogue", "personas"])
def test_text_that_utf8_cannot_encode_is_config_error(world, capsys, spoil):
    """A JSON escape of a lone surrogate in any file a run reads would end
    the run in the fingerprint that hashes the text; ``parse_json`` refuses
    it where the file is read, before any output: a config error (exit 2),
    or invalid input (exit 1) for the catalogue, as any malformed one is."""
    code, message = spoil(world)
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == code
    assert message in capsys.readouterr().err
    assert not (world.tmp_path / "out" / "corpus.jsonl").exists()


def test_generate_full_catalogue_all_accepted(world):
    assert run(["generate", "--config", world.config_path]) == 0
    out = world.tmp_path / "out"
    corpus = (out / "corpus.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert len(corpus) == 6  # every catalogue tool produced a dialogue
    ids = [json.loads(l)["dialogue_id"] for l in corpus]
    assert len(set(ids)) == 6


def test_generate_concurrency_matches_serial(tmp_path):
    outputs = {}
    for level in (1, 4):
        w = build_replay_world(tmp_path / f"c{level}")
        cfg = json.loads(w.config_path.read_text(encoding="utf-8"))
        cfg["concurrency"] = level
        w.config_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run(["generate", "--config", w.config_path]) == 0
        out = tmp_path / f"c{level}" / "out"
        outputs[level] = ((out / "corpus.jsonl").read_bytes(),
                          (out / "scenarios.jsonl").read_bytes(),
                          (out / "rejected.jsonl").read_bytes())
    assert outputs[1] == outputs[4]


def test_generate_concurrency_builds_each_index_once(tmp_path, monkeypatch):
    builds = []
    build = retrieval.VectorIndex.__init__

    def counting_build(self, texts, emb, keys=None):
        builds.append(len(texts))
        time.sleep(0.05)  # widen the window in which a second worker could start a build
        build(self, texts, emb, keys)

    monkeypatch.setattr(retrieval.VectorIndex, "__init__", counting_build)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    outputs = {}
    try:
        for level in (1, 8):
            w = build_replay_world(tmp_path / f"c{level}")
            cfg = json.loads(w.config_path.read_text(encoding="utf-8"))
            cfg["concurrency"] = level
            w.config_path.write_text(json.dumps(cfg), encoding="utf-8")
            builds.clear()
            assert run(["generate", "--config", w.config_path]) == 0
            # one catalogue index and one persona index, however many workers
            assert sorted(builds) == [1, len(CATALOGUE_TOOLS)]
            out = tmp_path / f"c{level}" / "out"
            outputs[level] = ((out / "corpus.jsonl").read_bytes(),
                              (out / "scenarios.jsonl").read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert outputs[1] == outputs[8]


REPLAY_OUTPUTS = ("corpus.jsonl", "rejected.jsonl", "scenarios.jsonl", "reports.jsonl",
                  "report.json")


def _replay_pipeline(config, judge, out):
    """generate -> validate -> score --judge over the whole catalogue: the
    bytes of each output in ``out``."""
    corpus, scenarios = out / "corpus.jsonl", out / "scenarios.jsonl"
    assert run(["generate", "--config", config]) == 0
    assert run(["validate", corpus, "--config", config, "--scenarios", scenarios,
                "--out", out / "reports.jsonl"]) == 0
    assert run(["score", corpus, "--refs", scenarios, "--judge", judge,
                "--out", out / "report.json"]) == 0
    return {name: (out / name).read_bytes() for name in REPLAY_OUTPUTS}


@pytest.mark.parametrize("concurrency", [1, 8])
def test_remote_replay_equals_scripted_replay(world, loopback, concurrency):
    """Every role served remotely from the replay transcript, each distinct
    request refused once with a 503, gives the scripted run's bytes."""
    # the critique judge fails the seed dialogue, so rejected.jsonl is not empty
    critique = judge_requests(world.expected_trace, world.scenario, world.cat)["critique"]
    world.transcript.register(critique, "FAIL: the user volunteered every value", "m-crit")
    for trace in world.extra_traces.values():
        for t in range(1, len(trace.turns()) + 1):
            grade = str(1 + (len(trace.dialogue_id) + t) % 3)
            world.transcript.register(rubric_request(trace, t), grade, "m-rubric")
    world.transcript.save(world.tmp_path / "transcripts.json")
    judge = world.tmp_path / "judge.json"
    judge.write_text(json.dumps({"kind": "scripted", "model_id": "m-rubric",
                                 "transcript": "transcripts.json"}), encoding="utf-8")
    scripted = _replay_pipeline(world.config_path, judge, world.tmp_path / "out")

    refused, lock = set(), threading.Lock()

    def respond(body):
        fp = fingerprint(body["model"], chat_request(body))
        with lock:
            first = fp not in refused
            refused.add(fp)
        if first:
            return 503, {"Retry-After": "0"}, {"error": "busy"}, 0.0
        return 200, {}, chat_reply(world.transcript.lookup(fp, 1)[0]), 0.0

    endpoint, _ = loopback(respond)
    remote = {"kind": "remote", "endpoint": endpoint}
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    cfg.update(out_dir="remote-out", concurrency=concurrency,
               backends={role: {**remote, "model_id": spec["model_id"]}
                         for role, spec in cfg["backends"].items()})
    config = world.tmp_path / "remote.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    judge = world.tmp_path / "remote-judge.json"
    judge.write_text(json.dumps({**remote, "model_id": "m-rubric"}), encoding="utf-8")
    assert _replay_pipeline(config, judge, world.tmp_path / "remote-out") == scripted
    assert scripted["rejected.jsonl"] and json.loads(scripted["report.json"])["conv_rel"]
    assert refused

    # a static bench over the accepted corpus grades the same with the judge remote
    _script_static_bench(world)
    judged = _static_bench(world, {"kind": "scripted", "model_id": "m-rubric",
                                   "transcript": "transcripts.json"}, concurrency)
    assert json.loads(judged["report.json"])["conv_rel"] is not None
    assert _static_bench(world, {**remote, "model_id": "m-rubric"}, concurrency) == judged


def _script_static_bench(world) -> None:
    """Script a static bench over the generated corpus: the ``m-cand``
    candidate calls at its first turn and the ``m-rubric`` judge grades each
    rollout. Writes the bench's scenario file, ``bench_scenarios.jsonl``."""
    out = world.tmp_path / "out"
    golds = {d.scenario_ref: d for d in cli.load_traces(out / "corpus.jsonl")}
    scenarios = [scn for sid, scn in cli.load_scenarios(out / "scenarios.jsonl").items()
                 if sid in golds]
    for scn in scenarios:
        gold = golds[scn.scenario_id]
        cand = static_candidate(world, [RAW_A3_CALL] * len(gold.turns()), scn, gold)
        world.transcript.replies.update(cand.transcript.replies)
        trace = eval_static(EvalTask(scn, gold), cand, world.cat)
        for t in range(1, len(trace.assistant_turns()) + 1):
            grade = str(1 + (len(trace.dialogue_id) + t) % 3)
            world.transcript.register(rubric_request(trace, t), grade, "m-rubric")
    world.transcript.save(world.tmp_path / "transcripts.json")
    (world.tmp_path / "bench_scenarios.jsonl").write_text(
        "".join(json.dumps(scn.to_dict()) + "\n" for scn in scenarios), encoding="utf-8")


def _static_bench(world, judge: dict, concurrency: int) -> dict[str, bytes]:
    """The bytes of ``report.json`` and ``traces.jsonl`` of the scripted
    static bench run with ``judge`` as its rubric judge."""
    out_dir = world.tmp_path / f"bench-{judge['kind']}"
    path = world.tmp_path / "bench.json"
    path.write_text(json.dumps({
        "mode": "static", "catalogue": "catalogue.json", "scenarios": "bench_scenarios.jsonl",
        "gold_corpus": "out/corpus.jsonl", "rng_seed": 1, "out_dir": str(out_dir),
        "concurrency": concurrency, "judge": judge,
        "assistant": {"kind": "scripted", "model_id": "m-cand",
                      "transcript": "transcripts.json"}}), encoding="utf-8")
    assert run(["bench", "run", path]) == 0
    return {name: (out_dir / name).read_bytes() for name in ("report.json", "traces.jsonl")}


def test_score_with_scripted_rubric_judge(world):
    for t, grade in enumerate(("3", "3", "2"), start=1):
        world.transcript.register(
            rubric_request(world.expected_trace, t), grade, "m-rubric")
    world.transcript.save(world.tmp_path / "transcripts.json")
    (world.tmp_path / "judge.json").write_text(json.dumps(
        {"kind": "scripted", "model_id": "m-rubric",
         "transcript": "transcripts.json"}), encoding="utf-8")
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    out = world.tmp_path / "out"
    code = run(["score", out / "corpus.jsonl",
                "--refs", out / "scenarios.jsonl",
                "--judge", world.tmp_path / "judge.json",
                "--out", out / "report.json"])
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["conv_rel"] == pytest.approx((1.0 + 1.0 + 0.5) / 3)
    assert report["per_dialogue"][0]["conv_rel"] == pytest.approx(2.5 / 3)


@pytest.mark.parametrize("reply", [None, "hello", "10", "4/3"])
def test_score_judge_failure_costs_one_dialogue(world, capsys, reply):
    """A rubric call with no scripted reply, or a reply whose first integer
    is not 1, 2 or 3, costs only its dialogue's conv_rel: the report is
    written and score exits 1."""
    for t, grade in enumerate(("3", "3", "2"), start=1):
        world.transcript.register(rubric_request(world.expected_trace, t), grade, "m-rubric")
    graded_last = list(world.extra_traces.values())[-1]
    world.transcript.register(rubric_request(graded_last, 1), "3", "m-rubric")
    no_grade = list(world.extra_traces.values())[0]
    if reply is not None:
        world.transcript.register(rubric_request(no_grade, 1), reply, "m-rubric")
    world.transcript.save(world.tmp_path / "transcripts.json")
    judge = world.tmp_path / "judge.json"
    judge.write_text(json.dumps({"kind": "scripted", "model_id": "m-rubric",
                                 "transcript": "transcripts.json"}), encoding="utf-8")
    assert run(["generate", "--config", world.config_path]) == 0
    out = world.tmp_path / "out"
    capsys.readouterr()
    assert run(["score", out / "corpus.jsonl", "--refs", out / "scenarios.jsonl",
                "--judge", judge, "--out", out / "report.json"]) == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["acc"] == 1.0
    assert report["conv_rel"] == pytest.approx((2.5 / 3 + 1.0) / 2)
    rows = {row["dialogue_id"]: row for row in report["per_dialogue"]}
    failed = [d for d, row in rows.items() if "error" in row]
    assert len(rows) == 6 and len(failed) == 4
    for d in failed:
        assert rows[d]["conv_rel"] is None
    missing = "rubric judge returned no grade" if reply else "no scripted reply"
    assert missing in rows[no_grade.dialogue_id]["error"]
    err = capsys.readouterr().err
    assert [line.split(":")[0] for line in err.splitlines()] == [
        f"error on {d}" for d in failed]


def test_score_creates_a_missing_out_directory(world):
    for t, grade in enumerate(("3", "3", "2"), start=1):
        world.transcript.register(
            rubric_request(world.expected_trace, t), grade, "m-rubric")
    world.transcript.save(world.tmp_path / "transcripts.json")
    judge = world.tmp_path / "judge.json"
    judge.write_text(json.dumps({"kind": "scripted", "model_id": "m-rubric",
                                 "transcript": "transcripts.json"}), encoding="utf-8")
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    out = world.tmp_path / "out"
    report = world.tmp_path / "reports" / "seed-7" / "report.json"
    assert run(["score", out / "corpus.jsonl", "--refs", out / "scenarios.jsonl",
                "--judge", judge, "--out", report]) == 0
    assert json.loads(report.read_text(encoding="utf-8"))["conv_rel"] == pytest.approx(2.5 / 3)


def test_score_judge_on_a_trace_without_assistant_turn(world, capsys):
    """A trace with no assistant turn has nothing to grade: its conv_rel is
    null, with no error row and no judge call, and score exits 0."""
    (world.tmp_path / "judge.json").write_text(json.dumps(
        {"kind": "scripted", "model_id": "m-rubric", "transcript": "transcripts.json"}),
        encoding="utf-8")
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 0
    out = world.tmp_path / "out"
    [line] = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    trace = json.loads(line)
    trace["messages"] = trace["messages"][:1]
    (out / "cut.jsonl").write_text(json.dumps(trace) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["score", out / "cut.jsonl", "--refs", out / "scenarios.jsonl",
                "--judge", world.tmp_path / "judge.json", "--out", out / "report.json"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    [row] = report["per_dialogue"]
    assert report["conv_rel"] is None and row["conv_rel"] is None and "error" not in row
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# bench


def test_bench_static_run_and_report(world, capsys):
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    # candidate assistant = the same scripted synthesis assistant is not
    # keyed for eval requests, so script a dedicated candidate
    cand = static_candidate(world, (RAW_A1, RAW_A2_FILL, RAW_A3_CALL))
    cand.transcript.save(world.tmp_path / "cand_transcript.json")
    bench_cfg = {
        "mode": "static",
        "catalogue": "catalogue.json",
        "scenarios": "out/scenarios.jsonl",
        "gold_corpus": "out/corpus.jsonl",
        "assistant": {"kind": "scripted", "model_id": "m-cand",
                      "transcript": "cand_transcript.json"},
        "rng_seed": 1,
        "out_dir": "bench_out",
    }
    cfg_path = world.tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(bench_cfg), encoding="utf-8")
    assert run(["bench", "run", cfg_path]) == 0
    bench_out = world.tmp_path / "bench_out"
    report = json.loads((bench_out / "report.json").read_text(encoding="utf-8"))
    assert report["acc"] == 1.0
    assert sorted(path.name for path in bench_out.iterdir()) == ["report.json", "traces.jsonl"]
    assert len((bench_out / "traces.jsonl").read_text(encoding="utf-8").splitlines()) == 1
    capsys.readouterr()
    assert run(["bench", "report", bench_out]) == 0
    printed = capsys.readouterr().out
    assert "ACC" in printed and "1.0000" in printed


def test_bench_static_judge_failure_keeps_the_rollout(world, capsys):
    """A static run whose rubric judge has no reply for the rollout keeps its
    trace and report, with a null conv_rel, and exits 1."""
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    cand = static_candidate(world, (RAW_A1, RAW_A2_FILL, RAW_A3_CALL))
    cand.transcript.save(world.tmp_path / "cand_transcript.json")
    cfg_path = world.tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "mode": "static", "catalogue": "catalogue.json", "scenarios": "out/scenarios.jsonl",
        "gold_corpus": "out/corpus.jsonl", "rng_seed": 1, "out_dir": "bench_out",
        "assistant": {"kind": "scripted", "model_id": "m-cand",
                      "transcript": "cand_transcript.json"},
        "judge": {"kind": "scripted", "model_id": "m-rubric",
                  "transcript": "cand_transcript.json"}}), encoding="utf-8")
    capsys.readouterr()
    assert run(["bench", "run", cfg_path]) == 1
    bench_out = world.tmp_path / "bench_out"
    report = json.loads((bench_out / "report.json").read_text(encoding="utf-8"))
    assert report["acc"] == 1.0 and report["conv_rel"] is None
    [row] = report["per_dialogue"]
    dialogue_id = f"{world.scenario.scenario_id}#static"
    assert row["dialogue_id"] == dialogue_id and "no scripted reply" in row["error"]
    [trace] = (bench_out / "traces.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(trace)["dialogue_id"] == dialogue_id
    assert capsys.readouterr().err.startswith(f"error on {dialogue_id}: no scripted reply")


def test_bench_static_judge_on_an_empty_gold_dialogue(world, capsys):
    """A gold dialogue with no messages rolls out to a trace with no
    assistant turn: the judge grades nothing, conv_rel is null and the run
    writes its trace and report and exits 0."""
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    gold = world.expected_trace.to_dict()
    (world.tmp_path / "gold.jsonl").write_text(json.dumps({**gold, "messages": []}) + "\n",
                                               encoding="utf-8")
    scripted = {"kind": "scripted", "model_id": "m-cand", "transcript": "transcripts.json"}
    cfg_path = world.tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "mode": "static", "catalogue": "catalogue.json", "scenarios": "out/scenarios.jsonl",
        "gold_corpus": "gold.jsonl", "rng_seed": 1, "out_dir": "bench_out",
        "assistant": scripted, "judge": scripted}), encoding="utf-8")
    capsys.readouterr()
    assert run(["bench", "run", cfg_path]) == 0
    bench_out = world.tmp_path / "bench_out"
    report = json.loads((bench_out / "report.json").read_text(encoding="utf-8"))
    [row] = report["per_dialogue"]
    assert report["conv_rel"] is None and row["conv_rel"] is None and "error" not in row
    [trace] = (bench_out / "traces.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(trace)["messages"] == []
    assert capsys.readouterr().err == ""


def _script_dynamic_task(world, scn) -> None:
    """Script the ``m-x`` replies of a one-pair dynamic rollout of ``scn`` in a
    bench run with ``n_samples`` 1 and ``rng_seed`` 1: the user proxy gives
    RAW_U3 and the assistant calls at once."""
    world.transcript.register(user_request(user_system_prompt(scn, world.cat), [],
                                           split_seed(1, "gen:0")), RAW_U3, "m-x")
    world.transcript.register(
        assistant_request(selection_system_prompt(world.cat, scn.pool), [UserTurn(RAW_U3)],
                          split_seed(scn.rng_seed, "dyn:asst:1")), RAW_A3_CALL, "m-x")
    world.transcript.save(world.tmp_path / "transcripts.json")


def _run_with_assistant_reply(world, capsys, command: str, reply: str) -> tuple:
    """(exit code, stdout, stderr, output file bytes) of a replay-world
    ``generate`` whose committing reply is ``reply``, or of a dynamic
    ``bench run`` whose first assistant reply is ``reply`` and whose second
    pair ends the rollout with a call."""
    if command == "generate":
        world.transcript.register(world.commit_request, reply, "m-asst")
        world.transcript.save(world.tmp_path / "transcripts.json")
        argv, out = ["generate", "--config", world.config_path], world.tmp_path / "out"
    else:
        argv, out = ["bench", "run", _bench_config(world, n_samples=1, t_max=2)], \
            world.tmp_path / "bench_out"
        scn = world.scenario
        sys_a = selection_system_prompt(world.cat, scn.pool)
        _script_dynamic_task(world, scn)
        messages = [UserTurn(RAW_U3)]
        world.transcript.register(assistant_request(
            sys_a, messages, split_seed(scn.rng_seed, "dyn:asst:1")), reply, "m-x")
        messages += [AssistantTurn(thought=None, raw=reply)]
        world.transcript.register(user_request(user_system_prompt(scn, world.cat), messages,
                                               split_seed(1, "gen:2")), RAW_U3, "m-x")
        world.transcript.register(assistant_request(
            sys_a, messages + [UserTurn(RAW_U3)], split_seed(scn.rng_seed, "dyn:asst:2")),
            RAW_A3_CALL, "m-x")
        world.transcript.save(world.tmp_path / "transcripts.json")
    capsys.readouterr()
    code = run(argv)
    stdout, stderr = capsys.readouterr()
    return code, stdout, stderr, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["generate", "bench"])
def test_nested_assistant_reply_is_one_unparseable_reply(tmp_path, capsys, command):
    """A tool-call reply nested past the recursion limit, or holding an
    integer past Python's digit limit, costs what a bare ``[`` reply costs:
    the generate dialogue, or the bench turn, which keeps the raw text."""
    bare = "<think>x</think> ["
    replies = {bare: "", RAW_NESTED_CALLS: "maximum recursion depth",
               RAW_LONG_INT_CALLS: "Exceeds the limit (4300 digits)"}
    runs = {reply: _run_with_assistant_reply(build_replay_world(tmp_path / str(i)), capsys,
                                             command, reply)
            for i, reply in enumerate(replies)}
    code, stdout, stderr, files = runs[bare]
    for i, (reply, message) in enumerate(list(replies.items())[1:], start=1):
        nested_code, nested_stdout, nested_stderr, nested_files = runs[reply]
        assert (nested_code, nested_stdout) == (code, stdout.replace(str(tmp_path / "0"),
                                                                     str(tmp_path / str(i))))
        if command == "generate":
            head = f"error on {SEED_TOOL}: unparseable tool-call JSON: "
            assert code == 1 and "errors=1" in stdout
            assert stderr.startswith(head) and stderr.count("\n") == 1
            assert nested_stderr.startswith(head + message)
            assert nested_stderr.count("\n") == 1
        else:
            assert code == 0 and stderr == nested_stderr == ""
            assert json.dumps(bare).encode("utf-8") in files["traces.jsonl"]
            nested_files["traces.jsonl"] = nested_files["traces.jsonl"].replace(
                json.dumps(reply).encode("utf-8"), json.dumps(bare).encode("utf-8"))
            if reply == RAW_LONG_INT_CALLS:  # the lexical metrics read its digits as a word
                got, want = ({k: v for k, v in json.loads(f["report.json"]).items()
                              if k not in ("ttr", "ngd")} for f in (nested_files, files))
                assert got == want
                nested_files["report.json"] = files["report.json"]
        assert nested_files == files


def test_bench_dynamic_failed_task_costs_one_task(world, capsys):
    """A dynamic task whose user proxy has no scripted reply adds an error row
    to the report; the finished task keeps its trace and row."""
    path = _bench_config(world, n_samples=1, scenarios="two.jsonl")
    assert run(["generate", "--config", world.config_path]) == 0
    lines = (world.tmp_path / "out" / "scenarios.jsonl").read_text(encoding="utf-8")
    two = [line for line in lines.splitlines()
           if json.loads(line)["seed_tool"] in (SEED_TOOL, "fn_4401_freight_rate_lookup")]
    (world.tmp_path / "two.jsonl").write_text("\n".join(two) + "\n", encoding="utf-8")
    _script_dynamic_task(world, world.scenario)
    capsys.readouterr()
    assert run(["bench", "run", path]) == 1
    bench_out = world.tmp_path / "bench_out"
    report = json.loads((bench_out / "report.json").read_text(encoding="utf-8"))
    done, failed = report["per_dialogue"]
    assert done["dialogue_id"] == f"{world.scenario.scenario_id}#dynamic"
    assert done["acc"] == 1 and report["acc"] == 1.0
    assert failed["dialogue_id"].startswith("fn_4401_freight_rate_lookup@")
    assert set(failed) == {"dialogue_id", "error"} and "no scripted reply" in failed["error"]
    traces = (bench_out / "traces.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["dialogue_id"] for line in traces] == [done["dialogue_id"]]
    assert json.loads(traces[0])["messages"]
    assert capsys.readouterr().err == f"error on {failed['dialogue_id']}: {failed['error']}\n"


def test_bench_complete_line_counts_tasks_traces_and_errors(world, capsys):
    """A static run over every generated scenario with only one candidate
    reply scripted finishes one task; the others are error rows."""
    assert run(["generate", "--config", world.config_path]) == 0
    cand = static_candidate(world, (RAW_A1, RAW_A2_FILL, RAW_A3_CALL))
    cand.transcript.save(world.tmp_path / "cand_transcript.json")
    cfg_path = world.tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "mode": "static", "catalogue": "catalogue.json", "scenarios": "out/scenarios.jsonl",
        "gold_corpus": "out/corpus.jsonl", "rng_seed": 1, "out_dir": "bench_out",
        "assistant": {"kind": "scripted", "model_id": "m-cand",
                      "transcript": "cand_transcript.json"}}), encoding="utf-8")
    capsys.readouterr()
    assert run(["bench", "run", cfg_path]) == 1
    tasks = len(CATALOGUE_TOOLS)
    assert capsys.readouterr().out == (f"bench complete: tasks={tasks} traces=1 "
                                       f"errors={tasks - 1} -> {world.tmp_path / 'bench_out'}\n")


def test_bench_grades_each_task_as_its_rollout_ends(world, loopback):
    """At concurrency 1 with a remote judge, the first task's rubric request
    reaches the server before the second task's last assistant request."""
    path = _bench_config(world, n_samples=1, scenarios="two.jsonl")
    assert run(["generate", "--config", world.config_path]) == 0
    lines = [line for line in (world.tmp_path / "out" / "scenarios.jsonl")
             .read_text(encoding="utf-8").splitlines()
             if json.loads(line)["seed_tool"] in (SEED_TOOL, "fn_4401_freight_rate_lookup")]
    (world.tmp_path / "two.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    first, second = [Scenario.from_dict(json.loads(line)) for line in lines]
    for scn in (first, second):
        _script_dynamic_task(world, scn)
    second_user = fingerprint("m-x", user_request(user_system_prompt(second, world.cat), [],
                                                  split_seed(1, "gen:0")))
    second_asst = fingerprint("m-x", assistant_request(
        selection_system_prompt(world.cat, second.pool), [UserTurn(RAW_U3)],
        split_seed(second.rng_seed, "dyn:asst:1")))
    arrivals, lock = [], threading.Lock()

    def respond(body):
        fp = fingerprint(body["model"], chat_request(body))
        with lock:
            arrivals.append("judge" if body["model"] == "m-rubric" else fp)
        if body["model"] == "m-rubric":
            return 200, {}, chat_reply("3"), 0.0
        # the second rollout waits on its user proxy: time for a grading to start
        delay = 0.3 if fp == second_user else 0.0
        return 200, {}, chat_reply(world.transcript.lookup(fp, 1)[0]), delay

    endpoint, _ = loopback(respond)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg.update({role: {"kind": "remote", "model_id": "m-x", "endpoint": endpoint}
                for role in ("assistant", "user_proxy", "voter")},
               judge={"kind": "remote", "model_id": "m-rubric", "endpoint": endpoint},
               concurrency=1)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["bench", "run", path]) == 0
    assert arrivals.count("judge") == 2
    assert arrivals.index("judge") < arrivals.index(second_asst)
    report = json.loads((world.tmp_path / "bench_out" / "report.json").read_text("utf-8"))
    assert report["conv_rel"] == 1.0


def test_bench_refused_assistant_writes_traces_and_no_report(world, capsys, refused_endpoint):
    """When no task finishes, bench run writes an empty traces.jsonl and no
    report.json, and exits 1 naming each failed task."""
    path = _bench_config(world, n_samples=1, assistant={
        "kind": "remote", "model_id": "m-cand", "endpoint": refused_endpoint, "retry_limit": 0})
    _script_dynamic_task(world, world.scenario)
    capsys.readouterr()
    assert run(["bench", "run", path]) == 1
    bench_out = world.tmp_path / "bench_out"
    assert (bench_out / "traces.jsonl").read_text(encoding="utf-8") == ""
    assert not (bench_out / "report.json").exists()
    assert capsys.readouterr().err.startswith(
        f"error on {world.scenario.scenario_id}#dynamic: gave up on {refused_endpoint}")


def test_bench_missing_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"mode": "static"}), encoding="utf-8")
    assert run(["bench", "run", cfg]) == 2
    assert "missing key" in capsys.readouterr().err


def _bench_config(world, **overrides):
    """A dynamic bench config over the generated scenarios, with overrides."""
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    scripted = {"kind": "scripted", "model_id": "m-x", "transcript": "transcripts.json"}
    cfg = {"mode": "dynamic", "catalogue": "catalogue.json",
           "scenarios": "out/scenarios.jsonl", "assistant": scripted,
           "user_proxy": scripted, "voter": scripted, "rng_seed": 1,
           "out_dir": "bench_out", **overrides}
    path = world.tmp_path / "bench.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_bench_unknown_backend_kind_is_config_error(world, capsys):
    path = _bench_config(world, assistant={"kind": "bogus", "model_id": "m"})
    assert run(["bench", "run", path]) == 2
    assert "unknown backend kind" in capsys.readouterr().err


def test_generate_non_object_backend_is_config_error(world, capsys):
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    cfg["backends"]["assistant"] = "m-asst"
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["generate", "--config", world.config_path]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_bench_zero_samples_is_config_error(world, capsys):
    path = _bench_config(world, n_samples=0)
    assert run(["bench", "run", path]) == 2
    assert "n_samples" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "validate", "export"])
def test_generate_turn_cap_below_two_is_config_error(world, capsys, command):
    """Every command that reads the pipeline config checks the engine settings."""
    out = world.tmp_path / "out"
    corpus = [out / "corpus.jsonl", "--scenarios", out / "scenarios.jsonl"]
    argv = {"generate": ["generate", "--seed-tools", SEED_TOOL],
            "validate": ["validate", *corpus],
            "export": ["export", *corpus, "--out-dir", world.tmp_path / "sft"]}[command]
    if command != "generate":
        assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 0
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    world.config_path.write_text(json.dumps({**cfg, "t_max": 1}), encoding="utf-8")
    capsys.readouterr()
    assert run([*argv, "--config", world.config_path]) == 2
    assert "t_max" in capsys.readouterr().err


def test_scripted_backend_without_transcript_is_config_error(world, capsys):
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    del cfg["backends"]["assistant"]["transcript"]
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 2
    assert "requires a transcript" in capsys.readouterr().err


def test_backend_missing_kind_names_the_key(world, capsys):
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    del cfg["backends"]["assistant"]["kind"]
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["validate", world.tmp_path / "corpus.jsonl", "--config", world.config_path,
                "--scenarios", world.tmp_path / "scenarios.jsonl"]) == 2
    err = capsys.readouterr().err
    assert "missing key 'kind'" in err and str(world.config_path) in err


@pytest.mark.parametrize("payload", [chat_reply(None)], ids=["goal-null-content"])
def test_generate_malformed_remote_reply_costs_one_dialogue(world, capsys, loopback, payload):
    """A remote reply that cannot be decoded errors its dialogue, not the
    run: every dialogue gets its error line and all three files are written."""
    endpoint, server = loopback(lambda body: (200, {}, payload, 0.0))
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    cfg["backends"]["goal"] = {"kind": "remote", "model_id": "m-goal", "endpoint": endpoint}
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    assert run(["generate", "--config", world.config_path]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error on ")]
    assert [line.split(":")[0] for line in errors] == [
        f"error on {name}" for name in world.cat.names()]
    assert all("malformed reply" in line for line in errors)
    assert len(server.ports) == len(errors)  # a malformed reply is not retried
    for name in ("corpus.jsonl", "rejected.jsonl", "scenarios.jsonl"):
        assert (world.tmp_path / "out" / name).exists()


@pytest.mark.parametrize("status, payload, requests", [
    (503, {}, 4),
    (200, {"object": "list"}, 1),
    (200, [{"embedding": [1.0] * 16}], 1),
    (200, {"data": [{"embedding": [1.0] * 8}]}, 1),
], ids=["embedder-503", "embedder-no-data", "embedder-array", "embedder-wrong-dimension"])
def test_generate_index_build_failure_stops_once(world, capsys, loopback, status, payload,
                                                 requests):
    """An embedding call that fails while the indexes are built belongs to
    no dialogue: ``generate`` stops before the first one, with exit 1, one
    ``error:`` line naming the endpoint and no output file. A 503 is retried
    up to the embedder's retry limit of 3; a malformed reply is not retried."""
    bodies = []

    def respond(body):
        bodies.append(body)
        return status, {"Retry-After": "0"} if status == 503 else {}, payload, 0.0

    endpoint, _ = loopback(respond)
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    cfg["embedder"] = {"kind": "remote", "endpoint": endpoint, "dimension": 16}
    for role in ("goal", "user_proxy", "assistant"):  # a chat request would reach the server
        cfg["backends"][role] = {"kind": "remote", "model_id": f"m-{role}", "endpoint": endpoint}
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    assert run(["generate", "--config", world.config_path]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and endpoint in line
    assert captured.out == ""
    assert len(bodies) == requests
    assert all("input" in body and "messages" not in body for body in bodies)
    assert list((world.tmp_path / "out").iterdir()) == []


def test_generate_embeds_each_tool_and_persona_once(world, monkeypatch):
    """Each index is built once, in setup, however many workers run: every
    tool and persona text passes through ``count_many`` exactly once, and
    after that only a live search's free text is embedded, through
    ``count_many`` too."""
    rows, embeds, searches = Counter(), [], []
    count_many, embed = retrieval.HashEmbedder.count_many, retrieval.HashEmbedder.embed
    search = engine.search_catalogue

    def counting(self, texts):
        rows.update(texts)
        return count_many(self, texts)

    def embedding(self, text):
        embeds.append(text)
        return embed(self, text)

    def searching(tools, query, k):
        searches.append(query)
        return search(tools, query, k)

    monkeypatch.setattr(retrieval.HashEmbedder, "count_many", counting)
    monkeypatch.setattr(retrieval.HashEmbedder, "embed", embedding)
    monkeypatch.setattr(engine, "search_catalogue", searching)
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    world.config_path.write_text(json.dumps({**cfg, "concurrency": 4}), encoding="utf-8")
    assert run(["generate", "--config", world.config_path]) == 0
    assert rows == Counter([retrieval.tool_text(t) for t in world.cat.tools]
                           + world.store.personas + embeds)
    assert searches and Counter(embeds) == Counter(searches)


def test_generate_one_judge_only_is_config_error(world, capsys):
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    del cfg["backends"]["critique"]
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 2
    assert "'critique'" in capsys.readouterr().err


@pytest.mark.parametrize("command, change, message", [
    ("generate", {"embedder": {"kind": "remote"}}, "endpoint"),
    ("generate", {"embedder": {"kind": "hash", "dimension": 0}}, "dimension"),
    ("generate", {"k": 0}, "k must be"),
    ("generate", {"persona_k": 0}, "persona_k must be"),
    ("generate", {"concurrency": 0}, "concurrency must be"),
    ("generate", {"regen_attempts": 0}, "regen_attempts must be"),
    ("generate", {"t_max": "3"}, "t_max must be an integer"),
    ("generate", {"concurrency": "2"}, "concurrency must be an integer"),
    ("generate", {"concurrency": 10**30}, "concurrency must be <= 1024"),
    ("generate", {"k": None}, "k must be an integer"),
    ("generate", {"rng_seed": "abc"}, "rng_seed must be an integer"),
    ("generate", {"rng_seed": 1.9}, "rng_seed must be an integer"),
    ("generate", {"rng_seed": True}, "rng_seed must be an integer"),
    ("generate", {"rng_seed": " 12 "}, "rng_seed must be an integer"),
    ("generate", {"embedder": "hash"}, "embedder must be a JSON object"),
    ("generate", {"embedder": {"dimension": "256"}}, "dimension must be an integer"),
    ("generate", {"embedder": {"dimension": 2.5}}, "dimension must be an integer"),
    ("generate", {"embedder": {"dimension": True}}, "dimension must be an integer"),
    ("generate", {"backends": []}, "backends must be a JSON object"),
    ("generate", {"catalogue": 5}, "catalogue must be a path string"),
    ("generate", {"out_dir": 5}, "out_dir must be a path string"),
    ("generate", {"personas": 5}, "personas must be a path string"),
    ("backend", {"transcript": 5}, "transcript must be a path string"),
    ("backend", {"retry_limit": "3"}, "retry_limit must be an integer"),
    ("backend", {"retry_limit": -1}, "retry_limit must be between 0 and 10"),
    ("backend", {"timeout": "60"}, "timeout must be a positive number"),
    ("backend", {"timeout": 0}, "timeout must be a positive number"),
    ("backend", {"timeout": 1e10}, "timeout must be a positive number"),
    ("backend", {"timeout": 10**400}, "timeout must be a positive number"),
    ("backend", {"kind": "remote", "endpoint": "localhost:8080/v1/chat/completions"},
     "http or https URL"),
    ("backend", {"api_key_env": 5}, "api_key_env must be a string or null"),
    ("backend", {"model_id": ["x"]}, "model_id must be a string"),
    ("generate", {"embedder": {"kind": "remote", "endpoint": "localhost:8080/v1/embeddings",
                               "dimension": 16}}, "http or https URL"),
    ("bench", {"concurrency": -3}, "concurrency must be"),
    ("bench", {"concurrency": 10**30}, "concurrency must be <= 1024"),
    ("bench", {"n_samples": "3"}, "n_samples must be an integer"),
    ("bench", {"rng_seed": "abc"}, "rng_seed must be an integer"),
    ("bench", {"rng_seed": None}, "rng_seed must be an integer"),
    ("validate", {"embedder": {"kind": "bogus"}}, "unknown embedder kind"),
    ("export", {"embedder": {"dimension": 0}}, "dimension must be >= 1"),
    ("distractors", [SEED_TOOL, "--dim", "0"], "dimension"),
    ("distractors", [SEED_TOOL, "--k", "0"], "k must be"),
    ("distractors", ["no_such_tool"], "no_such_tool"),
], ids=["remote-embedder-no-endpoint", "embedder-dimension-0", "k-0", "persona-k-0",
        "concurrency-0", "regen-attempts-0", "t-max-string", "concurrency-string",
        "concurrency-past-ceiling", "k-null",
        "rng-seed-not-a-number", "rng-seed-float", "rng-seed-true", "rng-seed-padded-string",
        "embedder-not-object", "embedder-dimension-string", "embedder-dimension-float",
        "embedder-dimension-true", "backends-array", "catalogue-number", "out-dir-number",
        "personas-number", "transcript-number", "retry-limit-string", "retry-limit-negative",
        "timeout-string", "timeout-0", "timeout-1e10", "timeout-huge-int",
        "endpoint-no-scheme", "api-key-env-number",
        "model-id-array", "embedder-endpoint-no-scheme", "bench-concurrency-negative",
        "bench-concurrency-past-ceiling", "bench-n-samples-string",
        "bench-rng-seed-string", "bench-rng-seed-null", "validate-embedder-kind",
        "export-embedder-dimension-0", "distractors-dim-0", "distractors-k-0",
        "distractors-unknown-seed"])
def test_bad_input_is_config_error(world, capsys, command, change, message):
    """A bad config value exits 2, and the message names the config file."""
    if command == "distractors":
        path, argv = None, ["distractors", world.tmp_path / "catalogue.json", *change]
    elif command == "bench":
        path = _bench_config(world, **change)
        argv = ["bench", "run", path]
    else:
        out, path = world.tmp_path / "out", world.config_path
        corpus = [out / "corpus.jsonl", "--scenarios", out / "scenarios.jsonl"]
        if command in ("validate", "export"):
            assert run(["generate", "--config", path, "--seed-tools", SEED_TOOL]) == 0
        cfg = json.loads(path.read_text(encoding="utf-8"))
        if command == "backend":
            cfg["backends"]["assistant"].update(change)
        else:
            cfg.update(change)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = {"validate": ["validate", *corpus],
                "export": ["export", *corpus, "--out-dir", world.tmp_path / "sft"],
                }.get(command, ["generate", "--seed-tools", SEED_TOOL]) + ["--config", path]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert path is None or str(path) in err


_LONG_INT_CATALOGUE = "[" + "1" * 5000 + "]"
# a description holding "\xff" (y with diaeresis), written as Latin-1
_NOT_UTF8_CATALOGUE = json.dumps(CATALOGUE_TOOLS).replace(
    '"description": "', '"description": "\xff', 1).encode("latin-1")


@pytest.mark.parametrize("command, text", [
    ("generate", '[{"name": "t"}]'),
    ("bench", '[{"name": "t"}]'),
    ("generate", "[" * 5000),
    ("bench", "[" * 5000),
    ("lint", "[" * 5000),
    ("generate", _LONG_INT_CATALOGUE),
    ("bench", _LONG_INT_CATALOGUE),
    ("lint", _LONG_INT_CATALOGUE),
    ("generate", _NOT_UTF8_CATALOGUE),
    ("lint", _NOT_UTF8_CATALOGUE),
], ids=["generate", "bench", "generate-nested", "bench-nested", "lint-nested",
        "generate-long-int", "bench-long-int", "lint-long-int", "generate-not-utf8",
        "lint-not-utf8"])
def test_invalid_catalogue_is_exit_1(world, capsys, command, text):
    """A catalogue that exists but fails its own checks, is nested past the
    recursion limit, holds an integer past Python's digit limit or is not
    UTF-8, is invalid input, not a config error, even when a config file
    names it; no output file is written."""
    path = world.tmp_path / "catalogue.json"
    argv = {"bench": lambda: ["bench", "run", _bench_config(world)],
            "generate": lambda: ["generate", "--config", world.config_path],
            "lint": lambda: ["catalogue", "lint", path]}[command]()
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:")
    if command == "generate":
        assert not (world.tmp_path / "out").exists()
    if text == _NOT_UTF8_CATALOGUE:
        assert err.startswith("invalid input: malformed catalogue JSON: 'utf-8' codec "
                              "can't decode byte 0xff")
    if text == "[" * 5000:
        assert err.startswith("invalid input: malformed catalogue JSON: maximum recursion depth")
    if text == _LONG_INT_CATALOGUE:
        assert err.startswith("invalid input: malformed catalogue JSON: Exceeds the limit "
                              "(4300 digits)")


def _bom_case(world, kind: str):
    """(argv, the input file of ``kind`` it reads, the directory it writes
    or None) for one command that succeeds on the replay world."""
    tmp, config = world.tmp_path, world.config_path
    generate = ["generate", "--config", config, "--seed-tools", SEED_TOOL]
    if kind in ("config", "transcript", "personas", "catalogue"):
        path = {"config": config, "transcript": tmp / "transcripts.json",
                "personas": tmp / "personas.json", "catalogue": tmp / "catalogue.json"}[kind]
        return generate, path, tmp / "out"
    if kind == "judge":
        for t, grade in enumerate(("3", "3", "2"), start=1):
            world.transcript.register(rubric_request(world.expected_trace, t), grade, "m-rubric")
        world.transcript.save(tmp / "transcripts.json")
        (tmp / "judge.json").write_text(json.dumps(
            {"kind": "scripted", "model_id": "m-rubric", "transcript": "transcripts.json"}),
            encoding="utf-8")
    assert run(generate) == 0
    corpus, scenarios = tmp / "out" / "corpus.jsonl", tmp / "out" / "scenarios.jsonl"
    if kind in ("scenarios", "corpus"):
        return (["export", corpus, "--config", config, "--scenarios", scenarios,
                 "--out-dir", tmp / "sft"], corpus if kind == "corpus" else scenarios, tmp / "sft")
    if kind == "judge":
        return (["score", corpus, "--refs", scenarios, "--judge", tmp / "judge.json",
                 "--out", tmp / "score" / "report.json"], tmp / "judge.json", tmp / "score")
    static_candidate(world, (RAW_A1, RAW_A2_FILL, RAW_A3_CALL)).transcript.save(
        tmp / "cand_transcript.json")
    (tmp / "exclusions.json").write_text('["no-such-scenario"]', encoding="utf-8")
    bench_run = ["bench", "run", _bench_config(
        world, mode="static", gold_corpus="out/corpus.jsonl", exclusions="exclusions.json",
        assistant={"kind": "scripted", "model_id": "m-cand", "transcript": "cand_transcript.json"})]
    if kind == "bench-report":
        assert run(bench_run) == 0
        return ["bench", "report", tmp / "bench_out"], tmp / "bench_out" / "report.json", None
    return bench_run, {"gold-corpus": corpus, "exclusions": tmp / "exclusions.json"}[kind], \
        tmp / "bench_out"


@pytest.mark.parametrize("kind", [
    "config", "transcript", "personas", "catalogue", "scenarios", "corpus", "gold-corpus",
    "exclusions", "judge", "bench-report"])
def test_leading_bom_is_skipped_in_every_input_file(world, capsys, kind):
    """A UTF-8 BOM at the start of any input file is skipped, as in a remote
    reply: the command exits, prints and writes as it does without one."""
    argv, path, out = _bom_case(world, kind)
    seen = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(prefix + path.read_bytes())
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()
        code = run(argv)
        written = {} if out is None else {
            str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}
        seen.append((code, capsys.readouterr().out, written))
    assert seen[0][0] == 0
    assert seen[1] == seen[0]


def _unreadable_input(world, case: str):
    """(argv, the path the error must name) for one unreadable input."""
    tmp, config = world.tmp_path, world.config_path
    missing, empty = tmp / "missing.jsonl", tmp / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    generate = ["generate", "--config", config]
    if case == "critique-transcript-missing":
        cfg = json.loads(config.read_text(encoding="utf-8"))
        cfg["concurrency"] = 4
        cfg["backends"]["critique"]["transcript"] = missing.name
        config.write_text(json.dumps(cfg), encoding="utf-8")
        return generate, missing
    if case in ("transcript-not-json", "transcript-not-object", "transcript-reply-number"):
        text = {"transcript-not-json": "not json", "transcript-not-object": "[]",
                "transcript-reply-number": json.dumps({"0" * 64: [5]})}[case]
        (tmp / "transcripts.json").write_text(text, encoding="utf-8")
        return generate, tmp / "transcripts.json"
    if case == "personas-not-array":
        (tmp / "personas.json").write_text('{"persona": "a trader"}', encoding="utf-8")
        return generate, tmp / "personas.json"
    if case == "config-not-object":
        config.write_text("[]", encoding="utf-8")
        return generate, config
    if case in ("config-nested", "bench-config-nested"):
        argv, path = generate, config
        if case == "bench-config-nested":
            argv, path = ["bench", "run", _bench_config(world)], tmp / "bench.json"
        path.write_text('{"a": ' * 5000 + "1" + "}" * 5000, encoding="utf-8")
        return argv, path
    if case in ("generate-outdir-file", "bench-outdir-file"):
        blocker = tmp / "blocker.txt"
        blocker.write_text("", encoding="utf-8")
        if case == "bench-outdir-file":
            return ["bench", "run", _bench_config(world, out_dir=blocker.name)], blocker
        cfg = json.loads(config.read_text(encoding="utf-8"))
        cfg["out_dir"] = blocker.name
        config.write_text(json.dumps(cfg), encoding="utf-8")
        return generate, blocker
    if case == "bench-empty-scenarios":
        return ["bench", "run", _bench_config(world, scenarios=empty.name)], empty
    if case == "bench-all-excluded":
        exclusions = tmp / "exclusions.json"
        exclusions.write_text(json.dumps([world.scenario.scenario_id]), encoding="utf-8")
        return ["bench", "run", _bench_config(world, exclusions=exclusions.name)], exclusions
    if case == "bench-exclusions-missing":
        return ["bench", "run", _bench_config(world, exclusions=missing.name)], missing
    if case == "bench-exclusions-not-array":
        (tmp / "exclusions.json").write_text("5", encoding="utf-8")
        return (["bench", "run", _bench_config(world, exclusions="exclusions.json")],
                tmp / "exclusions.json")
    if case == "bench-catalogue-missing":
        return ["bench", "run", _bench_config(world, catalogue=missing.name)], missing
    if case.startswith("bench-report-"):
        report = {"bench-report-not-object": [],
                  "bench-report-ngd-number": {"acc": 1, "ngd": 5},
                  "bench-report-metric-text": {"acc": "x"},
                  "bench-report-metric-bool": {"acc": 1.0, "ttr": True},
                  "bench-report-ngd-value-text": {"ngd": {"2": "x"}},
                  "bench-report-per-dialogue-object": {"per_dialogue": {}}}[case]
        (tmp / "report.json").write_text(json.dumps(report), encoding="utf-8")
        return ["bench", "report", tmp], tmp / "report.json"
    bad = tmp / "bad.jsonl"
    if case in UNKNOWN_TOOL_CASES:
        scn = world.scenario.to_dict()
        if case == "validate-unknown-seed-tool":
            scn["seed_tool"] = "no_such_tool"
            scn["scenario_id"] = f"no_such_tool@{scn['rng_seed']}"
        elif case == "export-unknown-pool-tool":
            scn["pool"].append("no_such_tool")
        else:
            scn["distractors"]["members"].append(["no_such_tool", 0.5])
        scenarios = tmp / "bad_scenarios.jsonl"
        scenarios.write_text(json.dumps(scn) + "\n", encoding="utf-8")
        if case == "bench-unknown-distractor-tool":
            return ["bench", "run", _bench_config(world, scenarios=scenarios.name)], scenarios
        trace = {**world.expected_trace.to_dict(),
                 "scenario_ref": f"{scn['seed_tool']}@{scn['rng_seed']}"}
        bad.write_text(json.dumps(trace) + "\n", encoding="utf-8")
        if case == "validate-unknown-seed-tool":
            return ["validate", bad, "--config", config, "--scenarios", scenarios,
                    "--out", tmp / "reports" / "reports.jsonl"], scenarios
        return ["export", bad, "--config", config, "--scenarios", scenarios,
                "--out-dir", tmp / "sft"], scenarios
    if case in ("scenario-missing-seed-tool", "scenario-line-array"):
        line = {"persona": "a trader"} if case == "scenario-missing-seed-tool" else [1, 2]
        bad.write_text(json.dumps(line) + "\n", encoding="utf-8")
        return ["stats", empty, "--scenarios", bad], bad
    if case == "scenario-seed-text":
        line = {**world.scenario.to_dict(), "rng_seed": "abc"}
        bad.write_text(json.dumps(line) + "\n", encoding="utf-8")
        return ["stats", empty, "--scenarios", bad], bad
    if case in DISTRACTOR_CASES:
        line = world.scenario.to_dict()
        distractors = line["distractors"]
        if case == "distractor-seed-number":
            distractors["seed"] = 5
        else:
            member = {"distractor-score-bool": ["t", True], "distractor-score-text": ["t", "0.5"],
                      "distractor-member-triple": ["t", 0.5, 1],
                      "distractor-score-huge-int": ["t", 10**400]}[case]
            distractors["members"].append(member)
        bad.write_text(json.dumps(line) + "\n", encoding="utf-8")
        return ["stats", empty, "--scenarios", bad], bad
    if case == "corpus-role-tool":
        trace = {"dialogue_id": "d", "scenario_ref": "s",
                 "messages": [{"role": "tool", "content": "x"}]}
        bad.write_text(json.dumps(trace) + "\n", encoding="utf-8")
        return ["stats", bad, "--scenarios", empty], bad
    if case == "bench-gold-missing":
        return ["bench", "run", _bench_config(world, mode="static",
                                               gold_corpus=missing.name)], missing
    if case == "bench-gold-odd":
        gold = {"dialogue_id": "gold-odd", "scenario_ref": world.scenario.scenario_id,
                "messages": [{"role": "user", "content": "hello"}]}
        bad.write_text(json.dumps(gold) + "\n", encoding="utf-8")
        return ["bench", "run", _bench_config(world, mode="static", gold_corpus=bad.name)], bad
    if case == "score-renamed-scenario-id":
        scenarios = tmp / "scenarios.jsonl"
        scenarios.write_text(json.dumps({**world.scenario.to_dict(), "scenario_id": "custom-0"})
                             + "\n", encoding="utf-8")
        trace = {**world.expected_trace.to_dict(), "scenario_ref": "custom-0"}
        bad.write_text(json.dumps(trace) + "\n", encoding="utf-8")
        return ["score", bad, "--refs", scenarios], scenarios
    if case in ("stats-unknown-scenario", "score-unknown-scenario"):
        trace = {**world.expected_trace.to_dict(), "scenario_ref": "unknown"}
        bad.write_text(json.dumps(trace) + "\n", encoding="utf-8")
        if case == "stats-unknown-scenario":
            return ["stats", bad, "--scenarios", empty], bad
        return ["score", bad, "--refs", empty], bad
    if case in ("score-out-parent-file", "validate-out-parent-file", "stats-out-directory",
                "corpus-content-number", "corpus-call-args-array"):
        scenarios = tmp / "scenarios.jsonl"
        scenarios.write_text(json.dumps(world.scenario.to_dict()) + "\n", encoding="utf-8")
        trace = world.expected_trace.to_dict()
        if case == "corpus-content-number":
            trace["messages"][0]["content"] = 5
        elif case == "corpus-call-args-array":
            trace["messages"][-1]["tool_calls"][0]["args"] = []
        bad.write_text(json.dumps(trace) + "\n", encoding="utf-8")
        blocker = tmp / "blocker.txt"
        blocker.write_text("", encoding="utf-8")
        return {
            "score-out-parent-file": (["score", bad, "--refs", scenarios,
                                       "--out", blocker / "report.json"], blocker),
            "validate-out-parent-file": (["validate", bad, "--config", config, "--scenarios",
                                          scenarios, "--out", blocker / "reports.jsonl"], blocker),
            "stats-out-directory": (["stats", bad, "--scenarios", scenarios, "--out", tmp], tmp),
        }.get(case, (["export", bad, "--config", config, "--scenarios", scenarios,
                      "--out-dir", tmp / "sft"], bad))
    if case == "score-empty-corpus":
        scenarios = tmp / "scenarios.jsonl"
        scenarios.write_text(json.dumps(world.scenario.to_dict()) + "\n", encoding="utf-8")
        return ["score", empty, "--refs", scenarios], empty
    if case in ("stats-cut-short", "stats-null-boundary"):
        assert run(["generate", "--config", config]) == 0
        corpus = (tmp / "out" / "corpus.jsonl").read_text(encoding="utf-8")
        records = [json.loads(line) for line in corpus.splitlines()]
        if case == "stats-cut-short":
            records[-1]["messages"].pop()
        else:
            records[-1]["phase_boundary"] = None
        bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return ["stats", bad, "--scenarios", tmp / "out" / "scenarios.jsonl"], bad
    return {
        "validate-corpus-missing": ["validate", missing, "--config", config,
                                    "--scenarios", empty],
        "export-corpus-missing": ["export", missing, "--config", config,
                                  "--scenarios", empty, "--out-dir", tmp / "sft"],
        "stats-corpus-missing": ["stats", missing, "--scenarios", empty],
        "score-refs-missing": ["score", empty, "--refs", missing],
    }[case], missing


UNKNOWN_TOOL_CASES = ("validate-unknown-seed-tool", "export-unknown-pool-tool",
                      "bench-unknown-distractor-tool")
# each a scenario line whose distractors hold a value of the wrong JSON type
DISTRACTOR_CASES = {"distractor-seed-number": "distractors seed must be a string",
                    "distractor-score-bool": "distractor score must be a number",
                    "distractor-score-text": "distractor score must be a number",
                    "distractor-member-triple": "distractor member must be a [name, score] pair",
                    "distractor-score-huge-int": "distractor score must be a number within "
                                                 "float range"}


@pytest.mark.parametrize("case", [
    "critique-transcript-missing", "transcript-not-json", "transcript-not-object",
    "transcript-reply-number", "personas-not-array",
    "validate-corpus-missing", "export-corpus-missing", "stats-corpus-missing",
    "score-refs-missing", "bench-exclusions-missing", "bench-gold-missing",
    "config-not-object", "config-nested", "bench-config-nested", "bench-exclusions-not-array",
    "bench-catalogue-missing",
    "bench-report-not-object", "bench-report-ngd-number", "bench-report-metric-text",
    "bench-report-metric-bool", "bench-report-ngd-value-text",
    "bench-report-per-dialogue-object", "scenario-missing-seed-tool", "scenario-line-array",
    "scenario-seed-text", "corpus-role-tool", "stats-unknown-scenario",
    "score-unknown-scenario", "score-renamed-scenario-id", "stats-cut-short",
    "stats-null-boundary", "score-empty-corpus",
    "bench-gold-odd", "generate-outdir-file", "bench-outdir-file", "bench-empty-scenarios",
    "bench-all-excluded", "score-out-parent-file", "validate-out-parent-file",
    "stats-out-directory", "corpus-content-number", "corpus-call-args-array",
    *UNKNOWN_TOOL_CASES, *DISTRACTOR_CASES])
def test_unreadable_input_is_config_error(world, capsys, case):
    argv, path = _unreadable_input(world, case)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err
    if case == "bench-all-excluded":
        assert not (world.tmp_path / "bench_out").exists()
    if case == "bench-gold-odd":
        assert "'gold-odd'" in err
    if case == "score-renamed-scenario-id":
        assert (f"scenario scenario_id must be {world.scenario.scenario_id!r}, "
                "got 'custom-0'") in err
    if case in ("config-nested", "bench-config-nested"):
        what = "bench config" if case == "bench-config-nested" else "config"
        assert err.startswith(f"config error: cannot load {what} {path}: maximum recursion")
    if case == "critique-transcript-missing":
        assert not (world.tmp_path / "out").exists()
    if case in DISTRACTOR_CASES:
        assert DISTRACTOR_CASES[case] in err
    if case in UNKNOWN_TOOL_CASES:
        assert "unknown tool 'no_such_tool'" in err
        assert not any((world.tmp_path / d).exists() for d in ("reports", "sft", "bench_out"))


@pytest.mark.parametrize("command, name", [
    ("generate", "corpus.jsonl"), ("generate", "rejected.jsonl"),
    ("generate", "scenarios.jsonl"), ("export", "samples.jsonl"), ("export", "manifest.json"),
    ("bench", "traces.jsonl"), ("bench", "report.json")])
def test_output_file_that_is_a_directory_is_config_error(world, capsys, monkeypatch,
                                                         command, name):
    """Every file a command writes is checked before its work starts: one
    that is an existing directory exits 2 naming it, with no index built, no
    LLM call made and nothing written beside it."""
    tmp = world.tmp_path
    if command == "generate":
        argv, out_dir = ["generate", "--config", world.config_path], tmp / "out"
    elif command == "export":
        assert run(["generate", "--config", world.config_path]) == 0
        out_dir = tmp / "sft"
        argv = ["export", tmp / "out" / "corpus.jsonl", "--config", world.config_path,
                "--scenarios", tmp / "out" / "scenarios.jsonl", "--out-dir", out_dir]
    else:
        argv, out_dir = ["bench", "run", _bench_config(world)], tmp / "bench_out"
    blocker = out_dir / name
    blocker.mkdir(parents=True)

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(retrieval.HashEmbedder, "count_many", no_work)
    monkeypatch.setattr(Transcript, "lookup", no_work)
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == f"config error: output file {blocker} is a directory\n"
    assert list(out_dir.iterdir()) == [blocker]


@pytest.mark.parametrize("command, repeated", [
    ("validate", "scenario"), ("export", "scenario"), ("stats", "scenario"),
    ("score", "scenario"), ("static", "scenario"), ("dynamic", "scenario"),
    ("static", "gold")])
def test_repeated_scenario_id_is_config_error(world, capsys, monkeypatch, command, repeated):
    """A scenario file that repeats a scenario id, or a static gold corpus
    with two dialogues for one scenario, exits 2 naming the file and the id
    before any output or LLM call: no later line silently replaces an
    earlier one (here, one with other gold args)."""
    tmp, out = world.tmp_path, world.tmp_path / "out"
    # writes the bench config and generates the scenario and its dialogue
    bench = _bench_config(world, out_dir="sft", **(
        {"mode": "static", "gold_corpus": "out/corpus.jsonl"} if command == "static" else {}))
    path = out / ("corpus.jsonl" if repeated == "gold" else "scenarios.jsonl")
    [line] = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(line)
    if repeated == "gold":
        record["dialogue_id"] += "-again"
        message = (f"cannot load bench config {bench}: gold corpus {path} repeats a dialogue "
                   f"for scenario {record['scenario_ref']!r}")
    else:
        record["gold_args"] = {}
        message = f"cannot load scenario file {path}: repeated scenario id {record['scenario_id']!r}"
    path.write_text(f"{line}\n{json.dumps(record)}\n", encoding="utf-8")
    corpus = [out / "corpus.jsonl", "--scenarios", out / "scenarios.jsonl"]
    argv = {"validate": ["validate", *corpus, "--config", world.config_path,
                         "--out", tmp / "sft" / "reports.jsonl"],
            "export": ["export", *corpus, "--config", world.config_path, "--out-dir", tmp / "sft"],
            "stats": ["stats", *corpus, "--out", tmp / "sft" / "stats.json"],
            "score": ["score", out / "corpus.jsonl", "--refs", out / "scenarios.jsonl",
                      "--out", tmp / "sft" / "score.json"],
            }.get(command, ["bench", "run", bench])

    def no_call(*args):
        raise AssertionError("LLM call made")

    monkeypatch.setattr(Transcript, "lookup", no_call)
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp / "sft").exists()


def test_roles_share_one_transcript(world, monkeypatch):
    cfg = load_pipeline_config(world.config_path)
    assert cfg.backends["goal"].transcript is cfg.backends["critique"].transcript
    reads = []
    load = Transcript.load.__func__

    def counting_load(cls, path):
        reads.append(path)
        return load(cls, path)

    monkeypatch.setattr(Transcript, "load", classmethod(counting_load))
    assert run(["generate", "--config", world.config_path]) == 0
    assert len(reads) == 1


def test_generate_errored_dialogue_exits_1(world, capsys):
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    cfg["backends"]["goal"]["model_id"] = "m-unscripted"
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 1
    assert "errors=1" in capsys.readouterr().out
    for name in ("corpus.jsonl", "rejected.jsonl", "scenarios.jsonl"):
        assert (world.tmp_path / "out" / name).exists()


def test_generate_errors_do_not_depend_on_concurrency(world, capsys):
    """A run with one dialogue whose scenario fails and one whose synthesis
    fails gives the same exit code, stdout, stderr and output bytes at
    concurrency 1 and 8; only the second keeps its scenario line."""
    name = "fn_4401_freight_rate_lookup"
    rng_seed = split_seed(ROOT_SEED, f"dialogue:{name}")
    tool = world.cat.get(name)
    persona = sample_persona(world.personas, world.tools.rows([world.cat.index[name]])[0], 10,
                             split_seed(rng_seed, "persona"))
    del world.transcript.replies[fingerprint("m-goal", goal_request(tool, persona, rng_seed, 0))]
    del world.transcript.replies[fingerprint("m-asst", world.commit_request)]
    world.transcript.save(world.tmp_path / "transcripts.json")
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    out_dir = world.tmp_path / "out"
    runs = []
    for concurrency in (1, 8):
        cfg["concurrency"] = concurrency
        world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
        shutil.rmtree(out_dir, ignore_errors=True)
        capsys.readouterr()
        code = run(["generate", "--config", world.config_path])
        stdout, stderr = capsys.readouterr()
        runs.append((code, stdout, stderr,
                     {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}))
    assert runs[0] == runs[1]
    code, stdout, stderr, files = runs[0]
    assert code == 1 and "accepted=4 rejected=0 errors=2" in stdout
    assert [line.split(":")[0] for line in stderr.splitlines()] == [
        f"error on {n}" for n in world.cat.names() if n in (SEED_TOOL, name)]
    seed_tools = [json.loads(line)["seed_tool"]
                  for line in files["scenarios.jsonl"].decode("utf-8").splitlines()]
    assert SEED_TOOL in seed_tools and name not in seed_tools and len(seed_tools) == 5


# ---------------------------------------------------------------------------
# config loader details


def test_relative_paths_resolve_against_config_dir(world):
    cfg = load_pipeline_config(world.config_path)
    assert cfg.catalogue.exists()
    loaded = Transcript.load(world.tmp_path / "transcripts.json")
    assert cfg.backends["assistant"].transcript.replies == loaded.replies


# ---------------------------------------------------------------------------
# item-ordered output: each item's lines land as soon as it finishes

GENERATE_OUTPUTS = ("corpus.jsonl", "rejected.jsonl", "scenarios.jsonl")


def _reject_seed_dialogue(world) -> None:
    """The critique judge fails the seed dialogue, so rejected.jsonl is not empty."""
    critique = judge_requests(world.expected_trace, world.scenario, world.cat)["critique"]
    world.transcript.register(critique, "FAIL: the user volunteered every value", "m-crit")
    world.transcript.save(world.tmp_path / "transcripts.json")


def _set_config(world, **changes) -> None:
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    world.config_path.write_text(json.dumps({**cfg, **changes}), encoding="utf-8")


def _outputs(out) -> dict[str, bytes]:
    """The bytes of each generate output in ``out`` that exists."""
    return {name: (out / name).read_bytes() for name in GENERATE_OUTPUTS
            if (out / name).exists()}


def _generated(world, names=None) -> dict[str, bytes]:
    """The bytes of each output of a generate run over ``names`` (default:
    every catalogue tool), which must exit 0."""
    seed_tools = ["--seed-tools", ",".join(names)] if names is not None else []
    assert run(["generate", "--config", world.config_path, *seed_tools]) == 0
    return _outputs(world.tmp_path / "out")


def _opening(world, name: str) -> str:
    """The fingerprint of the user proxy's opening request for seed tool
    ``name``, read from the last generate run's scenario file."""
    scn = next(s for s in cli.load_scenarios(world.tmp_path / "out" / "scenarios.jsonl").values()
               if s.seed_tool == name)
    return fingerprint("m-user", user_request(user_system_prompt(scn, world.cat), [],
                                              split_seed(scn.rng_seed, "sel:0:user:0")))


@pytest.mark.parametrize("concurrency", [1, 4])
def test_generate_over_a_partition_of_seed_tools_joins_to_the_whole_run(world, concurrency):
    """M7: generate over each part of a split of the seed tools, the parts'
    files joined in order, gives the whole run's bytes."""
    _reject_seed_dialogue(world)
    _set_config(world, concurrency=concurrency)
    names = world.cat.names()
    whole = _generated(world)
    assert all(whole.values())
    for cuts in ((3,), (1, 5), (1, 2, 3, 4, 5)):
        parts = [_generated(world, names[a:b])
                 for a, b in zip((0, *cuts), (*cuts, len(names)))]
        assert {name: b"".join(part[name] for part in parts) for name in GENERATE_OUTPUTS} == whole


K = 4  # the item that fails in the tests below, counted from 1


@pytest.mark.parametrize("concurrency", [1, 4])
def test_generate_uncaught_error_keeps_the_finished_prefix(world, monkeypatch, concurrency):
    """Item K failing outside the dialogue errors ends generate; each file
    then holds exactly the lines of items 1..K-1, the first lines of the
    uninterrupted run's file."""
    _reject_seed_dialogue(world)
    _set_config(world, concurrency=concurrency)
    names = world.cat.names()
    whole, head = _generated(world), _generated(world, names[:K - 1])
    synthesize = cli.synthesize_dialogue

    def failing(scn, *args):
        if scn.seed_tool == names[K - 1]:
            raise RuntimeError("not a dialogue error")
        return synthesize(scn, *args)

    monkeypatch.setattr(cli, "synthesize_dialogue", failing)
    shutil.rmtree(world.tmp_path / "out")
    with pytest.raises(RuntimeError, match="not a dialogue error"):
        run(["generate", "--config", world.config_path])
    assert _outputs(world.tmp_path / "out") == head
    assert all(whole[name].startswith(head[name]) for name in GENERATE_OUTPUTS)
    assert head["scenarios.jsonl"].count(b"\n") == K - 1 and head["rejected.jsonl"]


def _interrupted_lines(path, argv, fail) -> tuple[list[bytes], bytes]:
    """The lines of ``path`` after an uninterrupted ``argv`` run, and its
    bytes after a second run, once ``fail(dialogue_id)`` has made the item
    of the K-th line raise a RuntimeError."""
    assert run(argv) == 0
    whole = path.read_bytes().splitlines(keepends=True)
    fail(json.loads(whole[K - 1])["dialogue_id"])
    with pytest.raises(RuntimeError, match="not a dialogue error"):
        run(argv)
    return whole, path.read_bytes()


@pytest.mark.parametrize("concurrency", [1, 4])
def test_validate_uncaught_error_keeps_the_finished_prefix(world, monkeypatch, concurrency):
    out = world.tmp_path / "out"
    _generated(world)
    _set_config(world, concurrency=concurrency)
    reports = world.tmp_path / "reports.jsonl"
    cascade = cli.run_cascade

    def fail(dialogue_id):
        def failing(trace, *args):
            if trace.dialogue_id == dialogue_id:
                raise RuntimeError("not a dialogue error")
            return cascade(trace, *args)
        monkeypatch.setattr(cli, "run_cascade", failing)

    whole, kept = _interrupted_lines(reports, [
        "validate", out / "corpus.jsonl", "--config", world.config_path,
        "--scenarios", out / "scenarios.jsonl", "--out", reports], fail)
    assert len(whole) == 6 and kept == b"".join(whole[:K - 1])


@pytest.mark.parametrize("concurrency", [1, 4])
def test_bench_uncaught_error_keeps_the_finished_prefix(world, monkeypatch, concurrency):
    _generated(world)
    _script_static_bench(world)
    path = world.tmp_path / "bench.json"
    path.write_text(json.dumps({
        "mode": "static", "catalogue": "catalogue.json", "scenarios": "bench_scenarios.jsonl",
        "gold_corpus": "out/corpus.jsonl", "rng_seed": 1, "out_dir": "bench-out",
        "concurrency": concurrency,
        "assistant": {"kind": "scripted", "model_id": "m-cand",
                      "transcript": "transcripts.json"}}), encoding="utf-8")
    eval_static = harness.eval_static

    def fail(dialogue_id):
        def failing(task, *args):
            if f"{task.scenario.scenario_id}#static" == dialogue_id:
                raise RuntimeError("not a dialogue error")
            return eval_static(task, *args)
        monkeypatch.setattr(harness, "eval_static", failing)

    whole, kept = _interrupted_lines(world.tmp_path / "bench-out" / "traces.jsonl",
                                     ["bench", "run", path], fail)
    assert len(whole) == 6 and kept == b"".join(whole[:K - 1])


def test_finished_lines_are_readable_while_a_later_item_runs(world, loopback):
    """At concurrency 2, while the server holds back the last dialogue's
    opening, a separate reader sees every earlier dialogue's lines."""
    names = world.cat.names()
    head, whole = _generated(world, names[:-1]), _generated(world)
    held, release = _opening(world, names[-1]), threading.Event()
    replay = transcript_responder(world.transcript, {})

    def respond(body):
        if fingerprint(body["model"], chat_request(body)) == held:
            release.wait(10)
        return replay(body)

    endpoint, _ = loopback(respond)
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    _set_config(world, concurrency=2, out_dir="remote-out", backends={
        role: {"kind": "remote", "endpoint": endpoint, "model_id": spec["model_id"]}
        for role, spec in cfg["backends"].items()})
    codes = []
    thread = threading.Thread(
        target=lambda: codes.append(run(["generate", "--config", world.config_path])))
    thread.start()
    out, deadline = world.tmp_path / "remote-out", time.monotonic() + 10
    try:
        while _outputs(out) != head and time.monotonic() < deadline:
            time.sleep(0.01)
        seen = _outputs(out)
    finally:
        release.set()
        thread.join(30)
    assert seen == head
    assert codes == [0] and _outputs(out) == whole


def test_blank_user_proxy_reply_costs_one_dialogue(world, capsys):
    """A user-proxy opening that strips to nothing costs its dialogue, not
    the run: the other dialogues keep their lines."""
    names = world.cat.names()
    head, whole = _generated(world, names[:-1]), _generated(world)
    world.transcript.replies[_opening(world, names[-1])] = ["   "]
    world.transcript.save(world.tmp_path / "transcripts.json")
    capsys.readouterr()
    assert run(["generate", "--config", world.config_path]) == 1
    stdout, stderr = capsys.readouterr()
    assert "accepted=5 rejected=0 errors=1" in stdout
    assert stderr == f"error on {names[-1]}: user proxy reply is blank\n"
    out = _outputs(world.tmp_path / "out")
    assert out["corpus.jsonl"] == head["corpus.jsonl"]
    assert out["scenarios.jsonl"] == whole["scenarios.jsonl"]  # the scenario was built


def test_remote_reply_utf8_cannot_encode_costs_one_dialogue(world, capsys, loopback):
    """A remote user proxy whose reply ends in the JSON escape of a lone
    surrogate gives a malformed reply, which costs its dialogue, not the
    run: the other dialogues keep their lines."""
    names = world.cat.names()
    head, whole = _generated(world, names[:-1]), _generated(world)
    opening = _opening(world, names[-1])

    def respond(model_id, request):
        fp = fingerprint(model_id, request)
        reply = world.transcript.lookup(fp, 1)[0]
        return (reply + "\ud83d" if fp == opening else reply), 0.0

    endpoint, _ = loopback(chat(respond))
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    cfg["backends"]["user_proxy"] = {"kind": "remote", "model_id": "m-user",
                                     "endpoint": endpoint, "retry_limit": 2}
    world.config_path.write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    assert run(["generate", "--config", world.config_path]) == 1
    stdout, stderr = capsys.readouterr()
    assert "accepted=5 rejected=0 errors=1" in stdout
    assert stderr.startswith(f"error on {names[-1]}: {endpoint} returned a malformed reply: "
                             + _LONE)
    out = _outputs(world.tmp_path / "out")
    assert out["corpus.jsonl"] == head["corpus.jsonl"]
    assert out["scenarios.jsonl"] == whole["scenarios.jsonl"]


def test_generate_slots_role_supplies_the_gold_arguments(world, monkeypatch):
    """A ``slots`` backend with its own model id answers the slot request;
    the goal backend gets none."""
    tool, persona = world.cat.get(SEED_TOOL), world.scenario.persona
    request = slots_request(tool, persona, world.rng_seed, 0)
    del world.transcript.replies[fingerprint("m-goal", request)]
    world.transcript.register(request, json.dumps(GOLD_ARGS), "m-slots")
    world.transcript.save(world.tmp_path / "transcripts.json")
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    _set_config(world, backends={**cfg["backends"], "slots": {
        "kind": "scripted", "model_id": "m-slots", "transcript": "transcripts.json"}})
    calls, complete = [], scenario.complete
    monkeypatch.setattr(scenario, "complete",
                        lambda backend, req: calls.append((backend.model_id, req))
                        or complete(backend, req))
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 0
    [line] = (world.tmp_path / "out" / "scenarios.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["gold_args"] == GOLD_ARGS
    assert calls == [("m-goal", goal_request(tool, persona, world.rng_seed, 0)),
                     ("m-slots", request)]
