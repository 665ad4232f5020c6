import json
import sys
import time

import pytest

from forge import retrieval
from forge.cli import load_pipeline_config, main

from conftest import CATALOGUE_TOOLS, SEED_TOOL, build_replay_world


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


def test_score_with_scripted_rubric_judge(world):
    from forge.metrics import rubric_request

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


# ---------------------------------------------------------------------------
# bench


def test_bench_static_run_and_report(world, capsys):
    run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL])
    out = world.tmp_path / "out"
    # candidate assistant = the same scripted synthesis assistant is not
    # keyed for eval requests, so script a dedicated candidate
    from forge.engine import UserTurn, assistant_request, selection_system_prompt
    from forge.gateway import Transcript
    from forge.seeds import split_seed
    from conftest import RAW_A1, RAW_A2_FILL, RAW_A3_CALL
    from forge.engine import parse_assistant_output

    scn = world.scenario
    transcript = Transcript()
    sys_a = selection_system_prompt(world.cat, scn.pool, world.ecfg)
    messages = []
    for t, reply in enumerate((RAW_A1, RAW_A2_FILL, RAW_A3_CALL), start=1):
        gold_user = world.expected_trace.turns()[t - 1][0]
        messages.append(UserTurn(gold_user.text))
        req = assistant_request(sys_a, messages,
                                split_seed(scn.rng_seed, f"static:asst:{t}"), world.ecfg)
        transcript.register(req, reply, "m-cand")
        messages.append(parse_assistant_output(reply))
    transcript.save(world.tmp_path / "cand_transcript.json")
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
    assert (bench_out / "traces.jsonl").exists()
    audit_files = list((bench_out / "audit").glob("*.json"))
    assert len(audit_files) == 1
    capsys.readouterr()
    assert run(["bench", "report", bench_out]) == 0
    printed = capsys.readouterr().out
    assert "ACC" in printed and "1.0000" in printed


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
    assert "expected a JSON object" in capsys.readouterr().err


def test_bench_zero_samples_is_config_error(world, capsys):
    path = _bench_config(world, n_samples=0)
    assert run(["bench", "run", path]) == 2
    assert "n_samples" in capsys.readouterr().err


def test_generate_turn_cap_below_two_is_config_error(world, capsys):
    cfg = json.loads(world.config_path.read_text(encoding="utf-8"))
    world.config_path.write_text(json.dumps({**cfg, "t_max": 1}), encoding="utf-8")
    assert run(["generate", "--config", world.config_path, "--seed-tools", SEED_TOOL]) == 2
    assert "t_max" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config loader details


def test_relative_paths_resolve_against_config_dir(world):
    cfg = load_pipeline_config(world.config_path)
    assert cfg.catalogue.exists()
    assert cfg.backends["assistant"].transcript_path == str(
        world.tmp_path / "transcripts.json")
