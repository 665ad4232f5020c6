"""Offline end-to-end and per-layer benchmark for forge.

Usage (from the repository root):

    python3 bench/run.py --workload gen-wide-5k --seed 1 --seconds 25 --trace 0

Setup generates seeded synthetic inputs in a child process (workloads.py)
and starts the loopback stub if the workload has one; it runs several times
and is reported as a median. Then one round of real ``forge`` CLI calls, run
in-process through ``forge.cli.main``, repeats until ``--seconds`` have
passed, and after every round the outputs are checked against the plan.
Times carry CPU time at a reference speed (see speed.py). With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and it carries
the per-layer metrics named in BENCHMARK.json. ``--corrupt`` alters one
planned reply after setup, to show that the correctness gate catches it.
See bench/README.md for the workloads and the layer -> end-to-end map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUPS = 3


@dataclass
class Setup:
    """Everything one round needs: the CLI calls and the plan to check."""

    commands: list[tuple[str, list[str]]]  # (label, argv); every call must exit 0
    dialogue_command: str  # label prefix whose time gives dialogues_per_s
    dialogues: int  # planned dialogues or tasks per round
    plan: dict  # plan.json written by workloads.py
    directory: Path
    expected: set[str]  # traced bindings that must fire
    stub: "StubProcess | None" = None


@dataclass
class Round:
    command_s: dict[str, float]  # label -> seconds, CPU time at the reference speed
    raw_s: float  # seconds of all commands as measured, speed samples included
    failed: int
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.command_s.values())


# ---------------------------------------------------------------------------
# loopback stub process


class StubProcess:
    def __init__(self, replies: Path, latency_ms: float, fail_share: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(replies),
             "--latency-ms", str(latency_ms), "--fail-share", str(fail_share)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError("loopback stub did not start")
        self.port = json.loads(line)["port"]
        self.endpoint = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self) -> dict:
        import requests

        return requests.get(f"http://127.0.0.1:{self.port}/stats", timeout=10).json()

    def stop(self) -> dict:
        """Close the stub's stdin, wait for it to exit and return its final
        counters."""
        try:
            out, _ = self.proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


# ---------------------------------------------------------------------------
# workloads

WORKLOADS = ("gen-wide-5k", "pipeline-deep", "bench-dynamic-loopback")

_GEN_EXPECTED = {
    "cli.main", "cli.cmd_generate", "cli.load_catalogue", "cli.build_scenario",
    "scenario.nearest_distractors", "scenario.candidate_pool", "scenario.sample_persona",
    "scenario.complete", "scenario.goal_request", "scenario.slots_request",
    "cli.synthesize_dialogue", "engine.run_tool_selection", "engine.search_catalogue",
    "engine.complete", "engine.parse_assistant_output", "engine.assistant_request",
    "engine.user_request", "cli.run_cascade", "cli.write_jsonl", "gateway.fingerprint",
    "retrieval.HashEmbedder.embed", "gateway.Transcript.lookup",
}

# Traced bindings that must fire on each workload.
EXPECTED = {
    "gen-wide-5k": _GEN_EXPECTED,
    "pipeline-deep": _GEN_EXPECTED | {
        "validation.complete", "validation.validate_llm", "cli.cmd_validate",
        "cli.cmd_export", "cli.cmd_score", "cli.slice_dialogue", "cli.export",
        "cli.score_corpus", "metrics.complete", "metrics.rubric_request", "cli.load_traces",
        "cli.load_scenarios", "engine.run_param_filling"},
    "bench-dynamic-loopback": {
        "cli.main", "cli.cmd_bench_run", "cli.load_catalogue", "cli.load_scenarios",
        "cli.run_benchmark", "harness.vote_utterance", "harness.sample_n", "harness.complete",
        "harness.score_corpus", "metrics.complete", "metrics.rubric_request",
        "gateway.post_json", "http.send", "cli.write_jsonl"},
}


def make_setup(workload: str, seed: int, directory: Path) -> Setup:
    """Generate the inputs in a child process, then start the stub if the
    workload has one."""
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), workload, str(seed),
                           str(directory)], capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr[-3000:]}")
    plan = json.loads((directory / "plan.json").read_text(encoding="utf-8"))
    expected = set(EXPECTED[workload])
    if workload == "bench-dynamic-loopback":
        from forge import harness

        # the decode helper is private: expected only while it exists
        if hasattr(harness, "_decode_assistant"):
            expected.add("harness._decode_assistant")
    setup = Setup(commands=[(label, argv) for label, argv in plan["commands"]],
                  dialogue_command=plan["dialogue_command"], dialogues=plan["dialogues"],
                  plan=plan, directory=directory, expected=expected)
    if "stub" in plan:
        start_stub(setup)
    return setup


def start_stub(setup: Setup) -> None:
    spec = setup.plan["stub"]
    setup.stub = StubProcess(setup.directory / spec["replies"], spec["latency_ms"],
                             spec["fail_share"])
    config = dict(spec["config"])
    for role, model_id in spec["roles"].items():
        config[role] = {"kind": "remote", "model_id": model_id,
                        "endpoint": setup.stub.endpoint, "timeout": 30}
    (setup.directory / "bench.json").write_text(json.dumps(config), encoding="utf-8")


def _read_jsonl(path: Path) -> list[dict]:
    # not forge.cli.read_jsonl: checks run while the tracer may be installed
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def generate_outcomes(out: Path) -> dict[str, str]:
    """Outcome label per seed tool, read back from generate's output files."""
    got = {}
    for d in _read_jsonl(out / "corpus.jsonl"):
        got[d["scenario_ref"].rsplit("@", 1)[0]] = "accepted"
    for r in _read_jsonl(out / "rejected.jsonl"):
        if "report" in r:
            d = r["dialogue"]
            stage = r["report"]["failures"][0][0]
            capped = stage == "toolcall" and d["terminated_by"] == "turn_cap"
            got[d["scenario_ref"].rsplit("@", 1)[0]] = "turn_cap" if capped else f"reject:{stage}"
        elif "committed to" in r["reason"]:
            got[r["seed_tool"]] = "wrong_tool"
        else:
            got[r["seed_tool"]] = f"synthesis:{r['reason'][:60]}"
    return got


def check_report(path: Path, planned: dict) -> list[str]:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable report: {exc}"]
    return [f"{path.parent.name}/{path.name}: {key} planned {value}, got {report.get(key)}"
            for key, value in planned.items() if report.get(key) != value]


def check_generate(directory: Path, spec: dict) -> tuple[int, list[str]]:
    """Outcomes, corpus and scenario bytes of one generate run, then (for
    pipeline-deep) the validate, export and score outputs made from it."""
    out = directory / spec["out"]
    try:
        got = generate_outcomes(out)
        same_corpus = ((out / "corpus.jsonl").read_bytes()
                       == (directory / spec["corpus"]).read_bytes())
        same_scenarios = ((out / "scenarios.jsonl").read_bytes()
                          == (directory / spec["scenarios"]).read_bytes())
    except (OSError, ValueError, KeyError) as exc:
        return len(spec["outcomes"]), [f"{out.name}: unreadable outputs: {exc}"]
    problems = [f"{out.name}: {name} planned {planned}, got {got.get(name, 'error')}"
                for name, planned in spec["outcomes"].items()
                if got.get(name, "error") != planned]
    failed = len(problems)
    if not same_corpus:
        problems.append(f"{out.name}: corpus.jsonl bytes differ from the expected traces")
    if not same_scenarios:
        problems.append(f"{out.name}: scenarios.jsonl bytes differ from the planned scenarios")
    if "report" in spec:
        try:
            verdicts = [r.get("verdict") for r in _read_jsonl(out / "validate.jsonl")]
            manifest = json.loads((out / "export" / "manifest.json").read_text("utf-8"))
        except (OSError, ValueError) as exc:
            verdicts, manifest = [], {}
            problems.append(f"{out.name}: unreadable validate/export outputs: {exc}")
        if verdicts != ["accept"] * spec["accepted"]:
            problems.append(f"{out.name}: validate did not re-accept the corpus")
        if manifest.get("sample_count") != spec["samples"]:
            problems.append(f"{out.name}: export wrote {manifest.get('sample_count')} samples, "
                            f"turn slicing of the accepted corpus gives {spec['samples']}")
        problems += check_report(out / "score.json", spec["report"])
    return max(failed, int(bool(problems))), problems


def check_bench(directory: Path, spec: dict, tasks: int) -> tuple[int, list[str]]:
    out = directory / spec["out"]
    try:
        lines = (out / "traces.jsonl").read_bytes().splitlines()
    except OSError as exc:
        return tasks, [f"bench: unreadable traces: {exc}"]
    expected = (directory / spec["traces"]).read_bytes().splitlines()
    failed = sum(1 for i, line in enumerate(expected) if i >= len(lines) or lines[i] != line)
    problems = [f"bench: {failed} traces differ from the planned rollouts"] if failed else []
    problems += check_report(out / "report.json", spec["report"])
    return max(failed, int(bool(problems))), problems


def check_outputs(setup: Setup) -> tuple[int, list[str]]:
    """(failed dialogues, mismatch messages) for the last round's outputs."""
    failed, problems = 0, []
    for spec in setup.plan.get("checks", []):
        f, p = check_generate(setup.directory, spec)
        failed, problems = failed + f, problems + p
    if "bench" in setup.plan:
        failed, problems = check_bench(setup.directory, setup.plan["bench"], setup.dialogues)
    return failed, problems


def corrupt(setup: Setup) -> None:
    """Give the first planned tool call (in fingerprint order) a wrong value
    for its first argument, so that a planned dialogue no longer matches."""
    from inputs import wrong_value

    path = setup.directory / setup.plan["transcripts"][0]
    raw = json.loads(path.read_text(encoding="utf-8"))
    for fp in sorted(raw):
        replies = raw[fp] if isinstance(raw[fp], list) else [raw[fp]]
        think, sep, payload = replies[0].partition("</think> ")
        if not payload.startswith("[{"):
            continue
        calls = json.loads(payload)
        args = calls[0]["args"]
        if args:
            first = next(iter(args))
            args[first] = wrong_value(args[first])
            fixed = think + sep + json.dumps(calls, ensure_ascii=False)
            raw[fp] = [fixed] + replies[1:] if isinstance(raw[fp], list) else fixed
            path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
            if setup.stub is not None:
                setup.stub.stop()
                start_stub(setup)
            return
    raise RuntimeError(f"no tool-call reply to corrupt in {path}")


# ---------------------------------------------------------------------------
# measurement


def run_round(setup: Setup, sampler: SpeedSampler) -> Round:
    """One round of CLI calls, each timed on its own (see speed.py)."""
    from forge import cli

    times: dict[str, float] = {}
    raw = 0.0
    problems: list[str] = []
    sink = io.StringIO()
    for label, argv in setup.commands:
        mark = sampler.mark()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:  # a crashed command fails the round; the run reports it
            code = None
            problems.append(f"{label} raised:\n{traceback.format_exc(limit=4)}")
        elapsed, at_reference = sampler.measured(mark)
        raw += elapsed
        times[label] = times.get(label, 0.0) + at_reference
        if code != 0:
            problems.append(f"{label} exited {code}: {sink.getvalue()[-400:]}")
            break
    if problems:
        return Round(times, raw, setup.dialogues, problems)
    failed, found = check_outputs(setup)
    return Round(times, raw, min(failed, setup.dialogues), found)


def run_rounds(setup: Setup, sampler: SpeedSampler, seconds: float,
               min_rounds: int = 2) -> list[Round]:
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append(run_round(setup, sampler))
        if rounds[-1].failed:
            break
    return rounds


def _dialogue_time(setup: Setup, r: Round) -> float:
    return sum(t for label, t in r.command_s.items() if label.startswith(setup.dialogue_command))


def end_to_end(setup: Setup, setup_times: list[float], rounds: list[Round]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "dialogues_per_s": statistics.median(setup.dialogues / _dialogue_time(setup, r)
                                             for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, setup: Setup, untraced: list[Round], traced: list[Round],
              stub_delta: dict) -> dict[str, float]:
    t = tracer
    n = len(traced)
    d = setup.dialogues
    wall = sum(r.raw_s for r in traced)  # unscaled, like the span times

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    scenarios = t.count("scenario.build_scenario")
    http = t.count("http.send")
    served = stub_delta.get("requests", 0)
    cmds = [name for name in t.spans if name.startswith("cli.cmd_")]
    orchestration = t.self_time("cli.main", *cmds) + wall - t.total("cli.main")
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    m = {
        "catalogue.load_s": t.total("catalogue.load_catalogue") / n,
        "retrieval.search_calls": t.count("retrieval.search_catalogue") / n,
        "retrieval.search_s": t.total("retrieval.search_catalogue") / n,
        "retrieval.distractor_calls": t.count("retrieval.nearest_distractors") / n,
        "retrieval.distractor_s": t.total("retrieval.nearest_distractors") / n,
        "retrieval.embed_calls": (t.count("retrieval.HashEmbedder.embed")
                                  + t.count("retrieval.RemoteEmbedder.embed")) / n,
        "retrieval.self_share": ratio(t.self_in("retrieval."), wall),
        "scenario.build_s": t.self_time("scenario.build_scenario") / n,
        "scenario.persona_s": t.total("scenario.sample_persona") / n,
        "scenario.goal_attempts_per_dialogue": ratio(t.count("scenario.goal_request"), scenarios),
        "scenario.slot_attempts_per_dialogue": ratio(t.count("scenario.slots_request"), scenarios),
        "engine.synth_s": t.self_time("engine.synthesize_dialogue", "engine.run_tool_selection",
                                      "engine.run_param_filling") / n,
        "engine.prompt_render_s": t.total("engine.selection_system_prompt",
                                          "engine.filling_system_prompt",
                                          "engine.user_system_prompt") / n,
        "engine.request_build_s": t.total("engine.assistant_request", "engine.user_request") / n,
        "engine.parse_s": t.total("engine.parse_assistant_output") / n,
        "engine.selection_attempts_per_dialogue": ratio(t.count("retrieval.search_catalogue"),
                                                        t.count("engine.run_tool_selection")),
        "engine.turns_per_dialogue": ratio(t.count("engine.assistant_request"),
                                           t.count("engine.synthesize_dialogue")),
        "gateway.calls": (t.count("gateway.complete") + t.count("gateway.sample_n")) / n,
        "gateway.call_s": t.total("gateway.complete", "gateway.sample_n") / n,
        "gateway.fingerprint_s": t.total("gateway.fingerprint") / n,
        "gateway.request_bytes": t.counts["request_bytes"] / n,
        "gateway.transcript_misses": t.counts["transcript_misses"] + stub_delta.get("misses", 0),
        "gateway.retries": (http - t.count("gateway.post_json")) / n,
        "gateway.connections_per_call": ratio(stub_delta.get("connections", 0), served),
        "gateway.overhead_ms_mean": (1000.0 * (ratio(t.total("http.send"), http)
                                               - ratio(stub_delta.get("service_s", 0.0), served))
                                     if http else 0.0),
        "validation.cascade_s": t.total("validation.run_cascade") / n,
        "validation.functional_s": t.total("validation.validate_format",
                                           "validation.validate_toolcall",
                                           "validation.validate_toolargs") / n,
        "validation.judge_s": t.total("validation.validate_llm") / n,
        "validation.accept_ratio": ratio(t.counts["accepted"], t.counts["cascades"]),
        "export.slice_s": t.total("export.slice_dialogue") / n,
        "export.write_s": t.total("export.export") / n,
        "export.samples": t.counts["export.samples"] / n,
        "export.bytes": t.counts["export.bytes"] / n,
        "export.samples_per_s": ratio(t.counts["export.samples"], t.total("cli.cmd_export")),
        "metrics.score_s": t.self_time("metrics.score_corpus") / n,
        "metrics.conv_rel_s": t.total("metrics.conv_relevancy") / n,
        "metrics.lexical_s": t.total("metrics.lexical_metrics") / n,
        "metrics.rubric_calls": t.count("metrics.rubric_request") / n,
        "harness.vote_s": t.self_time("harness.vote_utterance") / n,
        "harness.sample_n_s": t.total("gateway.sample_n") / n,
        "harness.decode_s": t.total("harness._decode_assistant") / n,
        "harness.voter_calls": t.counts["calls.m-voter"] / n,
        "cli.io_s": t.groups["cli.io"] / n,
        "trace.overhead_frac": statistics.median(r.wall_s for r in traced) / untraced_wall - 1.0,
        "trace.unaccounted_frac": ratio(orchestration, wall),
    }
    m["retrieval.embeds_per_dialogue"] = m["retrieval.embed_calls"] / d
    for stage in ("format", "toolcall", "toolargs", "relevancy", "critique"):
        m[f"validation.rejects_{stage}"] = t.counts[f"rejects.{stage}"] / n
    return m


# ---------------------------------------------------------------------------
# results record


def machine_record() -> dict:
    import numpy
    import requests

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = ((ROOT / ".git" / ref[5:]).read_text().strip()
                  if ref.startswith("ref: ") else ref)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "requests": requests.__version__, "commit": commit}


def _metric_specs(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one planned reply after setup (gate self-check)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "forge" / "__init__.py").is_file():
        print(f"forge sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    specs = _metric_specs(bool(args.trace))

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setup_times, setup, stub_delta = [], None, {}
    sampler = SpeedSampler()
    sampler.start()
    try:
        for k in range(SETUPS):
            if setup is not None:  # only the last setup is measured
                if setup.stub is not None:
                    setup.stub.stop()
                setup = None
                shutil.rmtree(run_dir / f"setup{k - 1}", ignore_errors=True)
                gc.collect()
            directory = run_dir / f"setup{k}"
            mark = sampler.mark()
            setup = make_setup(args.workload, args.seed, directory)
            setup_times.append(sampler.measured(mark)[1])
        gc.collect()
        if args.corrupt:
            corrupt(setup)

        if args.trace:
            from spans import Tracer

            untraced = run_rounds(setup, sampler, args.seconds / 2)
            tracer = Tracer()
            before = setup.stub.stats() if setup.stub else {}
            tracer.install()
            try:
                traced = run_rounds(setup, sampler, args.seconds / 2)
            finally:
                tracer.uninstall()
            if setup.stub:
                after = setup.stub.stats()
                stub_delta = {k: after[k] - before[k] for k in after}
            rounds = untraced + traced
            metrics = per_layer(tracer, setup, untraced, traced, stub_delta)
            spans = tracer.spans
            missing = sorted(b for b in setup.expected if not tracer.fired[b])
        else:
            rounds = run_rounds(setup, sampler, args.seconds)
            metrics = end_to_end(setup, setup_times, rounds)
            missing, spans = [], None
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        sampler.stop()
        if setup is not None and setup.stub is not None:
            stub_delta["final"] = setup.stub.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = setup.dialogues * len(rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    problems += [f"traced wrapper {b} never fired" for b in missing]
    unknown = sorted(set(specs) - set(metrics))
    if unknown:
        print(f"metrics declared in BENCHMARK.json but not measured: {unknown}", file=sys.stderr)
        return 2
    for p in problems[:20]:
        print(f"gate: {p}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "setup_times_s": setup_times,
              "round_walls_s": [r.wall_s for r in rounds],
              "round_raw_s": [r.raw_s for r in rounds], "failed_frac": failed / attempted,
              **setup.plan["info"], "machine": machine_record(),
              "stub": stub_delta.get("final"), "metrics": metrics,
              "spans": spans}  # name -> [count, total_s, self_s] over the traced rounds
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("record " + json.dumps(record))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": max(failed, int(not correct)),
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in specs.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
