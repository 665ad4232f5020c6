"""Input generation for the benchmark workloads, run as its own process.

    python3 bench/workloads.py <workload> <seed> <directory>

Writes the catalogue, configs, transcripts (or the stub's replies), the
expected outputs under ``expected/`` and ``plan.json`` into ``directory``.
``plan.json`` lists the CLI calls of one round and everything the
correctness gate compares their outputs with. Running this in a child
process keeps the generator's memory out of the measured process's peak
RSS.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
from forge.engine import EngineConfig  # noqa: E402
from forge.seeds import split_seed  # noqa: E402

BENCH_TASKS = 16
BENCH_LATENCY_MS = 5.0
BENCH_FAIL_SHARE = 0.01

DEEP_LAYOUT = ("accept", "goal_regen", "slot_regen", "retriever_regen", "wrong_tool",
               "turn_cap", "reject_format", "reject_toolcall", "reject_toolargs",
               "reject_relevancy", "reject_critique", "accept", "accept", "accept",
               "accept", "accept")
DEEP_ROOTS = 3


def write(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return path


def _scripted_config(directory: Path, root_seed: int, transcript: str, out: str,
                     judges: bool) -> Path:
    roles = ["goal", "user_proxy", "assistant"] + (["relevancy", "critique"] if judges else [])
    return write(directory / f"config_{out}.json", {
        "catalogue": "catalogue.json", "rng_seed": root_seed, "k": 5, "persona_k": 10,
        "t_max": 12, "concurrency": 1, "out_dir": out,
        "backends": {r: {"kind": "scripted", "model_id": inputs.MODELS[r],
                         "transcript": transcript} for r in roles}})


def _generate_check(directory: Path, out: str, script: inputs.GenerateScript) -> dict:
    write(directory / "expected" / f"{out}.corpus.jsonl", script.corpus_bytes())
    write(directory / "expected" / f"{out}.scenarios.jsonl", script.scenarios_bytes())
    return {"out": out, "outcomes": script.outcomes,
            "corpus": f"expected/{out}.corpus.jsonl",
            "scenarios": f"expected/{out}.scenarios.jsonl"}


def gen_wide(directory: Path, seed: int) -> dict:
    """A 5,000-tool catalogue and four short scripted dialogues."""
    shape = inputs.CatalogueShape(tools=5000, desc_words=25, params=4, required=2)
    rng = random.Random(f"gen-wide-5k:{seed}")
    world = inputs.World.build(inputs.make_catalogue(rng, shape))
    names = sorted(rng.sample(world.cat.names(), 4))
    if not names:
        raise RuntimeError("empty seed-tool list would mean every tool")
    root_seed = rng.randrange(2 ** 31)
    script = inputs.GenerateScript()
    for i, name in enumerate(names):
        plan = inputs.DialoguePlan(name, "accept", questions=0, asks=i % 2, turn_words=20)
        inputs.script_dialogue(world, script, EngineConfig(), root_seed, plan, rng, judges=False)
    write(directory / "catalogue.json", world.tools_json)
    script.transcript.save(directory / "transcript.json")
    config = _scripted_config(directory, root_seed, "transcript.json", "out", judges=False)
    return {
        "commands": [["generate", ["generate", "--config", str(config),
                                   "--seed-tools", ",".join(names)]]],
        "dialogue_command": "generate", "dialogues": len(names),
        "checks": [_generate_check(directory, "out", script)],
        "transcripts": ["transcript.json"],
        "info": {"catalogue_tools": shape.tools, "desc_words": shape.desc_words,
                 "params": shape.params, "seed_tools": len(names), "root_seeds": 1,
                 "turn_words": 20, "judges": False, "concurrency": 1},
    }


def pipeline_deep(directory: Path, seed: int) -> dict:
    """48 tools split over three root seeds; every dialogue follows a plan
    that visits one regeneration or rejection path."""
    shape = inputs.CatalogueShape(tools=len(DEEP_LAYOUT) * DEEP_ROOTS, desc_words=25,
                                  params=4, required=3)
    rng = random.Random(f"pipeline-deep:{seed}")
    world = inputs.World.build(inputs.make_catalogue(rng, shape))
    write(directory / "catalogue.json", world.tools_json)
    tools = world.cat.names()
    rng.shuffle(tools)
    commands, checks, transcripts = [], [], []
    for r in range(DEEP_ROOTS):
        names = sorted(tools[r::DEEP_ROOTS])
        if not names:
            raise RuntimeError("empty seed-tool list would mean every tool")
        root_seed = rng.randrange(2 ** 31)
        script = inputs.GenerateScript()
        for i, name in enumerate(names):
            plan = inputs.DialoguePlan(name, DEEP_LAYOUT[i], questions=2 + i % 3,
                                       asks=2 + i % 4, turn_words=100)
            inputs.script_dialogue(world, script, EngineConfig(), root_seed, plan, rng,
                                   judges=True)
        inputs.script_rubric(script)
        transcript = f"transcript_{r}.json"
        script.transcript.save(directory / transcript)
        out = f"out{r}"
        config = _scripted_config(directory, root_seed, transcript, out, judges=True)
        judge = write(directory / f"judge_{r}.json", {
            "kind": "scripted", "model_id": inputs.MODELS["judge"], "transcript": transcript})
        corpus = str(directory / out / "corpus.jsonl")
        scenarios = str(directory / out / "scenarios.jsonl")
        commands += [
            [f"generate{r}", ["generate", "--config", str(config),
                              "--seed-tools", ",".join(names)]],
            [f"validate{r}", ["validate", corpus, "--config", str(config), "--scenarios",
                              scenarios, "--out", str(directory / out / "validate.jsonl")]],
            [f"export{r}", ["export", corpus, "--config", str(config), "--scenarios",
                            scenarios, "--out-dir", str(directory / out / "export")]],
            [f"score{r}", ["score", corpus, "--refs", scenarios, "--judge", str(judge),
                           "--out", str(directory / out / "score.json")]],
        ]
        accepted = script.accepted
        check = _generate_check(directory, out, script)
        check["accepted"] = len(accepted)
        check["samples"] = sum(d.pair_count() for d in accepted)
        check["report"] = inputs.planned_report(
            [s for s in script.scenarios if script.outcomes[s.seed_tool] == inputs.ACCEPTED],
            [[(d.messages[-1].tool_calls[0].name, d.messages[-1].tool_calls[0].args)]
             for d in accepted], accepted, script.rubric_grades)
        checks.append(check)
        transcripts.append(transcript)
    return {
        "commands": commands, "dialogue_command": "generate",
        "dialogues": len(DEEP_LAYOUT) * DEEP_ROOTS, "checks": checks,
        "transcripts": transcripts,
        "info": {"catalogue_tools": shape.tools, "desc_words": shape.desc_words,
                 "params": shape.params, "seed_tools": len(DEEP_LAYOUT) * DEEP_ROOTS,
                 "root_seeds": DEEP_ROOTS, "turn_words": 100, "t_max": 12, "judges": True,
                 "concurrency": 1},
    }


def bench_dynamic(directory: Path, seed: int) -> dict:
    """Sixteen dynamic-mode tasks; every role is served by the loopback stub,
    which the driver starts on the replies written here."""
    shape = inputs.CatalogueShape(tools=48, desc_words=25, params=4, required=3)
    rng = random.Random(f"bench-dynamic-loopback:{seed}")
    world = inputs.World.build(inputs.make_catalogue(rng, shape))
    names = sorted(rng.sample(world.cat.names(), BENCH_TASKS))
    vote_seed = rng.randrange(2 ** 31)
    t_max, n_samples, m_voters = 4, 3, 3
    ecfg = EngineConfig(t_max=t_max)
    script = inputs.BenchScript()
    for i, name in enumerate(names):
        scn = inputs.bench_scenario(world, rng, name, split_seed(vote_seed, f"task:{name}"))
        kind = inputs.BENCH_KINDS[i % len(inputs.BENCH_KINDS)]
        inputs.script_rollout(world, script, ecfg, scn, kind, vote_seed, n_samples, m_voters,
                              t_max, rng, turn_words=30)
    write(directory / "catalogue.json", world.tools_json)
    write(directory / "scenarios.jsonl",
          b"".join(json.dumps(s.to_dict(), ensure_ascii=False).encode() + b"\n"
                   for s in script.scenarios))
    write(directory / "replies.json", script.replies)
    write(directory / "expected" / "traces.jsonl", script.traces_bytes())
    config = {"mode": "dynamic", "catalogue": "catalogue.json", "scenarios": "scenarios.jsonl",
              "rng_seed": vote_seed, "out_dir": "out", "t_max": t_max, "concurrency": 2,
              "n_samples": n_samples, "m_voters": m_voters}
    return {
        "commands": [["bench", ["bench", "run", str(directory / "bench.json")]]],
        "dialogue_command": "bench", "dialogues": BENCH_TASKS,
        "bench": {"out": "out", "traces": "expected/traces.jsonl",
                  "report": inputs.planned_report(script.scenarios, script.final_calls,
                                                  script.traces, script.rubric_grades)},
        "stub": {"replies": "replies.json", "latency_ms": BENCH_LATENCY_MS,
                 "fail_share": BENCH_FAIL_SHARE, "config": config,
                 "roles": {role: inputs.MODELS[role]
                           for role in ("assistant", "user_proxy", "voter", "judge")}},
        "transcripts": ["replies.json"],
        "info": {"catalogue_tools": shape.tools, "tasks": BENCH_TASKS, "n_samples": n_samples,
                 "m_voters": m_voters, "t_max": t_max, "latency_ms": BENCH_LATENCY_MS,
                 "fail_share": BENCH_FAIL_SHARE, "replies": len(script.replies),
                 "concurrency": 2},
    }


WORKLOADS = {"gen-wide-5k": gen_wide, "pipeline-deep": pipeline_deep,
             "bench-dynamic-loopback": bench_dynamic}


def main(argv: list[str]) -> int:
    workload, seed, directory = argv[0], int(argv[1]), Path(argv[2]).resolve()
    plan = WORKLOADS[workload](directory, seed)
    write(directory / "plan.json", plan)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
