"""Command-line entry point: generate, validate, export, stats, score, bench.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
All randomness flows from the config's rng_seed through derived per-dialogue
seeds, so reruns with the same config and transcripts are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .catalogue import CatalogueError, load_catalogue
from .engine import (
    AssistantFormatError,
    DialogueTrace,
    EngineConfig,
    SynthesisRejected,
    selection_system_prompt,
    synthesize_dialogue,
)
from .export import compute_stats, export, slice_dialogue
from .gateway import BackendConfig, GatewayError
from .harness import EvalTask, VotingConfig, run_benchmark
from .metrics import Reference, format_metric, score_corpus
from .retrieval import HashEmbedder, RemoteEmbedder, nearest_distractors
from .scenario import PersonaStore, Scenario, ScenarioError, build_scenario
from .seeds import split_seed
from .validation import JUDGES, ValidationInfraError, run_cascade


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


@dataclass
class PipelineConfig:
    catalogue: Path
    rng_seed: int
    personas: Path | None = None
    k: int = 5
    persona_k: int = 10
    t_max: int = 12
    regen_attempts: int = 5
    concurrency: int = 1
    out_dir: Path = Path("out")
    embedder: dict = field(default_factory=lambda: {"kind": "hash", "dimension": 256})
    backends: dict[str, BackendConfig] = field(default_factory=dict)

    def backend(self, role: str) -> BackendConfig:
        if role not in self.backends:
            raise ConfigError(f"no backend configured for role {role!r}")
        return self.backends[role]

    def judges(self) -> dict[str, BackendConfig] | None:
        """Both validator judges, or None to run the functional stage only."""
        if all(name in self.backends for name in JUDGES):
            return {name: self.backends[name] for name in JUDGES}
        return None


def _read_config(path: str | Path, what: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load {what} {path}: {exc}") from exc


def _resolve(base: Path, path: str) -> Path:
    """A path from a config file; relative paths are taken against ``base``,
    the config file's directory."""
    candidate = Path(path)
    return candidate if candidate.is_absolute() else base / candidate


def _backend_config(spec: dict, base: Path, where: str) -> BackendConfig:
    """The one backend-spec loader: resolves the transcript path against
    ``base`` and reports a bad spec as a ConfigError naming ``where``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"bad backend config {where}: expected a JSON object")
    if spec.get("transcript"):
        spec = {**spec, "transcript": str(_resolve(base, spec["transcript"]))}
    try:
        return BackendConfig.from_dict(spec)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad backend config {where}: {exc}") from exc


def _engine_config(t_max: int, regen_attempts: int = 5) -> EngineConfig:
    try:
        return EngineConfig(t_max=t_max, regen_attempts=regen_attempts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    raw = _read_config(path, "config")
    if "rng_seed" not in raw:
        raise ConfigError("config must set rng_seed (wall-clock seeding is not allowed)")
    if "catalogue" not in raw:
        raise ConfigError("config must name a catalogue file")
    base = Path(path).parent
    catalogue = _resolve(base, raw["catalogue"])
    if not catalogue.exists():
        raise ConfigError(f"catalogue file does not exist: {catalogue}")
    personas = None
    if raw.get("personas"):
        personas = _resolve(base, raw["personas"])
        if not personas.exists():
            raise ConfigError(f"persona file does not exist: {personas}")
    backends = {role: _backend_config(spec, base, f"for role {role!r}")
                for role, spec in raw.get("backends", {}).items()}
    return PipelineConfig(
        catalogue=catalogue,
        rng_seed=int(raw["rng_seed"]),
        personas=personas,
        k=raw.get("k", 5),
        persona_k=raw.get("persona_k", 10),
        t_max=raw.get("t_max", 12),
        regen_attempts=raw.get("regen_attempts", 5),
        concurrency=raw.get("concurrency", 1),
        out_dir=_resolve(base, raw.get("out_dir", "out")),
        embedder=raw.get("embedder", {"kind": "hash", "dimension": 256}),
        backends=backends,
    )


def build_embedder(spec: dict):
    kind = spec.get("kind", "hash")
    if kind == "hash":
        return HashEmbedder(dimension=spec.get("dimension", 256))
    if kind == "remote":
        return RemoteEmbedder(
            endpoint=spec["endpoint"],
            model_id=spec.get("model_id", ""),
            dimension=spec["dimension"],
            api_key_env=spec.get("api_key_env"),
        )
    raise ConfigError(f"unknown embedder kind: {kind!r}")


def write_jsonl(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out


def load_scenarios(path: str | Path) -> dict[str, Scenario]:
    return {
        scn.scenario_id: scn
        for scn in (Scenario.from_dict(d) for d in read_jsonl(path))
    }


def load_traces(path: str | Path) -> list[DialogueTrace]:
    return [DialogueTrace.from_dict(d) for d in read_jsonl(path)]


# ---------------------------------------------------------------------------
# commands


def cmd_catalogue_lint(args) -> int:
    try:
        cat = load_catalogue(args.path)
    except CatalogueError as exc:
        print(f"invalid catalogue: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {len(cat)} tools")
    return 0


def cmd_distractors(args) -> int:
    cat = load_catalogue(args.catalogue)
    emb = HashEmbedder(dimension=args.dim)
    dset = nearest_distractors(cat, args.seed, args.k, emb)
    for name, score in dset.members:
        print(f"{name}\t{score:.6f}")
    return 0


def cmd_generate(args) -> int:
    cfg = load_pipeline_config(args.config)
    ecfg = _engine_config(cfg.t_max, cfg.regen_attempts)
    cat = load_catalogue(cfg.catalogue)
    emb = build_embedder(cfg.embedder)
    store = (PersonaStore.load(cfg.personas, emb) if cfg.personas
             else PersonaStore.bundled(emb))
    gw_goal = cfg.backend("goal")
    gw_slots = cfg.backends.get("slots", gw_goal)
    gw_user = cfg.backend("user_proxy")
    gw_asst = cfg.backend("assistant")
    judges = cfg.judges()

    if args.seed_tools:
        names = [n.strip() for n in args.seed_tools.split(",") if n.strip()]
        unknown = [n for n in names if n not in cat]
        if unknown:
            raise ConfigError(f"unknown seed tools: {unknown}")
    else:
        names = cat.names()

    def _one(name: str) -> dict:
        seed = split_seed(cfg.rng_seed, f"dialogue:{name}")
        result: dict = {"seed_tool": name}
        try:
            scn = build_scenario(cat, store, gw_goal, name, cfg.k, seed,
                                 persona_k=cfg.persona_k, slot_gw=gw_slots)
        except (ScenarioError, GatewayError) as exc:
            result["status"] = "error"
            result["reason"] = str(exc)
            return result
        result["scenario"] = scn
        try:
            trace = synthesize_dialogue(scn, cat, emb, gw_user, gw_asst, ecfg)
            report = run_cascade(trace, scn, cat, judges)
        except SynthesisRejected as exc:
            result["status"] = "rejected_synthesis"
            result["reason"] = str(exc)
            return result
        except (GatewayError, AssistantFormatError, ValidationInfraError) as exc:
            result["status"] = "error"
            result["reason"] = str(exc)
            return result
        result["trace"] = trace
        result["report"] = report
        result["status"] = "accepted" if report.accepted else "rejected_validation"
        return result

    if cfg.concurrency > 1:
        with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
            results = list(pool.map(_one, names))
    else:
        results = [_one(n) for n in names]

    out = cfg.out_dir
    accepted, rejected, scenarios, errors = [], [], [], []
    for res in results:
        if "scenario" in res:
            scenarios.append(res["scenario"].to_dict())
        if res["status"] == "accepted":
            accepted.append(res["trace"].to_dict())
        elif res["status"] == "rejected_validation":
            rejected.append({
                "dialogue": res["trace"].to_dict(),
                "report": res["report"].to_dict(),
            })
        elif res["status"] == "rejected_synthesis":
            rejected.append({
                "seed_tool": res["seed_tool"],
                "reason": res["reason"],
            })
        else:
            errors.append(res)
            print(f"error on {res['seed_tool']}: {res['reason']}", file=sys.stderr)
    write_jsonl(out / "corpus.jsonl", accepted)
    write_jsonl(out / "rejected.jsonl", rejected)
    write_jsonl(out / "scenarios.jsonl", scenarios)
    print(f"accepted={len(accepted)} rejected={len(rejected)} errors={len(errors)} "
          f"-> {out}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_pipeline_config(args.config)
    cat = load_catalogue(cfg.catalogue)
    scenarios = load_scenarios(args.scenarios)
    judges = cfg.judges()
    reports = []
    all_ok = True
    for trace in load_traces(args.corpus):
        scn = scenarios.get(trace.scenario_ref)
        if scn is None:
            raise ConfigError(f"corpus references unknown scenario {trace.scenario_ref!r}")
        report = run_cascade(trace, scn, cat, judges)
        reports.append(report.to_dict())
        if not report.accepted:
            all_ok = False
    if args.out:
        write_jsonl(Path(args.out), reports)
    print(f"validated {len(reports)} dialogues; "
          f"rejected {sum(1 for r in reports if r['verdict'] == 'reject')}")
    return 0 if all_ok else 1


def cmd_export(args) -> int:
    cfg = load_pipeline_config(args.config)
    ecfg = _engine_config(cfg.t_max, cfg.regen_attempts)
    cat = load_catalogue(cfg.catalogue)
    scenarios = load_scenarios(args.scenarios)
    samples = []
    for trace in load_traces(args.corpus):
        scn = scenarios.get(trace.scenario_ref)
        if scn is None:
            raise ConfigError(f"corpus references unknown scenario {trace.scenario_ref!r}")
        sys_prompt = selection_system_prompt(cat, scn.pool, ecfg)
        samples.extend(slice_dialogue(trace, sys_prompt))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = export(samples, out_dir / "samples.jsonl")
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    print(f"exported {manifest['sample_count']} samples from "
          f"{manifest['dialogue_count']} dialogues -> {out_dir}")
    return 0


def cmd_stats(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    counts = {sid: len(scn.gold_args) for sid, scn in scenarios.items()}
    stats = compute_stats(load_traces(args.corpus), counts)
    payload = json.dumps(stats.to_dict(), ensure_ascii=False, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    if args.csv:
        Path(args.csv).write_text(stats.to_csv(), encoding="utf-8")
    return 0


def cmd_score(args) -> int:
    scenarios = load_scenarios(args.refs)
    refs = {sid: Reference(scn.seed_tool, scn.gold_args) for sid, scn in scenarios.items()}
    judge = None
    if args.judge:
        judge = _backend_config(_read_config(args.judge, "backend config"),
                                Path(args.judge).parent, f"in {args.judge}")
    report = score_corpus(load_traces(args.corpus), refs, judge=judge)
    payload = json.dumps(report.to_dict(), ensure_ascii=False, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    if args.csv:
        Path(args.csv).write_text(report.to_csv_row(), encoding="utf-8")
    return 0


def cmd_bench_run(args) -> int:
    raw = _read_config(args.config, "bench config")
    base = Path(args.config).parent
    for key in ("mode", "catalogue", "scenarios", "assistant", "rng_seed", "out_dir"):
        if key not in raw:
            raise ConfigError(f"bench config missing key {key!r}")
    mode = raw["mode"]
    ecfg = _engine_config(raw.get("t_max", 12))
    assistant = _backend_config(raw["assistant"], base, "for 'assistant'")
    judge = _backend_config(raw["judge"], base, "for 'judge'") if raw.get("judge") else None
    cat = load_catalogue(_resolve(base, raw["catalogue"]))
    scenarios = load_scenarios(_resolve(base, raw["scenarios"]))
    tasks = []
    if mode == "static":
        if "gold_corpus" not in raw:
            raise ConfigError("static bench config requires gold_corpus")
        gold = {d.scenario_ref: d for d in load_traces(_resolve(base, raw["gold_corpus"]))}
        for sid, scn in scenarios.items():
            if sid not in gold:
                raise ConfigError(f"no gold dialogue for scenario {sid!r}")
            tasks.append(EvalTask(scenario=scn, mode="static", gold_dialogue=gold[sid]))
        vcfg = None
    elif mode == "dynamic":
        for key in ("user_proxy", "voter"):
            if key not in raw:
                raise ConfigError(f"dynamic bench config requires {key!r}")
        try:
            vcfg = VotingConfig(
                generator=_backend_config(raw["user_proxy"], base, "for 'user_proxy'"),
                voter=_backend_config(raw["voter"], base, "for 'voter'"),
                n_samples=raw.get("n_samples", 3),
                m_voters=raw.get("m_voters", 3),
                rng_seed=raw["rng_seed"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        tasks = [EvalTask(scenario=scn, mode="dynamic") for scn in scenarios.values()]
    else:
        raise ConfigError(f"unknown bench mode: {mode!r}")

    exclusions = None
    if raw.get("exclusions"):
        exclusions = set(json.loads(
            _resolve(base, raw["exclusions"]).read_text(encoding="utf-8")))
    report, traces = run_benchmark(
        tasks, assistant, cat, vcfg, judge, ecfg,
        t_max=ecfg.t_max, concurrency=raw.get("concurrency", 1),
        exclusions=exclusions)
    out_dir = _resolve(base, raw["out_dir"])
    write_jsonl(out_dir / "traces.jsonl", [d.to_dict() for d in traces])
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    audit = out_dir / "audit"
    audit.mkdir(parents=True, exist_ok=True)
    for d in traces:
        (audit / f"{d.dialogue_id.replace('/', '_')}.json").write_text(
            json.dumps(d.to_dict(), ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    print(f"bench complete: {len(traces)} tasks -> {out_dir}")
    return 0


def cmd_bench_report(args) -> int:
    report_path = Path(args.dir) / "report.json"
    if not report_path.exists():
        raise ConfigError(f"no report.json under {args.dir}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for key in ("acc", "ftr", "tar", "tcp", "tcr", "pkp", "pkr", "conv_rel", "ttr"):
        print(f"{key.upper():>8}: {format_metric(report.get(key))}")
    for n, v in sorted(report.get("ngd", {}).items()):
        print(f"   NGD_{n}: {format_metric(v)}")
    print(f"dialogues: {len(report.get('per_dialogue', []))}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalogue", help="catalogue utilities")
    cat_sub = p_cat.add_subparsers(dest="subcommand", required=True)
    p_lint = cat_sub.add_parser("lint", help="validate a catalogue file")
    p_lint.add_argument("path")
    p_lint.set_defaults(func=cmd_catalogue_lint)

    p_dis = sub.add_parser("distractors", help="nearest distractors for a seed tool")
    p_dis.add_argument("catalogue")
    p_dis.add_argument("seed")
    p_dis.add_argument("--k", type=int, default=5)
    p_dis.add_argument("--dim", type=int, default=256)
    p_dis.set_defaults(func=cmd_distractors)

    p_gen = sub.add_parser("generate", help="synthesize and validate dialogues")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--seed-tools", help="comma-separated seed tool names (default: all)")
    p_gen.set_defaults(func=cmd_generate)

    p_val = sub.add_parser("validate", help="run the validator cascade over a corpus")
    p_val.add_argument("corpus")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--scenarios", required=True)
    p_val.add_argument("--out")
    p_val.set_defaults(func=cmd_validate)

    p_exp = sub.add_parser("export", help="turn-slice a corpus into training samples")
    p_exp.add_argument("corpus")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--scenarios", required=True)
    p_exp.add_argument("--out-dir", required=True)
    p_exp.set_defaults(func=cmd_export)

    p_sta = sub.add_parser("stats", help="corpus histograms")
    p_sta.add_argument("corpus")
    p_sta.add_argument("--scenarios", required=True)
    p_sta.add_argument("--out")
    p_sta.add_argument("--csv")
    p_sta.set_defaults(func=cmd_stats)

    p_sco = sub.add_parser("score", help="metric report for a trace corpus")
    p_sco.add_argument("corpus")
    p_sco.add_argument("--refs", required=True, help="scenario file with references")
    p_sco.add_argument("--judge", help="backend config JSON for the rubric judge")
    p_sco.add_argument("--out")
    p_sco.add_argument("--csv")
    p_sco.set_defaults(func=cmd_score)

    p_ben = sub.add_parser("bench", help="benchmark a candidate assistant backend")
    ben_sub = p_ben.add_subparsers(dest="subcommand", required=True)
    p_run = ben_sub.add_parser("run", help="run a benchmark config")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_bench_run)
    p_rep = ben_sub.add_parser("report", help="print a results directory summary")
    p_rep.add_argument("dir")
    p_rep.set_defaults(func=cmd_bench_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CatalogueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
