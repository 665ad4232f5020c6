"""Command-line entry point: generate, validate, export, stats, score, bench.

Exit codes: 0 success, 1 validation failure, errored dialogues, an invalid
catalogue (``invalid input: ...``) or a failed embedding call while
``generate`` builds its retrieval indexes, 2 configuration error, including
a missing or unparseable input file or an output file that is a directory.
Every input file is read here, before the first LLM call, through ``_load``,
so a fault in one is a ConfigError naming the file.
All randomness flows from the config's rng_seed through derived per-dialogue
seeds, so reruns with the same config and transcripts are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .catalogue import CatalogueError, dump_json, fault, load_catalogue, parse_json, typed
from .engine import (
    DialogueTrace,
    EngineConfig,
    SynthesisRejected,
    run_items,
    selection_system_prompt,
    synthesize_dialogue,
)
from .export import compute_stats, export, slice_dialogue
from .gateway import MAX_CONCURRENCY, BackendConfig, GatewayError, Transcript
from .harness import EvalTask, VotingConfig, run_benchmark
from .metrics import REPORT_METRICS, Reference, format_metric, grade_corpus, score_corpus
from .retrieval import (Embedder, HashEmbedder, RemoteEmbedder, ToolIndex, VectorIndex,
                        nearest_distractors)
from .scenario import PersonaStore, Scenario, build_scenario
from .seeds import split_seed
from .validation import JUDGES, ValidationReport, run_cascade


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


@dataclass
class PipelineConfig:
    catalogue: Path
    rng_seed: int
    personas: Path | None
    engine: EngineConfig
    out_dir: Path
    embedder: Embedder
    backends: dict[str, BackendConfig]
    judges: dict[str, BackendConfig] | None  # both validator judges, or None: functional only
    k: int = 5
    persona_k: int = 10
    concurrency: int = 1


@dataclass
class BenchConfig:
    catalogue: Path
    scenarios: Path
    tasks: list[EvalTask]
    backends: dict[str, BackendConfig]
    voting: VotingConfig | None  # None in static mode
    engine: EngineConfig
    out_dir: Path
    exclusions: set[str] | None
    concurrency: int = 1


def _load(what: str, path: str | Path, load):
    """``load(path)``: the one way a command reads a file it names, so a
    missing, unreadable or malformed file is a ConfigError naming the file.
    A reader raises ValueError (``parse_json``'s for bad JSON) or KeyError at
    the fault; a file it loads in turn goes through ``_load`` and names itself."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load {what} {path}: {fault(exc)}") from exc


def _json_object(path: str | Path) -> dict:
    raw = parse_json(Path(path).read_bytes())
    if not isinstance(raw, dict):
        raise ValueError("expected a JSON object")
    return raw


def _json_strings(path: str | Path) -> list[str]:
    raw = parse_json(Path(path).read_bytes())
    if not isinstance(raw, list) or not all(isinstance(item, str) for item in raw):
        raise ValueError("expected a JSON array of strings")
    return raw


def _jsonl(path: str | Path, from_dict) -> list:
    with open(path, "rb") as fh:
        return [from_dict(parse_json(line)) for line in fh if line.strip()]


def _keyed(items, key, repeat: str) -> dict:
    """``items`` by ``key(item)``; a repeated key is a ValueError naming it."""
    keyed = {}
    for item in items:
        if keyed.setdefault(key(item), item) is not item:
            raise ValueError(f"{repeat} {key(item)!r}")
    return keyed


def load_scenarios(path: str | Path) -> dict[str, Scenario]:
    return _load("scenario file", path, lambda p: _keyed(
        _jsonl(p, Scenario.from_dict), lambda scn: scn.scenario_id, "repeated scenario id"))


def load_traces(path: str | Path) -> list[DialogueTrace]:
    return _load("trace file", path, lambda p: _jsonl(p, DialogueTrace.from_dict))


def _integers(raw: dict, floors: dict[str, int | None]) -> dict[str, int]:
    """The keys of ``floors`` that ``raw`` sets. Each must be a JSON integer
    no smaller than its floor; a floor of None leaves the range check to the
    class that takes the value. ``concurrency`` is also capped at
    ``MAX_CONCURRENCY``."""
    found = {key: typed(key, raw[key], int, "an integer") for key in floors if key in raw}
    for key, value in found.items():
        if floors[key] is not None and value < floors[key]:
            raise ValueError(f"{key} must be >= {floors[key]}")
        if key == "concurrency" and value > MAX_CONCURRENCY:
            raise ValueError(f"concurrency must be <= {MAX_CONCURRENCY}")
    return found


def _path(base: Path, key: str, value) -> Path:
    """A config path, relative to ``base``, the config file's directory
    (pathlib keeps an absolute ``value`` as it is)."""
    return base / typed(key, value, str, "a path string")


def _catalogue(base: Path, raw: dict) -> Path:
    path = _path(base, "catalogue", raw["catalogue"])
    if not path.exists():
        raise ValueError(f"catalogue file does not exist: {path}")
    return path


def _backends(specs: dict, base: Path) -> dict[str, BackendConfig]:
    """The backend of each role in ``specs``. Transcript paths resolve
    against ``base``, and each transcript file is loaded once: the scripted
    roles that name it share its Transcript."""
    transcripts: dict[Path, Transcript] = {}
    backends = {}
    for role, spec in specs.items():
        try:
            typed("backend", spec, dict, "a JSON object")
            path = spec.get("transcript") and _path(base, "transcript", spec["transcript"])
            if path and spec.get("kind") == "scripted" and path not in transcripts:
                transcripts[path] = _load("transcript", path, Transcript.load)
            backends[role] = BackendConfig.from_dict(spec, transcripts.get(path))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad backend config for role {role!r}: {fault(exc)}") from exc
    return backends


def _embedder(spec) -> Embedder:
    """The embedder an ``embedder`` spec describes: ``hash`` (the default) or ``remote``."""
    kind = typed("embedder", spec, dict, "a JSON object").get("kind", "hash")
    dimension = _integers(spec, {"dimension": None})
    if kind == "hash":
        return HashEmbedder(**dimension)
    if kind != "remote":
        raise ValueError(f"unknown embedder kind: {kind!r}")
    return RemoteEmbedder(spec["endpoint"], spec.get("model_id", ""), spec["dimension"],
                          spec.get("api_key_env"))


def _pipeline_config(path: str | Path, roles: tuple[str, ...]) -> PipelineConfig:
    raw = _json_object(path)
    base = Path(path).parent
    backends = _backends(typed("backends", raw.get("backends", {}), dict, "a JSON object"),
                         base)
    judges = {name: backends[name] for name in JUDGES if name in backends}
    for role in (*roles, *JUDGES) if judges else roles:  # both judges or neither
        if role not in backends:
            raise ValueError(f"no backend configured for role {role!r}")
    return PipelineConfig(
        catalogue=_catalogue(base, raw),
        rng_seed=typed("rng_seed", raw["rng_seed"], int, "an integer"),
        personas=_path(base, "personas", raw["personas"]) if raw.get("personas") else None,
        engine=EngineConfig(**_integers(raw, {"t_max": None, "regen_attempts": None})),
        out_dir=_path(base, "out_dir", raw.get("out_dir", "out")),
        embedder=_embedder(raw.get("embedder", {})),
        backends=backends, judges=judges or None,
        **_integers(raw, {"k": 1, "persona_k": 1, "concurrency": 1}),
    )


def load_pipeline_config(path: str | Path, *roles: str) -> PipelineConfig:
    """The pipeline config at ``path``, which must configure a backend for
    each of ``roles``."""
    return _load("config", path, lambda p: _pipeline_config(p, roles))


def _bench_config(path: str | Path) -> BenchConfig:
    """The bench run a config describes, its scenario, gold and exclusions
    files loaded. The catalogue is only checked to exist: the command loads
    it outside ``_load``, so an invalid catalogue still exits 1."""
    raw = _json_object(path)
    base, mode = Path(path).parent, raw["mode"]
    if mode not in ("static", "dynamic"):
        raise ValueError(f"unknown bench mode: {mode!r}")
    rng_seed = typed("rng_seed", raw["rng_seed"], int, "an integer")
    roles = ("assistant",) if mode == "static" else ("assistant", "user_proxy", "voter")
    optional = ("judge",) if raw.get("judge") else ()
    backends = _backends({role: raw[role] for role in (*roles, *optional)}, base)
    scenarios_path = _path(base, "scenarios", raw["scenarios"])
    scenarios = load_scenarios(scenarios_path)
    if not scenarios:
        raise ValueError(f"scenario file {scenarios_path} holds no scenario")
    if mode == "static":
        gold_path = _path(base, "gold_corpus", raw["gold_corpus"])
        golds = load_traces(gold_path)
        _check_turns(gold_path, golds)
        gold = _keyed(golds, lambda d: d.scenario_ref,
                      f"gold corpus {gold_path} repeats a dialogue for scenario")
        missing = [sid for sid in scenarios if sid not in gold]
        if missing:
            raise ValueError(f"no gold dialogue for scenario {missing[0]!r}")
        tasks = [EvalTask(scenario=scn, gold_dialogue=gold[sid]) for sid, scn in scenarios.items()]
        voting = None
    else:
        voting = VotingConfig(backends["user_proxy"], backends["voter"], rng_seed=rng_seed,
                              **_integers(raw, {"n_samples": None, "m_voters": None}))
        tasks = [EvalTask(scenario=scn) for scn in scenarios.values()]
    exclusions = None
    if raw.get("exclusions"):
        exclusions_path = _path(base, "exclusions", raw["exclusions"])
        exclusions = set(_load("exclusions file", exclusions_path, _json_strings))
        if scenarios.keys() <= exclusions:
            raise ValueError(f"exclusions file {exclusions_path} excludes every scenario; "
                             "nothing to score")
    return BenchConfig(
        catalogue=_catalogue(base, raw), scenarios=scenarios_path, tasks=tasks,
        backends=backends, voting=voting,
        engine=EngineConfig(**_integers(raw, {"t_max": None})),
        out_dir=_path(base, "out_dir", raw["out_dir"]), exclusions=exclusions,
        **_integers(raw, {"concurrency": 1}))


def _out_files(*paths: str | Path | None) -> None:
    """Create the parent of each output file a command writes (None when not
    named) before the first LLM call; a path that is a directory, or a parent
    that cannot be created, is a ConfigError naming it."""
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise ConfigError(f"output file {path} is a directory")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path.parent}: {exc}") from exc


def write_jsonl(fh, record: dict) -> None:
    """``record`` as one JSON line on the open file ``fh``, flushed to the
    OS, so a finished item's lines are readable before the run ends."""
    fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    fh.flush()


def write_json(path: str | Path | None, obj) -> None:
    """Pretty-printed JSON to ``path``, or to stdout when ``path`` is None."""
    text = dump_json(obj) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _join_scenarios(corpus: str, scenarios_path: str) -> list[tuple[DialogueTrace, Scenario]]:
    """Each corpus trace paired with the scenario it references: the one
    place a corpus command decides which scenario a trace belongs to."""
    scenarios = load_scenarios(scenarios_path)
    traces = load_traces(corpus)
    for trace in traces:
        if trace.scenario_ref not in scenarios:
            raise ConfigError(f"corpus {corpus} references unknown scenario "
                              f"{trace.scenario_ref!r}")
    return [(trace, scenarios[trace.scenario_ref]) for trace in traces]


def _check_tools(scenarios_path: str | Path, scenarios, cat) -> None:
    """A ConfigError naming the scenario file and the tool unless every tool
    a scenario names (seed tool, pool, distractors) is in the catalogue."""
    for scn in scenarios:
        for name in (scn.seed_tool, *scn.pool, *scn.distractors.names()):
            if name not in cat:
                raise ConfigError(f"scenario file {scenarios_path}: scenario "
                                  f"{scn.scenario_id!r} names unknown tool {name!r}")


def _check_turns(corpus: str | Path, traces) -> None:
    """A ConfigError naming the corpus and the dialogue unless every trace
    has ``DialogueTrace.turns``' shape: alternating, no blank user turn."""
    for trace in traces:
        try:
            trace.turns()
        except ValueError as exc:
            raise ConfigError(f"corpus {corpus}: dialogue {trace.dialogue_id!r}: {exc}") from exc


def _write_report(args, payload: dict, to_csv) -> int:
    """JSON to ``--out`` or stdout, and ``to_csv()`` to ``--csv`` when given."""
    write_json(args.out, payload)
    if args.csv:
        Path(args.csv).write_text(to_csv(), encoding="utf-8")
    return 0


def _item_errors(rows: list[dict]) -> int:
    """Print ``error on <dialogue_id>: <error>`` for each row that carries
    an ``error``, in row order; the exit code is 1 when any does, else 0."""
    errors = [row for row in rows if "error" in row]
    for row in errors:
        print(f"error on {row['dialogue_id']}: {row['error']}", file=sys.stderr)
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# commands


def cmd_catalogue_lint(args) -> int:
    cat = load_catalogue(args.path)
    print(f"ok: {len(cat)} tools")
    return 0


def cmd_distractors(args) -> int:
    cat = load_catalogue(args.catalogue)
    try:
        emb = HashEmbedder(dimension=args.dim)
        # the arguments are checked before the catalogue is embedded
        if args.seed not in cat:
            raise KeyError(f"unknown seed tool: {args.seed!r}")
        if args.k < 1:
            raise ValueError("k must be >= 1")
        dset = nearest_distractors(ToolIndex(cat, emb), args.seed, args.k)
    except (KeyError, ValueError) as exc:
        raise ConfigError(exc.args[0]) from exc
    for name, score in dset.members:
        print(f"{name}\t{score:.6f}")
    return 0


def cmd_generate(args) -> int:
    roles = ("goal", "user_proxy", "assistant")
    cfg = load_pipeline_config(args.config, *roles)
    gw_goal, gw_user, gw_asst = (cfg.backends[role] for role in roles)
    cat = load_catalogue(cfg.catalogue)
    emb = cfg.embedder
    store = (_load("persona file", cfg.personas, lambda p: PersonaStore.load(p, emb))
             if cfg.personas else PersonaStore.bundled(emb))

    if args.seed_tools is not None:
        names = [n.strip() for n in args.seed_tools.split(",") if n.strip()]
        if not names:
            raise ConfigError(f"--seed-tools {args.seed_tools!r} names no tool")
        unknown = [n for n in names if n not in cat]
        if unknown:
            raise ConfigError(f"unknown seed tools: {unknown}")
        duplicates = [n for n, count in Counter(names).items() if count > 1]
        if duplicates:  # each would give a second line with the same dialogue_id
            raise ConfigError(f"duplicate seed tools: {duplicates}")
    else:
        names = cat.names()

    out = cfg.out_dir
    _out_files(out / "corpus.jsonl", out / "rejected.jsonl", out / "scenarios.jsonl")
    # built once, before the first dialogue: a failed embedding here ends the command
    tools, personas = ToolIndex(cat, emb), VectorIndex(store.personas, emb)

    def _scenario(name: str) -> Scenario:
        return build_scenario(
            tools, personas, gw_goal, name, cfg.k, split_seed(cfg.rng_seed, f"dialogue:{name}"),
            persona_k=cfg.persona_k, slot_gw=cfg.backends.get("slots"))

    def _dialogue(scn: Scenario) -> tuple[str, dict]:
        try:
            trace = synthesize_dialogue(scn, tools, gw_user, gw_asst, cfg.engine)
        except SynthesisRejected as exc:
            return "rejected", {"seed_tool": scn.seed_tool, "reason": str(exc)}
        report = run_cascade(trace, scn, cat, cfg.judges)
        if report.accepted:
            return "accepted", trace.to_dict()
        return "rejected", {"dialogue": trace.to_dict(), "report": report.to_dict()}

    counts, errors = Counter(), []
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as corpus, \
            open(out / "rejected.jsonl", "w", encoding="utf-8") as rejected, \
            open(out / "scenarios.jsonl", "w", encoding="utf-8") as scenarios:
        files = {"accepted": corpus, "rejected": rejected}
        # a scenario line exists exactly when the item's first stage returned
        for name, result in zip(names, run_items(_scenario, names, cfg.concurrency, _dialogue)):
            if not isinstance(result, Exception):
                scn, result = result
                write_jsonl(scenarios, scn.to_dict())
            if isinstance(result, Exception):
                errors.append({"dialogue_id": name, "error": result})
            else:
                counts[result[0]] += 1
                write_jsonl(files[result[0]], result[1])
    print(f"accepted={counts['accepted']} rejected={counts['rejected']} "
          f"errors={len(errors)} -> {out}")
    return _item_errors(errors)


def cmd_validate(args) -> int:
    cfg = load_pipeline_config(args.config)
    cat = load_catalogue(cfg.catalogue)
    pairs = _join_scenarios(args.corpus, args.scenarios)
    _check_tools(args.scenarios, (scn for _, scn in pairs), cat)
    _out_files(args.out)
    results = run_items(lambda pair: run_cascade(*pair, cat, cfg.judges), pairs, cfg.concurrency)
    errors, verdicts = [], Counter()
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as out:
        for (trace, _), report in zip(pairs, results):
            if isinstance(report, Exception):
                errors.append({"dialogue_id": trace.dialogue_id, "error": report})
                report = ValidationReport(trace.dialogue_id, "error", [("judges", str(report))])
            verdicts[report.verdict] += 1
            if out:
                write_jsonl(out, report.to_dict())
    print(f"validated {len(pairs)} dialogues; rejected {verdicts['reject']}")
    _item_errors(errors)  # an errored dialogue is not accepted: it exits 1 below
    return 0 if verdicts["accept"] == len(pairs) else 1


def cmd_export(args) -> int:
    cfg = load_pipeline_config(args.config)
    cat = load_catalogue(cfg.catalogue)
    pairs = _join_scenarios(args.corpus, args.scenarios)
    # check every trace and scenario before writing anything
    _check_turns(args.corpus, (trace for trace, _ in pairs))
    _check_tools(args.scenarios, (scn for _, scn in pairs), cat)
    out_dir = Path(args.out_dir)
    _out_files(out_dir / "samples.jsonl", out_dir / "manifest.json")
    # sliced lazily: export writes each sample as it comes
    samples = (sample for trace, scn in pairs
               for sample in slice_dialogue(trace, selection_system_prompt(cat, scn.pool)))
    manifest = export(samples, out_dir / "samples.jsonl")
    write_json(out_dir / "manifest.json", manifest)
    print(f"exported {manifest['sample_count']} samples from "
          f"{manifest['dialogue_count']} dialogues -> {out_dir}")
    return 0


def cmd_stats(args) -> int:
    pairs = _join_scenarios(args.corpus, args.scenarios)
    _check_turns(args.corpus, (trace for trace, _ in pairs))
    _out_files(args.out, args.csv)
    try:
        stats = compute_stats([(trace, len(scn.gold_args)) for trace, scn in pairs])
    except ValueError as exc:
        raise ConfigError(f"corpus {args.corpus}: {exc}") from exc
    return _write_report(args, stats.to_dict(), stats.to_csv)


def cmd_score(args) -> int:
    pairs = _join_scenarios(args.corpus, args.refs)
    if not pairs:
        raise ConfigError(f"corpus {args.corpus} holds no dialogue to score")
    judge = _load("backend config", args.judge, lambda p: _backends(
        {"judge": _json_object(p)}, Path(p).parent)["judge"]) if args.judge else None
    _out_files(args.out, args.csv)
    grades = grade_corpus([trace for trace, _ in pairs], judge) if judge else None
    report = score_corpus([(trace, Reference(scn.seed_tool, scn.gold_args))
                           for trace, scn in pairs], grades)
    _write_report(args, report.to_dict(), report.to_csv_row)
    return _item_errors(report.per_dialogue)


def cmd_bench_run(args) -> int:
    cfg = _load("bench config", args.config, _bench_config)
    cat = load_catalogue(cfg.catalogue)
    _check_tools(cfg.scenarios, (task.scenario for task in cfg.tasks), cat)
    _out_files(cfg.out_dir / "traces.jsonl", cfg.out_dir / "report.json")
    with open(cfg.out_dir / "traces.jsonl", "w", encoding="utf-8") as fh:
        report, failed = run_benchmark(
            cfg.tasks, cfg.backends["assistant"], cat, cfg.voting, cfg.backends.get("judge"),
            cfg.engine, concurrency=cfg.concurrency, exclusions=cfg.exclusions,
            on_trace=lambda d: write_jsonl(fh, d.to_dict()))
    if report is not None:
        write_json(cfg.out_dir / "report.json", report.to_dict())
    rows = report.per_dialogue if report else failed
    print(f"bench complete: tasks={len(cfg.tasks)} traces={len(cfg.tasks) - len(failed)} "
          f"errors={sum(1 for row in rows if 'error' in row)} -> {cfg.out_dir}")
    return _item_errors(rows)


def _bench_report(path: str | Path) -> dict:
    """A ``report.json`` whose metrics are numbers or null, whose ``ngd`` is
    an object of such values and whose ``per_dialogue`` is an array."""
    report = _json_object(path)
    ngd = report.get("ngd", {})
    if not isinstance(ngd, dict):
        raise ValueError(f"ngd must be a JSON object, got {ngd!r}")
    if not isinstance(report.get("per_dialogue", []), list):
        raise ValueError(f"per_dialogue must be a JSON array, got {report['per_dialogue']!r}")
    metrics = [(key, report.get(key)) for key in REPORT_METRICS]
    for key, value in metrics + [(f"ngd {n}", v) for n, v in ngd.items()]:
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))):
            raise ValueError(f"{key} must be a number or null, got {value!r}")
    return report


def cmd_bench_report(args) -> int:
    report = _load("bench report", Path(args.dir) / "report.json", _bench_report)
    for key in REPORT_METRICS:
        print(f"{key.upper():>8}: {format_metric(report.get(key))}")
    for n, v in sorted(report.get("ngd", {}).items()):
        print(f"   NGD_{n}: {format_metric(v)}")
    print(f"dialogues: {len(report.get('per_dialogue', []))}")
    return 0


# ---------------------------------------------------------------------------
# parser


@cache  # one parser per process: each one is a cluster of reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalogue", help="catalogue utilities")
    cat_sub = p_cat.add_subparsers(dest="subcommand", required=True)
    p_lint = cat_sub.add_parser("lint", help="validate a catalogue file")
    p_lint.add_argument("path")
    p_lint.set_defaults(func="cmd_catalogue_lint")

    p_dis = sub.add_parser("distractors", help="nearest distractors for a seed tool")
    p_dis.add_argument("catalogue")
    p_dis.add_argument("seed")
    p_dis.add_argument("--k", type=int, default=5)
    p_dis.add_argument("--dim", type=int, default=256)
    p_dis.set_defaults(func="cmd_distractors")

    p_gen = sub.add_parser("generate", help="synthesize and validate dialogues")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--seed-tools", help="comma-separated seed tool names (default: all)")
    p_gen.set_defaults(func="cmd_generate")

    p_val = sub.add_parser("validate", help="run the validator cascade over a corpus")
    p_val.add_argument("corpus")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--scenarios", required=True)
    p_val.add_argument("--out")
    p_val.set_defaults(func="cmd_validate")

    p_exp = sub.add_parser("export", help="turn-slice a corpus into training samples")
    p_exp.add_argument("corpus")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--scenarios", required=True)
    p_exp.add_argument("--out-dir", required=True)
    p_exp.set_defaults(func="cmd_export")

    p_sta = sub.add_parser("stats", help="corpus histograms")
    p_sta.add_argument("corpus")
    p_sta.add_argument("--scenarios", required=True)
    p_sta.add_argument("--out")
    p_sta.add_argument("--csv")
    p_sta.set_defaults(func="cmd_stats")

    p_sco = sub.add_parser("score", help="metric report for a trace corpus")
    p_sco.add_argument("corpus")
    p_sco.add_argument("--refs", required=True, help="scenario file with references")
    p_sco.add_argument("--judge", help="backend config JSON for the rubric judge")
    p_sco.add_argument("--out")
    p_sco.add_argument("--csv")
    p_sco.set_defaults(func="cmd_score")

    p_ben = sub.add_parser("bench", help="benchmark a candidate assistant backend")
    ben_sub = p_ben.add_subparsers(dest="subcommand", required=True)
    p_run = ben_sub.add_parser("run", help="run a benchmark config")
    p_run.add_argument("config")
    p_run.set_defaults(func="cmd_bench_run")
    p_rep = ben_sub.add_parser("report", help="print a results directory summary")
    p_rep.add_argument("dir")
    p_rep.set_defaults(func="cmd_bench_report")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)  # by name, so the cached parser runs a rebound cmd_*
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CatalogueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except GatewayError as exc:  # a failed call outside any dialogue: an index build
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
