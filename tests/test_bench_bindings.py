"""The traced benchmark run requires every binding in ``bench/run.py``'s
``EXPECTED`` to fire; a binding that no longer names a forge function can
never fire, so it is caught here rather than in a traced run. A short
traced run of each workload checks that they do fire."""

import importlib
import inspect
import json
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import forge

BENCH = Path(__file__).resolve().parent.parent / "bench"

# not a forge function: the HTTP client's adapter method, wrapped by the tracer itself
NOT_FORGE = {"http.send"}


def _expected_bindings(monkeypatch) -> set[str]:
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling speed.py
    expected = runpy.run_path(str(BENCH / "run.py"), run_name="bench_run")["EXPECTED"]
    return set().union(*expected.values()) - NOT_FORGE


def test_expected_bindings_name_forge_functions(monkeypatch):
    bindings = _expected_bindings(monkeypatch)
    assert bindings
    for binding in sorted(bindings):
        module, *attrs = binding.split(".")
        obj = importlib.import_module(f"forge.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
            if obj is None:
                pytest.fail(f"{binding} does not resolve in forge")
        assert inspect.isfunction(obj) and obj.__module__.startswith("forge."), binding


def test_traced_methods_name_forge_functions():
    """Every forge method in ``bench/spans.py``'s ``METHODS`` is still a
    function of its class, so the tracer can wrap it."""
    methods = runpy.run_path(str(BENCH / "spans.py"), run_name="bench_spans")["METHODS"]
    forge_methods = [(owner, attr, name) for owner, attr, name in methods
                     if owner.__module__.startswith("forge.")]
    assert {name for *_, name in forge_methods} >= {"retrieval.RemoteEmbedder.embed",
                                                   "gateway.Transcript.lookup"}
    for owner, attr, name in forge_methods:
        fn = inspect.getattr_static(owner, attr, None)
        assert inspect.isfunction(fn) and fn.__module__.startswith("forge."), name


def test_traced_bench_smoke(tmp_path):
    """``bench/run.py --trace 1`` passes its gate, every ``EXPECTED`` binding
    firing, on ``pipeline-deep``, ``bench-dynamic-loopback`` and
    ``gen-wide-5k`` (the one catalogue wide enough that a command reads few
    of its tools), and a ``--corrupt`` run fails it. The four runs go at
    once, from a copy of ``bench/`` beside a link to the forge under test,
    so their work files stay in ``tmp_path``."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(Path(forge.__file__).resolve().parents[1])
    runs = {"pipeline-deep": ["--trace", "1"], "bench-dynamic-loopback": ["--trace", "1"],
            "gen-wide-5k": ["--trace", "1"], "pipeline-deep --corrupt": ["--corrupt"]}
    procs = {label: subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", label.split()[0], "--seed", "3",
         "--seconds", "0.01", *extra], cwd=tmp_path, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE) for label, extra in runs.items()}
    try:
        for label, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            verdict = json.loads(stdout.splitlines()[-1]) if stdout.strip() else {}
            assert (proc.returncode, verdict.get("correct")) == (
                (1, False) if "corrupt" in label else (0, True)), (label, stderr[-2000:])
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
