"""The traced benchmark run requires every binding in ``bench/run.py``'s
``EXPECTED`` to fire; a binding that no longer names a forge function can
never fire, so it is caught here rather than in a traced run."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

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
