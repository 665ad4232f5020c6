"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function of every ``forge`` module at
every module attribute it is bound to, so that a call made through a copied
``from ... import`` binding is traced as well as one made through the
defining module. A few methods and private helpers that a layer metric
needs are wrapped too, as is ``requests``' adapter ``send`` (the client side
of one HTTP round trip, whichever ``requests`` API the gateway uses).

Each thread keeps a span stack. A span's self time is its duration minus
the part of it that its child spans cover; work submitted to a thread pool
counts as a child of the span that submitted it, and overlapping children
are merged before they are subtracted. Statistics are kept in memory per
span name and per binding.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import requests.adapters

import forge.catalogue
import forge.cli
import forge.engine
import forge.export
import forge.gateway
import forge.harness
import forge.metrics
import forge.prompts
import forge.retrieval
import forge.scenario
import forge.seeds
import forge.validation

MODULES = (forge.catalogue, forge.cli, forge.engine, forge.export, forge.gateway,
           forge.harness, forge.metrics, forge.prompts, forge.retrieval, forge.scenario,
           forge.seeds, forge.validation)

# Private helpers a layer metric is defined on; wrapped when present.
PRIVATE = ("harness._decode_assistant",)

METHODS = ((forge.retrieval.HashEmbedder, "embed", "retrieval.HashEmbedder.embed"),
           (forge.retrieval.RemoteEmbedder, "embed", "retrieval.RemoteEmbedder.embed"),
           (forge.gateway.Transcript, "lookup", "gateway.Transcript.lookup"),
           (requests.adapters.HTTPAdapter, "send", "http.send"))

# Outermost-span groups: inclusive time counted once however spans nest.
GROUPS = {"cli.read_jsonl": "cli.io", "cli.write_jsonl": "cli.io",
          "cli.load_scenarios": "cli.io", "cli.load_traces": "cli.io"}


def _short(module) -> str:
    return module.__name__.removeprefix("forge.")


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.spans: dict[str, list[float]] = {}  # name -> [count, total_s, self_s]
        self.groups: Counter = Counter()  # group -> inclusive seconds
        self.fired: Counter = Counter()  # binding -> calls
        self.counts: Counter = Counter()  # hook counters

    # -- hooks: counters read from arguments and results -------------------

    def _hook(self, name: str, args: tuple, result, exc: BaseException | None) -> None:
        c = self.counts
        if name in ("gateway.complete", "gateway.sample_n"):
            cfg, req = args[0], args[1]
            c[f"calls.{cfg.model_id}"] += 1
            c["request_bytes"] += sum(len(m.content.encode("utf-8")) for m in req.messages)
        elif (name == "gateway.Transcript.lookup"
              and isinstance(exc, forge.gateway.TranscriptMissError)):
            c["transcript_misses"] += 1
        elif name == "validation.run_cascade" and exc is None:
            c["cascades"] += 1
            c["accepted" if result.accepted else f"rejects.{result.failures[0][0]}"] += 1
        elif name == "export.export" and exc is None:
            c["export.samples"] += result["sample_count"]
            c["export.bytes"] += os.path.getsize(result["path"])

    # -- spans ---------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.parent, local.depth = [], None, Counter()
        return local

    def _wrap(self, fn, name: str, binding: str):
        tracer = self
        group = GROUPS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._state()
            frame = [0.0, []]  # same-thread child seconds, cross-thread child intervals
            outermost = group is not None and local.depth[group] == 0
            if group is not None:
                local.depth[group] += 1
            local.stack.append(frame)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                local.stack.pop()
                if group is not None:
                    local.depth[group] -= 1
                dur = end - start
                own = dur - frame[0] - _union(frame[1], start, end)
                with tracer._lock:
                    stat = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                    stat[0] += 1
                    stat[1] += dur
                    stat[2] += own
                    tracer.fired[binding] += 1
                    if outermost:
                        tracer.groups[group] += dur
                    if local.stack:
                        local.stack[-1][0] += dur
                    elif local.parent is not None:
                        local.parent[1].append((start, end))
                    tracer._hook(name, args, result, exc)

        return wrapper

    def _submit(self, original):
        tracer = self

        @functools.wraps(original)
        def submit(pool, fn, /, *args, **kwargs):
            local = tracer._state()
            parent = local.stack[-1] if local.stack else local.parent

            def run(*a, **kw):
                inner = tracer._state()
                inner.stack, inner.parent = [], parent
                try:
                    return fn(*a, **kw)
                finally:
                    inner.parent = None

            return original(pool, run, *args, **kwargs)

        return submit

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        defined = {}
        for module in MODULES:
            for attr, obj in vars(module).items():
                name = f"{_short(module)}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or name in PRIVATE)):
                    defined[id(obj)] = name
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                if id(obj) in defined and inspect.isfunction(obj):
                    self._patch(module, attr, self._wrap(obj, defined[id(obj)],
                                                         f"{_short(module)}.{attr}"))
        for owner, attr, name in METHODS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, name))
        self._patch(ThreadPoolExecutor, "submit", self._submit(ThreadPoolExecutor.submit))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------------

    def count(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def self_in(self, prefix: str) -> float:
        return sum(s[2] for n, s in self.spans.items() if n.startswith(prefix))
