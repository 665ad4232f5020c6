"""Machine speed sampling, so that CPU time is reported at a fixed speed.

On a shared host the CPU speed a process gets swings between two levels
about 1.8x apart, in phases of a few seconds, and drifts over minutes. Raw
times of CPU-bound work then spread more from run to run than any useful
bound. While a measurement runs, a SIGALRM every INTERVAL_S times a fixed
probe in the main thread, between bytecodes of the measured code. The probe
mixes the kinds of work forge does (an integer loop, a hashed bag-of-words
embedding with regex, crc32 and numpy, and a JSON round trip), because the
slow phases slow each kind by a different factor. A measurement's CPU time
(this process with all its threads, plus children it waited for) is
rescaled to the speed at which the probe takes REFERENCE_S; the rest of its
wall time, spent waiting on I/O such as the loopback stub's latency, is
kept as is. The sampler's own time is subtracted from both. The probe
touches no data of the measured code, so no change to forge can move it.
"""

from __future__ import annotations

import json
import re
import resource
import signal
import statistics
import time
import zlib
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.01
REFERENCE_S = 0.0002

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_TEXT = "alpha beta gamma delta omega sigma " * 4
_DOC = {f"k{i}": [i, str(i)] for i in range(30)}


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _probe() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(1000):
        x += i * i
    for _ in range(2):
        vec = np.zeros(256)
        for tok in _TOKEN_RE.findall(_TEXT):
            vec[zlib.crc32(tok.encode("utf-8")) % 256] += 1.0
        vec /= np.linalg.norm(vec)
    json.loads(json.dumps(_DOC))
    return time.perf_counter() - start


@dataclass(frozen=True)
class Mark:
    wall: float
    cpu: float
    spent: float
    samples: int


class SpeedSampler:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler so far
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(_probe())
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), _cpu(), self.spent, len(self.samples))

    def measured(self, mark: Mark) -> tuple[float, float]:
        """Seconds since ``mark`` as measured (sampler included, as in span
        times), and without the sampler's time with the CPU time at the
        reference speed."""
        elapsed = time.perf_counter() - mark.wall
        spent = self.spent - mark.spent
        cpu = min(elapsed - spent, max(0.0, _cpu() - mark.cpu - spent))
        speed = statistics.median(self.samples[mark.samples:] or [_probe()])
        return elapsed, elapsed - spent - cpu * (1.0 - REFERENCE_S / speed)
