"""The host's speed, sampled while the program runs.

The benchmark's machine is a few vCPUs of a shared host. Its speed moves by
up to a factor of two over seconds and minutes with the load of other
tenants, and each vCPU moves on its own. CPU time moves with wall time, so
this is the CPU's speed and not lost scheduling; no count of the program's
own work can take it out.

:class:`Probe` runs a fixed reference kernel from a ``SIGALRM`` handler every
``INTERVAL_S`` inside the process that runs the program, so it samples the
speed of the vCPU that the program's main thread is on, at the moments the
program runs. Each sample is the kernel's CPU time (``time.thread_time``),
which a thread that preempts it does not inflate. A timed section is then
reported twice: its wall time with the probes' own time taken out, and that
time scaled to the reference speed, ``wall * mean(REFERENCE_S / sample)``
over the samples taken inside it. The kernel mixes what the program does:
interpreted tokenizing and dict counting, and small numpy products.
"""

from __future__ import annotations

import json
import re
import signal
import time
from pathlib import Path

import numpy as np

INTERVAL_S = 0.02
# the kernel's CPU time at the reference speed, about its median on the
# machine described in README.md. Speed-scaled times are in seconds at
# this speed.
REFERENCE_S = 0.0002

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_TEXT = " ".join(f"Word{i % 89} v{i % 7} token{i % 13}" for i in range(24)).lower()
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((120, 200))
_VECTOR = _RNG.standard_normal(200)


def kernel() -> float:
    """Run the reference kernel once; return a checksum."""
    total = 0.0
    for _ in range(6):
        counts: dict[str, int] = {}
        for token in _TOKEN_RE.findall(_TEXT):
            counts[token] = counts.get(token, 0) + 1
        total += len(counts)
    for _ in range(4):
        z = _MATRIX @ _VECTOR
        total += float(_MATRIX.T @ (1.0 / (1.0 + np.exp(-z))) @ _VECTOR)
    return total


# one sample: (perf_counter at its start, wall seconds, CPU seconds)
Sample = tuple[float, float, float]


class Probe:
    """Samples the kernel every ``INTERVAL_S`` of wall time while entered.

    Only the main thread can enter it (Python runs signal handlers there).
    """

    def __init__(self):
        self.samples: list[Sample] = []
        self._previous = None

    def _sample(self, signum, frame):
        start, cpu = time.perf_counter(), time.thread_time()
        kernel()
        self.samples.append((start, time.perf_counter() - start, time.thread_time() - cpu))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.samples), encoding="utf-8")


def read_samples(path: Path) -> list[Sample]:
    return [tuple(s) for s in json.loads(path.read_text(encoding="utf-8"))]


def window(samples: list[Sample], start: float, end: float) -> tuple[float, float, float]:
    """For a section that ran from ``start`` to ``end`` (``perf_counter``
    values, which are comparable across processes): its wall seconds without
    the probes, the factor that scales its times to the reference speed
    (1 when no sample fell inside), and the probes' CPU seconds inside it."""
    inside = [(wall, cpu) for s, wall, cpu in samples if start <= s < end]
    wall = end - start - sum(w for w, _ in inside)
    if not inside:
        return wall, 1.0, 0.0
    factor = sum(REFERENCE_S / cpu for _, cpu in inside) / len(inside)
    return wall, factor, sum(c for _, c in inside)
