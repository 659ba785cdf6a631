"""Speed probe: a fixed piece of work that tells how fast the host runs now.

The benchmark's hosts share their cores with other machines' work, and
their speed drifts by up to a factor of two over tens of seconds, more
than any bound a regression gate can use. The probe is run next to every
timed op and set-up, and each time is scaled to what it would be on a
host where the probe takes `REFERENCE_S`:

    scaled = measured / slowness(),  slowness() = probe / REFERENCE_S

The probe mixes the two kinds of work epcag's time goes to: a pure-Python
float loop (the interpreter's speed) and a loop of small numpy calls on
2x2 arrays (the per-call cost of numpy). Weighted this way, the scaled op
times of a warm, in-process workload spread a third to a quarter as much
between 30 s runs as the raw ones. Work done in fresh processes also
pays interpreter start-up and imports, which the process probe (a fresh
interpreter importing numpy and scipy.linalg) matches; it is added for
such work. Neither probe runs epcag code, so a change to the program
moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# the probes' median times on an Intel Xeon (Haswell-class) host with 2
# vCPUs, Python 3.11, numpy 2, scipy 1; scaled times are seconds on it
REFERENCE_S = 0.2
PROCESS_REFERENCE_S = 0.45
PROCESS_PROBE = "import numpy, scipy.linalg"

PY_STEPS = 1_000_000
NP_STEPS = 30_000

_A = np.array([[-0.5, 0.2], [0.0, -0.3]])
_V = np.ones(2)


def probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    start = time.perf_counter()
    s = 0.0
    for i in range(PY_STEPS):
        s += (i * 0.5) % 7.0
    x = _V
    for _ in range(NP_STEPS):
        x = _A @ x * 0.5 + _V
    elapsed = time.perf_counter() - start
    if not (s > 0 and np.isfinite(x).all()):
        raise AssertionError("speed probe computed a wrong result")
    return elapsed


def process_probe() -> float:
    """Wall time of a fresh interpreter importing numpy and scipy.linalg."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROCESS_PROBE], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def slowness(cold: bool) -> float:
    """How many times slower than the reference host this host runs now.
    Work done in fresh processes (`cold`) is matched by both probes."""
    if cold:
        return (probe() + process_probe()) / (REFERENCE_S + PROCESS_REFERENCE_S)
    return probe() / REFERENCE_S
