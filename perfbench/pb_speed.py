"""Machine-speed probe: timed regions expressed in reference seconds.

The benchmark runs on a few cores of a shared host, where the speed of the
same job changes by up to 2x within minutes as other work comes and goes.
A wall-clock time then says as much about the host as about the program.

While a timed region runs, an interval timer interrupts it every
``PERIOD_S`` seconds and runs ``probe``, a fixed piece of work of the
benchmark's own: an interpreted loop over numpy scalars (the kind of code
the uncompiled annealer runs), small-array numpy calls (per-variant
simulation and recombination) and a few tensor contractions on a 12-qubit
state. The probe runs in the same thread, so it sees the same speed as the
program at that moment, and the samples are spread evenly over the region.
The region's time without the probes, times ``REF_PROBE_S`` over the mean
probe time, is its time on a host that runs the probe in ``REF_PROBE_S``.
The program never runs the probe's code, so a change to the program moves
its reference time as it moves its wall time.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05
# about the probe's median time on the 2-vCPU x86-64 host the baseline was
# measured on (1.6-1.9 ms there), so reference and wall times are alike
REF_PROBE_S = 0.0018

_MULT = np.uint64(0x2545F4914F6CDD1D)
_SH12, _SH25, _SH27, _SH11 = np.uint64(12), np.uint64(25), np.uint64(27), np.uint64(11)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_STATE12 = (np.arange(4096, dtype=np.complex128) / 4096).reshape([2] * 12)


def probe() -> float:
    """Fixed work of about a millisecond; returns a value so nothing is skipped."""
    n = 32
    spins = np.ones(n, dtype=np.int8)
    fields = np.linspace(-1.0, 1.0, n)
    state = np.uint64(88172645463325252)
    with np.errstate(over="ignore"):
        for _ in range(150):
            state ^= state >> _SH12
            state ^= state << _SH25
            state ^= state >> _SH27
            u = float((state * _MULT) >> _SH11) * (1.0 / (1 << 53))
            i = int(u * n)
            delta = -2.0 * spins[i] * fields[i]
            if delta > 0.0 and u >= np.exp(-delta):
                continue
            spins[i] = -spins[i]
            fields[(i + 1) % n] += 0.01 * spins[i]
    small = np.arange(64, dtype=np.complex128).reshape([2] * 6) / 64
    for q in range(6):
        small = np.moveaxis(np.tensordot(_X, small, axes=([1], [q])), 0, q)
    wide = _STATE12
    for q in (0, 5, 11):
        wide = np.moveaxis(np.tensordot(_X, wide, axes=([1], [q])), 0, q)
    return float(np.multiply.outer(wide.reshape(-1)[:1024], _X.reshape(-1)).real.sum()
                 + small.real.sum() + fields.sum())


@dataclass
class Region:
    """One timed region: wall time, time without the probes, reference time."""

    wall_s: float = 0.0
    seconds: float = 0.0
    ref_s: float = 0.0
    samples: int = 0
    probe_mean_s: float = 0.0


class SpeedProbe:
    """Samples the host's speed with ``probe`` while a region is timed."""

    def __init__(self, period: float = PERIOD_S, ref_probe_s: float = REF_PROBE_S,
                 work=probe):
        self.period = period
        self.ref_probe_s = ref_probe_s
        self.work = work
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def region(self):
        """Time the body; the yielded ``Region`` is filled in when it ends."""
        r = Region()
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield r
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            r.wall_s = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            inside = self.samples[first:]
            r.seconds = r.wall_s - sum(inside)
            if not inside:  # shorter than one period: sample right after it
                self._sample()
            r.samples = len(inside)
            r.probe_mean_s = statistics.fmean(self.samples[first:])
            r.ref_s = r.seconds * self.ref_probe_s / r.probe_mean_s

    def summary(self) -> dict:
        xs = self.samples
        return {
            "samples": len(xs),
            "period_s": self.period,
            "ref_probe_s": self.ref_probe_s,
            "probe_s_median": statistics.median(xs) if xs else 0.0,
            "probe_s_mean": statistics.fmean(xs) if xs else 0.0,
        }
