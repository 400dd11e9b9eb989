"""Calibration probe and the normalization of raw times by it.

The probe is fixed code that calls nothing from ergonoise. It mixes the
kinds of work the workloads do: a Python loop over 4x4 ``eigvalsh``, a
small ``einsum`` with list arithmetic, and a few 64x64 ``eigvalsh``.
Timing it right before and right after an op and dividing by the mean
cancels host speed changes that last longer than one op.

The LAPACK entry points are bound here at import time, so a tracer that
later rebinds ``numpy.linalg`` attributes never sees probe calls.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.linalg import eigvalsh as _eigvalsh

# Probe time of the host this benchmark was calibrated on, in its fast
# state (2 cores, numpy 2.4.6 on OpenBLAS 0.3.31, one BLAS thread; the
# slow state takes about 11.5 ms). Every reported time is raw seconds *
# PROBE_REF_S / adjacent probe time, so it reads as fast-state seconds.
PROBE_REF_S = 0.007

_SMALL_COUNT = 500
_LARGE_COUNT = 6


class Probe:
    """Fixed calibration work with inputs made once per process."""

    def __init__(self):
        rng = np.random.default_rng(20260217)
        a = rng.standard_normal((_SMALL_COUNT, 4, 4)) + 1j * rng.standard_normal((_SMALL_COUNT, 4, 4))
        self._small = [m + m.conj().T for m in a]
        b = rng.standard_normal((_LARGE_COUNT, 64, 64))
        self._large = [m + m.T for m in b]
        self._kraus = rng.standard_normal((2, 2, 2)) + 0j
        self._tens = rng.standard_normal((2, 2, 2, 2)) + 0j

    def work(self) -> float:
        acc = 0.0
        for m in self._small:
            vals = _eigvalsh(m)
            acc += float(vals[-1] - vals[0])
        for k in self._kraus:
            for _ in range(80):
                out = np.einsum("ij,ajAJ,IJ->aiAI", k, self._tens, k.conj())
                acc += sum([abs(complex(v)) for v in out.ravel()[:8]])
        for m in self._large:
            acc += float(_eigvalsh(m)[0])
        return acc

    def time(self) -> float:
        """Wall seconds of one probe pass."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


def normalize(raw_s: float, probe_before_s: float, probe_after_s: float, ref_s: float = PROBE_REF_S) -> float:
    """Raw seconds in reference seconds: raw * ref / mean(adjacent probes)."""
    return raw_s * ref_s / (0.5 * (probe_before_s + probe_after_s))
