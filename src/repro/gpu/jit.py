"""The GPGPU kernels' compaction primitive, numba-jitted if possible.

The GPGPU kernels (:mod:`repro.gpu.kernels`) run whole-batch; where
numba is installed the *exact-arithmetic* inner loop — boolean mask
compaction — is compiled to machine code, and everywhere else (numba
absent, or ``REPRO_NO_NUMBA=1`` set) the same primitive falls back to
vectorised numpy.

Only integer/boolean kernels are ever jitted.  Floating-point
reductions deliberately stay on numpy: a jitted sequential-loop float
sum would differ from numpy's pairwise summation in the last bits and
break the engine's bitwise-equivalence invariant across backends.  Both
paths below are exact, so jit-on and jit-off runs produce identical
results — the CI optional-dependency matrix leg asserts it.

``HAVE_NUMBA`` reports which path is live; ``REPRO_NO_NUMBA`` (any
non-empty value) forces the numpy fallback even when numba is
importable, which is how the fallback is exercised deterministically.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["HAVE_NUMBA", "compact_mask"]


def _numba_njit():
    """Return ``numba.njit`` when numba is enabled, else ``None``."""
    if os.environ.get("REPRO_NO_NUMBA"):
        return None
    try:  # pragma: no cover - exercised only where numba is installed
        from numba import njit
    except Exception:  # ImportError, or a broken install
        return None
    return njit  # pragma: no cover - exercised only where numba is installed


_NJIT = _numba_njit()

#: True when the jitted kernel path is live (numba importable and not
#: disabled via ``REPRO_NO_NUMBA``); False means the numpy fallback runs.
HAVE_NUMBA: bool = _NJIT is not None


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @_NJIT(cache=True)
    def _compact_mask_jit(mask):
        n = np.int64(0)
        for i in range(len(mask)):
            if mask[i]:
                n += 1
        out = np.empty(n, dtype=np.int64)
        k = np.int64(0)
        for i in range(len(mask)):
            if mask[i]:
                out[k] = i
                k += 1
        return out


def compact_mask(mask: np.ndarray) -> np.ndarray:
    """Indices of the true lanes of a boolean mask, ascending.

    The scan-compaction primitive behind the selection and join
    kernels; exact on both paths (indices are integers).
    """
    mask = np.ascontiguousarray(mask, dtype=np.bool_)
    if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
        return _compact_mask_jit(mask)
    return np.nonzero(mask)[0].astype(np.int64, copy=False)
