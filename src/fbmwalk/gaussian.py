"""Exact Gaussian references via dense Cholesky factorisation.

Small-N ground truth for everything the walk construction approximates:
exact-in-law fBm paths from the fGn covariance, and the dichotomised walk
obtained by thresholding exact fGn at the p-quantile (the one process for
which the link-layer formulas hold by construction).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fgn import HurstModel, fgn_autocovariance
from .special import std_normal_quantile

__all__ = ["fgn_cholesky_factor", "cholesky_fbm", "dichotomized_gaussian_walk"]

MAX_DENSE_N = 4096
_JITTER = 1e-12


def fgn_cholesky_factor(model: HurstModel, n: int) -> np.ndarray:
    """Lower-triangular factor of the n x n unit-variance fGn covariance.

    The covariance ``cov[i, j] = row[|i - j|]`` is a strided view of the
    2n - 1 values ``row[n-1], ..., row[1], row[0], ..., row[n-1]``, so the
    factor is the only n x n array allocated.  On factorisation failure,
    retries exactly once with ``1e-12`` added to the diagonal; a second
    failure propagates.
    """
    if not 1 <= n <= MAX_DENSE_N:
        raise ValueError(f"dense factorisation supports 1 <= N <= {MAX_DENSE_N}, got {n}")
    row = np.array([fgn_autocovariance(m, model.h) for m in range(n)])
    cov = sliding_window_view(np.concatenate((row[:0:-1], row)), n)[::-1]
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(cov + _JITTER * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"fGn covariance (N={n}, H={model.h}) not factorisable even with jitter"
            ) from exc


def _exact_fgn(model: HurstModel, n: int, seed, factor: np.ndarray | None) -> np.ndarray:
    """n exact fGn samples: ``factor @ z`` for z drawn from ``seed``'s generator."""
    rng = np.random.default_rng(seed)
    L = fgn_cholesky_factor(model, n) if factor is None else factor
    return L @ rng.standard_normal(L.shape[0])


def cholesky_fbm(model: HurstModel, n: int, seed, factor: np.ndarray | None = None) -> np.ndarray:
    """Exact-in-law fBm samples at t_k = k/N, k = 0..N (length N+1).

    Cumulative sums of exact fGn scaled by N^-H; pass a precomputed
    ``factor`` when drawing many paths at one (H, N).
    """
    fgn = _exact_fgn(model, n, seed, factor)
    path = np.empty(n + 1, dtype=np.float64)
    path[0] = 0.0
    np.cumsum(fgn, out=path[1:])
    path[1:] /= float(n) ** model.h
    return path


def dichotomized_gaussian_walk(
    model: HurstModel, p: float, n: int, seed, factor: np.ndarray | None = None
) -> np.ndarray:
    """Threshold exact fGn at z(p): int64 step +1 where Z_j <= z(p), else -1.

    The resulting +-1 chain has marginal p and lag-m correlation equal to
    the phi coefficient at tetrachoric delta_m, exactly.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    fgn = _exact_fgn(model, n, seed, factor)
    return np.where(fgn <= std_normal_quantile(p), np.int64(1), np.int64(-1))
