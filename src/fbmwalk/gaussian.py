"""Exact Gaussian references via circulant embedding (Davies & Harte 1987).

Ground truth for everything the walk construction approximates, at any N in
O(N log N) time: exact-in-law fBm paths from the fGn covariance, and the
dichotomised walk obtained by thresholding exact fGn at the p-quantile (the
one process for which the link-layer formulas hold by construction).
"""

from __future__ import annotations

import numpy as np

from .fgn import HurstModel, fgn_autocovariance
from .special import std_normal_quantile

__all__ = ["fgn_cholesky_factor", "cholesky_fbm", "dichotomized_gaussian_walk"]


def fgn_cholesky_factor(model: HurstModel, n: int) -> np.ndarray:
    """Circulant square root ``sqrt(lambda / 2n)`` of the n-point fGn covariance.

    ``lambda`` is the real FFT of the 2n-periodic row ``[g0 .. gn, g(n-1) .. g1]``;
    a negative eigenvalue raises ``LinAlgError``.  The name is kept from the
    dense factor it replaced, because the benchmark's layer trace wraps it.
    """
    if n < 1:
        raise ValueError(f"the fGn oracle needs N >= 1, got {n}")
    # float lags: an integer range and its float copy would add 8N bytes to the peak
    row = fgn_autocovariance(np.arange(n + 1.0), model.h)
    lam = np.fft.rfft(np.concatenate((row, row[-2:0:-1]))).real
    if lam.min() < 0.0:
        msg = f"fGn circulant embedding (N={n}, H={model.h}): eigenvalue {lam.min():.3g} < 0"
        raise np.linalg.LinAlgError(msg)
    s = np.concatenate((lam, lam[-2:0:-1]))
    s /= 2 * n
    return np.sqrt(s, out=s)


def _exact_fgn(model: HurstModel, n: int, seed, factor: np.ndarray | None) -> np.ndarray:
    """n exact fGn samples: the real part of ``fft(s * (z0 + i z1))`` for z from ``seed``.

    Built in place in one complex buffer: z0 then z1 are the first and second
    2n normals of the stream, the values of one ``(2, 2n)`` draw.
    """
    s = fgn_cholesky_factor(model, n) if factor is None else factor
    rng = np.random.default_rng(seed)
    w = np.empty(2 * n, dtype=np.complex128)
    w.real = rng.standard_normal(2 * n)
    w.imag = rng.standard_normal(2 * n)
    w *= s
    return np.fft.fft(w, out=w)[:n].real


def cholesky_fbm(model: HurstModel, n: int, seed, factor: np.ndarray | None = None) -> np.ndarray:
    """Exact-in-law fBm samples at t_k = k/N, k = 0..N (length N+1).

    Cumulative sums of exact fGn scaled by N^-H; pass a precomputed
    ``factor`` when drawing many paths at one (H, N).  The name is kept from
    the dense route, because the benchmark's layer trace wraps it.
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
