"""Hurst estimators and second-order diagnostics for sampled paths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegeneratePathError",
    "InsufficientLengthError",
    "EstimateReport",
    "dsod_hurst",
    "aggregated_variance_hurst",
    "empirical_acf",
    "estimate_report",
]


class DegeneratePathError(ValueError):
    """Second differences vanish; the ratio estimator is undefined."""


class InsufficientLengthError(ValueError):
    """Input sequence too short for the requested statistic."""


def dsod_hurst(path: np.ndarray) -> float:
    """Second-difference variance-ratio estimate of the Hurst exponent.

    With ``V(d) = sum_k (path[k+2d] - 2 path[k+d] + path[k])^2`` the estimate
    is ``log2(V(2)/V(1)) / 2``: for self-similar paths the second-difference
    energy at dilation d scales like d^2H.  Invariant under affine maps of
    the path.
    """
    path = np.asarray(path, dtype=np.float64)
    if path.ndim != 1 or path.shape[0] < 16:
        raise InsufficientLengthError("need a 1-d path of length >= 16")
    d1 = path[2:] - 2.0 * path[1:-1] + path[:-2]
    d2 = path[4:] - 2.0 * path[2:-2] + path[:-4]
    v1 = float(np.dot(d1, d1))
    v2 = float(np.dot(d2, d2))
    if v1 == 0.0:
        raise DegeneratePathError("vanishing second differences (affine path)")
    return 0.5 * float(np.log2(v2 / v1))


def aggregated_variance_hurst(path: np.ndarray) -> float:
    """Block-mean variance-scaling estimate of the Hurst exponent.

    Regresses log sample-variance of m-block increment means on log m over
    dyadic m up to N/16; the slope s estimates 2H - 2, so H = 1 + s/2.
    """
    path = np.asarray(path, dtype=np.float64)
    if path.ndim != 1 or path.shape[0] < 256:
        raise InsufficientLengthError("need a 1-d path of length >= 256")
    inc = np.diff(path)
    n = inc.shape[0]
    sizes = []
    m = 1
    while m <= n // 16:
        sizes.append(m)
        m *= 2
    log_m, log_v = [], []
    for m in sizes:
        k = n // m
        means = inc[: k * m].reshape(k, m).mean(axis=1)
        v = float(np.var(means, ddof=1))
        if v > 0.0:
            log_m.append(np.log(m))
            log_v.append(np.log(v))
    if len(log_v) < 2:
        # constant-increment (fully persistent) degenerate case: slope 0
        return 1.0
    slope = float(np.polyfit(log_m, log_v, 1)[0])
    return 1.0 + slope / 2.0


def _acf_about(x: np.ndarray, centre: float, max_lag: int) -> np.ndarray:
    """Autocorrelations at lags 1..max_lag of ``x - centre``, normalised by its energy.

    Validation centres at a known process mean: sample-mean centring biases
    long-memory ACFs by -Var(xbar)/Var(x).
    """
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    x = np.asarray(x, dtype=np.float64) - centre
    n = x.shape[0]
    if n < 10 * max_lag:
        raise InsufficientLengthError(f"need at least {10 * max_lag} samples for {max_lag} lags")
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise DegeneratePathError("zero-variance sequence")
    return np.array([float(np.dot(x[: n - k], x[k:])) / denom for k in range(1, max_lag + 1)])


def empirical_acf(increments: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased-normalised sample autocorrelations at lags 1..max_lag."""
    x = np.asarray(increments, dtype=np.float64)
    return _acf_about(x, x.mean(), max_lag)


@dataclass(frozen=True)
class EstimateReport:
    h_dsod: float
    h_aggvar: float
    acf: np.ndarray
    n_used: int

    def as_dict(self) -> dict:
        return {
            "h_dsod": self.h_dsod,
            "h_aggvar": self.h_aggvar,
            "acf": [float(a) for a in self.acf],
            "n_used": self.n_used,
        }


def estimate_report(path: np.ndarray, max_lag: int = 10) -> EstimateReport:
    """Run both estimators plus the increment ACF on one path."""
    path = np.asarray(path, dtype=np.float64)
    return EstimateReport(
        h_dsod=dsod_hurst(path),
        h_aggvar=aggregated_variance_hurst(path),
        acf=empirical_acf(np.diff(path), max_lag),
        n_used=int(path.shape[0]),
    )
