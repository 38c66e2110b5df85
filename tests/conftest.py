import numpy as np
import pytest

from fbmwalk import HurstModel


@pytest.fixture(scope="session")
def model_07() -> HurstModel:
    return HurstModel(0.7)


@pytest.fixture(scope="session")
def model_055() -> HurstModel:
    return HurstModel(0.55)


@pytest.fixture(scope="session")
def model_085() -> HurstModel:
    return HurstModel(0.85)


def replicate_se(samples) -> float:
    """Monte Carlo standard error of the mean across independent replicates."""
    samples = np.asarray(samples, dtype=np.float64)
    return float(samples.std(ddof=1) / np.sqrt(samples.shape[0]))


def acf_known_mean(x, mean: float, max_lag: int) -> np.ndarray:
    """Autocorrelations centred at the known process mean.

    Sample-mean centring biases the ACF by -Var(xbar)/Var(x), an O(1) shift
    for long-memory series at moderate lengths; centring at the true mean
    leaves only O(1/n) ratio bias, so spot checks against exact chain laws
    stay inside Monte Carlo error bars.
    """
    x = np.asarray(x, dtype=np.float64) - mean
    denom = float(np.dot(x, x))
    n = x.shape[0]
    return np.array([float(np.dot(x[: n - k], x[k:])) / denom for k in range(1, max_lag + 1)])

