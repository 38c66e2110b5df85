"""The scalar rule of the pointwise routines, stated once by ``special.float_or_array``.

A scalar first argument gives a float with the bits of the one-element
array; any other shape passes through.  Each grid reaches the tails and the
branch edges of its routine.
"""

import math

import numpy as np
import pytest

from fbmwalk import HurstModel
from fbmwalk.fgn import fgn_autocovariance
from fbmwalk.link import n_step_correlation_from_delta, persistence_from_tetrachoric, phi_from_tetrachoric
from fbmwalk.sampling import P_FLOOR, density_p, target_from_uniform
from fbmwalk.special import bvn_cdf_excess_diag, std_normal_cdf, std_normal_quantile

MODEL = HurstModel(0.7)
BELOW_ONE = float(np.nextafter(1.0, 0.0))
SQRT2 = math.sqrt(2.0)
# the erfc pieces meet at |x| = 0.46875 and 4, in x / sqrt 2
CDF_X = [-38.0, -8.0, -4.0 * SQRT2, -0.46875 * SQRT2, -1e-300, 0.0, 1e-300, 0.46875 * SQRT2, 4.0 * SQRT2, 8.0, 38.0, 40.0]
# the central piece ends at |p - 1/2| = 0.425, the near tail at sqrt(-log p) = 5
QUANTILE_P = [1e-300, 1e-100, math.exp(-25.0), 1e-8, 0.075, 0.0751, 0.5, 0.9249, 0.925, 1.0 - 1e-8, 1.0 - 1e-16, BELOW_ONE]
Z = [-37.0, -8.0, -5.6, -1.0, -1e-300, 0.0, 1.0, 5.6, 8.0, 37.0]
P = [P_FLOOR, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.999, 1.0 - 1e-6, 1.0 - P_FLOOR]

CASES = {
    "std_normal_cdf": (std_normal_cdf, CDF_X, ()),
    "std_normal_quantile": (std_normal_quantile, QUANTILE_P, ()),
    "bvn_cdf_excess_diag": (bvn_cdf_excess_diag, Z, (0.9,)),
    "bvn_cdf_excess_diag_r0": (bvn_cdf_excess_diag, Z, (0.0,)),
    "bvn_cdf_excess_diag_negative_r": (bvn_cdf_excess_diag, Z, (-0.5,)),
    "phi_from_tetrachoric": (phi_from_tetrachoric, P, (MODEL.delta1,)),
    "persistence_from_tetrachoric": (persistence_from_tetrachoric, P, (MODEL.delta1,)),
    "n_step_correlation_from_delta_n1": (n_step_correlation_from_delta, P, (MODEL.delta1, 1)),
    "n_step_correlation_from_delta_n3": (n_step_correlation_from_delta, P, (MODEL.delta1, 3)),
    "target_from_uniform": (target_from_uniform, [0.0, 1e-300, 1e-12, 0.25, 0.5, 0.999, BELOW_ONE], (MODEL,)),
    "density_p": (density_p, P, (MODEL,)),
    "fgn_autocovariance": (fgn_autocovariance, [0, 1, 2, 3, 10, 1000, 1e6, 1e12], (0.989,)),
    "fgn_autocovariance_h_one": (fgn_autocovariance, [0, 1, 2, 3, 10, 1000, 1e6, 1e12], (1.0,)),
}


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_scalar_gives_the_float_of_its_one_element_array(name):
    fn, grid, args = CASES[name]
    for x in grid:
        one = fn(np.array([x], dtype=np.float64), *args)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        for scalar in (x, np.float64(x), np.array(x, dtype=np.float64)):
            got = fn(scalar, *args)
            assert type(got) is float, (name, x, type(got))
            assert _bits(got) == _bits(one[0]), (name, x, got, one[0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_an_array_keeps_its_shape_and_its_entries_bits(name):
    fn, grid, args = CASES[name]
    grid = np.array(grid, dtype=np.float64)
    flat = fn(grid, *args)
    assert flat.shape == grid.shape and flat.dtype == np.float64
    for shape in ((2, len(grid) // 2), (len(grid), 1)):
        square = grid[: 2 * (len(grid) // 2)] if shape[0] == 2 else grid
        got = fn(square.reshape(shape), *args)
        assert got.shape == shape
        assert np.array_equal(_bits(got).ravel(), _bits(flat[: square.size]))
    # each entry of the array has the bits of its own scalar call
    assert np.array_equal(_bits(flat), _bits([fn(float(x), *args) for x in grid]))


def test_a_scalar_outside_the_domain_still_raises():
    with pytest.raises(ValueError):
        std_normal_quantile(0.0)
    with pytest.raises(ValueError):
        target_from_uniform(1.0, MODEL)
    with pytest.raises(ValueError):
        density_p(P_FLOOR / 2.0, MODEL)
    with pytest.raises(ValueError):
        fgn_autocovariance(-1, 0.7)
    with pytest.raises(ValueError):
        phi_from_tetrachoric(0.3, 1.0)
