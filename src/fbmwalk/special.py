"""Special functions: normal CDF/quantile and the diagonal bivariate-normal excess.

All routines are pure double-precision evaluations with no external
dependencies.  Tail behaviour matters here: downstream root-finding divides
bivariate probabilities by ``4*p*(1-p)`` with ``p`` approaching zero, so the
normal CDF is evaluated through ``erfc`` (never ``1 - Phi(large)``) and the
bivariate routine returns only the excess ``Phi2(z, z, r) - Phi(z)^2``, a
sum of positive terms for r > 0, never a difference of near-equal numbers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "bvn_cdf_excess_diag",
]


def float_or_array(fn):
    """Give ``fn`` its first argument as a float64 array; a scalar runs as one element and gives a float.

    So a scalar has the bits of the same value in an array.
    """

    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim:
            return fn(x, *args, **kwargs)
        return float(fn(x.reshape(1), *args, **kwargs)[0])

    return wrapper


_SQRT2 = math.sqrt(2.0)
_TWOPI = 2.0 * math.pi


# Cody's rational Chebyshev coefficients for erf and erfc (Math. Comp. 23,
# 1969; CALERF in SPECFUN), in his order: erf on |x| <= 0.46875 (A, B), erfc
# on 0.46875 < |x| <= 4 (C, D) and, in 1/x^2, on |x| > 4 (P, Q)
_ERF_A = (
    3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
    3.20937758913846947e03, 1.85777706184603153e-1,
)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_C = (
    5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
    2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
    2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8,
)
_ERFC_D = (
    1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
    1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
    3.43936767414372164e03, 1.23033935480374942e03,
)
_ERFC_P = (
    3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
    1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2,
)
_ERFC_Q = (
    2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
    6.05183413124413191e-2, 2.33520497626869185e-3,
)
_INV_SQRTPI = 1.0 / math.sqrt(math.pi)


def _horner(coeffs, r: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(r)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def _cody_ratio(num, den, y):
    """Cody's rational function of y: ``num[-1]`` leads, ``num[-2]`` and ``den[-1]`` are the constant terms, ``den`` leads with 1."""
    return _horner((num[-2], *num[-3::-1], num[-1]), y) / _horner((den[-1], *den[-2::-1], 1.0), y)


def _times_exp_neg_square(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r exp(-v^2), with exp(-v^2) split as exp(-t^2) exp(-(v-t)(v+t)), t = v rounded down to 1/16.

    No digits are lost to v^2, and r is applied before the one factor that
    can fall below the smallest normal double.
    """
    t = np.trunc(16.0 * v) / 16.0
    return np.exp(-t * t) * (np.exp(-(v - t) * (v + t)) * r)


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function over an array, within 1e-15 relative of libm."""
    y = np.abs(x)
    out = np.empty_like(y)
    small, big = y <= 0.46875, y > 4.0
    mid = ~small & ~big
    out[small] = 1.0 - x[small] * _cody_ratio(_ERF_A, _ERF_B, y[small] ** 2)
    v = y[mid]
    out[mid] = _times_exp_neg_square(v, _cody_ratio(_ERFC_C, _ERFC_D, v))
    v = y[big]
    w = 1.0 / (v * v)
    out[big] = _times_exp_neg_square(v, (_INV_SQRTPI - w * _cody_ratio(_ERFC_P, _ERFC_Q, w)) / v)
    neg = x < -0.46875
    out[neg] = 2.0 - out[neg]
    return out


@float_or_array
def std_normal_cdf(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2), accurate to ~1e-15 including deep tails."""
    return 0.5 * _erfc(-x / _SQRT2)


# Wichura's PPND16 rational minimax coefficients (Applied Statistics AS 241).
_PPND_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_PPND_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_PPND_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_PPND_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-6,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


@float_or_array
def std_normal_quantile(p):
    """Inverse standard normal CDF (Wichura's AS 241, double precision).

    Raises ValueError unless every argument lies in the open interval (0, 1).
    """
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("quantile arguments must be in (0, 1)")
    q = p - 0.5
    out = np.empty_like(p)

    central = np.abs(q) <= 0.425
    r = 0.180625 - q[central] ** 2
    out[central] = q[central] * _horner(_PPND_A, r) / _horner(_PPND_B, r)

    tail = ~central
    pt = p[tail]
    qt = q[tail]
    r = np.where(qt < 0.0, pt, 1.0 - pt)
    r = np.sqrt(-np.log(r))
    near = r <= 5.0
    val = np.empty_like(r)
    for sel, cn, cd, shift in ((near, _PPND_C, _PPND_D, 1.6), (~near, _PPND_E, _PPND_F, 5.0)):
        rs = r[sel] - shift
        val[sel] = _horner(cn, rs) / _horner(cd, rs)
    out[tail] = np.where(qt < 0.0, -val, val)
    return out


# 20-point Gauss-Legendre rule on [-1, 1] for the Drezner-Wesolowsky
# integral: the positive abscissae and their weights (the rule is symmetric).
_GL_W = (
    0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
    0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
    0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
    0.1527533871307259,
)
_GL_X = (
    0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
    0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
    0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
    0.07652652113349733,
)


@float_or_array
def bvn_cdf_excess_diag(z, r: float):
    """Phi2(z, z, r) - Phi(z)**2 on the diagonal, computed without cancellation.

    Uses the Drezner-Wesolowsky single-integral identity
    ``Phi2(z, z, r) = Phi(z)^2 + (1/2pi) int_0^{asin r} exp(-z^2/(1+sin t)) dt``
    (the derivative of Phi2 in r is the bivariate density, and r = sin t),
    so the excess over the independent case is the quadrature term alone.
    ``r`` lies in (-1, 1), which the caller checks.  One 20-point
    Gauss-Legendre rule serves every r: against 40-digit quadrature at
    p = Phi(z) from 1e-8 to 1/2 the excess is within
    2e-15 relative for 0 < r <= 0.999 and down to r = -0.5.  As r -> -1
    the integrand peaks sharply at the upper end and the fixed rule loses
    accuracy: the phi-coefficient error (excess / (p (1-p))) is below 5e-16
    down to r = -0.925, then 2e-14 at -0.95, 7e-10 at -0.99 and 6e-7 at
    -0.999.  No fGn lag correlation is negative for 1/2 < H < 1, so the walk
    laws never evaluate r < 0.
    """
    if r == 0.0:
        return np.zeros_like(z)
    asr = math.asin(r)
    z2 = z * z
    acc = np.zeros_like(z2)
    for wi, xi in zip(_GL_W, _GL_X):
        for sign in (-1.0, 1.0):
            sn = math.sin(asr * (sign * xi + 1.0) / 2.0)
            acc += wi * np.exp(-z2 / (1.0 + sn))
    return acc * asr / (2.0 * _TWOPI)
