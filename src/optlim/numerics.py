"""Complex principal logarithm, dilogarithm and Bloch-Wigner function.

All branch choices follow the principal convention arg z in (-pi, pi].
Points on the negative real axis therefore get arg = +pi, whatever the
sign of a zero imaginary part, and the dilogarithm on its cut [1, oo)
takes the limit from below, which is the convention that makes D(x) = 0
for every real x.

plog, li2 and bloch_wigner are array functions with one implementation
each: they take a scalar or an array of any shape and work elementwise,
and a scalar call returns a numpy scalar equal, bit for bit, to the
matching element of an array call.  Li2(0) = 0 and Li2(1) = pi^2/6;
log(0), D(0), D(1) and any non-finite element raise ValueError.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

PI = math.pi
PI2 = math.pi * math.pi
TWO_PI = 2.0 * math.pi
PI2_OVER_6 = PI2 / 6.0


def _bernoulli_series_coeffs(nmax: int) -> list[float]:
    """Coefficients B_n / (n+1)! of the log-series for Li2, computed exactly."""
    b = [Fraction(1)]
    for m in range(1, nmax + 1):
        acc = Fraction(0)
        binom = 1
        for j in range(m):
            acc += binom * b[j]
            binom = binom * (m + 1 - j) // (j + 1)
        b.append(-acc / (m + 1))
    coeffs = []
    fact = 1
    for n in range(nmax + 1):
        fact *= n + 1
        coeffs.append(float(b[n] / fact))
    return coeffs


# Li2 = u - u^2/4 + sum_k B_2k / (2k+1)! u^(2k+1) in u = -log(1-z), after
# the region reduction in li2 (|z| <= 1, Re z <= 1/2).  There |u| <= pi/3,
# with equality at z = exp(+-i pi/3); K = 10 terms leave a first omitted
# term of 6.9e-19 there (K = 9 would leave 2.7e-17).
_LI2_TERMS = 10
# The coefficients of P, ascending in u^2, split into even and odd powers:
# P is evaluated by Horner in u^4 over the pair values c_2i + c_2i+1 u^2,
# which takes fewer array operations than Horner in u^2.
_LI2_EVEN, _LI2_ODD = (np.array(_bernoulli_series_coeffs(2 * _LI2_TERMS)[2::2])
                       .reshape(-1, 2).T.copy())


def _as_complex(z) -> np.ndarray:
    """z as a complex array of at least one dimension, every -0.0 imaginary
    part made +0.0 so the negative real axis has arg +pi.

    A scalar becomes shape (1,) rather than 0-d: numpy computes on 0-d
    values with its scalar routines, which can round differently from the
    array loops, and a scalar call must equal the matching array element.
    """
    z = np.array(z, dtype=complex, ndmin=1, copy=None) + 0.0
    if np.count_nonzero(np.isfinite(z)) != z.size:
        raise ValueError(f"non-finite complex value in {z!r}")
    return z


def _shaped(out: np.ndarray, z):
    """out in the shape of the argument z: a numpy scalar for a scalar."""
    return out[0] if np.ndim(z) == 0 else out


def plog(z):
    """Principal logarithm, arg in (-pi, pi], elementwise."""
    v = _as_complex(z)
    if np.count_nonzero(v) != v.size:
        raise ValueError("log of zero")
    return _shaped(np.log(v), z)


def li2(z):
    """Principal-branch dilogarithm Li2(z) = -int_0^z log(1-t)/t dt, elementwise.

    Total on finite inputs; Li2(1) = pi^2/6.  Region reduction: inversion
    for |z| > 1, reflection for Re z > 1/2, then one fixed-length Bernoulli
    series in u = -log(1 - z).  Every element takes the same sequence of
    array operations, so its value does not depend on the array around it.
    """
    return _shaped(_li2(_as_complex(z)), z)


def _li2(z: np.ndarray) -> np.ndarray:
    """li2 of a complex array as _as_complex returns it."""
    # Inversion for |z| > 1: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2.
    inv = np.abs(z) > 1.0
    y = np.divide(1.0, z, out=z.copy(), where=inv)
    # Reflection for Re y > 1/2: Li2(y) = pi^2/6 - log(y) log(1 - y) - Li2(1 - y).
    refl = y.real > 0.5
    s = np.subtract(1.0, y, out=y.copy(), where=refl)
    # The logs of both reductions, 0 where a reduction does not apply; at
    # s = 1 - y = 0 log(s) is taken as 0, the log product being 0 there.
    lg = np.log(-z + 0.0, out=np.zeros_like(z), where=inv)
    ly = np.log(y, out=np.zeros_like(y), where=refl)
    ls = np.log(s, out=np.zeros_like(s), where=s != 0.0)
    sign = np.where(inv, -1.0, 1.0)
    shift = sign * (PI2_OVER_6 * refl - ly * ls) - PI2_OVER_6 * inv - 0.5 * lg * lg
    sign[refl] *= -1.0
    # The series on |s| <= 1, Re s <= 1/2.  u = -log(1 - s) is formed as
    # s * log(w) / (w - 1) with w = 1 - s (the log1p correction), so tiny
    # |s| keeps its relative accuracy; where w - 1 rounds to 0 the ratio
    # log(w) / (w - 1) is 1.
    w = 1.0 - s
    d = w - 1.0
    u = s * np.divide(np.log(w), d, out=np.ones_like(w), where=d != 0.0)
    x = u * u
    pairs = _LI2_EVEN + _LI2_ODD * x[..., None]
    x2 = x * x
    p = pairs[..., -1]
    for i in range(len(_LI2_EVEN) - 2, -1, -1):
        p = p * x2 + pairs[..., i]
    return shift + sign * (u + x * (u * p - 0.25))


def bloch_wigner(z):
    """Bloch-Wigner function D(z) = Im Li2(z) + log|z| * arg(1-z), elementwise.

    Real-valued; the hyperbolic volume of the ideal tetrahedron with shape z.
    Undefined at z in {0, 1}.
    """
    v = _as_complex(z)
    if np.count_nonzero((v == 0) | (v == 1)):
        raise ValueError("Bloch-Wigner function undefined at 0 and 1")
    one_minus = (1.0 - v) + 0.0
    return _shaped(_li2(v).imag
                   + np.log(np.abs(v)) * np.arctan2(one_minus.imag, one_minus.real), z)


def shape_prime(u) -> complex:
    """Companion shape parameter u' = 1/(1-u)."""
    u = complex(u)
    return 1.0 / (1.0 - u)


def shape_double_prime(u) -> complex:
    """Companion shape parameter u'' = 1 - 1/u."""
    u = complex(u)
    return 1.0 - 1.0 / u


def reduce_centered(x: float, modulus: float) -> float:
    """Reduce a real number into the centered interval (-modulus/2, modulus/2]."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    return x - modulus * math.ceil(x / modulus - 0.5)
