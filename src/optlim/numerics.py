"""Complex principal logarithm, dilogarithm and Bloch-Wigner function.

All branch choices follow the principal convention arg z in (-pi, pi].
Points on the negative real axis therefore get arg = +pi, and the
dilogarithm on its cut [1, oo) takes the limit from below, which is the
convention that makes D(x) = 0 for every real x.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

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
_LI2_HORNER = tuple(reversed(_bernoulli_series_coeffs(2 * _LI2_TERMS)[2::2]))


def _collapse(z: complex) -> complex:
    """z with a -0.0 imaginary part made +0.0, so the negative real axis
    has arg +pi."""
    return complex(z.real, 0.0) if z.imag == 0.0 else z


def _as_complex(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value {z!r}")
    return _collapse(z)


def _log(z: complex) -> complex:
    """plog of a finite nonzero complex, without plog's validation."""
    return cmath.log(_collapse(z))


def plog(z) -> complex:
    """Principal logarithm, arg in (-pi, pi]."""
    z = _as_complex(z)
    if z == 0:
        raise ValueError("log of zero")
    return cmath.log(z)


def _li2_series(z: complex) -> complex:
    """Li2 on |z| <= 1, Re z <= 1/2 by the fixed-length Bernoulli series.

    u = -log(1 - z) is formed as -log(w) * (-z / (w - 1)) with w = 1 - z
    (the log1p correction), so tiny |z| keeps its relative accuracy.
    """
    w = 1.0 - z
    d = w - 1.0
    if d == 0:
        return z
    u = -cmath.log(w) * (-z / d)
    u2 = u * u
    p = 0.0
    for c in _LI2_HORNER:
        p = p * u2 + c
    return u - 0.25 * u2 + u * u2 * p


def li2(z) -> complex:
    """Principal-branch dilogarithm Li2(z) = -int_0^z log(1-t)/t dt.

    Total on finite inputs; Li2(1) = pi^2/6.  Region reduction: inversion
    for |z| > 1, reflection for Re z > 1/2, then one fixed-length Bernoulli
    series in -log(1 - z).
    """
    z = _as_complex(z)
    if z == 0:
        return 0.0 + 0.0j
    if z == 1:
        return complex(PI2_OVER_6, 0.0)

    shift = 0.0 + 0.0j
    sign = 1.0
    if abs(z) > 1.0:
        # Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        lg = _log(-z)
        shift += -PI2_OVER_6 - 0.5 * lg * lg
        sign = -sign
        z = 1.0 / z
    if z.real > 0.5:
        # Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z)
        one_minus = _collapse(1.0 - z)
        if one_minus == 0:
            return shift + sign * PI2_OVER_6
        shift += sign * (PI2_OVER_6 - _log(z) * _log(one_minus))
        sign = -sign
        z = one_minus
    return shift + sign * _li2_series(z)


def bloch_wigner(z) -> float:
    """Bloch-Wigner function D(z) = Im Li2(z) + log|z| * arg(1-z).

    Real-valued; the hyperbolic volume of the ideal tetrahedron with shape z.
    Undefined at z in {0, 1}.
    """
    z = _as_complex(z)
    if z == 0 or z == 1:
        raise ValueError(f"Bloch-Wigner function undefined at {z}")
    one_minus = _collapse(1.0 - z)
    return li2(z).imag + math.log(abs(z)) * cmath.phase(one_minus)


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
