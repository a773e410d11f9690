"""The Kashaev invariant as an independent anchor for the optimistic limit.

The Kashaev invariant <K>_N is the N-colored Jones polynomial at
q = exp(2 pi i / N) (Murakami and Murakami, Acta Math. 186 (2001)).  The
paper's optimistic limit is its formal saddle point, so

    log <K>_N = N (vol + i s) / (2 pi) + (3/2) log N + c0 + c1/N + ...

with vol the hyperbolic volume and s the Chern-Simons value, up to the
knot's mirror convention.  The oracle below sums the q-series of 4_1 and
5_2 in float numpy, with no optlim code, and reads vol, s and c0 off a
least-squares fit over N.  The tests compare them with the geometric class
of w0 at the closed-form twist points T1 (4_1) and T2 (5_2), on W and on V.
"""

import functools
import math

import numpy as np
import pytest

from optlim import assemble_V, assemble_W, twistknot, w0

PI2 = math.pi ** 2


def _q_power(e: np.ndarray, N: int) -> np.ndarray:
    """q^e at q = exp(2 pi i / N), the exponent reduced mod N first."""
    return np.exp(2j * np.pi * (e % N) / N)


def _q_pochhammer(sign: int, N: int) -> np.ndarray:
    """(q^sign)_k = prod_{j=1..k} (1 - q^(sign j)) for k = 0 .. N-1."""
    return np.concatenate(([1.0 + 0j], np.cumprod(1.0 - _q_power(sign * np.arange(1, N), N))))


def kashaev_4_1(N: int) -> float:
    """<K>_N of 4_1: sum_{k<N} |(q)_k|^2, real and positive."""
    return float(np.sum(np.abs(_q_pochhammer(1, N)) ** 2))


def kashaev_5_2(N: int) -> complex:
    """<K>_N of 5_2: sum_{i<=j<N} q^(-i(j+1)) (q)_j^2 / (q^-1)_i."""
    k = np.arange(N)
    terms = (_q_power(-k[:, None] * (k[None, :] + 1), N)
             * _q_pochhammer(1, N)[None, :] ** 2 / _q_pochhammer(-1, N)[:, None])
    return complex(terms[np.triu_indices(N)].sum())


def _fit(y: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    return np.linalg.lstsq(np.column_stack(columns), y, rcond=None)[0]


def _tail(N: np.ndarray) -> list[np.ndarray]:
    """The columns 1, 1/N, 1/N^2, 1/N^3 of the constant and the corrections."""
    return [np.ones(len(N)), 1.0 / N, 1.0 / N ** 2, 1.0 / N ** 3]


@functools.cache
def fit_4_1() -> tuple[float, float]:
    """(vol, c0) of 4_1 at N = 100..300, the log N coefficient fixed at 3/2."""
    N = np.arange(100, 301)
    K = np.array([kashaev_4_1(n) for n in N])
    vol, c0, *_ = _fit(np.log(K) - 1.5 * np.log(N), [N / (2 * np.pi)] + _tail(N))
    return vol, c0


@functools.cache
def fit_5_2() -> tuple[float, float, float]:
    """(vol, log N coefficient, phase slope s) of 5_2 at N = 100..300 in
    steps of 4.  The phase is unwrapped over that grid, so s is defined
    mod (2 pi)^2 / 4 = pi^2."""
    N = np.arange(100, 301, 4)
    K = np.array([kashaev_5_2(n) for n in N])
    vol, power, *_ = _fit(np.log(np.abs(K)), [N / (2 * np.pi), np.log(N)] + _tail(N))
    slope, *_ = _fit(np.unwrap(np.angle(K)), [N / (2 * np.pi)] + _tail(N))
    return vol, power, slope


def geometric_class(n: int, kind: str):
    """The w0 result of largest volume over the closed-form points of the
    twist knot T_n, on the region (W) or side (V) potential."""
    d = twistknot.twist_diagram(n)
    potential = assemble_W(d) if kind == "W" else assemble_V(d)
    results = []
    for t in twistknot.poly_roots(twistknot.defining_poly(n)):
        par = twistknot.parametrize(n, t)
        results.append(w0(potential, par.regions if kind == "W" else par.sides))
    return max(results, key=lambda r: r.vol)


def _mod_pi2(x: float) -> float:
    return x - PI2 * round(x / PI2)


@pytest.mark.parametrize("kind", ["W", "V"])
class TestGeometricClass:
    def test_figure_eight_volume(self, kind):
        vol, _ = fit_4_1()
        res = geometric_class(1, kind)
        assert abs(res.vol - vol) < 1e-8
        # <K>_N of 4_1 is real and positive: no Chern-Simons phase
        assert abs(_mod_pi2(res.cs_mod_pi2)) < 1e-8

    def test_5_2_volume(self, kind):
        vol, _, _ = fit_5_2()
        assert abs(geometric_class(2, kind).vol - vol) < 1e-8

    def test_5_2_chern_simons(self, kind):
        # the q-series is of the mirror of the diagram's 5_2: the phase
        # grows as -cs
        _, _, slope = fit_5_2()
        assert abs(_mod_pi2(slope + geometric_class(2, kind).cs_mod_pi2)) < 1e-8


def test_figure_eight_constant_term():
    # <K>_N ~ 3^(-1/4) N^(3/2) exp(N vol / (2 pi)) (Andersen and Hansen,
    # J. Knot Theory Ramifications 15 (2006))
    _, c0 = fit_4_1()
    assert abs(c0 + 0.25 * math.log(3)) < 1e-6


def test_5_2_power_of_n():
    _, power, _ = fit_5_2()
    assert abs(power - 1.5) < 1e-6
