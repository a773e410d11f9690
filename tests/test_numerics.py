"""Unit tests for the principal log, dilogarithm and Bloch-Wigner function."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from optlim import numerics
from optlim.numerics import (PI2, PI2_OVER_6, bloch_wigner, li2, plog,
                             reduce_centered, shape_double_prime, shape_prime)

from oracles import li2_float_constants

RNG = np.random.default_rng(20240817)


def rand_complex(n, rmin=0.05, rmax=20.0):
    r = np.exp(RNG.uniform(math.log(rmin), math.log(rmax), n))
    th = RNG.uniform(-math.pi, math.pi, n)
    return r * np.exp(1j * th)


class TestPlog:
    def test_one(self):
        assert plog(1.0) == 0.0

    def test_minus_one_upper_branch(self):
        assert plog(-1.0) == pytest.approx(1j * math.pi)

    def test_negative_axis_from_arithmetic(self):
        # values like (-1+0j)*1.0 may carry imag -0.0; still arg = +pi
        z = complex(-2.0, -0.0)
        assert plog(z).imag == pytest.approx(math.pi)

    def test_e_times_i(self):
        assert plog(complex(0.0, math.e)) == pytest.approx(1.0 + 1j * math.pi / 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            plog(0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            plog(complex(math.inf, 0.0))


class TestLi2Values:
    def test_zero(self):
        assert li2(0.0) == 0.0

    def test_one(self):
        assert li2(1.0) == pytest.approx(PI2_OVER_6, abs=1e-15)

    def test_minus_one(self):
        assert abs(li2(-1.0) - (-PI2 / 12)) < 1e-13

    def test_half(self):
        expected = PI2 / 12 - math.log(2) ** 2 / 2
        assert abs(li2(0.5) - expected) < 1e-13

    def test_two_on_cut_limit_from_below(self):
        expected = complex(PI2 / 4, -math.pi * math.log(2))
        assert abs(li2(2.0) - expected) < 1e-13

    def test_frozen_oracle_point(self):
        # frozen from the defining-integral quadrature oracle (see below)
        expected = complex(-0.280988055378061, 3.017251206369406)
        assert abs(li2(2 + 3j) - expected) < 2e-13

    def test_tiny_arguments(self):
        # Li2(z) = z + z^2/4 + z^3/9 + ...; forming log(1-z) here would
        # cancel catastrophically, so these pin the small-|z| branch
        for eps in (1e-300, 1e-16, 1e-14, 1e-8):
            for z in (eps, -eps, complex(0, eps), complex(eps, eps)):
                z = complex(z)
                expected = z + z * z / 4
                assert abs(li2(z) - expected) <= 1e-13 * abs(z)

    def test_near_one(self):
        # via the reflection identity with the stable small-argument pieces:
        # Li2(1-e) = pi^2/6 - log(1-e) log(e) - (e + e^2/4 + e^3/9 + ...)
        for eps in (1e-6, 1e-9, 1e-12):
            expected = (PI2_OVER_6 - math.log1p(-eps) * math.log(eps)
                        - (eps + eps * eps / 4 + eps ** 3 / 9))
            assert abs(li2(1 - eps) - expected) < 1e-14


def li2_quadrature(z, order=400):
    """Independent oracle: -int_0^z log(1-t)/t dt on the straight segment.

    Valid whenever the segment [0, z] avoids the cut [1, oo).
    """
    xs, ws = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (xs + 1.0)
    w = 0.5 * ws
    vals = -np.log(1.0 - s * z) / s
    return complex(np.sum(w * vals))


class TestLi2Oracle:
    @pytest.mark.parametrize("z", [
        2 + 3j, -0.7 + 0.2j, 0.3 - 0.9j, -5 - 2j, 0.99j, -12 + 0j, 0.5 + 0j,
        4 - 6j, -0.01 + 0.3j,
    ])
    def test_against_quadrature(self, z):
        assert abs(li2(z) - li2_quadrature(z)) < 1e-12 * max(1.0, abs(li2(z)))

    def test_random_points_off_cut(self):
        pts = rand_complex(200)
        pts = pts[np.abs(pts.imag) > 1e-3]
        for z in pts:
            z = complex(z)
            assert abs(li2(z) - li2_quadrature(z)) < 2e-12 * max(1.0, abs(li2(z)))


def li2_grid():
    """Points on every branch of li2's region reduction and its edges."""
    rng = np.random.default_rng(5)

    def polar(r, n):
        return r * np.exp(1j * rng.uniform(-math.pi, math.pi, n))

    third = cmath.exp(1j * math.pi / 3)
    parts = {
        "tiny": polar(10.0 ** rng.uniform(-300, -8, 60), 60),
        "unit circle": polar(1.0, 80),
        "Re z = 1/2": 0.5 + 1j * rng.uniform(-4.0, 4.0, 60),
        "near exp(+-i pi/3)": np.concatenate([
            w + polar(10.0 ** rng.uniform(-12, -2, 40), 40) for w in (third, third.conjugate())]),
        "near 1": 1.0 + polar(10.0 ** rng.uniform(-12, -1, 80), 80),
        "cut [1, 1e8]": 10.0 ** rng.uniform(0, 8, 60) + 0j,
        "negative axis": -(10.0 ** rng.uniform(-8, 8, 60)) + 0j,
    }
    return [(name, complex(z)) for name, zs in parts.items() for z in zs]


class TestLi2Mpmath:
    def test_grid_against_mpmath(self):
        # mpmath.polylog(2, x) takes the limit from below on the cut too.
        worst = {}
        with mpmath.workdps(40):
            for name, z in li2_grid():
                ref = complex(mpmath.polylog(2, mpmath.mpc(z.real, z.imag)))
                worst[name] = max(worst.get(name, 0.0), abs(li2(z) - ref) / abs(ref))
        assert max(worst.values()) < 4e-15, worst

    def test_grid_as_one_array_call(self):
        names, zs = zip(*li2_grid())
        values = li2(np.array(zs))
        worst = 0.0
        with mpmath.workdps(40):
            for z, value in zip(zs, values):
                ref = complex(mpmath.polylog(2, mpmath.mpc(z.real, z.imag)))
                worst = max(worst, abs(value - ref) / abs(ref))
        assert worst < 4e-15

    def test_series_length_covers_reduced_domain(self):
        # After inversion and reflection, |z| <= 1 and Re z <= 1/2; |u| of
        # u = -log(1 - z) peaks on that boundary, at z = exp(+-i pi/3).
        theta = np.linspace(math.pi / 3, 5 * math.pi / 3, 20001)
        y = np.linspace(-math.sqrt(3) / 2, math.sqrt(3) / 2, 20001)
        boundary = np.concatenate([np.exp(1j * theta), 0.5 + 1j * y])
        max_u = np.abs(np.log(1.0 - boundary)).max()
        assert max_u <= math.pi / 3 + 1e-12
        k = numerics._LI2_TERMS + 1
        first_omitted = abs(numerics._bernoulli_series_coeffs(2 * k)[2 * k]) * max_u ** (2 * k + 1)
        assert first_omitted < 1e-18


def bits(x):
    return np.asarray(x).tobytes()


class TestArrayContract:
    """li2, plog and bloch_wigner are elementwise on arrays of any shape;
    a scalar gives a numpy scalar equal to the matching array element."""

    @pytest.mark.parametrize("f", [li2, plog, bloch_wigner])
    def test_scalar_equals_array_element_bitwise(self, f):
        zs = np.array([z for _, z in li2_grid() if z != 1.0])
        values = f(zs)
        assert values.shape == zs.shape
        for z, value in zip(zs, values):
            single = f(complex(z))
            assert np.ndim(single) == 0
            assert bits(single) == bits(value)

    @pytest.mark.parametrize("f", [li2, plog, bloch_wigner])
    def test_shapes_are_preserved(self, f):
        zs = np.array([z for _, z in li2_grid() if z != 1.0])[:480 - 480 % 12]
        grid = zs.reshape(3, 4, -1)
        assert f(grid).shape == grid.shape
        assert bits(f(grid)) == bits(f(zs))
        assert f(zs[:0]).shape == (0,)
        assert f([complex(zs[0])]).shape == (1,)

    def test_zero_and_one(self):
        assert bits(li2(np.array([0.0, 1.0]))) == bits(np.array([0.0, PI2_OVER_6], dtype=complex))
        assert li2(0.0) == 0.0
        assert li2(1.0) == PI2_OVER_6

    @pytest.mark.parametrize("f", [li2, plog, bloch_wigner])
    def test_non_finite_rejected(self, f):
        for bad in (complex(math.inf, 0.0), complex(0.0, math.nan)):
            with pytest.raises(ValueError):
                f(bad)
            with pytest.raises(ValueError):
                f(np.array([0.5 + 0.5j, bad]))

    def test_cut_takes_the_limit_from_below_for_both_zero_signs(self):
        xs = np.array([1.0, 1.5, 2.0, 10.0, 1e8])
        below = li2(xs + 0.0j)
        minus_zero = np.conj(xs + 0.0j)
        assert np.all(np.signbit(minus_zero.imag))
        assert bits(li2(minus_zero)) == bits(below)
        for x, value in zip(xs, below):
            assert abs(value.imag + math.pi * math.log(x)) < 1e-12 * max(1.0, math.log(x))

    def test_bloch_wigner_vanishes_on_the_reals(self):
        xs = np.array([-1e6, -3.0, -1.0, -1e-9, 1e-9, 0.2, 0.999, 1.001, 5.0, 1e6])
        assert np.all(np.abs(bloch_wigner(xs)) < 1e-12)
        assert np.all(np.abs(bloch_wigner(np.conj(xs + 0.0j))) < 1e-12)


class TestLi2FloatConstantOracle:
    """li2, whose constants are complex arrays built once, equals byte for
    byte the same operations on float constants, which numpy casts to
    complex on every call."""

    @staticmethod
    def points() -> np.ndarray:
        rng = np.random.default_rng(20261020)
        n = 20_000
        edges = [0.0, 1.0, -1.0, 0.5, 2.0,
                 cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)]
        reals = [x.real for x in edges] + rng.standard_normal(100).tolist()
        return np.concatenate([
            10.0 ** rng.uniform(-13, 13, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n)),
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            1.0 + 1e-6 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)),
            np.exp(1j * rng.uniform(-math.pi, math.pi, n)),
            0.5 + 1j * rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n),
            edges,
            [complex(x, sign) for x in reals for sign in (0.0, -0.0)],
        ])

    def test_array_call_bitwise(self):
        z = self.points()
        assert np.signbit(z.imag).any()
        assert li2(z).tobytes() == li2_float_constants(z + 0.0).tobytes()

    def test_scalar_calls_bitwise(self):
        z = self.points()[-5000:]          # every edge and signed-zero value, and more
        got = np.array([li2(x) for x in z.tolist()])
        assert got.tobytes() == li2_float_constants(z + 0.0).tobytes()


class TestLi2Identities:
    def test_reflection(self):
        for z in rand_complex(500):
            z = complex(z)
            if min(abs(z), abs(z - 1)) < 1e-3:
                continue
            lhs = li2(z) + li2(1 - z)
            rhs = PI2_OVER_6 - plog(z) * plog(1 - z)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_inversion(self):
        for z in rand_complex(500):
            z = complex(z)
            if abs(z.imag) < 1e-6 and z.real > 0:
                continue
            lhs = li2(z) + li2(1 / z)
            rhs = -PI2_OVER_6 - 0.5 * plog(-z) ** 2
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestBlochWigner:
    def test_vanishes_on_reals(self):
        for x in (0.2, 0.7, -3.0, 5.0, 0.999, 1.001, 17.5):
            assert abs(bloch_wigner(x)) < 1e-12

    def test_conjugation_antisymmetry(self):
        for z in rand_complex(100):
            z = complex(z)
            if min(abs(z), abs(z - 1)) < 1e-3:
                continue
            assert abs(bloch_wigner(z.conjugate()) + bloch_wigner(z)) < 1e-12

    def test_inversion_antisymmetry(self):
        for z in rand_complex(100):
            z = complex(z)
            if min(abs(z), abs(z - 1)) < 1e-3:
                continue
            assert abs(bloch_wigner(1 / z) + bloch_wigner(z)) < 1e-12

    def test_regular_tetrahedron_value(self):
        z = cmath.exp(1j * math.pi / 3)
        assert bloch_wigner(z) == pytest.approx(1.0149416064096537, abs=1e-12)
        assert 2 * bloch_wigner(z) == pytest.approx(2.0298832128193074, abs=1e-12)

    def test_five_term_relation(self):
        count = 0
        while count < 300:
            x, y = (complex(v) for v in rand_complex(2, 0.2, 5.0))
            xy = x * y
            args = (x, y, (1 - x) / (1 - xy), 1 - xy, (1 - y) / (1 - xy))
            if any(min(abs(a), abs(a - 1)) < 1e-3 for a in args):
                continue
            total = sum(bloch_wigner(a) for a in args)
            assert abs(total) < 1e-11
            count += 1

    def test_rejects_zero_and_one(self):
        for z in (0.0, 1.0):
            with pytest.raises(ValueError):
                bloch_wigner(z)


class TestHelpers:
    def test_shape_companions(self):
        for u in rand_complex(50):
            u = complex(u)
            if min(abs(u), abs(u - 1)) < 1e-3:
                continue
            # u * u' * u'' = -1 for ideal tetrahedron shapes
            assert abs(u * shape_prime(u) * shape_double_prime(u) + 1) < 1e-12

    def test_reduce_centered(self):
        m = PI2
        assert reduce_centered(0.3, m) == pytest.approx(0.3)
        assert reduce_centered(0.3 + 3 * m, m) == pytest.approx(0.3)
        assert reduce_centered(-m / 2, m) == pytest.approx(m / 2)
        assert reduce_centered(m / 2, m) == pytest.approx(m / 2)
        with pytest.raises(ValueError):
            reduce_centered(1.0, -1.0)
