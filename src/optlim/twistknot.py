"""The twist-knot family: defining polynomials, parametrized solutions and
reference optimistic-limit values.

The twist knot with index n has n + 3 crossings; index 1 is the
figure-eight knot and index 2 the 5_2 knot.  For each n in 1..5 a single
algebraic parameter t satisfying an integer polynomial drives closed-form
side data

    a = 2,  b = -1,  x0 = t,  y0 = 1 + 2/t,
    x1 = t(t+2)/(t^2 - 4t + 8),  y1 = 4/t,
    x_{k+1} = x_k y_k / (-x_{k-1} + x_k + y_k),
    y_{k+1} = x_k + y_k - x_k y_k / y_{k-1},          k = 1..n-1,
    x_{n+1} = 3,  y_{n+1} = 1,

and region data

    c = -1/(t-3),  d = 3t/(2(t-3)),  e = 1,  w0 = (t+1)/(t-3),
    w_k = (x_k/y_k)'' (x_{k-1}/x_k)',                 k = 1..n+1.

The region values are read off the side recurrence; the tests hold their
closed forms as rational functions of t, and the region potential
assembled from its printed block structure, as independent checks of
parametrize and assemble_W.  The resulting assignments solve both
equation systems of the twist diagram, and the corrected potential values
reproduce the reference table of volumes and Chern-Simons invariants
embedded below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diagram import Label, twist_diagram
from .numerics import shape_double_prime, shape_prime
from .potential import assemble_W

MAX_INDEX = 5

# Integer coefficients, ascending powers of t.
DEFINING_POLYNOMIALS: dict[int, list[int]] = {
    1: [16, -12, 3],
    2: [-64, 80, -40, 7],
    3: [256, -448, 336, -120, 17],
    4: [-2048, 4608, -4608, 2464, -696, 82],
    5: [4096, -11264, 14080, -9984, 4192, -980, 99],
}

# Reference rows per index: (t, volume, cs) with four printed decimals.
# The raw corrected value at the parametrization above is -cs + i*vol,
# unreduced (cs may exceed pi^2).  The cs sign of the vol = +-1.4151 pair
# is fixed by an independent-diagram computation; see tests.
REFERENCE_ROWS: dict[int, list[tuple[complex, float, float]]] = {
    1: [(2 + 1.1547j, 2.0299, 0.0),
        (2 - 1.1547j, -2.0299, 0.0)],
    2: [(1.4587 + 1.0682j, 2.8281, 3.0241),
        (1.4587 - 1.0682j, -2.8281, 3.0241),
        (2.7969 + 0j, 0.0, -1.1135)],
    3: [(1.2631 + 1.0347j, 3.1640, 6.7907),
        (1.2631 - 1.0347j, -3.1640, 6.7907),
        (2.2664 + 0.7158j, 1.4151, -0.2110),
        (2.2664 - 0.7158j, -1.4151, -0.2110)],
    4: [(1.1713 + 1.0202j, 3.3317, 10.9583),
        (1.1713 - 1.0202j, -3.3317, 10.9583),
        (1.8097 + 0.9073j, 2.2140, 1.8198),
        (1.8097 - 0.9073j, -2.2140, 1.8198),
        (2.5257 + 0j, 0.0, -0.8822)],
    5: [(1.1208 + 1.0129j, 3.4272, 15.3545),
        (1.1208 - 1.0129j, -3.4272, 15.3545),
        (1.5498 + 0.9676j, 2.6560, 4.6428),
        (1.5498 - 0.9676j, -2.6560, 4.6428),
        (2.2789 + 0.4876j, 1.1087, -0.2581),
        (2.2789 - 0.4876j, -1.1087, -0.2581)],
}

REFERENCE_TOL = 5e-4


class TwistError(ValueError):
    pass


def _check_index(n: int):
    if not 1 <= n <= MAX_INDEX:
        raise TwistError(f"twist index {n} out of range 1..{MAX_INDEX}")


def defining_poly(n: int) -> list[int]:
    """Integer coefficients (ascending) of the defining polynomial of t."""
    _check_index(n)
    return list(DEFINING_POLYNOMIALS[n])


def _polyval(c: np.ndarray, x: np.complex128) -> np.complex128:
    """The polynomial with ascending coefficients c at x, by Horner's rule
    over numpy complex scalars in the order of np.polynomial.polynomial.polyval,
    so the values are polyval's bit for bit."""
    p = c[-1] + x * 0
    for ci in c[-2::-1]:
        p = ci + p * x
    return p


def poly_roots(coeffs) -> list[complex]:
    """All roots of a coefficient list (ascending powers), Newton-polished."""
    coeffs = [complex(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise TwistError("polynomial degree must be at least 1")
    roots = np.roots(list(reversed(coeffs)))
    c = np.array(coeffs)
    dc = c[1:] * np.arange(1, len(c))
    polished = []
    for r in roots:
        for _ in range(3):
            d = _polyval(dc, r)
            if d == 0:
                break
            r = r - _polyval(c, r) / d
        polished.append(complex(r))
    return sorted(polished, key=lambda z: (round(z.real, 12), z.imag))


@dataclass(frozen=True)
class TwistParametrization:
    n: int
    t: complex
    sides: dict[Label, complex]      # a, b, x0..x{n+1}, y0..y{n+1}
    regions: dict[Label, complex]    # c, d, e, w0..w{n+1}

    @property
    def assignment(self) -> dict[Label, complex]:
        return {**self.sides, **self.regions}

    def x(self, k: int) -> complex:
        return self.sides[f"x{k}"]

    def y(self, k: int) -> complex:
        return self.sides[f"y{k}"]

    def w(self, k: int) -> complex:
        return self.regions[f"w{k}"]


def parametrize(n: int, t: complex) -> TwistParametrization:
    """Closed-form side and region data at the parameter t.

    t is expected to be a root of defining_poly(n); the recurrence is still
    evaluated for any t with nonvanishing denominators, which the
    round-trip and residual tests rely on.
    """
    _check_index(n)
    t = complex(t)
    if t == 0:
        raise TwistError("t = 0: y0 = 1 + 2/t undefined")
    den1 = t * t - 4 * t + 8
    if den1 == 0:
        raise TwistError("denominator of x1 vanishes")
    if t == 3:
        raise TwistError("t = 3: region data undefined")
    x = {0: t, 1: t * (t + 2) / den1}
    y = {0: 1 + 2 / t, 1: 4 / t}
    for k in range(1, n):
        dx = -x[k - 1] + x[k] + y[k]
        if dx == 0 or y[k - 1] == 0:
            raise TwistError(f"recurrence denominator vanished at step {k}")
        x[k + 1] = x[k] * y[k] / dx
        y[k + 1] = x[k] + y[k] - x[k] * y[k] / y[k - 1]
    x[n + 1] = 3.0 + 0j
    y[n + 1] = 1.0 + 0j
    regions: dict[Label, complex] = {
        "c": -1.0 / (t - 3), "d": 3 * t / (2 * (t - 3)), "e": 1.0 + 0j,
        "w0": (t + 1) / (t - 3),
    }
    for k in range(1, n + 2):
        if x[k] == 0 or y[k] == 0:
            raise TwistError(f"side value vanished at step {k}")
        regions[f"w{k}"] = shape_double_prime(x[k] / y[k]) * shape_prime(x[k - 1] / x[k])
    sides: dict[Label, complex] = {"a": 2.0 + 0j, "b": -1.0 + 0j}
    for k in range(n + 2):
        sides[f"x{k}"] = x[k]
        sides[f"y{k}"] = y[k]
    return TwistParametrization(n=n, t=t, sides=sides, regions=regions)


def match_reference_row(n: int, t: complex, tol: float = REFERENCE_TOL):
    """The (vol, cs) reference row whose t matches, or None."""
    for t_ref, vol, cs in REFERENCE_ROWS[n]:
        if abs(t.real - t_ref.real) <= tol and abs(t.imag - t_ref.imag) <= tol:
            return vol, cs
    return None


def reproduce_reference_table(n: int) -> list[dict]:
    """Corrected potential values at every root of the defining polynomial.

    Returns one record per root with the computed raw value and the matched
    reference row; the heavy lifting lives in the optimistic module, which
    evaluates all roots in one batch.  The values are those of the twist
    diagram's own region potential, assemble_W(twist_diagram(n)): the
    diagram is built once per process and keeps that potential and its
    system, so only the first call for an index compiles anything.
    """
    from .optimistic import w0_batch

    _check_index(n)
    roots = poly_roots(defining_poly(n))
    points = [parametrize(n, t).assignment for t in roots]
    results = w0_batch(assemble_W(twist_diagram(n)), points)
    rows = []
    for t, result in zip(roots, results):
        expected = match_reference_row(n, t)
        record = {
            "n": n,
            "t": t,
            "raw": result.raw,
            "vol": result.vol,
            "bw_vol": result.bw_vol,
            "expected": expected,
            "pass": (expected is not None
                     and abs(result.vol - expected[0]) <= REFERENCE_TOL
                     and abs(-result.raw.real - expected[1]) <= REFERENCE_TOL),
        }
        rows.append(record)
    return rows


def fixtures_json() -> str:
    """Reference data as a JSON document for external test harnesses."""
    doc = {
        "defining_polynomials": {str(n): DEFINING_POLYNOMIALS[n] for n in DEFINING_POLYNOMIALS},
        "tolerance": REFERENCE_TOL,
        "rows": {
            str(n): [
                {"t": [t.real, t.imag], "vol": vol, "cs": cs}
                for t, vol, cs in rows
            ]
            for n, rows in REFERENCE_ROWS.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)
