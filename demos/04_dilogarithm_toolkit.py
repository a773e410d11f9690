"""The numerical toolkit: dilogarithm, Bloch-Wigner function, octahedra.

Everything downstream rests on a principal-branch Li2 accurate to about
1e-15 relative.  This demo exercises the classical functional equations
and the volume additivity of a crossing octahedron: the four tetrahedra
around its central axis and the five of its other decomposition have the
same total Bloch-Wigner volume.
"""

import cmath
import math

import numpy as np

from optlim import bloch_wigner, li2, plog
from optlim.numerics import PI2, shape_double_prime, shape_prime

print("special values")
print(f"  Li2(1)    = {li2(1.0).real:.15f}   (pi^2/6 = {PI2/6:.15f})")
print(f"  Li2(-1)   = {li2(-1.0).real:.15f}  (-pi^2/12 = {-PI2/12:.15f})")
print(f"  Li2(1/2)  = {li2(0.5).real:.15f}")
print(f"  Li2(2)    = {li2(2.0):.15f}   (on the cut: limit from below)")

z = cmath.exp(1j * math.pi / 3)
print(f"\n  D(e^(i pi/3)) = {bloch_wigner(z):.15f}  -> volume of the regular "
      f"ideal tetrahedron")
print(f"  2 D(e^(i pi/3)) = {2*bloch_wigner(z):.15f}  -> volume of the "
      f"figure-eight complement")

rng = np.random.default_rng(1)
worst_refl = worst_inv = worst_five = 0.0
n = 0
while n < 2000:
    r = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
    th = rng.uniform(-np.pi, np.pi, 2)
    x, y = (complex(a * np.exp(1j * b)) for a, b in zip(r, th))
    if min(abs(x), abs(x - 1), abs(1 - x * y), abs(y), abs(y - 1)) < 1e-3:
        continue
    worst_refl = max(worst_refl,
                     abs(li2(x) + li2(1 - x) - (PI2 / 6 - plog(x) * plog(1 - x))))
    worst_inv = max(worst_inv,
                    abs(li2(x) + li2(1 / x) + PI2 / 6 + 0.5 * plog(-x) ** 2))
    args = (x, y, (1 - x) / (1 - x * y), 1 - x * y, (1 - y) / (1 - x * y))
    if all(min(abs(a), abs(a - 1)) > 1e-3 for a in args):
        worst_five = max(worst_five, abs(sum(bloch_wigner(a) for a in args)))
    n += 1

print(f"\nfunctional equations over {n} random points")
print(f"  reflection defect: {worst_refl:.2e}")
print(f"  inversion defect:  {worst_inv:.2e}")
print(f"  five-term D defect: {worst_five:.2e}")

print("\noctahedron volume additivity (horizontal shapes t1..t4, t1 t2 t3 t4 = 1)")
p, pp = shape_prime, shape_double_prime
done = 0
worst = 0.0
while done < 200:
    r = np.exp(rng.uniform(np.log(0.3), np.log(3.0), 3))
    th = rng.uniform(-np.pi, np.pi, 3)
    t1, t2, t3 = (complex(a * np.exp(1j * b)) for a, b in zip(r, th))
    t4 = 1 / (t1 * t2 * t3)
    if min(min(abs(t), abs(t - 1)) for t in (t1, t2, t3, t4)) < 1e-2:
        continue
    u = (p(t1) * pp(t4), p(t1) * pp(t2), p(t3) * pp(t2), p(t3) * pp(t4),
         1 / (p(t1) * pp(t2) * p(t3) * pp(t4)))
    if min(min(abs(x), abs(x - 1)) for x in u) < 1e-2:
        continue
    four = sum(bloch_wigner(t) for t in (t1, t2, t3, t4))
    worst = max(worst, abs(four - sum(bloch_wigner(x) for x in u)))
    done += 1
print(f"  D(t1)+..+D(t4) - (D(u1)+..+D(u5)) over {done} octahedra: {worst:.2e}")
