"""Integral identities, equivalence bounds, and the Rellich boundary limit.

Everything here reduces to one-dimensional quadrature per spherical mode:
the weight-shift identity behind the alpha = 0 symmetry result, the
dilation identity, the two-sided equivalence between the div-form and
Laplacian-form energies with its sharp bounds, and the test sequence whose
quotient descends to the sharp Rellich constant ((N-4)/2)^4 at the p = 2
boundary.
"""

import numpy as np

import ckn
from ckn import identities
from ckn.closedform import rellich_limit_grid, rellich_test_quotient

grid = ckn.make_grid()
rng = np.random.RandomState(42)
bump = ckn.RadialProfile(grid=grid, values=np.exp(-(grid.ts - 0.4) ** 2))

print("weight-shift identity  int |x|^4 |Lap u|^2 = int |Lap v|^2,  u = |x|^-2 v:")
for k in range(4):
    lhs, rhs, rel = identities.verify_iid(bump, k, 5)
    print(f"  mode {k}: lhs = {lhs:.10e}  rhs = {rhs:.10e}  rel err {rel:.1e}")

print("\ndilation identity  (N-2) int |grad w|^2 = 2 int Lap w (x . grad w):")
for k in (0, 2):
    lhs, rhs, rel = identities.verify_hardy_identity(bump, k, 5)
    print(f"  mode {k}: rel err {rel:.1e}")

print("\nsign discriminant separating the critical cases:")
for alpha in (-2.0, -1.0, -1e-12, 0.0, 1.0, 2.0):
    xi, sign = identities.xi_sign(5, alpha)
    print(f"  alpha = {alpha:+6.2f}: xi = {xi:+.6e}  sign = {sign:+d}")

print("\ncoefficient identities of the sharp critical constant (alpha < 0):")
for N, alpha in ((5, -1.0), (6, -2.0)):
    l1, r1, l2, r2 = identities.rellich_coeff_identities(N, alpha)
    print(f"  (N, alpha) = ({N}, {alpha}): "
          f"|lhs1 - rhs1| = {abs(l1 - r1):.1e}, |lhs2 - rhs2| = {abs(l2 - r2):.1e}")

print("\ntwo-sided equivalence of the second-order energies:")
for N, a, b in ((5, 1.0, -2.0), (5, -1.0, -4.0), (5, 0.0, -3.0)):
    P = ckn.derive(N, a, b)
    lo, hi = identities.equivalence_bounds(P)
    ratios = [identities.equivalence_ratio(bump, k, P) for k in range(4)]
    print(f"  ({N}, {a}, {b}): ratios {[f'{r:.3f}' for r in ratios]} "
          f"inside the sharp bounds [{lo:.4f}, {hi:.4f}]")

print("\nRellich test-sequence quotient at (N, alpha) = (5, -2), limit 1/16:")
eps_list = (0.3, 0.1, 0.03, 0.01)
for eps, q in zip(eps_list, rellich_test_quotient(5, eps_list, rellich_limit_grid())):
    print(f"  eps = {eps:5.2f}: quotient = {q:.6f}  (excess "
          f"{(q - 0.0625) / 0.0625:+.1%})")
print(f"  closed form at alpha = -2: {ckn.rellich_constant(5, -2.0)} exactly")
