"""Per-mode spectra of the linearization at the radial extremal.

Expanding perturbations of U in spherical harmonics diagonalizes the
linearized operator into one generalized eigenproblem per mode k.  Mode 0
always starts at exactly 1 (eigenprofile U itself) with p - 1 second (the
scaling direction); the mode-1 bottom eigenvalue crosses the reference
line p - 1 exactly on the Felli-Schneider curve.
"""

import numpy as np

import ckn
from ckn import spectral

grid = ckn.make_grid()

print("mode-0 and mode-1 eigenvalues at (5, 1, -2):")
P = ckn.derive(5, 1.0, -2.0)
for k, idx in ((0, 1), (0, 2), (1, 1), (2, 1)):
    r = spectral.mode_eigenvalue(P, ckn.make_mode(P, k), idx, grid)
    print(f"  k = {k}, index = {idx}: nu = {r.eigenvalue:.8f}   "
          f"(backward error {r.residual:.1e}, {r.iters} factor solves)")
print(f"  reference p - 1 = {P.p - 1:.8f}")

print("\nmode-1 bottom eigenvalue across beta at (N, alpha) = (5, 1):")
bfs = ckn.felli_schneider(5, 1.0)
for beta in (-3.4, -3.0, bfs, -2.4, -2.0):
    Pb = ckn.derive(5, 1.0, beta)
    eig = spectral.mode_eigenvalue(Pb, ckn.make_mode(Pb, 1), 1, grid).eigenvalue
    marker = " <- on the Felli-Schneider curve" if beta == bfs else ""
    print(f"  beta = {beta:+.6f}: nu_1(k=1) - (p-1) = "
          f"{eig - (Pb.p - 1):+.6f}{marker}")

print("\nexact-solution certificates for the reduced fourth-order ODE:")
print(f"  mode-0 profile residual:            "
      f"{spectral.linearized_residual(P, 0, grid):.2e}")
Pf = ckn.derive(5, 1.0, bfs)
print(f"  mode-1 profile residual on curve:   "
      f"{spectral.linearized_residual(Pf, 1, grid):.2e}")
Poff = ckn.derive(5, 1.0, bfs + 0.3)
print(f"  mode-1 profile residual off curve:  "
      f"{spectral.linearized_residual(Poff, 1, grid):.2e} (not a solution there)")

print("\nmode-exclusion comparison (p_M - 1) Gamma_M vs Gamma_{M+2k}:")
for k in (1, 2, 3):
    lhs, rhs, holds = spectral.gamma_comparison(10.0, k)
    print(f"  k = {k}: {lhs:10.1f} <= {rhs:10.1f}  ({holds})")

print("\nspectral gap surrogate on the critical lower boundary:")
Pc = ckn.derive(5, -1.0, ckn.beta_lower(5, -1.0))
gap = spectral.spectral_gap(Pc, grid)
print(f"  (5, -1): min over k in 1..3 of the bottom eigenvalue = {gap:.4f} "
      f"> p - 1 = {Pc.p - 1:.4f}")
