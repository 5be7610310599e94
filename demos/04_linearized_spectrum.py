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
for k in (0, 1, 2):
    # one Lanczos run per mode: mode 0 returns both of its eigenpairs at once
    for idx, r in enumerate(spectral.mode_eigenpairs(P, ckn.make_mode(P, k), grid), 1):
        print(f"  k = {k}, index = {idx}: nu = {r.eigenvalue:.8f}   "
              f"(backward error {r.residual:.1e}, {r.iters} matvecs)")
print(f"  reference p - 1 = {P.p - 1:.8f}")

print("\nmode-1 bottom eigenvalue across beta at (N, alpha) = (5, 1):")
bfs = ckn.felli_schneider(5, 1.0)
for beta in (-3.4, -3.0, bfs, -2.4, -2.0):
    Pb = ckn.derive(5, 1.0, beta)
    eig = spectral.mode_eigenvalue(Pb, ckn.make_mode(Pb, 1), 1, grid).eigenvalue
    marker = " <- on the Felli-Schneider curve" if beta == bfs else ""
    print(f"  beta = {beta:+.6f}: nu_1(k=1) - (p-1) = "
          f"{eig - (Pb.p - 1):+.6f}{marker}")

print("\nexact-solution certificates of the linearized mode equations:")
print(f"  mode-0 profile residual:            "
      f"{spectral.linearized_residual(P, 0, 1):.2e}")
Pf = ckn.derive(5, 1.0, bfs)
print(f"  mode-1 profile residual on curve:   "
      f"{spectral.linearized_residual(Pf, 1, 0):.2e}")
Poff = ckn.derive(5, 1.0, bfs + 0.3)
print(f"  mode-1 profile residual off curve:  "
      f"{spectral.linearized_residual(Poff, 1, 0):.2e} "
      f"(real degree l_1 = {ckn.linearized_degree(Poff, 1):.6f})")

print("\nnonradial modes against p - 1 at (5, 1, -2): nu_(k,0) = Gamma_(M+2 l_k)/Gamma_M "
      "rises with the degree l_k:")
for k in (1, 2, 3):
    print(f"  k = {k}: l_k = {ckn.linearized_degree(P, k):.6f}, "
          f"nu_(k,0) = {ckn.linearized_eigenvalue(P, k, 0):.6f} > p - 1 = {P.p - 1:.6f}")

print("\nspectral gap surrogate on the critical lower boundary:")
Pc = ckn.derive(5, -1.0, ckn.beta_lower(5, -1.0))
gap = spectral.spectral_gap(Pc, grid)
print(f"  (5, -1): lowest nonradial eigenvalue nu_(1,0) = {gap:.4f} "
      f"> p - 1 = {Pc.p - 1:.4f}")
