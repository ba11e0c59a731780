"""The flux corrector and its screening-length scalings.

The oscillatory part of the corrector flux,

    B_T(y) = ahat_T - A(y) - A(y) grad chi_T(y),

mean-corrected, drives a constant-coefficient screened Poisson solve
-Lap f + T^{-2} f = B_T - <B_T>.  The payoff of that solve is the pair of
scalings  T^{-2} ||f||_inf  and  T^{-1} ||grad f||_inf, which stay
dominated by the measured rate function Theta_sigma(T) -- the bridge from
almost-periodicity moduli to convergence rates.
"""

import os

import numpy as np

from aphomog import (Box, compute_Theta, flux_tensor, golden_ratio_field,
                     rho_ladder, solve_corrector, solve_flux_corrector)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

field = golden_ratio_field()

print("measuring the translation modulus first (shared by all T)...")
rho = rho_ladder(field, [2, 4, 8, 16, 32, 64, 128, 256],
                 z_grid_spacing=1 / 64, test_points=2048, rng_seed=5)

print(f"\n{'T':>6} {'T^-2 |f|':>12} {'10 Theta_1':>12} "
      f"{'T^-1 |grad f|':>14} {'10 Theta_1/2':>13} {'|<B_T>|':>10}")
rows = []
for T in (16, 32, 64, 128):
    cset = solve_corrector(field, float(T), h=1 / 64, buffer=6.0)
    flux = flux_tensor(cset, region=Box.cube(9.0 * T, d=1))
    _, rep = solve_flux_corrector(flux)
    th1 = compute_Theta(rho, 1.0, float(T))
    th05 = compute_Theta(rho, 0.5, float(T))
    rows.append((T, rep["sup_f_scaled"], th1, rep["sup_grad_scaled"], th05))
    print(f"{T:6d} {rep['sup_f_scaled']:12.3e} {10 * th1:12.4f} "
          f"{rep['sup_grad_scaled']:14.3e} {10 * th05:13.4f} "
          f"{np.max(np.abs(flux.mean)):10.2e}")

np.savetxt(os.path.join(OUT, "flux_scalings.csv"),
           np.array([(r[0], r[1], r[3]) for r in rows]),
           delimiter=",", header="T,sup_f_scaled,sup_grad_scaled", comments="")
print("\nboth scalings sit far below the Theta budget: the flux corrector is")
print("the quantity whose smallness turns modulus decay into solution rates.")
