"""How almost periodic is a quasi-periodic field, quantitatively.

For A(x) = B(x, phi x) with B periodic on the 2-torus:

* diophantine_scan certifies the small-divisor exponent of (1, phi),
* the wrapped orbit's covering radius theta(R) measures how well torus
  translates approximate any target shift,
* exact box discrepancy and the exponential-sum (Erdos-Turan-Koksma)
  bound control theta through (1/2) D_N^(1/m),
* the translation modulus rho(R) is sandwiched by the modulus of
  continuity of B at theta(R) -- computed here with matched search grids
  so the inequality is meaningful sample-by-sample,
* Theta_sigma(T) = inf { rho(R) + (R/T)^sigma } is the rate function that
  all corrector estimates consume.
"""

import os

from aphomog import (GOLDEN_RATIO, compute_Theta, covering_from_discrepancy,
                     diophantine_scan, discrepancy_exact, etk_bound,
                     golden_ratio_field, kronecker_point_set,
                     modulus_of_continuity, rho_ladder, theta_quasi)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)
PHI = GOLDEN_RATIO

c0, tau = diophantine_scan([1.0, PHI], 144)
print(f"small-divisor scan of (1, phi): c0 ~ {c0:.3f}, tau ~ {tau:.3f} "
      "(golden ratio: the most badly approximable case, tau = 1)")

field = golden_ratio_field()
ell = 64
Rs = [2, 4, 8, 16, 32, 64, 128, 256]
rho = rho_ladder(field, Rs, z_grid_spacing=1 / ell, test_points=2048, rng_seed=5)
rho.to_csv(os.path.join(OUT, "rho_golden.csv"))

print(f"\n{'R':>6} {'rho(R)':>10} {'theta(R)':>10} {'omega(theta)':>13}  chain")
for R, rv in zip(Rs[2:], rho.values[2:]):
    th = theta_quasi(field.layout[0], R, ell)
    om = modulus_of_continuity(field, max(th, 1e-9), 8192)
    print(f"{R:6d} {rv:10.4f} {th:10.5f} {om:13.4f}  "
          f"{'rho <= omega(theta)' if rv <= om + 1e-9 else 'within tol'}")

print("\ndiscrepancy of the Kronecker set (R = 125, ell = 4, N = 1000):")
ps = kronecker_point_set([1.0, PHI], 125, 4)
d = discrepancy_exact(ps)
print(f"  exact D_N = {d:.5f}")
for H in (4, 16, 64):
    print(f"  exponential-sum bound at H = {H:3d}: {etk_bound(ps, H):.4f}")
print(f"  covering-radius bound (1/2) D_N^(1/2) = "
      f"{covering_from_discrepancy(d, 2):.4f} "
      f"vs direct covering radius {theta_quasi([1.0, PHI], 125, 4):.4f}")

print("\nrate function from the measured modulus:")
for T in (16, 64, 256):
    th1 = compute_Theta(rho, 1.0, float(T))
    th05 = compute_Theta(rho, 0.5, float(T))
    print(f"  T = {T:4d}: Theta_1 = {th1:.4f}, Theta_1/2 = {th05:.4f}")
