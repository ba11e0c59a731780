"""Convergence of the oscillating problem to its effective limit.

Solves -div(A(x/eps) grad u) = 1 with zero boundary data on the unit
interval over a dyadic eps ladder, against the effective problem with the
corrector-derived constant coefficient.  Reports

* the plain L2 error u_eps - u0 (near O(eps) for periodic coefficients),
* the H1 error of the two-scale expansion
  u_eps - u0 - eps chi_T(x/eps) u0',   T = 1/eps,
* interior C^0.5 seminorms of u_eps, which stay eps-uniform while the
  seminorm of u_eps - u0 decays.
"""

import os

from aphomog import (golden_ratio_field, holder_uniformity, rate_experiment,
                     sine_scalar_field)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

eps_ladder = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]

for name, field, kwargs in (
        ("periodic  a = 2 + sin(2 pi y)", sine_scalar_field(), {}),
        ("quasi-periodic  a = 2 + cos(2 pi y) cos(2 pi phi y)",
         golden_ratio_field(), {"corrector_h": 1 / 64}),
):
    exp = rate_experiment(field, eps_ladder, **kwargs)
    print(f"\n{name}")
    print(f"{'eps':>10} {'L2 plain':>12} {'H1 corrected':>13}")
    for row in exp["rows"]:
        print(f"{row['eps']:10.5f} {row['L2_plain']:12.3e} "
              f"{row['H1_corrected']:13.3e}")
    for key, fit in exp["fitted"].items():
        print(f"  fitted {key} slope: {fit['slope']:.3f} "
              f"(R^2 = {fit['quality']:.4f})")
    exp["reports"]["L2_plain"].to_csv(
        os.path.join(OUT, f"rate_{'periodic' if 'sin' in name else 'golden'}.csv"))

print("\ninterior Hoelder uniformity (periodic field, sigma = 1/2):")
field = sine_scalar_field()
rep = holder_uniformity(field, eps_ladder, sigma=0.5)
print(f"{'eps':>10} {'|u_eps|_C^0.5':>15} {'|u_eps - u0|_C^0.5':>20}")
for row in rep["rows"]:
    print(f"{row['eps']:10.5f} {row['seminorm_u']:15.5f} "
          f"{row['seminorm_diff']:20.5f}")
print(f"uniformity statistic max/min = {rep['uniformity_ratio']:.3f} "
      "(the seminorm of u_eps does not blow up as eps -> 0)")
