"""Corrector scalings over a dyadic screening-length ladder.

Three stories on the quasi-periodic field 2 + cos(2 pi x) cos(2 pi phi x):

* sup norms of chi_T stay bounded while T^{-1} ||chi_T|| decays,
* dyadic gradient differences grad chi_T - grad chi_2T are Cauchy --
  their tail controls the distance to the (never materialized) limit
  gradient,
* the Dirichlet truncation converges: doubling the buffer changes window
  values at the level of the screening decay e^{-buffer/sqrt(a)}.

Writes plot-ready CSVs into demos/output/.
"""

import os

import numpy as np

from aphomog import (corrector_scalings, gradient_cauchy_decay, golden_ratio_field,
                     sine_scalar_field, solve_corrector)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

golden = golden_ratio_field()

print("quasi-periodic corrector ladder (buffered Dirichlet truncation)")
csets = [solve_corrector(golden, float(T), h=1 / 64, buffer=6.0)
         for T in (16, 32, 64, 128)]
scal = corrector_scalings(csets)
print(f"{'T':>6} {'sup|chi_T|':>12} {'T^-1 sup':>12}")
for T, v in zip(scal["corrector_sup"].parameters, scal["corrector_sup"].values):
    print(f"{T:6.0f} {v * T:12.6f} {v:12.6f}")
scal["corrector_sup"].to_csv(os.path.join(OUT, "corrector_sup.csv"))

cauchy = gradient_cauchy_decay(csets)
print("\ndyadic gradient differences <|grad chi_T - grad chi_2T|^2>^(1/2):")
for T, v in zip(cauchy.parameters, cauchy.values):
    print(f"  T={T:.0f} -> {v:.3e}")
cauchy.fit()
print(f"fitted decay exponent: {cauchy.fitted_exponent:.2f}")
cauchy.to_csv(os.path.join(OUT, "gradient_cauchy_golden.csv"))

print("\nperiodic reference (single-cell route): a(y) = 2 + sin(2 pi y)")
sine = sine_scalar_field()
per = [solve_corrector(sine, float(T), h=1 / 256) for T in (16, 32, 64, 128)]
cauchy_p = gradient_cauchy_decay(per)
cauchy_p.fit()
print("pair norms:", np.array2string(cauchy_p.values, precision=3),
      f" exponent {cauchy_p.fitted_exponent:.2f} (screening error is O(T^-2))")

print("\nbuffer study at T = 16 (window values, quasi-periodic field):")
vals = {}
for buf in (6.0, 9.0, 12.0):
    cs = solve_corrector(golden, 16.0, h=1 / 64, buffer=buf)
    sls = cs.grid.window_slices(cs.window)
    vals[buf] = cs.chi[0][0].values[(slice(None), *sls)]
sup = float(np.max(np.abs(vals[12.0])))
print(f"  relative window change buffer 6 -> 9:  "
      f"{np.max(np.abs(vals[6.0] - vals[9.0])) / sup:.2e}")
print(f"  relative window change buffer 9 -> 12: "
      f"{np.max(np.abs(vals[9.0] - vals[12.0])) / sup:.2e}")
