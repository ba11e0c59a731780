"""Effective coefficients from screened correctors.

The classical 1D check: for a(y) = 2 + sin(2 pi y) the effective
coefficient is the harmonic mean <1/a>^{-1} = sqrt(3).  The corrector
route never uses that formula; it solves the screened cell problem

    -(a(y) u')' + T^{-2} u = (a(y))'

on one period and averages the flux a (1 + u') over the cell.  In 2D a
laminate a(y1) homogenizes to diag(harmonic mean, arithmetic mean), a
second closed form the solver does not know about.
"""

import numpy as np

from aphomog import (homogenized_matrix, laminate_field, sine_scalar_field,
                     solve_corrector)

field = sine_scalar_field()

print("1D: a(y) = 2 + sin(2 pi y)")
print(f"{'T':>6} {'h':>8} {'ahat_T':>20} {'|ahat_T - sqrt(3)|':>20}")
for T in (16, 64, 256):
    cset = solve_corrector(field, float(T), h=1 / 256)
    ahat = homogenized_matrix(cset).tensor[0, 0, 0, 0]
    print(f"{T:6d} {1/256:8.4f} {ahat:20.12f} {abs(ahat - np.sqrt(3)):20.3e}")

print("\nThe screening error decays like T^-2; the rest is the O(h^2) scheme error.")

print("\n2D laminate: a(y) = 2 + sin(2 pi y1)")
lam = laminate_field()
cset = solve_corrector(lam, 16.0, h=1 / 256)
hm = homogenized_matrix(cset)
print("ahat_T =")
print(np.array2string(hm.tensor[:, :, 0, 0], precision=8))
print("target  diag(sqrt(3), 2) =", np.diag([np.sqrt(3), 2.0]).diagonal())
print("ellipticity check passed:", hm.ellipticity_ok,
      f"(sym eigenvalues in [{hm.sym_eig_min:.4f}, {hm.sym_eig_max:.4f}])")
