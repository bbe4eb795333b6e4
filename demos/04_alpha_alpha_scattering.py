"""
Charged-particle scattering: alpha + alpha
==========================================

A nuclear Gaussian plus screened-Coulomb potential for the alpha-alpha
system, the paper's table 4.  The phase-shift relation now needs
regularized Coulomb functions, and the nonlinear parameter gamma is picked
automatically by scanning for the plateau where the phase is stationary.
Where the lowest s-wave pseudostate's scan finds no plateau, ``run_table``
reads its phase at the gamma selected at the next energy.
"""

from lagmesh.benchmarks import run_table

print("alpha + alpha, N = 15, h = 0.23")
for row in run_table(4):
    if row["state"] == 1:
        print(f"\n{row['mesh']} mesh, l = {row['l']}")
    note = "  (no plateau)" if row["no_plateau"] else ""
    print(f"  E = {row['energy_MeV']:>8.5f} MeV   delta = {row['delta']:>8.3f} deg   "
          f"gamma* = {row['gamma']:.3f}   exact {row['reference']:.2f}{note}")
