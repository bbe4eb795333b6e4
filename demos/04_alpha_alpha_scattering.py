"""
Charged-particle scattering: alpha + alpha
==========================================

A nuclear Gaussian plus screened-Coulomb potential for the alpha-alpha
system.  The phase-shift relation now needs regularized Coulomb
functions, and the nonlinear parameter gamma is picked automatically by
scanning for the plateau where the phase is stationary.  For the lowest
s-wave pseudostate no plateau exists; the scan falls back to the value
selected at the next energy.
"""

import numpy as np

from lagmesh import (HamiltonianVariant, builtin, gamma_scan, pseudostates,
                     scheme_mesh, solve_bound_states)
from lagmesh.matelem import hamiltonian_3d

V = builtin("buck_alpha_alpha")
Z = V.tail_Z
GRID = np.geomspace(0.3, 1.3, 16)

for variant, label in ((HamiltonianVariant.RegSqrtMesh, "sqrt(r)-regularized"),
                       (HamiltonianVariant.RegRMesh, "r-regularized")):
    mesh = scheme_mesh(variant, 15, 0.23)
    print(f"\n{label} mesh, N = 15, h = 0.23")

    # d wave: both pseudostates sit on a clean plateau
    H, basis = hamiltonian_3d(mesh, 2, V, variant)
    states = pseudostates(solve_bound_states(H, basis))
    print("  l = 2")
    for state in states[:2]:
        res, _ = gamma_scan(state, 2, V, Z, mesh, gammas=GRID, window="positive")
        print(f"    E = {state.energy * V.energy_unit:>8.5f} MeV   "
              f"delta = {res.delta_deg:>8.3f} deg   gamma* = {res.gamma:.3f}")

    # s wave: scan the second pseudostate first, reuse its gamma as the
    # fallback for the first, where the scan reports no plateau
    H, basis = hamiltonian_3d(mesh, 0, V, variant)
    states = pseudostates(solve_bound_states(H, basis))
    res2, _ = gamma_scan(states[1], 0, V, Z, mesh, gammas=GRID, window="positive")
    res1, _ = gamma_scan(states[0], 0, V, Z, mesh, gammas=GRID,
                         fallback_gamma=res2.gamma, window="positive")
    print("  l = 0")
    for state, res in ((states[0], res1), (states[1], res2)):
        note = "  (no plateau)" if res.no_plateau else ""
        print(f"    E = {state.energy * V.energy_unit:>8.5f} MeV   "
              f"delta = {res.delta_deg:>8.3f} deg   gamma* = {res.gamma:.3f}{note}")
