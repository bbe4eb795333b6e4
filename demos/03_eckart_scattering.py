"""
Phase shifts from bound-state pseudostates
==========================================

Diagonalizing the Hamiltonian on a Laguerre mesh gives positive-energy
pseudostates as well.  An integral relation turns each pseudostate into
a scattering phase shift at its own energy -- no boundary condition is
imposed.  The Eckart potential has an analytic s-wave phase shift, so
the error is measurable.
"""

from lagmesh import (HamiltonianVariant, builtin, eckart_reference_delta0,
                     pseudostates, scheme_mesh, solve_bound_states, tan_delta)
from lagmesh.matelem import hamiltonian_3d

V = builtin("eckart")  # V(r) = -6 exp(-2r) / (1 + exp(-2r))^2, one bound state

for variant, label in ((HamiltonianVariant.RegSqrtMesh, "sqrt(r)-regularized"),
                       (HamiltonianVariant.RegRMesh, "r-regularized")):
    mesh = scheme_mesh(variant, 15, 0.1)
    H, basis = hamiltonian_3d(mesh, 0, V, variant)
    states = pseudostates(solve_bound_states(H, basis))

    print(f"\n{label} mesh, N = 15, h = 0.1, gamma = 4")
    print(f"{'E':>12} {'delta (deg)':>12} {'analytic':>12} {'error':>10}")
    for state in states[:6]:
        res = tan_delta(state, 0, V, 4.0, mesh)
        ref = eckart_reference_delta0(state.energy, 2.0, -1.0)
        print(f"{state.energy:>12.6f} {res.delta_deg:>12.5f} "
              f"{ref:>12.5f} {res.delta_deg - ref:>10.1e}")

# the nonlinear parameter gamma controls the regularization of the
# integral relation; any reasonable value gives the same answer
mesh = scheme_mesh(HamiltonianVariant.RegSqrtMesh, 15, 0.1)
H, basis = hamiltonian_3d(mesh, 0, V, HamiltonianVariant.RegSqrtMesh)
state = pseudostates(solve_bound_states(H, basis))[0]
print(f"\nlowest pseudostate (E = {state.energy:.6f}) vs gamma")
for gamma in (2.0, 3.0, 4.0, 5.0, 6.0):
    res = tan_delta(state, 0, V, gamma, mesh)
    print(f"  gamma = {gamma:.0f}: delta = {res.delta_deg:.7f} deg")
