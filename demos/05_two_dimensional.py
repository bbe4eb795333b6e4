"""
Two-dimensional radial problems
===============================

In two dimensions the effective potential carries (4m^2 - 1)/(8 rho^2),
which is attractive for m = 0 and leaves a half-integer power of rho at
the origin for every m.  On the sqrt(rho)-regularized mesh the
centrifugal-plus-kinetic combination still has closed-form matrix
elements, and the m = 1 case loses no accuracy at all.
"""

from lagmesh import (Classification, Family, Variant2D, builtin, classify_singularity,
                     relative_error, scheme_mesh, solve_bound_states)
from lagmesh.matelem import hamiltonian_2d
from lagmesh.potentials import exact_level

for name, N, h in (("harmonic", 20, 0.09), ("coulomb", 10, 0.9)):
    V = builtin(name)
    # the 2D m = 1 ground state is the 3D one at l = 1/2: 2 and -2/9
    exact = exact_level(V, 1, dimension=2)
    print(f"\n{name}, m = 1, N = {N}, h = {h} (exact E = {exact:+.6f})")
    for variant, label in ((Variant2D.Var2D, "variational"),
                           (Variant2D.RegSqrtMesh2D, "sqrt(rho)-regularized mesh")):
        H, S = hamiltonian_2d(scheme_mesh(variant, N, h), 1, V, variant)
        E0 = solve_bound_states(H, S).energies[0]
        print(f"  {label:<28} E = {E0:.15f}   eps_rel = "
              f"{relative_error(E0, exact):+.1e}")

# the mesh scheme stays clean because the integrand powers balance:
verdict = classify_singularity(Family.RegSqrt, 0.0, 1, 2, 2)
print(f"\nclassifier for the combined 1/rho^2 element, m = 1: {verdict.name}")
assert verdict is Classification.Safe
