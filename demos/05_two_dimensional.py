"""
Two-dimensional radial problems
===============================

In two dimensions the effective potential carries (4m^2 - 1)/(8 rho^2),
which is attractive for m = 0 and leaves a half-integer power of rho at
the origin for every m.  On the sqrt(rho)-regularized mesh the
centrifugal-plus-kinetic combination still has closed-form matrix
elements, and the m = 1 case loses no accuracy at all: the singularity
classifier names no lossy term for either scheme.
"""

from lagmesh import (HamiltonianVariant, builtin, classify_singularity, relative_error,
                     scheme_mesh, solve_bound_states)
from lagmesh.matelem import hamiltonian_2d
from lagmesh.potentials import exact_level

for name, N, h in (("harmonic", 20, 0.09), ("coulomb", 10, 0.9)):
    V = builtin(name)
    # the 2D m = 1 ground state is the 3D one at l = 1/2: 2 and -2/9
    exact = exact_level(V, 1, dimension=2)
    print(f"\n{name}, m = 1, N = {N}, h = {h} (exact E = {exact:+.6f})")
    for variant, label in ((HamiltonianVariant.Var2D, "variational"),
                           (HamiltonianVariant.RegSqrtMesh2D, "sqrt(rho)-regularized mesh")):
        mesh = scheme_mesh(variant, N, h)
        H, basis = hamiltonian_2d(mesh, 1, V, variant)
        E0 = solve_bound_states(H, basis).energies[0]
        print(f"  {label:<28} E = {E0:.15f}   eps_rel = "
              f"{relative_error(E0, exact):+.1e}")
        # Var2D is exact, and in the mesh scheme the integrand powers balance
        lossy = classify_singularity(mesh, 1, V, variant)
        print(f"  {'':<28} lossy terms: {', '.join(lossy) or 'none'}")
        assert lossy == ()
