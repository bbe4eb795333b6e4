"""
Bound states on a scaled Laguerre mesh
======================================

Solve the radial harmonic oscillator and the hydrogen atom with the
variational evaluation scheme on the sqrt(r)-regularized mesh, watch the
energies converge with the number of mesh points, and reconstruct a
wavefunction off the mesh.
"""

import numpy as np

from lagmesh import (Family, HamiltonianVariant, MeshSpec, builtin,
                     reconstruct_wavefunction, relative_error,
                     solve_bound_states)
from lagmesh.matelem import hamiltonian_3d

# exact levels: E_nl = 2n + l + 3/2 (oscillator), -1/(2(n+l+1)^2) (Coulomb)
CASES = (
    ("harmonic oscillator", "harmonic", 0.09, lambda n, l: 2 * n + l + 1.5),
    ("hydrogen atom", "coulomb", 0.9, lambda n, l: -0.5 / (n + l + 1) ** 2),
)

for title, name, h, exact in CASES:
    V = builtin(name)
    print(f"\n{title}, l = 0, scale h = {h}")
    print(f"{'N':>4} {'E_0':>22} {'rel. error':>12}")
    for N in (4, 8, 12, 20):
        mesh = MeshSpec(N, 1.0, Family.RegSqrt, h)
        H, basis = hamiltonian_3d(mesh, 0, V, HamiltonianVariant.Var)
        E0 = solve_bound_states(H, basis).energies[0]
        print(f"{N:>4} {E0:>22.15f} {relative_error(E0, exact(0, 0)):>12.1e}")

# with N basis functions the lowest N oscillator levels are all usable;
# print the first five at N = 20
mesh = MeshSpec(20, 1.0, Family.RegSqrt, 0.09)
H, basis = hamiltonian_3d(mesh, 0, builtin("harmonic"), HamiltonianVariant.Var)
spectrum = solve_bound_states(H, basis)
print("\noscillator spectrum, first five levels (exact: 1.5, 3.5, 5.5, ...)")
for n in range(5):
    eps = relative_error(spectrum.energies[n], 2 * n + 1.5)
    print(f"  E_{n} = {spectrum.energies[n]:.15f}   eps_rel = {eps:+.1e}")

# the Coulomb ground state happens to live exactly inside the basis when
# the scale is tuned to h = 0.5: the error collapses to rounding level
print("\nhydrogen ground state vs mesh scale (N = 10)")
for h in (0.3, 0.5, 0.9):
    mesh = MeshSpec(10, 1.0, Family.RegSqrt, h)
    H, basis = hamiltonian_3d(mesh, 0, builtin("coulomb"), HamiltonianVariant.Var)
    E0 = solve_bound_states(H, basis).energies[0]
    print(f"  h = {h:.1f}: eps_rel = {relative_error(E0, -0.5):+.1e}")

# reconstruct u_0(r) between mesh points and compare with the exact
# oscillator ground state 2 pi^(-1/4) r exp(-r^2/2)
mesh = MeshSpec(20, 1.0, Family.RegSqrt, 0.09)
H, basis = hamiltonian_3d(mesh, 0, builtin("harmonic"), HamiltonianVariant.Var)
spectrum = solve_bound_states(H, basis)
r = np.linspace(0.3, 3.0, 7)
u = reconstruct_wavefunction(basis, spectrum.coefficients[:, 0], r)
u_exact = 2.0 * np.pi**-0.25 * r * np.exp(-(r**2) / 2.0)
u = u * np.sign(u[0]) * np.sign(u_exact[0])  # fix the overall sign
print("\noscillator ground state off the mesh")
print(f"  max |u - u_exact| = {np.abs(u - u_exact).max():.1e}")
