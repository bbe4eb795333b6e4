"""Regularized Lagrange-Laguerre meshes for radial Schrodinger problems.

The package solves the radial equation on a Gauss-Laguerre mesh whose
basis functions are regularized by sqrt(r) or by r, computes bound-state
spectra for five evaluation schemes (one variational, four mesh), and
extracts scattering phase shifts from positive-energy pseudostates
through integral relations of the Kohn variational type.  Bundled
benchmark tables (``lagmesh.benchmarks``) and a command-line runner
(``lagmesh.cli``) reproduce the reference results.
"""

from .basis import (
    Family,
    MeshSpec,
    reconstruct_wavefunction,
)
from .matelem import (
    HamiltonianVariant,
    classify_singularity,
    hamiltonian_2d,
    hamiltonian_3d,
    scheme_mesh,
)
from .potentials import PotentialSpec, builtin, exact_level
from .quadrature import generate_rule
from .scattering import (
    IndeterminatePhaseError,
    PhaseShiftResult,
    eckart_reference_delta0,
    gamma_scan,
    tan_delta,
)
from .solver import (
    BoundSpectrum,
    Pseudostate,
    bound_energies,
    pseudostates,
    relative_error,
    solve_bound_states,
)
from .specfun import coulomb_wave

__version__ = "0.1.0"

__all__ = [
    "BoundSpectrum",
    "Family",
    "HamiltonianVariant",
    "IndeterminatePhaseError",
    "MeshSpec",
    "PhaseShiftResult",
    "PotentialSpec",
    "Pseudostate",
    "bound_energies",
    "builtin",
    "classify_singularity",
    "coulomb_wave",
    "eckart_reference_delta0",
    "exact_level",
    "gamma_scan",
    "generate_rule",
    "hamiltonian_2d",
    "hamiltonian_3d",
    "pseudostates",
    "reconstruct_wavefunction",
    "relative_error",
    "scheme_mesh",
    "solve_bound_states",
    "tan_delta",
]
