"""Symmetric eigensolves for mesh Hamiltonians.

The regularized Lagrange-Laguerre functions are orthonormal, so the
overlap matrix of every scheme is the identity and each solve is a plain
symmetric eigenproblem H c = E c.  Both entry points take H with the basis
it is written in, the ``MeshSpec`` that the Hamiltonian builders return
with it, and are picked by what the caller reads:

- ``bound_energies`` returns the ascending eigenvalues alone (LAPACK's
  eigenvalues-only driver).  Bound-state energies and relative errors read
  nothing else: the CLI ``bound`` mode and bound ``sweep``, and benchmark
  tables 1, 2 and 5.
- ``solve_bound_states`` also returns the coefficient vectors, for
  pseudostates, phase shifts and wave functions: the CLI ``scatter`` and
  ``gamma-scan`` modes and tables 3 and 4.  Its eigenvalues ascend, and
  each coefficient vector's sign is fixed by its largest component.

Both validate their input the same way.  The two LAPACK drivers round
differently, so their eigenvalues agree to a few ulps of the largest |E|,
not bit for bit.
"""

import dataclasses
import math

import numpy as np

from .basis import MeshSpec
from .specfun import _real, _reals

__all__ = [
    "BoundSpectrum",
    "Pseudostate",
    "bound_energies",
    "pseudostates",
    "relative_error",
    "solve_bound_states",
]


@dataclasses.dataclass(frozen=True, eq=False)
class BoundSpectrum:
    """Full spectrum of one Hamiltonian.

    ``energies`` ascend; ``coefficients[:, j]`` is the coefficient vector
    of state ``j``; the columns are orthonormal.
    """

    energies: np.ndarray
    coefficients: np.ndarray


@dataclasses.dataclass(frozen=True)
class Pseudostate:
    """A positive-energy eigenstate: its energy E in scaled units and its
    coefficient vector; the wave number ``k = sqrt(2E)`` is derived."""

    energy: float
    coefficients: np.ndarray

    @property
    def k(self):
        return math.sqrt(2.0 * self.energy)


def _checked_hamiltonian(H, basis):
    """H as a float array, after the checks shared by both solves."""
    A = _reals("H", H)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError(f"H must be a nonempty square matrix (got shape {A.shape})")
    # A - A^T is antisymmetric to the bit, so its largest entry is its
    # largest magnitude.  A non-finite entry of A leaves inf or NaN in it,
    # so a skew of at most 1e-10 passes the finiteness check and the
    # symmetry check (whose tolerance is 1e-10 of at least 1) without the
    # extremes of A.
    with np.errstate(over="ignore", invalid="ignore"):
        skew = (A - A.T).max()
    scale = 1.0
    if not skew <= 1e-10:
        # the extremes are NaN or infinite exactly when an entry is
        top, bottom = A.max(), A.min()
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise ValueError("Hamiltonian matrix has non-finite entries")
        scale = max(1.0, top, -bottom)
    n = A.shape[0]
    if not (isinstance(basis, MeshSpec) and basis.N == n):
        got = f"N={basis.N}" if isinstance(basis, MeshSpec) else type(basis).__name__
        raise ValueError(f"basis must be the MeshSpec of H's {n} functions, as the "
                         f"Hamiltonian builders return it (got {got})")
    if skew > 1e-10 * scale:
        raise ValueError("Hamiltonian matrix is not symmetric")
    return A


def bound_energies(H, basis):
    """Ascending eigenvalues of a symmetric Hamiltonian on an orthonormal basis.

    Takes and checks the same arguments as ``solve_bound_states`` and
    raises the same ``ValueError``s, but computes no eigenvectors.

    Returns
    -------
    ndarray
        The n eigenvalues in ascending order.
    """
    return np.linalg.eigvalsh(_checked_hamiltonian(H, basis))


def solve_bound_states(H, basis):
    """Solve H c = E c for a symmetric Hamiltonian on an orthonormal basis.

    Parameters
    ----------
    H : array_like
        Assembled n x n Hamiltonian.
    basis : MeshSpec
        The mesh of the n functions H is written in; ``hamiltonian_3d`` and
        ``hamiltonian_2d`` return it with H.

    Returns
    -------
    BoundSpectrum

    Raises
    ------
    ValueError
        If H is not a finite, nonempty, symmetric square matrix, or basis
        is not a MeshSpec of n functions.
    """
    A = _checked_hamiltonian(H, basis)
    n = A.shape[0]
    energies, vectors = np.linalg.eigh(A)
    # deterministic signs: largest-magnitude component positive
    pick = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pick, np.arange(n)])
    signs[signs == 0.0] = 1.0
    vectors *= signs
    return BoundSpectrum(energies, vectors)


def pseudostates(spectrum):
    """Positive-energy states of a spectrum, ascending, with k = sqrt(2E).

    Returns a tuple of Pseudostate (possibly empty).
    """
    return tuple(
        Pseudostate(float(E), spectrum.coefficients[:, j])
        for j, E in enumerate(spectrum.energies) if E > 0.0
    )


def relative_error(e_app, e_exact):
    """Signed relative error (E_app - E_exact)/|E_exact|.

    Raises ``ValueError`` naming ``e_app`` or ``e_exact`` when it is not
    finite, or when ``e_exact`` is zero.
    """
    for name, value in (("e_app", e_app), ("e_exact", e_exact)):
        if not math.isfinite(_real(name, value)):
            raise ValueError(f"{name} must be finite (got {value!r})")
    if e_exact == 0.0:
        raise ValueError("relative error is undefined for a zero reference energy")
    return (e_app - e_exact) / abs(e_exact)
