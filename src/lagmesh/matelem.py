"""Operator matrices on Lagrange-Laguerre meshes and Hamiltonian assembly.

Matrices come in two modes.  ``Gauss`` evaluates the defining integral with
the quadrature rule attached to the mesh, which collapses multiplicative
operators to diagonal matrices and has a closed form for the kinetic
operators on every family (D. Baye, Phys. Rep. 565 (2015) 1).  ``Exact``
returns the true integral where a scheme reads it (every operator on the
sqrt(r) family, -d^2/dr^2 and 1/r^2 on the plain one): the Gauss matrix
plus a closed-form correction of rank at most 3, the rule's error on the few
monomials of the integrand it does not integrate exactly (``_gauss_error``).
One builder, ``operator_matrix``, returns every operator matrix as a plain
``ndarray``.  The Hamiltonian builders return H and its basis, a
``MeshSpec``; every scheme's overlap is the identity, so none is returned.

Sign convention: ``"kinetic"`` is the matrix of ``-d^2/dr^2`` and
``"kinetic2d"`` the matrix of ``-(d^2/drho^2 + 1/(4 rho^2))``, so Hamiltonian
assembly adds every term with a positive coefficient.  All stored matrices
are unscaled; the builders apply ``h**-2`` to derivative terms, ``h**p`` to
power terms, and evaluate potentials at ``h * r_i``.  Since no stored matrix
depends on h, one LRU of slots, ``_slot``, holds the dense ones under the
key ``(N, alpha, family, op, mode)``, read off the mesh without building
another ``MeshSpec``: the Gauss kinetic matrices and every Exact matrix.  A
matrix is cached on its second request: the first builds it and leaves only
``None`` in its slot, so memory follows reuse, not N.  A sweep over h builds
each matrix twice, and a sweep over N caches nothing.  The LRU keeps at most
``_CACHE_SIZE`` slots; threads share them without a lock, so a race costs at
most one extra build of an equal matrix.  Diagonal Gauss matrices cost less
to build than to look up and are not cached.  Dense operator matrices are
read-only, cached or not.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .basis import Family, MeshSpec, _CACHE_SIZE, _family_power
from .potentials import evaluate as evaluate_potential
# Nothing here builds a rule; the name stays bound because the benchmark's
# span list (bench/spans.py) wraps generate_rule in this module.
from .quadrature import generate_rule  # noqa: F401
from .specfun import _coerce, _integer

__all__ = [
    "HamiltonianVariant",
    "Mode",
    "SCHEMES",
    "classify_singularity",
    "hamiltonian_2d",
    "hamiltonian_3d",
    "operator_matrix",
    "scheme_mesh",
]

class Mode(enum.Enum):
    Exact = "Exact"
    Gauss = "Gauss"


class HamiltonianVariant(enum.Enum):
    """Evaluation schemes for the radial Hamiltonian: five in 3D, two in 2D.

    ``Var`` is the variational reference: every matrix element exact.
    ``RegSqrtMesh`` and ``RegRMesh`` are mesh calculations with all terms at
    the Gauss approximation.  ``NonReg`` uses Gauss for the potential and
    centrifugal terms only; ``NonRegVG`` restricts Gauss to the potential.
    ``Var2D`` and ``RegSqrtMesh2D`` are the 2D variational and mesh schemes.
    """

    Var = "Var"
    RegSqrtMesh = "RegSqrtMesh"
    RegRMesh = "RegRMesh"
    NonReg = "NonReg"
    NonRegVG = "NonRegVG"
    Var2D = "Var2D"
    RegSqrtMesh2D = "RegSqrtMesh2D"


def _sign_grid(N):
    """``(-1)**(i - j)`` as the outer product of alternating signs."""
    sign = np.where(np.arange(N) % 2 == 1, -1.0, 1.0)
    return np.outer(sign, sign)


# ---------------------------------------------------------------------------
# individual operator matrices

# The operators ``operator_matrix`` builds; the powers of r map to exponents.
_POWERS = {"1/r^2": -2.0, "1/r": -1.0, "1": 0.0, "r": 1.0, "r^2": 2.0}
_OPERATORS = (*_POWERS, "kinetic", "kinetic2d")
_POWER_OPS = {p: op for op, p in _POWERS.items()}


def operator_matrix(mesh, op, mode=Mode.Gauss):
    """Matrix of ``op`` in unscaled coordinates: ``"1/r^2"``, ``"1/r"``,
    ``"1"``, ``"r"`` or ``"r^2"``, ``"kinetic"`` for -d^2/dr^2, or
    ``"kinetic2d"`` for -(d^2/drho^2 + 1/(4 rho^2)).  Gauss mode is
    ``diag(r_i**p)`` for a power and the closed form of ``_gauss_kinetic``
    for the kinetic operators (Baye 2015); Exact mode adds the rule's error,
    ``_gauss_error``, where a scheme reads it.  Raises ``ValueError`` for an
    unknown operator or mode, an unread Exact cell or a divergent integral.
    """
    mode = _coerce(Mode, mode)
    if op not in _OPERATORS:
        raise ValueError(f"unknown operator: {op!r} (expected one of {', '.join(_OPERATORS)})")
    if mode is Mode.Exact and (mesh.family, op) not in _EXACT_READ:
        raise ValueError(f"no Exact {op} matrix on family {mesh.family.name}: "
                         "no scheme reads it")
    if mode is Mode.Gauss and op in _POWERS:
        return np.diag(mesh.nodes ** _POWERS[op])
    slot = _slot(mesh.N, mesh.alpha, mesh.family, op, mode)
    if slot and slot[-1] is not None:
        return slot[-1]
    values = _dense_matrix(mesh.N, mesh.alpha, mesh.family, op, mode)
    slot.append(values if slot else None)
    return values


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _slot(N, alpha, family, op, mode):
    """The one cache of h-free matrices: a list per key, ``[None]`` after
    the key's first request and ``[None, matrix]`` after its second."""
    return []


def _dense_matrix(N, alpha, family, op, mode):
    """The dense matrix of ``op`` in ``mode`` on the mesh ``(N, alpha,
    family)`` at h = 1, read-only."""
    mesh = MeshSpec(N, alpha, family, 1.0)
    if op in _POWERS:
        values = np.diag(mesh.nodes ** _POWERS[op])
    else:
        values = _gauss_kinetic(mesh, 3.0 if op == "kinetic2d" else 0.0)
    if mode is Mode.Exact:
        values += _gauss_error(mesh, op)
    values.setflags(write=False)
    return values


def _gauss_error(mesh, op):
    """Exact minus Gauss matrix of ``op`` on a cell of ``_EXACT_READ``.

    With ``f_j = c_j x^p e^(-x/2) pi_j`` and ``pi_j = L_N/(x - r_j)``, every
    element divided by the rule's weight ``x^alpha e^(-x)`` is ``x^k q(x)``
    with q a polynomial of degree 2N - 2 (k is 2p - alpha plus the
    operator's power: 0 and 1 for the overlap of NonReg and RegSqrt), and the
    Gauss matrix is the N-point rule applied to it.  The rule is exact on
    ``x^0 ... x^(2N-1)``, so the two differ by the ``x^-2`` and ``x^-1``
    terms, formed from ``pi_j(0)`` and ``pi_j'(0)``, or the
    ``x^2N ... x^(2N+1)`` terms, from the leading coefficients of ``pi_j``,
    each times the rule's error on that monomial.  The errors are Hermite
    remainders: with ``n2 = Gamma(N+alpha+1)/N!`` the norm of ``L_N``, the
    error on ``1/x`` is ``n2/(alpha L_N(0)^2) = Gamma(alpha)/L_N(0)``, on
    ``1/x^2`` it is
    ``n2 [(2N+alpha+1)/((alpha-1)(alpha+1)) + 2N/(alpha+1)]/(alpha L_N(0)^2)``,
    and on ``x^(2N+m)`` it is the integral of ``x^m L_N^2`` (three-term
    recurrence) over the squared leading coefficient of ``L_N``.  The
    products collapse to ``(-1)^(i-j) c_ij``, with the ``c_ij`` below,
    divided by ``sqrt(r_i r_j)`` on NonReg; the correction has rank at most
    3.  On RegSqrt, with ``b = 2N + alpha + 1``, ``c_ij`` is
    ``1/(alpha r_i r_j)`` for 1/r^2, 0 for 1/r and 1, 1 for r,
    ``b + r_i + r_j`` for r^2, ``(1 - alpha^2)/(4 alpha r_i r_j)`` for
    -d^2/dr^2 and ``-alpha/(4 r_i r_j)`` for the 2D operator: the first
    vanishes at alpha = 1, the second at alpha = 0, where the Gauss 2D
    matrix is exact although its two pieces diverge apart.  An element whose
    integrand diverges at the origin raises ``ValueError``.
    """
    r, N, alpha = mesh.nodes, mesh.N, mesh.alpha
    ri, rj = r[:, None], r[None, :]
    b = 2.0 * N + alpha + 1.0
    # f_i (op f_j) goes like x^(2p - 2) at the origin for 1/r^2, and so for
    # -d^2/dr^2 unless p (p - 1) = 0; the integral diverges where 2p - 2 <= -1.
    # The other cells converge at every alpha >= 0.
    p = _family_power(mesh.family, alpha)
    if p <= 0.5 and (op == "1/r^2" or op == "kinetic" and p != 0.0):
        raise ValueError(f"divergent integral: {op} on family {mesh.family.name} "
                         f"with alpha={alpha}")
    if mesh.family is Family.RegSqrt:
        if op == "1/r^2":
            c = 1.0 / (alpha * (ri * rj))
        elif op == "r":
            c = 1.0
        elif op == "r^2":
            c = b + ri + rj
        elif op == "kinetic":
            c = (1.0 - alpha**2) / (4.0 * alpha * (ri * rj))
        elif op == "kinetic2d":
            c = -alpha / (4.0 * (ri * rj))
        else:  # 1/r and 1
            c = 0.0
        return _sign_grid(N) * c
    if op == "1/r^2":
        c = (b / ((alpha - 1.0) * (alpha + 1.0)) + (1.0 / ri + 1.0 / rj)) / alpha
    elif alpha > 0.0:  # -d^2/dr^2
        c = 0.25 * alpha * (b / (alpha * alpha - 1.0) - (1.0 / ri + 1.0 / rj))
    else:  # -d^2/dr^2 at alpha = 0, where the Gauss matrix is exact
        c = 0.0
    return _sign_grid(N) * c / np.sqrt(ri * rj)


def _gauss_kinetic(mesh, c_shift=0.0):
    """Gauss matrix of -d^2/dr^2 in closed form, any family: the symmetrized
    sum ``-lambda_i^(1/2) f_j''(r_i)``, from ``L_N(r_i) = 0`` and the Laguerre
    equation (D. Baye, Phys. Rep. 565 (2015) 1).  The diagonal is
    ``(2(2N+alpha+1) - r_i - c/r_i)/(12 r_i)`` and the off-diagonal
    ``(-1)^(i-j) n_ij/(r_i - r_j)^2``; ``c_shift = 3`` subtracts
    ``1/(4 r_i^2)`` from the diagonal, as the 2D operator needs.
    """
    r, N = mesh.nodes, mesh.N
    ri, rj = r[:, None], r[None, :]
    if mesh.family is Family.RegSqrt:
        n, c = 2.0, -1.0
    elif mesh.family is Family.RegR:
        n, c = (ri + rj) / np.sqrt(ri * rj), -4.0
    else:
        n, c = -(ri + rj) * (ri * ri - 4.0 * ri * rj + rj * rj) / (2.0 * (ri * rj) ** 1.5), 8.0
    with np.errstate(divide="ignore"):
        values = _sign_grid(N) * (n / (ri - rj) ** 2)
    c = mesh.alpha**2 + c + c_shift
    np.fill_diagonal(values, (2.0 * (2.0 * N + mesh.alpha + 1.0) - r - c / r) / (12.0 * r))
    return values


def _potential_matrix(mesh, V):
    """Exact matrix of a potential on the scaled mesh (this one includes the
    h scaling, since potentials are functions of the physical radius).

    It exists when every term of the potential is a pure power r**p with p
    in {-2, -1, 0, 1, 2}; other shapes have no exact quadrature and raise
    before any matrix is requested.  ``_assemble`` adds a Gauss-mode
    potential to H's diagonal itself.
    """
    ops = [_POWER_OPS.get(p) if a == b == 0.0 else None for _, p, a, b in V.terms]
    if V.coulomb_erf is not None or V.eckart is not None or None in ops:
        raise ValueError(f"potential {V.label!r} has no exact matrix elements")
    terms = [c * mesh.h**p * operator_matrix(mesh, op, Mode.Exact)
             for (c, p, _, _), op in zip(V.terms, ops)]
    return sum(terms[1:], terms[0]) if terms else np.zeros((mesh.N, mesh.N))


# ---------------------------------------------------------------------------
# Hamiltonian assembly

# Per-scheme mesh family, default Laguerre parameter, evaluation modes of
# the (kinetic, centrifugal, potential) terms, and dimension.  Both 2D
# schemes take the RegSqrt mesh with alpha = 0.
_E, _G = Mode.Exact, Mode.Gauss
SCHEMES = {
    HamiltonianVariant.Var: (Family.RegSqrt, 1.0, (_E, _E, _E), 3),
    HamiltonianVariant.RegSqrtMesh: (Family.RegSqrt, 1.0, (_G, _G, _G), 3),
    HamiltonianVariant.RegRMesh: (Family.RegR, 0.0, (_G, _G, _G), 3),
    HamiltonianVariant.NonReg: (Family.NonReg, 2.0, (_E, _G, _G), 3),
    HamiltonianVariant.NonRegVG: (Family.NonReg, 2.0, (_E, _E, _G), 3),
    HamiltonianVariant.Var2D: (Family.RegSqrt, 0.0, (_E, _E, _E), 2),
    HamiltonianVariant.RegSqrtMesh2D: (Family.RegSqrt, 0.0, (_G, _G, _G), 2),
}

# The (family, operator) cells some scheme reads in Exact mode, the only ones
# operator_matrix builds: by the modes of its terms, the kinetic operator of
# its dimension, 1/r^2 (centrifugal) and the powers of a potential (p > -2).
_EXACT_READ = frozenset(
    (family, op) for family, _, modes, dim in SCHEMES.values()
    for mode, ops in zip(modes, (("kinetic" if dim == 3 else "kinetic2d",), ("1/r^2",),
                                 ("1/r", "1", "r", "r^2")))
    if mode is Mode.Exact for op in ops)


def scheme_mesh(variant, N, h, alpha=None):
    """The mesh ``variant`` (member or name) runs on: its ``SCHEMES`` family
    and Laguerre parameter, or ``alpha`` in place of the latter when given."""
    family, default, *_ = SCHEMES[_coerce(HamiltonianVariant, variant)]
    return MeshSpec(N, default if alpha is None else alpha, family, h)


def _scheme_row(variant, dimension, n, mesh):
    """The angular number ``n`` (l in 3D, m in 2D) as an int and the term
    modes of ``variant``, after checking the scheme's dimension, ``n`` and
    the mesh against its row."""
    variant = _coerce(HamiltonianVariant, variant)
    family, alpha, modes, dim = SCHEMES[variant]
    if dim != dimension:
        raise ValueError(f"{variant.name} is a {dim}D scheme, not a {dimension}D one")
    name = "l" if dimension == 3 else "m"
    n = _integer(name, n, nonnegative=True)
    if mesh.N <= n:
        raise ValueError(f"N must exceed {name} (got N={mesh.N}, {name}={n})")
    if mesh.family is not family or dim == 2 and mesh.alpha != alpha:
        fixed = f" with alpha={alpha:g}" if dim == 2 else ""
        raise ValueError(f"variant {variant.name} requires family {family.name}{fixed}")
    return n, modes


def _h_squared(h):
    """h**2, after checking that the kinetic scale 1/(2 h^2) is a finite,
    nonzero double; a zero or infinite scale would silently drop or blow up
    the kinetic term."""
    h2 = float(h) * float(h)
    if not (0.0 < 2.0 * h2 < math.inf and 0.5 / h2 < math.inf):
        raise OverflowError(f"h={h!r}: the kinetic scale 1/(2 h^2) is out of double range")
    return h2


# Scaling the h-free operator matrices by powers of h, and evaluating the
# potential at h r_i, can leave double range near the ends of the h axis;
# the assembled H is then checked by _in_range instead of warning midway.
_H_ERRSTATE = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


def _in_range(H, h):
    """H itself, or OverflowError naming h when an entry is not finite: then
    its largest or its smallest entry is NaN or infinite."""
    if not (math.isfinite(H.max()) and math.isfinite(H.min())):
        raise OverflowError(f"h={h!r}: Hamiltonian entries are out of double range")
    return H


def _assemble(mesh, kinetic_op, strength, modes, V):
    """H = (K + strength/x^2) / (2 h^2) + V(h x) on ``mesh`` and ``mesh``
    itself, the basis H is written in; K is the ``kinetic_op`` matrix, each
    term in its mode of ``modes`` (kinetic, centrifugal, potential).

    A Gauss-mode term is diagonal, so it is added to H's diagonal alone.  That
    is the whole-matrix sum bit for bit: the sum would add +0.0 to every entry
    off the diagonal, which changes only a -0.0, and there is none (K has no
    zero there, K/(2 h^2) does not underflow to zero for any h that passes
    ``_h_squared``, and a sum with a nonzero term is never -0.0)."""
    t_mode, c_mode, v_mode = modes
    two_h2 = 2.0 * _h_squared(mesh.h)
    T = operator_matrix(mesh, kinetic_op, t_mode)
    with np.errstate(**_H_ERRSTATE):
        H = T / two_h2
        diagonal = H.reshape(-1)[:: mesh.N + 1]  # a view
        if strength > 0 and c_mode is Mode.Gauss:
            diagonal += strength * mesh.nodes ** _POWERS["1/r^2"] / two_h2
        elif strength > 0:
            term = strength * operator_matrix(mesh, "1/r^2", c_mode)
            term /= two_h2
            H += term
        if v_mode is Mode.Gauss:
            diagonal += evaluate_potential(V, mesh.h * mesh.nodes)
        else:
            H += _potential_matrix(mesh, V)
    return _in_range(H, mesh.h), mesh


def hamiltonian_3d(mesh, l, V, variant):
    """Hamiltonian of the 3D radial equation (-1/2 d^2/dr^2 + l(l+1)/(2 r^2)
    + V) in the chosen evaluation scheme, and the basis it is written in.

    Returns
    -------
    (ndarray, MeshSpec)
        Scaled N x N Hamiltonian H and its basis, ``mesh`` itself.  The
        overlap is the identity, so it is not returned: the RegSqrt and
        NonReg functions are exactly orthonormal, and the RegR scheme takes
        the Gauss overlap, the identity on every family.

    Raises
    ------
    OverflowError
        Naming h, when 1/(2 h^2) or an assembled entry is out of double
        range; at N = 150 that is h below about 1e-152 or above 1e151.
    """
    l, modes = _scheme_row(variant, 3, l, mesh)
    return _assemble(mesh, "kinetic", l * (l + 1.0), modes, V)


def hamiltonian_2d(mesh, m, V, variant):
    """Hamiltonian of the 2D radial equation (-1/2 [d^2/drho^2 +
    1/(4 rho^2)] + m^2/(2 rho^2) + V), and the basis it is written in.

    Both schemes take the RegSqrt alpha=0 mesh.  The mesh scheme
    (RegSqrtMesh2D) works on it with the combined closed form plus
    Gauss-approximated m-term and potential.  The variational scheme (Var2D)
    is exact throughout.  At m > 0 it needs the exact 1/rho^2 element, which
    diverges at alpha = 0, so it takes a basis of N-1 functions with
    alpha = 2.  At m = 0 there is no such element and it keeps the given
    mesh, where every element is exact and the functions go like rho^(1/2)
    at the origin, as the m = 0 solution does.

    Returns
    -------
    (ndarray, MeshSpec)
        Scaled Hamiltonian H and its basis: ``mesh`` itself (H is N x N)
        for RegSqrtMesh2D and for Var2D at m = 0, and the derived
        ``MeshSpec(N-1, 2.0, RegSqrt, h)`` for Var2D at m > 0.  The RegSqrt
        functions are exactly orthonormal, so no overlap is returned.

    Raises
    ------
    OverflowError
        Naming h, as for ``hamiltonian_3d``.
    """
    m, modes = _scheme_row(variant, 2, m, mesh)
    if modes[1] is Mode.Exact and m > 0:
        # the exact 1/rho^2 element diverges at alpha = 0
        mesh = MeshSpec(mesh.N - 1, 2.0, Family.RegSqrt, mesh.h)
    return _assemble(mesh, "kinetic2d", m * m, modes, V)


def classify_singularity(mesh, angular, V, variant):
    """The Gauss-approximated terms of ``variant`` that the paper's rule
    predicts to lose accuracy on ``mesh`` at angular number ``angular`` (l in
    3D, m in 2D) with potential ``V``, in the order ``("centrifugal",
    "potential")``; an empty tuple means the scheme is safe.

    A term of inverse power s loses accuracy when ``f_i (r^-s phi)/w``, with
    ``phi`` the exact solution, is singular at the origin: when the basis
    leading power plus the solution's (l+1 in 3D, m+1/2 in 2D) minus alpha
    falls below s.  The centrifugal term has s = 2 at angular > 0.  The
    potential's s is the largest ``-p`` of its terms ``c r^p e^(...)`` (the
    damping is 1 at the origin), and 0 when none is singular.
    """
    dimension = SCHEMES[_coerce(HamiltonianVariant, variant)][3]
    n, (_, c_mode, v_mode) = _scheme_row(variant, dimension, angular, mesh)
    exponent = _family_power(mesh.family, mesh.alpha) + n + (dimension - 1) / 2 - mesh.alpha
    s_potential = max([0.0] + [-p for _, p, _, _ in V.terms])
    lossy = (("centrifugal", c_mode is Mode.Gauss and n > 0 and exponent < 2.0),
             ("potential", v_mode is Mode.Gauss and exponent < s_potential))
    return tuple(term for term, loss in lossy if loss)
