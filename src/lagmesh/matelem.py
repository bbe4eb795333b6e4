"""Operator matrices on Lagrange-Laguerre meshes and Hamiltonian assembly.

Matrices come in two modes.  ``Gauss`` evaluates the defining integral with
the quadrature rule attached to the mesh, which collapses multiplicative
operators to diagonal matrices and derivative operators to combinations of
basis-function derivatives at the nodes.  ``Exact`` returns the true
integral: closed forms are used for the sqrt-regularized family, and an
exactifying quadrature (a larger rule with a shifted weight exponent, chosen
so the integrand is exactly a polynomial times the weight) covers every
other case.  Every builder returns a plain ``ndarray``.

Sign convention: ``Kinetic`` stores the matrix of ``-d^2/dr^2`` and
``Kinetic2D`` the matrix of ``-(d^2/drho^2 + 1/(4 rho^2))``, so Hamiltonian
assembly adds every term with a positive coefficient.  All stored matrices
are unscaled; the builders apply ``h**-2`` to derivative terms, ``h**p`` to
power terms, and evaluate potentials at ``h * r_i``.  Since no stored matrix
depends on h, one cache, ``_cached_matrix``, holds every dense one per
``(N, alpha, family)`` and operator: the oracle matrices, the Gauss kinetic
matrix from node derivatives, and the RegSqrt closed forms of both kinetic
operators and of the Exact powers.  It keeps at most ``_CACHE_SIZE`` of
them, so a sweep over h builds each matrix once.  Diagonal Gauss matrices
cost less to build than to look up and are not cached.  Cached arrays are
read-only.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from .basis import (
    Family,
    MeshSpec,
    _CACHE_SIZE,
    _alpha,
    _family_power,
    _node_derivative_matrices,
    _prefactors,
    _weighted_cardinal_all,
)
from .potentials import evaluate as evaluate_potential
from .quadrature import generate_rule
from .specfun import _integer

__all__ = [
    "Classification",
    "HamiltonianVariant",
    "Mode",
    "SCHEMES",
    "Variant2D",
    "classify_singularity",
    "hamiltonian_2d",
    "hamiltonian_3d",
    "kinetic2d_matrix",
    "kinetic_matrix",
    "potential_matrix",
    "power_matrix",
    "scheme_mesh",
]

_ORACLE_EXTRA_ORDER = 10


class Mode(enum.Enum):
    Exact = "Exact"
    Gauss = "Gauss"


class HamiltonianVariant(enum.Enum):
    """Evaluation schemes for the 3D radial Hamiltonian.

    ``Var`` is the variational reference: every matrix element exact.
    ``RegSqrtMesh`` and ``RegRMesh`` are mesh calculations with all terms at
    the Gauss approximation.  ``NonReg`` uses Gauss for the potential and
    centrifugal terms only; ``NonRegVG`` restricts Gauss to the potential.
    """

    Var = "Var"
    RegSqrtMesh = "RegSqrtMesh"
    RegRMesh = "RegRMesh"
    NonReg = "NonReg"
    NonRegVG = "NonRegVG"


class Variant2D(enum.Enum):
    Var2D = "Var2D"
    RegSqrtMesh2D = "RegSqrtMesh2D"


class Classification(enum.Enum):
    AccuracyLoss = "AccuracyLoss"
    Safe = "Safe"


def _coerce(enum_cls, value):
    if isinstance(value, str):
        try:
            return enum_cls[value]
        except KeyError:
            raise ValueError(f"unknown {enum_cls.__name__}: {value!r}") from None
    if not isinstance(value, enum_cls):
        raise ValueError(f"unknown {enum_cls.__name__}: {value!r}")
    return value


def _sign_grid(N):
    """``(-1)**(i - j)`` as the outer product of alternating signs."""
    sign = np.where(np.arange(N) % 2 == 1, -1.0, 1.0)
    return np.outer(sign, sign)


# ---------------------------------------------------------------------------
# exactifying-quadrature oracle

def _operator_components(kind, p):
    """Decomposition of f_i * (O f_j) over weighted-cardinal products.

    With psi_j the cardinal-ratio polynomial and W_j^{(d)} its d-th
    derivative times e^{-x/2} (the arrays the basis module evaluates), each
    supported operator satisfies
    f_i (O f_j) = B_i B_j sum_t c_t W_i^{(0)} W_j^{(d_t)} x^{2p + e_t}.
    Entries are (d, e, c); zero coefficients are dropped.  The minimal
    power 2p + e decides integrability and the oracle's weight exponent.
    Singular 1/x^2 coefficients are formed analytically here, so the cases
    where they vanish (p(p-1) at p in {0,1}; (p-1/2)^2 at p=1/2) drop out
    exactly instead of by numerical cancellation.
    """
    if kind == "InvR":
        comps = [(0, -1, 1.0)]
    elif kind == "InvR2":
        comps = [(0, -2, 1.0)]
    elif kind == "R":
        comps = [(0, 1, 1.0)]
    elif kind == "R2":
        comps = [(0, 2, 1.0)]
    elif kind == "Kinetic":
        comps = [
            (2, 0, -1.0),
            (1, -1, -2.0 * p),
            (1, 0, 1.0),
            (0, -2, -(p * p - p)),
            (0, -1, p),
            (0, 0, -0.25),
        ]
    elif kind == "Kinetic2D":
        comps = [
            (2, 0, -1.0),
            (1, -1, -2.0 * p),
            (1, 0, 1.0),
            (0, -2, -((p - 0.5) ** 2)),
            (0, -1, p),
            (0, 0, -0.25),
        ]
    else:
        raise ValueError(f"unknown operator tag: {kind!r}")
    return [(d, e, c) for d, e, c in comps if c != 0.0]


def _oracle_matrix(mesh, kind):
    """Exact (unscaled) matrix of an operator, by quadrature that is exact
    by design.

    After factoring out ``e^{-x}``, the integrand of every supported
    operator/family pair is ``x^mu`` times a polynomial of degree at most
    2N; a rule of order N + 10 with weight exponent mu integrates that
    without error.  Combinations whose integrand diverges at the origin
    (mu <= -1) are rejected.
    """
    p = _family_power(mesh.family, mesh.alpha)
    comps = _operator_components(kind, p)
    mu = min(2.0 * p + e for _, e, _ in comps)
    if mu <= -1.0 + 1e-12:
        raise ValueError(
            f"divergent integral: {kind} on family {mesh.family.name} with alpha={mesh.alpha}"
        )
    x, lam = generate_rule(mesh.N + _ORACLE_EXTRA_ORDER, mu)
    pw = _weighted_cardinal_all(mesh, x, derivatives=any(d for d, _, _ in comps))
    # sum the weighted right factors first, so one matmul does the contraction
    right = np.zeros_like(pw[0])
    for d, e, c in comps:
        right += pw[d] * (c * lam * x ** (2.0 * p + e))
    values = pw[0] @ right.T
    pref = _prefactors(mesh)
    values *= np.outer(pref, pref)
    return 0.5 * (values + values.T)


def _h_free(build, mesh, *args):
    """``build(mesh, *args)``, an unscaled matrix, from ``_cached_matrix``."""
    return _cached_matrix(build, dataclasses.replace(mesh, h=1.0), *args)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cached_matrix(build, mesh, *args):
    """The one cache of h-free matrices: every dense matrix a builder returns,
    keyed on the builder and the mesh at h = 1, read-only."""
    values = build(mesh, *args)
    values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# individual operator matrices

def power_matrix(mesh, p, mode=Mode.Gauss):
    """Matrix of r**p for p in {-2, -1, 1, 2} (unscaled coordinates).

    Gauss mode is diagonal for every family.  Exact mode uses the compact
    closed forms on the RegSqrt family and the oracle elsewhere.
    """
    mode = _coerce(Mode, mode)
    if p not in (-2, -1, 1, 2):
        raise ValueError("p must be one of -2, -1, 1, 2")
    if mode is Mode.Gauss:
        return np.diag(mesh.nodes ** float(p))
    return _h_free(_exact_power, mesh, p)


def _exact_power(mesh, p):
    if mesh.family is not Family.RegSqrt:
        return _oracle_matrix(mesh, {-2: "InvR2", -1: "InvR", 1: "R", 2: "R2"}[p])
    r, N, alpha = mesh.nodes, mesh.N, mesh.alpha
    if p == -2:
        if alpha == 0.0:
            raise ValueError("matrix of 1/r^2 diverges on the RegSqrt family at alpha=0")
        return np.diag(r**-2.0) + _sign_grid(N) / (alpha * np.outer(r, r))
    if p == -1:
        return np.diag(1.0 / r)
    if p == 1:
        return np.diag(r) + _sign_grid(N)
    return np.diag(r**2.0) + _sign_grid(N) * (2.0 * N + alpha + 1.0 + r[:, None] + r[None, :])


def kinetic_matrix(mesh, mode=Mode.Gauss):
    """Matrix of -d^2/dr^2 (unscaled coordinates).

    RegSqrt has closed forms; the Gauss value drops the correcting term
    proportional to (1 - alpha^2)/alpha, which vanishes at alpha = 1.  The
    other families use the oracle in Exact mode and node derivative values
    in Gauss mode.
    """
    return _h_free(_kinetic, mesh, _coerce(Mode, mode))


def _kinetic(mesh, mode):
    if mesh.family is Family.RegSqrt:
        r = mesh.nodes
        N, alpha = mesh.N, mesh.alpha
        if mode is Mode.Exact and alpha == 0.0:
            raise ValueError("exact -d^2/dr^2 diverges on the RegSqrt family at alpha=0")
        with np.errstate(divide="ignore"):
            off = 2.0 / (r[:, None] - r[None, :]) ** 2
        diag = (2.0 * (2.0 * N + alpha + 1.0) - r + (1.0 - alpha**2) / r) / (12.0 * r)
        if mode is Mode.Exact:
            off = off + (1.0 - alpha**2) / (4.0 * alpha * np.outer(r, r))
            diag = diag + 3.0 * (1.0 - alpha**2) / (alpha * 12.0 * r**2)
        values = _sign_grid(N) * off
        np.fill_diagonal(values, diag)
        return values
    if mode is Mode.Exact:
        return _oracle_matrix(mesh, "Kinetic")
    # node derivative values, symmetrized: the raw quadrature of f_i f_j''
    # is not symmetric in i, j because the integrand is not; its symmetric
    # part is the approximation of the symmetric operator
    _, d2 = _node_derivative_matrices(mesh)
    raw = -np.sqrt(mesh.weights)[:, None] * d2
    return 0.5 * (raw + raw.T)


def kinetic2d_matrix(mesh, mode=Mode.Gauss):
    """Matrix of the combined operator -(d^2/drho^2 + 1/(4 rho^2)).

    On the RegSqrt family with alpha = 0 (the 2D mesh) the Gauss value is
    exact and has a closed form, even though the two pieces diverge
    separately.  With alpha > 0 the Exact value is the difference of the
    RegSqrt closed forms of -d^2/dr^2 and 1/(4 r^2) (the Var2D basis).
    Other meshes fall back to the oracle (Exact) or node values (Gauss).
    """
    return _h_free(_kinetic2d, mesh, _coerce(Mode, mode))


def _kinetic2d(mesh, mode):
    if mesh.family is Family.RegSqrt and mesh.alpha == 0.0:
        r = mesh.nodes
        N = mesh.N
        with np.errstate(divide="ignore"):
            values = _sign_grid(N) * 2.0 / (r[:, None] - r[None, :]) ** 2
        np.fill_diagonal(values, (2.0 * (2.0 * N + 1.0) - r - 2.0 / r) / (12.0 * r))
        return values
    if mode is Mode.Gauss:
        return _kinetic(mesh, mode) - np.diag(0.25 / mesh.nodes**2)
    if mesh.family is Family.RegSqrt:
        return _kinetic(mesh, mode) - 0.25 * _exact_power(mesh, -2)
    return _oracle_matrix(mesh, "Kinetic2D")


def potential_matrix(mesh, V, mode=Mode.Gauss):
    """Matrix of a potential on the scaled mesh (this one includes the h
    scaling, since potentials are functions of the physical radius).

    Gauss mode is diagonal with entries V(h r_i).  Exact mode is available
    when every term of the potential is a pure power r**p with p in
    {-2, -1, 1, 2}; other shapes have no exact quadrature and raise.
    """
    mode = _coerce(Mode, mode)
    if mode is Mode.Gauss:
        return np.diag(evaluate_potential(V, mesh.h * mesh.nodes))
    if V.coulomb_erf is not None or V.eckart is not None:
        raise ValueError(f"potential {V.label!r} has no exact matrix elements")
    values = np.zeros((mesh.N, mesh.N))
    for c, p, a, b in V.terms:
        if a != 0.0 or b != 0.0 or p not in (-2.0, -1.0, 1.0, 2.0):
            raise ValueError(f"potential {V.label!r} has no exact matrix elements")
        values += c * mesh.h**p * power_matrix(mesh, int(p), Mode.Exact)
    return values


# ---------------------------------------------------------------------------
# Hamiltonian assembly

# Per-scheme mesh family, default Laguerre parameter, and evaluation modes
# of the (kinetic, centrifugal, potential) terms.  Both 2D schemes take the
# RegSqrt mesh with alpha = 0.
SCHEMES = {
    HamiltonianVariant.Var: (Family.RegSqrt, 1.0, (Mode.Exact, Mode.Exact, Mode.Exact)),
    HamiltonianVariant.RegSqrtMesh: (Family.RegSqrt, 1.0, (Mode.Gauss, Mode.Gauss, Mode.Gauss)),
    HamiltonianVariant.RegRMesh: (Family.RegR, 0.0, (Mode.Gauss, Mode.Gauss, Mode.Gauss)),
    HamiltonianVariant.NonReg: (Family.NonReg, 2.0, (Mode.Exact, Mode.Gauss, Mode.Gauss)),
    HamiltonianVariant.NonRegVG: (Family.NonReg, 2.0, (Mode.Exact, Mode.Exact, Mode.Gauss)),
    Variant2D.Var2D: (Family.RegSqrt, 0.0, (Mode.Exact, Mode.Exact, Mode.Exact)),
    Variant2D.RegSqrtMesh2D: (Family.RegSqrt, 0.0, (Mode.Gauss, Mode.Gauss, Mode.Gauss)),
}


def scheme_mesh(variant, N, h, alpha=None):
    """The mesh ``variant`` runs on: its ``SCHEMES`` family and Laguerre
    parameter, or ``alpha`` in place of the latter when given."""
    if variant not in SCHEMES:
        raise ValueError(f"unknown scheme: {variant!r}")
    family, default, _ = SCHEMES[variant]
    return MeshSpec(N, default if alpha is None else alpha, family, h)


def _scheme_row(variant, name, n, mesh):
    """The angular number ``n`` (called ``name``) as an int and the term
    modes of ``variant``, after checking both and the mesh against its row."""
    n = _integer(name, n, nonnegative=True)
    if mesh.N <= n:
        raise ValueError(f"N must exceed {name} (got N={mesh.N}, {name}={n})")
    family, alpha, modes = SCHEMES[variant]
    if isinstance(variant, Variant2D):
        if mesh.family is not family or mesh.alpha != alpha:
            raise ValueError("2D schemes require a RegSqrt mesh with alpha=0")
    elif mesh.family is not family:
        raise ValueError(f"variant {variant.name} requires family {family.name}")
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
    """H itself, or OverflowError naming h when an entry is not finite."""
    if not np.all(np.isfinite(H)):
        raise OverflowError(f"h={h!r}: Hamiltonian entries are out of double range")
    return H


def hamiltonian_3d(mesh, l, V, variant):
    """Hamiltonian and overlap matrices for the 3D radial equation
    (-1/2 d^2/dr^2 + l(l+1)/(2 r^2) + V) in the chosen evaluation scheme.

    Returns
    -------
    (ndarray, ndarray)
        Scaled N x N Hamiltonian H and overlap S.  S is always the
        identity: the RegSqrt and NonReg functions are exactly orthonormal,
        and the RegR scheme takes its overlap at the Gauss approximation,
        which is the identity on every family.

    Raises
    ------
    OverflowError
        Naming h, when 1/(2 h^2) or an assembled entry is out of double
        range; at N = 150 that is h below about 1e-152 or above 1e151.
    """
    variant = _coerce(HamiltonianVariant, variant)
    l, (t_mode, c_mode, v_mode) = _scheme_row(variant, "l", l, mesh)
    two_h2 = 2.0 * _h_squared(mesh.h)
    T = kinetic_matrix(mesh, t_mode)
    C = l * (l + 1.0) * power_matrix(mesh, -2, c_mode) if l > 0 else None
    with np.errstate(**_H_ERRSTATE):
        H = T / two_h2
        if C is not None:
            H = H + C / two_h2
        H = H + potential_matrix(mesh, V, v_mode)
    return _in_range(H, mesh.h), np.eye(mesh.N)


def hamiltonian_2d(mesh, m, V, variant):
    """Hamiltonian and overlap matrices for the 2D radial equation
    (-1/2 [d^2/drho^2 + 1/(4 rho^2)] + m^2/(2 rho^2) + V).

    Both schemes take the RegSqrt alpha=0 mesh.  The mesh scheme
    (RegSqrtMesh2D) works on it with the combined closed form plus
    Gauss-approximated m-term and potential.  The variational scheme (Var2D)
    is built on a basis of N-1 functions with alpha=2, exact throughout.

    Returns
    -------
    (ndarray, ndarray)
        Scaled Hamiltonian H and overlap S: N x N for RegSqrtMesh2D, and
        (N-1) x (N-1) on the basis ``MeshSpec(N-1, 2.0, RegSqrt, h)`` for
        Var2D.  S is always the identity, since the RegSqrt functions are
        exactly orthonormal.

    Raises
    ------
    OverflowError
        Naming h, as for ``hamiltonian_3d``.
    """
    variant = _coerce(Variant2D, variant)
    m, (t_mode, c_mode, v_mode) = _scheme_row(variant, "m", m, mesh)
    h = mesh.h
    two_h2 = 2.0 * _h_squared(h)
    if c_mode is Mode.Exact:
        # the exact 1/rho^2 element diverges at alpha = 0
        mesh = MeshSpec(mesh.N - 1, 2.0, Family.RegSqrt, h)
    T = kinetic2d_matrix(mesh, t_mode)
    P = power_matrix(mesh, -2, c_mode) if m > 0 and c_mode is Mode.Exact else None
    with np.errstate(**_H_ERRSTATE):
        H = T / two_h2
        if P is not None:
            H = H + m * m * P / two_h2
        elif m > 0:  # Gauss: m^2/(2 rho^2) at rho = h r_i, rounded as 2D reports pin
            H = H + np.diag(m**2 / (2.0 * (h * mesh.nodes) ** 2))
        H = H + potential_matrix(mesh, V, v_mode)
    return _in_range(H, h), np.eye(mesh.N)


def classify_singularity(family, alpha, l_or_m, s, dimension="3D"):
    """Predict whether a Gauss-approximated operator costs accuracy.

    The Gauss error is governed by the origin exponent of
    ``f_i (O phi)/w`` with ``phi`` the exact solution: the basis leading
    power, plus the solution's origin power (l+1 in 3D, m+1/2 in 2D), minus
    the operator's inverse power s, minus the weight exponent alpha.  A
    negative exponent means a singular quotient and an accuracy loss.
    """
    family = _coerce(Family, family)
    if s not in (0, 1, 2):
        raise ValueError("s must be 0, 1, or 2")
    if dimension not in ("3D", "2D"):
        raise ValueError("dimension must be '3D' or '2D'")
    alpha = _alpha(alpha)
    name = "l" if dimension == "3D" else "m"
    n = _integer(name, l_or_m, nonnegative=True)
    origin = n + 1.0 if dimension == "3D" else n + 0.5
    e = _family_power(family, alpha) + origin - s - alpha
    return Classification.AccuracyLoss if e < 0.0 else Classification.Safe
