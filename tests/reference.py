"""Independent references for the matrix builders, kept out of the package.

* ``weighted_cardinal_all`` evaluates the weighted cardinal ratios of every
  basis function, with their first two derivatives, on a set of points.
* ``wavefunction`` sums the basis matrix, near a node normalized as the
  package normalizes it; ``wavefunction_mpmath`` sums the exact basis
  functions at 40 digits.
* ``oracle_matrix`` integrates an operator's matrix by a rule that is exact
  by design: a second, larger Gauss rule with a shifted weight exponent.
  It loses digits as N grows, so tests use it at N <= 40, except on the
  kinetic operators at N >= 30: their second derivatives are divided
  differences, where a node's rounding enters as a pole (at N = 40 it
  moves the oracle by up to 2e-11 of the largest entry).
* ``exact_mpmath`` forms an Exact matrix at ``dps`` digits from the
  monomial coefficients of the cardinal polynomials and the Gamma integrals
  of their moments.  At the default 40 digits it is exact for small N
  (tests use N <= 12); at 120 digits it is the reference of the kinetic
  cells at N = 30 and 40.
"""

import functools

import numpy as np

from lagmesh import basis
from lagmesh.basis import _family_power, _prefactors
from lagmesh.quadrature import generate_rule
from lagmesh.specfun import _weighted_laguerre_pair

ORACLE_EXTRA_ORDER = 10
OPERATORS = ("InvR2", "InvR", "R", "R2", "Kinetic", "Kinetic2D")
# ``weighted_cardinal_all`` sums the Taylor series of the derivatives where
# |x - r_j| < this times (1 + r_j).  Outside, they are divided differences
# that lose about eps/|x - r_j|^2; in the package's window they lose enough
# to fail the N = 40, alpha = 0 closed-form checks.  The values take the
# package's window: at N = 400 this one is wider than half the gap at 302 of
# 400 nodes, where the 60-term series errs by up to 1.4e-10 of the largest
# value, and near the origin it spans several gaps, where the series fails.
NEAR_NODE_FRACTION = 1e-2


def node_derivatives(N, alpha):
    """``T_k = L_N^{(k)} exp(-r/2)``, k = 1, 2, 3, at every node: ``T_1 =
    (N B_N - (N+alpha) B_{N-1})/r``, the derivative at the stored node, then
    the differentiated Laguerre equation.  (``(N+1) B_{N+1}/r`` equals ``T_1``
    only at an exact zero; a node's rounding enters it with a factor that
    grows like ``N/r``.)"""
    r = basis._cached_rule(N, alpha)[0]
    b_prev, b, _ = _weighted_laguerre_pair(N, alpha, r)
    t1 = (N * b - (N + alpha) * b_prev) / r
    t2 = (r - alpha - 1.0) * t1 / r
    t3 = ((r - alpha - 2.0) * t2 - (N - 1.0) * t1) / r
    return t1, t2, t3


def taylor_series(N, alpha, rj, t, s):
    """``exp(-x/2)`` times the cardinal ratio ``L_N(x)/(x-r_j)`` and its first
    two derivatives near a node, each summed from its Taylor series in
    ``s = x - r_j`` (a fixed 60 terms), one entry per (node, point) pair;
    ``t`` holds ``T_1, T_2, T_3`` of ``node_derivatives`` at the pairs."""
    t1, t2, t3 = t
    out = np.stack([t1, 0.5 * t2, t3 / 3.0])  # the s = 0 limits
    live = np.nonzero(s != 0.0)[0]
    rj, s = rj[live], s[live]
    t_prev2, t_prev = np.zeros_like(s), t1[live]
    sums = np.stack([t_prev, np.zeros_like(s), np.zeros_like(s)])
    inv_fact = 1.0
    for m in range(2, 60):
        t_m = ((rj - alpha - 1.0 - (m - 2)) * t_prev - (N - (m - 2)) * t_prev2) / rj
        inv_fact /= m
        c = t_m * inv_fact  # the ratio is sum_m c_m s^(m-1)
        sums += c * np.stack([s ** (m - 1), (m - 1.0) * s ** (m - 2),
                              (m - 1.0) * (m - 2.0) * s ** (m - 3)])
        t_prev2, t_prev = t_prev, t_m
    out[:, live] = np.exp(-0.5 * s) * sums
    return out


def weighted_cardinal_all(mesh, x, derivatives=False):
    """Weighted cardinal ratios (and derivatives) of every basis function.

    Returns three ``(N, len(x))`` arrays: ``exp(-x/2)`` times the ratio
    ``L_N(x)/(x-r_j)`` and times its first two derivatives with respect to
    ``x``; the derivatives are ``None`` unless ``derivatives`` is true, and
    need ``x > 0``.  Within ``near_window`` of a node the values, and within
    ``NEAR_NODE_FRACTION (1 + r_j)`` the derivatives, come from
    ``taylor_series``.
    """
    N, alpha, nodes = mesh.N, mesh.alpha, mesh.nodes
    b_prev, b_cur, _ = _weighted_laguerre_pair(N, alpha, x)
    s = x[None, :] - nodes[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        pw = [b_cur[None, :] / s, None, None]
        if derivatives:
            lpw = (N * b_cur - (N + alpha) * b_prev) / x
            lppw = ((x - alpha - 1.0) * lpw - N * b_cur) / x
            pw[1] = (lpw[None, :] - pw[0]) / s
            pw[2] = (lppw[None, :] - 2.0 * pw[1]) / s

    def series(window):
        j, i = np.nonzero(np.abs(s) < window[:, None])
        t = [t[j] for t in node_derivatives(N, alpha)]
        return j, i, taylor_series(N, alpha, nodes[j], t, s[j, i])

    j, i, near = series(near_window(nodes))
    pw[0][j, i] = near[0]
    if derivatives:
        j, i, near = series(NEAR_NODE_FRACTION * (1.0 + nodes))
        pw[1][j, i], pw[2][j, i] = near[1], near[2]
    return tuple(pw)


def near_window(nodes):
    """Half-width of the package's near-node window at each node: a fraction
    of the distance to the nearer neighbour or, for the first node, to the
    origin."""
    gap = np.minimum(np.diff(nodes, prepend=0.0), np.diff(nodes, append=np.inf))
    return basis._NEAR_GAP_FRACTION * gap


def wavefunction(mesh, c, x):
    """``u(h x)`` as ``c`` times the ``N x len(x)`` basis matrix over
    ``sqrt(h)``, for finite ``x >= 0``.

    An entry is ``pref_j x^p B_N(x)/(x - r_j)``, except inside the node's
    ``near_window`` (found by a test on every pair), where the Lagrange
    property gives its value at the node, ``f_j(r_j) = lambda_j^{-1/2}``,
    and ``taylor_series`` over ``T_1`` its shape.
    """
    N, alpha, nodes = mesh.N, mesh.alpha, mesh.nodes
    p = _family_power(mesh.family, alpha)
    s = x[None, :] - nodes[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        F = _prefactors(mesh)[:, None] * _weighted_laguerre_pair(N, alpha, x)[1] / s
    j, i = np.nonzero(np.abs(s) < near_window(nodes)[:, None])
    t = [t[j] for t in node_derivatives(N, alpha)]
    shape = taylor_series(N, alpha, nodes[j], t, s[j, i])[0] / t[0]
    F[j, i] = shape / (nodes[j] ** p * np.sqrt(mesh.weights[j]))
    return c @ (F * x**p) / np.sqrt(mesh.h)


def wavefunction_mpmath(mesh, c, x, polish, dps=40):
    """``u(h x)`` at ``dps`` digits from the exact basis functions
    ``pref_j x^p exp(-x/2) L_N(x)/(x - r_j)``, with ``L_N`` from its
    three-term recurrence.  The nodes listed in ``polish`` take Newton steps
    at ``dps`` digits to the zeros of ``L_N``; the other nodes stay the
    package's, which moves a value at a distance of a few gaps or more by
    no more than their rounding.
    """
    import mpmath as mp

    N = mesh.N
    with mp.workdps(dps):
        a = mp.mpf(mesh.alpha)

        def laguerre_pair(x):  # L_{N-1}, L_N
            prev, cur = mp.mpf(0), mp.mpf(1)
            for k in range(N):
                prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
            return prev, cur

        r = [mp.mpf(v) for v in mesh.nodes]
        for k in polish:
            for _ in range(2):  # from 1e-12, each step squares the error
                prev, cur = laguerre_pair(r[k])
                r[k] -= cur * r[k] / (N * cur - (N + a) * prev)
        p = {"NonReg": a / 2, "RegSqrt": (a + 1) / 2, "RegR": a / 2 + 1}[mesh.family.name]
        rho = {"NonReg": mp.mpf(1) / 2, "RegSqrt": 0, "RegR": -mp.mpf(1) / 2}[mesh.family.name]
        norm = mp.sqrt(mp.gamma(N + a + 1) / mp.factorial(N))
        w = [(-1) ** (k + 1) * mp.mpf(c[k]) * r[k] ** rho / norm for k in range(N)]
        values = []
        for v in x:
            v = mp.mpf(v)
            poles = mp.fsum(wk / (v - rk) for wk, rk in zip(w, r))
            values.append(float(v**p * mp.exp(-v / 2) * laguerre_pair(v)[1] * poles))
        return np.array(values) / np.sqrt(mesh.h)


def _operator_components(kind, p):
    """Decomposition of f_i * (O f_j) over weighted-cardinal products.

    With psi_j the cardinal-ratio polynomial and W_j^{(d)} its d-th
    derivative times e^{-x/2}, each supported operator satisfies
    f_i (O f_j) = B_i B_j sum_t c_t W_i^{(0)} W_j^{(d_t)} x^{2p + e_t}.
    Entries are (d, e, c); zero coefficients are dropped, so the cases where
    a singular coefficient vanishes drop out exactly.
    """
    if kind == "InvR":
        comps = [(0, -1, 1.0)]
    elif kind == "InvR2":
        comps = [(0, -2, 1.0)]
    elif kind == "R":
        comps = [(0, 1, 1.0)]
    elif kind == "R2":
        comps = [(0, 2, 1.0)]
    elif kind in ("Kinetic", "Kinetic2D"):
        shift = 0.25 if kind == "Kinetic2D" else 0.0
        comps = [(2, 0, -1.0), (1, -1, -2.0 * p), (1, 0, 1.0),
                 (0, -2, -(p * p - p + shift)), (0, -1, p), (0, 0, -0.25)]
    else:
        raise ValueError(f"unknown operator tag: {kind!r}")
    return [(d, e, c) for d, e, c in comps if c != 0.0]


def oracle_matrix(mesh, kind):
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
            f"divergent integral: {kind} on family {mesh.family.name} with alpha={mesh.alpha}")
    x, lam = generate_rule(mesh.N + ORACLE_EXTRA_ORDER, mu)
    pw = weighted_cardinal_all(mesh, x, derivatives=any(d for d, _, _ in comps))
    right = np.zeros_like(pw[0])
    for d, e, c in comps:
        right += pw[d] * (c * lam * x ** (2.0 * p + e))
    values = pw[0] @ right.T
    pref = _prefactors(mesh)
    values *= np.outer(pref, pref)
    return 0.5 * (values + values.T)


@functools.lru_cache(maxsize=None)
def _cardinal_polys(N, alpha, family, dps):
    """``p`` and the monomial coefficients of ``c_j pi_j`` for ``exact_mpmath``,
    with an empty dict that it fills with the Gamma moments
    ``{m: [sum_k Q_k Gamma(2p - 1 + k + m) over the polynomials]}`` as it
    needs them; shared by every operator on one mesh at ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(alpha)
        p = {"NonReg": a / 2, "RegSqrt": (a + 1) / 2, "RegR": a / 2 + 1}[family]
        rho = {"NonReg": mp.mpf(1) / 2, "RegSqrt": 0, "RegR": -mp.mpf(1) / 2}[family]
        norm = mp.gamma(N + a + 1) / mp.factorial(N)
        # L_N^(alpha), ascending powers
        lag = [(-1) ** k * mp.binomial(N + a, N - k) / mp.factorial(k) for k in range(N + 1)]
        polys = []
        for j, x in enumerate(basis._cached_rule(N, alpha)[0]):
            x = mp.mpf(x)
            for _ in range(4):
                x += mp.laguerre(N, a, x) / mp.laguerre(N - 1, a + 1, x)
            q = [mp.mpf(0)] * N
            q[-1] = lag[N]
            for k in range(N - 1, 0, -1):
                q[k - 1] = lag[k] + x * q[k]
            c = (-1) ** j * x**rho / mp.sqrt(norm)
            polys.append([c * v for v in q])
    return p, polys, {}


def exact_mpmath(mesh, kind, dps=40):
    """Exact (unscaled) matrix of an operator at ``dps`` digits.

    With ``f_j = c_j x^p e^(-x/2) pi_j`` and ``pi_j = L_N/(x - r_j)`` formed
    by synthetic division, every element is ``int e^-x x^(2p-2) Q(x)`` for a
    polynomial Q, that is ``sum_k Q_k Gamma(2p - 1 + k)``; the matrix is
    symmetrized, which matters only where a basis function is nonzero at
    the origin.  Nodes are the package's, polished by Newton steps at
    ``dps`` digits.
    """
    import mpmath as mp

    N = mesh.N
    p, polys, moments = _cardinal_polys(N, mesh.alpha, mesh.family.name, dps)
    with mp.workdps(dps):

        def combine(*terms):
            # sum of coefficient * x^shift * polynomial, shift >= 0
            out = [mp.mpf(0)] * (N + 4)
            for coef, shift, poly in terms:
                for k, v in enumerate(poly):
                    out[k + shift] += coef * v
            return out

        if kind in ("Kinetic", "Kinetic2D"):
            # -x^2 f''/(c x^(p-2) e^(-x/2)) = -(x^2 q'' + (2p x - x^2) q'
            #   + (p(p-1) + shift - p x + x^2/4) q)
            shift = mp.mpf(1) / 4 if kind == "Kinetic2D" else 0
            rights = []
            for q in polys:
                d1 = [k * q[k] for k in range(1, N)]
                d2 = [k * d1[k] for k in range(1, N - 1)]
                rights.append(combine((-1, 2, d2), (-2 * p, 1, d1), (1, 2, d1),
                                      (-(p * (p - 1) + shift), 0, q), (p, 1, q),
                                      (-mp.mpf(1) / 4, 2, q)))
        else:
            e = {"InvR2": -2, "InvR": -1, "R": 1, "R2": 2}[kind]
            rights = [combine((1, 2 + e, q)) for q in polys]
        # Gamma moments of the polynomials, for the powers some right factor
        # holds; each Gamma value once
        used = [m for m in range(N + 4) if any(r[m] != 0 for r in rights)]
        new = [m for m in used if m not in moments]
        gamma = {n: mp.gamma(2 * p - 1 + n) for n in {k + m for k in range(N) for m in new}}
        for m in new:
            moments[m] = [mp.fsum(u * gamma[k + m] for k, u in enumerate(q)) for q in polys]
        full = [[mp.fsum(moments[m][i] * rights[j][m] for m in used) for j in range(N)]
                for i in range(N)]
        # the kinetic forms are symmetrized, as the package's are
        values = np.array([[float((full[i][j] + full[j][i]) / 2) for j in range(N)]
                           for i in range(N)])
        return values
