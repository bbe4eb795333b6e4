"""Bundled benchmark tables: reference data plus the runs that rebuild them.

Five tables are available by id:

1. harmonic-oscillator lowest-state errors, five evaluation schemes
   (N=20, h=0.09), partial waves s, p, d;
2. Coulomb lowest-state errors, same five schemes (N=10, h=0.9);
3. Eckart s-wave phase shifts at the first, fifth, and tenth pseudostate
   energies on both regularized meshes (N=15, h=0.1, gamma=4);
4. alpha+alpha s- and d-wave phase shifts at the two lowest pseudostate
   energies on both regularized meshes (N=15, h=0.23, plateau search in
   [0.3, 1.3] fm^-1 with the fallback-gamma rule for the s wave);
5. two-dimensional m=1 lowest-state errors, mesh vs variational, for the
   harmonic (N=20, h=0.09) and Coulomb (N=10, h=0.9) potentials.

``run_table`` recomputes a table from scratch and returns its rows;
``check_table`` compares the rows against the bundled reference values and
returns one ``CheckResult`` per comparison.  The reference tables were
produced in quadruple precision, so entries below the double-precision
floor are checked against substituted caps (1e-10/1e-12/1e-13) rather than
their quoted digits.
"""

import dataclasses
import math

import numpy as np

from .matelem import HamiltonianVariant, Variant2D, hamiltonian_2d, hamiltonian_3d, scheme_mesh
from .potentials import builtin
from .scattering import eckart_reference_delta0, gamma_scan, tan_delta
from .solver import bound_energies, pseudostates, relative_error, solve_bound_states

__all__ = [
    "CheckResult",
    "TABLE_IDS",
    "VARIANTS_3D",
    "check_table",
    "coulomb_level",
    "coulomb_level_2d",
    "eps_notation",
    "ho_level",
    "ho_level_2d",
    "run_table",
]

TABLE_IDS = (1, 2, 3, 4, 5)

# column label and evaluation scheme; meshes come from matelem.SCHEMES
VARIANTS_3D = (
    ("var", HamiltonianVariant.Var),
    ("reg sqrt(r)", HamiltonianVariant.RegSqrtMesh),
    ("reg r", HamiltonianVariant.RegRMesh),
    ("non reg", HamiltonianVariant.NonReg),
    ("non reg V_G", HamiltonianVariant.NonRegVG),
)

_VARIANTS_2D = (("var", Variant2D.Var2D), ("reg sqrt(rho)", Variant2D.RegSqrtMesh2D))
_MESHES_SCAT = (("reg sqrt(r)", HamiltonianVariant.RegSqrtMesh),
                ("reg r", HamiltonianVariant.RegRMesh))

TABLE3_GAMMA = 4.0
TABLE4_GAMMA_GRID = np.geomspace(0.3, 1.3, 16)

# Reference values (quadruple-precision runs; relative errors).
TABLE1_REFERENCE = {
    0: (1.9e-14, 6.8e-15, 9.4e-14, 1.4e-14, 1.4e-14),
    1: (4.4e-13, 4.6e-13, -9.7e-14, -2.8e-7, 4.4e-13),
    2: (2.7e-12, -1.9e-13, -9.1e-12, 2.5e-12, 2.5e-12),
}
TABLE2_REFERENCE = {
    0: (2.4e-9, 2.4e-9, -7.6e-9, 6.9e-2, 6.9e-2),
    1: (1.7e-20, 1.6e-20, 2.5e-19, -1.0e-3, 1.8e-20),
    2: (8.6e-7, 7.8e-7, 2.3e-6, 8.3e-7, 8.6e-7),
}
# energies, phase shifts (degrees), analytic phase shifts; the energy
# tolerances are one unit of the quoted last place
TABLE3_REFERENCE = {
    "reg sqrt(r)": {
        "E": (0.1982139, 4.95146, 41.7),
        "E_tol": (1e-7, 1e-5, 0.1),
        "delta": (-49.67024, 50.0666, 18.7),
        "analytic": (-49.67021, 50.0668, 18.6),
    },
    "reg r": {
        "E": (0.2145073, 5.38561, 49.6),
        "E_tol": (1e-7, 1e-5, 0.1),
        "delta": (-51.35794, 48.3033, 17.4),
        "analytic": (-51.35790, 48.3036, 17.1),
    },
}
# The s-wave first-pseudostate energies are quoted as 0.0105/0.0107 MeV,
# a dropped zero: the computed values 0.10502/0.10729 MeV carry the same
# digits, every sibling entry matches all of its quoted digits, and a
# 12-fm mesh cannot hold a 0.01-MeV state (its wavelength is ~200 fm) while
# trapping just above the 92-keV resonance forces ~0.105 MeV.  The
# corrected values are used here.
TABLE4_REFERENCE = {
    (0, "reg sqrt(r)"): {
        "E": (0.105, 1.8474), "E_tol": (1e-3, 1e-4),
        "delta": (179.97, 116.67), "exact": (179.96, 116.63),
    },
    (0, "reg r"): {
        "E": (0.107, 1.9797), "E_tol": (1e-3, 1e-4),
        "delta": (179.96, 112.64), "exact": (179.96, 112.65),
    },
    (2, "reg sqrt(r)"): {
        "E": (2.10795, 3.4183), "E_tol": (1e-5, 1e-4),
        "delta": (12.471, 94.460), "exact": (12.470, 94.464),
    },
    (2, "reg r"): {
        "E": (2.19462, 3.5442), "E_tol": (1e-5, 1e-4),
        "delta": (15.123, 99.596), "exact": (15.120, 99.600),
    },
}
TABLE5_REFERENCE = {
    "harmonic": (3.0e-13, 2.1e-13),
    "coulomb": (1.2e-16, 1.0e-16),
}


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Outcome of one reference comparison."""

    description: str
    passed: bool
    value: float

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "value", float(self.value))


def ho_level(l, n=0):
    """Exact oscillator level: 2n + l + 3/2."""
    return 2.0 * n + l + 1.5


def coulomb_level(l, n=0):
    """Exact hydrogenic level: -1/(2 (n + l + 1)^2)."""
    return -0.5 / (n + l + 1.0) ** 2


def ho_level_2d(m, n=0):
    """Exact two-dimensional oscillator level: 2n + m + 1."""
    return 2.0 * n + m + 1.0


def coulomb_level_2d(m, n=0):
    """Exact two-dimensional hydrogenic level: -1/(2 (n + m + 1/2)^2)."""
    return -0.5 / (n + m + 0.5) ** 2


def eps_notation(x):
    """Format a relative error in the compact a[-b] notation, e.g. 6.9[-2]."""
    if x == 0.0:
        return "0"
    b = math.floor(math.log10(abs(x)))
    a = x / 10.0 ** b
    if abs(round(a, 1)) >= 10.0:
        a /= 10.0
        b += 1
    return f"{a:.1f}[{b}]"


def _lowest_errors(schemes, V, N, h, n, exact):
    """Relative error of the lowest level in each labeled scheme, 3D or 2D."""
    row = {}
    for label, variant in schemes:
        build = hamiltonian_2d if isinstance(variant, Variant2D) else hamiltonian_3d
        H, S = build(scheme_mesh(variant, N, h), n, V, variant)
        row[label] = relative_error(bound_energies(H, S)[0], exact)
    return row


def _bound_rows(name, N, h, exact):
    V = builtin(name)
    return [{"l": l, **_lowest_errors(VARIANTS_3D, V, N, h, l, exact(l))} for l in (0, 1, 2)]


def _scattering_states(name, N, h, l):
    V = builtin(name)
    out = {}
    for label, variant in _MESHES_SCAT:
        mesh = scheme_mesh(variant, N, h)
        H, S = hamiltonian_3d(mesh, l, V, variant)
        out[label] = (mesh, pseudostates(solve_bound_states(H, S)))
    return V, out


def _run_table3():
    V, meshes = _scattering_states("eckart", 15, 0.1, 0)
    rows = []
    for label, (mesh, ps) in meshes.items():
        for pos in (0, 4, 9):
            state = ps[pos]
            res = tan_delta(state, 0, V, 0.0, TABLE3_GAMMA, mesh)
            rows.append({
                "mesh": label,
                "state": pos + 1,
                "energy": state.energy,
                "delta": res.delta_deg,
                "analytic": eckart_reference_delta0(state.energy, 2.0, -1.0),
            })
    return rows


def _run_table4():
    rows = []
    for l in (0, 2):
        V, meshes = _scattering_states("buck_alpha_alpha", 15, 0.23, l)
        for label, (mesh, ps) in meshes.items():
            if l == 0:
                # no clear plateau is expected for the lowest s-wave
                # pseudostate; reuse the second pseudostate's plateau gamma
                rec2, _ = gamma_scan(ps[1], l, V, V.tail_Z, mesh,
                                     gammas=TABLE4_GAMMA_GRID, window="positive")
                rec1, _ = gamma_scan(ps[0], l, V, V.tail_Z, mesh,
                                     gammas=TABLE4_GAMMA_GRID,
                                     fallback_gamma=rec2.gamma, window="positive")
                recs = (rec1, rec2)
            else:
                recs = tuple(
                    gamma_scan(ps[k], l, V, V.tail_Z, mesh,
                               gammas=TABLE4_GAMMA_GRID, window="positive")[0]
                    for k in (0, 1)
                )
            exact = TABLE4_REFERENCE[l, label]["exact"]
            for k, rec in enumerate(recs):
                rows.append({
                    "l": l,
                    "mesh": label,
                    "state": k + 1,
                    "energy_MeV": rec.energy,
                    "gamma": rec.gamma,
                    "delta": rec.delta_deg,
                    "sensitivity": rec.sensitivity,
                    "no_plateau": rec.no_plateau,
                    "reference": exact[k],
                })
    return rows


def _run_table5():
    return [{"potential": name, **_lowest_errors(_VARIANTS_2D, builtin(name), N, h, 1, exact)}
            for name, N, h, exact in (("harmonic", 20, 0.09, ho_level_2d(1)),
                                      ("coulomb", 10, 0.9, coulomb_level_2d(1)))]


def run_table(table):
    """Recompute benchmark table ``table`` and return its rows as dicts.

    Rows of tables 1, 2, and 5 hold relative errors per evaluation scheme;
    rows of tables 3 and 4 hold one pseudostate each with its energy and
    phase shift.
    """
    if table == 1:
        return _bound_rows("harmonic", 20, 0.09, ho_level)
    if table == 2:
        return _bound_rows("coulomb", 10, 0.9, coulomb_level)
    if table == 3:
        return _run_table3()
    if table == 4:
        return _run_table4()
    if table == 5:
        return _run_table5()
    raise ValueError(f"table must be one of {TABLE_IDS}, got {table!r}")


def _check_table1(rows):
    checks = []
    for row in rows:
        l = row["l"]
        for label in ("var", "reg sqrt(r)", "reg r", "non reg V_G"):
            checks.append(CheckResult(
                f"table 1 l={l} {label}: |eps_rel| <= 1e-10",
                abs(row[label]) <= 1e-10, row[label]))
        eps = row["non reg"]
        if l == 1:
            checks.append(CheckResult(
                "table 1 l=1 non reg: |eps_rel| within 3x of 2.8e-7",
                2.8e-7 / 3.0 <= abs(eps) <= 2.8e-7 * 3.0, eps))
        else:
            checks.append(CheckResult(
                f"table 1 l={l} non reg: |eps_rel| <= 1e-10",
                abs(eps) <= 1e-10, eps))
    return checks


def _check_table2(rows):
    by_l = {row["l"]: row for row in rows}
    checks = [
        CheckResult("table 2 l=0 non reg: eps_rel = 6.9e-2 to two figures",
                    abs(by_l[0]["non reg"] - 6.9e-2) <= 5e-4,
                    by_l[0]["non reg"]),
        CheckResult("table 2 l=0 non reg V_G: eps_rel = 6.9e-2 to two figures",
                    abs(by_l[0]["non reg V_G"] - 6.9e-2) <= 5e-4,
                    by_l[0]["non reg V_G"]),
        CheckResult("table 2 l=1 non reg: eps_rel = -1.0e-3 to two figures",
                    abs(by_l[1]["non reg"] - (-1.0e-3)) <= 5e-5,
                    by_l[1]["non reg"]),
    ]
    for label, ref in zip([v[0] for v in VARIANTS_3D], TABLE2_REFERENCE[2]):
        eps = by_l[2][label]
        checks.append(CheckResult(
            f"table 2 l=2 {label}: |eps_rel| within 2x of {ref:.1e}",
            ref / 2.0 <= abs(eps) <= ref * 2.0, eps))
    for label, ref in (("var", 2.4e-9), ("reg sqrt(r)", 2.4e-9), ("reg r", 7.6e-9)):
        eps = by_l[0][label]
        checks.append(CheckResult(
            f"table 2 l=0 {label}: |eps_rel| within 2x of {ref:.1e}",
            ref / 2.0 <= abs(eps) <= ref * 2.0, eps))
    for label in ("var", "reg sqrt(r)", "reg r", "non reg V_G"):
        eps = by_l[1][label]
        checks.append(CheckResult(
            f"table 2 l=1 {label}: |eps_rel| <= 1e-13 (double floor)",
            abs(eps) <= 1e-13, eps))
    return checks


def _check_table3(rows):
    checks = []
    for row in rows:
        ref = TABLE3_REFERENCE[row["mesh"]]
        pos = {1: 0, 5: 1, 10: 2}[row["state"]]
        tag = f"table 3 {row['mesh']} E{row['state']}"
        if pos < 2:
            checks.append(CheckResult(
                f"{tag}: energy matches quoted digits",
                abs(row["energy"] - ref["E"][pos]) <= ref["E_tol"][pos],
                row["energy"]))
            checks.append(CheckResult(
                f"{tag}: |delta - analytic| <= 1e-3 deg",
                abs(row["delta"] - row["analytic"]) <= 1e-3, row["delta"]))
        else:
            # At the tenth pseudostate the r-regularized mesh sits ~0.28 deg
            # from the analytic curve for every gamma (the quoted 17.4 vs
            # 17.1 shows the same 0.3), so the analytic bound is applied to
            # the sqrt(r) mesh and both meshes are held to their quoted
            # values instead.
            if row["mesh"] == "reg sqrt(r)":
                checks.append(CheckResult(
                    f"{tag}: |delta - analytic| <= 0.2 deg",
                    abs(row["delta"] - row["analytic"]) <= 0.2, row["delta"]))
            checks.append(CheckResult(
                f"{tag}: |delta - quoted| <= 0.2 deg",
                abs(row["delta"] - ref["delta"][pos]) <= 0.2, row["delta"]))
    return checks


def _check_table4(rows):
    checks = []
    for row in rows:
        l, mesh, k = row["l"], row["mesh"], row["state"] - 1
        ref = TABLE4_REFERENCE[l, mesh]
        tag = f"table 4 l={l} {mesh} E{k + 1}"
        checks.append(CheckResult(
            f"{tag}: energy within 1 ulp of quoted {ref['E'][k]} MeV",
            abs(row["energy_MeV"] - ref["E"][k]) <= ref["E_tol"][k],
            row["energy_MeV"]))
        tol = 0.02 if l == 2 else 0.05
        checks.append(CheckResult(
            f"{tag}: |delta - quoted| <= {tol} deg",
            abs(row["delta"] - ref["delta"][k]) <= tol, row["delta"]))
        if l == 2:
            checks.append(CheckResult(
                f"{tag}: plateau gamma inside [0.3, 1.3]",
                0.3 < row["gamma"] < 1.3 and not row["no_plateau"],
                row["gamma"]))
    return checks


def _check_table5(rows):
    checks = []
    caps = {"harmonic": 1e-10, "coulomb": 1e-12}
    for row in rows:
        cap = caps[row["potential"]]
        for label in ("var", "reg sqrt(rho)"):
            checks.append(CheckResult(
                f"table 5 {row['potential']} {label}: |eps_rel| <= {cap:g}",
                abs(row[label]) <= cap, row[label]))
    return checks


def check_table(table, rows=None):
    """Compare table ``table`` against its bundled reference values.

    Returns a list of CheckResult; recomputes the rows when not supplied.
    """
    if rows is None:
        rows = run_table(table)
    checker = {1: _check_table1, 2: _check_table2, 3: _check_table3,
               4: _check_table4, 5: _check_table5}
    if table not in checker:
        raise ValueError(f"table must be one of {TABLE_IDS}, got {table!r}")
    return checker[table](rows)
