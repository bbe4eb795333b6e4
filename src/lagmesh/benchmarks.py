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
returns one ``CheckResult`` per comparison.

Tables 1, 2 and 5 are held to their quoted errors by one rule, cell by
cell.  The reference runs were made in quadruple precision, so each row
has a double-precision floor: 1e-10 in table 1, 1e-13 in table 2, and
1e-10 (harmonic) or 1e-12 (Coulomb) in table 5.  A quoted error at or
below its floor is checked as ``|eps_rel| <= floor``.  Any other quoted
error must be reproduced to both of its figures, sign included:
``|eps_rel - quoted|`` is at most half a unit of the second figure.
"""

import dataclasses
import math

import numpy as np

from .matelem import HamiltonianVariant, Variant2D, hamiltonian_2d, hamiltonian_3d, scheme_mesh
from .potentials import builtin, exact_level
from .scattering import eckart_reference_delta0, gamma_scan, tan_delta
from .solver import bound_energies, pseudostates, relative_error, solve_bound_states

__all__ = [
    "CheckResult",
    "TABLE_IDS",
    "VARIANTS_3D",
    "check_table",
    "eps_notation",
    "run_table",
]

# column label and evaluation scheme; meshes come from matelem.SCHEMES
VARIANTS_3D = (
    ("var", HamiltonianVariant.Var),
    ("reg sqrt(r)", HamiltonianVariant.RegSqrtMesh),
    ("reg r", HamiltonianVariant.RegRMesh),
    ("non reg", HamiltonianVariant.NonReg),
    ("non reg V_G", HamiltonianVariant.NonRegVG),
)

_VARIANTS_2D = (("var", Variant2D.Var2D), ("reg sqrt(rho)", Variant2D.RegSqrtMesh2D))
_MESHES_SCAT = VARIANTS_3D[1:3]  # the two regularized meshes

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
# the rule's tables (module docstring): row field, quoted errors,
# double-precision floor per row, columns
_ERROR_TABLES = {
    1: ("l", TABLE1_REFERENCE, dict.fromkeys(TABLE1_REFERENCE, 1e-10), VARIANTS_3D),
    2: ("l", TABLE2_REFERENCE, dict.fromkeys(TABLE2_REFERENCE, 1e-13), VARIANTS_3D),
    5: ("potential", TABLE5_REFERENCE, {"harmonic": 1e-10, "coulomb": 1e-12}, _VARIANTS_2D),
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


def _lowest_errors(schemes, V, N, h, n):
    """Relative error of the lowest level in each labeled scheme, 3D or 2D."""
    row = {}
    for label, variant in schemes:
        dim = 2 if isinstance(variant, Variant2D) else 3
        build = hamiltonian_2d if dim == 2 else hamiltonian_3d
        H, S = build(scheme_mesh(variant, N, h), n, V, variant)
        row[label] = relative_error(bound_energies(H, S)[0], exact_level(V, n, dimension=dim))
    return row


def _bound_rows(name, N, h):
    V = builtin(name)
    return [{"l": l, **_lowest_errors(VARIANTS_3D, V, N, h, l)} for l in (0, 1, 2)]


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
    return [{"potential": name, **_lowest_errors(_VARIANTS_2D, builtin(name), N, h, 1)}
            for name, N, h in (("harmonic", 20, 0.09), ("coulomb", 10, 0.9))]


def _check_errors(table, rows):
    """The rule of the module docstring over the rows of table 1, 2 or 5."""
    field, reference, floors, schemes = _ERROR_TABLES[table]
    checks = []
    for row in rows:
        key = row[field]
        tag = f"table {table} l={key}" if field == "l" else f"table {table} {key}"
        floor = floors[key]
        for (label, _), ref in zip(schemes, reference[key]):
            eps = row[label]
            if abs(ref) <= floor:
                checks.append(CheckResult(
                    f"{tag} {label}: |eps_rel| <= {floor:g}", abs(eps) <= floor, eps))
            else:
                half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 1)
                checks.append(CheckResult(
                    f"{tag} {label}: eps_rel = {eps_notation(ref)} to two figures",
                    abs(eps - ref) <= half_unit, eps))
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


# table id -> (run, check)
_TABLES = {
    1: (lambda: _bound_rows("harmonic", 20, 0.09), lambda rows: _check_errors(1, rows)),
    2: (lambda: _bound_rows("coulomb", 10, 0.9), lambda rows: _check_errors(2, rows)),
    3: (_run_table3, _check_table3),
    4: (_run_table4, _check_table4),
    5: (_run_table5, lambda rows: _check_errors(5, rows)),
}
TABLE_IDS = tuple(_TABLES)


def _table(table):
    if table not in _TABLES:
        raise ValueError(f"table must be one of {TABLE_IDS}, got {table!r}")
    return _TABLES[table]


def run_table(table):
    """Recompute benchmark table ``table`` and return its rows as dicts.

    Rows of tables 1, 2, and 5 hold relative errors per evaluation scheme;
    rows of tables 3 and 4 hold one pseudostate each with its energy and
    phase shift.
    """
    return _table(table)[0]()


def check_table(table, rows=None):
    """Compare table ``table`` against its bundled reference values.

    Returns a list of CheckResult; recomputes the rows when not supplied.
    """
    run, check = _table(table)
    return check(run() if rows is None else rows)
