"""Bundled benchmark tables: reference data plus the runs that rebuild them.

Five tables are available by id:

1. harmonic-oscillator lowest-state errors, five evaluation schemes
   (N=20, h=0.09), partial waves s, p, d;
2. Coulomb lowest-state errors, same five schemes (N=10, h=0.9);
3. Eckart s-wave phase shifts at the first, fifth, and tenth pseudostate
   energies on both regularized meshes (N=15, h=0.1, gamma=4);
4. alpha+alpha s- and d-wave phase shifts at the two lowest pseudostate
   energies on both regularized meshes (N=15, h=0.23, plateau search in
   [0.3, 1.3] fm^-1; the lowest s-wave state borrows the second state's
   plateau gamma when its own scan finds none);
5. two-dimensional m=1 lowest-state errors, mesh vs variational, for the
   harmonic (N=20, h=0.09) and Coulomb (N=10, h=0.9) potentials.

``run_table`` recomputes a table from scratch and returns its rows;
``check_table`` compares the rows against the bundled reference values and
returns one dict ``{"description", "passed", "value"}`` per comparison.

Every table is held to its quoted numbers by one rule, cell by cell.  A
quoted number is kept as the string the paper prints, so its last printed
digit sets the unit of the check.  The error tables were computed in
quadruple precision, so each of their rows has a double-precision floor:
1e-10 in table 1, 1e-13 in table 2, and 1e-10 (harmonic) or 1e-12
(Coulomb) in table 5.  A quoted error at or below its floor is checked as
``|eps_rel| <= floor``.  Any other quoted number q is checked as
``|value - q| <= f * unit(q)``, with unit(q) one unit in the last printed
place of q, f = 1/2 in tables 1, 2, 3 and 5 and f = 1 in table 4.  Table 4
also checks that each d-wave plateau gamma lies inside its grid.
"""

import dataclasses
import math

import numpy as np

from .matelem import SCHEMES, HamiltonianVariant, hamiltonian_2d, hamiltonian_3d, scheme_mesh
from .potentials import builtin, exact_level
from .scattering import _fold_180, eckart_reference_delta0, gamma_scan, tan_delta
from .solver import bound_energies, pseudostates, relative_error, solve_bound_states

__all__ = [
    "TABLE_IDS",
    "check_table",
    "eps_notation",
    "run_table",
]

# column label and evaluation scheme; meshes and dimensions come from matelem.SCHEMES
_VARIANTS_3D = (
    ("var", HamiltonianVariant.Var),
    ("reg sqrt(r)", HamiltonianVariant.RegSqrtMesh),
    ("reg r", HamiltonianVariant.RegRMesh),
    ("non reg", HamiltonianVariant.NonReg),
    ("non reg V_G", HamiltonianVariant.NonRegVG),
)

_VARIANTS_2D = (("var", HamiltonianVariant.Var2D),
                ("reg sqrt(rho)", HamiltonianVariant.RegSqrtMesh2D))
_MESHES_SCAT = _VARIANTS_3D[1:3]  # the two regularized meshes

TABLE3_GAMMA = 4.0
_TABLE3_STATES = (1, 5, 10)  # the pseudostates of table 3, counted from 1
TABLE4_GAMMA_GRID = np.geomspace(0.3, 1.3, 16)
_TABLE4_STEP = (TABLE4_GAMMA_GRID[-1] / TABLE4_GAMMA_GRID[0]) ** (1.0 / 15)  # grid ratio

# Reference values (quadruple-precision runs), each the string the paper
# prints: its last digit sets the check's unit.  Tables 1, 2 and 5 hold
# relative errors.
TABLE1_REFERENCE = {
    0: ("1.9e-14", "6.8e-15", "9.4e-14", "1.4e-14", "1.4e-14"),
    1: ("4.4e-13", "4.6e-13", "-9.7e-14", "-2.8e-7", "4.4e-13"),
    2: ("2.7e-12", "-1.9e-13", "-9.1e-12", "2.5e-12", "2.5e-12"),
}
TABLE2_REFERENCE = {
    0: ("2.4e-9", "2.4e-9", "-7.6e-9", "6.9e-2", "6.9e-2"),
    1: ("1.7e-20", "1.6e-20", "2.5e-19", "-1.0e-3", "1.8e-20"),
    2: ("8.6e-7", "7.8e-7", "2.3e-6", "8.3e-7", "8.6e-7"),
}
# energies, phase shifts (degrees) and analytic phase shifts at the
# pseudostates of _TABLE3_STATES
TABLE3_REFERENCE = {
    "reg sqrt(r)": {
        "energy": ("0.1982139", "4.95146", "41.7"),
        "delta": ("-49.67024", "50.0666", "18.7"),
        "analytic": ("-49.67021", "50.0668", "18.6"),
    },
    "reg r": {
        "energy": ("0.2145073", "5.38561", "49.6"),
        "delta": ("-51.35794", "48.3033", "17.4"),
        "analytic": ("-51.35790", "48.3036", "17.1"),
    },
}
# energies (MeV), phase shifts and exact phase shifts (degrees) at the two
# lowest pseudostates.  The s-wave first-pseudostate energies are quoted as
# 0.0105/0.0107 MeV, a dropped zero: the computed values 0.10502/0.10729 MeV
# carry the same digits, every sibling entry matches all of its quoted
# digits, and a 12-fm mesh cannot hold a 0.01-MeV state (its wavelength is
# ~200 fm) while trapping just above the 92-keV resonance forces ~0.105 MeV.
# The corrected values are used here.
TABLE4_REFERENCE = {
    (0, "reg sqrt(r)"): {
        "energy_MeV": ("0.105", "1.8474"),
        "delta": ("179.97", "116.67"), "exact": ("179.96", "116.63"),
    },
    (0, "reg r"): {
        "energy_MeV": ("0.107", "1.9797"),
        "delta": ("179.96", "112.64"), "exact": ("179.96", "112.65"),
    },
    (2, "reg sqrt(r)"): {
        "energy_MeV": ("2.10795", "3.4183"),
        "delta": ("12.471", "94.460"), "exact": ("12.470", "94.464"),
    },
    (2, "reg r"): {
        "energy_MeV": ("2.19462", "3.5442"),
        "delta": ("15.123", "99.596"), "exact": ("15.120", "99.600"),
    },
}
TABLE5_REFERENCE = {
    "harmonic": ("3.0e-13", "2.1e-13"),
    "coulomb": ("1.2e-16", "1.0e-16"),
}
# the error tables: row field, quoted errors, double-precision floor per
# row, columns
_ERROR_TABLES = {
    1: ("l", TABLE1_REFERENCE, dict.fromkeys(TABLE1_REFERENCE, 1e-10), _VARIANTS_3D),
    2: ("l", TABLE2_REFERENCE, dict.fromkeys(TABLE2_REFERENCE, 1e-13), _VARIANTS_3D),
    5: ("potential", TABLE5_REFERENCE, {"harmonic": 1e-10, "coulomb": 1e-12}, _VARIANTS_2D),
}


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
        dim = SCHEMES[variant][3]
        build = hamiltonian_2d if dim == 2 else hamiltonian_3d
        energies = bound_energies(*build(scheme_mesh(variant, N, h), n, V, variant))
        row[label] = relative_error(energies[0], exact_level(V, n, dimension=dim))
    return row


def _bound_rows(name, N, h):
    V = builtin(name)
    return [{"l": l, **_lowest_errors(_VARIANTS_3D, V, N, h, l)} for l in (0, 1, 2)]


def _scattering_states(name, N, h, l):
    V = builtin(name)
    out = {}
    for label, variant in _MESHES_SCAT:
        H, basis = hamiltonian_3d(scheme_mesh(variant, N, h), l, V, variant)
        out[label] = (basis, pseudostates(solve_bound_states(H, basis)))
    return V, out


def _run_table3():
    V, meshes = _scattering_states("eckart", 15, 0.1, 0)
    rows = []
    for label, (mesh, ps) in meshes.items():
        for n in _TABLE3_STATES:
            state = ps[n - 1]
            res = tan_delta(state, 0, V, 0.0, TABLE3_GAMMA, mesh)
            rows.append({
                "mesh": label,
                "state": n,
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
            rec1, rec2 = (gamma_scan(state, l, V, V.tail_Z, mesh, gammas=TABLE4_GAMMA_GRID,
                                     window="positive")[0] for state in ps[:2])
            if l == 0 and rec1.no_plateau:
                # as expected for the lowest s-wave pseudostate: its phase at
                # the second one's gamma, the sensitivity one step to each side
                lo, mid, hi = (tan_delta(ps[0], l, V, V.tail_Z, g, mesh, window="positive")
                               for g in (rec2.gamma / _TABLE4_STEP, rec2.gamma,
                                         rec2.gamma * _TABLE4_STEP))
                sens = max(abs(_fold_180(r.delta_deg - mid.delta_deg)) for r in (lo, hi))
                rec1 = dataclasses.replace(mid, sensitivity=sens, no_plateau=True)
            exact = TABLE4_REFERENCE[l, label]["exact"]
            for k, rec in enumerate((rec1, rec2)):
                rows.append({
                    "l": l,
                    "mesh": label,
                    "state": k + 1,
                    "energy_MeV": ps[k].energy * V.energy_unit,
                    "gamma": rec.gamma,
                    "delta": rec.delta_deg,
                    "sensitivity": rec.sensitivity,
                    "no_plateau": rec.no_plateau,
                    "reference": float(exact[k]),
                })
    return rows


def _run_table5():
    return [{"potential": name, **_lowest_errors(_VARIANTS_2D, builtin(name), N, h, 1)}
            for name, N, h in (("harmonic", 20, 0.09), ("coulomb", 10, 0.9))]


def _quoted_cells(table, row):
    """Tag, floor (None in tables 3 and 4) and quoted cells
    ``(description prefix, name, value, string)`` of one row."""
    if table == 3:
        tag = f"table 3 {row['mesh']} E{row['state']}"
        ref, k = TABLE3_REFERENCE[row["mesh"]], _TABLE3_STATES.index(row["state"])
    elif table == 4:
        tag = f"table 4 l={row['l']} {row['mesh']} E{row['state']}"
        ref, k = TABLE4_REFERENCE[row["l"], row["mesh"]], row["state"] - 1
    else:
        field, reference, floors, schemes = _ERROR_TABLES[table]
        key = row[field]
        tag = f"table {table} l={key}" if field == "l" else f"table {table} {key}"
        return tag, floors[key], [(f"{tag} {label}", "eps_rel", row[label], quoted)
                                  for (label, _), quoted in zip(schemes, reference[key])]
    # the exact phases of table 4 are the paper's, not computed here
    return tag, None, [(tag, col, row[col], ref[col][k]) for col in ref if col != "exact"]


def _check_quoted(table, rows):
    """The rule of the module docstring over the rows of any table; table 4
    also checks that each d-wave plateau lies inside its gamma grid."""
    f, within = (1.0, "one unit") if table == 4 else (0.5, "half a unit")
    checks = []

    def check(description, passed, value):
        checks.append({"description": description, "passed": bool(passed),
                       "value": float(value)})

    for row in rows:
        tag, floor, cells = _quoted_cells(table, row)
        for prefix, name, value, quoted in cells:
            q = float(quoted)
            if floor is not None and abs(q) <= floor:
                check(f"{prefix}: |{name}| <= {floor:g}", abs(value) <= floor, value)
                continue
            # one unit in the last printed place: "94.460" -> 1e-3, "1.0e-3" -> 1e-4
            mantissa, _, exponent = quoted.partition("e")
            unit = 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))
            shown = eps_notation(q) if name == "eps_rel" else quoted
            check(f"{prefix}: {name} = {shown} to {within} in the last place",
                  abs(value - q) <= f * unit, value)
        if table == 4 and row["l"] == 2:
            check(f"{tag}: plateau gamma inside [0.3, 1.3]",
                  0.3 < row["gamma"] < 1.3 and not row["no_plateau"], row["gamma"])
    return checks


# table id -> run
_TABLES = {
    1: lambda: _bound_rows("harmonic", 20, 0.09),
    2: lambda: _bound_rows("coulomb", 10, 0.9),
    3: _run_table3,
    4: _run_table4,
    5: _run_table5,
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
    return _table(table)()


def check_table(table, rows):
    """Compare the rows of table ``table`` against its bundled reference
    values; returns one dict ``{"description", "passed", "value"}`` per
    comparison, with ``passed`` a bool and ``value`` a float.
    """
    _table(table)  # raises on an unknown id
    return _check_quoted(table, rows)
