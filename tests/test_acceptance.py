"""Acceptance suite: nine criteria, one test and one pass/fail line each.

Every criterion is checked at its stated tolerance; double precision
replaces reference values that sit below the double floor (~1e-13).
Criteria 3-7 delegate their comparisons to ``lagmesh.benchmarks`` so that
the test suite and ``lagmesh reproduce --check`` enforce the same list.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from lagmesh.basis import Family, MeshSpec
from lagmesh.benchmarks import check_table, run_table
from lagmesh.matelem import (
    HamiltonianVariant,
    Mode,
    classify_singularity,
    hamiltonian_3d,
    operator_matrix,
    scheme_mesh,
)
from lagmesh.benchmarks import TABLE1_REFERENCE, TABLE2_REFERENCE
from lagmesh.potentials import builtin
from lagmesh.quadrature import generate_rule
from lagmesh.scattering import tan_delta
from lagmesh.solver import pseudostates, relative_error, solve_bound_states
from lagmesh.specfun import coulomb_wave

from reference import exact_mpmath, oracle_matrix
from test_matelem import _exact_overlap


def _report(number, title, ok, detail):
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_quadrature_moment_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        for N in range(1, 51):
            nodes, weights = generate_rule(N, alpha)
            # moment m of the weight, scaled by its Gamma value on the fly
            terms = (weights * nodes**alpha * np.exp(-nodes)
                     / math.gamma(alpha + 1.0))
            worst = max(worst, abs(terms.sum() - 1.0))
            for m in range(1, 2 * N):
                terms = terms * (nodes / (m + alpha))
                worst = max(worst, abs(terms.sum() - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-13 and elapsed < 1.0
    _report(1, "quadrature moments", ok,
            f"max relative error {worst:.2e} for N<=50, {elapsed:.2f} s")


def test_criterion_2_closed_forms_match_oracle():
    t0 = time.perf_counter()
    worst = 0.0

    def compare(closed, mesh, tag):
        nonlocal worst
        # the oracle's second derivatives are divided differences, where a
        # node's rounding enters as a pole: from N = 30 the kinetic cells
        # are held against a 120-digit reference, as tier 1's full grid does
        if mesh.N >= 30 and tag in ("Kinetic", "Kinetic2D"):
            oracle = exact_mpmath(mesh, tag, dps=120)
        else:
            oracle = oracle_matrix(mesh, tag)
        err = np.abs(closed - oracle).max() / np.abs(oracle).max()
        worst = max(worst, err)

    powers = (("1/r^2", "InvR2"), ("1/r", "InvR"), ("r", "R"), ("r^2", "R2"))
    for alpha in (1.0, 2.0):
        for N in (2, 5, 12, 30):
            mesh = MeshSpec(N, alpha, Family.RegSqrt, 1.0)
            for op, tag in powers:
                compare(operator_matrix(mesh, op, Mode.Exact), mesh, tag)
            compare(operator_matrix(mesh, "kinetic", Mode.Exact), mesh, "Kinetic")
    for N in (2, 5, 12, 30):
        mesh = MeshSpec(N, 0.0, Family.RegSqrt, 1.0)
        compare(operator_matrix(mesh, "kinetic2d", Mode.Exact), mesh, "Kinetic2D")
    # the Gauss matrix plus its low-rank correction on the plain family, at
    # the alpha of its schemes: the two Exact cells they read
    for N in (2, 5, 12, 30, 40):
        mesh = MeshSpec(N, 2.0, Family.NonReg, 1.0)
        compare(operator_matrix(mesh, "1/r^2", Mode.Exact), mesh, "InvR2")
        compare(operator_matrix(mesh, "kinetic", Mode.Exact), mesh, "Kinetic")
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 5.0
    _report(2, "closed forms vs oracle", ok,
            f"max relative deviation {worst:.2e} for N<=40, {elapsed:.2f} s")


def _run_checks(number, title, table, budget=None):
    t0 = time.perf_counter()
    checks = check_table(table, run_table(table))
    elapsed = time.perf_counter() - t0
    failed = [c for c in checks if not c["passed"]]
    ok = not failed and (budget is None or elapsed < budget)
    detail = f"{len(checks) - len(failed)}/{len(checks)} comparisons, {elapsed:.2f} s"
    if failed:
        detail += "; failed: " + "; ".join(
            f"{c['description']} (got {c['value']:+.6g})" for c in failed)
    _report(number, title, ok, detail)


def test_criterion_3_oscillator_spectrum_table():
    _run_checks(3, "oscillator bound states", 1)


def test_criterion_4_coulomb_spectrum_table():
    _run_checks(4, "Coulomb bound states", 2, budget=1.0)


def test_criterion_5_eckart_phase_shifts():
    _run_checks(5, "Eckart phase shifts", 3, budget=1.0)


def test_criterion_6_alpha_alpha_phase_shifts():
    _run_checks(6, "alpha+alpha phase shifts", 4, budget=2.0)


def test_criterion_7_two_dimensional_table():
    _run_checks(7, "two-dimensional bound states", 5, budget=1.0)


def test_criterion_8_property_suite():
    problems = []

    # the basis the builders return is orthonormal, by its exact Gram matrix,
    # on the sqrt(r)-regularized and the plain family
    for variant in (HamiltonianVariant.RegSqrtMesh, HamiltonianVariant.NonReg):
        _, basis = hamiltonian_3d(scheme_mesh(variant, 12, 0.7), 0, builtin("harmonic"), variant)
        if np.abs(_exact_overlap(basis) - np.eye(12)).max() > 1e-13:
            problems.append(f"basis not orthonormal for {variant.name}")

    # Hamiltonians are symmetric in every evaluation scheme
    V = builtin("eckart")
    for variant in (HamiltonianVariant.Var, HamiltonianVariant.RegSqrtMesh,
                    HamiltonianVariant.RegRMesh, HamiltonianVariant.NonReg):
        # the variational scheme needs exact potential elements
        V_used = builtin("coulomb") if variant is HamiltonianVariant.Var else V
        H, _ = hamiltonian_3d(scheme_mesh(variant, 14, 0.1), 1, V_used, variant)
        asym = np.abs(H - H.T).max()
        if asym > 1e-12 * np.abs(H).max():
            problems.append(f"H asymmetric for {variant.name}: {asym:.2e}")

    # on the sqrt(r)-regularized mesh with alpha=1 the Gauss quadrature
    # reproduces the exact kinetic matrix
    mesh = MeshSpec(16, 1.0, Family.RegSqrt, 1.0)
    K_exact = operator_matrix(mesh, "kinetic", Mode.Exact)
    K_gauss = operator_matrix(mesh, "kinetic", Mode.Gauss)
    if np.abs(K_exact - K_gauss).max() > 1e-12 * np.abs(K_exact).max():
        problems.append("RegSqrt alpha=1 kinetic Exact != Gauss")

    # tan(delta) is invariant under rescaling of the eigenvector
    mesh = MeshSpec(15, 1.0, Family.RegSqrt, 0.1)
    H, basis = hamiltonian_3d(mesh, 0, V, HamiltonianVariant.RegSqrtMesh)
    state = pseudostates(solve_bound_states(H, basis))[0]
    base = tan_delta(state, 0, V, 4.0, mesh).tan_delta
    for scale in (7.5, -2.0, 1e-6, -4e5):
        scaled = dataclasses.replace(
            state, coefficients=state.coefficients * scale)
        moved = tan_delta(scaled, 0, V, 4.0, mesh).tan_delta
        if abs(moved - base) > 1e-13 * abs(base):
            problems.append(f"tan(delta) moved under rescale by {scale:g}")

    # Coulomb-function Wronskian F'G - FG' = 1
    x = np.linspace(0.2, 20.0, 40)
    for eta in (0.0, 2.0, 8.0):
        for l in (0, 2):
            F, Fp, G, Gp = coulomb_wave(l, eta, x)
            wron = Fp * G - F * Gp
            err = np.abs(wron - 1.0).max()
            if err > 1e-10:
                problems.append(f"Wronskian off by {err:.2e} (l={l}, eta={eta})")

    # variational energies sit above the exact ones
    for name, exact, N, h in (("harmonic", lambda l: l + 1.5, 20, 0.09),
                              ("coulomb", lambda l: -0.5 / (l + 1) ** 2, 10, 0.9)):
        for l in (0, 1, 2):
            mesh = MeshSpec(N, 1.0, Family.RegSqrt, h)
            H, basis = hamiltonian_3d(mesh, l, builtin(name), HamiltonianVariant.Var)
            eps = relative_error(solve_bound_states(H, basis).energies[0], exact(l))
            if eps < -1e-12:
                problems.append(f"variational bound violated: {name} l={l}")

    # variational eigenvalues interlace when the basis grows by one
    prev = None
    for N in (12, 13):
        mesh = MeshSpec(N, 1.0, Family.RegSqrt, 0.9)
        H, basis = hamiltonian_3d(mesh, 0, builtin("coulomb"), HamiltonianVariant.Var)
        energies = solve_bound_states(H, basis).energies
        if prev is not None:
            lower = np.all(energies[: len(prev)] <= prev + 1e-10)
            upper = np.all(prev <= energies[1:] + 1e-10)
            if not (lower and upper):
                problems.append("eigenvalues do not interlace for N -> N+1")
        prev = energies

    ok = not problems
    _report(8, "property suite", ok,
            "7 properties hold" if ok else "; ".join(problems))


def test_criterion_9_singularity_classifier():
    mismatches = []
    cells = 0

    # observed pattern of the bound-state tables: a non-regularized
    # column far above the variational one marks an accuracy loss; the
    # V_G column isolates the potential operator, the plain column with
    # a clean V_G entry the centrifugal one
    def lossy(row, col):
        return abs(float(row[col])) > 100.0 * max(abs(float(row[0])), 1e-14)

    def verdict(variant, l, V, N, h):
        return classify_singularity(scheme_mesh(variant, N, h), l, V, variant)

    for table, V, N, h in ((TABLE1_REFERENCE, builtin("harmonic"), 20, 0.09),
                           (TABLE2_REFERENCE, builtin("coulomb"), 10, 0.9)):
        for l in (0, 1, 2):
            observed_pot = lossy(table[l], 4)
            predicted = "potential" in verdict(HamiltonianVariant.NonRegVG, l, V, N, h)
            cells += 1
            if predicted != observed_pot:
                mismatches.append(f"potential op l={l} {V.label}")
        for l in (1, 2):
            observed_cent = lossy(table[l], 3) and not lossy(table[l], 4)
            predicted = "centrifugal" in verdict(HamiltonianVariant.NonReg, l, V, N, h)
            cells += 1
            if predicted != observed_cent:
                mismatches.append(f"centrifugal op l={l} {V.label}")
    safe_2d = verdict(HamiltonianVariant.RegSqrtMesh2D, 1, builtin("harmonic"), 20, 0.09) == ()
    ok = not mismatches and safe_2d
    detail = f"{cells}/10 cells match" + (", 2D m=1 Safe" if safe_2d
                                          else ", 2D m=1 misclassified")
    if mismatches:
        detail += "; mismatched: " + ", ".join(mismatches)
    _report(9, "singularity classifier", ok, detail)
