"""
Five evaluation schemes side by side
====================================

Reproduce the bound-state error tables for the oscillator and the
Coulomb problem: variational elements, the two regularized meshes, the
plain mesh, and the plain mesh with Gauss-quadrature potential elements.
The plain (non-regularized) scheme loses accuracy exactly where the
singularity classifier predicts it: ``classify_singularity`` names the
Gauss-approximated terms of each scheme that lose accuracy.
"""

from lagmesh import builtin, classify_singularity, scheme_mesh
from lagmesh.benchmarks import eps_notation, run_table

COLUMNS = ("var", "reg sqrt(r)", "reg r", "non reg", "non reg V_G")
VARIANTS = ("Var", "RegSqrtMesh", "RegRMesh", "NonReg", "NonRegVG")

for table, title, potential, N, h in ((1, "oscillator", "harmonic", 20, 0.09),
                                      (2, "Coulomb", "coulomb", 10, 0.9)):
    print(f"\nrelative energy errors, {title}, N = {N}, h = {h}")
    print(f"{'l':>2} " + " ".join(f"{c:>12}" for c in COLUMNS))
    for row in run_table(table):
        cells = " ".join(f"{eps_notation(row[c]):>12}" for c in COLUMNS)
        print(f"{row['l']:>2} {cells}")

    # the bad cells are announced in advance by counting powers of r near
    # the origin: a matrix element whose integrand falls below r^0 cannot
    # be integrated exactly by the underlying Gauss-Laguerre rule
    print("terms the classifier predicts to lose accuracy")
    for l in (0, 1, 2):
        verdicts = (classify_singularity(scheme_mesh(s, N, h), l, builtin(potential), s)
                    for s in VARIANTS)
        print(f"{l:>2} " + " ".join(f"{'+'.join(v) or '-':>12}" for v in verdicts))
