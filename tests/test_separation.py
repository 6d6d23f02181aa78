"""The paper's QParity separation, as the lab's own runs measure it.

QParity has only exponential-size plain Q-resolution refutations
(Beyersdorff, Chew and Janota, STACS 2015), and every ``any-ord/no-red``
refutation glues to one. Under ``lev-ord/red`` the glued refutations are
long-distance Q-resolution and may stay small. Only the proof checks are
asserted; conflicts and glued sizes are reported, since their exact
values depend on the decision heuristic.
"""

from __future__ import annotations

from qcdcl_lab import FamilySpec, check_derivation, generate, glue_qcdcl_proof
from qcdcl_lab.formula import LDQRES, QRES
from qcdcl_lab.solver import SolverConfig, solve
from qcdcl_lab.trail import ANY_ORD, LEV_ORD, NO_RED, RED

SYSTEMS = ((ANY_ORD, NO_RED, QRES), (LEV_ORD, RED, LDQRES))


def test_qparity_separation_report():
    """QParity n = 4, 6, 8, 10: refuted under both systems, and each glued
    proof checks in its system's resolution mode."""
    rows = {}
    for n in range(4, 11, 2):
        f = generate(FamilySpec("qparity", n))
        for d, r, mode in SYSTEMS:
            result = solve(f.copy(), SolverConfig(d, r, max_conflicts=100_000))
            assert result.refuted, (n, d, r, result.status)
            glued = glue_qcdcl_proof(f, result.proof)
            assert check_derivation(f, glued, mode=mode, require_refutation=True), (n, d, r)
            rows.setdefault(f"{d}/{r}", []).append(
                f"{result.stats['conflicts']}/{len(glued.steps)}"
            )
    detail = "; ".join(f"{system} {' '.join(cells)}" for system, cells in rows.items())
    print(f"ACCEPTANCE qparity-separation: pass (n=4,6,8,10 conflicts/glued size: {detail})")
