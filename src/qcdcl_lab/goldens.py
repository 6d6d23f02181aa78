"""Scripted reference refutations for the generated families, plus the
hand-written constant-size resolution refutation of the trapdoor formulas.

Each builder returns a replay script whose decisions drive the solver
through a known short refutation under the stated policy pair; the replayer
fills in all propagation. These serve as goldens: the scripts are fixed,
and the runs must reproduce the expected learned clauses and sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import FamilySpec, EQUALITY, LONSING, QPARITY, TRAPDOOR, generate, trapdoor_size
from .formula import Clause, QRES
from .proofs import (
    AXIOM,
    Derivation,
    ProofStep,
    REDUCE,
    RESOLVE,
    check_derivation,
    count_reductions,
    glue_qcdcl_proof,
    validate_qcdcl_proof,
)
from .replay import ReplayScript, ScriptRound, replay
from .trail import ASS_R_ORD, LEV_ORD, NO_RED, RED


def qparity_script(n: int) -> ReplayScript:
    """Zig-zag refutation under prefix-ordered decisions with reduction:
    two trails per index working down from n, flipping the next-lower
    variable in between, then four closing rounds."""
    if n < 2:
        raise ValueError("qparity script needs n >= 2")
    x = lambda i: i
    rounds: list[ScriptRound] = []

    def back_for(j: int):
        # Keep levels 1..j-2 (through the propagation of level j-2);
        # level 1 has no propagation, so the shallow cases stop at (1, 0).
        return (j - 2, 1) if j >= 4 else (1, 0)

    if n >= 3:
        rounds.append(ScriptRound([-x(i) for i in range(1, n + 1)], "asserting", back_for(n)))
        rounds.append(ScriptRound([x(n - 1), -x(n)], "asserting", back_for(n)))
        for j in range(n - 1, 2, -1):
            rounds.append(ScriptRound([-x(j)], "asserting", back_for(j)))
            rounds.append(ScriptRound([x(j - 1), -x(j)], "asserting", back_for(j)))
        rounds.append(ScriptRound([-x(2)], "asserting", (1, 0)))
    else:
        rounds.append(ScriptRound([-x(1), -x(2)], "asserting", (1, 0)))
    rounds.append(ScriptRound([], "asserting", "restart"))
    rounds.append(ScriptRound([-x(2)], "asserting", "restart"))
    rounds.append(ScriptRound([], "asserting", "restart"))
    return ReplayScript(rounds)


def equality_script(n: int) -> ReplayScript:
    """Universal-first refutation: for k = n..1 two restart-separated rounds
    learn a clause pair by deciding x_1..x_k then the matching universal
    block; the final pair derives the first-variable unit and the empty
    clause. At k = n-1 the remaining block-output literal of the long clause
    would propagate first (the lowest clause id wins), so those two rounds pin
    the intended antecedent (the pair clause learned first) explicitly."""
    if n < 2:
        raise ValueError("equality script needs n >= 2")
    x = lambda i: i
    u = lambda i: n + i
    ln_id = 2 * n + 1   # first learned clause (the matrix has 2n+1 clauses)
    rounds: list[ScriptRound] = []
    top = [x(i) for i in range(1, n + 1)] + [u(i) for i in range(1, n)]
    rounds.append(ScriptRound(top, "index:1", "restart"))
    rounds.append(ScriptRound([-l for l in top], "index:1", "restart"))
    for k in range(n - 1, 0, -1):
        if k == 1:
            pos = [x(1), u(1)]
            neg = [-u(1)]   # the first-variable unit propagates by itself
        else:
            pos = [x(i) for i in range(1, k + 1)] + [u(i) for i in range(1, k + 1)]
            neg = [-l for l in pos]
        forced = [(-x(n), ln_id)] if k == n - 1 else []
        rounds.append(ScriptRound(pos, "index:2", "restart", forced=list(forced)))
        last = k == 1
        rounds.append(
            ScriptRound(neg, "index:3" if last else "index:2", "restart", forced=list(forced))
        )
    return ReplayScript(rounds)


def trapdoor_script(n: int) -> ReplayScript:
    """Two trails without reduction: decide the first-block variables
    positively, then the middle universal negatively; learn the first-block
    unit, restart, repeat with flipped signs and learn the empty clause.
    Needs n >= 2 (below that the embedded pigeonhole clauses are units and
    conflict at level zero)."""
    if n < 2:
        raise ValueError("trapdoor script needs n >= 2")
    s = trapdoor_size(n)
    w = s + 1
    first = [i for i in range(1, s + 1)] + [-w]
    second = [-i for i in range(2, s + 1)] + [-w]
    return ReplayScript([
        ScriptRound(first, "asserting", "restart"),
        ScriptRound(second, "asserting", "restart"),
    ])


def lonsing_script(n: int) -> ReplayScript:
    """Single-trail refutation under universal-first decisions with
    reduction: one universal decision, two forced steps, empty clause."""
    s = trapdoor_size(n)
    xv = s + 3
    return ReplayScript([ScriptRound([-xv], "asserting", "restart")])


def fig_trapdoor_refutation(n: int) -> Derivation:
    """The constant-size plain resolution refutation of the trapdoor
    formula through its middle block: resolve the four w-t clauses of the
    first index into the two first-variable units, reduce, and resolve."""
    qcnf = generate(FamilySpec(TRAPDOOR, n))
    s = trapdoor_size(n)
    w = s + 1
    t = s + 2
    y1 = 1
    base = qcnf.matrix_size - 4 * s   # first clause of the w-t block
    mk = lambda lits: Clause(tuple(lits))
    steps = [
        ProofStep(0, AXIOM, qcnf.clauses[base + 0], source=base + 0),      # y1 w t
        ProofStep(1, AXIOM, qcnf.clauses[base + 1], source=base + 1),      # y1 w -t
        ProofStep(2, RESOLVE, mk([y1, w]), pivot=t, left=0, right=1),
        ProofStep(3, REDUCE, mk([y1]), src=2),
        ProofStep(4, AXIOM, qcnf.clauses[base + 2], source=base + 2),      # -y1 w t
        ProofStep(5, AXIOM, qcnf.clauses[base + 3], source=base + 3),      # -y1 w -t
        ProofStep(6, RESOLVE, mk([-y1, w]), pivot=t, left=4, right=5),
        ProofStep(7, REDUCE, mk([-y1]), src=6),
        ProofStep(8, RESOLVE, Clause(), pivot=y1, left=3, right=7),
    ]
    return Derivation(steps, QRES, 8)


@dataclass
class GoldenResult:
    name: str
    ok: bool
    detail: str
    iota_size: int = 0
    pi_size: int = 0


def _run_scripted(name, qcnf, script, decision_policy, propagation_policy,
                  expect_learned=None) -> GoldenResult:
    try:
        proof = replay(qcnf, script, decision_policy, propagation_policy)
    except Exception as exc:
        return GoldenResult(name, False, f"replay failed: {exc}")
    problems = validate_qcdcl_proof(qcnf, proof)
    if problems:
        return GoldenResult(name, False, f"round validation: {problems[:3]}")
    if not proof.is_refutation():
        return GoldenResult(name, False, "did not conclude the empty clause")
    glued = glue_qcdcl_proof(qcnf, proof)
    verdict = check_derivation(qcnf, glued, require_refutation=True)
    if not verdict:
        return GoldenResult(name, False, f"glued derivation invalid: {verdict.failures[:3]}")
    if expect_learned is not None:
        got = proof.learned_clauses()
        missing = [c for c in expect_learned if c not in got]
        if missing:
            return GoldenResult(name, False, f"expected learned clauses missing: {missing}")
    return GoldenResult(name, True, "ok", proof.size, len(glued.steps))


def run_goldens(qparity_n=6, equality_n=5, trapdoor_n=2, lonsing_n=2) -> list[GoldenResult]:
    results = []

    q = generate(FamilySpec(QPARITY, qparity_n))
    n = qparity_n
    expect = [
        Clause((n, n + 1, 2 * n - 1)),        # x_n, z, t_{n-1}
        Clause((n, -(n + 1), -(2 * n - 1))),  # x_n, -z, -t_{n-1}
    ]
    results.append(
        _run_scripted(f"qparity_{n}", q, qparity_script(n), LEV_ORD, RED, expect)
    )

    e = generate(FamilySpec(EQUALITY, equality_n))
    results.append(
        _run_scripted(f"equality_{equality_n}", e, equality_script(equality_n), ASS_R_ORD, RED)
    )

    t = generate(FamilySpec(TRAPDOOR, trapdoor_n))
    results.append(
        _run_scripted(
            f"trapdoor_{trapdoor_n}", t, trapdoor_script(trapdoor_n), LEV_ORD, NO_RED,
            expect_learned=[Clause((-1,)), Clause()],
        )
    )

    lo = generate(FamilySpec(LONSING, lonsing_n))
    results.append(
        _run_scripted(f"lonsing_{lonsing_n}", lo, lonsing_script(lonsing_n), ASS_R_ORD, RED)
    )

    fig = fig_trapdoor_refutation(trapdoor_n)
    tq = generate(FamilySpec(TRAPDOOR, trapdoor_n))
    verdict = check_derivation(tq, fig, require_refutation=True)
    ok = bool(verdict) and count_reductions(fig) == 2 and len(fig.steps) == 9
    results.append(
        GoldenResult(
            f"trapdoor_{trapdoor_n}_resolution_figure",
            ok,
            "ok" if ok else f"verdict={verdict.failures[:3]} reductions={count_reductions(fig)}",
            pi_size=len(fig.steps),
        )
    )
    return results
