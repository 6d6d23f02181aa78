"""Acceptance suite: one test per criterion, each printing a pass line.

Pinned constants (measured on this suite's corpora, with headroom):
  K1 = 6   scripted zig-zag refutation size / n^2        (measured 4.0)
  K2 = 8   scripted universal-first refutation size / n^2 (measured 5.5)
  K3 = 0.25 simulation size / (n^3 * input proof size)    (measured 0.06)
  K4 = 0.5  unreliability-loop rounds / n^2               (measured 0.12)
"""

from __future__ import annotations

import random

from qcdcl_lab import (
    FamilySpec,
    Trail,
    check_derivation,
    count_reductions,
    decide,
    generate,
    glue_qcdcl_proof,
    learnable_sequence,
    parse_qdimacs,
    propagate_to_fixpoint,
    replay,
    serialize_proof,
    validate_qcdcl_proof,
    xt_check,
)
from qcdcl_lab.families import random_qcnf
from qcdcl_lab.formula import Clause, LDQRES, QRES
from qcdcl_lab.goldens import (
    equality_script,
    fig_trapdoor_refutation,
    lonsing_script,
    qparity_script,
    trapdoor_script,
)
from qcdcl_lab.harness import ExperimentPlan, run_plan
from qcdcl_lab.proofs import AXIOM, Derivation, ProofStep, RESOLVE
from qcdcl_lab.simulation import run_simulation
from qcdcl_lab.solver import SolverConfig, solve
from qcdcl_lab.trail import ASS_ORD, ASS_R_ORD, LEV_ORD, NO_RED, RED

from conftest import ALL_POLICY_PAIRS, EXAMPLE_PHI, criterion_01_runs, random_small_qcnf

K1 = 6
K2 = 8
K3 = 0.25
K4 = 0.5


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: pass {detail}")


def test_criterion_01_soundness_oracle_equivalence():
    """Refuted iff the exhaustive evaluator says false, on every policy pair,
    with every refutation glue-checked; generator members plus 500 seeded
    random instances with at most 8 variables (``criterion_01_runs``)."""
    instances = criterion_01_runs()
    refutations = 0
    for name, f, truth, runs in instances:
        assert f.num_vars <= 8, name
        for d, r, refuted, status, glued in runs:
            assert refuted == (not truth), (name, d, r, status)
            if refuted:
                verdict = check_derivation(f, glued, require_refutation=True)
                assert verdict, (name, d, r, verdict.failures[:3])
                refutations += 1
    report("01-soundness", f"({len(instances)} instances, {refutations} glue-checked refutations)")


def test_criterion_02_structure_postconditions():
    """No-reduction refutations glue to merge-free plain derivations;
    reduction refutations glue to valid long-distance derivations."""
    rng = random.Random(777)
    checked_nored = checked_red = 0
    for _ in range(150):
        f = random_small_qcnf(rng, max_vars=7, max_clauses=11)
        for d, r in ALL_POLICY_PAIRS:
            result = solve(f.copy(), SolverConfig(d, r, max_conflicts=4 ** f.num_vars))
            if not result.refuted:
                continue
            glued = glue_qcdcl_proof(f, result.proof)
            if r == NO_RED:
                assert glued.mode == QRES
                assert all(not s.clause.merged for s in glued.steps), (d, r)
                assert check_derivation(f, glued, mode=QRES, require_refutation=True)
                checked_nored += 1
            else:
                assert glued.mode == LDQRES
                assert check_derivation(f, glued, mode=LDQRES, require_refutation=True)
                checked_red += 1
    assert checked_nored >= 100 and checked_red >= 100
    report("02-structure", f"({checked_nored} plain, {checked_red} long-distance)")


def test_criterion_03_worked_example_fidelity():
    """The one-alternation example yields exactly the documented learnable
    sequences under both propagation policies, byte-exact."""
    f = parse_qdimacs(EXAMPLE_PHI)
    t_red = propagate_to_fixpoint(f, Trail(LEV_ORD, RED))
    seq_red = learnable_sequence(t_red, f)
    assert [(c.lits, c.merged) for c in seq_red.elements] == [
        ((-1, -4), ()),
        ((-1,), ()),
        ((2, 3), ()),
        ((), ()),
    ]
    t_nr = propagate_to_fixpoint(f, Trail(LEV_ORD, NO_RED))
    decide(t_nr, 1, f)
    propagate_to_fixpoint(f, t_nr)
    seq_nr = learnable_sequence(t_nr, f)
    assert [(c.lits, c.merged) for c in seq_nr.elements] == [
        ((-1, -4), ()),
        ((-1,), ()),
        ((-1,), ()),
    ]
    report("03-worked-example")


def test_criterion_04_qparity_golden():
    """Scripted zig-zag replay for n in 3..30: refutes, size within K1*n^2,
    and the glued long-distance derivation checks."""
    for n in range(3, 31):
        f = generate(FamilySpec("qparity", n))
        proof = replay(f, qparity_script(n), LEV_ORD, RED)
        assert proof.is_refutation(), n
        assert proof.size <= K1 * n * n, (n, proof.size)
        glued = glue_qcdcl_proof(f, proof)
        assert glued.mode == LDQRES
        assert check_derivation(f, glued, require_refutation=True), n
        if n <= 8:
            assert validate_qcdcl_proof(f, proof) == [], n
    report("04-qparity-golden", f"(n=3..30, K1={K1})")


def test_criterion_05_equality_golden():
    """Scripted universal-first replay for n in 2..30 with quadratic size."""
    for n in range(2, 31):
        f = generate(FamilySpec("equality", n))
        proof = replay(f, equality_script(n), ASS_R_ORD, RED)
        assert proof.is_refutation(), n
        assert proof.size <= K2 * n * n, (n, proof.size)
        glued = glue_qcdcl_proof(f, proof)
        assert check_derivation(f, glued, require_refutation=True), n
        if n <= 8:
            assert validate_qcdcl_proof(f, proof) == [], n
    report("05-equality-golden", f"(n=2..30, K2={K2})")


def test_criterion_06_lonsing_trapdoor_goldens():
    """Single-trail and two-trail scripted refutations for n in 2..10, and
    the fixed constant-size plain refutation with exactly two reductions."""
    for n in range(2, 11):
        f = generate(FamilySpec("lonsing", n))
        proof = replay(f, lonsing_script(n), ASS_R_ORD, RED)
        assert proof.is_refutation() and len(proof.rounds) == 1, n
        assert validate_qcdcl_proof(f, proof) == [], n

        f = generate(FamilySpec("trapdoor", n))
        proof = replay(f, trapdoor_script(n), LEV_ORD, NO_RED)
        assert proof.is_refutation() and len(proof.rounds) == 2, n
        assert validate_qcdcl_proof(f, proof) == [], n
        glued = glue_qcdcl_proof(f, proof)
        assert all(not s.clause.merged for s in glued.steps), n

    f = generate(FamilySpec("trapdoor", 2))
    fig = fig_trapdoor_refutation(2)
    assert check_derivation(f, fig, require_refutation=True)
    assert count_reductions(fig) == 2
    assert len(fig.steps) == 9
    report("06-lonsing-trapdoor", "(n=2..10; figure refutation: 9 steps, 2 reductions)")


def test_criterion_07_xt_property_consequences():
    """Structure check holds on the ladder family (n >= 2) and on 100 seeded
    random three-block samples; 50 randomized reduction-policy solver runs on
    the ladder family glue to merge-free plain derivations."""
    for n in range(2, 13):
        rep = xt_check(generate(FamilySpec("equality", n)))
        assert rep.applicable and rep.holds, n
    for seed in range(100):
        rep = xt_check(random_qcnf(3, 2, 1.5, seed=seed))
        assert rep.applicable and rep.holds, seed
    runs = 0
    plan = [(4, 20), (5, 15), (6, 10), (7, 5)]
    for n, count in plan:
        f0 = generate(FamilySpec("equality", n))
        for seed in range(count):
            f = f0.copy()
            result = solve(
                f,
                SolverConfig(LEV_ORD, RED, heuristic="random", seed=seed,
                             max_conflicts=200_000),
            )
            assert result.refuted, (n, seed)
            glued = glue_qcdcl_proof(f0, result.proof)
            assert glued.mode == LDQRES
            assert all(not s.clause.merged for s in glued.steps), (n, seed)
            assert check_derivation(f0, glued, mode=QRES, require_refutation=True)
            runs += 1
    assert runs == 50
    report("07-xt-property", "(100 random samples, 50 merge-free solver runs)")


def test_criterion_08_hardness_trend():
    """Desk-scale shadow of the exponential lower bound: every reduction-policy
    refutation of the ladder family at n = 4..8 has glued size and reduction
    count at least 2^n; conflict growth is reported, not asserted."""
    growth = []
    for n in range(4, 9):
        f = generate(FamilySpec("equality", n))
        result = solve(f, SolverConfig(LEV_ORD, RED, max_conflicts=2_000_000))
        assert result.refuted, n
        glued = glue_qcdcl_proof(f, result.proof)
        assert len(glued.steps) >= 2 ** n, (n, len(glued.steps))
        assert count_reductions(glued) >= 2 ** n, (n, count_reductions(glued))
        growth.append((n, result.stats["conflicts"]))
    report("08-hardness-trend", f"(conflict growth {growth})")


def test_criterion_09_simulation():
    """At least 30 plain refutations (solver-produced plus the figure) are
    translated; outputs pass the round validator with the flexible/no-reduction
    policies, glue merge-free, and respect the pinned cubic/quadratic bounds."""
    corpus = []
    f = generate(FamilySpec("trapdoor", 2))
    corpus.append(("figure", f, fig_trapdoor_refutation(2)))
    rng = random.Random(2026)
    while len(corpus) < 34:
        f = random_small_qcnf(rng, max_vars=10, max_clauses=14)
        if f.num_vars > 12:
            continue
        for d in (ASS_ORD, "any-ord", LEV_ORD):
            result = solve(f.copy(), SolverConfig(d, NO_RED, max_conflicts=4 ** f.num_vars))
            if result.refuted:
                base = f.copy()
                corpus.append((f"solver-{len(corpus)}", base, glue_qcdcl_proof(base, result.proof)))
                break
    assert len(corpus) >= 30
    worst_k3 = worst_k4 = 0.0
    for name, f, qres in corpus:
        assert check_derivation(f, qres, mode=QRES, require_refutation=True), name
        state = run_simulation(f, qres)
        proof = state.proof()
        assert proof.decision_policy == ASS_ORD
        assert proof.propagation_policy == NO_RED
        problems = validate_qcdcl_proof(f, proof)
        assert not problems, (name, problems[:3])
        glued = glue_qcdcl_proof(f, proof)
        assert glued.mode == QRES
        assert all(not s.clause.merged for s in glued.steps), name
        assert check_derivation(f, glued, mode=QRES, require_refutation=True), name
        n = max(f.num_vars, 1)
        ratio3 = proof.size / (n ** 3 * max(len(qres.steps), 1))
        assert ratio3 <= K3, (name, ratio3)
        worst_k3 = max(worst_k3, ratio3)
        for rounds in state.loop_lengths:
            ratio4 = rounds / (n * n)
            assert ratio4 <= K4, (name, ratio4)
            worst_k4 = max(worst_k4, ratio4)
    report(
        "09-simulation",
        f"({len(corpus)} inputs; worst K3 {worst_k3:.3f}<={K3}, worst K4 {worst_k4:.3f}<={K4})",
    )


def test_criterion_10_unsoundness_guard():
    """The low-level universal merge on the true two-clause formula is
    rejected by the checker in both modes."""
    f = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 -2 0\n-1 2 0\n")
    steps = [
        ProofStep(0, AXIOM, f.clauses[0], source=0),
        ProofStep(1, AXIOM, f.clauses[1], source=1),
        ProofStep(2, RESOLVE, Clause(merged=(1,)), pivot=2, left=0, right=1),
    ]
    for mode in (QRES, LDQRES):
        verdict = check_derivation(f, Derivation(steps, mode, 2), mode)
        assert not verdict, mode
        assert any(sid == 2 for sid, _ in verdict.failures)
    report("10-unsoundness-guard")


def test_criterion_11_determinism():
    """Fixed input, config, and seed give byte-identical proof and CSV
    output across two consecutive runs (timing column stabilized)."""
    proofs = []
    for _ in range(2):
        f = generate(FamilySpec("equality", 4))
        result = solve(
            f,
            SolverConfig(ASS_R_ORD, RED, heuristic="random", seed=5, max_conflicts=100_000),
        )
        assert result.refuted
        proofs.append(serialize_proof(glue_qcdcl_proof(f, result.proof)))
    assert proofs[0] == proofs[1]

    csvs = []
    for _ in range(2):
        cells = [
            (
                FamilySpec("equality", n),
                SolverConfig(d, r, heuristic="random", seed=3, max_conflicts=100_000),
            )
            for n in (2, 3)
            for d, r in ((LEV_ORD, RED), (ASS_R_ORD, RED), (ASS_ORD, NO_RED))
        ]
        _, text = run_plan(ExperimentPlan(cells, stable_timing=True))
        csvs.append(text)
    assert csvs[0] == csvs[1]
    report("11-determinism")
