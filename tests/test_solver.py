from __future__ import annotations

import random

from qcdcl_lab import (
    FamilySpec,
    evaluate_semantics,
    generate,
    glue_qcdcl_proof,
    parse_qdimacs,
    serialize_proof,
)
from qcdcl_lab.learning import ASSERTING, DEC
from qcdcl_lab.solver import (
    BUDGET_EXHAUSTED,
    REFUTED,
    SATURATED,
    SolverConfig,
    _pick_decision,
    solve,
)
from qcdcl_lab.trail import DECISION_POLICIES, LEV_ORD, NO_RED, RED, Trail, legal_decisions

from conftest import ALL_POLICY_PAIRS, check_refutation, random_small_qcnf, trail_corpus


class TestBasics:
    def test_worked_example_refutes_in_one_round_with_dec(self, example_phi):
        result = solve(example_phi, SolverConfig(LEV_ORD, RED, scheme=DEC))
        assert result.refuted
        assert len(result.proof.rounds) == 1
        assert result.proof.rounds[0].learned.is_empty()
        check_refutation(example_phi, result.proof)

    def test_equality_two_refutes_under_all_pairs(self):
        for decision, propagation in ALL_POLICY_PAIRS:
            f = generate(FamilySpec("equality", 2))
            result = solve(f, SolverConfig(decision, propagation, max_conflicts=10_000))
            assert result.refuted, (decision, propagation)
            check_refutation(f, result.proof)

    def test_true_formula_never_refuted(self, psi_true):
        for decision, propagation in ALL_POLICY_PAIRS:
            result = solve(
                psi_true,
                SolverConfig(decision, propagation, max_conflicts=10),
            )
            assert result.status in (SATURATED, BUDGET_EXHAUSTED)
            assert result.proof is None

    def test_budget_is_respected(self):
        f = generate(FamilySpec("equality", 4))
        result = solve(f, SolverConfig(LEV_ORD, RED, max_conflicts=2))
        assert result.status in (REFUTED, BUDGET_EXHAUSTED)
        if result.status == BUDGET_EXHAUSTED:
            assert result.stats["conflicts"] == 2

    def test_empty_matrix_clause_refutes_immediately(self):
        f = parse_qdimacs("p cnf 1 1\ne 1 0\n0\n")
        result = solve(f, SolverConfig(LEV_ORD, NO_RED))
        assert result.refuted
        assert len(result.proof.rounds) == 1


class TestDeterminism:
    def test_identical_config_gives_identical_proof_bytes(self):
        for heuristic, seed in (("fixed", 0), ("random", 99)):
            outs = []
            for _ in range(2):
                f = generate(FamilySpec("equality", 3))
                result = solve(
                    f,
                    SolverConfig(
                        LEV_ORD, RED, heuristic=heuristic, seed=seed,
                        max_conflicts=10_000,
                    ),
                )
                assert result.refuted
                outs.append(serialize_proof(glue_qcdcl_proof(f, result.proof)))
            assert outs[0] == outs[1]

    def test_different_seeds_can_differ(self):
        texts = set()
        for seed in range(4):
            f = generate(FamilySpec("equality", 3))
            result = solve(
                f,
                SolverConfig(
                    LEV_ORD, RED, heuristic="random", seed=seed, max_conflicts=10_000
                ),
            )
            assert result.refuted
            texts.add(serialize_proof(glue_qcdcl_proof(f, result.proof)))
        assert len(texts) > 1


class TestSoundnessSweep:
    def test_small_random_instances_cross_checked(self):
        rng = random.Random(12345)
        refutations = 0
        for _ in range(60):
            f = random_small_qcnf(rng, max_vars=6, max_clauses=10)
            truth = evaluate_semantics(f, max_vars=8)
            for decision, propagation in ALL_POLICY_PAIRS:
                budget = 4 ** f.num_vars
                result = solve(
                    f.copy(),
                    SolverConfig(decision, propagation, max_conflicts=budget),
                )
                if truth:
                    assert not result.refuted, (decision, propagation)
                else:
                    assert result.refuted, (decision, propagation, f.clauses)
                    check_refutation(f, result.proof)
                    refutations += 1
        assert refutations > 100

    def test_progress_new_clauses_when_asserting(self):
        f = generate(FamilySpec("equality", 3))
        result = solve(f, SolverConfig(LEV_ORD, RED, scheme=ASSERTING, max_conflicts=10_000))
        assert result.refuted
        dups = [r for r in result.proof.rounds if r.duplicate]
        total = len(result.proof.rounds)
        # duplicates are possible in principle but must be rare
        assert len(dups) <= total // 4


def test_fixed_pick_is_the_lowest_ranked_legal_variable():
    """At every prefix of every corpus trail and under every decision
    policy, the fixed heuristic picks the legal variable of lowest
    (level, id) rank, or nothing when none is legal; the polarity
    counter's bit at the decision depth negates it."""
    for qcnf, trail in trail_corpus():
        rank = qcnf.prefix.rank.__getitem__
        shadow = Trail(trail.decision_policy, trail.propagation_policy)
        for e in [*trail.entries, None]:
            for policy in DECISION_POLICIES:
                shadow.decision_policy = policy
                cfg = SolverConfig(policy, trail.propagation_policy)
                legal = legal_decisions(shadow, qcnf)
                var = abs(min(legal, key=rank)) if legal else None
                assert _pick_decision(shadow, qcnf, cfg, 0, None) == var, policy
                if var is not None:
                    flip = 1 << shadow.last_level
                    assert _pick_decision(shadow, qcnf, cfg, flip, None) == -var, policy
            if e is None or e.lit == 0:
                break
            if e.is_decision:
                shadow.append_decision(e.lit)
            else:
                shadow.append_propagation(e.lit, e.antecedent)
