from __future__ import annotations

import random

import pytest

from qcdcl_lab import (
    FamilySpec,
    check_derivation,
    generate,
    glue_qcdcl_proof,
    parse_qdimacs,
    simulate_refutation,
)
import qcdcl_lab.simulation as simulation
from qcdcl_lab.errors import InputNotRefutationError, WitnessInvalidError
from qcdcl_lab.formula import QRES, make_clause
from qcdcl_lab.goldens import fig_trapdoor_refutation
from qcdcl_lab.proofs import AXIOM, Derivation, ProofStep, REDUCE, RESOLVE
from qcdcl_lab.simulation import (
    SimState,
    Witness,
    construct_trail_with_decisions,
    make_unreliable,
    run_simulation,
    witness_valid,
)
from qcdcl_lab.solver import SolverConfig, solve
from qcdcl_lab.trail import (
    ANY_ORD,
    ASS_ORD,
    LEV_ORD,
    NO_RED,
    Trail,
    propagate_to_fixpoint,
    validate_trail,
)

from conftest import MUTATIONS, assignment_of, check_refutation, mutated_trail, random_small_qcnf
from test_trail import reference_validate_trail


def state_for(qcnf) -> SimState:
    return SimState(work=qcnf.copy())


class TestConstructTrail:
    # x=1 u=2 y=3 z=4 in all four micro-formulas below.

    def test_plain_completion(self):
        f = parse_qdimacs("p cnf 4 1\ne 1 0\na 2 0\ne 3 4 0\n-1 -2 -3 4 0\n")
        trail, stopped = construct_trail_with_decisions(state_for(f), [1, 2, 3])
        assert not trail.conflicted and stopped is None
        assert [e.lit for e in trail.entries] == [1, 2, 3, 4]
        assert trail.decisions() == [1, 2, 3]

    def test_decision_skipped_when_propagated_first(self):
        f = parse_qdimacs(
            "p cnf 4 2\ne 1 0\na 2 0\ne 3 4 0\n-1 -2 -3 4 0\n-1 -2 3 0\n"
        )
        trail, stopped = construct_trail_with_decisions(state_for(f), [1, 2, 3])
        assert not trail.conflicted and stopped is None
        assert [e.lit for e in trail.entries] == [1, 2, 3, 4]
        assert trail.decisions() == [1, 2]   # y arrived by propagation

    def test_conflict_aborts_the_walk(self):
        f = parse_qdimacs(
            "p cnf 4 3\ne 1 0\na 2 0\ne 3 4 0\n-1 -2 -3 4 0\n-1 -2 4 0\n-1 -2 -4 0\n"
        )
        trail, _ = construct_trail_with_decisions(state_for(f), [1, 2, 3])
        assert trail.conflicted
        assert 3 not in assignment_of(trail)

    def test_blocked_yields_a_witness(self):
        f = parse_qdimacs(
            "p cnf 4 2\ne 1 0\na 2 0\ne 3 4 0\n-1 -2 4 0\n-4 -3 0\n"
        )
        state = state_for(f)
        trail, stopped = construct_trail_with_decisions(state, [1, 2, 3])
        assert not trail.conflicted and stopped == 3
        target = make_clause(f.prefix, [-1, -2, -3])   # -x or -u or -y
        w = Witness(trail, -stopped)
        assert w.literal == -3
        assert w.decisions == (1, 2)
        assert witness_valid(state.work, w, target)


class TestStore:
    def test_store_rejects_a_literal_outside_the_clause(self):
        f = parse_qdimacs(
            "p cnf 4 2\ne 1 0\na 2 0\ne 3 4 0\n-1 -2 4 0\n-4 -3 0\n"
        )
        state = state_for(f)
        trail, stopped = construct_trail_with_decisions(state, [1, 2, 3])
        w = Witness(trail, -stopped)
        other = make_clause(f.prefix, [-1, -2, 3])
        with pytest.raises(WitnessInvalidError):
            state.store(other, w)
        assert other not in state.witnesses
        target = make_clause(f.prefix, [-1, -2, -3])
        state.store(target, w)
        assert state.witnesses[target] is w

    def test_store_rejects_a_conflicted_trail(self):
        f = parse_qdimacs(
            "p cnf 4 3\ne 1 0\na 2 0\ne 3 4 0\n-1 -2 -3 4 0\n-1 -2 4 0\n-1 -2 -4 0\n"
        )
        state = state_for(f)
        trail, _ = construct_trail_with_decisions(state, [1, 2, 3])
        assert trail.conflicted
        target = make_clause(f.prefix, [-1, -2, 4])
        with pytest.raises(WitnessInvalidError):
            state.store(target, Witness(trail, 4))
        assert state.witnesses == {}

    @pytest.mark.parametrize(
        "family, n, decision", [("php", 4, ANY_ORD), ("qparity", 6, LEV_ORD)]
    )
    def test_stored_witnesses_stay_valid_as_the_formula_grows(self, family, n, decision):
        # ``store`` is the only validation: every witness it accepted must
        # still validate against the final, grown clause set.
        f = generate(FamilySpec(family, n))
        refutation = glue_qcdcl_proof(f, solve(f, SolverConfig(decision, NO_RED)).proof)
        state = run_simulation(f, refutation)
        assert state.witnesses and len(state.work.clauses) > len(f.clauses)
        for clause, w in state.witnesses.items():
            assert witness_valid(state.work, w, clause), clause


    @pytest.mark.parametrize(
        "family, n, decision", [("php", 4, ANY_ORD), ("qparity", 6, LEV_ORD)]
    )
    def test_the_store_checker_agrees_with_a_fresh_walk(self, family, n, decision,
                                                         monkeypatch):
        # Every witness ``store`` checks gets the verdict it gets on a copy
        # of the formula, which has no watch state yet, and the trail
        # problems of the rescanning oracle; before every other one, a
        # mutated copy must also get the oracle's problems.
        f = generate(FamilySpec(family, n))
        refutation = glue_qcdcl_proof(f, solve(f, SolverConfig(decision, NO_RED)).proof)
        original = simulation.witness_valid
        rng = random.Random(n)
        verdicts = []

        def checked(qcnf, witness, clause):
            t = witness.trail
            if len(verdicts) % 2:
                size = len(t)
                bad = mutated_trail(qcnf, t, (ASS_ORD, NO_RED), rng.choice(MUTATIONS),
                                    rng.randrange(size), rng.randrange(size),
                                    rng.randrange(len(qcnf.clauses)))
                assert validate_trail(qcnf, bad, len(bad)) == reference_validate_trail(
                    qcnf, bad, len(bad))
            verdict = original(qcnf, witness, clause)
            assert verdict == original(qcnf.copy(), witness, clause)
            assert validate_trail(qcnf, t, len(t)) == reference_validate_trail(qcnf, t, len(t))
            verdicts.append(verdict)
            return verdict

        monkeypatch.setattr(simulation, "witness_valid", checked)
        state = run_simulation(f, refutation)
        assert all(verdicts) and len(verdicts) == len(state.witnesses) > 0


class TestMakeUnreliable:
    def test_immediate_empty_clause(self):
        # Conflict at level zero: the analysis folds to the empty clause in
        # one round, no decisions involved.
        f = parse_qdimacs("p cnf 2 2\ne 1 2 0\n1 0\n-1 0\n")
        state = state_for(f)
        target = make_clause(f.prefix, [-2])
        trail = propagate_to_fixpoint(state.work, Trail(ASS_ORD, NO_RED))
        assert trail.conflicted
        assert make_unreliable(state, target, trail, [2]) is None
        assert state.done
        assert len(state.rounds) == 1

    def test_blocking_produces_a_validating_witness(self):
        # Deciding (-1, -3) learns enough that literal 3 gets propagated
        # after backtracking, blocking the second decision.
        f = parse_qdimacs(
            "p cnf 3 3\ne 1 2 3 0\n1 2 0\n-2 3 0\n-1 3 0\n"
        )
        state = state_for(f)
        target = make_clause(f.prefix, [1, 3])
        order = [-1, -3]
        trail, stopped = construct_trail_with_decisions(state, order)
        if trail.conflicted:
            w = make_unreliable(state, target, trail, order)
            if w is not None:
                assert witness_valid(state.work, w, target)
        else:
            assert stopped is not None

    @pytest.mark.parametrize("seed", range(8))
    def test_round_bound_on_random_targets(self, seed):
        rng = random.Random(seed)
        f = random_small_qcnf(rng, max_vars=8, max_clauses=12)
        state = state_for(f)
        variables = sorted(f.prefix.variables)
        chosen = rng.sample(variables, min(3, len(variables)))
        lits = [v * rng.choice((1, -1)) for v in chosen]
        target = make_clause(f.prefix, lits)
        order = sorted(
            (-l for l in lits), key=lambda l: (f.prefix.level(l), abs(l))
        )
        try:
            trail, _ = construct_trail_with_decisions(state, order)
        except Exception:
            return   # the random order may violate the flexible policy
        if not trail.conflicted:
            return
        n = f.num_vars
        before = len(state.rounds)
        w = make_unreliable(state, target, trail, order)
        assert len(state.rounds) - before <= 8 * n * n + 8
        if w is not None:
            assert witness_valid(state.work, w, target)


class TestSpecToys:
    def test_unit_axiom_blocks_into_a_witness(self, example_phi):
        # The unit axiom's literal propagates before its negation can be
        # decided, handing over the witness without any conflict round.
        from qcdcl_lab.simulation import simulate_axiom

        state = state_for(example_phi)
        clause = make_clause(example_phi.prefix, [-3])
        w = simulate_axiom(state, clause)
        assert w is not None and w.literal == -3 and w.decisions == ()
        assert witness_valid(state.work, w, clause)
        assert state.rounds == []

    def test_reduction_toy_and_pivot_case(self):
        # exists x forall u: (-x or -u) and (x); the input refutation
        # reduces the first axiom and resolves the two units. Walking it
        # exercises the axiom, reduction (universal decided last), and the
        # resolution case where both premise witnesses propagate the pivot.
        f = parse_qdimacs("p cnf 2 2\ne 1 0\na 2 0\n-1 -2 0\n1 0\n")
        from qcdcl_lab.formula import Clause

        steps = [
            ProofStep(0, AXIOM, f.clauses[0], source=0),
            ProofStep(1, REDUCE, Clause((-1,)), src=0),
            ProofStep(2, AXIOM, f.clauses[1], source=1),
            ProofStep(3, RESOLVE, Clause(), pivot=1, left=1, right=2),
        ]
        d = Derivation(steps, QRES, 3)
        proof = simulate_refutation(f, d)
        check_refutation(f, proof)


class TestSimulateRefutation:
    def test_unit_pair(self):
        f = parse_qdimacs("p cnf 1 2\ne 1 0\n1 0\n-1 0\n")
        steps = [
            ProofStep(0, AXIOM, f.clauses[0], source=0),
            ProofStep(1, AXIOM, f.clauses[1], source=1),
            ProofStep(2, RESOLVE, f.clauses[0].__class__(), pivot=1, left=0, right=1),
        ]
        proof = simulate_refutation(f, Derivation(steps, QRES, 2))
        check_refutation(f, proof)
        assert proof.decision_policy == ASS_ORD
        assert proof.propagation_policy == NO_RED

    def test_trapdoor_figure(self):
        f = generate(FamilySpec("trapdoor", 2))
        proof = simulate_refutation(f, fig_trapdoor_refutation(2))
        check_refutation(f, proof)
        glued = glue_qcdcl_proof(f, proof)
        assert glued.mode == "qres"
        assert all(not s.clause.merged for s in glued.steps)

    def test_rejects_invalid_input(self):
        f = generate(FamilySpec("equality", 2))
        steps = [ProofStep(0, AXIOM, f.clauses[0], source=0)]
        with pytest.raises(InputNotRefutationError):
            simulate_refutation(f, Derivation(steps, QRES, 0))

    def test_solver_produced_refutations_round_trip(self):
        rng = random.Random(424)
        done = 0
        for _ in range(40):
            f = random_small_qcnf(rng, max_vars=7, max_clauses=10)
            result = solve(
                f.copy(), SolverConfig(ASS_ORD, NO_RED, max_conflicts=4 ** f.num_vars)
            )
            if not result.refuted:
                continue
            base = f.copy()
            qres = glue_qcdcl_proof(base, result.proof)
            assert check_derivation(base, qres, require_refutation=True)
            sim = simulate_refutation(base, qres)
            check_refutation(base, sim)
            n = max(base.num_vars, 1)
            assert sim.size <= 40 * n ** 3 * max(len(qres.steps), 1)
            done += 1
            if done >= 12:
                break
        assert done >= 8
