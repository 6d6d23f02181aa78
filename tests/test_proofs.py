from __future__ import annotations

from dataclasses import replace

import pytest

from qcdcl_lab import (
    ANY_ORD,
    LEV_ORD,
    RED,
    Trail,
    check_derivation,
    count_reductions,
    glue_qcdcl_proof,
    learnable_sequence,
    parse_proof,
    parse_qdimacs,
    pick_learned,
    propagate_to_fixpoint,
    serialize_proof,
    validate_qcdcl_proof,
)
from qcdcl_lab.errors import QcdclError
from qcdcl_lab.formula import Clause, LDQRES, QRES
from qcdcl_lab.goldens import fig_trapdoor_refutation
from qcdcl_lab.families import FamilySpec, generate
from qcdcl_lab.learning import DEC
from qcdcl_lab.proofs import AXIOM, Derivation, ProofStep, QcdclProof, RESOLVE, Round
from qcdcl_lab.solver import SolverConfig, solve

from conftest import PSI_TRUE, entry_times, last_time, mutated_trail


class TestCheckDerivation:
    def test_trapdoor_figure_is_valid_with_two_reductions(self):
        d = fig_trapdoor_refutation(2)
        f = generate(FamilySpec("trapdoor", 2))
        verdict = check_derivation(f, d, require_refutation=True)
        assert verdict, verdict.failures
        assert len(d.steps) == 9
        assert count_reductions(d) == 2

    def test_unsound_merge_rejected_in_both_modes(self):
        f = parse_qdimacs(PSI_TRUE)
        steps = [
            ProofStep(0, AXIOM, f.clauses[0], source=0),   # u -x
            ProofStep(1, AXIOM, f.clauses[1], source=1),   # -u x
            ProofStep(2, RESOLVE, Clause(merged=(1,)), pivot=2, left=0, right=1),
        ]
        for mode in (QRES, LDQRES):
            verdict = check_derivation(f, Derivation(steps, mode, 2), mode)
            assert not verdict
            assert any("2" == str(sid) or sid == 2 for sid, _ in verdict.failures)

    def test_single_axiom_step_valid(self):
        f = generate(FamilySpec("equality", 1))
        d = Derivation([ProofStep(0, AXIOM, f.clauses[0], source=0)], QRES, 0)
        assert check_derivation(f, d)

    def test_axiom_not_in_formula_invalid(self):
        f = generate(FamilySpec("equality", 1))
        bogus = Clause((1, 2))
        d = Derivation([ProofStep(0, AXIOM, bogus)], QRES, 0)
        assert not check_derivation(f, d)

    def test_non_empty_conclusion_fails_refutation_check(self):
        f = generate(FamilySpec("equality", 1))
        d = Derivation([ProofStep(0, AXIOM, f.clauses[0], source=0)], QRES, 0)
        assert check_derivation(f, d)
        assert not check_derivation(f, d, require_refutation=True)


class TestGlue:
    def test_single_round_example_glues_to_empty(self, example_phi):
        trail = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, RED))
        seq = learnable_sequence(trail, example_phi)
        picked = pick_learned(DEC, seq, trail, example_phi)
        assert picked.clause.is_empty()
        proof = QcdclProof(
            [Round(trail, picked.clause, 4, seq.derivation_for(picked.index),
                   picked.index)],
            LEV_ORD,
            RED,
        )
        assert validate_qcdcl_proof(example_phi, proof) == []
        glued = glue_qcdcl_proof(example_phi, proof)
        verdict = check_derivation(example_phi, glued, require_refutation=True)
        assert verdict, verdict.failures
        # 4 axioms, 3 resolutions, 1 final reduction of the universal unit
        assert len(glued.steps) == 8
        assert count_reductions(glued) == 1

    def test_learned_clause_references_are_stitched(self):
        f = generate(FamilySpec("equality", 2))
        result = solve(f, SolverConfig(LEV_ORD, RED, max_conflicts=10_000))
        assert result.refuted
        glued = glue_qcdcl_proof(f, result.proof)
        assert check_derivation(f, glued, require_refutation=True)
        # every axiom of the glued derivation is a matrix clause
        for s in glued.steps:
            if s.kind == AXIOM:
                assert s.source is not None and s.source < f.matrix_size

    def test_glued_size_linear_in_run_size(self):
        f = generate(FamilySpec("equality", 3))
        result = solve(f, SolverConfig(LEV_ORD, RED, max_conflicts=10_000))
        assert result.refuted
        glued = glue_qcdcl_proof(f, result.proof)
        assert len(glued.steps) <= 6 * result.proof.size


class TestValidateQcdclProof:
    def test_each_problem_is_reported(self):
        """A valid multi-round proof with backjumps passes; one mutation per
        kind of problem gets that problem's message. Backtrack times are
        mutated through the round's trail, which records them."""
        f = generate(FamilySpec("qparity", 4))
        proof = solve(f.copy(), SolverConfig(LEV_ORD, RED)).proof
        assert validate_qcdcl_proof(f, proof) == []
        assert len(proof.rounds) == 8
        assert [r.backtrack for r in proof.rounds][1:3] == [(3, 1), (2, 1)]

        def problems(idx=0, policy=LEV_ORD, **changes):
            rounds = list(proof.rounds)
            rounds[idx] = replace(rounds[idx], **changes)
            return validate_qcdcl_proof(f, QcdclProof(rounds, policy, RED))

        def resumed_at_end(idx):
            trail = proof.rounds[idx].trail
            return trail.backtrack(last_time(trail))

        first, third = proof.rounds[0], proof.rounds[3]
        unconflicted = third.trail.backtrack(entry_times(third.trail)[-2])
        short = Derivation(first.derivation.steps[1:], LDQRES, first.derivation.conclusion)
        cut = Derivation(first.derivation.steps[:1], LDQRES, 0)
        freed = mutated_trail(f, first.trail, (LEV_ORD, RED), "remove", 2, 0, 0)
        cases = [
            (problems(policy=ANY_ORD), "round 0: trail policies differ from the proof's"),
            (problems(3, trail=unconflicted), "round 3: trail has no conflict"),
            (problems(trail=resumed_at_end(0)), "round 0: first round must start from scratch"),
            (problems(1, trail=resumed_at_end(1)), "round 1: backtrack time (3, 4) invalid"),
            (problems(2, trail=resumed_at_end(2)),
             "round 2: trail disagrees with predecessor before backtrack point"),
            (problems(picked_index=99), "round 0: picked index 99 out of range"),
            (problems(picked_index=first.picked_index - 1),
             "round 0: learned clause is not the recorded sequence element"),
            (problems(derivation=short), "round 0: derivation invalid: "),
            (problems(derivation=cut), "round 0: derivation does not conclude the learned clause"),
            (problems(clause_id=first.clause_id + 1),
             f"round 0: clause id {first.clause_id + 1} out of sequence"),
            (problems(duplicate=True), "round 0: duplicate flag wrong"),
            (problems(trail=freed), "round 0: entry 2: "),
        ]
        for got, message in cases:
            assert got and got[0].startswith(message), (message, got)


class TestPurelyExistential:
    def test_resolution_only_run_has_zero_reductions(self):
        f = generate(FamilySpec("php", 1, m=2))
        result = solve(f, SolverConfig(LEV_ORD, RED, max_conflicts=1000))
        assert result.refuted
        glued = glue_qcdcl_proof(f, result.proof)
        assert count_reductions(glued) == 0


class TestTraceFormat:
    def test_roundtrip_identity_on_the_figure(self):
        d = fig_trapdoor_refutation(2)
        text = serialize_proof(d)
        back = parse_proof(text)
        assert serialize_proof(back) == text
        f = generate(FamilySpec("trapdoor", 2))
        assert check_derivation(f, back, require_refutation=True)

    def test_dangling_premise_rejected(self):
        text = "p qrp-lite qres\nr 1 2 0 5 0\nconclusion 1\n"
        with pytest.raises(QcdclError):
            parse_proof(text)

    def test_missing_header_rejected(self):
        with pytest.raises(QcdclError):
            parse_proof("a 0 1 2 0\nconclusion 0\n")

    def test_missing_conclusion_rejected(self):
        with pytest.raises(QcdclError):
            parse_proof("p qrp-lite qres\na 0 1 2 0\n")

    @pytest.mark.parametrize(
        "bad", ["a 0", "conclusion", "conclusion x", "a 1 1_0 0", "a 1 +2 0", "a \u0660 1 0"]
    )
    def test_malformed_record_rejected(self, bad):
        with pytest.raises(QcdclError) as err:
            parse_proof(f"p qrp-lite qres\na 0 1 2 0\n{bad}\nconclusion 0\n")
        assert err.value.args[0].startswith("line 3: ")
