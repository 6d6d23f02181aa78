from __future__ import annotations

import pytest

from qcdcl_lab import (
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

from conftest import PSI_TRUE


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
                   (0, 0), picked.index)],
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
