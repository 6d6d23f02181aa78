from __future__ import annotations

import pytest

from qcdcl_lab import (
    FamilySpec,
    generate,
    glue_qcdcl_proof,
    parse_qdimacs,
    parse_script,
    replay,
    serialize_script,
)
from qcdcl_lab.errors import IllegalDecisionError, ScriptDivergenceError
from qcdcl_lab.formula import Clause
from qcdcl_lab.goldens import (
    equality_script,
    lonsing_script,
    qparity_script,
    run_goldens,
    trapdoor_script,
)
from qcdcl_lab.proofs import check_derivation, count_reductions
from qcdcl_lab.replay import ReplayScript, ScriptRound
from qcdcl_lab.trail import ASS_R_ORD, LEV_ORD, NO_RED, RED

from conftest import check_refutation


class TestQParityGolden:
    def test_n4_learned_clauses_include_the_pair(self):
        n = 4
        f = generate(FamilySpec("qparity", n))
        proof = replay(f, qparity_script(n), LEV_ORD, RED)
        check_refutation(f, proof)
        learned = proof.learned_clauses()
        c_n = Clause((n, n + 1, 2 * n - 1))          # x4 or z or t3
        d_n = Clause((n, -(n + 1), -(2 * n - 1)))    # x4 or -z or -t3
        assert c_n in learned
        assert d_n in learned

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_scales(self, n):
        f = generate(FamilySpec("qparity", n))
        proof = replay(f, qparity_script(n), LEV_ORD, RED)
        check_refutation(f, proof)
        assert proof.size <= 4 * n * n + 40

    def test_merged_clauses_appear_for_larger_n(self):
        f = generate(FamilySpec("qparity", 5))
        proof = replay(f, qparity_script(5), LEV_ORD, RED)
        assert any(c.merged for c in proof.learned_clauses())
        glued = glue_qcdcl_proof(f, proof)
        assert glued.mode == "ldqres"
        assert check_derivation(f, glued, require_refutation=True)


class TestEqualityGolden:
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_learned_ladder(self, n):
        f = generate(FamilySpec("equality", n))
        proof = replay(f, equality_script(n), ASS_R_ORD, RED)
        check_refutation(f, proof)
        assert proof.size <= 8 * n * n + 40
        learned = proof.learned_clauses()
        # the top pair carries no merges; the later ladder does (n >= 3)
        assert not learned[0].merged and not learned[1].merged
        assert learned[-2].lits == (-1,)
        assert learned[-1].is_empty()

    def test_round_count_linear(self):
        n = 7
        f = generate(FamilySpec("equality", n))
        proof = replay(f, equality_script(n), ASS_R_ORD, RED)
        assert len(proof.rounds) == 2 * n


class TestTrapdoorGolden:
    @pytest.mark.parametrize("n", [2, 3])
    def test_two_round_refutation(self, n):
        f = generate(FamilySpec("trapdoor", n))
        proof = replay(f, trapdoor_script(n), LEV_ORD, NO_RED)
        check_refutation(f, proof)
        assert len(proof.rounds) == 2
        assert proof.learned_clauses()[0] == Clause((-1,))
        glued = glue_qcdcl_proof(f, proof)
        assert all(not s.clause.merged for s in glued.steps)


class TestLonsingGolden:
    @pytest.mark.parametrize("n", [2, 3])
    def test_single_trail(self, n):
        f = generate(FamilySpec("lonsing", n))
        proof = replay(f, lonsing_script(n), ASS_R_ORD, RED)
        check_refutation(f, proof)
        assert len(proof.rounds) == 1
        trail = proof.rounds[0].trail
        s = n * (n + 1)
        assert [e.lit for e in trail.entries] == [-(s + 3), s + 5, 0]
        glued = glue_qcdcl_proof(f, proof)
        assert count_reductions(glued) == 1


class TestRunGoldens:
    def test_all_pass(self):
        results = run_goldens()
        assert all(r.ok for r in results), [(r.name, r.detail) for r in results]


class TestScriptMechanics:
    def test_parse_serialize_roundtrip(self):
        script = qparity_script(5)
        text = serialize_script(script)
        again = parse_script(text)
        assert serialize_script(again) == text

    def test_illegal_decision_raises(self):
        f = generate(FamilySpec("qparity", 3))
        script = ReplayScript([ScriptRound([-(3 + 2)], "dec", "restart")])
        with pytest.raises(IllegalDecisionError):
            replay(f, script, LEV_ORD, RED)

    def test_opposite_propagation_is_divergence(self, example_phi):
        # -3 is propagated at level 0; scripting the decision 3 diverges.
        script = ReplayScript([ScriptRound([3], "dec", "restart")])
        with pytest.raises(ScriptDivergenceError):
            replay(example_phi, script, LEV_ORD, RED)

    def test_missing_conflict_is_divergence(self, psi_true):
        script = ReplayScript([ScriptRound([1], "dec", "restart")])
        with pytest.raises(ScriptDivergenceError):
            replay(psi_true, script, LEV_ORD, RED)

    def test_same_polarity_decision_is_skipped(self, example_phi):
        # -3 propagates at level 0; scripting it as a decision is harmless.
        script = ReplayScript([
            ScriptRound([-3, 1], "dec", "restart"),
            ScriptRound([-2], "asserting", "restart"),
        ])
        proof = replay(example_phi, script, LEV_ORD, NO_RED)
        assert proof.rounds[0].trail.decisions() == [1]
        assert proof.is_refutation()

    def test_forced_propagation_override(self):
        # Two clauses force the same literal; the override picks the later one.
        f = parse_qdimacs(
            "p cnf 2 3\ne 1 2 0\n1 0\n-1 2 0\n-1 -2 0\n"
        )
        script = ReplayScript([ScriptRound([], "dec", "restart", forced=[(1, 0), (2, 1)])])
        proof = replay(f, script, LEV_ORD, NO_RED)
        assert [e.antecedent for e in proof.rounds[0].trail.entries] == [0, 1, 2]

    def test_bad_override_is_divergence(self):
        f = parse_qdimacs(
            "p cnf 2 3\ne 1 2 0\n1 0\n-1 2 0\n-1 -2 0\n"
        )
        script = ReplayScript([ScriptRound([], "dec", "restart", forced=[(2, 2)])])
        with pytest.raises(ScriptDivergenceError):
            replay(f, script, LEV_ORD, NO_RED)

    @pytest.mark.parametrize(
        "directive", ["p 5", "p", "learn", "back 1", "back", "d x", "learn bogus"]
    )
    def test_malformed_directive_rejected(self, directive):
        with pytest.raises(ScriptDivergenceError) as err:
            parse_script(f"round\n{directive}\n")
        assert err.value.args[0].startswith("line 2: ")

    @pytest.mark.parametrize("directive", ["d 0", "d 1 0 -2", "p 0 3"])
    def test_literal_zero_rejected(self, directive):
        with pytest.raises(ScriptDivergenceError, match=r"^line 2: 0 is not a literal$"):
            parse_script(f"round\n{directive}\n")

    def test_learn_index_beyond_the_sequence_is_a_divergence(self):
        f = generate(FamilySpec("equality", 2))
        text = serialize_script(equality_script(2)).replace("index:1", "index:99", 1)
        with pytest.raises(ScriptDivergenceError, match=r"^round \d+: learn index:99 is beyond"):
            replay(f, parse_script(text), ASS_R_ORD, RED)
