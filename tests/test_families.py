from __future__ import annotations

import pytest

from qcdcl_lab import FamilySpec, evaluate_semantics, generate, xt_check
from qcdcl_lab.errors import TooLargeError
from qcdcl_lab.families import instance_size, random_qcnf, trapdoor_size
from qcdcl_lab.formula import EXISTS, FORALL
from qcdcl_lab.qdimacs import parse_qdimacs, serialize_qdimacs

from conftest import PSI_TRUE


def clause_sets(qcnf):
    return {frozenset(c.all_literals()) for c in qcnf.clauses}


class TestGenerators:
    def test_equality_smallest_instance(self):
        f = generate(FamilySpec("equality", 1))
        # x=1, u=2, t=3
        assert clause_sets(f) == {
            frozenset({-3}),
            frozenset({-1, -2, 3}),
            frozenset({1, 2, 3}),
        }
        assert [q for q, _ in f.prefix.blocks] == [EXISTS, FORALL, EXISTS]

    def test_qparity_two(self):
        f = generate(FamilySpec("qparity", 2))
        # x1=1 x2=2 z=3 t2=4
        assert clause_sets(f) == {
            frozenset({1, 2, -4}),
            frozenset({1, -2, 4}),
            frozenset({-1, 2, 4}),
            frozenset({-1, -2, -4}),
            frozenset({4, 3}),
            frozenset({-4, -3}),
        }

    def test_php_smallest(self):
        f = generate(FamilySpec("php", 1, m=2))
        assert clause_sets(f) == {
            frozenset({1}),
            frozenset({2}),
            frozenset({-1, -2}),
        }

    def test_trapdoor_contains_the_pigeonhole_matrix_verbatim(self):
        n = 2
        t = generate(FamilySpec("trapdoor", n))
        s = trapdoor_size(n)
        php = generate(FamilySpec("php", n, m=n + 1))
        shift = s + 2
        shifted = {
            frozenset((l + shift) if l > 0 else (l - shift) for l in cl)
            for cl in clause_sets(php)
        }
        assert shifted <= clause_sets(t)

    def test_lonsing_shape(self):
        f = generate(FamilySpec("lonsing", 2))
        s = trapdoor_size(2)
        xv, cv = s + 3, s + 5
        assert frozenset({xv, cv}) in clause_sets(f)
        assert frozenset({xv, -cv}) in clause_sets(f)

    def test_random_is_deterministic_in_the_seed(self):
        a = random_qcnf(3, 2, 1.5, seed=11)
        b = random_qcnf(3, 2, 1.5, seed=11)
        c = random_qcnf(3, 2, 1.5, seed=12)
        assert serialize_qdimacs(a) == serialize_qdimacs(b)
        assert serialize_qdimacs(a) != serialize_qdimacs(c)

    def test_random_clause_shape(self):
        f = random_qcnf(4, 2, 1.5, seed=3)
        n, m = 4, 2
        per_block = int(1.5 * n)
        assert len(f.clauses) == n * per_block + 1
        for clause in f.clauses[:-1]:
            vs = clause.variables()
            assert sum(1 for v in vs if v <= n * n) == 2          # two X vars
            assert sum(1 for v in vs if n * n < v <= n * n + n * m) == 1
            assert sum(1 for v in vs if v > n * n + n * m) == 1   # the block output

    def test_instance_size_counts_what_generate_builds(self):
        specs = [FamilySpec(family, n) for family in ("qparity", "php", "trapdoor",
                                                      "lonsing", "equality")
                 for n in (2, 3, 4)]
        specs += [FamilySpec("php", 3, m=2), FamilySpec("php", 2, m=5)]
        for spec in specs:
            f = generate(spec)
            assert instance_size(spec) == (f.num_vars, len(f.clauses)), spec

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate(FamilySpec("qparity", 1))
        with pytest.raises(ValueError):
            generate(FamilySpec("random", 3))
        with pytest.raises(ValueError):
            generate(FamilySpec("nosuch", 3))


class TestXtCheck:
    def test_equality_holds(self):
        for n in (2, 3, 5):
            report = xt_check(generate(FamilySpec("equality", n)))
            assert report.applicable and report.holds

    def test_equality_one_fails_on_unit(self):
        report = xt_check(generate(FamilySpec("equality", 1)))
        assert report.applicable and not report.holds
        assert report.counterexample[1] == "unit T-clause"

    def test_random_samples_hold(self):
        for seed in range(10):
            f = random_qcnf(3, 2, 1.5, seed=seed)
            report = xt_check(f)
            assert report.applicable and report.holds

    def test_qparity_fails_with_an_xt_clause(self):
        report = xt_check(generate(FamilySpec("qparity", 3)))
        assert report.applicable and not report.holds
        assert report.counterexample[1] == "XT-clause"

    def test_wrong_shape_not_applicable(self):
        report = xt_check(generate(FamilySpec("trapdoor", 1)))
        assert not report.applicable and not report.holds

    def test_resolvable_t_pair_detected(self):
        text = (
            "p cnf 4 2\n"
            "e 1 0\na 2 0\ne 3 4 0\n"
            "3 4 0\n-3 4 0\n"
        )
        report = xt_check(parse_qdimacs(text))
        assert report.applicable and not report.holds
        assert report.counterexample[1] == "resolvable T-pair"


class TestEvaluate:
    def test_the_true_two_clause_formula(self):
        assert evaluate_semantics(parse_qdimacs(PSI_TRUE)) is True

    def test_qparity_two_is_false(self):
        assert evaluate_semantics(generate(FamilySpec("qparity", 2))) is False

    def test_equality_one_is_false(self):
        assert evaluate_semantics(generate(FamilySpec("equality", 1))) is False

    def test_bound_enforced(self):
        f = generate(FamilySpec("equality", 8))
        with pytest.raises(TooLargeError):
            evaluate_semantics(f, max_vars=20)

    def test_documented_family_members_are_false(self):
        specs = [
            FamilySpec("qparity", 2),
            FamilySpec("qparity", 3),
            FamilySpec("equality", 2),
            FamilySpec("trapdoor", 1),
            FamilySpec("lonsing", 1),
            FamilySpec("php", 1, m=2),
            FamilySpec("php", 2, m=3),
        ]
        for spec in specs:
            f = generate(spec)
            assert evaluate_semantics(f, max_vars=20) is False, spec

    def test_random_regime_mostly_false_and_reported(self):
        false_count = 0
        total = 20
        for seed in range(total):
            f = random_qcnf(2, 1, 1.5, seed=seed)
            if not evaluate_semantics(f, max_vars=12):
                false_count += 1
        # The falsity guarantee is asymptotic; report the observed rate
        # instead of asserting it.
        print(f"random family falsity at n=2,m=1,c=1.5: {false_count}/{total}")
        assert 0 <= false_count <= total
