"""Cross-module properties promised by the calculus."""

from __future__ import annotations

import random

import pytest

from qcdcl_lab import (
    Trail,
    dump_trail,
    learnable_sequence,
    propagate_to_fixpoint,
)
from qcdcl_lab.formula import Prefix, QCNF, EXISTS, make_clause
from qcdcl_lab.learning import asserting_time
from qcdcl_lab.solver import SolverConfig, solve
from qcdcl_lab.trail import ANY_ORD, ASS_ORD, ASS_R_ORD, LEV_ORD, NO_RED, RED

from conftest import random_small_qcnf
from test_trail import unit_scan


def purely_existential(rng, max_vars=6):
    nvars = rng.randint(2, max_vars)
    prefix = Prefix([(EXISTS, range(1, nvars + 1))])
    clauses = []
    for _ in range(rng.randint(2, 10)):
        chosen = rng.sample(range(1, nvars + 1), rng.randint(1, min(3, nvars)))
        clauses.append(make_clause(prefix, [v * rng.choice((1, -1)) for v in chosen]))
    return QCNF(prefix, clauses)


def test_red_and_no_red_scans_coincide_without_universals():
    rng = random.Random(31)
    for _ in range(60):
        f = purely_existential(rng)
        red = propagate_to_fixpoint(f, Trail(ANY_ORD, RED))
        no_red = propagate_to_fixpoint(f, Trail(ANY_ORD, NO_RED))
        assert dump_trail(red) == dump_trail(no_red)
        assert unit_scan(f, red).entries == unit_scan(f, no_red).entries


def test_fixpoint_leaves_no_unit_or_conflict():
    rng = random.Random(32)
    for _ in range(60):
        f = random_small_qcnf(rng)
        for policy in (RED, NO_RED):
            trail = Trail(LEV_ORD, policy)
            propagate_to_fixpoint(f, trail)
            if not trail.conflicted:
                assert unit_scan(f, trail).entries == ()


def test_lev_ord_decision_levels_never_decrease():
    rng = random.Random(33)
    seen = 0
    for _ in range(40):
        f = random_small_qcnf(rng)
        result = solve(f.copy(), SolverConfig(LEV_ORD, RED, max_conflicts=4 ** f.num_vars))
        if result.proof is None:
            continue
        for rnd in result.proof.rounds:
            levels = [f.prefix.level(d) for d in rnd.trail.decisions()]
            assert levels == sorted(levels)
            seen += 1
    assert seen > 20


@pytest.mark.parametrize(
    "decision,propagation",
    [(ASS_ORD, NO_RED), (ASS_R_ORD, RED)],
)
def test_asserting_clause_exists_when_empty_absent(decision, propagation):
    # On fully natural conflicting trails of the two asserting-friendly
    # systems, the analysis sequence contains the empty clause or an
    # asserting element.
    rng = random.Random(34)
    checked = 0
    for _ in range(150):
        f = random_small_qcnf(rng, max_vars=7, max_clauses=10)
        work = f.copy()
        trail = Trail(decision, propagation)
        propagate_to_fixpoint(work, trail)
        while not trail.conflicted:
            from qcdcl_lab import legal_decisions

            legal = legal_decisions(trail, work)
            if not legal:
                break
            lit = min(legal, key=lambda l: (work.prefix.level(l), abs(l), -l))
            trail.append_decision(lit)
            propagate_to_fixpoint(work, trail)
        if not trail.conflicted:
            continue
        seq = learnable_sequence(trail, work)
        has_empty = any(c.is_empty() for c in seq.elements)
        has_asserting = any(
            asserting_time(m, trail, work) is not None
            for m in seq.masks
            if m != (0, 0, 0)
        )
        assert has_empty or has_asserting, (decision, propagation, f.clauses)
        checked += 1
    assert checked > 40


def test_asserting_learns_are_new_clauses_on_natural_trails():
    # With restarts after every conflict each trail is fully natural, so a
    # learned asserting clause never repeats an existing one.
    rng = random.Random(35)
    checked = 0
    for _ in range(150):
        f = random_small_qcnf(rng, max_vars=6, max_clauses=9)
        work = f.copy()
        for _ in range(30):
            trail = Trail(ASS_ORD, NO_RED)
            propagate_to_fixpoint(work, trail)
            while not trail.conflicted:
                from qcdcl_lab import legal_decisions

                legal = legal_decisions(trail, work)
                if not legal:
                    break
                trail.append_decision(min(legal, key=lambda l: (abs(l), -l)))
                propagate_to_fixpoint(work, trail)
            if not trail.conflicted:
                break
            from qcdcl_lab import ASSERTING, pick_learned

            seq = learnable_sequence(trail, work)
            picked = pick_learned(ASSERTING, seq, trail, work)
            is_asserting = picked.clause.is_empty() or (
                asserting_time(seq.masks[picked.index], trail, work) is not None
            )
            _, duplicate = work.add_clause(picked.clause)
            if is_asserting:
                assert duplicate is False
                checked += 1
            if picked.clause.is_empty():
                break
    assert checked > 50


def test_trail_dump_format(example_phi):
    trail = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, NO_RED))
    from qcdcl_lab import decide

    decide(trail, 1, example_phi)
    propagate_to_fixpoint(example_phi, trail)
    assert dump_trail(trail) == "P -3 1\nD 1\nP 4 2\nK 3\n"
