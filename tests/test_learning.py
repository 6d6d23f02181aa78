from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import qcdcl_lab.learning as learning
from qcdcl_lab import (
    ANY_ORD,
    ASSERTING,
    DEC,
    LEV_ORD,
    NO_RED,
    RED,
    Trail,
    asserting_time,
    check_derivation,
    decide,
    learnable_sequence,
    parse_qdimacs,
    pick_learned,
    propagate_to_fixpoint,
    replay,
)
from qcdcl_lab.errors import IllegalTautologyError, InternalTautologyError, QcdclError
from qcdcl_lab.families import FamilySpec, generate
from qcdcl_lab.formula import LDQRES, QRES, Clause, clause_masks, make_clause
from qcdcl_lab.goldens import qparity_script
from qcdcl_lab.learning import LearningScheme, learn
from qcdcl_lab.proofs import AXIOM, REDUCE, RESOLVE, ProofStep
from qcdcl_lab.solver import SolverConfig, solve

from conftest import (ALL_PAIRS_FALSE, assignment_of, corpus_cases, entry_times, random_small_qcnf,
                      trail_corpus)
from test_formula import reference_reduce
from test_proofs import reference_resolve_clauses
from test_trail import reference_classify


def red_example_trail(qcnf):
    return propagate_to_fixpoint(qcnf, Trail(LEV_ORD, RED))


def nored_example_trail(qcnf):
    t = propagate_to_fixpoint(qcnf, Trail(LEV_ORD, NO_RED))
    decide(t, 1, qcnf)
    return propagate_to_fixpoint(qcnf, t)


class TestWorkedSequences:
    def test_sequence_with_reduction(self, example_phi):
        seq = learnable_sequence(red_example_trail(example_phi), example_phi)
        assert seq.elements == [Clause((-1, -4)), Clause((-1,)), Clause((2, 3)), Clause()]

    def test_sequence_without_reduction(self, example_phi):
        seq = learnable_sequence(nored_example_trail(example_phi), example_phi)
        assert [c.lits for c in seq.elements] == [(-1, -4), (-1,), (-1,)]
        # last two elements coincide: the final pivot does not occur
        assert seq.elements[1] == seq.elements[2]

    def test_all_copy_steps_constant_sequence(self):
        # both falsified literals are decisions: nothing to resolve against
        f = parse_qdimacs(ALL_PAIRS_FALSE)
        t = Trail(ANY_ORD, NO_RED)
        decide(t, 2, f)
        decide(t, 1, f)
        propagate_to_fixpoint(f, t)
        assert t.conflicted
        seq = learnable_sequence(t, f)
        assert seq.elements == [make_clause(f.prefix, [-1, -2])]

    def test_every_element_falsified_by_the_full_trail(self, example_phi):
        for trail in (red_example_trail(example_phi), nored_example_trail(example_phi)):
            seq = learnable_sequence(trail, example_phi)
            for c in seq.elements:
                # Not satisfied, and nothing left after (under red) reduction.
                assert reference_classify(
                    example_phi.prefix, c, assignment_of(trail), trail.propagation_policy
                ) == (0, False)

    def test_derivations_check_in_their_mode(self, example_phi):
        for trail in (red_example_trail(example_phi), nored_example_trail(example_phi)):
            seq = learnable_sequence(trail, example_phi)
            for i in range(len(seq.elements)):
                d = seq.derivation_for(i)
                assert check_derivation(example_phi, d), (i, d.mode)


class TestAssertingTime:
    def test_unit_clause_asserts_at_the_start(self, example_phi):
        t = nored_example_trail(example_phi)
        assert asserting_time(make_clause(example_phi.prefix, [-1]), t, example_phi) == (0, 0)

    def test_no_asserting_time(self):
        f = parse_qdimacs(ALL_PAIRS_FALSE)
        t = Trail(ANY_ORD, NO_RED)
        decide(t, 2, f)
        decide(t, 1, f)
        propagate_to_fixpoint(f, t)
        assert t.conflicted
        c = make_clause(f.prefix, [-1, -2])
        assert asserting_time(c, t, f) is None

    def test_qparity_learned_clause_asserts_one_level_up(self):
        # The first zig-zag conflict: the learned clause propagates its
        # existential literal once the previous level is re-established.
        n = 4
        f = generate(FamilySpec("qparity", n))
        t = Trail(LEV_ORD, RED)
        for i in range(1, n + 1):
            propagate_to_fixpoint(f, t)
            decide(t, -i, f)
        propagate_to_fixpoint(f, t)
        assert t.conflicted
        seq = learnable_sequence(t, f)
        c_n = seq.elements[1]
        assert c_n == make_clause(f.prefix, [n, 2 * n - 1, n + 1])
        assert asserting_time(c_n, t, f) == (n - 1, 1)

    def test_an_assigned_merged_variable_satisfies_the_clause(self):
        # (u* y) with u < y under reduction: y false leaves only the merged
        # u, which reduces away, unless u was assigned first.
        f = parse_qdimacs("p cnf 3 1\ne 1 0\na 2 0\ne 3 0\n1 3 0\n")
        c = make_clause(f.prefix, [3], merged=[2])
        for decisions, expect in (([2, -3, 1], None), ([-3, 1], (1, 0))):
            t = Trail(ANY_ORD, RED)
            for lit in decisions:
                t.append_decision(lit)
            assert asserting_time(c, t, f) == expect, decisions

    def test_empty_clause_has_no_time(self, example_phi):
        t = red_example_trail(example_phi)
        assert asserting_time(Clause(), t, example_phi) is None


class TestPickLearned:
    def test_dec_takes_the_rightmost(self, example_phi):
        t = red_example_trail(example_phi)
        seq = learnable_sequence(t, example_phi)
        picked = pick_learned(DEC, seq, t, example_phi)
        assert picked.clause.is_empty()

    def test_asserting_prefers_the_empty_clause(self, example_phi):
        t = red_example_trail(example_phi)
        seq = learnable_sequence(t, example_phi)
        picked = pick_learned(ASSERTING, seq, t, example_phi)
        assert picked.clause.is_empty()

    def test_asserting_falls_back_to_rightmost_with_restart(self):
        f = parse_qdimacs(ALL_PAIRS_FALSE)
        t = Trail(ANY_ORD, NO_RED)
        decide(t, 2, f)
        decide(t, 1, f)
        propagate_to_fixpoint(f, t)
        seq = learnable_sequence(t, f)
        picked = pick_learned(ASSERTING, seq, t, f)
        assert picked.clause == make_clause(f.prefix, [-1, -2])
        assert picked.time == (0, 0)

    def test_asserting_times_each_element_once(self, monkeypatch):
        """The asserting scan times the elements from the conflict side up
        to the one it picks, each once, and never times the pick again."""
        timed = []

        def counting(clause, trail, qcnf):
            timed.append(clause)
            return asserting_time(clause, trail, qcnf)

        f = generate(FamilySpec("qparity", 4))
        proof = solve(f.copy(), SolverConfig(LEV_ORD, RED)).proof
        fallback = parse_qdimacs(ALL_PAIRS_FALSE)
        t = Trail(ANY_ORD, NO_RED)
        decide(t, 2, fallback)
        decide(t, 1, fallback)
        propagate_to_fixpoint(fallback, t)
        cases = [(t, fallback, None)] + [
            (rnd.trail, _formula_at(f, proof, rnd), rnd.picked_index)
            for rnd in proof.rounds if not rnd.learned.is_empty()
        ]
        assert len(cases) > 2
        monkeypatch.setattr(learning, "asserting_time", counting)
        for trail, work, index in cases:
            seq = learnable_sequence(trail, work)
            timed.clear()
            picked = pick_learned(ASSERTING, seq, trail, work)
            assert index in (None, picked.index)
            assert timed == seq.elements[: picked.index + 1]

    def test_index_scheme_out_of_range(self, example_phi):
        t = red_example_trail(example_phi)
        seq = learnable_sequence(t, example_phi)
        with pytest.raises(QcdclError, match=r"^learn index:99 is beyond the learnable sequence"):
            pick_learned(LearningScheme("index", 99), seq, t, example_phi)


class TestTautologyDiscipline:
    def test_no_red_sequences_never_tautological(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(120):
            f = random_small_qcnf(rng)
            for policy in (ANY_ORD, LEV_ORD):
                result = solve(
                    f.copy(),
                    SolverConfig(policy, NO_RED, max_conflicts=200),
                )
                if result.proof is None:
                    continue
                for rnd in result.proof.rounds:
                    seq = learnable_sequence(rnd.trail, _formula_at(f, result.proof, rnd))
                    for c in seq.elements:
                        assert not c.merged
                        checked += 1
        assert checked > 50

    def test_red_sequences_only_merge_high_universals(self):
        """Every merged variable of a learnable-sequence element is
        universal, and the element's long-distance derivation checks, so
        each merge sits right of its pivot. The random formulas never
        merge under ``lev-ord/red``; the ``qparity_5`` golden replay does."""
        rng = random.Random(8)
        runs = []
        for _ in range(120):
            f = random_small_qcnf(rng)
            result = solve(f.copy(), SolverConfig(LEV_ORD, RED, max_conflicts=200))
            if result.proof is not None:
                runs.append((f, result.proof))
        f = generate(FamilySpec("qparity", 5))
        runs.append((f, replay(f, qparity_script(5), LEV_ORD, RED)))
        checked = 0
        for f, proof in runs:
            for rnd in proof.rounds:
                work = _formula_at(f, proof, rnd)
                seq = learnable_sequence(rnd.trail, work)
                for i, c in enumerate(seq.elements):
                    if c.merged:
                        assert all(f.prefix.is_universal(v) for v in c.merged)
                        assert check_derivation(work, seq.derivation_for(i))
                        checked += 1
        assert checked > 0


def _formula_at(base, proof, rnd):
    work = base.copy()
    for earlier in proof.rounds:
        if earlier is rnd:
            break
        work.add_clause(earlier.learned)
    return work


def reference_asserting_time(clause, trail, qcnf):
    """The whole-trail walk: the clause is reclassified after every entry
    below the conflict level, whatever variable the entry assigns."""
    if clause.is_empty():
        return None
    policy = trail.propagation_policy
    times = entry_times(trail)
    r = times[-1][0] if times else 0
    if r == 0:
        return None
    assignment = {}
    if reference_classify(qcnf.prefix, clause, assignment, policy)[0] is not None:
        return (0, 0)
    for e, time in zip(trail.entries, times):
        if time[0] >= r:
            break
        assignment[abs(e.lit)] = e.lit > 0
        if reference_classify(qcnf.prefix, clause, assignment, policy)[0] is not None:
            return time
    return None


@given(corpus_cases())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_asserting_time_matches_the_whole_trail_walk(case):
    """Every clause of the formula and, for a conflicting trail, every
    element of its learnable sequence (which may carry merged universals)
    gets the reference's time on a relabelled, mutated copy of the trail."""
    qcnf, original, trail = case
    clauses = list(qcnf.clauses)
    if original.conflicted:
        clauses += learnable_sequence(original, qcnf).elements
    for c in clauses:
        assert asserting_time(c, trail, qcnf) == reference_asserting_time(c, trail, qcnf), c


def _conflicted_corpus():
    return [(qcnf, trail) for qcnf, trail in trail_corpus() if trail.conflicted]


def reference_learnable_sequence(trail, qcnf, scheme=None):
    """The ``Clause`` walk: the running clause as a ``Clause``, resolved by
    the dict pass and reduced by the literal filter, the decided
    existential variables as a set, and the whole-trail asserting times.
    Returns (elements, steps, conclusion ids, times)."""
    mode = LDQRES if trail.propagation_policy == RED else QRES
    prefix = qcnf.prefix
    steps = []

    def add(kind, clause, **kw):
        steps.append(ProofStep(len(steps), kind, clause, **kw))
        return len(steps) - 1

    def reduced_axiom(cid):
        clause = qcnf.clauses[cid]
        sid = add(AXIOM, clause, source=cid)
        red = reference_reduce(clause, prefix)
        if red != clause:
            sid = add(REDUCE, red, src=sid)
        return sid, red

    anchors = {abs(l) for l in trail.decisions() if prefix.is_existential(l)}
    cur_id, cur = reduced_axiom(trail.entries[-1].antecedent)
    elements, conclusions, times = [cur], [cur_id], []
    safe = False
    for entry in reversed(trail.entries[:-1]):
        if entry.is_decision:
            continue
        if scheme is not None and scheme.kind == "index" and len(elements) > scheme.k:
            break
        if scheme == ASSERTING:
            if not safe:
                if cur.is_empty():
                    break
                safe = not anchors.isdisjoint(map(abs, cur.lits))
            if safe:
                for c in elements[len(times):]:
                    times.append(reference_asserting_time(c, trail, qcnf))
                    if times[-1] is not None:
                        break
                if times[-1] is not None:
                    break
        p = entry.lit
        if -p in cur.lits:
            ante_id, ante = reduced_axiom(entry.antecedent)
            try:
                resolvent = reference_resolve_clauses(cur, ante, -p, mode, prefix)
            except IllegalTautologyError as exc:
                raise InternalTautologyError(f"conflict analysis at literal {p}: {exc}") from exc
            cur_id = add(RESOLVE, resolvent, pivot=abs(p), left=cur_id, right=ante_id)
            cur = reference_reduce(resolvent, prefix)
            if cur != resolvent:
                cur_id = add(REDUCE, cur, src=cur_id)
        elements.append(cur)
        conclusions.append(cur_id)
    return elements, steps, conclusions, times


def _assert_same_analysis(qcnf, trail):
    """With no scheme and under ``asserting``, ``dec`` and every
    ``index:k`` (one past any length too), ``learnable_sequence`` builds the
    reference's elements, steps (every field), conclusion ids and times, and
    the ``clause_masks`` of its elements, or fails with the reference's
    error and message. Returns whether the whole walk failed."""
    schemes = [None, ASSERTING, DEC] + [LearningScheme("index", k) for k in range(len(trail) + 1)]
    failed = False
    for scheme in schemes:
        try:
            want = reference_learnable_sequence(trail, qcnf, scheme)
        except QcdclError as exc:
            with pytest.raises(type(exc)) as got:
                learnable_sequence(trail, qcnf, scheme)
            assert str(got.value) == str(exc), scheme
            failed |= scheme is None
            continue
        seq = learnable_sequence(trail, qcnf, scheme)
        assert (seq.elements, seq.steps, seq.conclusion_ids, seq.times) == want, scheme
        assert seq.masks == [clause_masks(qcnf.prefix, c.lits, c.merged) for c in seq.elements]
    return failed


def test_mask_analysis_matches_the_clause_walk():
    """Every conflicted corpus trail, against the ``Clause`` walk."""
    cases = _conflicted_corpus()
    assert len(cases) > 50
    assert not any(_assert_same_analysis(qcnf, trail) for qcnf, trail in cases)


@given(corpus_cases())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_mask_analysis_matches_the_clause_walk_on_mutated_trails(case):
    """The same on relabelled, mutated conflicted copies, whose walks may
    fail: an antecedent without the pivot, or a merge the mode forbids."""
    qcnf, _, trail = case
    if trail.conflicted and trail.entries[-1].antecedent is not None:
        _assert_same_analysis(qcnf, trail)


def test_step_ids_are_positions():
    """``derivation_for`` slices the steps by the conclusion's id, which
    relies on every step's id being its position in the list. No clause
    id is the source of two AXIOM steps: on a valid trail no clause comes
    twice in one analysis, so ``learnable_sequence`` keeps no cache."""
    for qcnf, trail in _conflicted_corpus():
        seq = learnable_sequence(trail, qcnf)
        assert [s.step_id for s in seq.steps] == list(range(len(seq.steps)))
        sources = [s.source for s in seq.steps if s.kind == AXIOM]
        assert len(sources) == len(set(sources))


def _assert_early_stop_agrees(qcnf, trail):
    """Under ``asserting``, ``dec`` and every ``index:k`` (one past the end
    too), ``learn``, whose analysis stops at the pick, learns the clause,
    time, index and derivation that ``pick_learned`` takes from the whole
    walk, after the same ``asserting_time`` calls, and the walk it stops is
    the prefix of the whole one that ends at the pick, or under
    ``asserting`` at the first element with an existential literal on a
    decided variable when that comes later; an out-of-range index fails
    with the same error. Returns whether some scheme stopped before the
    end."""
    timed = []

    def counting(clause, trail, qcnf):
        timed.append(clause)
        return asserting_time(clause, trail, qcnf)

    whole = learnable_sequence(trail, qcnf)
    anchors = {abs(l) for l in trail.decisions() if qcnf.prefix.is_existential(l)}
    safe = next((i for i, c in enumerate(whole.elements)
                 if anchors & {abs(l) for l in c.lits}), len(whole) - 1)
    schemes = [ASSERTING, DEC] + [LearningScheme("index", k) for k in range(len(whole) + 1)]
    stopped_early = False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "asserting_time", counting)
        for scheme in schemes:
            timed.clear()
            try:
                want = pick_learned(scheme, whole, trail, qcnf)
            except QcdclError as exc:
                with pytest.raises(QcdclError) as got:
                    learn(scheme, trail, qcnf.copy(), [])
                assert str(got.value) == str(exc)
                continue
            want_timed = list(timed)
            timed.clear()
            rnd, got = learn(scheme, trail, qcnf.copy(), [])
            assert got == want, scheme
            assert timed == want_timed, scheme
            derivation = whole.derivation_for(want.index)
            assert rnd.derivation.steps == derivation.steps, scheme
            assert rnd.derivation.conclusion == derivation.conclusion
            seq = learnable_sequence(trail, qcnf, scheme)
            last = want.index
            if scheme == ASSERTING and not want.clause.is_empty():
                last = max(last, safe)
            assert len(seq) == last + 1, scheme
            assert seq.elements == whole.elements[: len(seq)]
            assert seq.steps == whole.steps[: len(seq.steps)]
            stopped_early |= len(seq) < len(whole)
    return stopped_early


def test_early_stop_learns_what_the_whole_walk_picks():
    """Every conflicted corpus trail, against the whole walk as oracle."""
    cases = _conflicted_corpus()
    assert len(cases) > 50
    stopped = [_assert_early_stop_agrees(qcnf, trail) for qcnf, trail in cases]
    assert sum(stopped) > len(cases) // 2


@given(corpus_cases())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_early_stop_agrees_on_mutated_trails(case):
    """The same agreement on relabelled, mutated conflicted copies whose
    whole walk succeeds (a mutant may name an antecedent without the
    pivot, which the walk rejects, or leave the conflict without one)."""
    qcnf, _, trail = case
    if not trail.conflicted or trail.entries[-1].antecedent is None:
        return
    try:
        learnable_sequence(trail, qcnf)
    except QcdclError:
        return
    _assert_early_stop_agrees(qcnf, trail)
