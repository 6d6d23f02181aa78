"""Differential tests: the watched-literal propagation engine against the
rescanning loop it replaced.

The oracle below takes one full ``unit_scan`` per propagated literal and
applies the choice rule literally. Whole runs (solve, replay, simulation)
are repeated with the oracle patched in, and must give the same status,
the same ``dump_trail`` in every round and the same backtrack targets.
"""

from __future__ import annotations

import itertools
import random
import sys
from collections import deque

import pytest

from qcdcl_lab import (
    FamilySpec,
    SolverConfig,
    dump_trail,
    generate,
    glue_qcdcl_proof,
    parse_qdimacs,
    replay,
    solve,
)
from qcdcl_lab.errors import PendingPropagationError, QcdclError, ScriptDivergenceError
from qcdcl_lab.formula import (EXISTS, FORALL, QCNF, Clause, Prefix, clause_masks, make_clause,
                               masks_clause)
from qcdcl_lab.goldens import equality_script, lonsing_script, qparity_script, trapdoor_script
from qcdcl_lab.learning import ASSERTING, learn
from qcdcl_lab.simulation import run_simulation
from qcdcl_lab.trail import (
    ANY_ORD,
    ASS_R_ORD,
    LEV_ORD,
    NO_RED,
    RED,
    Trail,
    _Watches,
    clause_status,
    decide,
    legal_bits,
    legal_decisions,
    propagate_to_fixpoint,
    validate_trail,
)

from conftest import ALL_POLICY_PAIRS, last_time, random_small_qcnf
from test_trail import reference_validate_trail, unit_scan

ENGINE_USERS = (
    "qcdcl_lab.solver", "qcdcl_lab.replay", "qcdcl_lab.simulation", "qcdcl_lab.trail"
)


def rescan_to_fixpoint(qcnf, trail, forced=None):
    """Reference engine: rescan every clause before each propagation."""
    while not trail.conflicted:
        scan = unit_scan(qcnf, trail)
        if scan.conflict_present:
            trail.append_conflict(min(scan.conflicts()))
            return trail
        units = scan.units()
        if not units:
            return trail
        if forced and (forced[0][1], forced[0][0]) in units:
            lit, cid = forced.popleft()
        else:
            cid, lit = min(units)
            if forced and abs(lit) == abs(forced[0][0]):
                raise ScriptDivergenceError(
                    f"literal {forced[0][0]} would be assigned via clause {cid}, "
                    f"not the scripted antecedent {forced[0][1]}"
                )
        trail.append_propagation(lit, cid)
    return trail


def outcome(run):
    """What a run must reproduce: its status (or error type) and, per
    round, the trail dump and the backtrack target."""
    try:
        status, rounds = run()
    except QcdclError as exc:
        return type(exc).__name__, []
    return status, [(dump_trail(r.trail), r.backtrack) for r in rounds]


def both_engines(monkeypatch, run):
    """The outcome of ``run`` under the watched engine and under the oracle."""
    watched = outcome(run)
    with monkeypatch.context() as m:
        for module in ENGINE_USERS:
            m.setattr(sys.modules[module], "propagate_to_fixpoint", rescan_to_fixpoint)
        rescanned = outcome(run)
    return watched, rescanned


def solve_run(f, d, r):
    def run():
        result = solve(f.copy(), SolverConfig(d, r, max_conflicts=4 ** f.num_vars))
        return result.status, result.proof.rounds if result.proof else []
    return run


def test_solver_runs_match_the_rescanning_engine(monkeypatch):
    """A seeded slice of the criterion-01 corpus under all six pairs."""
    rng = random.Random(20260809)
    corpus = [random_small_qcnf(rng, max_vars=8, max_clauses=12) for _ in range(120)]
    for i, f in enumerate(corpus):
        for d, r in ALL_POLICY_PAIRS:
            watched, rescanned = both_engines(monkeypatch, solve_run(f, d, r))
            assert watched == rescanned, (i, d, r)


def test_golden_replays_match_the_rescanning_engine(monkeypatch):
    cases = [("qparity", n, qparity_script, LEV_ORD, RED) for n in (2, 3, 6, 9)]
    cases += [("equality", n, equality_script, ASS_R_ORD, RED) for n in (2, 3, 5, 8)]
    cases += [("trapdoor", n, trapdoor_script, LEV_ORD, NO_RED) for n in (2, 3)]
    cases += [("lonsing", n, lonsing_script, ASS_R_ORD, RED) for n in (2, 3, 4)]
    for family, n, script, d, r in cases:
        f = generate(FamilySpec(family, n))

        def run():
            proof = replay(f, script(n), d, r)
            return "refuted", proof.rounds

        watched, rescanned = both_engines(monkeypatch, run)
        assert watched == rescanned, (family, n)
        assert watched[0] == "refuted", (family, n)


def test_simulations_match_the_rescanning_engine(monkeypatch):
    """The simulation continues backtracked trails, which carry no watch
    state, so fresh state is built mid-trail."""
    for family, n, d in (("php", 3, ANY_ORD), ("qparity", 4, LEV_ORD)):
        f = generate(FamilySpec(family, n))
        derivation = glue_qcdcl_proof(f, solve(f, SolverConfig(d, NO_RED)).proof)

        def run():
            return "refuted", run_simulation(f, derivation).rounds

        watched, rescanned = both_engines(monkeypatch, run)
        assert watched == rescanned, family


def test_random_walks_with_added_clauses_and_copies():
    """One trail is extended by decisions, clause additions (possibly unit or
    falsified on arrival, possibly with merged universals), copies (a
    backtrack to the trail's own last time) and backtracks; after every
    step the engine's trail equals the oracle's. Before each propagation
    ``decide`` must refuse exactly when the oracle's scan finds a unit or a
    conflict; when it accepts, the oracle's trail takes the same decision.
    Before every step and after every propagation the database's trail
    check, which shares the database's watch states with propagation,
    agrees with the rescanning reference on the oracle's trail."""
    rng = random.Random(11)
    for _ in range(400):
        f = random_small_qcnf(rng, max_vars=8, max_clauses=10)
        for d, r in ALL_POLICY_PAIRS:
            fa, fb = f.copy(), f.copy()
            ta, tb = Trail(d, r), Trail(d, r)
            variables = sorted(f.prefix.variables)
            for _step in range(12):
                assert validate_trail(fa, ta) == reference_validate_trail(fb, tb), (d, r)
                pending = bool(unit_scan(fb, tb).entries)
                legal = sorted(legal_decisions(ta, fa))
                if legal:
                    try:
                        decide(ta, legal[0], fa)
                    except PendingPropagationError:
                        assert pending, (d, r)
                    else:
                        assert not pending, (d, r)
                        tb.append_decision(legal[0])
                propagate_to_fixpoint(fa, ta)
                rescan_to_fixpoint(fb, tb)
                assert dump_trail(ta) == dump_trail(tb), (d, r)
                assert validate_trail(fa, ta) == reference_validate_trail(fb, tb), (d, r)
                if ta.conflicted:
                    break
                move = rng.random()
                if move < 0.3:
                    chosen = rng.sample(variables, rng.randint(1, min(3, len(variables))))
                    merged = [v for v in chosen[1:] if f.prefix.is_universal(v)]
                    lits = [v * rng.choice((1, -1)) for v in chosen if v not in merged]
                    c = make_clause(f.prefix, lits, merged)
                    fa.add_clause(c)
                    fb.add_clause(c)
                elif move < 0.4:
                    ta, tb = ta.backtrack(last_time(ta)), tb.backtrack(last_time(tb))
                elif move < 0.5 and ta.last_level > 0:
                    time = (rng.randint(0, ta.last_level - 1), 0)
                    ta, tb = ta.backtrack(time), tb.backtrack(time)
                else:
                    legal = sorted(legal_decisions(ta, fa))
                    if not legal:
                        break
                    lit = rng.choice(legal)
                    ta.append_decision(lit)
                    tb.append_decision(lit)


def random_clause(rng, f, variables):
    """A clause of one to three literals, possibly with merged universals."""
    chosen = rng.sample(variables, rng.randint(1, min(3, len(variables))))
    merged = [v for v in chosen[1:] if f.prefix.is_universal(v)]
    lits = [v * rng.choice((1, -1)) for v in chosen if v not in merged]
    return make_clause(f.prefix, lits, merged)


def check_watch_state(w):
    """Each attached clause is in ``sat`` exactly when it is satisfied, in
    ``pending`` when unit or falsified, and otherwise among the watchers of
    every literal ``clause_status`` keeps it open with."""
    rank = w.prefix.rank
    for cid in range(w.attached):
        status = clause_status(w.masks[cid], w.true, w.false, w.prefix, w.policy)
        assert bool(w.sat >> cid & 1) == (status is None), (cid, status)
        if status.__class__ is int:
            assert w.pending >> cid & 1, (cid, status)
        elif status is not None:
            for lit in status:
                assert w.watchers[rank[lit]] >> cid & 1, (cid, lit)


def test_watch_state_invariants_over_random_walks(monkeypatch):
    """White-box: the walks of ``test_random_walks_with_added_clauses_and_copies``
    (decisions, clause additions between calls, copies and backtracks), with
    every watch state checked after every ``catch_up`` and every state
    ``_trail_watches`` hands out checked too, and found caught up with its
    trail and the database. Half the trail checks are skipped, so that the
    database often still serves the trail when a clause is added, and
    attaches it under the trail's assignment."""
    original = _Watches.catch_up
    trail_module = sys.modules["qcdcl_lab.trail"]
    original_watches = trail_module._trail_watches
    checked = []

    def catch_up(self, entries):
        original(self, entries)
        check_watch_state(self)
        checked.append(self.attached)

    def trail_watches(qcnf, trail):
        w = original_watches(qcnf, trail)
        assert (w.cursor, w.attached) == (len(trail.entries), len(qcnf.masks))
        check_watch_state(w)
        checked.append(w.attached)
        return w

    monkeypatch.setattr(_Watches, "catch_up", catch_up)
    monkeypatch.setattr(trail_module, "_trail_watches", trail_watches)
    rng = random.Random(11)
    for _ in range(150):
        f = random_small_qcnf(rng, max_vars=8, max_clauses=10)
        variables = sorted(f.prefix.variables)
        for d, r in ALL_POLICY_PAIRS:
            work, trail = f.copy(), Trail(d, r)
            for _step in range(12):
                if rng.random() < 0.5:
                    validate_trail(work, trail)
                legal = sorted(legal_decisions(trail, work))
                if legal:
                    try:
                        decide(trail, legal[0], work)
                    except PendingPropagationError:
                        pass
                propagate_to_fixpoint(work, trail)
                if rng.random() < 0.5:
                    validate_trail(work, trail)
                if trail.conflicted:
                    break
                move = rng.random()
                if move < 0.3:
                    work.add_clause(random_clause(rng, f, variables))
                elif move < 0.4:
                    trail = trail.backtrack(last_time(trail))
                elif move < 0.5 and trail.last_level > 0:
                    trail = trail.backtrack((rng.randint(0, trail.last_level - 1), 0))
                else:
                    legal = sorted(legal_decisions(trail, work))
                    if not legal:
                        break
                    trail.append_decision(rng.choice(legal))
    assert len(checked) > 10_000


def reference_occurrences(f):
    """The occurrence index of ``f``'s clauses, built from scratch."""
    rank = f.prefix.rank
    occ = [0] * (2 * len(f.prefix.ranked))
    for cid, c in enumerate(f.clauses):
        for lit in c.all_literals():
            occ[2 * rank[lit] + (lit < 0)] |= 1 << cid
    return occ


def test_the_database_fills_its_masks_and_occurrences_as_clauses_enter():
    """Construction, each ``add_clause`` (a duplicate and a clause with a
    merged universal among them) and an add on a copy leave the clause
    masks and the occurrence index equal to a rebuild, before anything has
    propagated or checked a trail; a clause naming a variable outside the
    prefix is refused and changes nothing."""

    def assert_rebuilt(f):
        assert f.watches == {}
        assert f.masks == [clause_masks(f.prefix, c.lits, c.merged) for c in f.clauses]
        assert f.occ == reference_occurrences(f)

    f = parse_qdimacs("p cnf 4 2\ne 1 0\na 2 0\ne 3 4 0\n1 2 3 0\n-1 -2 4 0\n")
    assert_rebuilt(f)
    added = [(f.clauses[1], (2, True)),
             (make_clause(f.prefix, [-3], merged=[2]), (3, False)),
             (make_clause(f.prefix, [1, -4]), (4, False))]
    for c, expected in added:
        assert f.add_clause(c) == expected
        assert_rebuilt(f)
    assert (f.id_of(f.masks[1]), f.id_of(clause_masks(f.prefix, [1, 4]))) == (1, None)
    g = f.copy()
    assert g.add_clause(make_clause(g.prefix, [-1, 3])) == (5, False)
    assert_rebuilt(f)
    assert_rebuilt(g)
    assert len(g.clauses) == len(f.clauses) + 1
    state = (f.clauses[:], f.masks[:], f.occ[:])
    for c in (Clause((1, 99)), Clause((3,), merged=(98,))):
        with pytest.raises(ValueError, match=r"^variable 9\d not bound by the prefix$"):
            f.add_clause(c)
        assert (f.clauses, f.masks, f.occ) == state


def test_the_database_identifies_clauses_by_their_masks():
    """Literal order and repeated literals do not make a new clause; an
    existential merge is refused and changes nothing; a matrix clause is
    tautological by its masks, however its literals are written."""
    f = parse_qdimacs("p cnf 4 2\ne 1 0\na 2 0\ne 3 4 0\n1 2 0\n-1 3 4 0\n")
    assert f.add_clause(Clause((2, 1))) == (2, True)
    assert f.add_clause(Clause((4, -1, 3, 4))) == (3, True)
    assert f.add_clause(Clause((3, 2, -2))) == (4, False)
    assert f.add_clause(make_clause(f.prefix, [3], merged=[2])) == (5, True)
    assert f.id_of(clause_masks(f.prefix, [2, 1, 2])) == 0
    state = (f.clauses[:], f.masks[:], f.occ[:])
    with pytest.raises(ValueError, match=r"^existential variable 4 cannot be merged$"):
        f.add_clause(Clause((1,), merged=(4,)))
    assert (f.clauses, f.masks, f.occ) == state
    for c in (Clause((3, 2, -2)), Clause((3,), merged=(2,))):
        with pytest.raises(ValueError, match=r"^matrix clauses must be non-tautological$"):
            QCNF(f.prefix, [c])


def test_copies_do_not_share_the_occurrence_index():
    """A clause learned on a copy and propagated there leaves the original's
    clause masks and occurrence index describing exactly its own clauses,
    and propagation on the original still matches the rescanning engine."""
    rng = random.Random(26)
    learned = 0
    for _ in range(60):
        f = random_small_qcnf(rng, max_vars=8, max_clauses=12)
        for d, r in ALL_POLICY_PAIRS:
            result = solve(f.copy(), SolverConfig(d, r, max_conflicts=4 ** f.num_vars))
            if result.proof is None or not result.proof.rounds:
                continue
            trail = result.proof.rounds[0].trail
            g = f.copy()
            learn(ASSERTING, trail, g, [])
            propagate_to_fixpoint(g, Trail(d, r))
            learned += 1
            assert len(g.clauses) == len(f.clauses) + 1
            assert f.masks == [clause_masks(f.prefix, c.lits, c.merged) for c in f.clauses]
            assert f.occ == reference_occurrences(f)
            assert g.occ == reference_occurrences(g)
            ta = propagate_to_fixpoint(f, Trail(d, r))
            tb = rescan_to_fixpoint(f.copy(), Trail(d, r))
            assert dump_trail(ta) == dump_trail(tb), (d, r)
    assert learned > 100


def test_place_classifies_every_clause_as_clause_status_does():
    """Every clause over a 5-variable, 3-level prefix (each variable absent,
    positive, negative or, if universal, merged), under every assignment and
    both policies: ``place`` puts a clause in ``sat`` exactly when
    ``clause_status`` finds it satisfied, in ``pending`` exactly when it is
    unit or falsified, and otherwise among exactly the watchers of the
    variables of the literals ``clause_status`` returns."""
    prefix = Prefix([(EXISTS, [4, 2]), (FORALL, [5, 1]), (EXISTS, [3])])
    ranked, rank = prefix.ranked, prefix.rank
    every = []
    for signs in itertools.product((0, 1, -1, 2), repeat=len(ranked)):
        if any(sign == 2 and prefix.is_existential(v) for v, sign in zip(ranked, signs)):
            continue
        every.append(clause_masks(prefix, [sign * v for v, sign in zip(ranked, signs) if sign in (1, -1)],
                                  [v for v, sign in zip(ranked, signs) if sign == 2]))
    f = QCNF(prefix, [])
    for masks in every:
        f.add_clause(masks_clause(prefix, masks))
    assert f.masks == every and len(every) == 3 ** 3 * 4 ** 2
    for values in itertools.product((None, True, False), repeat=len(ranked)):
        true = sum(1 << i for i, value in enumerate(values) if value is True)
        false = sum(1 << i for i, value in enumerate(values) if value is False)
        for policy in (RED, NO_RED):
            w = _Watches(f, policy)
            w.true, w.false = true, false
            w.place((1 << len(every)) - 1)
            sat = pending = 0
            watchers = [0] * len(ranked)
            for cid, masks in enumerate(every):
                status = clause_status(masks, true, false, prefix, policy)
                if status is None:
                    sat |= 1 << cid
                elif status.__class__ is int:
                    pending |= 1 << cid
                else:
                    for lit in status:
                        watchers[rank[lit]] |= 1 << cid
            assert (w.sat, w.pending, w.watchers) == (sat, pending, watchers), (values, policy)


def test_a_served_trail_with_nothing_new_is_not_caught_up(monkeypatch):
    """Repeated ``legal_bits`` calls on a trail just propagated make no
    ``catch_up`` call; a clause added between two calls is still attached
    by the next one, and propagation takes it. A fresh trail forks the
    empty trail's state: after a clause was added, that state alone is
    caught up, once; with no clause added since, nothing is."""
    calls, states = [], []
    original = _Watches.catch_up

    def catch_up(self, entries):
        calls.append(len(entries))
        states.append(self)
        original(self, entries)

    monkeypatch.setattr(_Watches, "catch_up", catch_up)
    f = parse_qdimacs("p cnf 3 1\ne 1 2 3 0\n1 2 3 0\n")
    for policy in (RED, NO_RED):
        work = f.copy()
        trail = Trail(ANY_ORD, policy)
        trail.append_decision(-1)
        propagate_to_fixpoint(work, trail)
        calls.clear()
        bits = legal_bits(trail, work)
        assert legal_bits(trail, work) == bits and calls == []
        work.add_clause(make_clause(work.prefix, [1, -2]))   # unit on arrival
        assert legal_bits(trail, work) == bits and calls == [1]
        assert work.watches[policy][2].pending == 0b10
        propagate_to_fixpoint(work, trail)
        assert dump_trail(trail) == "D -1\nP -2 1\nP 3 0\n"
        calls.clear()
        states.clear()
        legal_bits(Trail(ANY_ORD, policy), work)
        assert calls == [0] and states == [work.watches[policy][0]]
        calls.clear()
        legal_bits(Trail(ANY_ORD, policy), work)
        assert calls == []


def test_clause_added_between_calls_is_seen_at_once():
    f = parse_qdimacs("p cnf 3 1\ne 1 2 3 0\n1 2 3 0\n")
    for policy in (RED, NO_RED):
        work = f.copy()
        trail = Trail(ANY_ORD, policy)
        propagate_to_fixpoint(work, trail)
        trail.append_decision(-1)
        propagate_to_fixpoint(work, trail)
        assert dump_trail(trail) == "D -1\n"
        work.add_clause(make_clause(work.prefix, [1, -2]))   # unit on arrival
        propagate_to_fixpoint(work, trail)
        assert dump_trail(trail) == "D -1\nP -2 1\nP 3 0\n"
        work.add_clause(make_clause(work.prefix, [1, -3]))   # falsified on arrival
        propagate_to_fixpoint(work, trail)
        assert dump_trail(trail).endswith("P 3 0\nK 2\n")


def test_universal_watches_follow_each_policy():
    """(x u y) with x < u < y: once x and y are false, reduction removes u
    and the clause is a conflict under RED; without reduction it waits."""
    f = parse_qdimacs("p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 2 3 0\n-1 0\n")
    red, no_red = Trail(ANY_ORD, RED), Trail(ANY_ORD, NO_RED)
    for trail in (red, no_red):
        propagate_to_fixpoint(f, trail)
        trail.append_decision(-3)
        propagate_to_fixpoint(f, trail)
    assert dump_trail(red) == "P -1 1\nD -3\nK 0\n"
    assert dump_trail(no_red) == "P -1 1\nD -3\n"
    no_red.append_decision(-2)
    propagate_to_fixpoint(f, no_red)
    assert dump_trail(no_red) == "P -1 1\nD -3\nD -2\nK 0\n"


def test_merged_variables_watch_under_each_policy():
    """A learned (y u*) with x < u < y: under RED the merged u sits below y,
    so y false falsifies the clause; under NO-RED u keeps it open."""
    f = parse_qdimacs("p cnf 3 1\ne 1 0\na 2 0\ne 3 0\n1 3 0\n")
    for policy, expect in ((RED, "D -3\nK 1\n"), (NO_RED, "D -3\nP 1 0\n")):
        work = f.copy()
        work.add_clause(make_clause(work.prefix, [3], merged=[2]))
        trail = Trail(ANY_ORD, policy)
        propagate_to_fixpoint(work, trail)
        trail.append_decision(-3)
        propagate_to_fixpoint(work, trail)
        assert dump_trail(trail) == expect, policy


FORCED_FORMULA = "p cnf 3 4\ne 1 2 3 0\n1 0\n-1 2 0\n-1 -2 0\n1 3 0\n"


@pytest.mark.parametrize("forced", [
    [(1, 0)],              # the lowest unit, named explicitly
    [(1, 0), (-2, 2)],     # a later clause instead of the lowest unit
    [(1, 0), (3, 99)],     # a clause id that does not exist: left unused
    [(1, 0), (-2, -2)],    # a negative id does not count from the end: divergence
    [(3, 3)],              # never unit: left unused
    [(1, 3)],              # clause 3 never forces 1: divergence
])
def test_forced_overrides_match_the_rescanning_engine(forced):
    f = parse_qdimacs(FORCED_FORMULA)
    results = []
    for engine in (propagate_to_fixpoint, rescan_to_fixpoint):
        queue = deque(forced)
        trail = Trail(LEV_ORD, NO_RED)
        try:
            engine(f, trail, forced=queue)
        except ScriptDivergenceError as exc:
            results.append(("divergence", str(exc)))
        else:
            results.append((dump_trail(trail), list(queue)))
    assert results[0] == results[1]


def test_forced_override_taken_over_a_lower_unit():
    f = parse_qdimacs(FORCED_FORMULA)
    queue = deque([(1, 0), (-2, 2)])
    trail = propagate_to_fixpoint(f, Trail(LEV_ORD, NO_RED), forced=queue)
    assert dump_trail(trail) == "P 1 0\nP -2 2\nK 1\n" and not queue


def test_two_trails_extended_in_turns_match_the_rescanning_engine():
    """Two trails on one database are extended in a random order of turns,
    by decisions, propagation and clause additions, so the trail whose
    watch state the database keeps switches back and forth (a switch forks
    the empty trail's state and replays the trail). After every turn the
    trail equals the oracle's, which rescans a copy of the database."""
    rng = random.Random(15)
    for _ in range(150):
        f = random_small_qcnf(rng, max_vars=8, max_clauses=10)
        variables = sorted(f.prefix.variables)
        for d, r in ALL_POLICY_PAIRS:
            fa, fb = f.copy(), f.copy()
            pairs = [(Trail(d, r), Trail(d, r)) for _ in range(2)]
            for turn in range(16):
                ta, tb = pairs[rng.randrange(2)]
                propagate_to_fixpoint(fa, ta)
                rescan_to_fixpoint(fb, tb)
                assert dump_trail(ta) == dump_trail(tb), (d, r, turn)
                if rng.random() < 0.3:
                    chosen = rng.sample(variables, rng.randint(1, min(3, len(variables))))
                    merged = [v for v in chosen[1:] if f.prefix.is_universal(v)]
                    lits = [v * rng.choice((1, -1)) for v in chosen if v not in merged]
                    c = make_clause(f.prefix, lits, merged)
                    fa.add_clause(c)
                    fb.add_clause(c)
                elif not ta.conflicted:
                    legal = sorted(legal_decisions(ta, fa))
                    if legal:
                        lit = rng.choice(legal)
                        decide(ta, lit, fa)
                        tb.append_decision(lit)
