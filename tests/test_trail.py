from __future__ import annotations

import gc
import random
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdcl_lab import (
    ANY_ORD,
    ASS_ORD,
    ASS_R_ORD,
    LEV_ORD,
    NO_RED,
    RED,
    Trail,
    decide,
    dump_trail,
    legal_decisions,
    parse_qdimacs,
    propagate_to_fixpoint,
    validate_trail,
)
from qcdcl_lab.errors import (
    IllegalDecisionError,
    InvalidTimeError,
    PendingPropagationError,
)
from qcdcl_lab.families import FamilySpec, generate
from qcdcl_lab.formula import EXISTS, FORALL, QCNF, Prefix, clause_masks, make_clause
from qcdcl_lab.solver import SolverConfig, solve
from qcdcl_lab.trail import TrailEntry, _trail_watches, clause_status, decide_in_order, legal_bits

from conftest import (
    assignment_of,
    corpus_cases,
    entry_times,
    last_time,
    random_small_qcnf,
    trail_corpus,
    trail_of,
)


def lits(trail):
    return [e.lit for e in trail.entries]


class TestUnitScan:
    def test_initial_unit_is_found_by_both_policies(self, example_phi):
        for policy in (RED, NO_RED):
            t = Trail(LEV_ORD, policy)
            scan = unit_scan(example_phi, t)
            assert scan.entries == ((1, -3),)
            assert not scan.conflict_present

    def test_reduction_unlocks_a_unit(self, example_phi):
        t = Trail(LEV_ORD, RED)
        t.append_propagation(-3, 1)
        scan = unit_scan(example_phi, t)
        assert (0, 1) in scan.entries   # x forced after dropping the universal

    def test_without_reduction_a_decision_is_needed(self, example_phi):
        t = Trail(LEV_ORD, NO_RED)
        t.append_propagation(-3, 1)
        scan = unit_scan(example_phi, t)
        assert scan.entries == ()

    def test_universal_singleton_is_not_a_unit_without_reduction(self):
        f = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n")
        t = Trail(ANY_ORD, NO_RED)
        t.append_decision(-2)
        scan = unit_scan(f, t)
        assert scan.entries == ()
        t2 = Trail(ANY_ORD, RED)
        t2.append_decision(-2)
        scan2 = unit_scan(f, t2)
        assert scan2.entries == ((0, 0),)   # reduces to the empty clause


class TestPropagate:
    def test_worked_trail_with_reduction(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, RED))
        assert lits(t) == [-3, 1, 4, 0]
        assert [e.antecedent for e in t.entries] == [1, 0, 2, 3]

    def test_worked_trail_without_reduction(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, NO_RED))
        assert lits(t) == [-3]
        decide(t, 1, example_phi)
        propagate_to_fixpoint(example_phi, t)
        assert lits(t) == [-3, 1, 4, 0]
        assert t.entries[1].is_decision

    def test_fixpoint_is_idempotent(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, NO_RED))
        snapshot = lits(t)
        propagate_to_fixpoint(example_phi, t)
        assert lits(t) == snapshot

    def test_deterministic_chooser_reproduces_trails(self):
        f = parse_qdimacs(
            "p cnf 3 3\ne 1 2 3 0\n1 0\n-1 2 0\n-1 3 0\n"
        )
        runs = []
        for _ in range(2):
            t = propagate_to_fixpoint(f, Trail(ANY_ORD, NO_RED))
            runs.append([(e.lit, e.antecedent) for e in t.entries])
        assert runs[0] == runs[1]
        assert runs[0][1] == (2, 1)   # lowest clause id wins among two units


class TestLegalDecisions:
    def test_lev_ord_first_block_only(self):
        f = generate(FamilySpec("qparity", 3))
        t = Trail(LEV_ORD, RED)
        assert legal_decisions(t, f) == [-3, -2, -1, 1, 2, 3]

    def test_ass_r_ord_admits_universal_first(self):
        f = generate(FamilySpec("lonsing", 2))
        t = Trail(ASS_R_ORD, RED)
        s = 6
        assert -(s + 3) in legal_decisions(t, f)   # the first middle-block var

    def test_ass_r_ord_existential_waits_for_every_lower_universal(self):
        # The rule taken literally, on random trails that assign variables
        # by decision or (for universals, malformed) by propagation: an
        # existential is admissible once every lower universal is decided.
        rng = random.Random(5)
        for _ in range(200):
            f = random_small_qcnf(rng)
            prefix = f.prefix
            t = Trail(ASS_R_ORD, NO_RED)
            order = sorted(prefix.variables)
            rng.shuffle(order)
            for v in order:
                decided = {abs(d) for d in t.decisions()}
                admitted = {
                    x for x in prefix.variables - set(assignment_of(t))
                    if prefix.is_universal(x) or all(
                        u in decided for u in prefix.variables
                        if prefix.is_universal(u) and prefix.level(u) < prefix.level(x)
                    )
                }
                assert legal_decisions(t, f) == sorted(l for x in admitted for l in (x, -x))
                if rng.random() < 0.7:
                    t.append_decision(v)
                else:
                    t.append_propagation(v, 0)

    def test_ass_ord_universal_floor_is_monotone(self):
        # e 1 a 2 e 3 a 4: after deciding the level-4 universal, the level-2
        # universal is out, existentials stay in.
        f = parse_qdimacs(
            "p cnf 4 1\ne 1 0\na 2 0\ne 3 0\na 4 0\n1 3 0\n"
        )
        t = Trail(ASS_ORD, NO_RED)
        t.append_decision(4)
        legal = legal_decisions(t, f)
        assert 1 in legal and 3 in legal
        assert 2 not in legal and -2 not in legal

    def test_any_ord_allows_everything(self, example_phi):
        t = Trail(ANY_ORD, RED)
        assert legal_decisions(t, example_phi) == [-4, -3, -2, -1, 1, 2, 3, 4]


class TestDecide:
    def test_level_order_violation(self):
        f = generate(FamilySpec("qparity", 3))
        t = propagate_to_fixpoint(f, Trail(LEV_ORD, RED))
        with pytest.raises(IllegalDecisionError):
            decide(t, -(3 + 2), f)   # a third-block variable before block one

    def test_repeat_decision_rejected(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, NO_RED))
        decide(t, 1, example_phi)
        # Clause 2 is unit now: the repeat is refused before the pending unit.
        with pytest.raises(IllegalDecisionError, match=r"^variable 1 already assigned$"):
            decide(t, -1, example_phi)

    def test_pending_unit_blocks_decisions(self, example_phi):
        t = Trail(LEV_ORD, NO_RED)
        with pytest.raises(PendingPropagationError):
            decide(t, 1, example_phi)

    def test_pending_message_names_the_clause_propagation_takes(self):
        # After deciding 3, clause 0 is unit and clause 1 falsified: the
        # conflict has priority, so the refusal names clause 1.
        f = parse_qdimacs("p cnf 3 2\ne 1 2 3 0\n1 -3 0\n-3 0\n")
        t = Trail(ANY_ORD, NO_RED)
        t.append_decision(3)
        with pytest.raises(PendingPropagationError, match="clause 1 is falsified"):
            decide(t, 2, f)
        assert dump_trail(propagate_to_fixpoint(f, t)) == "D 3\nK 1\n"

    def test_decide_in_order_skips_true_and_stops_at_false_literals(self):
        # Deciding 1 propagates 2 (clause 0), then -3 (clause 1).
        f = parse_qdimacs("p cnf 3 2\ne 1 2 3 0\n-1 2 0\n-1 -3 0\n")
        for decisions, stopped in (([1], None), ([1, 2, -3], None), ([1, 2, 3, -2], 3)):
            t = Trail(ANY_ORD, NO_RED)
            assert decide_in_order(f, propagate_to_fixpoint(f, t), decisions) == stopped
            assert dump_trail(t) == "D 1\nP 2 0\nP -3 1\n", decisions
        t = Trail(ANY_ORD, NO_RED)
        with pytest.raises(IllegalDecisionError, match=r"^variable 99 not bound by the prefix$"):
            decide_in_order(f, propagate_to_fixpoint(f, t), [1, 99])
        assert t.decisions() == [1]

    def test_decide_in_order_stops_at_a_conflict(self):
        # Deciding 1 propagates 2 (clause 0) and falsifies clause 1.
        f = parse_qdimacs("p cnf 2 2\ne 1 2 0\n-1 2 0\n-1 -2 0\n")
        for decisions, stopped in (([1], None), ([1, -2, 99], -2)):
            t = Trail(ANY_ORD, NO_RED)
            assert decide_in_order(f, propagate_to_fixpoint(f, t), decisions) == stopped
            assert dump_trail(t) == "D 1\nP 2 0\nK 1\n", decisions


class TestBacktrack:
    def test_restart_is_empty(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, RED))
        assert lits(t.backtrack((0, 0))) == []

    def test_identity_at_current_end(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, NO_RED))
        decide(t, 1, example_phi)
        propagate_to_fixpoint(example_phi, t)
        back = t.backtrack((1, 2))
        assert lits(back) == lits(t)

    def test_mid_trail_subtrail(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, NO_RED))
        decide(t, 1, example_phi)
        propagate_to_fixpoint(example_phi, t)
        assert lits(t.backtrack((1, 0))) == [-3, 1]
        assert lits(t.backtrack((0, 1))) == [-3]

    def test_invalid_time(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, RED))
        with pytest.raises(InvalidTimeError):
            t.backtrack((5, 1))

    def test_resumed_at(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, NO_RED))
        assert t.resumed_at == (0, 0)
        decide(t, 1, example_phi)
        propagate_to_fixpoint(example_phi, t)
        back = t.backtrack((1, 0))
        assert back.resumed_at == (1, 0)
        assert t.resumed_at == (0, 0)
        assert back.backtrack(last_time(back)).resumed_at == (1, 0)
        assert back.backtrack((0, 0)).resumed_at == (0, 0)


class TestValidator:
    def test_good_trail_passes(self, example_phi):
        t = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, RED))
        assert validate_trail(example_phi, t) == []

    def test_bogus_antecedent_caught(self, example_phi):
        t = Trail(LEV_ORD, RED)
        t.append_propagation(-3, 0)   # clause 0 does not force -3
        assert validate_trail(example_phi, t)

    def test_skipped_propagation_caught(self, example_phi):
        t = Trail(ANY_ORD, NO_RED)
        t.append_decision(1)   # decision while the unit clause is pending
        assert any("skips" in p for p in validate_trail(example_phi, t))

    def test_inherited_prefix_exempt_from_naturality(self, example_phi):
        t = Trail(ANY_ORD, NO_RED)
        t.append_decision(1)
        assert validate_trail(example_phi, t, natural_from=1) == []

    def test_antecedent_ids_outside_the_clause_list_certify_nothing(self):
        # A negative id used to read a clause from the end of the list, and
        # an id past it to raise IndexError.
        f = generate(FamilySpec("qparity", 3))
        trail = solve(f.copy(), SolverConfig(LEV_ORD, RED)).proof.rounds[0].trail
        assert validate_trail(f, trail) == []
        assert (trail.entries[2].lit, trail.entries[2].antecedent) == (-5, 3)
        for cid in (-7, len(f.clauses)):
            entries = list(trail.entries)
            entries[2] = TrailEntry(-5, cid)
            bad = trail_of(entries, (LEV_ORD, RED))
            expected = ["entry 2: antecedent does not certify -5"]
            assert validate_trail(f, bad) == expected
            assert reference_validate_trail(f, bad) == expected

    def test_an_antecedent_id_added_later_is_rechecked(self, example_phi):
        # Clause 4 does not exist at the first check and certifies -3 at
        # the second; between them ``add_clause`` grows the database the
        # shadow's watch state is kept in.
        f = example_phi.copy()
        t = Trail(LEV_ORD, RED)
        t.append_propagation(-3, 4)
        expected = ["entry 0: antecedent does not certify -3"]
        assert validate_trail(f, t, 1) == reference_validate_trail(f, t, 1) == expected
        f.add_clause(f.clauses[1])
        assert validate_trail(f, t, 1) == reference_validate_trail(f, t, 1) == []

    def test_a_clause_added_between_checks_is_watched_on_later_trails(self):
        # Clause 1, (1 -2), is added after the first check. It forces -2
        # after entry 0 of the second trail, and 1 once 2 is decided on
        # the third, so a decision of 3 skips it on both.
        f = parse_qdimacs("p cnf 3 1\ne 1 2 3 0\n1 2 3 0\n")
        pair = (ANY_ORD, NO_RED)
        first = trail_of([TrailEntry(-1, None)], pair)
        assert validate_trail(f, first, 0) == reference_validate_trail(f, first, 0) == []
        f.add_clause(make_clause(f.prefix, [1, -2]))
        expected = ["entry 1: decision skips pending propagation"]
        for entries, natural_from in (((-1, 3), 1), ((2, 3), 0)):
            t = trail_of([TrailEntry(lit, None) for lit in entries], pair)
            assert validate_trail(f, t, natural_from) == expected
            assert reference_validate_trail(f, t, natural_from) == expected

    def test_conflicts_have_priority_after_a_trail_that_satisfied_the_clause(self):
        # The first trail satisfies clause 1, (2 -3), with 2; the second
        # decides -2 and 3 instead, so clause 1 is falsified when it
        # propagates 1 through clause 0, (1 -3). The check must not see
        # the second trail through the watch state of the first.
        f = parse_qdimacs("p cnf 4 2\ne 1 2 3 4 0\n1 -3 0\n2 -3 0\n")
        pair = (ANY_ORD, NO_RED)
        first = trail_of([TrailEntry(4, None), TrailEntry(2, None), TrailEntry(3, None),
                          TrailEntry(1, 0)], pair)
        assert validate_trail(f, first, 0) == reference_validate_trail(f, first, 0) == []
        second = trail_of([TrailEntry(4, None), TrailEntry(-2, None), TrailEntry(3, None),
                           TrailEntry(1, 0)], pair)
        expected = ["entry 3: propagation taken while a conflict exists"]
        assert validate_trail(f, second, 3) == expected
        assert reference_validate_trail(f, second, 3) == expected

    def test_the_database_state_forms_no_reference_cycle(self, example_phi):
        # The watch states a QCNF keeps hold its clause list, masks and
        # prefix, not the QCNF, so dropping the QCNF frees them without the
        # cycle collector.
        f = example_phi.copy()
        t = propagate_to_fixpoint(f, Trail(LEV_ORD, RED))
        assert validate_trail(f, t) == []
        refs = [weakref.ref(x) for x in (f, *f.watches[RED][::2])]
        gc.disable()
        try:
            del f
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_unbound_variable_is_a_problem_and_ends_the_walk(self):
        f = parse_qdimacs("p cnf 3 2\ne 1 2 0\na 3 0\n1 2 0\n-1 3 0\n")
        decided = Trail(ASS_ORD, NO_RED)
        for lit in (2, 9, 3):   # 3 would meet the ass-ord floor of 9
            decided.append_decision(lit)
        propagated = Trail(ANY_ORD, NO_RED)
        propagated.append_propagation(9, 0)
        for trail, pos in ((decided, 1), (propagated, 0)):
            expected = [f"entry {pos}: variable 9 not bound by the prefix"]
            assert validate_trail(f, trail) == expected
            assert reference_validate_trail(f, trail) == expected


# -- references: the rescanning checks the incremental ones must match ------


@dataclass
class UnitScanResult:
    """Clauses forcing a literal (or the conflict 0) under the current trail."""

    entries: tuple[tuple[int, int], ...]   # (clause id, forced literal or 0)
    conflict_present: bool

    def conflicts(self):
        return [cid for cid, lit in self.entries if lit == 0]

    def units(self):
        return [(cid, lit) for cid, lit in self.entries if lit != 0]


def reference_classify(prefix, clause, assignment, policy):
    """(forced literal | 0 for conflict | None, satisfied flag): the
    literal-by-literal walk ``clause_status`` is tested against, with
    restriction and reduction fused."""
    for v in clause.merged:
        if v in assignment:
            return None, True
    alive = []
    for l in clause.lits:
        val = assignment.get(abs(l))
        if val is None:
            alive.append(l)
        elif val == (l > 0):
            return None, True
    merged_alive = clause.merged
    if policy == RED:
        ex_max = 0
        for l in alive:
            if prefix.is_existential(l):
                lev = prefix.level(l)
                if lev > ex_max:
                    ex_max = lev
        if ex_max == 0:
            return 0, False
        alive = [
            l for l in alive if prefix.is_existential(l) or prefix.level(l) <= ex_max
        ]
        merged_alive = [v for v in clause.merged if prefix.level(v) <= ex_max]
    if not alive and not merged_alive:
        return 0, False
    if len(alive) == 1 and not merged_alive and prefix.is_existential(alive[0]):
        return alive[0], False
    return None, False


def unit_scan(qcnf: QCNF, trail: Trail) -> UnitScanResult:
    """Enumerate every clause that is unit or falsified under the trail.

    Under NO-RED a clause shrunk to a single universal literal is neither
    unit nor a conflict; under RED reduction applies first, so the same
    clause is a conflict. Every clause is classified on every call: this is
    the reference the watch engine and the incremental checks are tested
    against.
    """
    policy = trail.propagation_policy
    entries = []
    conflict = False
    assignment = assignment_of(trail)
    for cid, clause in enumerate(qcnf.clauses):
        forced, _ = reference_classify(qcnf.prefix, clause, assignment, policy)
        if forced is None:
            continue
        entries.append((cid, forced))
        conflict = conflict or forced == 0
    return UnitScanResult(tuple(entries), conflict)


@st.composite
def clause_cases(draw):
    """A prefix of one to eight variables with shuffled ids, a clause over
    it whose universals may be merged, and a partial assignment."""
    quants = draw(st.lists(st.sampled_from((EXISTS, FORALL)), min_size=1, max_size=8))
    ids = draw(st.permutations(range(1, len(quants) + 1)))
    prefix = Prefix([(q, [v]) for q, v in zip(quants, ids)])
    lits, merged = [], []
    for v in draw(st.lists(st.sampled_from(ids), unique=True)):
        sign = draw(st.sampled_from((1, -1, 0) if prefix.is_universal(v) else (1, -1)))
        if sign:
            lits.append(sign * v)
        else:
            merged.append(v)
    assigned = draw(st.lists(st.sampled_from(ids), unique=True))
    assignment = {v: draw(st.booleans()) for v in assigned}
    return prefix, make_clause(prefix, lits, merged), assignment


@given(clause_cases(), st.sampled_from((RED, NO_RED)))
@settings(max_examples=500, derandomize=True, deadline=None)
def test_clause_status_matches_the_reference(case, policy):
    """The bitmask kernel finds a clause satisfied, unit on the same literal
    or falsified exactly when the literal walk does. Otherwise it returns
    unassigned members (a merged variable as its positive literal) that
    keep the clause open: under RED an existential and a second one or a
    universal of lower level; under NO-RED any two, or one universal."""
    prefix, clause, assignment = case
    rank = prefix.rank
    true = sum(1 << rank[v] for v, value in assignment.items() if value)
    false = sum(1 << rank[v] for v, value in assignment.items() if not value)
    got = clause_status(clause_masks(prefix, clause.lits, clause.merged), true, false, prefix, policy)
    forced, satisfied = reference_classify(prefix, clause, assignment, policy)
    if satisfied:
        assert got is None
    elif forced is not None:
        assert got.__class__ is int and got == forced
    else:
        assert got.__class__ is tuple and len(set(got)) == len(got) in (1, 2)
        assert set(got) <= set(clause.lits) | set(clause.merged)
        assert not any(abs(l) in assignment for l in got)
        *low, high = sorted(got, key=rank.__getitem__)
        if policy == NO_RED:
            assert low or prefix.is_universal(high)
        else:
            assert low and prefix.is_existential(high)
            assert prefix.is_existential(low[0]) or prefix.level(low[0]) < prefix.level(high)


def reference_legal_decisions(trail, qcnf):
    """Every admitted literal in ascending order, listed per policy from
    the unassigned variables."""
    policy = trail.decision_policy
    prefix = qcnf.prefix
    assigned = assignment_of(trail)
    if policy == LEV_ORD:
        for _, block in prefix.blocks:
            allowed = [v for v in block if v not in assigned]
            if allowed:
                return sorted(lit for v in allowed for lit in (v, -v))
        return []
    unassigned = [v for _, block in prefix.blocks for v in block if v not in assigned]
    if not unassigned:
        return []
    if policy == ANY_ORD:
        allowed = unassigned
    elif policy == ASS_ORD:
        floor = max((prefix.level(d) for d in trail.decisions()), default=0)
        allowed = [
            v for v in unassigned if prefix.is_existential(v) or prefix.level(v) >= floor
        ]
    else:
        decided = {abs(d) for d in trail.decisions()}
        gate = next(
            (lev for lev, (quant, block) in enumerate(prefix.blocks, start=1)
             if quant == FORALL and not decided.issuperset(block)),
            len(prefix.blocks) + 1,
        )
        allowed = [v for v in unassigned if prefix.is_universal(v) or prefix.level(v) < gate]
    return sorted(lit for v in allowed for lit in (v, -v))


def reference_validate_trail(qcnf, trail, natural_from=0):
    """One full ``unit_scan`` per natural position, and the policy test
    through the whole set of admitted literals."""
    problems = []
    shadow = Trail(trail.decision_policy, trail.propagation_policy)
    times = entry_times(trail)

    def certifies(cid, lit):
        return cid is not None and 0 <= cid < len(qcnf.clauses) and reference_classify(
            qcnf.prefix, qcnf.clauses[cid], assignment_of(shadow), trail.propagation_policy
        )[0] == lit

    for pos, e in enumerate(trail.entries):
        natural_here = pos >= natural_from
        scan = unit_scan(qcnf, shadow) if natural_here else None
        if e.lit == 0:
            if pos != len(trail.entries) - 1:
                problems.append(f"entry {pos}: conflict marker not rightmost")
            if not certifies(e.antecedent, 0):
                problems.append(f"entry {pos}: antecedent does not certify the conflict")
            shadow.append_conflict(e.antecedent or 0)
            continue
        if abs(e.lit) in assignment_of(shadow):
            problems.append(f"entry {pos}: variable {abs(e.lit)} repeated")
            break
        if e.lit not in qcnf.prefix:
            problems.append(f"entry {pos}: variable {abs(e.lit)} not bound by the prefix")
            break
        if e.is_decision:
            if natural_here and scan.entries:
                problems.append(f"entry {pos}: decision skips pending propagation")
            if e.lit not in reference_legal_decisions(shadow, qcnf):
                problems.append(
                    f"entry {pos}: decision {e.lit} violates {trail.decision_policy}"
                )
            shadow.append_decision(e.lit)
        else:
            if not qcnf.prefix.is_existential(e.lit):
                problems.append(f"entry {pos}: propagated literal {e.lit} not existential")
            if not certifies(e.antecedent, e.lit):
                problems.append(f"entry {pos}: antecedent does not certify {e.lit}")
            if natural_here and scan.conflict_present:
                problems.append(f"entry {pos}: propagation taken while a conflict exists")
            shadow.append_propagation(e.lit, e.antecedent or 0)
        # The shadow's level-start index puts each entry's time, counted
        # from the decisions before it, at the entry's position.
        assert shadow.position_of_time(times[pos]) == pos
    return problems


def reference_position_of_time(trail, time):
    """The linear scan for the entry whose (level, offset) is ``time``."""
    if time == (0, 0):
        return -1
    for pos, entry_time in enumerate(entry_times(trail)):
        if entry_time == time:
            return pos
    raise InvalidTimeError(f"time {time} not on the trail")


def reference_backtrack(trail, time):
    """The subtrail at ``time``, rebuilt by appending its entries one by one."""
    back = Trail(trail.decision_policy, trail.propagation_policy)
    back.resumed_at = time
    for e in trail.entries[: reference_position_of_time(trail, time) + 1]:
        if e.lit == 0:
            back.append_conflict(e.antecedent)
        elif e.is_decision:
            back.append_decision(e.lit)
        else:
            back.append_propagation(e.lit, e.antecedent)
    return back


def test_level_starts_match_the_linear_scan():
    """On every corpus trail each entry's time and (0, 0) sit where the
    linear scan finds them, times off the trail are refused by both,
    ``last_level`` is the level of the last entry, ``decisions()`` lists the
    decision entries, and ``backtrack`` gives the per-entry rebuild, whose
    watch state holds the same assignment and decisions."""
    for qcnf, trail in trail_corpus():
        times = entry_times(trail)
        last = dict(times)   # level -> its highest offset
        for time in [(0, 0), *times]:
            assert trail.position_of_time(time) == reference_position_of_time(trail, time)
            back, ref = trail.backtrack(time), reference_backtrack(trail, time)
            assert dump_trail(back) == dump_trail(ref)
            assert (back.entries, back.starts) == (ref.entries, ref.starts)
            wb, wr = _trail_watches(qcnf, back), _trail_watches(qcnf, ref)
            assert (wb.true, wb.false, wb.decided) == (wr.true, wr.false, wr.decided)
            assert (back.last_level, back.resumed_at) == (ref.last_level, ref.resumed_at)
        top = last_time(trail)[0]
        assert trail.last_level == top
        levels = range(top + 1)
        off = [(top + 1, 0), (-1, 0)]
        off += [(s, -1) for s in levels] + [(s, last.get(s, 0) + 1) for s in levels]
        for time in off:
            with pytest.raises(InvalidTimeError):
                trail.position_of_time(time)
            with pytest.raises(InvalidTimeError):
                reference_position_of_time(trail, time)
        assert trail.decisions() == [e.lit for e in trail.entries if e.is_decision]


@given(corpus_cases())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_validate_trail_matches_the_rescanning_reference(case):
    """Solver, replay and simulation trails, relabelled under every policy
    pair and mutated once, give the same problems in the same order."""
    qcnf, _, trail = case
    for natural_from in (0, len(trail) // 2, len(trail)):
        got = validate_trail(qcnf, trail, natural_from)
        assert got == reference_validate_trail(qcnf, trail, natural_from), natural_from


@given(corpus_cases())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_one_literal_legality_matches_the_admitted_set(case):
    """At every prefix of the trail and under every decision policy, the
    admitted set equals the reference's and the one-literal test agrees
    with it on every literal of the prefix, 0 and an unbound variable.
    Under the trail's own policy ``decide`` refuses exactly the literals
    outside it once no propagation is pending."""
    qcnf, _, trail = case
    prefix = qcnf.prefix
    lits = [l for v in sorted(prefix.variables) for l in (v, -v)]
    lits += [0, max(prefix.variables) + 1]
    shadow = Trail(trail.decision_policy, trail.propagation_policy)
    for e in [*trail.entries, None]:
        for policy in (LEV_ORD, ASS_ORD, ASS_R_ORD, ANY_ORD):
            shadow.decision_policy = policy
            legal = legal_decisions(shadow, qcnf)
            assert legal == reference_legal_decisions(shadow, qcnf), policy
            for lit in lits:
                bit = legal_bits(shadow, qcnf) >> prefix.rank[lit] & 1 if lit in prefix else 0
                assert bit == (lit in legal), (policy, lit)
        shadow.decision_policy = trail.decision_policy
        legal = legal_decisions(shadow, qcnf)
        for lit in lits:
            try:
                decide(shadow.backtrack(last_time(shadow)), lit, qcnf)
            except PendingPropagationError:
                pass
            except IllegalDecisionError:
                assert lit not in legal, lit
            else:
                assert lit in legal, lit
        if e is None or e.lit == 0 or abs(e.lit) in assignment_of(shadow):
            break
        if e.is_decision:
            shadow.append_decision(e.lit)
        else:
            shadow.append_propagation(e.lit, e.antecedent)


def test_every_short_decision_sequence_matches_the_reference_legality():
    """On the prefix e{1,2} a{3,4} e{5,6} a{7,8} e{9,10}, with the one
    clause (1 -2) so that a decision can fill block one, every sequence of
    up to three decisions, legal or not, is built with propagation after
    each. Under every policy ``legal_decisions`` equals the reference set,
    ``decide`` refuses exactly the literals outside it, and
    ``validate_trail`` reports exactly the decisions outside the set of the
    trail they were taken on."""
    blocks = [(EXISTS, [1, 2]), (FORALL, [3, 4]), (EXISTS, [5, 6]), (FORALL, [7, 8]),
              (EXISTS, [9, 10])]
    prefix = Prefix(blocks)
    qcnf = QCNF(prefix, [make_clause(prefix, [1, -2])])
    lits = [l for v in range(1, 11) for l in (v, -v)]
    policies = (LEV_ORD, ASS_ORD, ASS_R_ORD, ANY_ORD)
    reached = set()
    # (trail, per policy the problems validate_trail must report, the
    # parent's LEV-ORD open level)
    stack = [(propagate_to_fixpoint(qcnf, Trail(LEV_ORD, RED)), {p: [] for p in policies}, 1)]
    while stack:
        trail, expected, parent_open = stack.pop()
        decided = {abs(d) for d in trail.decisions()}
        deepest = max((prefix.level(d) for d in decided), default=0)
        refs = {}
        for policy in policies:
            trail.decision_policy = policy
            refs[policy] = ref = reference_legal_decisions(trail, qcnf)
            assert legal_decisions(trail, qcnf) == ref, (trail.decisions(), policy)
            assert validate_trail(qcnf, trail) == expected[policy], (trail.decisions(), policy)
            if len(decided) < 3:
                for lit in [*lits, 0, 11]:
                    try:
                        decide(trail.backtrack(last_time(trail)), lit, qcnf)
                    except IllegalDecisionError:
                        assert lit not in ref, (trail.decisions(), policy, lit)
                    else:
                        assert lit in ref, (trail.decisions(), policy, lit)
        if any(quant == FORALL and len(decided & set(block)) == 1 for quant, block in blocks):
            reached.add("ass-r-ord, a universal block partly decided")
        open_level = min(map(prefix.level, refs[LEV_ORD]), default=None)
        if open_level and open_level > parent_open + 1:
            reached.add("lev-ord, the open level past a fully assigned block")
        if len(decided) == 3:
            continue
        assigned = assignment_of(trail)
        for lit in lits:
            if abs(lit) in assigned:
                continue
            if prefix.level(lit) < deepest:
                reached.add(("ass-ord, a lower level after a deeper one", lit in refs[ASS_ORD]))
            child = trail.backtrack(last_time(trail))
            child.append_decision(lit)
            propagate_to_fixpoint(qcnf, child)
            violation = f"entry {len(trail)}: decision {lit} violates "
            stack.append((child, {p: expected[p] + [violation + p] * (lit not in refs[p])
                                  for p in policies}, open_level or parent_open))
    assert reached == {
        "ass-r-ord, a universal block partly decided",
        "lev-ord, the open level past a fully assigned block",
        ("ass-ord, a lower level after a deeper one", True),
        ("ass-ord, a lower level after a deeper one", False),
    }
