"""Trails: decision-leveled assignment sequences with antecedents.

A trail is a sequence of entries. Level 0 holds propagations forced by the
formula alone; every later level starts with one decision. Propagated
literals are always existential; the conflict marker (literal 0) may only be
the last entry and carries the falsified clause as its antecedent.

Times: (s, t) names the subtrail through the t-th propagation of level s;
(s, 0) ends at the decision of level s, and (0, 0) is the empty trail.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import islice

from .errors import (
    IllegalDecisionError,
    InvalidTimeError,
    PendingPropagationError,
    ScriptDivergenceError,
)
from .formula import FORALL, QCNF, fill_masks

LEV_ORD = "lev-ord"
ASS_ORD = "ass-ord"
ASS_R_ORD = "ass-r-ord"
ANY_ORD = "any-ord"
DECISION_POLICIES = (LEV_ORD, ASS_ORD, ASS_R_ORD, ANY_ORD)

RED = "red"
NO_RED = "no-red"
PROPAGATION_POLICIES = (RED, NO_RED)

Time = tuple[int, int]


@dataclass(frozen=True)
class TrailEntry:
    lit: int                 # 0 marks the conflict
    antecedent: int | None   # clause id; None exactly for decisions

    @property
    def is_decision(self) -> bool:
        return self.antecedent is None


class Trail:
    """Mutable trail builder; ``backtrack`` makes value-like subtrails.

    ``starts[s]`` is the entry index of the decision opening level s, and
    -1 for level 0, so the entry at time (s, t) sits at ``starts[s] + t``.
    It is the only record of the trail's levels: entries carry none.
    """

    def __init__(self, decision_policy: str, propagation_policy: str):
        if decision_policy not in DECISION_POLICIES:
            raise ValueError(f"unknown decision policy {decision_policy!r}")
        if propagation_policy not in PROPAGATION_POLICIES:
            raise ValueError(f"unknown propagation policy {propagation_policy!r}")
        self.decision_policy = decision_policy
        self.propagation_policy = propagation_policy
        self.entries: list[TrailEntry] = []
        self.assignment: dict[int, bool] = {}
        self.starts: list[int] = [-1]
        self.resumed_at: Time = (0, 0)     # the backtrack time this trail continues from

    # -- shape ---------------------------------------------------------

    @property
    def last_level(self) -> int:
        return len(self.starts) - 1

    @property
    def conflicted(self) -> bool:
        return bool(self.entries) and self.entries[-1].lit == 0

    def __len__(self) -> int:
        return len(self.entries)

    def decisions(self) -> list[int]:
        return [self.entries[i].lit for i in self.starts[1:]]

    def position_of_time(self, time: Time) -> int:
        """Index of the last entry of the subtrail at ``time`` (-1 for (0,0))."""
        s, t = time
        starts = self.starts
        if 0 <= s < len(starts) and t >= 0:
            pos = starts[s] + t
            if pos < (starts[s + 1] if s + 1 < len(starts) else len(self.entries)):
                return pos
        raise InvalidTimeError(f"time {time} not on the trail")

    # -- construction ----------------------------------------------------

    def append_decision(self, lit: int):
        self.starts.append(len(self.entries))
        self.entries.append(TrailEntry(lit, None))
        self.assignment[abs(lit)] = lit > 0

    def append_propagation(self, lit: int, antecedent: int):
        self.entries.append(TrailEntry(lit, antecedent))
        self.assignment[abs(lit)] = lit > 0

    def append_conflict(self, antecedent: int):
        self.entries.append(TrailEntry(0, antecedent))

    def backtrack(self, time: Time) -> "Trail":
        """The subtrail at ``time`` as a fresh trail resumed at ``time``."""
        pos = self.position_of_time(time)
        t = Trail(self.decision_policy, self.propagation_policy)
        t.resumed_at = time
        t.entries = self.entries[: pos + 1]
        t.starts = self.starts[: time[0] + 1]
        t.assignment = {abs(e.lit): e.lit > 0 for e in t.entries if e.lit}
        return t


def dump_trail(trail: Trail) -> str:
    """One entry per line for golden comparisons: tag D (decision),
    P (propagation) or K (conflict), the literal, and the antecedent
    clause id for P/K lines."""
    lines = []
    for e in trail.entries:
        if e.lit == 0:
            lines.append(f"K {e.antecedent}")
        elif e.is_decision:
            lines.append(f"D {e.lit}")
        else:
            lines.append(f"P {e.lit} {e.antecedent}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- clause status ---------------------------------------------------------


def clause_status(masks, true: int, false: int, prefix, policy: str):
    """The status of the clause with ``clause_masks`` ``masks`` under the
    assignment whose true and false variables have bitmasks ``true`` and
    ``false``: None if satisfied, 0 if falsified, the forced literal if
    unit, else the literals (two, or one universal) that keep it open.

    Bits follow ``Prefix.rank``, the (level, variable) order. Under RED
    the top unassigned existential bit is the highest unassigned
    existential; every unassigned literal or merged variable on a lower
    bit is an existential or a universal of lower level, so it survives
    reduction, and none above does. Under NO-RED all of them survive. A
    lone surviving existential is forced; otherwise the two highest
    survivors are returned, a merged variable as its positive literal.
    """
    pos, neg, merged = masks
    assigned = true | false
    if pos & true or neg & false or merged & assigned:
        return None
    alive = (pos | neg) & ~assigned | merged
    if policy == RED:
        alive &= (1 << (alive & prefix.exist_bits).bit_length()) - 1
    if not alive:
        return 0
    top = alive.bit_length() - 1
    v = prefix.ranked[top]
    first = -v if neg >> top & 1 else v
    alive ^= 1 << top
    if not alive:
        return first if prefix.exist_bits >> top & 1 else (first,)
    top = alive.bit_length() - 1
    v = prefix.ranked[top]
    return first, -v if neg >> top & 1 else v


class _Watches:
    """Watch state over one clause list under one policy, kept as bitmasks
    over clause ids: ``sat`` holds the satisfied clauses, ``pending`` those
    found unit or falsified, and ``watchers[r]`` those watching the variable
    of rank r. ``true`` and ``false`` are the assignment of the trail
    entries processed so far, as bitmasks over ranks."""

    def __init__(self, qcnf: QCNF, policy: str):
        # The clause list, not the QCNF, so that the states it keeps do
        # not make a reference cycle.
        self.clauses = qcnf.clauses
        self.masks = qcnf.masks
        self.occ = qcnf.occ
        self.prefix = qcnf.prefix
        self.policy = policy
        self.cursor = 0                    # trail entries before it are processed
        self.true = self.false = 0         # their assignment, as bitmasks
        self.attached = 0                  # clause ids below it are attached
        self.sat = self.pending = 0
        self.watchers = [0] * len(qcnf.prefix.ranked)

    def fork(self) -> "_Watches":
        out = copy.copy(self)
        out.watchers = self.watchers[:]
        return out

    def status(self, cid: int):
        return clause_status(self.masks[cid], self.true, self.false, self.prefix, self.policy)

    def place(self, ids: int):
        """Classify the clauses whose ids are the set bits of ``ids``: each
        joins ``sat``, ``pending``, or the watchers of the literals
        ``clause_status`` keeps it open with."""
        masks, true, false, prefix, policy = self.masks, self.true, self.false, self.prefix, self.policy
        rank, watchers = prefix.rank, self.watchers
        while ids:
            low = ids & -ids
            ids ^= low
            w = clause_status(masks[low.bit_length() - 1], true, false, prefix, policy)
            if w.__class__ is tuple:
                for l in w:
                    watchers[rank[l]] |= low
            elif w is None:
                self.sat |= low
            else:
                self.pending |= low

    def catch_up(self, entries):
        """Assign the new trail entries, then attach the clauses added to
        the database since the last call. An assignment ORs the clauses its
        literal satisfies into ``sat`` and visits the unsatisfied watchers of
        its variable. A clause whose watch moved off a variable keeps its
        bit there; a visit only recomputes it."""
        rank, occ, watchers = self.prefix.rank, self.occ, self.watchers
        for e in islice(entries, self.cursor, None):
            lit = e.lit
            if not lit:
                continue
            r = rank[lit]
            if lit > 0:
                self.true |= 1 << r
                self.sat |= occ[2 * r]
            else:
                self.false |= 1 << r
                self.sat |= occ[2 * r + 1]
            ids = watchers[r] & ~self.sat
            watchers[r] = 0
            if ids:
                self.place(ids)
        self.cursor = len(entries)
        clauses = self.clauses
        n = len(clauses)
        if self.attached < n:
            fill_masks(self.masks, occ, clauses, self.prefix)
            self.place((1 << n) - (1 << self.attached))
            self.attached = n


def _trail_watches(qcnf: QCNF, trail: Trail) -> _Watches:
    """The trail's watch state. The database keeps, per propagation
    policy, the states of the empty trail and of the trail it served last,
    be it a propagated trail or the shadow ``validate_trail`` grows; any
    other trail forks the empty trail's state and replays its entries."""
    policy = trail.propagation_policy
    empty, served, w = qcnf.watches.get(policy) or (_Watches(qcnf, policy), None, None)
    if served is not trail:
        empty.catch_up(())
        w = empty.fork()
        qcnf.watches[policy] = (empty, trail, w)
    w.catch_up(trail.entries)
    return w


def _next_forced(w: _Watches):
    """The (literal, clause id) propagation would take next on the trail
    ``w`` serves: the lowest-id conflict (literal 0), else the lowest-id
    unit; None at quiescence."""
    w.pending = ids = w.pending & ~w.sat
    unit = None
    while ids:
        low = ids & -ids
        ids ^= low
        cid = low.bit_length() - 1
        lit = w.status(cid)
        if lit == 0:
            return 0, cid
        if unit is None:
            unit = (lit, cid)
    return unit


def propagate_to_fixpoint(qcnf: QCNF, trail: Trail, forced=None) -> Trail:
    """Extend the trail with forced literals until quiescence or conflict.

    Conflicts have priority: whenever some clause is falsified, the conflict
    is taken immediately. Among several available conflicts or units the
    one with the lowest clause id is taken. ``forced`` optionally holds
    scripted (literal, clause id) pairs, honored in order as soon as they
    become available; assigning a pending override's variable through a
    different antecedent raises ScriptDivergenceError.

    Each clause watches two literals. Under RED it watches two unassigned
    existentials, or one plus an unassigned universal (or merged variable)
    of lower level; under NO-RED any two unassigned literals or merged
    variables, or a last one that is universal or merged. A clause that
    cannot be watched so is satisfied, unit or falsified: it joins the
    satisfied or the pending clauses. ``clause_status`` answers all of
    this from bitmasks: the database's clause masks and the watch state's
    true/false masks of the trail. The watch state keeps its clause sets as
    bitmasks over clause ids. Assigning a literal ORs in the clauses it
    satisfies (the database's occurrence index), then recomputes only the
    unsatisfied watchers of its variable. An open clause changes status
    only when a watched variable is assigned or one of its literals comes
    true, so the pending clauses include every unit or falsified one.
    Before each choice ``_next_forced`` re-checks the unsatisfied pending
    clauses and the rule above picks among them, which is the choice a
    rescan of every clause would give; a scripted override is tested the
    same way. The database keeps the watch state of the trail it served
    last (``_trail_watches``): calls on that trail process only the newly
    assigned variables and attach clauses added since. Trails only grow
    (backtracks and restarts make fresh trails), so no watch is ever undone.
    """
    if trail.conflicted:
        return trail
    while True:
        w = _trail_watches(qcnf, trail)
        unit = _next_forced(w)
        if unit is not None and unit[0] == 0:
            trail.append_conflict(unit[1])
            return trail
        if forced and 0 <= forced[0][1] < len(w.clauses) and w.status(forced[0][1]) == forced[0][0]:
            unit = forced.popleft()
        elif unit is None:
            return trail
        elif forced and abs(unit[0]) == abs(forced[0][0]):
            raise ScriptDivergenceError(
                f"literal {forced[0][0]} would be assigned via clause {unit[1]}, "
                f"not the scripted antecedent {forced[0][1]}"
            )
        trail.append_propagation(*unit)


# -- decisions -------------------------------------------------------------


def _admitted_levels(trail: Trail, prefix):
    """The quantifier levels whose unassigned variables the trail's decision
    policy admits next: the one place the four policies are written."""
    policy = trail.decision_policy
    blocks = prefix.blocks
    if policy == LEV_ORD:
        # Blocks are in level order: the first block with an unassigned
        # variable is the one level open.
        assigned = trail.assignment
        for lev, (_, block) in enumerate(blocks, start=1):
            for v in block:
                if v not in assigned:
                    return (lev,)
        return ()
    if policy == ANY_ORD:
        return range(1, len(blocks) + 1)
    if policy == ASS_ORD:
        # No universal below the deepest decision so far.
        floor = max((prefix.level(d) for d in trail.decisions()), default=0)
        return [lev for lev, (quant, _) in enumerate(blocks, start=1)
                if quant != FORALL or lev >= floor]
    if policy == ASS_R_ORD:
        # An existential waits until every lower universal is decided: its
        # level must lie below the lowest level of an undecided universal.
        decided = {abs(d) for d in trail.decisions()}
        gate = next((lev for lev, (quant, block) in enumerate(blocks, start=1)
                     if quant == FORALL and not decided.issuperset(block)), len(blocks) + 1)
        return [lev for lev, (quant, _) in enumerate(blocks, start=1)
                if quant == FORALL or lev < gate]
    raise ValueError(policy)  # pragma: no cover


def _admits(trail: Trail, lit: int, prefix) -> bool:
    """``lit in legal_decisions(trail, ...)``, testing only ``lit``: its
    variable is bound, unassigned and at an admitted level."""
    return (lit in prefix and abs(lit) not in trail.assignment
            and prefix.level(lit) in _admitted_levels(trail, prefix))


def legal_decisions(trail: Trail, qcnf: QCNF) -> set[int]:
    """The literals the trail's decision policy admits as the next decision."""
    blocks, assigned = qcnf.prefix.blocks, trail.assignment
    return {lit for lev in _admitted_levels(trail, qcnf.prefix)
            for v in blocks[lev - 1][1] if v not in assigned for lit in (v, -v)}


def decide(trail: Trail, lit: int, qcnf: QCNF) -> Trail:
    """Open a new decision level with ``lit``.

    Refuses unbound and repeated variables and policy violations.
    Naturality forbids deciding while a propagation (or conflict) is still
    available; the watch engine answers that, naming the clause propagation
    would take.
    """
    if lit not in qcnf.prefix:
        raise IllegalDecisionError(f"variable {abs(lit)} not bound by the prefix")
    if abs(lit) in trail.assignment:
        raise IllegalDecisionError(f"variable {abs(lit)} already assigned")
    pending = _next_forced(_trail_watches(qcnf, trail))
    if pending is not None:
        raise PendingPropagationError(
            f"cannot decide {lit}: clause {pending[1]} is "
            + ("falsified" if pending[0] == 0 else "unit")
        )
    if not _admits(trail, lit, qcnf.prefix):
        raise IllegalDecisionError(f"literal {lit} violates policy {trail.decision_policy}")
    trail.append_decision(lit)
    return trail


def decide_in_order(qcnf: QCNF, trail: Trail, decisions, forced=None) -> int | None:
    """Decide the listed literals in order on a trail at fixpoint,
    propagating (with ``forced``) after each. A literal already true is
    skipped. The walk stops at a conflict or at a literal already false and
    returns the literal it stopped before; None if every literal was placed
    (the trail may then have conflicted).
    """
    for lit in decisions:
        value = trail.assignment.get(abs(lit))
        if trail.conflicted or value == (lit < 0):   # the literal is false
            return lit
        if value is None:
            decide(trail, lit, qcnf)
            propagate_to_fixpoint(qcnf, trail, forced=forced)
    return None


# -- validation ------------------------------------------------------------


def validate_trail(qcnf: QCNF, trail: Trail, natural_from: int = 0) -> list[str]:
    """Re-derive every trail condition from the formula; returns violations.

    ``natural_from`` is the entry index after which naturality (no skipped
    units, conflict priority) is enforced; antecedent certificates, policy
    legality and shape conditions are always enforced. Positions before
    ``natural_from`` belong to an inherited backtrack prefix, whose
    propagations were natural with respect to an earlier clause set.

    The walk grows a shadow of the trail from entry 0, with the true/false
    bitmasks of its assignment for the antecedent certificates. Naturality
    is asked the way ``decide`` asks it: at each natural position
    ``_next_forced`` reads the shadow's watch state, which the database
    keeps as it keeps any trail's.
    """
    prefix, clauses, masks, rank = qcnf.prefix, qcnf.clauses, qcnf.masks, qcnf.prefix.rank
    policy = trail.propagation_policy
    fill_masks(masks, qcnf.occ, clauses, prefix)
    shadow = Trail(trail.decision_policy, policy)
    assignment = shadow.assignment
    true = false = 0

    def certifies(cid, lit: int) -> bool:
        """Clause ``cid`` forces ``lit`` (0: is falsified) under the shadow;
        an id naming no clause certifies nothing."""
        return (cid is not None and 0 <= cid < len(clauses)
                and clause_status(masks[cid], true, false, prefix, policy) == lit)

    problems: list[str] = []
    entries = trail.entries
    for pos, e in enumerate(entries):
        lit = e.lit
        if lit == 0:
            if pos != len(entries) - 1:
                problems.append(f"entry {pos}: conflict marker not rightmost")
            if not certifies(e.antecedent, 0):
                problems.append(f"entry {pos}: antecedent does not certify the conflict")
            shadow.entries.append(e)
            continue
        if abs(lit) in assignment:
            problems.append(f"entry {pos}: variable {abs(lit)} repeated")
            break
        if lit not in prefix:
            problems.append(f"entry {pos}: variable {abs(lit)} not bound by the prefix")
            break
        pending = _next_forced(_trail_watches(qcnf, shadow)) if pos >= natural_from else None
        if e.is_decision:
            if pending is not None:
                problems.append(f"entry {pos}: decision skips pending propagation")
            if not _admits(shadow, lit, prefix):
                problems.append(f"entry {pos}: decision {lit} violates {trail.decision_policy}")
            shadow.starts.append(pos)
        else:
            if not prefix.is_existential(lit):
                problems.append(f"entry {pos}: propagated literal {lit} not existential")
            if not certifies(e.antecedent, lit):
                problems.append(f"entry {pos}: antecedent does not certify {lit}")
            if pending is not None and pending[0] == 0:
                problems.append(f"entry {pos}: propagation taken while a conflict exists")
        # Shared entries, not ``append_*`` calls: those allocate an entry each.
        shadow.entries.append(e)
        assignment[abs(lit)] = lit > 0
        if lit > 0:
            true |= 1 << rank[lit]
        else:
            false |= 1 << rank[lit]
    return problems
