"""Trails: decision-leveled assignment sequences with antecedents.

A trail is a sequence of entries. Level 0 holds propagations forced by the
formula alone; every later level starts with one decision. Propagated
literals are always existential; the conflict marker (literal 0) may only be
the last entry and carries the falsified clause as its antecedent.

Times: (s, t) names the subtrail through the t-th propagation of level s;
(s, 0) ends at the decision of level s, and (0, 0) is the empty trail.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    IllegalDecisionError,
    InvalidTimeError,
    PendingPropagationError,
    ScriptDivergenceError,
)
from .formula import QCNF

LEV_ORD = "lev-ord"
ASS_ORD = "ass-ord"
ASS_R_ORD = "ass-r-ord"
ANY_ORD = "any-ord"
DECISION_POLICIES = (LEV_ORD, ASS_ORD, ASS_R_ORD, ANY_ORD)

RED = "red"
NO_RED = "no-red"
PROPAGATION_POLICIES = (RED, NO_RED)

Time = tuple[int, int]


class TrailEntry(NamedTuple):
    """One trail entry: a NamedTuple, cheap to build per assignment."""

    lit: int                 # 0 marks the conflict
    antecedent: int | None   # clause id; None exactly for decisions

    @property
    def is_decision(self) -> bool:
        return self.antecedent is None


class Trail:
    """Mutable trail builder; ``backtrack`` makes value-like subtrails.

    It keeps its entries and level starts; its watch state keeps its
    assignment. ``starts[s]`` is the entry index of the decision opening
    level s (-1 for level 0), so time (s, t) is entry ``starts[s] + t``.
    """

    def __init__(self, decision_policy: str, propagation_policy: str):
        if decision_policy not in DECISION_POLICIES:
            raise ValueError(f"unknown decision policy {decision_policy!r}")
        if propagation_policy not in PROPAGATION_POLICIES:
            raise ValueError(f"unknown propagation policy {propagation_policy!r}")
        self.decision_policy = decision_policy
        self.propagation_policy = propagation_policy
        self.entries: list[TrailEntry] = []
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

    def append_propagation(self, lit: int, antecedent: int):
        self.entries.append(TrailEntry(lit, antecedent))

    def append_conflict(self, antecedent: int):
        self.entries.append(TrailEntry(0, antecedent))

    def backtrack(self, time: Time) -> "Trail":
        """The subtrail at ``time`` as a fresh trail resumed at ``time``."""
        pos = self.position_of_time(time)
        t = Trail(self.decision_policy, self.propagation_policy)
        t.resumed_at = time
        t.entries = self.entries[: pos + 1]
        t.starts = self.starts[: time[0] + 1]
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


def alive_bits(masks, true: int, false: int, exist_bits: int, red: bool):
    """The bit kernel of the clause with ``clause_masks`` ``masks`` under
    the assignment whose true and false variables have bitmasks ``true``
    and ``false``: None if satisfied, else the rank bits of its unassigned
    literals and merged variables that survive, under ``red`` after
    universal reduction.

    Bits follow ``Prefix.rank``, the (level, variable) order. Under RED
    the top unassigned existential bit is the highest unassigned
    existential; every unassigned literal or merged variable on a lower
    bit is an existential or a universal of lower level, so it survives
    reduction, and none above does. Under NO-RED all of them survive.
    """
    pos, neg, merged = masks
    assigned = true | false
    if pos & true or neg & false or merged & assigned:
        return None
    alive = (pos | neg) & ~assigned | merged
    if red:
        alive &= (1 << (alive & exist_bits).bit_length()) - 1
    return alive


def clause_status(masks, true: int, false: int, prefix, policy: str):
    """The status of the clause with ``clause_masks`` ``masks`` under the
    assignment with bitmasks ``true`` and ``false``: None if satisfied, 0
    if falsified, the forced literal if unit, else the literals (two, or
    one universal) that keep it open.

    This is ``alive_bits`` read out as literals: no surviving bit is a
    conflict, a lone surviving existential is forced, and otherwise the two
    highest survivors are returned, a merged variable as its positive
    literal. ``_Watches.place`` reads the same bits without the literals.
    """
    alive = alive_bits(masks, true, false, prefix.exist_bits, policy == RED)
    if not alive:
        return alive            # None (satisfied) or 0 (falsified)
    neg = masks[1]
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
    """Watch state over one clause database under one policy, kept as bitmasks
    over clause ids: ``sat`` holds the satisfied clauses, ``pending`` those
    found unit or falsified, and ``watchers[r]`` those watching the variable
    of rank r. ``true``, ``false`` and ``decided`` are the assignment and the
    decisions of the trail entries processed so far, as bitmasks over ranks."""

    def __init__(self, qcnf: QCNF, policy: str):
        # The database's lists, not the QCNF, so that the states it keeps
        # do not make a reference cycle.
        self.masks = qcnf.masks
        self.occ = qcnf.occ
        self.prefix = qcnf.prefix
        self.policy = policy
        self.exist_bits = qcnf.prefix.exist_bits   # ``alive_bits``'s last two arguments
        self.red = policy == RED
        self.cursor = 0                    # trail entries before it are processed
        self.true = self.false = self.decided = 0  # their assignment and decisions, as bitmasks
        self.attached = 0                  # clause ids below it are attached
        self.sat = self.pending = 0
        self.watchers = [0] * len(qcnf.prefix.ranked)

    def fork(self) -> "_Watches":
        out = object.__new__(_Watches)
        out.__dict__.update(self.__dict__)
        out.watchers = self.watchers[:]
        return out

    def status(self, cid: int):
        return clause_status(self.masks[cid], self.true, self.false, self.prefix, self.policy)

    def place(self, ids: int):
        """Classify the clauses whose ids are the set bits of ``ids`` by
        their ``alive_bits``, building no literal: a satisfied clause joins
        ``sat``; one with no surviving bit or a lone existential one
        (falsified or unit) joins ``pending``; any other is ORed into the
        watchers of its top two surviving bits, or of its lone universal
        one, the variables of the literals ``clause_status`` returns."""
        masks, true, false, exist, red = self.masks, self.true, self.false, self.exist_bits, self.red
        watchers, sat, pending = self.watchers, self.sat, self.pending
        while ids:
            low = ids & -ids
            ids ^= low
            alive = alive_bits(masks[low.bit_length() - 1], true, false, exist, red)
            if alive is None:
                sat |= low
            elif alive & (alive - 1):
                top = alive.bit_length() - 1
                watchers[top] |= low
                watchers[(alive ^ 1 << top).bit_length() - 1] |= low
            elif alive & ~exist:
                watchers[alive.bit_length() - 1] |= low
            else:
                pending |= low
        self.sat, self.pending = sat, pending

    def catch_up(self, entries):
        """Assign the new trail entries, then attach the clauses added to
        the database since the last call. An assignment ORs the clauses its
        literal satisfies into ``sat`` and visits the unsatisfied watchers of
        its variable; a decision also joins ``decided``. A clause whose watch
        moved off a variable keeps its bit there; a visit only recomputes it."""
        rank, occ, watchers = self.prefix.rank, self.occ, self.watchers
        end = len(entries)
        for i in range(self.cursor, end):
            lit, antecedent = entries[i]
            if not lit:
                continue
            r = rank[lit]
            if lit > 0:
                self.true |= 1 << r
                self.sat |= occ[2 * r]
            else:
                self.false |= 1 << r
                self.sat |= occ[2 * r + 1]
            self.decided |= (antecedent is None) << r
            ids = watchers[r] & ~self.sat
            watchers[r] = 0
            if ids:
                self.place(ids)
        self.cursor = end
        n = len(self.masks)
        if self.attached < n:
            self.place((1 << n) - (1 << self.attached))
            self.attached = n


def _trail_watches(qcnf: QCNF, trail: Trail) -> _Watches:
    """The trail's watch state. The database keeps, per propagation
    policy, the states of the empty trail and of the trail it served last,
    be it a propagated trail or the shadow ``validate_trail`` grows; any
    other trail forks the empty trail's state and replays its entries. A
    state is caught up only when its trail has new entries or the database
    new clauses."""
    policy = trail.propagation_policy
    empty, served, w = qcnf.watches.get(policy) or (_Watches(qcnf, policy), None, None)
    if served is not trail:
        if empty.attached < len(empty.masks):
            empty.catch_up(())
        w = empty.fork()
        qcnf.watches[policy] = (empty, trail, w)
    if w.cursor < len(trail.entries) or w.attached < len(w.masks):
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
    assigned variables and attach clauses added since. Each call fetches
    that state once and catches it up after every literal it appends.
    Trails only grow (backtracks and restarts make fresh trails), so no
    watch is ever undone.
    """
    if trail.conflicted:
        return trail
    w = _trail_watches(qcnf, trail)
    while True:
        unit = _next_forced(w)
        if unit is not None and unit[0] == 0:
            trail.append_conflict(unit[1])
            return trail
        if forced and 0 <= forced[0][1] < len(w.masks) and w.status(forced[0][1]) == forced[0][0]:
            unit = forced.popleft()
        elif unit is None:
            return trail
        elif forced and abs(unit[0]) == abs(forced[0][0]):
            raise ScriptDivergenceError(
                f"literal {forced[0][0]} would be assigned via clause {unit[1]}, "
                f"not the scripted antecedent {forced[0][1]}"
            )
        trail.append_propagation(*unit)
        w.catch_up(trail.entries)


# -- decisions -------------------------------------------------------------


def admitted_bits(policy: str, prefix, assigned: int, decided: int) -> int:
    """The rank bits of the unassigned variables ``policy`` admits as the
    next decision, from the rank bitmasks of the assigned and the decided
    variables: the one place the four policies are written. A level bound
    is a prefix of the bits (``Prefix.below``, ``Prefix.lower``)."""
    every = (1 << len(prefix.ranked)) - 1
    free = every & ~assigned
    if not free or policy == ANY_ORD:
        return free
    if policy == LEV_ORD:
        # Every lower level is assigned: the lowest free bit's level is open.
        return free & prefix.below[(free & -free).bit_length() - 1]
    if policy == ASS_ORD:
        # No universal below the level of the deepest decision so far.
        floor = prefix.lower[decided.bit_length() - 1] if decided else 0
        return free & (prefix.exist_bits | ~floor)
    if policy == ASS_R_ORD:
        # An existential waits until every lower universal is decided: its
        # level must lie below the level of the lowest undecided universal.
        gate = every & ~(prefix.exist_bits | decided)
        opened = prefix.lower[(gate & -gate).bit_length() - 1] if gate else every
        return free & (~prefix.exist_bits | opened)
    raise ValueError(policy)  # pragma: no cover


def legal_bits(trail: Trail, qcnf: QCNF) -> int:
    """``admitted_bits`` of the trail, from the masks of its watch state."""
    w = _trail_watches(qcnf, trail)
    return admitted_bits(trail.decision_policy, qcnf.prefix, w.true | w.false, w.decided)


def legal_decisions(trail: Trail, qcnf: QCNF) -> list[int]:
    """The literals the trail's decision policy admits next, in ascending order."""
    bits, ranked = legal_bits(trail, qcnf), qcnf.prefix.ranked
    admitted = []
    while bits:
        low = bits & -bits
        bits ^= low
        admitted.append(ranked[low.bit_length() - 1])
    admitted.sort()
    return [-v for v in reversed(admitted)] + admitted


def decide(trail: Trail, lit: int, qcnf: QCNF) -> Trail:
    """Open a new decision level with ``lit``.

    Refuses unbound and assigned variables and policy violations.
    Naturality forbids deciding while a propagation (or conflict) is still
    available; the watch engine answers that, naming the clause propagation
    would take.
    """
    r = qcnf.prefix.rank.get(lit)
    if r is None:
        raise IllegalDecisionError(f"variable {abs(lit)} not bound by the prefix")
    w = _trail_watches(qcnf, trail)
    if (w.true | w.false) >> r & 1:
        raise IllegalDecisionError(f"variable {abs(lit)} already assigned")
    pending = _next_forced(w)
    if pending is not None:
        raise PendingPropagationError(
            f"cannot decide {lit}: clause {pending[1]} is "
            + ("falsified" if pending[0] == 0 else "unit")
        )
    if not admitted_bits(trail.decision_policy, qcnf.prefix, w.true | w.false, w.decided) >> r & 1:
        raise IllegalDecisionError(f"literal {lit} violates policy {trail.decision_policy}")
    trail.append_decision(lit)
    return trail


def decide_in_order(qcnf: QCNF, trail: Trail, decisions, forced=None) -> int | None:
    """Decide the listed literals in order on a trail at fixpoint,
    propagating (with ``forced``) after each. A literal already true is
    skipped. The walk stops at a conflict or at a literal already false and
    returns the literal it stopped before; None if every literal was placed
    (the trail may then have conflicted). Values come from the watch state.
    """
    for lit in decisions:
        if trail.conflicted:
            return lit
        w = _trail_watches(qcnf, trail)
        r = qcnf.prefix.rank.get(lit)
        if r is None or not (w.true | w.false) >> r & 1:
            decide(trail, lit, qcnf)   # refuses an unbound literal
            propagate_to_fixpoint(qcnf, trail, forced=forced)
        elif (w.false if lit > 0 else w.true) >> r & 1:   # the literal is false
            return lit
    return None


# -- validation ------------------------------------------------------------


def validate_trail(qcnf: QCNF, trail: Trail, natural_from: int = 0) -> list[str]:
    """Re-derive every trail condition from the formula; returns violations.

    ``natural_from`` is the entry index after which naturality (no skipped
    units, conflict priority) is enforced; antecedent certificates, policy
    legality and shape conditions are always enforced. Positions before
    ``natural_from`` belong to an inherited backtrack prefix, whose
    propagations were natural with respect to an earlier clause set.

    The walk grows a shadow of the trail's entries from entry 0. It keeps
    the true/false bitmasks of their assignment for the antecedent
    certificates, and those and their decided bitmask for ``admitted_bits``.
    Naturality is asked the way ``decide`` asks it: at each natural position
    ``_next_forced`` reads the shadow's watch state, which the database
    keeps as it keeps any trail's.
    """
    prefix, masks, rank = qcnf.prefix, qcnf.masks, qcnf.prefix.rank
    exist_bits, policy = prefix.exist_bits, trail.propagation_policy
    shadow = Trail(trail.decision_policy, policy)
    true = false = decided = 0

    def certifies(cid, lit: int) -> bool:
        """Clause ``cid`` forces ``lit`` (0: is falsified) under the shadow;
        an id naming no clause certifies nothing."""
        return (cid is not None and 0 <= cid < len(masks)
                and clause_status(masks[cid], true, false, prefix, policy) == lit)

    problems: list[str] = []
    entries = trail.entries
    for pos, e in enumerate(entries):
        lit, antecedent = e
        if lit == 0:
            if pos != len(entries) - 1:
                problems.append(f"entry {pos}: conflict marker not rightmost")
            if not certifies(antecedent, 0):
                problems.append(f"entry {pos}: antecedent does not certify the conflict")
            shadow.entries.append(e)
            continue
        # An unbound variable ends the walk, so it is never a repeated one.
        r = rank.get(lit)
        if r is None:
            problems.append(f"entry {pos}: variable {abs(lit)} not bound by the prefix")
            break
        bit = 1 << r
        if (true | false) & bit:
            problems.append(f"entry {pos}: variable {abs(lit)} repeated")
            break
        pending = _next_forced(_trail_watches(qcnf, shadow)) if pos >= natural_from else None
        if antecedent is None:
            if pending is not None:
                problems.append(f"entry {pos}: decision skips pending propagation")
            if not admitted_bits(trail.decision_policy, prefix, true | false, decided) & bit:
                problems.append(f"entry {pos}: decision {lit} violates {trail.decision_policy}")
            decided |= bit
        else:
            if not exist_bits & bit:
                problems.append(f"entry {pos}: propagated literal {lit} not existential")
            if not certifies(antecedent, lit):
                problems.append(f"entry {pos}: antecedent does not certify {lit}")
            if pending is not None and pending[0] == 0:
                problems.append(f"entry {pos}: propagation taken while a conflict exists")
        # Shared entries, not ``append_*`` calls: those allocate an entry each.
        shadow.entries.append(e)
        if lit > 0:
            true |= bit
        else:
            false |= bit
    return problems
