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
import math
from dataclasses import dataclass

from .errors import (
    IllegalDecisionError,
    InvalidTimeError,
    PendingPropagationError,
    ScriptDivergenceError,
)
from .formula import FORALL, QCNF

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


def _classify(prefix, clause, assignment, policy):
    """(forced literal | 0 for conflict | None, satisfied flag).

    Fused restriction + reduction + unit test; avoids building intermediate
    clauses since this sits inside the propagation loop.
    """
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


def _watch(clause, assignment, prefix, policy):
    """Literals proving the clause neither unit nor falsified under
    ``policy``: True if it is satisfied, None if it is unit or falsified.
    A merged variable stands as its positive literal.

    Literals are tried from the highest level down, since decisions tend to
    follow the prefix and deep literals stay unassigned longest. Under RED
    this relies on the (level, variable) order ``QCNF`` requires: every
    unassigned literal met after the first unassigned existential is an
    existential or a universal of lower level, so it survives reduction.
    """
    merged = clause.merged
    for v in merged:
        if v in assignment:
            return True
    first = None
    if policy == RED:
        for l in reversed(clause.lits):
            val = assignment.get(abs(l))
            if val is None:
                if first is not None:
                    return (l, first)
                if prefix.is_existential(l):
                    if merged and prefix.level(merged[0]) < prefix.level(l):
                        return (merged[0], l)
                    first = l
            elif val == (l > 0):
                return True
        return None
    if merged:
        if len(merged) > 1:
            return merged[:2]
        first = merged[0]
    for l in reversed(clause.lits):
        val = assignment.get(abs(l))
        if val is None:
            if first is not None:
                return (first, l)
            first = l
        elif val == (l > 0):
            return True
    if first is not None and prefix.is_universal(first):
        return (first,)
    return None


class _Watches:
    """Watched-literal state over one clause list under one policy."""

    def __init__(self, qcnf: QCNF, policy: str):
        # The clause list, not the QCNF, so that the states the QCNF keeps
        # do not make a reference cycle.
        self.clauses = qcnf.clauses
        self.prefix = qcnf.prefix
        self.policy = policy
        self.cursor = 0                    # trail entries before it are processed
        self.attached = 0                  # clause ids below it are attached
        self.lists: dict[int, list[int]] = {}        # variable -> watching clause ids
        self.watching: dict[int, tuple[int, ...]] = {}   # clause id -> watched literals
        self.pending: set[int] = set()     # clause ids found unit or falsified

    def fork(self) -> "_Watches":
        out = copy.copy(self)
        out.lists = {v: cids[:] for v, cids in self.lists.items()}
        out.watching = dict(self.watching)
        out.pending = set(self.pending)
        return out

    def place(self, cid: int, assignment):
        """(Re)compute the watches of clause ``cid`` under ``assignment``;
        a satisfied clause gets none."""
        w = _watch(self.clauses[cid], assignment, self.prefix, self.policy)
        old = self.watching.pop(cid, ())
        if w is None:
            self.pending.add(cid)
        elif w is not True:
            self.watching[cid] = w
            for l in w:
                if l not in old:
                    self.lists.setdefault(abs(l), []).append(cid)

    def catch_up(self, entries, assignment):
        """Visit the watchers of every newly assigned variable, then attach
        the clauses added to the database since the last call."""
        watching = self.watching
        while self.cursor < len(entries):
            lit = entries[self.cursor].lit
            self.cursor += 1
            for cid in self.lists.pop(abs(lit), ()):
                w = watching.get(cid, ())
                if lit in w:           # a watched literal came true
                    del watching[cid]
                elif -lit in w:
                    self.place(cid, assignment)
        clauses = self.clauses
        while self.attached < len(clauses):
            self.place(self.attached, assignment)
            self.attached += 1


def _trail_watches(qcnf: QCNF, trail: Trail) -> _Watches:
    """The trail's watch state. The database keeps, per propagation policy,
    the states of the empty trail and of the trail it served last; any
    other trail forks the empty trail's state and replays its entries."""
    policy = trail.propagation_policy
    empty, served, w = qcnf.watches.get(policy) or (_Watches(qcnf, policy), None, None)
    if served is not trail:
        empty.catch_up((), {})
        w = empty.fork()
        qcnf.watches[policy] = (empty, trail, w)
    w.catch_up(trail.entries, trail.assignment)
    return w


def _next_forced(qcnf: QCNF, trail: Trail):
    """The (literal, clause id) propagation would take next: the lowest-id
    conflict (literal 0), else the lowest-id unit; None at quiescence."""
    w = _trail_watches(qcnf, trail)
    clauses, prefix = qcnf.clauses, qcnf.prefix
    unit = None
    for cid in sorted(w.pending):
        lit, _ = _classify(prefix, clauses[cid], trail.assignment, trail.propagation_policy)
        if lit is None:
            w.pending.discard(cid)   # satisfied since it was found
        elif lit == 0:
            return 0, cid
        elif unit is None:
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
    cannot be watched so is satisfied, unit or falsified: satisfied clauses
    drop out for the rest of the trail, the others join a pending set.
    Before each choice ``_next_forced`` re-checks the pending clauses and
    the rule above picks among them, which is the choice a rescan of every
    clause would give. The database keeps the watch state of the trail it
    served last (``_trail_watches``): calls on that trail visit only the
    watchers of newly assigned variables and attach clauses added since.
    Trails only grow (backtracks and restarts make fresh trails),
    so no watch is ever undone.
    """
    if trail.conflicted:
        return trail
    clauses, prefix = qcnf.clauses, qcnf.prefix
    policy = trail.propagation_policy
    while True:
        unit = _next_forced(qcnf, trail)
        if unit is not None and unit[0] == 0:
            trail.append_conflict(unit[1])
            return trail
        if forced and 0 <= forced[0][1] < len(clauses) and _classify(
            prefix, clauses[forced[0][1]], trail.assignment, policy
        )[0] == forced[0][0]:
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

    Refuses repeated variables and policy violations. Naturality forbids
    deciding while a propagation (or conflict) is still available; the
    watch engine answers that, naming the clause propagation would take.
    """
    if abs(lit) in trail.assignment:
        raise IllegalDecisionError(f"variable {abs(lit)} already assigned")
    pending = _next_forced(qcnf, trail)
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

# A clause's status under the checker's shadow trail. IDLE clauses are not
# revisited: satisfied ones, and ones not classified at the current depth.
OPEN, UNIT, FALSIFIED, IDLE = range(4)


def _status(prefix, clause, assignment, policy: str) -> int:
    forced, sat = _classify(prefix, clause, assignment, policy)
    return IDLE if sat else OPEN if forced is None else FALSIFIED if forced == 0 else UNIT


def _certifies(prefix, clauses, clause_id, assignment, lit: int, policy: str) -> bool:
    """Clause ``clause_id`` forces ``lit`` (0: is falsified) under
    ``assignment``; an id naming no clause certifies nothing."""
    if clause_id is None or not 0 <= clause_id < len(clauses):
        return False
    forced, _ = _classify(prefix, clauses[clause_id], assignment, policy)
    return forced == lit


class TrailChecker:
    """Validates trails against a clause list that only grows, walking
    only what differs from the trail it checked last.

    It keeps a shadow of the last trail walked and, per shadow entry, an
    undo record: the problems found there that do not depend on
    naturality, and (clause id, old status) pairs for the statuses the
    entry changed; an old status of None marks a clause classified right
    after the entry. ``check`` undoes the shadow to the longest prefix it
    shares with the new trail and walks the rest. That prefix ends before
    ``natural_from``, before a conflict marker (whether it is rightmost
    depends on the trail) and before an antecedent id beyond the clause
    list (it may name a clause later); its entries' problems are reported
    again. Clause ids are stable and clauses are only added, so the other
    verdicts of a shared entry stand.

    From the first natural position on, each clause's status is kept
    current: an entry makes the clauses holding its literal satisfied and
    reclassifies (with ``_classify`` alone) those holding its negation. A
    clause is classified in full only at the first natural position after
    it was added, or after an undo passed the entry it was classified
    after. A checker that never walks a natural position keeps no clause
    state, and a trail under other policies than the last one starts it
    afresh. Like ``_Watches`` it holds the clause list and the prefix, not
    the QCNF that keeps it.
    """

    def __init__(self, qcnf: QCNF):
        self.clauses = qcnf.clauses
        self.prefix = qcnf.prefix
        self.shadow: Trail | None = None

    def _reset(self, decision_policy: str, propagation_policy: str):
        self.shadow = Trail(decision_policy, propagation_policy)
        self._log: list[tuple[list[str], list]] = []   # per shadow entry: its undo record
        self._fence = math.inf             # first shadow position that may not be shared
        self._status: list[int] = []       # clause id -> status; ids beyond are unlisted
        self._counts = [0, 0, 0, 0]        # clauses per status
        self._occurs: dict[int, list[int]] = {}   # literal -> ids of the listed clauses holding it
        self._unclassified: list[int] = []        # listed clauses IDLE for want of a classification

    def check(self, trail: Trail, natural_from: int = 0) -> list[str]:
        """The trail's problems against the checker's clauses, naturality
        enforced from entry ``natural_from`` on (see ``validate_trail``)."""
        shadow = self.shadow
        if shadow is None or (shadow.decision_policy, shadow.propagation_policy) != (
            trail.decision_policy, trail.propagation_policy
        ):
            self._reset(trail.decision_policy, trail.propagation_policy)
            shadow = self.shadow
        entries, mine = trail.entries, shadow.entries
        limit = min(natural_from, len(entries), len(mine), self._fence)
        shared = 0
        while shared < limit and (entries[shared] is mine[shared] or entries[shared] == mine[shared]):
            shared += 1
        self._undo(shared)
        problems = [p for found, _ in self._log for p in found]

        clauses, prefix = self.clauses, self.prefix
        policy, assignment, counts = trail.propagation_policy, shadow.assignment, self._counts
        first_natural = max(shared, natural_from)
        for pos in range(shared, len(entries)):
            if pos == first_natural:
                self._classify_unclassified()
            natural_here = pos >= natural_from
            e = entries[pos]
            lit = e.lit
            found = []
            if lit == 0:
                if pos != len(entries) - 1:
                    found.append(f"entry {pos}: conflict marker not rightmost")
                if not _certifies(prefix, clauses, e.antecedent, assignment, 0, policy):
                    found.append(f"entry {pos}: antecedent does not certify the conflict")
                problems += found
                self._fence = min(self._fence, pos)
                self._push(e, found)
                continue
            if abs(lit) in assignment:
                problems.append(f"entry {pos}: variable {abs(lit)} repeated")
                break
            if lit not in prefix:
                problems.append(f"entry {pos}: variable {abs(lit)} not bound by the prefix")
                break
            if e.is_decision:
                if natural_here and (counts[UNIT] or counts[FALSIFIED]):
                    problems.append(f"entry {pos}: decision skips pending propagation")
                if not _admits(shadow, lit, prefix):
                    found.append(f"entry {pos}: decision {lit} violates {trail.decision_policy}")
                problems += found
            else:
                if not prefix.is_existential(lit):
                    found.append(f"entry {pos}: propagated literal {lit} not existential")
                if not _certifies(prefix, clauses, e.antecedent, assignment, lit, policy):
                    found.append(f"entry {pos}: antecedent does not certify {lit}")
                problems += found
                if natural_here and counts[FALSIFIED]:
                    problems.append(f"entry {pos}: propagation taken while a conflict exists")
                if e.antecedent >= len(clauses):
                    self._fence = min(self._fence, pos)
            self._push(e, found)
        return problems

    def _push(self, e: TrailEntry, found: list[str]):
        """Append ``e`` to the shadow with its undo record, and update the
        statuses it changes."""
        shadow = self.shadow
        pos = len(shadow.entries)
        changes = []
        self._log.append((found, changes))
        shadow.entries.append(e)
        lit = e.lit
        if lit == 0:
            return
        if e.antecedent is None:
            shadow.starts.append(pos)
        assignment = shadow.assignment
        assignment[abs(lit)] = lit > 0
        if not self._status:
            return
        clauses, prefix, policy = self.clauses, self.prefix, shadow.propagation_policy
        status, counts = self._status, self._counts
        for cid in self._occurs.get(lit, ()):   # satisfied now
            old = status[cid]
            if old != IDLE:
                changes.append((cid, old))
                counts[old] -= 1
                counts[IDLE] += 1
                status[cid] = IDLE
        for cid in self._occurs.get(-lit, ()):
            old = status[cid]
            if old != IDLE:
                new = _status(prefix, clauses[cid], assignment, policy)
                if new != old:
                    changes.append((cid, old))
                    counts[old] -= 1
                    counts[new] += 1
                    status[cid] = new

    def _undo(self, depth: int):
        """Pop shadow entries down to ``depth``, restoring the statuses
        their records hold; a clause classified after a popped entry
        becomes unclassified again."""
        shadow = self.shadow
        entries, log = shadow.entries, self._log
        status, counts, unclassified = self._status, self._counts, self._unclassified
        while len(entries) > depth:
            e = entries.pop()
            for cid, old in reversed(log.pop()[1]):
                if old is None:
                    old = IDLE
                    unclassified.append(cid)
                counts[status[cid]] -= 1
                counts[old] += 1
                status[cid] = old
            if e.lit:
                del shadow.assignment[abs(e.lit)]
                if e.antecedent is None:
                    shadow.starts.pop()
        self._fence = math.inf   # shared entries are never fenced

    def _classify_unclassified(self):
        """List the clauses added since the last call and classify them,
        with the unclassified ones, at the shadow's depth. The last shadow
        entry's undo record notes them; with no entry, nothing undoes it."""
        clauses, status, counts = self.clauses, self._status, self._counts
        ids = self._unclassified
        for cid in range(len(status), len(clauses)):
            status.append(IDLE)
            counts[IDLE] += 1
            for l in clauses[cid].all_literals():
                self._occurs.setdefault(l, []).append(cid)
            ids.append(cid)
        if not ids:
            return
        prefix, assignment = self.prefix, self.shadow.assignment
        policy = self.shadow.propagation_policy
        for cid in ids:
            new = _status(prefix, clauses[cid], assignment, policy)
            counts[IDLE] -= 1
            counts[new] += 1
            status[cid] = new
        if self._log:
            self._log[-1][1].extend((cid, None) for cid in ids)
        ids.clear()


def validate_trail(qcnf: QCNF, trail: Trail, natural_from: int = 0) -> list[str]:
    """Re-derive every trail condition from the formula; returns violations.

    ``natural_from`` is the entry index after which naturality (no skipped
    units, conflict priority) is enforced; antecedent certificates, policy
    legality and shape conditions are always enforced. Positions before
    ``natural_from`` belong to an inherited backtrack prefix, whose
    propagations were natural with respect to an earlier clause set.
    The database keeps one ``TrailChecker``, so a check walks only what
    the trail does not share with the trail checked before.
    """
    if qcnf.checker is None:
        qcnf.checker = TrailChecker(qcnf)
    return qcnf.checker.check(trail, natural_from)
