"""Constructive translation of plain (merge-free) resolution refutations
into runs of the flexible-decision / no-reduction solving system.

The engine walks the input refutation clause by clause, maintaining for each
processed clause a *witness*: a trail whose decisions are a subset of the
clause's negated literals and which propagates one of the clause's
(existential) literals anyway. A clause with such a witness is "absorbed":
deciding its negation cannot be completed innocently. Clauses are processed
optimistically ("pretend reliable"): we attempt the prescribed trail
construction, and either run into a conflict (feeding a learn/backtrack loop
that stops after quadratically many rounds) or get blocked, which hands us
the witness directly. Learning the empty clause anywhere ends the whole
translation early.

Clauses are their ``clause_masks`` (the checker's ``Verdict.masks``), also
as witness-table keys; a ``Clause`` is built only for an error message and
to read an axiom's decision order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InputNotRefutationError,
    LoopBoundExceededError,
    SimulationError,
    WitnessInvalidError,
)
from .formula import QCNF, QRES, masks_clause
from .learning import ASSERTING, learn
from .proofs import AXIOM, Derivation, QcdclProof, REDUCE, RESOLVE, Round, check_derivation
from .trail import (
    ASS_ORD,
    NO_RED,
    Trail,
    decide_in_order,
    propagate_to_fixpoint,
    validate_trail,
)

# Round-count ceiling for the unreliability loop, as a multiple of n^2.
# The loop is quadratically bounded; the constant gives slack for the
# degenerate re-conflict rounds. Exceeding it signals a bug.
LOOP_BOUND_FACTOR = 8

Masks = tuple[int, int, int]   # a clause's ``clause_masks``


@dataclass(frozen=True)
class Witness:
    """Evidence that deciding a clause's negation gets blocked.

    ``trail`` propagates ``literal`` (an existential literal of the clause)
    while its decisions are contained in the clause's negation minus the
    literal's complement.
    """

    trail: Trail
    literal: int

    @property
    def decisions(self) -> tuple[int, ...]:
        """The trail's decisions in trail order."""
        return tuple(self.trail.decisions())


def witness_valid(qcnf: QCNF, witness: Witness, masks: Masks) -> bool:
    """Validate a witness for the clause with ``clause_masks`` ``masks``
    against the clause set: its propagation certificates, the policy
    conditions, and the containment requirements.

    A witness trail is never extended, clause ids are stable and clauses
    are only ever added, so a witness that validates once stays valid as
    the formula grows: ``store`` validates each witness once.
    """
    t, lit, rank = witness.trail, witness.literal, qcnf.prefix.rank
    if t.conflicted or validate_trail(qcnf, t, natural_from=len(t.entries)):
        return False
    # On a valid trail a propagated literal is existential and its negation
    # is no decision; left to test: the literal is propagated and in the
    # clause, and so is every decision's negation.
    return (any(e.lit == lit and not e.is_decision for e in t.entries)
            and bool(masks[lit < 0] >> rank[lit] & 1)
            and all(masks[d > 0] >> rank[d] & 1 for d in witness.decisions))


@dataclass
class SimState:
    """Mutable simulation state: growing formula, accumulated rounds,
    and the witness table keyed by clause masks, each entry validated by
    ``store`` against the growing formula."""

    work: QCNF
    rounds: list[Round] = field(default_factory=list)
    witnesses: dict[Masks, Witness] = field(default_factory=dict)
    done: bool = False   # set once the empty clause is learned
    loop_lengths: list[int] = field(default_factory=list)   # rounds per unreliability loop

    def proof(self) -> QcdclProof:
        return QcdclProof(self.rounds, ASS_ORD, NO_RED)

    def store(self, masks: Masks, witness: Witness):
        if not witness_valid(self.work, witness, masks):
            raise WitnessInvalidError(
                f"new witness for {masks_clause(self.work.prefix, masks)!r} does not validate")
        self.witnesses[masks] = witness


def construct_trail_with_decisions(state: SimState, decisions,
                                   start: Trail | None = None) -> tuple[Trail, int | None]:
    """Build a natural trail deciding the listed literals in order; returns
    the trail and the literal the walk stopped before (None if it placed
    every literal).

    A listed literal already assigned in the same polarity is skipped; one
    assigned opposite means the decisions block each other: the walk stops
    there, and the partial trail, unless it conflicted, witnesses that the
    stopped literal's negation propagated.
    Conflicts abort the walk as usual; ``decide`` enforces the flexible
    policy. ``start`` is extended in place.
    """
    trail = start if start is not None else Trail(ASS_ORD, NO_RED)
    propagate_to_fixpoint(state.work, trail)
    return trail, decide_in_order(state.work, trail, decisions)


def make_unreliable(state: SimState, target: Masks, initial: Trail,
                    decision_order) -> Witness | None:
    """Learn/backtrack with a fixed decision order until the order blocks
    (yielding a witness for the clause with masks ``target``) or the empty
    clause is learned (None; ``state.done`` is then set).

    Each round learns with the asserting scheme, backtracks to the learned
    clause's asserting time, and re-extends with the same decisions in the
    same order; a re-extension that does not conflict ends the loop through
    ``_finish``. Rounds are appended to the state. The loop is
    quadratically bounded in the variable count; exceeding the ceiling
    raises.
    """
    if not initial.conflicted:
        raise SimulationError("unreliability loop handed a conflict-free trail")
    n = max(state.work.num_vars, 1)
    bound = LOOP_BOUND_FACTOR * n * n + 8
    trail = initial
    for iteration in range(bound):
        _, picked = learn(ASSERTING, trail, state.work, state.rounds)
        if picked.clause.is_empty():
            state.done = True
            state.loop_lengths.append(iteration + 1)
            return None
        trail, stopped = construct_trail_with_decisions(
            state, decision_order, start=trail.backtrack(picked.time)
        )
        if not trail.conflicted:
            state.loop_lengths.append(iteration + 1)
            return _finish(state, target, decision_order, trail, stopped)
    raise LoopBoundExceededError(f"unreliability loop exceeded {bound} rounds on "
                                 f"{masks_clause(state.work.prefix, target)!r}")


def _level_sorted(state: SimState, lits) -> list[int]:
    return sorted(set(lits), key=state.work.prefix.rank.__getitem__)


def _finish(state: SimState, target: Masks, order, trail: Trail,
            stopped: int | None) -> Witness | None:
    """The one outcome path of a construction: a conflict enters the
    unreliability loop, a block is a direct witness, a completion is a bug."""
    if trail.conflicted:
        return make_unreliable(state, target, trail, order)
    if stopped is None:
        raise SimulationError(f"construction for {masks_clause(state.work.prefix, target)!r} "
                              "completed; a conflict or block was forced")
    return Witness(trail, -stopped)


def simulate_axiom(state: SimState, masks: Masks) -> Witness | None:
    """Decide the clause's negation in its normal form's (rank) order; the
    clause itself forces a conflict at the latest when all decisions are placed."""
    order = [-l for l in masks_clause(state.work.prefix, masks).lits]
    return _finish(state, masks, order, *construct_trail_with_decisions(state, order))


def simulate_resolution(state: SimState, resolvent: Masks, pivot_var: int,
                        left: Masks, right: Masks) -> Witness | None:
    """Three-way case split on the premise witnesses' literals versus the
    pivot. Either some construction blocks (direct witness), or a conflict
    feeds the unreliability loop; the hard case re-enters with the pivot
    witness after a restart."""
    pivot = pivot_var if left[0] >> state.work.prefix.rank[pivot_var] & 1 else -pivot_var
    w1 = state.witnesses.get(left)
    w2 = state.witnesses.get(right)
    if w1 is None or w2 is None:
        raise SimulationError("premise witness missing; processing order broken")
    return _resolution_cases(state, resolvent, pivot, w1, w2)


def _resolution_cases(state, resolvent, pivot, w1, w2):
    l1, a1 = w1.literal, w1.decisions
    l2, a2 = w2.literal, w2.decisions

    if l1 == pivot and l2 == -pivot:
        order = _level_sorted(state, list(a1) + list(a2))
        return _finish(state, resolvent, order, *construct_trail_with_decisions(state, order))

    if l1 == pivot or l2 == -pivot:
        if l2 == -pivot:   # mirror so the pivot-side witness is w1
            l1, l2 = l2, l1
            a1, a2 = a2, a1
            pivot = -pivot
        wanted = set(a1) | set(a2) | {-l2}
        wanted.discard(pivot)
        wanted.discard(-pivot)
        order = _level_sorted(state, wanted)
        return _finish(state, resolvent, order, *construct_trail_with_decisions(state, order))

    # Neither witness literal is the pivot.
    if -pivot not in a1:
        # The left witness never even decides against the pivot: it is
        # already a witness for the resolvent.
        return w1

    head = _level_sorted(state, (set(a1) | {-l1}) - {-pivot})
    order = head + [-pivot]
    trail, stopped = construct_trail_with_decisions(state, order)
    if not trail.conflicted and stopped == -pivot:
        # The pivot got propagated first: fall back to the union trail.
        wanted = (set(a1) | set(a2) | {-l1, -l2}) - {pivot, -pivot}
        order2 = _level_sorted(state, wanted)
        return _finish(state, resolvent, order2, *construct_trail_with_decisions(state, order2))
    w = _finish(state, resolvent, order, trail, stopped)
    if w is None:
        return None
    if -pivot in w.decisions:
        raise SimulationError("block happened after the pivot decision")
    if w.literal != pivot:
        return w
    # The new witness propagates the pivot itself: restart and run the
    # mixed construction with it.
    return _resolution_cases(state, resolvent, pivot, w, w2)


def simulate_reduction(state: SimState, reduced: Masks, source: Masks) -> Witness | None:
    """Decide the source clause's negation with the dropped universal
    literals last; blocks can only hit existential positions, so a witness
    for the source restricted this way is one for the reduced clause."""
    w = state.witnesses.get(source)
    if w is None:
        raise SimulationError("premise witness missing; processing order broken")
    if source == reduced:
        return w
    # Reduction drops every bit above the kept ones, so rank order decides
    # the dropped universals last.
    order = _level_sorted(state, [*w.decisions, -w.literal])
    w2 = _finish(state, reduced, order, *construct_trail_with_decisions(state, order))
    if w2 is None:
        return None
    kept = (reduced[0] | reduced[1] | reduced[2]).bit_length()   # every dropped bit is higher
    if any(state.work.prefix.rank[d] >= kept for d in w2.decisions):
        raise SimulationError("block happened inside the universal tail")
    return w2


def simulate_clause(state: SimState, step, computed: dict[int, Masks]) -> None:
    """Process one input-refutation step, extending the state with rounds
    and (unless the empty clause was derived) a witness for its clause;
    ``computed`` maps step ids to clause masks (``Verdict.masks``)."""
    masks = computed[step.step_id]
    if state.done or masks in state.witnesses:
        return
    if step.kind == AXIOM:
        w = simulate_axiom(state, masks)
    elif step.kind == RESOLVE:
        w = simulate_resolution(
            state, masks, step.pivot, computed[step.left], computed[step.right]
        )
    elif step.kind == REDUCE:
        w = simulate_reduction(state, masks, computed[step.src])
    else:   # pragma: no cover
        raise SimulationError(f"unknown step kind {step.kind!r}")
    if state.done:
        return
    if w is None:
        raise SimulationError(
            f"no witness and no empty clause for {masks_clause(state.work.prefix, masks)!r}")
    state.store(masks, w)


def run_simulation(qcnf: QCNF, derivation: Derivation) -> SimState:
    """Full simulation run; the returned state carries the rounds, the
    witness table, and per-loop round counts for bound assertions."""
    verdict = check_derivation(qcnf, derivation, QRES, require_refutation=True)
    if not verdict:
        raise InputNotRefutationError(f"input does not check: {verdict.failures[:3]}")
    state = SimState(work=qcnf.copy())
    for step in derivation.steps:
        simulate_clause(state, step, verdict.masks)
        if state.done:
            break
    if not state.done:
        raise SimulationError("walked the whole refutation without deriving the empty clause")
    return state


def simulate_refutation(qcnf: QCNF, derivation: Derivation) -> QcdclProof:
    """Translate a checked merge-free refutation into a flexible-decision,
    no-reduction solver refutation, restarting between per-clause blocks."""
    return run_simulation(qcnf, derivation).proof()
