"""Conflict analysis: the sequence of clauses learnable from a conflict.

Starting from the (reduced) clause that caused the conflict, antecedents of
propagated literals are resolved in, walking the trail right to left and
skipping positions whose pivot is absent from the running clause. Universal
reduction applies after every resolution and at the start. The sequence is
indexed from the conflict side: element 0 is the reduced conflict
antecedent, the last element is the fully folded clause. The walk stops
as soon as the learning scheme's pick is settled (see
``learnable_sequence``): elements past the pick are not built. The walk
runs on ``clause_masks``: its running clause's, and the antecedents' from
``QCNF.masks``; a ``Clause`` is built only for a proof step.

Resolution runs in long-distance mode when the trail propagates through
reduction and in plain mode otherwise; with plain propagation no tautology
can ever arise, so a tautology error here signals a trail bug.

``learn`` is the one learn step every driver runs: analyse, pick, add the
clause to the database and record the round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, NamedTuple

from .errors import IllegalTautologyError, InternalTautologyError, QcdclError
from .formula import (Clause, LDQRES, QCNF, QRES, clause_masks, masks_clause,
                      reduce_masks, resolve_masks)
from .proofs import AXIOM, Derivation, ProofStep, REDUCE, RESOLVE, Round
from .trail import RED, Time, Trail, clause_status


@dataclass
class LearnableSequence:
    elements: list[Clause]
    steps: list[ProofStep]
    conclusion_ids: list[int]   # per element, the step concluding it
    mode: str
    masks: list[tuple[int, int, int]]   # per element, its ``clause_masks``
    # Asserting times of the first len(times) elements, in order, as the
    # asserting scheme's stop rule computed them; ``pick_learned`` reuses them.
    times: list[Time | None] = field(default_factory=list)

    def derivation_for(self, index: int) -> Derivation:
        end = self.conclusion_ids[index]
        return Derivation(self.steps[: end + 1], self.mode, end)   # step ids are positions

    def __len__(self):
        return len(self.elements)


def learnable_sequence(trail: Trail, qcnf: QCNF,
                       scheme: LearningScheme | None = None) -> LearnableSequence:
    """The learnable sequence of a conflicting trail, from the conflict side
    up to the element where ``scheme``'s pick is settled.

    Without a scheme, and under ``dec``, the walk reaches the first
    decision. Under ``index:k`` it stops after element k. Under
    ``asserting`` it stops at an empty element, which is the pick, or at
    the first asserting element at or after the first element that holds
    an existential literal on a decided variable. No element after that one
    can be empty: a decided variable is never a pivot, universal reduction
    never drops an existential literal, and resolution would raise rather
    than merge an existential. So the empty-clause preference cannot pick a
    later element, and neither can the first-asserting rule. Nothing is
    timed before the walk reaches that element; from there elements are
    timed in order from the first, each once, up to the first asserting
    one. These are exactly the calls ``pick_learned`` makes on the whole
    sequence, and it reuses the times (``LearnableSequence.times``).
    """
    if not trail.conflicted:
        raise ValueError("clause learning needs a conflicting trail")
    mode = LDQRES if trail.propagation_policy == RED else QRES
    prefix = qcnf.prefix
    rank = prefix.rank
    masks = qcnf.masks
    steps: list[ProofStep] = []

    def add(kind, clause, **kw) -> int:
        steps.append(ProofStep(len(steps), kind, clause, **kw))
        return len(steps) - 1

    def reduced_axiom(cid: int) -> tuple[int, Clause, tuple[int, int, int]]:
        """Step id, value and masks of red(clause cid): an AXIOM step, and a
        REDUCE step if reduction changes the clause. No id comes twice in
        one analysis of a valid trail (a forcing clause stays satisfied)."""
        clause = qcnf.clauses[cid]
        sid = add(AXIOM, clause, source=cid)
        red = reduce_masks(masks[cid], prefix)
        if red != masks[cid]:
            clause = masks_clause(prefix, red)
            sid = add(REDUCE, clause, src=sid)
        return sid, clause, red

    cur_id, cur, cm = reduced_axiom(trail.entries[-1].antecedent)
    seq = LearnableSequence([cur], steps, [cur_id], mode, [cm])
    elements, conclusions, element_masks = seq.elements, seq.conclusion_ids, seq.masks
    settled = _stop_rule(scheme, seq, trail, qcnf)
    for entry in reversed(trail.entries[:-1]):
        if entry.is_decision:
            continue
        if settled is not None and settled():
            break
        p = entry.lit
        if cm[p > 0] >> rank[p] & 1:   # -p is in the running clause
            ante_id, _, am = reduced_axiom(entry.antecedent)
            try:
                rm = resolve_masks(cm, am, -p, mode, prefix)
            except IllegalTautologyError as exc:
                raise InternalTautologyError(f"conflict analysis at literal {p}: {exc}") from exc
            cur = masks_clause(prefix, rm)
            cur_id = add(RESOLVE, cur, pivot=abs(p), left=cur_id, right=ante_id)
            cm = reduce_masks(rm, prefix)
            if cm != rm:
                cur = masks_clause(prefix, cm)
                cur_id = add(REDUCE, cur, src=cur_id)
        elements.append(cur)
        conclusions.append(cur_id)
        element_masks.append(cm)
    return seq


def _stop_rule(scheme: LearningScheme | None, seq: LearnableSequence, trail: Trail,
               qcnf: QCNF) -> Callable[[], bool] | None:
    """The test ``learnable_sequence`` runs before it builds another
    element: is ``scheme``'s pick among the elements so far? None walks
    the whole trail."""
    if scheme is None or scheme.kind not in ("index", "asserting"):
        return None
    elements = seq.elements
    if scheme.kind == "index":
        k = scheme.k
        return lambda: len(elements) > k
    prefix, entries = qcnf.prefix, trail.entries
    # The bits of the decided existential variables (a sum of distinct bits).
    anchors = sum({1 << prefix.rank[entries[i].lit] for i in trail.starts[1:]}) & prefix.exist_bits
    times = seq.times
    safe = False

    def settled() -> bool:
        nonlocal safe
        if not safe:
            pos, neg, merged = seq.masks[-1]
            if not (pos or neg or merged):
                return True
            if not anchors & (pos | neg):
                return False
            safe = True
        for c in elements[len(times):]:
            time = asserting_time(c, trail, qcnf)
            times.append(time)
            if time is not None:
                return True
        return False

    return settled


def asserting_time(clause: Clause, trail: Trail, qcnf: QCNF) -> Time | None:
    """Earliest time strictly before the conflict level at which the clause
    becomes unit (or falsified) under the trail's propagation policy; None
    if never.

    The conflict case counts as unit: under reduction-aware propagation a
    restriction left with only universal literals is as good as falsified.
    A satisfied clause forces nothing, so the forced literal alone decides.
    The clause's status changes only when one of its variables is assigned,
    so only those entries are looked at, and only they enter the bitmasks
    ``clause_status`` reads. Positions from the conflict
    level's decision on are too late; the walk counts the decisions it
    passes, so the entry at ``pos`` has time ``(level, pos - starts[level])``.
    """
    if clause.is_empty():
        return None
    policy = trail.propagation_policy
    starts = trail.starts
    r = len(starts) - 1
    if r == 0:
        return None
    prefix = qcnf.prefix
    rank = prefix.rank
    masks = clause_masks(prefix, clause.lits, clause.merged)
    if clause_status(masks, 0, 0, prefix, policy).__class__ is int:
        return (0, 0)
    own = masks[0] | masks[1] | masks[2]
    true = false = level = 0
    for pos, e in enumerate(islice(trail.entries, starts[r])):
        if e.antecedent is None:
            level += 1
        lit = e.lit
        if lit and own >> rank[lit] & 1:   # the conflict marker 0 has no rank
            if lit > 0:
                true |= 1 << rank[lit]
            else:
                false |= 1 << rank[lit]
            if clause_status(masks, true, false, prefix, policy).__class__ is int:
                return (level, pos - starts[level])
    return None


class LearningScheme(NamedTuple):
    kind: str       # "dec" | "asserting" | "index"
    k: int = 0

    def __str__(self):
        return f"index:{self.k}" if self.kind == "index" else self.kind


DEC = LearningScheme("dec")
ASSERTING = LearningScheme("asserting")


def parse_scheme(text: str) -> LearningScheme:
    """``dec``, ``asserting`` or ``index:k`` with k a plain decimal."""
    if text in ("dec", "asserting"):
        return LearningScheme(text)
    k = text.removeprefix("index:")
    if k != text and k.isascii() and k.isdigit():
        return LearningScheme("index", int(k))
    raise QcdclError(f"unknown learning scheme {text!r}")


class Picked(NamedTuple):
    clause: Clause
    time: Time
    index: int


def pick_learned(scheme: LearningScheme, seq: LearnableSequence, trail: Trail,
                 qcnf: QCNF) -> Picked:
    """Choose the clause to learn and the backtrack target.

    The asserting scheme prefers the empty clause, then the first asserting
    element scanning from the conflict side, and falls back to the last
    element. The returned time is the clause's asserting time when it has
    one and (0, 0) — a restart — otherwise. Times the sequence already
    holds (``LearnableSequence.times``) are not computed again.
    """
    elements = seq.elements
    if not elements:
        raise ValueError("empty learnable sequence")
    if scheme.kind == "asserting":
        for i, c in enumerate(elements):
            if c.is_empty():
                return Picked(c, (0, 0), i)
        times = seq.times
        for i, c in enumerate(elements):
            time = times[i] if i < len(times) else asserting_time(c, trail, qcnf)
            if time is not None:
                return Picked(c, time, i)
        return Picked(elements[-1], (0, 0), len(elements) - 1)
    if scheme.kind == "dec":
        index = len(elements) - 1
    elif scheme.kind == "index":
        if not 0 <= scheme.k < len(elements):
            raise QcdclError(
                f"learn {scheme} is beyond the learnable sequence "
                f"(length {len(elements)})"
            )
        index = scheme.k
    else:
        raise ValueError(f"unknown scheme kind {scheme.kind!r}")
    clause = elements[index]
    time = asserting_time(clause, trail, qcnf) if not clause.is_empty() else None
    return Picked(clause, time or (0, 0), index)


def learn(scheme: LearningScheme, trail: Trail, work: QCNF,
          rounds: list[Round]) -> tuple[Round, Picked]:
    """The learn step of a round: analyse the conflicting trail, pick an
    element of its learnable sequence with ``scheme``, add it to ``work``
    and append the round, with its derivation, to ``rounds``. The analysis
    stops where ``scheme``'s pick is settled. The round reads its backtrack
    time from the trail (``Trail.resumed_at``)."""
    seq = learnable_sequence(trail, work, scheme)
    picked = pick_learned(scheme, seq, trail, work)
    clause_id, duplicate = work.add_clause(picked.clause)
    rnd = Round(
        trail=trail,
        learned=picked.clause,
        clause_id=clause_id,
        derivation=seq.derivation_for(picked.index),
        picked_index=picked.index,
        duplicate=duplicate,
    )
    rounds.append(rnd)
    return rnd, picked
