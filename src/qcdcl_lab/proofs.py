"""Resolution-style derivations, their checker, and the qrp-lite trace format.

A derivation is a list of steps (axiom / resolve / reduce). The checker
recomputes every clause from scratch: stored clause values are caches and
never trusted. It recomputes on ``clause_masks`` triples with the
resolution kernels (``resolve_masks``, ``reduce_masks``), folds each axiom
to its masks and looks them up in the formula's database, and turns a
step's masks back into a ``Clause`` only when ``Verdict.clauses`` is read.
Gluing turns a multi-round QCDCL proof into one derivation by replacing
axiom references to learned clauses with the steps that derived them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    NON_DECIMAL,
    IllegalTautologyError,
    PivotMissingError,
    QcdclError,
    non_decimal,
)
from .formula import (
    Clause,
    LDQRES,
    MODES,
    QCNF,
    QRES,
    clause_from_raw,
    clause_masks,
    masks_clause,
    reduce_masks,
    resolve_masks,
)
from .trail import RED, Time, Trail, validate_trail

AXIOM = "a"
RESOLVE = "r"
REDUCE = "u"


class ProofStep(NamedTuple):
    """One derivation step: a NamedTuple, cheap to build per trace line."""

    step_id: int
    kind: str
    clause: Clause                 # cache; checkers recompute
    source: int | None = None      # axiom: clause id in the formula (if known)
    pivot: int | None = None       # resolve: pivot variable (positive)
    left: int | None = None
    right: int | None = None
    src: int | None = None         # reduce: premise step id


@dataclass
class Derivation:
    steps: list[ProofStep]
    mode: str
    conclusion: int

    def __len__(self):
        return len(self.steps)


class _Clauses(dict):
    """Step id -> clause, turned from the checker's masks on first read."""

    def __init__(self, prefix, masks: dict[int, tuple[int, int, int]]):
        super().__init__()
        self.prefix, self.masks = prefix, masks

    def __missing__(self, step_id):
        clause = self[step_id] = masks_clause(self.prefix, self.masks[step_id])
        return clause


@dataclass
class Verdict:
    """The checker's answer. ``clauses`` maps every step id the checker
    could recompute to its clause; on a valid derivation that is every step.
    It is filled lazily: a step's clause is built on its first read, so
    reading only the conclusion builds one clause. ``masks`` maps the same
    step ids to their ``clause_masks``, the form clauses are compared in."""

    valid: bool
    failures: list[tuple[int, str]] = field(default_factory=list)
    clauses: dict[int, Clause] = field(default_factory=dict)
    masks: dict[int, tuple[int, int, int]] = field(default_factory=dict)

    def __bool__(self):
        return self.valid


def check_derivation(qcnf: QCNF, d: Derivation, mode: str | None = None,
                     require_refutation: bool = False) -> Verdict:
    """Re-derive every step and validate its rule's side conditions.

    Axioms must match a clause of the formula (set equality of literals).
    Premises must precede their use. With ``require_refutation`` the
    conclusion must be the empty clause.
    """
    mode = mode or d.mode
    if mode not in MODES:
        return Verdict(False, [(-1, f"unknown mode {mode!r}")])
    prefix = qcnf.prefix
    rank = prefix.rank
    failures: list[tuple[int, str]] = []
    masks: dict[int, tuple[int, int, int]] = {}   # step id -> its clause's masks
    seen_ids: set[int] = set()
    for s in d.steps:
        sid = s.step_id
        if sid in seen_ids:
            failures.append((sid, "duplicate step id"))
            continue
        seen_ids.add(sid)
        kind = s.kind
        if kind == AXIOM:
            # Learned long-distance clauses may be tautological and still act
            # as premises of later rounds; membership in the formula's clause
            # list is the criterion (matrix clauses are never tautological).
            try:
                cid = qcnf.id_of(clause_masks(prefix, s.clause.lits, s.clause.merged))
            except ValueError as exc:
                failures.append((sid, f"axiom: {exc}"))
                continue
            if cid is None:
                failures.append((sid, "axiom not among the formula's clauses"))
                continue
            masks[sid] = qcnf.masks[cid]
        elif kind == RESOLVE:
            left, right = masks.get(s.left), masks.get(s.right)
            if left is None or right is None:
                failures.append((sid, "resolve premise missing or later"))
                continue
            pivot = s.pivot
            if pivot is None or pivot <= 0:
                failures.append((sid, "resolve step without pivot variable"))
                continue
            bit = 1 << rank[pivot] if pivot in rank else 0
            if left[0] & bit:
                pivot_lit = pivot
            elif left[1] & bit:
                pivot_lit = -pivot
            else:
                failures.append((sid, f"pivot {pivot} missing from left premise"))
                continue
            try:
                masks[sid] = resolve_masks(left, right, pivot_lit, mode, prefix)
            except (IllegalTautologyError, PivotMissingError) as exc:
                failures.append((sid, str(exc)))
        elif kind == REDUCE:
            src = masks.get(s.src)
            if src is None:
                failures.append((sid, "reduce premise missing or later"))
                continue
            masks[sid] = reduce_masks(src, prefix)
        else:
            failures.append((sid, f"unknown step kind {kind!r}"))
    end = masks.get(d.conclusion)
    if end is None:
        failures.append((d.conclusion, "conclusion step missing or invalid"))
    elif d.steps and d.steps[-1].step_id != d.conclusion:
        failures.append((d.conclusion, "conclusion is not the last step"))
    if require_refutation and end is not None and any(end):
        failures.append((d.conclusion, "refutation does not end in the empty clause"))
    return Verdict(not failures, failures, _Clauses(prefix, masks), masks)


def count_reductions(d: Derivation) -> int:
    return sum(1 for s in d.steps if s.kind == REDUCE)


# -- QCDCL proofs -----------------------------------------------------------


@dataclass
class Round:
    """One conflict/learn/backtrack cycle of a QCDCL run."""

    trail: Trail
    learned: Clause
    clause_id: int
    derivation: Derivation
    picked_index: int
    duplicate: bool = False

    @property
    def backtrack(self) -> Time:
        """The agreement time with the previous round's trail: the time
        this round's trail was resumed at, (0, 0) for a restart. The first
        round must carry (0, 0)."""
        return self.trail.resumed_at


@dataclass
class QcdclProof:
    rounds: list[Round]
    decision_policy: str
    propagation_policy: str

    @property
    def conclusion(self) -> Clause:
        return self.rounds[-1].learned

    def is_refutation(self) -> bool:
        return bool(self.rounds) and self.conclusion.is_empty()

    @property
    def size(self) -> int:
        """Total trail length; the conflict marker counts as one element."""
        return sum(len(r.trail) for r in self.rounds)

    def learned_clauses(self) -> list[Clause]:
        return [r.learned for r in self.rounds]


def glue_qcdcl_proof(qcnf: QCNF, proof: QcdclProof) -> Derivation:
    """Stick the per-round derivations together into one derivation.

    Axiom steps that reference a learned clause are replaced by the step
    that concluded it in an earlier round; matrix axioms are deduplicated.
    The result derives the last learned clause from the matrix alone.
    """
    mode = LDQRES if proof.propagation_policy == RED else QRES
    out: list[ProofStep] = []
    # Clause id -> the glued step deriving it: the matrix axiom once
    # emitted, a learned clause's concluding step. Ids never overlap.
    glued: dict[int, int] = {}
    for rnd in proof.rounds:
        local_to_global: dict[int, int] = {}
        for s in rnd.derivation.steps:
            gid = len(out)
            if s.kind == AXIOM:
                if s.source in glued:
                    local_to_global[s.step_id] = glued[s.source]
                    continue
                out.append(ProofStep(gid, AXIOM, s.clause, source=s.source))
                if s.source is not None:
                    glued[s.source] = gid
            elif s.kind == RESOLVE:
                out.append(ProofStep(
                    gid, RESOLVE, s.clause, pivot=s.pivot,
                    left=local_to_global[s.left], right=local_to_global[s.right],
                ))
            else:
                out.append(ProofStep(gid, REDUCE, s.clause, src=local_to_global[s.src]))
            local_to_global[s.step_id] = gid
        glued[rnd.clause_id] = local_to_global[rnd.derivation.conclusion]
    return Derivation(out, mode, glued[proof.rounds[-1].clause_id])


def validate_qcdcl_proof(base: QCNF, proof: QcdclProof) -> list[str]:
    """Re-check every round of a QCDCL proof against the base formula.

    Verifies trail conditions (with naturality enforced beyond each round's
    backtrack point), agreement between consecutive trails, membership of
    the learned clause in the conflict-analysis sequence, the per-round
    derivations, and clause id bookkeeping. The conflict analysis of a
    trail with problems is not run: its sequence is not defined.

    The rounds are checked through ``validate_trail`` on one copy of the
    formula that grows by each round's learned clause. Each round's trail
    is walked from entry 0, so a round reports the problems of every entry
    of its trail, inherited ones included.
    """
    from .learning import LearningScheme, learnable_sequence  # cycle guard

    problems: list[str] = []
    work = base.copy()
    prev_trail: Trail | None = None
    for idx, rnd in enumerate(proof.rounds):
        tag = f"round {idx}"
        trail = rnd.trail
        if (
            trail.decision_policy != proof.decision_policy
            or trail.propagation_policy != proof.propagation_policy
        ):
            problems.append(f"{tag}: trail policies differ from the proof's")
        if not trail.conflicted:
            problems.append(f"{tag}: trail has no conflict")
            break
        if idx == 0:
            if rnd.backtrack != (0, 0):
                problems.append(f"{tag}: first round must start from scratch")
            natural_from = 0
        else:
            try:
                pos = trail.position_of_time(rnd.backtrack)
                prev_pos = prev_trail.position_of_time(rnd.backtrack)
            except QcdclError:
                problems.append(f"{tag}: backtrack time {rnd.backtrack} invalid")
                break
            if trail.entries[: pos + 1] != prev_trail.entries[: prev_pos + 1]:
                problems.append(f"{tag}: trail disagrees with predecessor before backtrack point")
            natural_from = pos + 1
        found = validate_trail(work, trail, natural_from)
        problems += [f"{tag}: {p}" for p in found]
        # Clauses are compared by their masks, which literal order does not
        # change; a clause the fold refuses equals none and is reported below.
        try:
            learned = clause_masks(work.prefix, rnd.learned.lits, rnd.learned.merged)
        except ValueError:
            learned = None
        if not found:
            # The analysis need not go past the recorded pick.
            seq = learnable_sequence(trail, work, LearningScheme("index", rnd.picked_index))
            if not (0 <= rnd.picked_index < len(seq.elements)):
                problems.append(f"{tag}: picked index {rnd.picked_index} out of range")
            elif seq.masks[rnd.picked_index] != learned:
                problems.append(f"{tag}: learned clause is not the recorded sequence element")
        verdict = check_derivation(work, rnd.derivation)
        if not verdict:
            problems.append(f"{tag}: derivation invalid: {verdict.failures[:3]}")
        elif verdict.masks[rnd.derivation.conclusion] != learned:
            problems.append(f"{tag}: derivation does not conclude the learned clause")
        try:
            clause_id, duplicate = work.add_clause(rnd.learned)
        except ValueError as exc:
            problems.append(f"{tag}: learned clause: {exc}")
            break
        if rnd.clause_id != clause_id:
            problems.append(f"{tag}: clause id {rnd.clause_id} out of sequence")
        if rnd.duplicate != duplicate:
            problems.append(f"{tag}: duplicate flag wrong")
        prev_trail = trail
    return problems


# -- trace format -----------------------------------------------------------


def serialize_proof(d: Derivation) -> str:
    lines = [f"p qrp-lite {d.mode}"]
    for s in d.steps:
        if s.kind == AXIOM:
            fields = ["a", str(s.step_id), *map(str, s.clause.all_literals()), "0"]
            lines.append(" ".join(fields))
        elif s.kind == RESOLVE:
            lines.append(f"r {s.step_id} {s.pivot} {s.left} {s.right} 0")
        else:
            lines.append(f"u {s.step_id} {s.src} 0")
    lines.append(f"conclusion {d.conclusion}")
    return "\n".join(lines) + "\n"


def parse_proof(text: str) -> Derivation:
    """Parse a qrp-lite trace.

    Axiom literals keep their file identity (re-normalization against a
    prefix happens inside the checker). Derived steps carry no literals;
    their clauses are computed by the checker, so every derived
    ``ProofStep`` tuple shares one empty placeholder ``Clause``.

    The header and the conclusion record appear once each. The digit rule
    of ``non_decimal`` is tested once on the whole text, and line by line
    only if the text fails it, so the first bad line is the one reported.
    Each line is split once. A resolve record of six fields, nearly every
    line of a solver's proof, and a reduce record of four fields each have
    their own branch: the terminator is read only when it is not ``0``,
    and the step is a tuple built without ``ProofStep``'s keyword defaults.
    A resolve or reduce record of any other length only reaches the
    general branches to get their error messages.
    """
    steps: list[ProofStep] = []
    mode = None
    conclusion = None
    ids: set[int] = set()
    placeholder = Clause()
    check = non_decimal(text)
    append, add, new = steps.append, ids.add, tuple.__new__
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c" and raw.strip().startswith("c "):
            continue
        if check and non_decimal(raw.strip()):
            raise QcdclError(f"line {line_no}: {NON_DECIMAL}")
        kind = fields[0]
        if kind == RESOLVE and len(fields) == 6:
            try:
                sid, pivot = int(fields[1]), int(fields[2])
                left, right = int(fields[3]), int(fields[4])
                if fields[5] != "0" and int(fields[5]):   # "-0" and "00" read 0
                    raise QcdclError(f"line {line_no}: missing terminating 0")
            except ValueError:
                raise QcdclError(f"line {line_no}: non-integer token") from None
            if left not in ids or right not in ids:
                raise QcdclError(f"line {line_no}: dangling premise id")
            append(new(ProofStep, (sid, RESOLVE, placeholder, None, pivot, left, right, None)))
            add(sid)
            continue
        if kind == REDUCE and len(fields) == 4:
            try:
                sid, src = int(fields[1]), int(fields[2])
                if fields[3] != "0" and int(fields[3]):
                    raise QcdclError(f"line {line_no}: missing terminating 0")
            except ValueError:
                raise QcdclError(f"line {line_no}: non-integer token") from None
            if src not in ids:
                raise QcdclError(f"line {line_no}: dangling premise id")
            append(new(ProofStep, (sid, REDUCE, placeholder, None, None, None, None, src)))
            add(sid)
            continue
        if kind == "p":
            if mode is not None:
                raise QcdclError(f"line {line_no}: duplicate header")
            if fields[1:] != ["qrp-lite", QRES] and fields[1:] != ["qrp-lite", LDQRES]:
                raise QcdclError(f"line {line_no}: bad header {raw.strip()!r}")
            mode = fields[2]
            continue
        if kind == "conclusion" and conclusion is not None:
            raise QcdclError(f"line {line_no}: duplicate conclusion")
        try:
            nums = list(map(int, fields[1:]))
        except ValueError:
            raise QcdclError(f"line {line_no}: non-integer token") from None
        if kind == "conclusion":
            if len(nums) != 1:
                raise QcdclError(f"line {line_no}: conclusion needs one step id")
            conclusion = nums[0]
            continue
        if not nums or nums[-1] != 0:
            raise QcdclError(f"line {line_no}: missing terminating 0")
        if kind == RESOLVE:
            raise QcdclError(f"line {line_no}: resolve needs pivot, left, right")
        if kind == REDUCE:
            raise QcdclError(f"line {line_no}: reduce needs a source id")
        if kind == AXIOM:
            if len(nums) == 1:
                raise QcdclError(f"line {line_no}: axiom needs a step id")
            sid = nums[0]
            append(ProofStep(sid, AXIOM, clause_from_raw(nums[1:-1])))
        else:
            raise QcdclError(f"line {line_no}: unknown record {kind!r}")
        add(sid)
    if mode is None:
        raise QcdclError("missing 'p qrp-lite' header")
    if conclusion is None:
        raise QcdclError("missing conclusion record")
    if conclusion not in ids:
        raise QcdclError("conclusion references a missing step")
    return Derivation(steps, mode, conclusion)
