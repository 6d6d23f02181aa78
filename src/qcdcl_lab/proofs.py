"""Resolution-style derivations, their checker, and the qrp-lite trace format.

A derivation is a list of steps (axiom / resolve / reduce). The checker
recomputes every clause from scratch: stored clause values are caches and
never trusted. Gluing turns a multi-round QCDCL proof into one derivation by
replacing axiom references to learned clauses with the steps that derived
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    make_clause,
    reduce_clause,
    resolve_clauses,
)
from .trail import RED, Time, Trail, validate_trail

AXIOM = "a"
RESOLVE = "r"
REDUCE = "u"


@dataclass(frozen=True)
class ProofStep:
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


@dataclass
class Verdict:
    """The checker's answer. ``clauses`` maps every step id the checker
    could recompute to its clause; on a valid derivation that is every step."""

    valid: bool
    failures: list[tuple[int, str]] = field(default_factory=list)
    clauses: dict[int, Clause] = field(default_factory=dict)

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
    failures: list[tuple[int, str]] = []
    computed: dict[int, Clause] = {}
    seen_ids: set[int] = set()
    for s in d.steps:
        if s.step_id in seen_ids:
            failures.append((s.step_id, "duplicate step id"))
            continue
        seen_ids.add(s.step_id)
        if s.kind == AXIOM:
            # Learned long-distance clauses may be tautological and still act
            # as premises of later rounds; membership in the formula's clause
            # list is the criterion (matrix clauses are never tautological).
            try:
                normal = make_clause(qcnf.prefix, s.clause.all_literals())
            except ValueError as exc:
                failures.append((s.step_id, f"axiom: {exc}"))
                continue
            if normal not in qcnf:
                failures.append((s.step_id, "axiom not among the formula's clauses"))
                continue
            computed[s.step_id] = normal
        elif s.kind == RESOLVE:
            if s.left not in computed or s.right not in computed:
                failures.append((s.step_id, "resolve premise missing or later"))
                continue
            left, right = computed[s.left], computed[s.right]
            if s.pivot is None or s.pivot <= 0:
                failures.append((s.step_id, "resolve step without pivot variable"))
                continue
            if s.pivot in left.lits:
                pivot_lit = s.pivot
            elif -s.pivot in left.lits:
                pivot_lit = -s.pivot
            else:
                failures.append((s.step_id, f"pivot {s.pivot} missing from left premise"))
                continue
            try:
                computed[s.step_id] = resolve_clauses(
                    left, right, pivot_lit, mode, qcnf.prefix
                )
            except (IllegalTautologyError, PivotMissingError) as exc:
                failures.append((s.step_id, str(exc)))
                continue
        elif s.kind == REDUCE:
            if s.src not in computed:
                failures.append((s.step_id, "reduce premise missing or later"))
                continue
            computed[s.step_id] = reduce_clause(computed[s.src], qcnf.prefix)
        else:
            failures.append((s.step_id, f"unknown step kind {s.kind!r}"))
    if d.conclusion not in computed:
        failures.append((d.conclusion, "conclusion step missing or invalid"))
    elif d.steps and d.steps[-1].step_id != d.conclusion:
        failures.append((d.conclusion, "conclusion is not the last step"))
    if require_refutation and computed.get(d.conclusion) is not None:
        if not computed[d.conclusion].is_empty():
            failures.append((d.conclusion, "refutation does not end in the empty clause"))
    return Verdict(not failures, failures, computed)


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
        if not found:
            # The analysis need not go past the recorded pick.
            seq = learnable_sequence(trail, work, LearningScheme("index", rnd.picked_index))
            if not (0 <= rnd.picked_index < len(seq.elements)):
                problems.append(f"{tag}: picked index {rnd.picked_index} out of range")
            elif seq.elements[rnd.picked_index] != rnd.learned:
                problems.append(f"{tag}: learned clause is not the recorded sequence element")
        verdict = check_derivation(work, rnd.derivation)
        if not verdict:
            problems.append(f"{tag}: derivation invalid: {verdict.failures[:3]}")
        elif verdict.clauses[rnd.derivation.conclusion] != rnd.learned:
            problems.append(f"{tag}: derivation does not conclude the learned clause")
        clause_id, duplicate = work.add_clause(rnd.learned)
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
    their clauses are computed on demand by the checker, so the cached
    clause here is a placeholder.
    """
    steps: list[ProofStep] = []
    mode = None
    conclusion = None
    ids: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c "):
            continue
        if non_decimal(line):
            raise QcdclError(f"line {line_no}: {NON_DECIMAL}")
        fields = line.split()
        if fields[0] == "p":
            if fields[1:] != ["qrp-lite", QRES] and fields[1:] != ["qrp-lite", LDQRES]:
                raise QcdclError(f"line {line_no}: bad header {line!r}")
            mode = fields[2]
            continue
        kind = fields[0]
        try:
            nums = [int(f) for f in fields[1:]]
        except ValueError:
            raise QcdclError(f"line {line_no}: non-integer token") from None
        if kind == "conclusion":
            if len(nums) != 1:
                raise QcdclError(f"line {line_no}: conclusion needs one step id")
            conclusion = nums[0]
            continue
        if not nums or nums[-1] != 0:
            raise QcdclError(f"line {line_no}: missing terminating 0")
        nums = nums[:-1]
        if kind == AXIOM:
            if not nums:
                raise QcdclError(f"line {line_no}: axiom needs a step id")
            steps.append(ProofStep(nums[0], AXIOM, clause_from_raw(nums[1:])))
        elif kind == RESOLVE:
            if len(nums) != 4:
                raise QcdclError(f"line {line_no}: resolve needs pivot, left, right")
            sid, pivot, left, right = nums
            if left not in ids or right not in ids:
                raise QcdclError(f"line {line_no}: dangling premise id")
            steps.append(ProofStep(sid, RESOLVE, Clause(), pivot=pivot, left=left, right=right))
        elif kind == REDUCE:
            if len(nums) != 2:
                raise QcdclError(f"line {line_no}: reduce needs a source id")
            sid, src = nums
            if src not in ids:
                raise QcdclError(f"line {line_no}: dangling premise id")
            steps.append(ProofStep(sid, REDUCE, Clause(), src=src))
        else:
            raise QcdclError(f"line {line_no}: unknown record {kind!r}")
        ids.add(steps[-1].step_id)
    if mode is None:
        raise QcdclError("missing 'p qrp-lite' header")
    if conclusion is None:
        raise QcdclError("missing conclusion record")
    if conclusion not in ids:
        raise QcdclError("conclusion references a missing step")
    return Derivation(steps, mode, conclusion)
