"""Core QBF data model, the two primitive inferences and the clause database.

Literals are DIMACS-style integers: variables are positive ids, negation is
arithmetic negation. The conflict marker used in trails is 0; it never occurs
inside a clause. A clause may carry "merged" universal variables (both
polarities present, as created by long-distance resolution); a merged
variable is stored once in ``Clause.merged`` instead of as two literals.
``clause_masks`` folds literals into a clause's (positive, negative,
merged) bitmasks, the one normalization: ``make_clause`` is that fold read
back by ``masks_clause``, and the clause database identifies clauses by
their masks. Both inferences (``resolve_masks``, ``reduce_masks``) run on
masks. ``QCNF.add_clause`` stores each clause's masks and occurrence bits
on entry.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .errors import IllegalTautologyError, PivotMissingError

EXISTS = "e"
FORALL = "a"

QRES = "qres"
LDQRES = "ldqres"
MODES = (QRES, LDQRES)


class Prefix:
    """A prenex quantifier prefix with alternating blocks.

    Adjacent blocks of the same quantifier are united at construction, so
    block index == quantifier level (1-based).
    """

    def __init__(self, blocks):
        merged = []
        for quant, variables in blocks:
            if quant not in (EXISTS, FORALL):
                raise ValueError(f"unknown quantifier {quant!r}")
            variables = tuple(sorted(set(variables)))
            if not variables:
                continue
            if merged and merged[-1][0] == quant:
                merged[-1] = (quant, tuple(sorted(merged[-1][1] + variables)))
            else:
                merged.append((quant, variables))
        self.blocks = tuple(merged)
        self._level = {}
        self._quant = {}
        for idx, (quant, variables) in enumerate(self.blocks, start=1):
            for v in variables:
                if v in self._level:
                    raise ValueError(f"variable {v} occurs in two blocks")
                if v <= 0:
                    raise ValueError("variable ids must be positive")
                self._level[v] = idx
                self._quant[v] = quant
        self.variables = frozenset(self._level)
        # Signed literal -> its variable's position in (level, variable)
        # order: the sort key of every clause's normal form.
        # Bit i of a clause or assignment mask stands for the variable at
        # position i: ``ranked[i]``; ``exist_bits`` has the existential ones.
        self.ranked = [v for _, variables in self.blocks for v in variables]
        self.rank = {l: i for i, v in enumerate(self.ranked) for l in (v, -v)}
        self.exist_bits = sum(1 << i for i, v in enumerate(self.ranked) if self._quant[v] == EXISTS)
        # ``below[i]``: every bit whose level is at most the level of bit i,
        # a prefix of the bits since rank order starts with the level;
        # ``lower[i]``: every bit whose level is less than that level.
        self.below, self.lower = [], []
        for _, variables in self.blocks:
            self.lower += [(1 << len(self.below)) - 1] * len(variables)
            self.below += [(1 << len(self.lower)) - 1] * len(variables)

    def level(self, var: int) -> int:
        return self._level[abs(var)]

    def quant(self, var: int) -> str:
        return self._quant[abs(var)]

    def is_existential(self, var: int) -> bool:
        return self._quant[abs(var)] == EXISTS

    def is_universal(self, var: int) -> bool:
        return self._quant[abs(var)] == FORALL

    def __contains__(self, var: int) -> bool:
        return abs(var) in self._level

    def __eq__(self, other):
        return isinstance(other, Prefix) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        parts = ["%s{%s}" % (q, ",".join(map(str, vs))) for q, vs in self.blocks]
        return "Prefix(%s)" % " ".join(parts)


@dataclass(frozen=True)
class Clause:
    """An immutable disjunction of literals.

    ``lits`` never contains two literals of the same variable; a universal
    variable occurring in both polarities lives in ``merged`` instead.
    ``make_clause`` and ``masks_clause`` sort literals by quantifier level,
    then variable id, so serialized output is deterministic; a clause's
    identity (its ``clause_masks``) does not depend on the order.
    """

    lits: tuple[int, ...] = ()
    merged: tuple[int, ...] = ()

    def is_empty(self) -> bool:
        return not self.lits and not self.merged

    def is_tautological(self) -> bool:
        return bool(self.merged)

    def __contains__(self, lit: int) -> bool:
        return lit in self.lits or abs(lit) in self.merged

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.lits) | frozenset(self.merged)

    def width(self) -> int:
        return len(self.lits) + 2 * len(self.merged)

    def all_literals(self):
        """Literals including both polarities of merged variables."""
        out = list(self.lits)
        for v in self.merged:
            out.extend((v, -v))
        return out

    def __repr__(self):
        parts = [str(l) for l in self.lits] + [f"{v}*" for v in self.merged]
        return "(" + " ".join(parts) + ")" if parts else "(empty)"


def _lowest(mask: int) -> int:
    """The position of the lowest set bit of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def clause_masks(prefix: Prefix, lits, merged=()) -> tuple[int, int, int]:
    """Fold literals into the (positive, negative, merged) bitmasks over
    ``prefix.rank``: the one normalization of a clause, and its identity.

    Duplicate literals collapse. A variable in both polarities, or named in
    ``merged`` (as long-distance resolution creates them), is merged, which
    only a universal variable may be. The first fault raises ValueError:
    a 0 or an unbound variable, walking ``lits`` and then ``merged``; an
    existential merge once every variable is bound, naming the first such
    variable in rank order.
    """
    rank = prefix.rank
    pos = neg = both = 0
    try:
        for l in lits:
            if l > 0:
                pos |= 1 << rank[l]
            elif l:
                neg |= 1 << rank[l]
            else:
                raise ValueError("0 is not a literal")
        for v in merged:
            both |= 1 << rank[v]
    except KeyError as exc:
        raise ValueError(f"variable {abs(exc.args[0])} not bound by the prefix") from None
    both |= pos & neg
    if both:
        if bad := both & prefix.exist_bits:
            raise ValueError(f"existential variable {prefix.ranked[_lowest(bad)]} cannot be merged")
        pos &= ~both
        neg &= ~both
    return pos, neg, both


def masks_clause(prefix: Prefix, masks) -> Clause:
    """The normal-form clause whose ``clause_masks`` are ``masks``: its
    literals and merged variables sorted by (level, variable)."""
    pos, neg, merged = masks
    ranked = prefix.ranked
    lits, out = [], []
    rest = pos | neg
    while rest:
        low = rest & -rest
        v = ranked[low.bit_length() - 1]
        lits.append(v if pos & low else -v)
        rest ^= low
    while merged:
        low = merged & -merged
        out.append(ranked[low.bit_length() - 1])
        merged ^= low
    return Clause(tuple(lits), tuple(out))


def make_clause(prefix: Prefix, lits, merged=()) -> Clause:
    """The normal-form clause of ``lits`` and ``merged`` (``clause_masks``)."""
    return masks_clause(prefix, clause_masks(prefix, lits, merged))


def clause_from_raw(lits) -> Clause:
    """Build a clause without a prefix (parsed proof traces).

    Sorted by variable id only; both polarities of a variable become a
    merged marker. The checker folds each axiom to its masks
    (``clause_masks``), so the different sort order is harmless.
    """
    lits = set(lits)
    merged = sorted(l for l in lits if l > 0 and -l in lits)
    if merged:
        lits.difference_update(merged, [-v for v in merged])
    return Clause(lits=tuple(sorted(lits, key=abs)), merged=tuple(merged))


def reduce_masks(masks, prefix: Prefix) -> tuple[int, int, int]:
    """Universal reduction: keep the bits at or below the level of the top
    existential bit; no existential bit leaves the empty clause."""
    pos, neg, merged = masks
    top = (pos | neg) & prefix.exist_bits
    if not top:
        return 0, 0, 0
    keep = prefix.below[top.bit_length() - 1]
    return pos & keep, neg & keep, merged & keep


def resolve_masks(m1, m2, pivot: int, mode: str, prefix: Prefix) -> tuple[int, int, int]:
    """Resolve the clause with masks ``m1`` (containing ``pivot``) with the
    one with masks ``m2`` (containing the negation) over an existential
    pivot; ``mode`` must be one of ``MODES``.

    QRES mode rejects any tautological resolvent. LDQRES mode still rejects
    existential tautologies but admits a universal merge u/-u provided the
    variable occurs on both sides and its level exceeds the pivot's level;
    merges already present in a single premise carry over unchecked. On
    premises in normal form, a failure names the variable a walk in rank
    order meets first: over the left premise's literals, its merged
    variables, then the right premise's (for a blocked merge, over the
    right premise's only).
    """
    pv = abs(pivot)
    bit = 1 << (r := prefix.rank[pv])
    if not bit & prefix.exist_bits:
        raise PivotMissingError(f"pivot variable {pv} is not existential")
    p1, n1, x1 = m1
    p2, n2, x2 = m2
    if not (p1 & n2 if pivot > 0 else n1 & p2) & bit:
        raise PivotMissingError(f"pivot {pivot} not present with both polarities")
    pos = (p1 | p2) & ~bit
    neg = (n1 | n2) & ~bit
    merged = x1 | x2 | (pos & neg)
    if not merged:
        return pos, neg, 0
    bad = merged if mode == QRES else merged & prefix.exist_bits
    if bad:
        v = prefix.ranked[_lowest(bad & (p1 | n1) or bad & x1 or bad)]
        raise IllegalTautologyError(f"resolvent tautological in variable {v} (mode {mode})")
    crossed = (p1 & n2) | (n1 & p2) | (x1 & (p2 | n2 | x2)) | (x2 & (p1 | n1))
    blocked = crossed & prefix.below[r] & ~bit
    if blocked:
        v = prefix.ranked[_lowest(blocked & (p2 | n2) or blocked)]
        raise IllegalTautologyError(
            f"universal merge on {v} blocked: level {prefix.level(v)} "
            f"not greater than pivot level {prefix.level(pv)}"
        )
    return pos & ~merged, neg & ~merged, merged


class QCNF:
    """A prenex QCNF and its clause database: prefix plus a clause list
    with stable ids, each clause's masks and a duplicate index on them.

    Indices into ``clauses`` are the clause ids used everywhere (trails,
    proofs). The first ``matrix_size`` entries are the original matrix;
    learned clauses are appended behind them. All enter through
    ``add_clause``, the one writer of the database's state. A clause is
    identified by its ``clause_masks``, so literal order and repeated
    literals do not tell two clauses apart.
    """

    def __init__(self, prefix: Prefix, clauses):
        self.prefix = prefix
        self.clauses: list[Clause] = []
        # Per clause id its ``clause_masks``, and the occurrence index: bit
        # ``cid`` of ``occ[2 * rank + (lit < 0)]`` is set when literal ``lit``
        # satisfies clause ``cid`` (a merged variable in both polarities).
        self.masks: list[tuple[int, int, int]] = []
        self.occ: list[int] = [0] * (2 * len(prefix.ranked))
        # Masks -> the first id of a clause with them: the tuple ``masks``
        # holds, so the index allocates no key of its own.
        self._ids: dict[tuple[int, int, int], int] = {}
        for c in clauses:
            self.add_clause(c)
            if self.masks[-1][2]:
                raise ValueError("matrix clauses must be non-tautological")
        self.matrix_size = len(self.clauses)
        # Per propagation policy, the ``trail`` module's watch states of the
        # empty trail and of the trail served last (with that trail).
        self.watches: dict = {}

    def add_clause(self, c: Clause) -> tuple[int, bool]:
        """Append ``c`` with its masks and occurrence bits; returns its id
        and whether a clause with the same masks was already present. A
        clause ``clause_masks`` refuses raises its ValueError before
        anything changes. A clause whose fold collapsed something (a
        repeated literal, a variable in both polarities, a merged variable
        also among the literals) has fewer mask bits than literals and is
        stored as ``masks_clause`` of its masks, so that the stored clause
        always agrees with them; any other is stored as given."""
        masks = clause_masks(self.prefix, c.lits, c.merged)
        if len(c.lits) + len(c.merged) != (masks[0] | masks[1] | masks[2]).bit_count():
            c = masks_clause(self.prefix, masks)
        cid = len(self.clauses)
        duplicate = self._ids.setdefault(masks, cid) != cid
        self.clauses.append(c)
        self.masks.append(masks)
        bit, occ, rank = 1 << cid, self.occ, self.prefix.rank
        for l in c.all_literals():
            occ[2 * rank[l] + (l < 0)] |= bit
        return cid, duplicate

    def id_of(self, masks) -> int | None:
        """The first id of a clause with ``clause_masks`` ``masks``, None
        if there is none."""
        return self._ids.get(masks)

    def copy(self) -> "QCNF":
        """A database that grows apart from this one, with no watch states."""
        out = copy.copy(self)
        out.clauses = list(self.clauses)
        out._ids = dict(self._ids)
        out.masks = self.masks[:]
        out.occ = self.occ[:]
        out.watches = {}
        return out

    @property
    def num_vars(self) -> int:
        return len(self.prefix.variables)

    def __repr__(self):
        return f"QCNF({self.prefix!r}, {len(self.clauses)} clauses)"
