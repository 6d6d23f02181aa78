"""Core QBF data model and the two primitive inferences.

Literals are DIMACS-style integers: variables are positive ids, negation is
arithmetic negation. The conflict marker used in trails is 0; it never occurs
inside a clause. A clause may carry "merged" universal variables (both
polarities present, as created by long-distance resolution); a merged
variable is stored once in ``Clause.merged`` instead of as two literals.
Both inferences run on a clause's ``clause_masks`` (``resolve_masks``,
``reduce_masks``); ``resolve_clauses`` and ``reduce_clause`` wrap them.
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
        # a prefix of the bits since rank order starts with the level.
        self.below = []
        for _, variables in self.blocks:
            self.below += [(1 << (len(self.below) + len(variables))) - 1] * len(variables)

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
    Literal order is fixed at construction (sorted by quantifier level, then
    variable id) so serialized output is deterministic.
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

    def key(self):
        return (self.lits, self.merged)

    def all_literals(self):
        """Literals including both polarities of merged variables."""
        out = list(self.lits)
        for v in self.merged:
            out.extend((v, -v))
        return out

    def __repr__(self):
        parts = [str(l) for l in self.lits] + [f"{v}*" for v in self.merged]
        return "(" + " ".join(parts) + ")" if parts else "(empty)"


def make_clause(prefix: Prefix, lits, merged=()) -> Clause:
    """Normalize literals into a Clause sorted by (level, variable).

    Duplicate literals collapse. A variable appearing in both polarities is
    rejected unless it is universal and explicitly allowed via ``merged``;
    callers that may legally create universal merges (long-distance
    resolution) pass them through ``merged``.
    """
    pol: dict[int, set[int]] = {}
    for l in lits:
        if l == 0:
            raise ValueError("0 is not a literal")
        pol.setdefault(abs(l), set()).add(1 if l > 0 else -1)
    merged_vars = set(abs(v) for v in merged)
    plain = []
    for v, signs in pol.items():
        if len(signs) == 2:
            merged_vars.add(v)
        else:
            plain.append(v if 1 in signs else -v)
    for v in merged_vars:
        if v not in prefix:
            raise ValueError(f"variable {v} not bound by the prefix")
        if not prefix.is_universal(v):
            raise ValueError(f"existential variable {v} cannot be merged")
        if v in pol and len(pol[v]) == 1:
            plain = [l for l in plain if abs(l) != v]
    for l in plain:
        if abs(l) not in prefix:
            raise ValueError(f"variable {abs(l)} not bound by the prefix")
    key = prefix.rank.__getitem__
    return Clause(lits=tuple(sorted(plain, key=key)), merged=tuple(sorted(merged_vars, key=key)))


def clause_masks(prefix: Prefix, clause: Clause) -> tuple[int, int, int]:
    """The clause's (positive, negative, merged) bitmasks over ``prefix.rank``."""
    masks = [0, 0, 0]
    for l in clause.lits:
        masks[l < 0] |= 1 << prefix.rank[l]
    for v in clause.merged:
        masks[2] |= 1 << prefix.rank[v]
    return masks[0], masks[1], masks[2]


def fill_masks(masks: list, occ: list, clauses: list, prefix: Prefix):
    """Extend a database's ``clause_masks`` list and its occurrence index
    to every clause: bit ``cid`` of ``occ[2 * rank + (lit < 0)]`` is set
    when literal ``lit`` satisfies clause ``cid``, in both polarities for
    a merged variable."""
    rank = prefix.rank
    for cid in range(len(masks), len(clauses)):
        c = clauses[cid]
        masks.append(clause_masks(prefix, c))
        bit = 1 << cid
        for l in c.all_literals():
            occ[2 * rank[l] + (l < 0)] |= bit


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def masks_clause(prefix: Prefix, masks) -> Clause:
    """The normal-form clause whose ``clause_masks`` are ``masks``."""
    pos, _, merged = masks
    ranked = prefix.ranked
    return Clause(
        lits=tuple(ranked[i] if pos >> i & 1 else -ranked[i] for i in _bits(pos | masks[1])),
        merged=tuple(ranked[i] for i in _bits(merged)),
    )


def clause_from_raw(lits) -> Clause:
    """Build a clause without a prefix (parsed proof traces).

    Sorted by variable id only; both polarities of a variable become a
    merged marker. Checking against a formula re-normalizes, so the
    different sort order is harmless.
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
        v = prefix.ranked[next(_bits(bad & (p1 | n1) or bad & x1 or bad))]
        raise IllegalTautologyError(f"resolvent tautological in variable {v} (mode {mode})")
    crossed = (p1 & n2) | (n1 & p2) | (x1 & (p2 | n2 | x2)) | (x2 & (p1 | n1))
    blocked = crossed & prefix.below[r] & ~bit
    if blocked:
        v = prefix.ranked[next(_bits(blocked & (p2 | n2) or blocked))]
        raise IllegalTautologyError(
            f"universal merge on {v} blocked: level {prefix.level(v)} "
            f"not greater than pivot level {prefix.level(pv)}"
        )
    return pos & ~merged, neg & ~merged, merged


def reduce_clause(c: Clause, prefix: Prefix) -> Clause:
    """Universal reduction (``reduce_masks``) of a clause in any literal
    order; the kept literals and merged variables keep their order.

    A clause without existential literals reduces to the empty clause.
    Idempotent, and never removes existential literals.
    """
    masks = clause_masks(prefix, c)
    reduced = reduce_masks(masks, prefix)
    if reduced == masks:
        return c
    kept = reduced[0] | reduced[1] | reduced[2]
    rank = prefix.rank
    return Clause(
        lits=tuple(l for l in c.lits if kept >> rank[l] & 1),
        merged=tuple(v for v in c.merged if kept >> rank[v] & 1),
    )


def resolve_clauses(c1: Clause, c2: Clause, pivot: int, mode: str, prefix: Prefix) -> Clause:
    """``resolve_masks`` on clauses: the resolvent in normal form."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    m1, m2 = clause_masks(prefix, c1), clause_masks(prefix, c2)
    return masks_clause(prefix, resolve_masks(m1, m2, pivot, mode, prefix))


class QCNF:
    """A prenex QCNF and its clause database: prefix plus a clause list
    with stable ids and a duplicate index.

    Indices into ``clauses`` are the clause ids used everywhere (trails,
    proofs). The first ``matrix_size`` entries are the original matrix;
    learned clauses are appended behind them, only through ``add_clause``.

    Precondition: every clause is in ``make_clause`` normal form, i.e. its
    literals and merged variables are sorted by (level, variable). Parsing,
    the generators, ``reduce_clause`` and ``resolve_clauses`` all emit that
    form. Duplicates and membership are decided by ``Clause.key()``, so two
    orderings of the same clause would count as different clauses.
    """

    def __init__(self, prefix: Prefix, clauses):
        self.prefix = prefix
        self.clauses: list[Clause] = list(clauses)
        self.matrix_size = len(self.clauses)
        for c in self.clauses:
            if c.is_tautological():
                raise ValueError("matrix clauses must be non-tautological")
        # Clause -> first clause id. A Clause hashes and compares as its
        # key(), so using it directly saves allocating a key tuple per clause.
        self._ids: dict[Clause, int] = {}
        for cid, c in enumerate(self.clauses):
            self._ids.setdefault(c, cid)
        # Incremental state over the clause list, kept by the ``trail``
        # module: ``clause_masks`` and the occurrence index (``fill_masks``)
        # as far as propagation, a check, conflict analysis or ``copy``
        # needed them; and per propagation policy, the watch states of the
        # empty trail and of the trail served last (with that trail), be it
        # a propagated trail or the shadow a ``validate_trail`` walk grows.
        self.masks: list[tuple[int, int, int]] = []
        self.occ: list[int] = [0] * (2 * len(prefix.ranked))
        self.watches: dict = {}

    def add_clause(self, c: Clause) -> tuple[int, bool]:
        """Append ``c``; returns its id and whether it was already present."""
        cid = len(self.clauses)
        duplicate = self._ids.setdefault(c, cid) != cid
        self.clauses.append(c)
        return cid, duplicate

    def __contains__(self, c: Clause) -> bool:
        return c in self._ids

    def copy(self) -> "QCNF":
        """A database to propagate or check on: it starts from this one's
        clause masks and occurrence index, filled here, so runs on copies of
        one formula compute them once. Both are copied, since ``fill_masks``
        extends them in place."""
        out = copy.copy(self)
        out.clauses = list(self.clauses)
        out._ids = dict(self._ids)
        fill_masks(self.masks, self.occ, self.clauses, self.prefix)
        out.masks = self.masks[:]
        out.occ = self.occ[:]
        out.watches = {}
        return out

    @property
    def num_vars(self) -> int:
        return len(self.prefix.variables)

    def __repr__(self):
        return f"QCNF({self.prefix!r}, {len(self.clauses)} clauses)"
