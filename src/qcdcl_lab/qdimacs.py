"""QDIMACS reading and writing.

Accepted shape: optional `c` comment lines, a `p cnf <vars> <clauses>`
header, then `e`/`a` quantifier lines and clause lines, each terminated by
0. Adjacent quantifier lines of the same type are united into one block.
Free variables are rejected: every clause variable must be bound by the
prefix. Tautological clauses are rejected outright.
"""

from __future__ import annotations

from .errors import (
    NON_DECIMAL,
    QdimacsError,
    TautologicalAxiomError,
    UnboundVariableError,
    non_decimal,
)
from .formula import EXISTS, FORALL, Prefix, QCNF, make_clause


def parse_qdimacs(text) -> QCNF:
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            line_no = text.count(b"\n", 0, exc.start) + 1
            raise QdimacsError(line_no, "non-ASCII byte") from None
    header_seen = False
    blocks: list[tuple[str, list[int]]] = []
    raw_clauses: list[tuple[int, list[int]]] = []
    prefix_done = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if non_decimal(line):
            raise QdimacsError(line_no, NON_DECIMAL)
        fields = line.split()
        kind = fields[0]
        if kind.startswith("p"):
            if header_seen:
                raise QdimacsError(line_no, "duplicate header")
            if len(fields) != 4 or fields[:2] != ["p", "cnf"]:
                raise QdimacsError(line_no, f"bad header {line!r}")
            try:   # the declared counts are advisory; only their syntax is checked
                int(fields[2]), int(fields[3])
            except ValueError:
                raise QdimacsError(line_no, f"bad header {line!r}") from None
            header_seen = True
            continue
        if not header_seen:
            raise QdimacsError(line_no, "content before 'p cnf' header")
        if kind in ("e", "a"):
            if prefix_done:
                raise QdimacsError(line_no, "quantifier line after clauses")
            nums = _int_fields(line_no, fields[1:])
            if not nums or nums[-1] != 0 or any(n == 0 for n in nums[:-1]):
                raise QdimacsError(line_no, "quantifier line must end with a single 0")
            if any(n < 0 for n in nums[:-1]):
                raise QdimacsError(line_no, "negative variable in quantifier line")
            quant = EXISTS if kind == "e" else FORALL
            blocks.append((quant, nums[:-1]))
            continue
        nums = _int_fields(line_no, fields)
        if not nums or nums[-1] != 0:
            raise QdimacsError(line_no, "clause line must end with 0")
        if any(n == 0 for n in nums[:-1]):
            raise QdimacsError(line_no, "literal 0 inside clause")
        prefix_done = True
        raw_clauses.append((line_no, nums[:-1]))

    if not header_seen:
        raise QdimacsError(0, "missing 'p cnf' header")

    try:
        prefix = Prefix(blocks)
    except ValueError as exc:
        raise QdimacsError(0, str(exc)) from None

    clauses = []
    for line_no, lits in raw_clauses:
        seen: dict[int, int] = {}
        for l in lits:
            v = abs(l)
            if v not in prefix:
                raise UnboundVariableError(
                    line_no, f"variable {v} not bound by the prefix"
                )
            if seen.get(v, l) != l:
                raise TautologicalAxiomError(
                    line_no, f"clause tautological in variable {v}"
                )
            seen[v] = l
        clauses.append(make_clause(prefix, lits))

    return QCNF(prefix, clauses)


def _int_fields(line_no, fields):
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise QdimacsError(line_no, f"non-integer token in {' '.join(fields)!r}") from None


def serialize_qdimacs(qcnf: QCNF, comments=()) -> str:
    lines = [f"c {c}" for c in comments]
    nvars = max(qcnf.prefix.variables, default=0)
    lines.append(f"p cnf {nvars} {len(qcnf.clauses)}")
    for quant, variables in qcnf.prefix.blocks:
        lines.append(f"{quant} {' '.join(map(str, variables))} 0")
    for clause in qcnf.clauses:
        if clause.is_tautological():
            raise ValueError("cannot serialize tautological clause to QDIMACS")
        lines.append(" ".join(map(str, clause.lits)) + " 0")
    return "\n".join(lines) + "\n"
