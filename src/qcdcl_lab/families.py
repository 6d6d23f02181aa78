"""Generators for the benchmark QCNF families, the three-block structure
check, and an exhaustive game-semantics evaluator for small formulas.

Variable numbering is fixed per family (documented with each generator and
emitted as header comments by the CLI) so replay scripts can reference
variables by number.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import TooLargeError
from .formula import Clause, EXISTS, FORALL, Prefix, QCNF, make_clause

QPARITY = "qparity"
PHP = "php"
TRAPDOOR = "trapdoor"
EQUALITY = "equality"
LONSING = "lonsing"
RANDOM = "random"
FAMILIES = (QPARITY, PHP, TRAPDOOR, EQUALITY, LONSING, RANDOM)
MAX_SIZE = 100_000   # variables, and clauses, of one generated instance


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    m: int | None = None
    c: float | None = None
    seed: int | None = None

    def label(self) -> str:
        extra = []
        if self.m is not None:
            extra.append(f"m={self.m}")
        if self.c is not None:
            extra.append(f"c={self.c}")
        if self.seed is not None:
            extra.append(f"seed={self.seed}")
        return f"{self.family}_{self.n}" + (f"[{','.join(extra)}]" if extra else "")


def instance_size(spec: FamilySpec) -> tuple[int, int]:
    """The variable and clause counts of ``generate(spec)``, computed from
    the spec alone, for every family but random (whose clause count
    ``random_qcnf`` bounds once it has checked ``c``). Negative sizes
    count as 0, so that the generator, not the bound, rejects them."""
    n = max(spec.n, 0)
    if spec.family == QPARITY:
        return 2 * n, 4 * n - 2
    if spec.family == PHP:
        m = n + 1 if spec.m is None else max(spec.m, 0)
        return m * n, m + n * m * (m - 1) // 2
    if spec.family == TRAPDOOR:
        s = trapdoor_size(n)
        return 2 * s + 3, n + 1 + n * s // 2 + 6 * s
    if spec.family == LONSING:
        s = trapdoor_size(n)
        return s + 6, 5 + n + 1 + n * s // 2
    if spec.family == EQUALITY:
        return 3 * n, 2 * n + 1
    raise ValueError(f"unknown family {spec.family!r}")


def generate(spec: FamilySpec) -> QCNF:
    """The instance ``spec`` names; TooLargeError before anything is built
    if it would have over ``MAX_SIZE`` variables or clauses."""
    if spec.family == RANDOM:
        if spec.m is None or spec.c is None:
            raise ValueError("random family needs m and c")
        return random_qcnf(spec.n, spec.m, spec.c, spec.seed or 0)
    if max(instance_size(spec)) > MAX_SIZE:
        raise TooLargeError(f"{spec.label()} exceeds {MAX_SIZE} variables or clauses")
    if spec.family == QPARITY:
        return qparity(spec.n)
    if spec.family == PHP:
        return php(spec.n + 1 if spec.m is None else spec.m, spec.n)
    if spec.family == TRAPDOOR:
        return trapdoor(spec.n)
    if spec.family == EQUALITY:
        return equality(spec.n)
    return lonsing(spec.n)


def qparity(n: int) -> QCNF:
    """Numbering: x_i = i (i=1..n), z = n+1, t_i = n+i (i=2..n)."""
    if n < 2:
        raise ValueError("qparity needs n >= 2")
    x = lambda i: i
    z = n + 1
    t = lambda i: n + i
    prefix = Prefix([
        (EXISTS, [x(i) for i in range(1, n + 1)]),
        (FORALL, [z]),
        (EXISTS, [t(i) for i in range(2, n + 1)]),
    ])
    cls = [
        [x(1), x(2), -t(2)],
        [x(1), -x(2), t(2)],
        [-x(1), x(2), t(2)],
        [-x(1), -x(2), -t(2)],
    ]
    for i in range(3, n + 1):
        cls += [
            [x(i), t(i - 1), -t(i)],
            [x(i), -t(i - 1), t(i)],
            [-x(i), t(i - 1), t(i)],
            [-x(i), -t(i - 1), -t(i)],
        ]
    cls += [[t(n), z], [-t(n), -z]]
    return QCNF(prefix, [make_clause(prefix, c) for c in cls])


def php_clauses(pigeons: int, holes: int, var):
    """Pigeon clauses first, then hole constraints; ``var(i, j)`` maps
    pigeon i in [1..pigeons], hole j in [1..holes] to a variable id."""
    cls = [[var(i, k) for k in range(1, holes + 1)] for i in range(1, pigeons + 1)]
    for j in range(1, holes + 1):
        for i1 in range(1, pigeons + 1):
            for i2 in range(i1 + 1, pigeons + 1):
                cls.append([-var(i1, j), -var(i2, j)])
    return cls


def php(pigeons: int, holes: int) -> QCNF:
    """Purely existential. Numbering: x_{i,j} = (i-1)*holes + j (row-major)."""
    if pigeons < 1 or holes < 1:
        raise ValueError("php needs at least one pigeon and one hole")
    var = lambda i, j: (i - 1) * holes + j
    prefix = Prefix([(EXISTS, range(1, pigeons * holes + 1))])
    return QCNF(prefix, [make_clause(prefix, c) for c in php_clauses(pigeons, holes, var)])


def trapdoor_size(n: int) -> int:
    return n * (n + 1)


def trapdoor(n: int) -> QCNF:
    """Numbering: y_i = i (i=1..s), w = s+1, t = s+2, x_i = s+2+i, u = 2s+3,
    where s = n*(n+1). The embedded pigeonhole instance (n+1 pigeons, n
    holes) lives verbatim on the x variables, row-major."""
    if n < 1:
        raise ValueError("trapdoor needs n >= 1")
    s = trapdoor_size(n)
    y = lambda i: i
    w = s + 1
    t = s + 2
    x = lambda i: s + 2 + i
    u = 2 * s + 3
    prefix = Prefix([
        (EXISTS, [y(i) for i in range(1, s + 1)]),
        (FORALL, [w]),
        (EXISTS, [t] + [x(i) for i in range(1, s + 1)]),
        (FORALL, [u]),
    ])
    cls = php_clauses(n + 1, n, lambda i, j: x((i - 1) * n + j))
    for i in range(1, s + 1):
        cls += [[-y(i), x(i), u], [y(i), -x(i), u]]
    for i in range(1, s + 1):
        cls += [
            [y(i), w, t],
            [y(i), w, -t],
            [-y(i), w, t],
            [-y(i), w, -t],
        ]
    return QCNF(prefix, [make_clause(prefix, c) for c in cls])


def equality(n: int) -> QCNF:
    """Numbering: x_i = i, u_i = n+i, t_i = 2n+i."""
    if n < 1:
        raise ValueError("equality needs n >= 1")
    x = lambda i: i
    u = lambda i: n + i
    t = lambda i: 2 * n + i
    prefix = Prefix([
        (EXISTS, [x(i) for i in range(1, n + 1)]),
        (FORALL, [u(i) for i in range(1, n + 1)]),
        (EXISTS, [t(i) for i in range(1, n + 1)]),
    ])
    cls = [[-t(i) for i in range(1, n + 1)]]
    for i in range(1, n + 1):
        cls += [[-x(i), -u(i), t(i)], [x(i), u(i), t(i)]]
    return QCNF(prefix, [make_clause(prefix, c) for c in cls])


def lonsing(n: int) -> QCNF:
    """Numbering: a = 1, b = 2, b_i = 2+i (i=1..s), x = s+3, y = s+4,
    c = s+5, d = s+6, where s = n*(n+1) carries a pigeonhole instance."""
    if n < 1:
        raise ValueError("lonsing needs n >= 1")
    s = trapdoor_size(n)
    a, b = 1, 2
    bvar = lambda i: 2 + i
    xv, yv, cv, dv = s + 3, s + 4, s + 5, s + 6
    prefix = Prefix([
        (EXISTS, [a, b] + [bvar(i) for i in range(1, s + 1)]),
        (FORALL, [xv, yv]),
        (EXISTS, [cv, dv]),
    ])
    cls = [
        [a, xv, cv],
        [a, b] + [bvar(i) for i in range(1, s + 1)],
        [b, yv, dv],
        [xv, cv],
        [xv, -cv],
    ]
    cls += php_clauses(n + 1, n, lambda i, j: bvar((i - 1) * n + j))
    return QCNF(prefix, [make_clause(prefix, c) for c in cls])


def random_qcnf(n: int, m: int, c: float, seed: int) -> QCNF:
    """Random three-block instance. Numbering: the i-th existential block
    x_i^(k) = (i-1)*n + k, the i-th universal block u_i^(k) = n^2 + (i-1)*m + k,
    t_i = n^2 + n*m + i. Each of the floor(c*n) clauses per block pairs the
    negated block output with one universal literal and two distinct
    existential literals of that block, polarities uniform; clauses may
    repeat (sampling with replacement)."""
    if n < 1 or m < 1:
        raise ValueError("random family needs n >= 1 and m >= 1")
    if not math.isfinite(c):
        raise ValueError(f"random family needs a finite c, not {c}")
    if max(n * (n + m + 1), c * n * n) > MAX_SIZE:
        raise TooLargeError(f"random family exceeds {MAX_SIZE} variables or clauses")
    per_block = int(c * n)
    if per_block < 1:
        raise ValueError("c too small: no clauses per block")
    rng = random.Random(seed)
    xvar = lambda i, k: (i - 1) * n + k
    uvar = lambda i, k: n * n + (i - 1) * m + k
    tvar = lambda i: n * n + n * m + i
    prefix = Prefix([
        (EXISTS, [xvar(i, k) for i in range(1, n + 1) for k in range(1, n + 1)]),
        (FORALL, [uvar(i, k) for i in range(1, n + 1) for k in range(1, m + 1)]),
        (EXISTS, [tvar(i) for i in range(1, n + 1)]),
    ])
    cls = []
    for i in range(1, n + 1):
        for _ in range(per_block):
            uk = rng.randrange(1, m + 1)
            upol = rng.choice((1, -1))
            if n >= 2:
                k1, k2 = rng.sample(range(1, n + 1), 2)
            else:
                k1, k2 = 1, 1
            lits = [-tvar(i), upol * uvar(i, uk)]
            lits.append(rng.choice((1, -1)) * xvar(i, k1))
            if k2 != k1:
                lits.append(rng.choice((1, -1)) * xvar(i, k2))
            cls.append(lits)
    cls.append([tvar(i) for i in range(1, n + 1)])
    return QCNF(prefix, [make_clause(prefix, c_) for c_ in cls])


# -- three-block structure check ---------------------------------------------


@dataclass(frozen=True)
class XtReport:
    applicable: bool
    holds: bool
    counterexample: tuple | None = None   # (clause ids, violation kind)


def xt_check(qcnf: QCNF) -> XtReport:
    """Check the structural property that keeps conflict analysis merge-free
    on three-block formulas: with prefix shape E X, A U, E T there must be no
    clause mixing X and T variables without a U variable, no unit clause over
    T variables only, and no two resolvable T-only clauses.

    Resolvable means: complementary in some (existential) T variable with a
    non-tautological resolvent, i.e. a legal resolution step.
    """
    shapes = tuple(q for q, _ in qcnf.prefix.blocks)
    if shapes != (EXISTS, FORALL, EXISTS):
        return XtReport(applicable=False, holds=False)
    xs = set(qcnf.prefix.blocks[0][1])
    us = set(qcnf.prefix.blocks[1][1])
    ts = set(qcnf.prefix.blocks[2][1])
    t_clauses: list[tuple[int, Clause]] = []
    for cid, clause in enumerate(qcnf.clauses[: qcnf.matrix_size]):
        vs = clause.variables()
        has_x, has_u, has_t = bool(vs & xs), bool(vs & us), bool(vs & ts)
        if has_x and has_t and not has_u:
            return XtReport(True, False, ((cid,), "XT-clause"))
        if has_t and not has_x and not has_u:
            if clause.width() == 1:
                return XtReport(True, False, ((cid,), "unit T-clause"))
            t_clauses.append((cid, clause))
    for i, (cid1, c1) in enumerate(t_clauses):
        for cid2, c2 in t_clauses[i + 1:]:
            for lit in c1.lits:
                if -lit in c2.lits:
                    others_clash = any(
                        -o in c2.lits for o in c1.lits if abs(o) != abs(lit)
                    )
                    if not others_clash:
                        return XtReport(True, False, ((cid1, cid2), "resolvable T-pair"))
    return XtReport(applicable=True, holds=True)


# -- exhaustive evaluation ---------------------------------------------------


def evaluate_semantics(qcnf: QCNF, max_vars: int = 20) -> bool:
    """Exhaustive two-player evaluation along the prefix; True iff the
    formula is true. Exponential in the variable count, hence the bound."""
    order = [v for _, block in qcnf.prefix.blocks for v in block]
    if len(order) > max_vars:
        raise TooLargeError(f"{len(order)} variables exceeds bound {max_vars}")
    clauses = [frozenset(c.all_literals()) for c in qcnf.clauses[: qcnf.matrix_size]]

    def play(idx: int, open_clauses) -> bool:
        if not open_clauses:
            return True
        if idx == len(order):
            return not open_clauses
        v = order[idx]
        exists = qcnf.prefix.is_existential(v)
        for val in (True, False):
            lit = v if val else -v
            nxt = []
            falsified = False
            for cl in open_clauses:
                if lit in cl:
                    continue
                rest = cl - {-lit}
                if not rest:
                    falsified = True
                    break
                nxt.append(rest)
            won = (not falsified) and play(idx + 1, nxt)
            if exists and won:
                return True
            if not exists and not won:
                return False
        return not exists

    return play(0, clauses)
