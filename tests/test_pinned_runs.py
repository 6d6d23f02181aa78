"""Whole runs pinned byte-for-byte, and the clause normal form they rely on.

A digest covers every round of a run (its ``dump_trail``, clause id,
duplicate flag, picked index and backtrack time) plus the serialized glued
proof, so any change in search order, learning, duplicate detection or
gluing shows up as a digest mismatch.
"""

from __future__ import annotations

import hashlib
import random

from qcdcl_lab import (
    FamilySpec,
    SolverConfig,
    dump_trail,
    generate,
    glue_qcdcl_proof,
    make_clause,
    parse_qdimacs,
    replay,
    serialize_proof,
    solve,
)
from qcdcl_lab.families import FAMILIES
from qcdcl_lab.goldens import equality_script, qparity_script
from qcdcl_lab.simulation import run_simulation
from qcdcl_lab.trail import ANY_ORD, ASS_R_ORD, LEV_ORD, NO_RED, RED

from conftest import random_small_qcnf


def run_digest(qcnf, proof) -> str:
    h = hashlib.sha256()
    for rnd in proof.rounds:
        h.update(dump_trail(rnd.trail).encode())
        h.update(
            f"round {rnd.clause_id} {rnd.duplicate} {rnd.picked_index} {rnd.backtrack}\n".encode()
        )
    h.update(serialize_proof(glue_qcdcl_proof(qcnf, proof)).encode())
    return h.hexdigest()


def solved(family, n, decision, propagation, **cfg):
    f = generate(FamilySpec(family, n))
    return f, solve(f, SolverConfig(decision, propagation, **cfg)).proof


def golden(family, n, script, decision):
    f = generate(FamilySpec(family, n))
    return f, replay(f, script(n), decision, RED)


def simulated(family, n, decision):
    f, proof = solved(family, n, decision, NO_RED)
    return f, run_simulation(f, glue_qcdcl_proof(f, proof)).proof()


PINNED = {
    "qparity_4 any-ord/no-red random seed 0": (
        lambda: solved("qparity", 4, ANY_ORD, NO_RED, heuristic="random", seed=0),
        "d8763a58ac34dbf66359cf1a3ec1a370af76cbe27f7c7797ca5c9372353a0f29",
    ),
    "equality_5 lev-ord/red": (
        lambda: solved("equality", 5, LEV_ORD, RED),
        "d8c4de9f7b4c3cc70607daa8ad8f4d92b17e55656a42666a9bf940c99c05995b",
    ),
    "qparity_8 golden replay": (
        lambda: golden("qparity", 8, qparity_script, LEV_ORD),
        "eab0491a58fe2eaf35ab96a2dbde9675d48f29caa5bd6b3e9fc44daa7ad54e2a",
    ),
    "equality_8 golden replay": (
        lambda: golden("equality", 8, equality_script, ASS_R_ORD),
        "926064ecc0fa9a1e4758b34816806a1c6ab894eb2f98fbd6da4ef121990bcc88",
    ),
    "php_4 simulation": (
        lambda: simulated("php", 4, ANY_ORD),
        "0c91ff3c4d894955ab58559b754675166ad49de25903d0ef001a5fb99052c680",
    ),
    "qparity_6 simulation": (
        lambda: simulated("qparity", 6, LEV_ORD),
        "dde4db203307756e4efa1312f8aad85e33bafe00f7c8958758e6b085fb108afb",
    ),
}


def test_whole_runs_match_pinned_digests():
    runs = {name: run() for name, (run, _) in PINNED.items()}
    digests = {name: run_digest(*runs[name]) for name in PINNED}
    assert digests == {name: expected for name, (_, expected) in PINNED.items()}
    rounds = runs["qparity_4 any-ord/no-red random seed 0"][1].rounds
    assert (len(rounds), sum(r.duplicate for r in rounds)) == (130, 78)


def test_producers_emit_make_clause_normal_form():
    """Every producer emits ``make_clause``'s (level, variable) order, so
    serialized formulas, proofs and trails are byte-reproducible; ``QCNF``
    detects duplicates by clause masks, which do not depend on the order."""
    specs = [FamilySpec(fam, 4) for fam in FAMILIES if fam != "random"]
    specs.append(FamilySpec("random", 4, m=2, c=2.0, seed=7))
    formulas = [generate(spec) for spec in specs]
    rng = random.Random(5)
    for _ in range(20):
        text = _shuffled_qdimacs(random_small_qcnf(rng, max_vars=7), rng)
        formulas.append(parse_qdimacs(text))
    for f in formulas:
        for c in f.clauses:
            assert c == make_clause(f.prefix, c.lits, c.merged), c


def _shuffled_qdimacs(qcnf, rng) -> str:
    """QDIMACS text with each clause's literals in random order."""
    lines = [f"p cnf {max(qcnf.prefix.variables)} {len(qcnf.clauses)}"]
    lines += [f"{q} {' '.join(map(str, vs))} 0" for q, vs in qcnf.prefix.blocks]
    for c in qcnf.clauses:
        lits = list(c.lits)
        rng.shuffle(lits)
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"
