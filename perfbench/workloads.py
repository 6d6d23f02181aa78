"""The four benchmark workloads.

Each workload's ``build(seed)`` is its set-up: it generates or reads its
inputs and returns the item list of one pass. An item is one solve, replay,
simulation or check together with the checks of its known answer; it
returns True when the output is correct. Items reach the package through
module attributes at call time, so the tracer's wrappers see their calls.

The seed drives only the random-heuristic seeds of solve-ladder and the
corruption choices of check-proofs; replay-goldens and simulate-qres do the
same work for every seed.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

INPUTS = Path(__file__).resolve().parent / "inputs"


class InputHashError(RuntimeError):
    """A pinned input file is missing or differs from its recorded sha256."""


class Item(NamedTuple):
    label: str
    run: Callable[[], bool]


def _modules(*names):
    return [importlib.import_module("qcdcl_lab" + (f".{n}" if n else "")) for n in names]


def read_pinned(names: list[str]) -> dict[str, str]:
    """Contents of the named files under ``inputs/``, each verified against
    ``inputs/SHA256SUMS``."""
    recorded = {}
    for line in (INPUTS / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        recorded[name] = digest
    out = {}
    for name in names:
        path = INPUTS / name
        if name not in recorded or not path.is_file():
            raise InputHashError(f"pinned input {name} is missing")
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != recorded[name]:
            raise InputHashError(
                f"pinned input {name} does not match its sha256; "
                "regenerate with perfbench/make_inputs.py"
            )
        out[name] = data.decode("ascii")
    return out


# -- solve-ladder ------------------------------------------------------------

# (n, heuristic, items per pass). The counts put the median band inside the
# n=4 class and the p70 tail band inside the n=5 class, not across a class
# boundary, where seed-to-seed differences would move them most;
# the single n=6 item uses the fixed heuristic, whose 1023 discarded
# saturations dominate it.
SOLVE_LADDER = ((4, "random", 26), (5, "random", 14), (6, "fixed", 1))


def _solve_item(lab, qcnf, heuristic, seed) -> bool:
    cfg = lab.SolverConfig("lev-ord", "red", heuristic=heuristic, seed=seed)
    result = lab.solve(qcnf, cfg)
    if not result.refuted:
        return False
    glued = lab.glue_qcdcl_proof(qcnf, result.proof)
    if any(s.clause.merged for s in glued.steps):
        return False
    return bool(lab.check_derivation(qcnf, glued, mode="qres", require_refutation=True))


def solve_ladder(seed: int) -> list[Item]:
    (lab,) = _modules("")
    rng = random.Random(f"solve-ladder/{seed}")
    items = []
    for n, heuristic, count in SOLVE_LADDER:
        qcnf = lab.generate(lab.FamilySpec("equality", n))
        for _ in range(count):
            s = rng.randrange(2 ** 31) if heuristic == "random" else 0
            items.append(Item(f"equality_{n}/{heuristic}/{s}",
                              partial(_solve_item, lab, qcnf, heuristic, s)))
    return items


# -- replay-goldens ----------------------------------------------------------

# Known answers: lonsing refutes in one round, trapdoor in two with a
# merge-free glued proof; qparity and equality stay within the acceptance
# suite's size bounds 6 n^2 and 8 n^2.
def _replay_item(lab, qcnf, script, decision, propagation, n, rounds, size_factor) -> bool:
    proof = lab.replay(qcnf, script, decision, propagation)
    if not proof.is_refutation():
        return False
    if n <= 8 and lab.validate_qcdcl_proof(qcnf, proof):
        return False
    if rounds is not None and len(proof.rounds) != rounds:
        return False
    if size_factor is not None and proof.size > size_factor * n * n:
        return False
    glued = lab.glue_qcdcl_proof(qcnf, proof)
    if propagation == "no-red" and any(s.clause.merged for s in glued.steps):
        return False
    return bool(lab.check_derivation(qcnf, glued, require_refutation=True))


def replay_goldens(seed: int) -> list[Item]:
    lab, goldens = _modules("", "goldens")
    plan = (
        [("lonsing", n, goldens.lonsing_script, "ass-r-ord", "red", 1, None) for n in range(2, 11)]
        + [("trapdoor", n, goldens.trapdoor_script, "lev-ord", "no-red", 2, None)
           for n in range(2, 11)]
        + [("qparity", n, goldens.qparity_script, "lev-ord", "red", None, 6)
           for n in range(4, 25, 2)]
        + [("equality", n, goldens.equality_script, "ass-r-ord", "red", None, 8)
           for n in range(2, 25, 2)]
    )
    items = []
    for family, n, script, decision, propagation, rounds, size_factor in plan:
        qcnf = lab.generate(lab.FamilySpec(family, n))
        items.append(Item(f"{family}_{n}", partial(
            _replay_item, lab, qcnf, script(n), decision, propagation, n, rounds, size_factor)))
    return items


# -- simulate-qres -----------------------------------------------------------

SIMULATE_INPUTS = (
    ["php_4-any-ord-no-red", "trapdoor_2-figure", "equality_5-lev-ord-red"]
    + [f"qparity_{n}-lev-ord-no-red" for n in (6, 7, 8)]
    + ["php_5-any-ord-no-red"]
    + [f"random_{i:02d}" for i in range(33)]
)


def _simulate_item(lab, sim, qcnf, derivation) -> bool:
    proof = sim.run_simulation(qcnf, derivation).proof()
    if (proof.decision_policy, proof.propagation_policy) != ("ass-ord", "no-red"):
        return False
    if not proof.is_refutation() or lab.validate_qcdcl_proof(qcnf, proof):
        return False
    glued = lab.glue_qcdcl_proof(qcnf, proof)
    if glued.mode != "qres" or any(s.clause.merged for s in glued.steps):
        return False
    return bool(lab.check_derivation(qcnf, glued, mode="qres", require_refutation=True))


def simulate_qres(seed: int) -> list[Item]:
    lab, sim = _modules("", "simulation")
    texts = read_pinned([n + s for n in SIMULATE_INPUTS for s in (".qdimacs", ".qrp")])
    return [
        Item(name, partial(_simulate_item, lab, sim,
                           lab.parse_qdimacs(texts[name + ".qdimacs"]),
                           lab.parse_proof(texts[name + ".qrp"])))
        for name in SIMULATE_INPUTS
    ]


# -- check-proofs ------------------------------------------------------------

# Nine proofs of five items each: an odd number of equal groups puts the
# median band on the middle group rather than between two sizes.
CHECK_INPUTS = (
    ["equality_30-golden", "qparity_30-golden", "equality_6-lev-ord-red",
     "equality_7-lev-ord-red", "php_5-any-ord-no-red"]
    + [f"qparity_{n}-lev-ord-no-red" for n in (7, 8, 9, 10)]
)


def _check_item(lab, errors, qtext, ptext, expect_valid) -> bool:
    try:
        qcnf = lab.parse_qdimacs(qtext)
        derivation = lab.parse_proof(ptext)
    except errors.QcdclError:
        return not expect_valid
    verdict = lab.check_derivation(qcnf, derivation, require_refutation=True)
    return bool(verdict) == expect_valid


def check_proofs(seed: int) -> list[Item]:
    lab, errors = _modules("", "errors")
    texts = read_pinned([n + s for n in CHECK_INPUTS for s in (".qdimacs", ".qrp")])
    items = []
    for name in CHECK_INPUTS:
        qtext, ptext = texts[name + ".qdimacs"], texts[name + ".qrp"]
        items.append(Item(name, partial(_check_item, lab, errors, qtext, ptext, True)))
        rng = random.Random(f"check-proofs/{seed}/{name}")
        for kind, bad in corruptions(qtext, ptext, rng):
            items.append(Item(f"{name}/{kind}", partial(_check_item, lab, errors, qtext, bad, False)))
    return items


# The corruptions are computed from the text alone, with an independent
# recomputation of every step's literal set, so each one is invalid by
# construction and does not depend on the checker under test.

def _prefix(qtext):
    """variable -> (level, quantifier); adjacent same-quantifier lines share a level."""
    out, level, last = {}, 0, None
    for line in qtext.splitlines():
        fields = line.split()
        if fields and fields[0] in ("e", "a"):
            if fields[0] != last:
                level, last = level + 1, fields[0]
            for v in fields[1:-1]:
                out[int(v)] = (level, fields[0])
    return out


def _matrix(qtext):
    return [frozenset(int(x) for x in line.split()[:-1]) for line in qtext.splitlines()
            if line and line[0] in "-0123456789"]


def _recompute(lines, prefix):
    """step id -> literal set (a merged universal appears in both polarities)."""
    clauses = {}
    for f in lines:
        if f[0] == "a":
            clauses[int(f[1])] = frozenset(int(x) for x in f[2:-1])
        elif f[0] == "r":
            pivot, left, right = int(f[2]), int(f[3]), int(f[4])
            clauses[int(f[1])] = (clauses[left] | clauses[right]) - {pivot, -pivot}
        elif f[0] == "u":
            c = clauses[int(f[2])]
            ex = [prefix[abs(l)][0] for l in c if prefix[abs(l)][1] == "e"]
            cut = max(ex, default=0)
            clauses[int(f[1])] = frozenset(
                l for l in c if ex and (prefix[abs(l)][1] == "e" or prefix[abs(l)][0] <= cut))
    return clauses


def corruptions(qtext: str, ptext: str, rng: random.Random):
    """Yield (kind, corrupted text) for the four corruptions, each of which
    a sound checker must reject. Corrupted steps sit in the last quarter of
    the proof, so every corrupted item costs nearly a full parse and check
    whatever the seed."""
    lines = [line.split() for line in ptext.splitlines()]
    steps = [i for i, f in enumerate(lines) if f[0] in ("a", "r", "u")]
    late = steps[3 * len(steps) // 4:]
    clauses = _recompute(lines, _prefix(qtext))
    matrix = _matrix(qtext)
    last_id = max(int(lines[i][1]) for i in steps)

    def text(replace: dict[int, str]):
        return "\n".join(replace.get(i, " ".join(f)) for i, f in enumerate(lines)) + "\n"

    # Swapped pivot: a literal of the left premise whose complement is not
    # in the right premise, so the resolution is impossible.
    def pivots():
        for i in rng.sample(late, len(late)):
            f = lines[i]
            if f[0] == "r":
                left, right = clauses[int(f[3])], clauses[int(f[4])]
                options = sorted(l for l in left if abs(l) != int(f[2]) and -l not in right)
                if options:
                    yield i, abs(rng.choice(options))

    i, pivot = next(pivots())
    yield "swapped-pivot", text({i: " ".join(["r", lines[i][1], str(pivot), *lines[i][3:]])})

    # Axiom not in the formula: a derived left premise restated as an axiom
    # just before the step that uses it.
    known = set(matrix)
    i = next(i for i in rng.sample(late, len(late))
             if lines[i][0] == "r" and clauses[int(lines[i][3])] not in known)
    f = lines[i]
    axiom = ["a", str(last_id + 1), *map(str, sorted(clauses[int(f[3])], key=abs)), "0"]
    yield "foreign-axiom", text({i: " ".join(axiom) + "\n" + " ".join(
        [*f[:3], str(last_id + 1), *f[4:]])})

    # Dangling premise: a derived step names a step id that never occurs.
    derived = [i for i in late if lines[i][0] in ("r", "u")]
    i = rng.choice(derived)
    f = list(lines[i])
    f[3 if f[0] == "r" else 2] = str(last_id + 1)
    yield "dangling-premise", text({i: " ".join(f)})

    # Non-empty conclusion: a matrix clause appended as the final step.
    clause = rng.choice([c for c in matrix if c])
    extra = ["a", str(last_id + 1), *map(str, sorted(clause, key=abs)), "0"]
    body = [f for f in lines if f[0] != "conclusion"]
    yield "nonempty-conclusion", "\n".join(
        " ".join(f) for f in body + [extra, ["conclusion", str(last_id + 1)]]) + "\n"


WORKLOADS = {
    "solve-ladder": solve_ladder,
    "replay-goldens": replay_goldens,
    "simulate-qres": simulate_qres,
    "check-proofs": check_proofs,
}
