"""Regenerate the pinned inputs of the simulate-qres and check-proofs workloads.

Run from the repository root:

    python3 perfbench/make_inputs.py

It solves or replays each input with the package under ``src/``, writes the
formula as QDIMACS and the glued refutation as qrp-lite into
``perfbench/inputs/``, and rewrites ``perfbench/inputs/SHA256SUMS``. The
benchmark refuses to run when a file no longer matches its recorded hash,
so a solver change cannot silently change what these workloads measure;
regenerating is a deliberate, reviewable change of the benchmark.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
sys.path.insert(0, str(HERE.parent / "src"))

from qcdcl_lab import (  # noqa: E402
    FamilySpec,
    SolverConfig,
    check_derivation,
    generate,
    glue_qcdcl_proof,
    replay,
    serialize_proof,
    serialize_qdimacs,
    solve,
)
from qcdcl_lab.formula import EXISTS, FORALL, Prefix, QCNF, make_clause  # noqa: E402
from qcdcl_lab.goldens import equality_script, fig_trapdoor_refutation, qparity_script  # noqa: E402
from qcdcl_lab.trail import ANY_ORD, ASS_ORD, ASS_R_ORD, LEV_ORD, NO_RED, RED  # noqa: E402

RANDOM_CORPUS_SIZE = 33
RANDOM_CORPUS_SEED = 2026


def random_formula(rng: random.Random) -> QCNF:
    """A small random prenex formula in the style of the simulation
    acceptance corpus: 10 to 14 variables in alternating blocks of one to
    three, and 24 to 36 clauses of width three or four."""
    variables = list(range(1, rng.randint(10, 14) + 1))
    rng.shuffle(variables)
    blocks, i = [], 0
    quant = rng.choice((EXISTS, FORALL))
    while i < len(variables):
        width = rng.randint(1, min(3, len(variables) - i))
        blocks.append((quant, variables[i:i + width]))
        quant = EXISTS if quant == FORALL else FORALL
        i += width
    blocks[-1] = (EXISTS, blocks[-1][1])
    prefix = Prefix(blocks)
    clauses = []
    for _ in range(rng.randint(24, 36)):
        chosen = rng.sample(variables, rng.randint(3, 4))
        clauses.append(make_clause(prefix, [v * rng.choice((1, -1)) for v in chosen]))
    return QCNF(prefix, clauses)


def solved(qcnf, decision, propagation):
    result = solve(qcnf.copy(), SolverConfig(decision, propagation))
    if not result.refuted:
        raise SystemExit(f"expected a refutation, got {result.status}")
    return glue_qcdcl_proof(qcnf, result.proof)


def build():
    """Yield (name, formula, derivation) for every pinned input."""
    for n in (6, 7, 8, 9, 10):
        f = generate(FamilySpec("qparity", n))
        yield f"qparity_{n}-lev-ord-no-red", f, solved(f, LEV_ORD, NO_RED)
    for n in (4, 5):
        f = generate(FamilySpec("php", n))
        yield f"php_{n}-any-ord-no-red", f, solved(f, ANY_ORD, NO_RED)
    for n in (5, 6, 7):
        f = generate(FamilySpec("equality", n))
        yield f"equality_{n}-lev-ord-red", f, solved(f, LEV_ORD, RED)
    f = generate(FamilySpec("qparity", 30))
    yield "qparity_30-golden", f, glue_qcdcl_proof(f, replay(f, qparity_script(30), LEV_ORD, RED))
    f = generate(FamilySpec("equality", 30))
    yield "equality_30-golden", f, glue_qcdcl_proof(f, replay(f, equality_script(30), ASS_R_ORD, RED))
    yield "trapdoor_2-figure", generate(FamilySpec("trapdoor", 2)), fig_trapdoor_refutation(2)
    rng = random.Random(RANDOM_CORPUS_SEED)
    made = 0
    while made < RANDOM_CORPUS_SIZE:
        f = random_formula(rng)
        for decision in (ASS_ORD, ANY_ORD, LEV_ORD):
            result = solve(f.copy(), SolverConfig(decision, NO_RED, max_conflicts=4 ** f.num_vars))
            if result.refuted:
                yield f"random_{made:02d}", f, glue_qcdcl_proof(f, result.proof)
                made += 1
                break


def main():
    INPUTS.mkdir(exist_ok=True)
    for old in INPUTS.glob("*"):
        old.unlink()
    sums = []
    for name, qcnf, derivation in build():
        if not check_derivation(qcnf, derivation, require_refutation=True):
            raise SystemExit(f"{name}: refutation does not check")
        for suffix, text in ((".qdimacs", serialize_qdimacs(qcnf, [name])),
                             (".qrp", serialize_proof(derivation))):
            path = INPUTS / (name + suffix)
            path.write_text(text)
            sums.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {path.name}")
    (INPUTS / "SHA256SUMS").write_text("\n".join(sums) + "\n")
    print(f"wrote {len(sums)} files to {INPUTS}")


if __name__ == "__main__":
    main()
