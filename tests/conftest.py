"""Shared helpers: tiny formulas from the docs plus solver cross-checks."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import strategies as st

from qcdcl_lab import (
    NO_RED,
    QCNF,
    FamilySpec,
    SolverConfig,
    Trail,
    check_derivation,
    evaluate_semantics,
    generate,
    glue_qcdcl_proof,
    parse_qdimacs,
    replay,
    solve,
    validate_qcdcl_proof,
)
from qcdcl_lab.formula import EXISTS, FORALL, Prefix, make_clause
from qcdcl_lab.goldens import equality_script, lonsing_script, qparity_script, trapdoor_script
from qcdcl_lab.simulation import run_simulation
from qcdcl_lab.trail import DECISION_POLICIES, PROPAGATION_POLICIES, TrailEntry

# The one-alternation example used throughout: variables x=1, u=2, y=3, z=4.
EXAMPLE_PHI = """p cnf 4 4
e 1 0
a 2 0
e 3 4 0
1 2 3 0
-3 0
-1 4 0
-1 -4 0
"""

# True two-clause formula over one universal and one dependent existential.
PSI_TRUE = """p cnf 2 2
a 1 0
e 2 0
1 -2 0
-1 2 0
"""

# False single-universal formula: all four polarity combinations.
ALL_PAIRS_FALSE = """p cnf 2 4
a 1 0
e 2 0
1 2 0
1 -2 0
-1 2 0
-1 -2 0
"""


@pytest.fixture
def example_phi() -> QCNF:
    return parse_qdimacs(EXAMPLE_PHI)


@pytest.fixture
def psi_true() -> QCNF:
    return parse_qdimacs(PSI_TRUE)


def random_small_qcnf(rng: random.Random, max_vars=8, max_clauses=12) -> QCNF:
    """Small random prenex instance; clauses are non-tautological by
    construction and every variable is bound."""
    nvars = rng.randint(2, max_vars)
    variables = list(range(1, nvars + 1))
    rng.shuffle(variables)
    blocks = []
    i = 0
    quant = rng.choice((EXISTS, FORALL))
    while i < len(variables):
        width = rng.randint(1, max(1, min(3, len(variables) - i)))
        blocks.append((quant, variables[i:i + width]))
        quant = EXISTS if quant == FORALL else FORALL
        i += width
    prefix = Prefix(blocks)
    if not any(prefix.is_existential(v) for v in variables):
        blocks[-1] = (EXISTS, blocks[-1][1])
        prefix = Prefix(blocks)
    clauses = []
    for _ in range(rng.randint(2, max_clauses)):
        width = rng.randint(1, min(4, len(variables)))
        chosen = rng.sample(variables, width)
        clauses.append(make_clause(prefix, [v * rng.choice((1, -1)) for v in chosen]))
    return QCNF(prefix, clauses)


def check_refutation(qcnf: QCNF, proof) -> None:
    """Full post-conditions on a produced refutation: round validation,
    gluing, and the mode-specific tautology discipline."""
    assert proof.is_refutation()
    problems = validate_qcdcl_proof(qcnf, proof)
    assert not problems, problems[:5]
    glued = glue_qcdcl_proof(qcnf, proof)
    verdict = check_derivation(qcnf, glued, require_refutation=True)
    assert verdict, verdict.failures[:5]
    if proof.propagation_policy == NO_RED:
        assert glued.mode == "qres"
        assert all(not s.clause.merged for s in glued.steps)
        strict = check_derivation(qcnf, glued, mode="qres", require_refutation=True)
        assert strict, strict.failures[:5]


ALL_POLICY_PAIRS = [
    (d, r)
    for d in ("lev-ord", "ass-ord", "ass-r-ord", "any-ord")
    for r in ("red", "no-red")
    if (d, r) not in (("ass-ord", "red"), ("ass-r-ord", "no-red"))
]

EVERY_POLICY_PAIR = [(d, r) for d in DECISION_POLICIES for r in PROPAGATION_POLICIES]


def small_generator_instances():
    specs = [
        FamilySpec("equality", 1),
        FamilySpec("equality", 2),
        FamilySpec("qparity", 2),
        FamilySpec("qparity", 3),
        FamilySpec("php", 1, m=2),
        FamilySpec("php", 2, m=3),
        FamilySpec("trapdoor", 1),
        FamilySpec("lonsing", 1),
    ] + [FamilySpec("random", 2, m=1, c=1.5, seed=s) for s in range(5)]
    return [(spec.label(), generate(spec)) for spec in specs]


@functools.lru_cache(maxsize=None)
def criterion_01_runs() -> tuple:
    """Criterion 01's corpus, solved once for every test that reads it:
    generator members plus 500 seeded random instances with at most 8
    variables. Per instance (name, formula, truth, runs), where runs holds
    (decision policy, propagation policy, refuted, status, glued refutation
    or None) for each of ``ALL_POLICY_PAIRS``."""
    instances = small_generator_instances()
    rng = random.Random(20260809)
    for i in range(500):
        instances.append((f"random#{i}", random_small_qcnf(rng, max_vars=8, max_clauses=12)))
    out = []
    for name, f in instances:
        runs = []
        for d, r in ALL_POLICY_PAIRS:
            result = solve(f.copy(), SolverConfig(d, r, max_conflicts=4 ** f.num_vars))
            glued = glue_qcdcl_proof(f, result.proof) if result.refuted else None
            runs.append((d, r, result.refuted, result.status, glued))
        out.append((name, f, evaluate_semantics(f, max_vars=9), tuple(runs)))
    return tuple(out)


def _round_trails(base: QCNF, rounds):
    """Each round's trail with the formula it is validated against: the
    base plus the clauses learned in earlier rounds."""
    work = base.copy()
    out = []
    for rnd in rounds:
        out.append((work.copy(), rnd.trail))
        work.add_clause(rnd.learned)
    return out


@functools.lru_cache(maxsize=None)
def _corpus_runs() -> tuple:
    """(formula, proof) pairs of solver runs under all eight policy pairs,
    golden replays and a simulation (last), with the simulation's state."""
    proofs = []
    rng = random.Random(20261018)
    for _ in range(6):
        f = random_small_qcnf(rng, max_vars=6, max_clauses=10)
        for d, r in EVERY_POLICY_PAIR:
            result = solve(f.copy(), SolverConfig(d, r, max_conflicts=4 ** f.num_vars))
            if result.proof is not None:
                proofs.append((f, result.proof))
    for family, script, d, r in (
        ("qparity", qparity_script, "lev-ord", "red"),
        ("equality", equality_script, "ass-r-ord", "red"),
        ("trapdoor", trapdoor_script, "lev-ord", "no-red"),
        ("lonsing", lonsing_script, "ass-r-ord", "red"),
    ):
        f = generate(FamilySpec(family, 3))
        proofs.append((f, replay(f, script(3), d, r)))
    f = generate(FamilySpec("qparity", 3))
    proof = solve(f, SolverConfig("lev-ord", NO_RED)).proof
    state = run_simulation(f, glue_qcdcl_proof(f, proof))
    proofs.append((f, state.proof()))
    return tuple(proofs), state


def proof_corpus() -> tuple:
    """(formula, proof) pairs: solver runs under all eight policy pairs,
    golden replays and a simulation."""
    return _corpus_runs()[0]


@functools.lru_cache(maxsize=None)
def trail_corpus() -> tuple:
    """(formula, trail) pairs: the rounds of every corpus proof, and the
    simulation's witnesses."""
    proofs, state = _corpus_runs()
    corpus = [pair for f, proof in proofs for pair in _round_trails(f, proof.rounds)]
    corpus += [(state.work, w.trail) for w in state.witnesses.values()]
    return tuple(corpus)


MUTATIONS = ("none", "delete", "swap", "negate", "replace", "remove")


def mutated_trail(qcnf: QCNF, trail, pair, kind, i, j, cid) -> Trail:
    """A copy of ``trail`` under the policy ``pair`` with one mutation at
    entry ``i``: the entry deleted, swapped with entry ``j``, its literal
    negated, its antecedent replaced by clause ``cid`` or removed (which
    makes it a decision)."""
    entries = list(trail.entries)
    if entries:
        i, j = i % len(entries), j % len(entries)
        e = entries[i]
        if kind == "delete":
            del entries[i]
        elif kind == "swap":
            entries[i], entries[j] = entries[j], e
        elif kind == "negate":
            entries[i] = TrailEntry(-e.lit, e.antecedent)
        elif kind == "replace":
            entries[i] = TrailEntry(e.lit, cid % len(qcnf.clauses))
        elif kind == "remove":
            entries[i] = TrailEntry(e.lit, None)
    return trail_of(entries, pair)


def trail_of(entries, pair, resumed_at=(0, 0)) -> Trail:
    """A trail of ``entries`` under the policy ``pair``, resumed at
    ``resumed_at``."""
    out = Trail(*pair)
    out.resumed_at = resumed_at
    for e in entries:
        if e.lit == 0:
            out.append_conflict(e.antecedent)
        elif e.antecedent is None:
            out.append_decision(e.lit)
        else:
            out.append_propagation(e.lit, e.antecedent)
    return out


def assignment_of(trail) -> dict[int, bool]:
    """The trail's assignment, variable to value, built from its entries:
    the test oracles' view of a trail."""
    return {abs(e.lit): e.lit > 0 for e in trail.entries if e.lit}


def entry_times(trail) -> list[tuple[int, int]]:
    """Each entry's time (level, offset), counted from the decisions before
    it: a decision opens the next level at offset 0, every other entry
    (the conflict marker too, even one a mutation left without its
    antecedent) takes the next offset of the current level."""
    times, level, offset = [], 0, 0
    for e in trail.entries:
        opens = e.is_decision and e.lit != 0
        level, offset = (level + 1, 0) if opens else (level, offset + 1)
        times.append((level, offset))
    return times


def last_time(trail) -> tuple[int, int]:
    """The time of the trail's last entry: backtracking to it copies the
    trail onto a fresh one."""
    return entry_times(trail)[-1] if trail.entries else (0, 0)


@st.composite
def corpus_cases(draw):
    """(formula, corpus trail, mutated copy under a drawn policy pair)."""
    corpus = trail_corpus()
    qcnf, trail = corpus[draw(st.integers(0, len(corpus) - 1))]
    n = max(len(trail), 1)
    mutant = mutated_trail(
        qcnf, trail,
        draw(st.sampled_from(EVERY_POLICY_PAIR)),
        draw(st.sampled_from(MUTATIONS)),
        draw(st.integers(0, n - 1)),
        draw(st.integers(0, n - 1)),
        draw(st.integers(0, len(qcnf.clauses) - 1)),
    )
    return qcnf, trail, mutant
