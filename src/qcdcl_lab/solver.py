"""The end-to-end solving loop: natural trails, learning, backtracking.

Decisions are the only free choice; propagation and conflicts are forced.
The default heuristic picks the lowest admissible variable, existentials
positive. A saturated trail and a duplicate learned clause both bump a
polarity counter and restart; its bit j flips the polarity per universal
decision, of the one after j others. That is complete: while saturations
repeat, the database is fixed, decisions follow prefix order and only
existentials propagate, so the existential side plays one fixed strategy.
On a false formula a pattern of universal bits beats it; any 2^U consecutive
counter values (U universals) hold it, so at most 2^U - 1 saturate in a row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .formula import QCNF
from .learning import ASSERTING, LearningScheme, learn
from .proofs import QcdclProof, Round
from .trail import (
    DECISION_POLICIES,
    PROPAGATION_POLICIES,
    Trail,
    legal_bits,
    legal_decisions,
    propagate_to_fixpoint,
)

REFUTED = "refuted"
BUDGET_EXHAUSTED = "budget-exhausted"
SATURATED = "saturated-no-conflict"


@dataclass
class SolverConfig:
    decision_policy: str
    propagation_policy: str
    scheme: LearningScheme = ASSERTING
    heuristic: str = "fixed"      # "fixed" | "random"
    seed: int = 0
    max_conflicts: int = 100_000

    def __post_init__(self):
        if self.decision_policy not in DECISION_POLICIES:
            raise ValueError(f"unknown decision policy {self.decision_policy!r}")
        if self.propagation_policy not in PROPAGATION_POLICIES:
            raise ValueError(f"unknown propagation policy {self.propagation_policy!r}")
        if self.heuristic not in ("fixed", "random"):
            raise ValueError(f"unknown heuristic {self.heuristic!r}")
        if self.max_conflicts < 1:
            raise ValueError("conflict budget must be at least 1")


@dataclass
class SolveResult:
    status: str
    proof: QcdclProof | None
    stats: dict = field(default_factory=dict)

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED


def _pick_decision(trail, qcnf, cfg, flip_counter, rng):
    if cfg.heuristic == "random":
        legal = legal_decisions(trail, qcnf)
        return rng.choice(legal) if legal else None
    # Minimal (level, id) legal variable: prefix-order exploration is legal
    # under every decision policy and, combined with the polarity counter,
    # guarantees a conflicting branch is reached on false inputs. It is the
    # lowest legal rank bit. Existentials are positive; the polarity flips per
    # universal decision: bit j negates the pick after j universal decisions.
    if not (bits := legal_bits(trail, qcnf)):
        return None
    var = qcnf.prefix.ranked[(bits & -bits).bit_length() - 1]
    if bits & -bits & qcnf.prefix.exist_bits:
        return var
    j = sum(qcnf.prefix.is_universal(abs(d)) for d in trail.decisions())
    return -var if (flip_counter >> j) & 1 else var


def solve(qcnf: QCNF, cfg: SolverConfig) -> SolveResult:
    work = qcnf.copy()
    rng = random.Random(cfg.seed)
    rounds: list[Round] = []
    flip_counter = 0
    saturations_total = 0
    saturation_streak = 0

    def stats():
        return {
            "conflicts": len(rounds),
            "saturations": saturations_total,
            "iota_size": sum(len(r.trail) for r in rounds),
        }

    trail = Trail(cfg.decision_policy, cfg.propagation_policy)
    while True:
        propagate_to_fixpoint(work, trail)
        if not trail.conflicted:
            lit = _pick_decision(trail, work, cfg, flip_counter, rng)
            if lit is not None:
                trail.append_decision(lit)
                continue
            # Saturated: every variable assigned, nothing falsified.
            saturations_total += 1
            saturation_streak += 1
            flip_counter += 1
            if saturation_streak >= 2 ** min(work.num_vars, 16):
                return SolveResult(SATURATED, None, stats())
            trail = Trail(cfg.decision_policy, cfg.propagation_policy)
            continue

        saturation_streak = 0
        rnd, picked = learn(cfg.scheme, trail, work, rounds)
        if picked.clause.is_empty():
            proof = QcdclProof(rounds, cfg.decision_policy, cfg.propagation_policy)
            return SolveResult(REFUTED, proof, stats())
        if len(rounds) >= cfg.max_conflicts:
            return SolveResult(BUDGET_EXHAUSTED, None, stats())
        if rnd.duplicate:
            flip_counter += 1
            trail = Trail(cfg.decision_policy, cfg.propagation_policy)
        else:
            trail = trail.backtrack(picked.time)
