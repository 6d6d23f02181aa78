"""Experiment orchestration: policy sweeps over families with CSV output.

One record per (instance, config) cell and repetition. Cells never abort the
sweep: failures are recorded in the outcome column. Cells run in order in
this process, so output is deterministic given the seeds (timing excluded;
see ``stable_timing``).
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

from .families import FamilySpec, generate
from .proofs import count_reductions, glue_qcdcl_proof
from .solver import SolverConfig, solve

CSV_HEADER = [
    "family", "n", "params", "policyP", "policyR", "scheme", "seed",
    "outcome", "conflicts", "iota_size", "pi_size", "reductions", "ms",
]


@dataclass
class ExperimentPlan:
    cells: list[tuple[FamilySpec, SolverConfig]]
    repetitions: int = 1
    stable_timing: bool = False   # write ms=0 for byte-reproducible CSVs


@dataclass
class RunRecord:
    spec: FamilySpec
    config: SolverConfig
    outcome: str
    conflicts: int
    iota_size: int
    pi_size: int
    reductions: int
    ms: float

    def row(self):
        params = []
        if self.spec.m is not None:
            params.append(f"m={self.spec.m}")
        if self.spec.c is not None:
            params.append(f"c={self.spec.c}")
        return [
            self.spec.family,
            self.spec.n,
            ";".join(params),
            self.config.decision_policy,
            self.config.propagation_policy,
            str(self.config.scheme),
            self.config.seed,
            self.outcome,
            self.conflicts,
            self.iota_size,
            self.pi_size,
            self.reductions,
            f"{self.ms:.1f}",
        ]


def run_cell(spec: FamilySpec, cfg: SolverConfig, stable: bool) -> RunRecord:
    started = time.perf_counter()
    try:
        qcnf = generate(spec)
        result = solve(qcnf, cfg)
        pi_size = reductions = 0
        if result.refuted:
            glued = glue_qcdcl_proof(qcnf, result.proof)
            pi_size = len(glued.steps)
            reductions = count_reductions(glued)
        ms = 0.0 if stable else (time.perf_counter() - started) * 1000
        return RunRecord(
            spec, cfg, result.status,
            result.stats.get("conflicts", 0),
            result.stats.get("iota_size", 0),
            pi_size, reductions, ms,
        )
    except Exception as exc:   # record, never abort the sweep
        ms = 0.0 if stable else (time.perf_counter() - started) * 1000
        return RunRecord(spec, cfg, f"error:{type(exc).__name__}", 0, 0, 0, 0, ms)


def run_plan(plan: ExperimentPlan) -> tuple[list[RunRecord], str]:
    records = [
        run_cell(spec, cfg, plan.stable_timing)
        for spec, cfg in plan.cells
        for _ in range(plan.repetitions)
    ]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.row())
    return records, out.getvalue()
