"""Experiment orchestration: policy sweeps over families with CSV output.

One CSV row per (instance, config) cell and repetition. Cells never abort the
sweep: failures are recorded in the outcome column. Cells run in order in
this process, so output is deterministic given the seeds (timing excluded;
see ``stable_timing``).
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

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


def run_cell(spec: FamilySpec, cfg: SolverConfig, stable: bool) -> list:
    """The CSV row of one cell, in ``CSV_HEADER`` order."""
    started = time.perf_counter()
    try:
        qcnf = generate(spec)
        result = solve(qcnf, cfg)
        pi_size = reductions = 0
        if result.refuted:
            glued = glue_qcdcl_proof(qcnf, result.proof)
            pi_size = len(glued.steps)
            reductions = count_reductions(glued)
        counts = [result.status, result.stats.get("conflicts", 0),
                  result.stats.get("iota_size", 0), pi_size, reductions]
    except Exception as exc:   # record, never abort the sweep
        counts = [f"error:{type(exc).__name__}", 0, 0, 0, 0]
    ms = 0.0 if stable else (time.perf_counter() - started) * 1000
    params = [f"{k}={v}" for k, v in (("m", spec.m), ("c", spec.c)) if v is not None]
    return [
        spec.family, spec.n, ";".join(params), cfg.decision_policy,
        cfg.propagation_policy, str(cfg.scheme), cfg.seed, *counts, f"{ms:.1f}",
    ]


def run_plan(plan: ExperimentPlan) -> tuple[list[list], str]:
    rows = [
        run_cell(spec, cfg, plan.stable_timing)
        for spec, cfg in plan.cells
        for _ in range(plan.repetitions)
    ]
    out = io.StringIO()
    csv.writer(out).writerows([CSV_HEADER, *rows])
    return rows, out.getvalue()
