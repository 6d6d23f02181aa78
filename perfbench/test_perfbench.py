"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import workloads

# A few cheap items per workload, enough to reach every traced layer.
SUBSETS = {
    "solve-ladder": slice(0, 3),
    "replay-goldens": slice(0, 12),
    "simulate-qres": slice(0, 4),
    "check-proofs": slice(0, 10),
}


def traced_pass(workload, seed=3):
    run.import_package()
    items = workloads.WORKLOADS[workload](seed)[SUBSETS[workload]]
    tr = tracing.Tracer()
    tr.install()
    try:
        assert all(item.run() for item in items)
    finally:
        tr.uninstall()
    return tr


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_deterministic_counts_repeat_exactly(workload):
    first, second = traced_pass(workload), traced_pass(workload)
    calls = lambda tr: {k: v["calls"] for k, v in tr.layer_totals().items()}
    assert dict(first.counts) == dict(second.counts)
    assert calls(first) == calls(second)


def test_self_times_partition_the_traced_time():
    tr = traced_pass("simulate-qres")
    totals = tr.layer_totals()
    roots = sum(d for _, parent, _, d in tr.spans if parent < 0)
    assert all(t["self_s"] >= -1e-9 for t in totals.values())
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(roots, rel=1e-9)
    assert totals["trail.propagate"]["calls"] > 0 and totals["simulation.witness"]["calls"] > 0


def test_every_importing_module_is_patched_and_restored():
    lab = run.import_package()
    trail = importlib.import_module("qcdcl_lab.trail")
    replay_module = importlib.import_module("qcdcl_lab.replay")
    original = trail.propagate_to_fixpoint
    tr = tracing.Tracer()
    tr.install()
    try:
        for mod in (trail, replay_module, lab.solver, lab.simulation, lab):
            assert mod.propagate_to_fixpoint is not original
        assert replay_module.replay is lab.replay and replay_module.replay.__wrapped__
    finally:
        tr.uninstall()
    for mod in (trail, replay_module, lab.solver, lab.simulation, lab):
        assert mod.propagate_to_fixpoint is original


def test_missing_entry_point_fails_loudly():
    run.import_package()
    trail = importlib.import_module("qcdcl_lab.trail")
    original = trail.propagate_to_fixpoint
    tr = tracing.Tracer(tracing.ENTRY_POINTS + (
        tracing.EntryPoint("qcdcl_lab.trail", "no_such_entry_point", "trail.gone"),))
    with pytest.raises(tracing.TracerError, match="no_such_entry_point"):
        tr.install()
    assert trail.propagate_to_fixpoint is original


def test_every_corruption_is_rejected_and_every_valid_proof_accepted():
    run.import_package()
    for seed in (1, 2):
        items = workloads.check_proofs(seed)
        kinds = {item.label.split("/")[-1] for item in items if "/" in item.label}
        assert kinds == {"swapped-pivot", "foreign-axiom", "dangling-premise",
                         "nonempty-conclusion"}
        assert all(item.run() for item in items)


def test_pinned_input_mismatch_is_refused(tmp_path, monkeypatch):
    shutil.copytree(workloads.INPUTS, tmp_path / "inputs")
    victim = tmp_path / "inputs" / "php_5-any-ord-no-red.qrp"
    victim.write_text(victim.read_text().replace("conclusion", "c edited\nconclusion"))
    monkeypatch.setattr(workloads, "INPUTS", tmp_path / "inputs")
    with pytest.raises(workloads.InputHashError, match="php_5"):
        workloads.check_proofs(1)


def test_metric_names_match_the_declaration():
    spec = json.loads(run.SPEC.read_text())
    empty = tracing.Tracer()
    names = set(run.layer_metrics(empty, empty, 1, 0.0))
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_tail_band_keeps_ten_items_beyond():
    assert [run.tail_percentile(n) for n in (40, 45, 50, 67, 100, 200)] == [70, 70, 75, 80, 80, 90]
    with pytest.raises(ValueError):
        run.tail_percentile(39)


def test_band_quantile_averages_around_the_percentile():
    values = list(range(101))
    assert run.band_quantile(values, 50) == 50
    assert run.band_quantile(values, 70) == 70
    assert run.band_quantile([1.0] * 20 + [9.0] * 21, 50) == pytest.approx(5.8)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-proofs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
