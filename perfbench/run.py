"""qcdcl-lab benchmark: one workload per process, timed from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 25 --trace 0

The process imports the package from ``src/`` next to this directory, sets
the workload up several times (import plus input generation or parsing;
the median is ``setup_s``), runs one untimed warm-up item, then runs whole
passes over the workload's item list until another pass would overrun
``--seconds``. Every item's output is checked; a wrong answer, a rejected
valid proof, an accepted corrupted proof or an exception counts as a failed
item. With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics describe one traced set-up plus one traced pass.

Item and pass times are reported in ``ref`` units: seconds divided by the
seconds of ``reference()``, a fixed pure-Python loop that does not touch
the package and is timed at the start and end of every pass and about
every half second in between. The shared machines this runs on change
speed by 20% and more over minutes, which moves every raw time of a run
together; the ratio cancels that drift, while a change to the package
still moves it in full. Raw seconds are printed on the comment lines.

Comment lines (``#``) report the machine, the item counts, raw times and,
when tracing, each layer's share of self time. The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 7
TAIL_PERCENTILES = (90, 80, 75, 70)
BAND = 5   # percentile points on each side of a reported quantile
REF_EVERY_S = 0.5


def tail_percentile(items_per_pass: int) -> int:
    """Highest percentile whose band has at least ten items of one pass beyond it."""
    for p in TAIL_PERCENTILES:
        if items_per_pass * (100 - p - BAND) >= 1000:
            return p
    raise ValueError("a pass needs at least 40 items")


def band_quantile(values, p):
    """Mean of the sorted values from percentile p - BAND to p + BAND.

    Items of one pass differ in size by orders of magnitude; a plain sample
    quantile that falls between two sizes jumps from one to the other when
    noise reorders a single item. Averaging the band around it does not.
    """
    v = sorted(values)
    last = len(v) - 1
    lo = math.ceil(last * (p - BAND) / 100)
    hi = math.floor(last * (p + BAND) / 100)
    return statistics.fmean(v[lo:hi + 1])


def import_package():
    """Import qcdcl_lab afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == tracing.PACKAGE or m.startswith("qcdcl_lab.")]:
        del sys.modules[name]
    lab = importlib.import_module(tracing.PACKAGE)
    if not Path(lab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qcdcl_lab imported from {lab.__file__}, not from {SRC}")
    return lab


def setup(build, seed, tracer=None):
    start = time.perf_counter()
    import_package()
    if tracer is not None:
        tracer.install()
    try:
        items = build(seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start, items


# A fixed formula for reference(): 400 clauses of four literals over 300
# variables, each variable given one of seven levels.
_REF_LEVEL = {v: v % 7 for v in range(1, 301)}
_REF_CLAUSES = [tuple(((i * k) % 300 + 1) * (1 if (i + k) % 3 else -1) for k in (1, 7, 13, 29))
                for i in range(400)]


def reference() -> float:
    """Seconds taken by a fixed clause-classification loop shaped like the
    package's propagation (dict lookups, tuple scans, small lists, a sort),
    written here so that no package change can alter it."""
    start = time.perf_counter()
    forced = 0
    for rnd in range(90):
        assignment = {v: (v + rnd) % 2 == 0 for v in range(1, 301, 2 + rnd % 3)}
        for clause in _REF_CLAUSES:
            alive = []
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    alive.append(lit)
                elif value == (lit > 0):
                    break
            else:
                if len(alive) == 1 and _REF_LEVEL[abs(alive[0])] > 2:
                    forced += 1
    sorted((_REF_LEVEL[v], v) for v in _REF_LEVEL)
    return time.perf_counter() - start


class Pass(NamedTuple):
    latencies: list[float]   # seconds per item
    failed: int
    ref: float               # mean reference() seconds during the pass

    @property
    def wall_ref(self):
        return sum(self.latencies) / self.ref


def run_item(item) -> bool:
    try:
        ok = item.run()
    except Exception:   # an item that raises is a failed item; keep measuring
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"# FAILED {item.label}", file=sys.stderr)
    return ok


def run_pass(items) -> Pass:
    """Run every item once, timing reference() around and between items."""
    refs = [reference()]
    latencies, failed = [], 0
    last_ref = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        failed += not run_item(item)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if t1 - last_ref >= REF_EVERY_S:
            refs.append(reference())
            last_ref = time.perf_counter()
    refs.append(reference())
    return Pass(latencies, failed, statistics.mean(refs))


def machine_line():
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       "unknown")
    except OSError:
        cpu = "unknown"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# machine: python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
            f"cpu {cpu!r}, loadavg {load}")


def layer_metrics(setup_tracer, pass_tracer, passes, overhead):
    """Per-layer metrics for one traced set-up plus one traced pass."""
    totals = {}
    for tr, scale in ((setup_tracer, 1), (pass_tracer, passes)):
        for name, t in tr.layer_totals().items():
            acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += t["calls"] / scale
            acc["self_s"] += t["self_s"] / scale
    counts = {}
    for tr, scale in ((setup_tracer, 1), (pass_tracer, passes)):
        for key, value in tr.counts.items():
            counts[key] = counts.get(key, 0) + (value if key.endswith(".max") else value / scale)

    def t(name, field):
        return totals.get(name, {}).get(field, 0)

    def c(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("trail.propagate", "trail.decide", "trail.validate", "learning.analyze",
                  "learning.asserting", "proofs.check", "simulation.construct",
                  "simulation.unreliable", "simulation.witness"):
        m[f"{layer}.calls"] = (t(layer, "calls"), "count")
        m[f"{layer}.self_s"] = (t(layer, "self_s"), "s")
    for layer in ("solver", "replay", "proofs.glue", "proofs.validate", "proofs.parse",
                  "qdimacs.parse", "families.generate", "simulation.run", "learning.pick"):
        m[f"{layer}.self_s"] = (t(layer, "self_s"), "s")
    m["trail.propagate.lits"] = (c("trail.propagate.lits"), "count")
    m["trail.propagate.us_per_lit"] = (
        ratio(1e6 * t("trail.propagate", "self_s"), c("trail.propagate.lits")), "us")
    for key in ("solver.conflicts", "solver.saturations", "solver.trails_built",
                "solver.iota_size", "replay.rounds", "proofs.glue.steps", "proofs.reductions",
                "simulation.rounds", "simulation.loop_len.max"):
        m[key] = (c(key), "count")
    m["solver.useful_trail_ratio"] = (ratio(c("solver.conflicts"), c("solver.trails_built")),
                                      "ratio")
    m["learning.seq_len.mean"] = (ratio(c("learning.seq_len"), t("learning.analyze", "calls")),
                                  "count")
    m["learning.backjump_ratio"] = (ratio(c("learning.backjumps"), c("learning.rounds")), "ratio")
    m["proofs.check.steps_per_s"] = (ratio(c("proofs.check.steps"), t("proofs.check", "self_s")),
                                     "1/s")
    m["proofs.parse.mb_per_s"] = (
        ratio(c("proofs.parse.bytes") / 1e6, t("proofs.parse", "self_s")), "MB/s")
    m["simulation.rounds_per_step"] = (
        ratio(c("simulation.rounds"), c("simulation.input_steps")), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")

    total_self = sum(v["self_s"] for v in totals.values()) or 1.0
    shares = sorted(((v["self_s"] / total_self, k) for k, v in totals.items()), reverse=True)
    print("# self-time shares: " + ", ".join(f"{k} {100 * s:.1f}%" for s, k in shares))
    print("# counts per pass: " + json.dumps(
        {k: counts[k] for k in sorted(counts)}, sort_keys=True))
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    build = workloads.WORKLOADS[args.workload]
    spec = json.loads(SPEC.read_text())

    try:
        setup_times = []
        for _ in range(SETUPS):
            seconds, items = setup(build, args.seed)
            setup_times.append(seconds)
        setup_tracer = tracing.Tracer()
        if args.trace:
            _, items = setup(build, args.seed, setup_tracer)
    except (ImportError, workloads.InputHashError, tracing.TracerError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # A fixed interleaving spreads each size class over the whole pass, so
    # the pass's reference time applies to every class alike.
    random.Random(f"order/{args.workload}").shuffle(items)
    warm_ok = run_item(items[0])
    plain, traced = [], []
    pass_tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(items))
        if args.trace:
            pass_tracer.install()
            try:
                traced.append(run_pass(items))
            finally:
                pass_tracer.uninstall()
        if time.perf_counter() - start + (time.perf_counter() - t0) > args.seconds:
            break
    attempted = len(items) * (len(plain) + len(traced))
    failed = sum(p.failed for p in plain + traced)

    p = tail_percentile(len(items))
    normalized = [x / q.ref for q in plain for x in q.latencies]
    raw_seconds = [x for q in plain for x in q.latencies]
    print(machine_line())
    print(f"# workload {args.workload} seed {args.seed}: {len(plain)} untraced passes of "
          f"{len(items)} items; item_ref.tail = p{p} (band p{p - BAND}-p{p + BAND}) over "
          f"{len(normalized)} items; "
          f"failed {failed} of {attempted} (warm-up {'ok' if warm_ok else 'FAILED'})")
    print(f"# raw: wall_s {statistics.median(sum(q.latencies) for q in plain):.4f}, "
          f"item_ms.p50 {1000 * band_quantile(raw_seconds, 50):.4f}, "
          f"item_ms.tail {1000 * band_quantile(raw_seconds, p):.4f}, "
          f"reference_ms {1000 * statistics.median(q.ref for q in plain):.4f}")
    if args.trace:
        overhead = (statistics.median(q.wall_ref for q in traced)
                    / statistics.median(q.wall_ref for q in plain) - 1)
        metrics = layer_metrics(setup_tracer, pass_tracer, len(traced), overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_ref": (statistics.median(q.wall_ref for q in plain), "ref"),
            "item_ref.p50": (band_quantile(normalized, 50), "ref"),
            "item_ref.tail": (band_quantile(normalized, p), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        print(f"perfbench: metrics {sorted(set(declared) ^ set(metrics))} are not both declared "
              f"in {SPEC.name} and measured", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
