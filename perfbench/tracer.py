"""Entry-point tracer: spans and work counters at the package's layer boundaries.

The tracer lives entirely in the benchmark. It replaces each entry point
listed in ``ENTRY_POINTS`` by a wrapper in every ``qcdcl_lab`` module that
holds a reference to it, because modules import these functions by name
(``from .trail import propagate_to_fixpoint``) and patching only the
defining module would miss their calls. Modules are looked up in
``sys.modules``: ``qcdcl_lab.replay`` as an attribute of the package is the
re-exported function, not the submodule.

Each call opens a span with a parent link; a layer's self time is its
spans' duration minus the part covered by child spans. A call made while
the innermost open span already has the same name (``decide`` calling
``legal_decisions``) is not a new span, so ``.calls`` counts entries into a
layer. Counters are read from arguments and results at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

PACKAGE = "qcdcl_lab"


class TracerError(RuntimeError):
    """An entry point named in ``ENTRY_POINTS`` no longer exists."""


class EntryPoint(NamedTuple):
    module: str
    name: str
    span: str
    # count(result, args, kwargs, before) -> {counter: value}; before is pre()'s value
    count: Callable | None = None
    pre: Callable | None = None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rounds(rounds):
    return {
        "learning.rounds": len(rounds),
        "learning.backjumps": sum(1 for r in rounds if r.backtrack != (0, 0)),
    }


def _count_propagate(result, args, kwargs, before):
    return {"trail.propagate.lits": len(result.entries) - before}


def _count_solve(result, args, kwargs, before):
    stats = result.stats
    out = {
        "solver.conflicts": stats["conflicts"],
        "solver.saturations": stats["saturations"],
        "solver.trails_built": stats["conflicts"] + stats["saturations"],
        "solver.iota_size": stats["iota_size"],
    }
    if result.proof is not None:
        out.update(_rounds(result.proof.rounds))
    return out


def _count_glue(result, args, kwargs, before):
    return {
        "proofs.glue.steps": len(result.steps),
        "proofs.reductions": sum(1 for s in result.steps if s.kind == "u"),
    }


def _count_simulation(result, args, kwargs, before):
    out = {
        "simulation.rounds": len(result.rounds),
        "simulation.input_steps": len(_arg(args, kwargs, 1, "derivation").steps),
        "simulation.loop_len.max": max(result.loop_lengths, default=0),
    }
    out.update(_rounds(result.rounds))
    return out


ENTRY_POINTS = (
    EntryPoint("qcdcl_lab.trail", "propagate_to_fixpoint", "trail.propagate", _count_propagate,
               lambda args, kwargs: len(_arg(args, kwargs, 1, "trail").entries)),
    EntryPoint("qcdcl_lab.trail", "legal_decisions", "trail.decide"),
    EntryPoint("qcdcl_lab.trail", "decide", "trail.decide"),
    EntryPoint("qcdcl_lab.trail", "validate_trail", "trail.validate"),
    EntryPoint("qcdcl_lab.solver", "solve", "solver", _count_solve),
    EntryPoint("qcdcl_lab.learning", "learnable_sequence", "learning.analyze",
               lambda r, a, k, b: {"learning.seq_len": len(r.elements)}),
    EntryPoint("qcdcl_lab.learning", "asserting_time", "learning.asserting"),
    EntryPoint("qcdcl_lab.learning", "pick_learned", "learning.pick"),
    EntryPoint("qcdcl_lab.replay", "replay", "replay",
               lambda r, a, k, b: {"replay.rounds": len(r.rounds), **_rounds(r.rounds)}),
    EntryPoint("qcdcl_lab.proofs", "glue_qcdcl_proof", "proofs.glue", _count_glue),
    EntryPoint("qcdcl_lab.proofs", "check_derivation", "proofs.check",
               lambda r, a, k, b: {"proofs.check.steps": len(_arg(a, k, 1, "d").steps)}),
    EntryPoint("qcdcl_lab.proofs", "validate_qcdcl_proof", "proofs.validate"),
    EntryPoint("qcdcl_lab.proofs", "parse_proof", "proofs.parse",
               lambda r, a, k, b: {"proofs.parse.bytes": len(_arg(a, k, 0, "text"))}),
    EntryPoint("qcdcl_lab.qdimacs", "parse_qdimacs", "qdimacs.parse"),
    EntryPoint("qcdcl_lab.families", "generate", "families.generate"),
    EntryPoint("qcdcl_lab.simulation", "run_simulation", "simulation.run", _count_simulation),
    EntryPoint("qcdcl_lab.simulation", "construct_trail_with_decisions", "simulation.construct"),
    EntryPoint("qcdcl_lab.simulation", "make_unreliable", "simulation.unreliable"),
    EntryPoint("qcdcl_lab.simulation", "witness_valid", "simulation.witness"),
)


class Tracer:
    """Records spans and counters while installed; ``install``/``uninstall``
    swap the wrappers in and out so untraced passes run the plain code."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[tuple[int, str]] = []   # open spans: (id, name)
        self.clear()

    def clear(self):
        self.spans: list[tuple[int, int, str, float]] = []   # (id, parent, name, duration)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack.clear()
        self._next_id = 0

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for ep in self.entry_points:
            fn = getattr(importlib.import_module(ep.module), ep.name, None)
            if not callable(fn):
                self.uninstall()
                raise TracerError(f"entry point {ep.module}.{ep.name} no longer exists")
            wrapper = self._wrap(fn, ep)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, ep: EntryPoint):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == ep.span:
                return fn(*args, **kwargs)
            return self._call(fn, ep, args, kwargs)

        return traced

    def _call(self, fn, ep, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        before = ep.pre(args, kwargs) if ep.pre else None
        self._stack.append((sid, ep.span))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.spans.append((sid, parent, ep.span, duration))
        if ep.count:
            for key, value in ep.count(result, args, kwargs, before).items():
                if key.endswith(".max"):
                    self.counts[key] = max(self.counts[key], value)
                else:
                    self.counts[key] += value
        return result

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, duration in self.spans:
            if parent >= 0:
                child_time[parent] += duration
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, _, name, duration in self.spans:
            totals[name]["calls"] += 1
            totals[name]["self_s"] += duration - child_time[sid]
        return totals
