"""Command-line interface.

Subcommands: gen, solve, replay, check, simulate, xt-check, eval, bench,
goldens. Proof checking and goldens use the exit code (0 pass / 1 fail).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import QcdclError
from .families import FAMILIES, FamilySpec, evaluate_semantics, generate, xt_check
from .goldens import run_goldens
from .harness import ExperimentPlan, run_plan
from .learning import parse_scheme
from .proofs import (
    check_derivation,
    count_reductions,
    glue_qcdcl_proof,
    parse_proof,
    serialize_proof,
)
from .qdimacs import parse_qdimacs, serialize_qdimacs
from .replay import parse_script, replay
from .simulation import simulate_refutation
from .solver import SolverConfig, solve
from .trail import DECISION_POLICIES, PROPAGATION_POLICIES


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise QcdclError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise QcdclError(f"cannot read {path}: byte {exc.start} is not UTF-8") from None


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise QcdclError(f"cannot write {path}: {exc.strerror or exc}") from None


def _checked(fn, *args, **kwargs):
    """Call a library function that rejects out-of-range arguments with
    ``ValueError``, and report that as a ``QcdclError``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise QcdclError(str(exc)) from None


def _load_formula(path):
    return parse_qdimacs(_read(path))


def _add_policy_args(p):
    p.add_argument("--decision", choices=DECISION_POLICIES, required=True)
    p.add_argument("--propagation", choices=PROPAGATION_POLICIES, required=True)


def cmd_gen(args):
    spec = FamilySpec(args.family, args.n, m=args.m, c=args.c, seed=args.seed)
    qcnf = _checked(generate, spec)
    comments = [f"{spec.label()}", "generated by qcdcl-lab gen"]
    text = serialize_qdimacs(qcnf, comments)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args):
    qcnf = _load_formula(args.input)
    cfg = _checked(
        SolverConfig,
        decision_policy=args.decision,
        propagation_policy=args.propagation,
        scheme=parse_scheme(args.scheme),
        heuristic=args.heuristic,
        seed=args.seed,
        max_conflicts=args.max_conflicts,
    )
    result = solve(qcnf, cfg)
    stats = dict(result.stats)
    stats["status"] = result.status
    if result.refuted:
        glued = glue_qcdcl_proof(qcnf, result.proof)
        stats["pi_size"] = len(glued.steps)
        stats["reductions"] = count_reductions(glued)
        if args.emit_proof:
            _write(args.emit_proof, serialize_proof(glued))
    if args.emit_stats:
        _write(args.emit_stats, json.dumps(stats, indent=2, sort_keys=True))
    print(json.dumps(stats, sort_keys=True))
    return 0 if result.refuted else 2


def cmd_replay(args):
    qcnf = _load_formula(args.input)
    script = parse_script(_read(args.script))
    proof = replay(qcnf, script, args.decision, args.propagation)
    glued = glue_qcdcl_proof(qcnf, proof)
    if args.emit_proof:
        _write(args.emit_proof, serialize_proof(glued))
    print(
        json.dumps(
            {
                "status": "refuted",
                "rounds": len(proof.rounds),
                "iota_size": proof.size,
                "pi_size": len(glued.steps),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_check(args):
    qcnf = _load_formula(args.input)
    derivation = parse_proof(_read(args.proof))
    verdict = check_derivation(qcnf, derivation, require_refutation=not args.any_clause)
    if verdict:
        print(f"valid {derivation.mode} derivation, {len(derivation.steps)} steps, "
              f"{count_reductions(derivation)} reductions")
        return 0
    for step_id, reason in verdict.failures[:20]:
        print(f"invalid at step {step_id}: {reason}")
    return 1


def cmd_simulate(args):
    qcnf = _load_formula(args.input)
    derivation = parse_proof(_read(args.qres_proof))
    proof = simulate_refutation(qcnf, derivation)
    glued = glue_qcdcl_proof(qcnf, proof)
    if args.emit_proof:
        _write(args.emit_proof, serialize_proof(glued))
    if args.emit_rounds:
        lines = []
        for i, rnd in enumerate(proof.rounds):
            lines.append(
                f"round {i} backtrack {rnd.backtrack[0]} {rnd.backtrack[1]} "
                f"learned {' '.join(map(str, rnd.learned.all_literals()))} 0"
            )
        _write(args.emit_rounds, "\n".join(lines) + "\n")
    print(
        json.dumps(
            {"rounds": len(proof.rounds), "iota_size": proof.size,
             "pi_size": len(glued.steps)},
            sort_keys=True,
        )
    )
    return 0


def cmd_xt_check(args):
    qcnf = _load_formula(args.input)
    report = xt_check(qcnf)
    print(
        json.dumps(
            {
                "applicable": report.applicable,
                "holds": report.holds,
                "counterexample": report.counterexample,
            },
            sort_keys=True,
        )
    )
    return 0 if report.holds else 1


def cmd_eval(args):
    qcnf = _load_formula(args.input)
    value = evaluate_semantics(qcnf, max_vars=args.max_vars)
    print("true" if value else "false")
    return 0 if not value else 2


def _parse_range(text):
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi) + 1)) if dots else [int(x) for x in text.split(",")]
    except ValueError:
        raise QcdclError(f"bad range or list {text!r}") from None
    if not values:
        raise QcdclError(f"empty range {text!r}")
    return values


def _parse_policies(text):
    pairs = []
    for pair in text.split(","):
        pol_d, _, pol_r = pair.partition("/")
        if pol_d not in DECISION_POLICIES or pol_r not in PROPAGATION_POLICIES:
            raise QcdclError(
                f"bad policy pair {pair!r}; expected decision/propagation, e.g. lev-ord/red"
            )
        pairs.append((pol_d, pol_r))
    return pairs


def cmd_bench(args):
    if args.reps < 1:
        raise QcdclError("--reps must be at least 1")
    scheme = parse_scheme(args.scheme)
    pairs = _parse_policies(args.policies)
    seeds = _parse_range(args.seeds)
    cells = []
    for n in _parse_range(args.n):
        for pol_d, pol_r in pairs:
            for seed in seeds:
                cells.append(
                    (
                        FamilySpec(args.family, n, m=args.m, c=args.c, seed=args.seed),
                        _checked(
                            SolverConfig,
                            decision_policy=pol_d,
                            propagation_policy=pol_r,
                            scheme=scheme,
                            heuristic=args.heuristic,
                            seed=seed,
                            max_conflicts=args.max_conflicts,
                        ),
                    )
                )
    plan = ExperimentPlan(cells, repetitions=args.reps, stable_timing=args.stable_timing)
    _, text = run_plan(plan)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_goldens(args):
    results = _checked(
        run_goldens,
        qparity_n=args.qparity_n,
        equality_n=args.equality_n,
        trapdoor_n=args.trapdoor_n,
        lonsing_n=args.lonsing_n,
    )
    ok = True
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        ok = ok and r.ok
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="qcdcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance as QDIMACS")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run the solving loop")
    p.add_argument("--input", required=True)
    _add_policy_args(p)
    p.add_argument("--scheme", default="asserting")
    p.add_argument("--heuristic", choices=("fixed", "random"), default="fixed")
    p.add_argument("--max-conflicts", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-proof")
    p.add_argument("--emit-stats")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("replay", help="replay a scripted run")
    p.add_argument("--input", required=True)
    p.add_argument("--script", required=True)
    _add_policy_args(p)
    p.add_argument("--emit-proof")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("check", help="check a qrp-lite derivation")
    p.add_argument("--input", required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--any-clause", action="store_true",
                   help="accept derivations of arbitrary clauses, not only refutations")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="translate a plain refutation into solver rounds")
    p.add_argument("--input", required=True)
    p.add_argument("--qres-proof", required=True)
    p.add_argument("--emit-proof")
    p.add_argument("--emit-rounds")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("xt-check", help="three-block structure check")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_xt_check)

    p = sub.add_parser("eval", help="exhaustive semantic evaluation")
    p.add_argument("--input", required=True)
    p.add_argument("--max-vars", type=int, default=20)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="policy sweep with CSV output")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", required=True, help="range like 4..8 or list 4,6,8")
    p.add_argument("--m", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--seed", type=int, help="generator seed (random family)")
    p.add_argument("--policies", required=True,
                   help="comma list of decision/propagation pairs, e.g. lev-ord/red,ass-r-ord/red")
    p.add_argument("--scheme", default="asserting")
    p.add_argument("--heuristic", choices=("fixed", "random"), default="fixed")
    p.add_argument("--seeds", default="0", help="solver seeds, range or list")
    p.add_argument("--max-conflicts", type=int, default=100_000)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--stable-timing", action="store_true",
                   help="write ms=0 so identical runs produce identical CSVs")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("goldens", help="replay the scripted reference refutations")
    p.add_argument("--qparity-n", type=int, default=6)
    p.add_argument("--equality-n", type=int, default=5)
    p.add_argument("--trapdoor-n", type=int, default=2)
    p.add_argument("--lonsing-n", type=int, default=2)
    p.set_defaults(func=cmd_goldens)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QcdclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
