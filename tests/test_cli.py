from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qcdcl_lab.cli import build_parser, main
from qcdcl_lab.families import FamilySpec, generate
from qcdcl_lab.goldens import equality_script, fig_trapdoor_refutation
from qcdcl_lab.harness import CSV_HEADER, ExperimentPlan, run_plan
from qcdcl_lab.proofs import serialize_proof
from qcdcl_lab.qdimacs import serialize_qdimacs
from qcdcl_lab.replay import serialize_script

from test_fuzz import soup


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_eval_xt_pipeline(tmp_path, capsys):
    path = tmp_path / "eq2.qdimacs"
    code, _, _ = run(capsys, "gen", "--family", "equality", "--n", "2", "-o", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("c equality_2")

    code, out, _ = run(capsys, "eval", "--input", str(path))
    assert code == 0 and out.strip() == "false"

    code, out, _ = run(capsys, "xt-check", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["applicable"] and payload["holds"]


def test_solve_emits_checkable_proof(tmp_path, capsys):
    formula = tmp_path / "f.qdimacs"
    proof = tmp_path / "f.qrp"
    stats = tmp_path / "f.json"
    run(capsys, "gen", "--family", "qparity", "--n", "3", "-o", str(formula))
    code, out, _ = run(
        capsys, "solve", "--input", str(formula),
        "--decision", "lev-ord", "--propagation", "red",
        "--emit-proof", str(proof), "--emit-stats", str(stats),
    )
    assert code == 0
    assert json.loads(out)["status"] == "refuted"
    assert json.loads(stats.read_text())["reductions"] >= 0

    code, out, _ = run(capsys, "check", "--input", str(formula), "--proof", str(proof))
    assert code == 0 and out.startswith("valid")


def test_check_rejects_wrong_formula(tmp_path, capsys):
    f1 = tmp_path / "a.qdimacs"
    f2 = tmp_path / "b.qdimacs"
    proof = tmp_path / "a.qrp"
    run(capsys, "gen", "--family", "qparity", "--n", "3", "-o", str(f1))
    run(capsys, "gen", "--family", "equality", "--n", "3", "-o", str(f2))
    run(
        capsys, "solve", "--input", str(f1), "--decision", "lev-ord",
        "--propagation", "red", "--emit-proof", str(proof),
    )
    code, out, _ = run(capsys, "check", "--input", str(f2), "--proof", str(proof))
    assert code == 1 and "invalid" in out


def test_replay_cli(tmp_path, capsys):
    formula = tmp_path / "eq.qdimacs"
    script = tmp_path / "eq.script"
    run(capsys, "gen", "--family", "equality", "--n", "3", "-o", str(formula))
    script.write_text(serialize_script(equality_script(3)))
    code, out, _ = run(
        capsys, "replay", "--input", str(formula), "--script", str(script),
        "--decision", "ass-r-ord", "--propagation", "red",
    )
    assert code == 0
    assert json.loads(out)["status"] == "refuted"


def test_replay_names_an_unbound_decision_variable(tmp_path, capsys):
    """A scripted decision on a variable the prefix does not bind is
    reported in ``validate_trail``'s words, not as a policy violation."""
    formula = tmp_path / "eq.qdimacs"
    script = tmp_path / "bad.script"
    run(capsys, "gen", "--family", "equality", "--n", "2", "-o", str(formula))
    script.write_text("round\nd 99\nlearn index:0\nback restart\n")
    code, _, err = run(
        capsys, "replay", "--input", str(formula), "--script", str(script),
        "--decision", "lev-ord", "--propagation", "red",
    )
    assert code == 1
    assert err == "error: variable 99 not bound by the prefix\n"


def test_simulate_cli(tmp_path, capsys):
    formula = tmp_path / "t.qdimacs"
    proof = tmp_path / "t.qrp"
    rounds = tmp_path / "t.rounds"
    out_proof = tmp_path / "t.sim.qrp"
    run(capsys, "gen", "--family", "trapdoor", "--n", "2", "-o", str(formula))
    from qcdcl_lab.goldens import fig_trapdoor_refutation
    from qcdcl_lab.proofs import serialize_proof

    proof.write_text(serialize_proof(fig_trapdoor_refutation(2)))
    code, out, _ = run(
        capsys, "simulate", "--input", str(formula), "--qres-proof", str(proof),
        "--emit-proof", str(out_proof), "--emit-rounds", str(rounds),
    )
    assert code == 0
    assert json.loads(out)["rounds"] >= 1
    code, _, _ = run(capsys, "check", "--input", str(formula), "--proof", str(out_proof))
    assert code == 0


def test_goldens_cli(capsys):
    code, out, _ = run(
        capsys, "goldens", "--qparity-n", "4", "--equality-n", "3",
        "--trapdoor-n", "2", "--lonsing-n", "2",
    )
    assert code == 0
    assert out.count("pass") == 5


def test_bench_cli_schema(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--family", "equality", "--n", "2..3",
        "--policies", "lev-ord/red,ass-r-ord/red", "--seeds", "0",
        "--stable-timing", "-o", str(out_csv),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_csv.read_text())))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2 * 2
    outcomes = {r[7] for r in rows[1:]}
    assert outcomes == {"refuted"}


def test_empty_plan_gives_header_only():
    records, text = run_plan(ExperimentPlan(cells=[]))
    assert records == []
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [CSV_HEADER]


def test_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qdimacs"
    bad.write_text("p cnf 1 1\ne 1 0\n1 -1 0\n")
    code, _, err = run(
        capsys, "solve", "--input", str(bad),
        "--decision", "lev-ord", "--propagation", "red",
    )
    assert code == 1 and "error" in err
    formula, script = tmp_path / "eq.qdimacs", tmp_path / "eq.script"
    run(capsys, "gen", "--family", "equality", "--n", "2", "-o", str(formula))
    bench = ["bench", "--family", "qparity", "--n", "3", "--policies", "lev-ord/red"]
    solve = ["solve", "--input", str(formula), "--decision", "lev-ord", "--propagation", "red"]
    not_utf8 = tmp_path / "not-utf8.txt"
    not_utf8.write_bytes(b"p cnf 1 1\ne 1 0\n1 0\nc \xff\n")
    zero = tmp_path / "zero.script"
    zero.write_text("round\nd 0\nlearn dec\nback restart\n")
    for argv in (
        ["eval", "--input", str(not_utf8)],
        ["check", "--input", str(formula), "--proof", str(not_utf8)],
        bench[:-1] + ["foo"],
        bench[:-1] + ["foo/bar"],
        bench[:4] + ["x..3"] + bench[5:],
        ["gen", "--family", "qparity", "--n", "1"],
        ["gen", "--family", "random", "--n", "3"],
        ["gen", "--family", "random", "--n", "3", "--m", "2", "--c", "inf"],
        ["gen", "--family", "random", "--n", "3", "--m", "2", "--c", "1e300"],
        ["gen", "--family", "php", "--n", "0"],
        ["goldens", "--qparity-n", "1"],
        # Over 100,000 variables or clauses: refused before anything is
        # built, which would run out of memory or time.
        ["gen", "--family", "trapdoor", "--n", "300"],
        ["gen", "--family", "lonsing", "--n", "3000"],
        ["gen", "--family", "php", "--n", "2000"],
        ["gen", "--family", "php", "--n", "1", "--m", "1000"],
        ["gen", "--family", "qparity", "--n", "100000000"],
        ["gen", "--family", "equality", "--n", "100000000"],
        ["goldens", "--qparity-n", "100000000"],
        ["replay", "--input", str(formula), "--script", str(zero),
         "--decision", "lev-ord", "--propagation", "red"],
        solve + ["--max-conflicts", "0"],
        solve[:2] + [str(tmp_path / "missing.q")] + solve[3:],
        ["gen", "--family", "equality", "--n", "2", "-o", str(tmp_path / "no" / "x.q")],
        solve + ["--emit-stats", str(tmp_path / "no" / "s.json")],
        bench + ["-o", str(tmp_path / "no" / "b.csv")],
        bench + ["--max-conflicts", "0"],
        bench + ["--reps", "0"],
        bench[:4] + ["3..2"] + bench[5:],
        bench + ["--seeds", "5..1"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: "), argv
    script.write_text(
        serialize_script(equality_script(2)).replace("index:1", "index:99", 1)
    )
    code, _, err = run(
        capsys, "replay", "--input", str(formula), "--script", str(script),
        "--decision", "ass-r-ord", "--propagation", "red",
    )
    assert code == 1 and err.startswith("error: round "), err
    code, _, err = run(
        capsys, "solve", "--input", str(formula), "--scheme", "index:99",
        "--decision", "lev-ord", "--propagation", "red",
    )
    assert code == 1 and err.startswith("error: "), err


# -- fuzzing the command line -----------------------------------------------

# Placeholders that the fuzz test replaces by paths in its own directory:
# three input files whose contents are drawn, a missing file, the directory
# itself, and output files with and without an existing parent directory.
INPUTS = ("@formula", "@proof", "@script", "@missing", "@dir")
OUTPUTS = ("@out", "@nodir/out")
# The input each path option names when the draw is not a stray one.
INPUT_OF = {"input": "@formula", "script": "@script", "proof": "@proof", "qres_proof": "@proof"}
OUTPUT_DESTS = {"output", "emit_proof", "emit_stats", "emit_rounds"}
# Free-text option values by destination; any of them may stray to another.
WORDS_OF = {
    "n": ("1", "2..3", "3,2", "3..2", "0", "x", ""),
    "seeds": ("0", "0..1", "5..1", "x"),
    "policies": ("lev-ord/red", "any-ord/no-red,lev-ord/red", "foo/bar", "lev-ord"),
    "scheme": ("asserting", "dec", "index:0", "index:9", "index:"),
}
WORDS = tuple(w for words in WORDS_OF.values() for w in words)
# Values of the random family's size arguments, so that its draws reach the
# generator: one it builds, and two it must refuse before drawing a clause.
GENERATOR_ARGS = {"n": ("1", "2"), "m": ("1", "2"), "c": ("1.5", "1e300", "inf")}


@functools.lru_cache(maxsize=None)
def _valid_texts():
    """Per input file, whole texts that get past its parser: trapdoor and
    equality formulas, a plain refutation of the trapdoor formula, and the
    equality formula's golden script."""
    return {
        "@formula": (serialize_qdimacs(generate(FamilySpec("trapdoor", 2))),
                     serialize_qdimacs(generate(FamilySpec("equality", 2)))),
        "@proof": (serialize_proof(fig_trapdoor_refutation(2)),),
        "@script": (serialize_script(equality_script(2)),),
    }


def _subcommands():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _mostly(likely, stray):
    """``likely`` nine times in ten, else ``stray``."""
    return st.integers(0, 9).flatmap(lambda i: stray if i == 0 else likely)


def _value(action):
    if action.choices is not None:
        return _mostly(st.sampled_from(list(action.choices)), st.just("bogus"))
    if action.type is int:
        return st.integers(-1, 5).map(str)
    if action.type is float:
        return st.sampled_from(("0.5", "2", "-1", "x", "inf", "nan", "1e300"))
    if action.dest in INPUT_OF:
        return _mostly(st.just(INPUT_OF[action.dest]), st.sampled_from(INPUTS))
    if action.dest in OUTPUT_DESTS:
        return _mostly(st.just("@out"), st.sampled_from(OUTPUTS))
    return _mostly(st.sampled_from(WORDS_OF[action.dest]), st.sampled_from(WORDS))


@st.composite
def cli_argv(draw):
    """A subcommand with each required option and a drawn subset of the
    optional ones, each with a drawn value, and now and then a stray token.
    A random family gets ``--n``, ``--m`` and ``--c`` from ``GENERATOR_ARGS``."""
    name = draw(st.sampled_from(sorted(_subcommands())))
    argv = [name]
    for action in _subcommands()[name]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if action.dest in GENERATOR_ARGS and "random" in argv:
            argv += [action.option_strings[0],
                     draw(st.sampled_from(GENERATOR_ARGS[action.dest]))]
        elif action.required or draw(st.booleans()):
            argv.append(draw(st.sampled_from(action.option_strings)))
            if action.nargs != 0:
                argv.append(draw(_value(action)))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(WORDS + ("--x",))))
    return argv


@st.composite
def input_texts(draw):
    """Contents of the three input files: line soup or a valid text each."""
    return {name: draw(_mostly(st.sampled_from(texts), soup))
            for name, texts in _valid_texts().items()}


@given(cli_argv(), input_texts())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_cli_never_prints_a_traceback(argv, texts):
    """Any argv of subcommands, options and small values, over input files
    of line soup or valid text, ends with exit code 0 or 1 (2 for ``solve``
    without a refutation and ``eval`` of a true formula), or with
    argparse's ``SystemExit(2)``, and never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {"@missing": root / "missing.q", "@dir": root,
                 "@out": root / "out.txt", "@nodir/out": root / "nodir" / "out.txt"}
        for name, text in texts.items():
            paths[name] = root / name[1:]
            paths[name].write_text(text)
        args = [str(paths.get(a, a)) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:
                assert exc.code == 2, args
                code = None
    assert "Traceback" not in err.getvalue(), args
    if code is not None:
        assert code in (0, 1) or (code == 2 and argv[0] in ("solve", "eval")), (args, code)
