from __future__ import annotations

import functools
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdcl_lab import (
    ANY_ORD,
    LEV_ORD,
    RED,
    Trail,
    check_derivation,
    count_reductions,
    glue_qcdcl_proof,
    learnable_sequence,
    parse_proof,
    parse_qdimacs,
    pick_learned,
    propagate_to_fixpoint,
    replay,
    serialize_proof,
    validate_qcdcl_proof,
)
import qcdcl_lab.proofs as proofs
from qcdcl_lab.errors import (
    NON_DECIMAL,
    IllegalTautologyError,
    PivotMissingError,
    QcdclError,
    non_decimal,
)
from qcdcl_lab.formula import QCNF, Clause, LDQRES, MODES, QRES, clause_from_raw
from qcdcl_lab.goldens import fig_trapdoor_refutation, qparity_script
from qcdcl_lab.families import FamilySpec, generate
from qcdcl_lab.learning import DEC
from qcdcl_lab.proofs import (
    AXIOM,
    REDUCE,
    RESOLVE,
    Derivation,
    ProofStep,
    QcdclProof,
    Round,
    Verdict,
)
from qcdcl_lab.solver import SolverConfig, solve
from qcdcl_lab.trail import TrailEntry

from conftest import (
    EVERY_POLICY_PAIR,
    MUTATIONS,
    PSI_TRUE,
    criterion_01_runs,
    entry_times,
    last_time,
    mutated_trail,
    proof_corpus,
    trail_of,
)
from test_formula import premises, reference_make_clause, reference_reduce
from test_fuzz import line as soup_line, soup, token as soup_token
from test_trail import reference_validate_trail


class TestCheckDerivation:
    def test_trapdoor_figure_is_valid_with_two_reductions(self):
        d = fig_trapdoor_refutation(2)
        f = generate(FamilySpec("trapdoor", 2))
        verdict = check_derivation(f, d, require_refutation=True)
        assert verdict, verdict.failures
        assert len(d.steps) == 9
        assert count_reductions(d) == 2

    def test_unsound_merge_rejected_in_both_modes(self):
        f = parse_qdimacs(PSI_TRUE)
        steps = [
            ProofStep(0, AXIOM, f.clauses[0], source=0),   # u -x
            ProofStep(1, AXIOM, f.clauses[1], source=1),   # -u x
            ProofStep(2, RESOLVE, Clause(merged=(1,)), pivot=2, left=0, right=1),
        ]
        for mode in (QRES, LDQRES):
            verdict = check_derivation(f, Derivation(steps, mode, 2), mode)
            assert not verdict
            assert any("2" == str(sid) or sid == 2 for sid, _ in verdict.failures)

    def test_single_axiom_step_valid(self):
        f = generate(FamilySpec("equality", 1))
        d = Derivation([ProofStep(0, AXIOM, f.clauses[0], source=0)], QRES, 0)
        assert check_derivation(f, d)

    def test_axiom_not_in_formula_invalid(self):
        f = generate(FamilySpec("equality", 1))
        bogus = Clause((1, 2))
        d = Derivation([ProofStep(0, AXIOM, bogus)], QRES, 0)
        assert not check_derivation(f, d)

    def test_non_empty_conclusion_fails_refutation_check(self):
        f = generate(FamilySpec("equality", 1))
        d = Derivation([ProofStep(0, AXIOM, f.clauses[0], source=0)], QRES, 0)
        assert check_derivation(f, d)
        assert not check_derivation(f, d, require_refutation=True)


# -- the mask checker against the Clause checker it replaced -----------------


def reference_resolve_clauses(c1, c2, pivot, mode, prefix):
    """Resolution as a per-variable dict pass over the premises' literals,
    raising ``resolve_masks``' messages."""
    pv = abs(pivot)
    if not prefix.is_existential(pv):
        raise PivotMissingError(f"pivot variable {pv} is not existential")
    if pivot not in c1.lits or -pivot not in c2.lits:
        raise PivotMissingError(f"pivot {pivot} not present with both polarities")
    # Variable -> its literal in the resolvent, 0 once both polarities occur.
    out = {abs(l): l for l in c1.lits}
    for v in c1.merged:
        out[v] = 0
    crossed = []   # variables that occur in both premises and merge there
    for l in c2.lits:
        v = abs(l)
        if out.setdefault(v, l) != l:
            out[v] = 0
            crossed.append(v)
    for v in c2.merged:
        if v in out:
            crossed.append(v)
        out[v] = 0
    del out[pv]
    merged = [v for v, l in out.items() if not l]
    for v in merged:
        if mode == QRES or prefix.is_existential(v):
            raise IllegalTautologyError(
                f"resolvent tautological in variable {v} (mode {mode})"
            )
    for v in crossed:
        if v != pv and prefix.level(v) <= prefix.level(pv):
            raise IllegalTautologyError(
                f"universal merge on {v} blocked: level {prefix.level(v)} "
                f"not greater than pivot level {prefix.level(pv)}"
            )
    key = prefix.rank.__getitem__
    merged.sort(key=key)
    return Clause(lits=tuple(sorted(filter(None, out.values()), key=key)), merged=tuple(merged))


def reference_check_derivation(qcnf, d, mode=None, require_refutation=False):
    """``check_derivation`` on ``Clause`` values: every step's clause is
    built, axioms are normalized by the reference rule of ``test_formula``
    and looked up among the formula's clauses, resolution is the dict pass
    above and reduction the reference rule of ``test_formula``."""
    mode = mode or d.mode
    if mode not in MODES:
        return Verdict(False, [(-1, f"unknown mode {mode!r}")])
    formula_clauses = set(qcnf.clauses)
    failures = []
    computed = {}
    seen_ids = set()
    for s in d.steps:
        if s.step_id in seen_ids:
            failures.append((s.step_id, "duplicate step id"))
            continue
        seen_ids.add(s.step_id)
        if s.kind == AXIOM:
            try:
                normal = reference_make_clause(qcnf.prefix, s.clause.all_literals())
            except ValueError as exc:
                failures.append((s.step_id, f"axiom: {exc}"))
                continue
            if normal not in formula_clauses:
                failures.append((s.step_id, "axiom not among the formula's clauses"))
                continue
            computed[s.step_id] = normal
        elif s.kind == RESOLVE:
            if s.left not in computed or s.right not in computed:
                failures.append((s.step_id, "resolve premise missing or later"))
                continue
            left, right = computed[s.left], computed[s.right]
            if s.pivot is None or s.pivot <= 0:
                failures.append((s.step_id, "resolve step without pivot variable"))
                continue
            if s.pivot in left.lits:
                pivot_lit = s.pivot
            elif -s.pivot in left.lits:
                pivot_lit = -s.pivot
            else:
                failures.append((s.step_id, f"pivot {s.pivot} missing from left premise"))
                continue
            try:
                computed[s.step_id] = reference_resolve_clauses(
                    left, right, pivot_lit, mode, qcnf.prefix
                )
            except (IllegalTautologyError, PivotMissingError) as exc:
                failures.append((s.step_id, str(exc)))
                continue
        elif s.kind == REDUCE:
            if s.src not in computed:
                failures.append((s.step_id, "reduce premise missing or later"))
                continue
            computed[s.step_id] = reference_reduce(computed[s.src], qcnf.prefix)
        else:
            failures.append((s.step_id, f"unknown step kind {s.kind!r}"))
    if d.conclusion not in computed:
        failures.append((d.conclusion, "conclusion step missing or invalid"))
    elif d.steps and d.steps[-1].step_id != d.conclusion:
        failures.append((d.conclusion, "conclusion is not the last step"))
    if require_refutation and computed.get(d.conclusion) is not None:
        if not computed[d.conclusion].is_empty():
            failures.append((d.conclusion, "refutation does not end in the empty clause"))
    return Verdict(not failures, failures, computed)


def criterion_01_refutations() -> tuple:
    """(formula, glued refutation) of every solver refutation of
    criterion 01's corpus, under every policy pair."""
    return tuple((f, glued) for _, f, _, runs in criterion_01_runs()
                 for *_, glued in runs if glued is not None)


DERIVATION_MUTATIONS = ("pivot", "premise", "kind", "duplicate-id", "foreign-axiom")


def mutated_derivation(qcnf, d, kind, rng):
    """``d`` with one step changed: its pivot swapped for another variable
    (or an unbound one), a premise re-pointed at any step id, its kind
    changed, its id set to an earlier step's, or a derived step restated
    as an axiom of its cached clause (with an unbound literal now and then)."""
    steps = list(d.steps)
    derived = [i for i, s in enumerate(steps) if s.kind in (RESOLVE, REDUCE)]
    ids = [s.step_id for s in steps]
    unbound = qcnf.num_vars + 1
    if kind == "pivot":
        resolves = [i for i in derived if steps[i].kind == RESOLVE]
        if not resolves:
            return None
        i = rng.choice(resolves)
        options = [v for v in sorted(qcnf.prefix.variables) if v != steps[i].pivot]
        steps[i] = steps[i]._replace(pivot=rng.choice(options + [unbound]))
    elif kind == "premise":
        if not derived:
            return None
        i = rng.choice(derived)
        field = "src" if steps[i].kind == REDUCE else rng.choice(("left", "right"))
        steps[i] = steps[i]._replace(**{field: rng.choice(ids)})
    elif kind == "kind":
        i = rng.randrange(len(steps))
        new = rng.choice([k for k in (AXIOM, RESOLVE, REDUCE, "x") if k != steps[i].kind])
        steps[i] = steps[i]._replace(kind=new)
    elif kind == "duplicate-id":
        if len(steps) < 2:
            return None
        i = rng.randrange(1, len(steps))
        steps[i] = steps[i]._replace(step_id=ids[rng.randrange(i)])
    else:
        if not derived:
            return None
        i = rng.choice(derived)
        clause = steps[i].clause
        if rng.random() < 0.25:
            clause = Clause(clause.lits + (unbound,), clause.merged)
        steps[i] = ProofStep(steps[i].step_id, AXIOM, clause)
    return Derivation(steps, d.mode, d.conclusion)


def assert_same_verdict(qcnf, d, mode):
    ref = reference_check_derivation(qcnf, d, mode, require_refutation=True)
    new = check_derivation(qcnf, d, mode, require_refutation=True)
    assert (new.valid, new.failures) == (ref.valid, ref.failures)
    for s in d.steps:
        if s.step_id in ref.clauses:
            assert new.clauses[s.step_id] == ref.clauses[s.step_id]
        else:
            with pytest.raises(KeyError):
                new.clauses[s.step_id]


class TestMaskCheckerMatchesTheClauseChecker:
    """Failure lists, message for message, and recomputed clauses equal
    those of the ``Clause`` checker."""

    def test_criterion_01_refutations(self):
        for qcnf, d in criterion_01_refutations():
            for mode in MODES:
                assert_same_verdict(qcnf, d, mode)

    def test_mutated_refutations(self):
        rng = random.Random(20261019)
        rejected = 0
        for qcnf, d in criterion_01_refutations():
            for kind in DERIVATION_MUTATIONS:
                bad = mutated_derivation(qcnf, d, kind, rng)
                if bad is None:
                    continue
                for mode in MODES:
                    assert_same_verdict(qcnf, bad, mode)
                rejected += not check_derivation(qcnf, bad)
        assert rejected > 1000

    @given(premises())
    @settings(max_examples=200)
    def test_one_resolution_and_reduction_per_pivot(self, pcc):
        """Two premises that may carry merged universals, as clauses of
        the database, resolved on every variable and reduced: every
        tautology and blocked-merge message."""
        prefix, c1, c2 = pcc
        qcnf = QCNF(prefix, [])
        qcnf.add_clause(c1)
        qcnf.add_clause(c2)
        for v in sorted(prefix.variables):
            for left, right in ((0, 1), (1, 0)):
                d = Derivation([
                    ProofStep(0, AXIOM, c1), ProofStep(1, AXIOM, c2),
                    ProofStep(2, RESOLVE, Clause(), pivot=v, left=left, right=right),
                    ProofStep(3, REDUCE, Clause(), src=2),
                ], LDQRES, 3)
                for mode in MODES:
                    assert_same_verdict(qcnf, d, mode)

    def test_round_derivations_of_the_proof_corpus(self):
        """Each round's derivation against the formula it was learned on:
        learned long-distance axioms may be tautological."""
        for qcnf, proof in proof_corpus():
            work = qcnf.copy()
            for rnd in proof.rounds:
                for mode in MODES:
                    assert_same_verdict(work, rnd.derivation, mode)
                work.add_clause(rnd.learned)


class TestGlue:
    def test_single_round_example_glues_to_empty(self, example_phi):
        trail = propagate_to_fixpoint(example_phi, Trail(LEV_ORD, RED))
        seq = learnable_sequence(trail, example_phi)
        picked = pick_learned(DEC, seq, trail, example_phi)
        assert picked.clause.is_empty()
        proof = QcdclProof(
            [Round(trail, picked.clause, 4, seq.derivation_for(picked.index),
                   picked.index)],
            LEV_ORD,
            RED,
        )
        assert validate_qcdcl_proof(example_phi, proof) == []
        glued = glue_qcdcl_proof(example_phi, proof)
        verdict = check_derivation(example_phi, glued, require_refutation=True)
        assert verdict, verdict.failures
        # 4 axioms, 3 resolutions, 1 final reduction of the universal unit
        assert len(glued.steps) == 8
        assert count_reductions(glued) == 1

    def test_learned_clause_references_are_stitched(self):
        f = generate(FamilySpec("equality", 2))
        result = solve(f, SolverConfig(LEV_ORD, RED, max_conflicts=10_000))
        assert result.refuted
        glued = glue_qcdcl_proof(f, result.proof)
        assert check_derivation(f, glued, require_refutation=True)
        # every axiom of the glued derivation is a matrix clause
        for s in glued.steps:
            if s.kind == AXIOM:
                assert s.source is not None and s.source < f.matrix_size

    def test_glued_size_linear_in_run_size(self):
        f = generate(FamilySpec("equality", 3))
        result = solve(f, SolverConfig(LEV_ORD, RED, max_conflicts=10_000))
        assert result.refuted
        glued = glue_qcdcl_proof(f, result.proof)
        assert len(glued.steps) <= 6 * result.proof.size


class TestValidateQcdclProof:
    def test_each_problem_is_reported(self):
        """A valid multi-round proof with backjumps passes; one mutation per
        kind of problem gets that problem's message. Backtrack times are
        mutated through the round's trail, which records them."""
        f = generate(FamilySpec("qparity", 4))
        proof = solve(f.copy(), SolverConfig(LEV_ORD, RED)).proof
        assert validate_qcdcl_proof(f, proof) == []
        assert len(proof.rounds) == 8
        assert [r.backtrack for r in proof.rounds][1:3] == [(3, 1), (2, 1)]

        def problems(idx=0, policy=LEV_ORD, **changes):
            rounds = list(proof.rounds)
            rounds[idx] = replace(rounds[idx], **changes)
            return validate_qcdcl_proof(f, QcdclProof(rounds, policy, RED))

        def resumed_at_end(idx):
            trail = proof.rounds[idx].trail
            return trail.backtrack(last_time(trail))

        first, third = proof.rounds[0], proof.rounds[3]
        unconflicted = third.trail.backtrack(entry_times(third.trail)[-2])
        short = Derivation(first.derivation.steps[1:], LDQRES, first.derivation.conclusion)
        cut = Derivation(first.derivation.steps[:1], LDQRES, 0)
        freed = mutated_trail(f, first.trail, (LEV_ORD, RED), "remove", 2, 0, 0)
        cases = [
            (problems(policy=ANY_ORD), "round 0: trail policies differ from the proof's"),
            (problems(3, trail=unconflicted), "round 3: trail has no conflict"),
            (problems(trail=resumed_at_end(0)), "round 0: first round must start from scratch"),
            (problems(1, trail=resumed_at_end(1)), "round 1: backtrack time (3, 4) invalid"),
            (problems(2, trail=resumed_at_end(2)),
             "round 2: trail disagrees with predecessor before backtrack point"),
            (problems(picked_index=99), "round 0: picked index 99 out of range"),
            (problems(picked_index=first.picked_index - 1),
             "round 0: learned clause is not the recorded sequence element"),
            (problems(derivation=short), "round 0: derivation invalid: "),
            (problems(derivation=cut), "round 0: derivation does not conclude the learned clause"),
            (problems(clause_id=first.clause_id + 1),
             f"round 0: clause id {first.clause_id + 1} out of sequence"),
            (problems(duplicate=True), "round 0: duplicate flag wrong"),
            (problems(trail=freed), "round 0: entry 2: "),
        ]
        for got, message in cases:
            assert got and got[0].startswith(message), (message, got)


    @pytest.mark.parametrize("which", ["first", "last"])
    def test_a_learned_clause_outside_the_prefix_is_a_problem(self, which):
        """A round that learns a clause on a variable the prefix does not
        bind is reported, and the check stops there instead of raising."""
        f = generate(FamilySpec("qparity", 4))
        proof = replay(f, qparity_script(4), LEV_ORD, RED)
        assert validate_qcdcl_proof(f, proof) == []
        idx = 0 if which == "first" else len(proof.rounds) - 1
        rounds = list(proof.rounds)
        rounds[idx] = replace(rounds[idx], learned=Clause((99,)))
        got = validate_qcdcl_proof(f, QcdclProof(rounds, LEV_ORD, RED))
        assert got[-1] == f"round {idx}: learned clause: variable 99 not bound by the prefix"
        assert all(p.startswith(f"round {idx}: ") for p in got), got

    def test_a_learned_clause_is_compared_whatever_its_literal_order(self):
        """The first learned clause (4 5 7) recorded as (7 5 4) is the same
        clause: the proof stays valid. A different clause, (4 5 -7), is
        still reported by both comparisons."""
        f = generate(FamilySpec("qparity", 4))
        proof = replay(f, qparity_script(4), LEV_ORD, RED)
        assert proof.rounds[0].learned == Clause((4, 5, 7))

        def problems(learned):
            rounds = [replace(proof.rounds[0], learned=learned), *proof.rounds[1:]]
            return validate_qcdcl_proof(f, QcdclProof(rounds, LEV_ORD, RED))

        assert problems(Clause((7, 5, 4))) == []
        assert problems(Clause((4, 5, -7)))[:2] == [
            "round 0: learned clause is not the recorded sequence element",
            "round 0: derivation does not conclude the learned clause",
        ]

    def test_a_learned_existential_merge_is_a_problem(self):
        """A round that learns a clause merging an existential variable is
        reported where the database refuses it, and the check stops there."""
        f = generate(FamilySpec("qparity", 4))
        proof = replay(f, qparity_script(4), LEV_ORD, RED)
        rounds = list(proof.rounds)
        rounds[0] = replace(rounds[0], learned=Clause((1,), merged=(4,)))
        got = validate_qcdcl_proof(f, QcdclProof(rounds, LEV_ORD, RED))
        assert got[-1] == "round 0: learned clause: existential variable 4 cannot be merged"
        assert all(p.startswith("round 0: ") for p in got), got

    def test_analysis_of_an_invalid_trail_is_not_run(self):
        """A conflict marker without antecedent and a last propagation
        whose antecedent lacks the pivot are trail problems; the conflict
        analysis, which would raise on them, is not run."""
        f = generate(FamilySpec("qparity", 3))
        proof = solve(f.copy(), SolverConfig(LEV_ORD, RED)).proof
        assert validate_qcdcl_proof(f, proof) == []
        trail = proof.rounds[0].trail
        assert [(e.lit, e.antecedent) for e in trail.entries[-2:]] == [(6, 6), (0, 9)]

        def problems(pos, entry):
            entries = list(trail.entries)
            entries[pos] = entry
            bad = rebuilt(trail, entries)
            rounds = [replace(proof.rounds[0], trail=bad), *proof.rounds[1:]]
            return validate_qcdcl_proof(f, QcdclProof(rounds, LEV_ORD, RED))

        assert problems(5, TrailEntry(0, None)) == [
            "round 0: entry 5: antecedent does not certify the conflict"]
        assert problems(4, TrailEntry(6, 0)) == [   # clause 0 is (1 2 -5)
            "round 0: entry 4: antecedent does not certify 6"]


def rebuilt(trail, entries, pair=None):
    """A trail of ``entries`` under ``pair`` (default: the trail's own
    policies), resumed where ``trail`` was."""
    return trail_of(entries, pair or (trail.decision_policy, trail.propagation_policy),
                    trail.resumed_at)


def from_scratch(qcnf, proof):
    """The per-round from-scratch validator: every round's trail check is
    the rescanning ``reference_validate_trail`` instead of the watch engine."""
    with mock.patch.object(proofs, "validate_trail", reference_validate_trail):
        return validate_qcdcl_proof(qcnf, proof)


PROOF_MUTATIONS = ("marker-end", "marker-mid", "repeat", "inherited", "policy")


@st.composite
def mutated_proofs(draw):
    """(formula, corpus proof with one round mutated):
    - ``marker-end``: the round resumes at the previous trail's conflict
      marker and ends there;
    - ``marker-mid``: the same, continued with the round's own entries;
    - ``repeat``: the round's trail is the previous one, resumed at the
      round's own backtrack time;
    - ``inherited``: an entry is mutated (``conftest.MUTATIONS``) in this
      round and up to two following ones, so later rounds may inherit it;
      replaced antecedents range over the clauses of the whole run;
    - ``policy``: the round's trail is relabelled to a drawn policy pair.
    """
    corpus = proof_corpus()
    qcnf, proof = corpus[draw(st.integers(0, len(corpus) - 1))]
    rounds = list(proof.rounds)
    kind = draw(st.sampled_from(PROOF_MUTATIONS))
    r = draw(st.integers(0, len(rounds) - 1))
    trail = rounds[r].trail
    if kind.startswith("marker") and r > 0:
        prev = rounds[r - 1].trail
        entries = list(prev.entries)
        if kind == "marker-mid":
            entries += trail.entries[trail.position_of_time(trail.resumed_at) + 1:]
        resumed = prev.backtrack(last_time(prev))
        rounds[r] = replace(rounds[r], trail=rebuilt(resumed, entries))
    elif kind == "repeat" and r > 0:
        rounds[r] = replace(rounds[r], trail=rebuilt(trail, rounds[r - 1].trail.entries))
    elif kind == "inherited":
        final = qcnf.copy()
        for rnd in proof.rounds:
            final.add_clause(rnd.learned)
        n = len(trail)
        mutation = (draw(st.sampled_from(MUTATIONS)), draw(st.integers(0, n - 1)),
                    draw(st.integers(0, n - 1)), draw(st.integers(0, len(final.clauses) - 1)))
        for k in range(r, min(len(rounds), r + 1 + draw(st.integers(0, 2)))):
            t = rounds[k].trail
            bad = mutated_trail(final, t, (t.decision_policy, t.propagation_policy), *mutation)
            bad.resumed_at = t.resumed_at
            rounds[k] = replace(rounds[k], trail=bad)
    elif kind == "policy":
        pair = draw(st.sampled_from(EVERY_POLICY_PAIR))
        rounds[r] = replace(rounds[r], trail=rebuilt(trail, trail.entries, pair))
    return qcnf, QcdclProof(rounds, proof.decision_policy, proof.propagation_policy)


class TestRoundsMatchTheFromScratchValidator:
    """The rounds' trail checks report exactly what the rescanning oracle
    reports per round, inherited-prefix problems included."""

    def test_every_corpus_proof(self):
        for qcnf, proof in proof_corpus():
            assert validate_qcdcl_proof(qcnf, proof) == from_scratch(qcnf, proof) == []

    @given(mutated_proofs())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_mutated_proofs(self, case):
        qcnf, proof = case
        assert validate_qcdcl_proof(qcnf, proof) == from_scratch(qcnf, proof)

    def test_the_checker_reports_inherited_problems_again(self):
        """An entry that fails its certificate in round 1 and is inherited
        by round 2 is reported in both rounds."""
        f = generate(FamilySpec("qparity", 4))
        proof = solve(f.copy(), SolverConfig(LEV_ORD, RED)).proof
        rounds = list(proof.rounds)
        for k in (1, 2):
            t = rounds[k].trail
            rounds[k] = replace(rounds[k], trail=mutated_trail(
                f, t, (LEV_ORD, RED), "replace", 2, 0, 0))
            rounds[k].trail.resumed_at = t.resumed_at
        bad = QcdclProof(rounds, LEV_ORD, RED)
        got = validate_qcdcl_proof(f, bad)
        assert got == from_scratch(f, bad)
        assert [p for p in got if "entry 2" in p] == [
            f"round {k}: entry 2: antecedent does not certify {rounds[k].trail.entries[2].lit}"
            for k in (1, 2)]


class TestPurelyExistential:
    def test_resolution_only_run_has_zero_reductions(self):
        f = generate(FamilySpec("php", 1, m=2))
        result = solve(f, SolverConfig(LEV_ORD, RED, max_conflicts=1000))
        assert result.refuted
        glued = glue_qcdcl_proof(f, result.proof)
        assert count_reductions(glued) == 0


# -- the one-split proof parser against the parser it replaced ---------------


def reference_parse_proof(text: str) -> Derivation:
    """``parse_proof`` as one strip, one digit test, one split and one
    ``int`` per token for every line, with the rule that the header and the
    conclusion record appear once each."""
    steps: list[ProofStep] = []
    mode = None
    conclusion = None
    ids: set[int] = set()
    placeholder = Clause()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c "):
            continue
        if non_decimal(line):
            raise QcdclError(f"line {line_no}: {NON_DECIMAL}")
        fields = line.split()
        if fields[0] == "p":
            if mode is not None:
                raise QcdclError(f"line {line_no}: duplicate header")
            if fields[1:] != ["qrp-lite", QRES] and fields[1:] != ["qrp-lite", LDQRES]:
                raise QcdclError(f"line {line_no}: bad header {line!r}")
            mode = fields[2]
            continue
        kind = fields[0]
        if kind == "conclusion" and conclusion is not None:
            raise QcdclError(f"line {line_no}: duplicate conclusion")
        try:
            nums = list(map(int, fields[1:]))
        except ValueError:
            raise QcdclError(f"line {line_no}: non-integer token") from None
        if kind == "conclusion":
            if len(nums) != 1:
                raise QcdclError(f"line {line_no}: conclusion needs one step id")
            conclusion = nums[0]
            continue
        if not nums or nums[-1] != 0:
            raise QcdclError(f"line {line_no}: missing terminating 0")
        if kind == RESOLVE:
            if len(nums) != 5:
                raise QcdclError(f"line {line_no}: resolve needs pivot, left, right")
            sid, pivot, left, right, _ = nums
            if left not in ids or right not in ids:
                raise QcdclError(f"line {line_no}: dangling premise id")
            steps.append(ProofStep(sid, RESOLVE, placeholder, None, pivot, left, right))
        elif kind == AXIOM:
            if len(nums) == 1:
                raise QcdclError(f"line {line_no}: axiom needs a step id")
            sid = nums[0]
            steps.append(ProofStep(sid, AXIOM, clause_from_raw(nums[1:-1])))
        elif kind == REDUCE:
            if len(nums) != 3:
                raise QcdclError(f"line {line_no}: reduce needs a source id")
            sid, src, _ = nums
            if src not in ids:
                raise QcdclError(f"line {line_no}: dangling premise id")
            steps.append(ProofStep(sid, REDUCE, placeholder, src=src))
        else:
            raise QcdclError(f"line {line_no}: unknown record {kind!r}")
        ids.add(sid)
    if mode is None:
        raise QcdclError("missing 'p qrp-lite' header")
    if conclusion is None:
        raise QcdclError("missing conclusion record")
    if conclusion not in ids:
        raise QcdclError("conclusion references a missing step")
    return Derivation(steps, mode, conclusion)


def parse_outcome(parse, text):
    """The error's type and message, or the mode, the conclusion and every
    step field by field."""
    try:
        d = parse(text)
    except QcdclError as exc:
        return type(exc), str(exc)
    return d.mode, d.conclusion, [(type(s), s.step_id, s.kind, s.clause, *s[3:])
                                  for s in d.steps]


def assert_same_parse(text):
    assert parse_outcome(parse_proof, text) == parse_outcome(reference_parse_proof, text)


@functools.lru_cache(maxsize=None)
def serialized_proofs() -> tuple[str, ...]:
    """The trapdoor figure (qres) and a glued solver refutation of
    ``qparity_4`` (ldqres, with reductions and merged universals)."""
    f = generate(FamilySpec("qparity", 4))
    glued = glue_qcdcl_proof(f, solve(f.copy(), SolverConfig(LEV_ORD, RED)).proof)
    return serialize_proof(fig_trapdoor_refutation(2)), serialize_proof(glued)


# Whitespace that ``str.split`` and ``str.strip`` skip; the no-break space is non-ASCII.
PADDING = st.text(alphabet=" \t\xa0\x1f", min_size=1, max_size=3)


@st.composite
def mutated_proof_texts(draw):
    """A serialized proof with one to three line mutations: a line deleted,
    a soup line or a copy of a line inserted, a token replaced by a soup
    token, or whitespace padded in at a token boundary."""
    lines = draw(st.sampled_from(serialized_proofs())).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("delete", "insert", "retoken", "pad")))
        i = draw(st.integers(0, len(lines)))
        if op == "insert":
            lines.insert(i, draw(st.one_of(soup_line, st.sampled_from(lines or [""]))))
            continue
        if i == len(lines):
            continue
        if op == "delete":
            del lines[i]
        elif op == "retoken":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(soup_token)
            lines[i] = " ".join(tokens)
        else:
            at = draw(st.sampled_from(
                [0, len(lines[i])] + [j for j, ch in enumerate(lines[i]) if ch == " "]))
            lines[i] = lines[i][:at] + draw(PADDING) + lines[i][at:]
    return "\n".join(lines) + "\n"


# Lines at the edges of the comment rule, the six-field resolve branch and
# the digit rule; a non-ASCII or ``_`` comment makes the digit rule fail
# on the whole text.
EDGE_LINES = (
    "", "\t", "\x1f", "c", "c 1 0", "c\t1 0", "\tc 1 2", "\xa0c 1", "c\xa01", "C 1",
    "c \u00e9", "c 1_0", "r 9 1 0 1 0", " r\t9 1 0 1 0 ", "r 9 1 0 1 -0", "r 9 1 0 1 00",
    "r 9 1 0 1 5", "r 9 1 0 1 x", "r 9 x 0 1 5", "r 9 1 0 99 5", "r 9 1 0 1 0 0", "r 9 1 0 1", "r 9 x 0 1 0", "r 9 1_0 0 1 0", "r 9 \u0661 0 1 0",
    "r 9 +1 0 1 0", "r 9 1 0 99 0", "r 9 1 99 0 0", "u 9 0 0", "u 9 1 -0", "u 9 1 00",
    "u 9 1 5", "u 9 1 x", "u 9 x 0", "u 9 1", "u 9 1 0 0", "u 9 99 0", "a 9 1 -1 0",
    "conclusion 0", "p qrp-lite qres", "p  qrp-lite\tldqres", "p qrp-lite qres x",
)


class TestParserMatchesTheReference:
    """``parse_proof`` returns the reference parser's steps, mode and
    conclusion, or raises its error with the same message."""

    def test_serialized_proofs(self):
        for text in serialized_proofs():
            assert_same_parse(text)
            assert parse_outcome(parse_proof, text)[0] in MODES

    @pytest.mark.parametrize("edge", EDGE_LINES)
    def test_edge_line_at_every_position(self, edge):
        lines = serialized_proofs()[0].splitlines()
        for i in range(len(lines) + 1):
            assert_same_parse("\n".join(lines[:i] + [edge] + lines[i:]) + "\n")

    @given(soup)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_line_soup(self, text):
        assert_same_parse(text)

    @given(mutated_proof_texts())
    @settings(max_examples=600, derandomize=True, deadline=None)
    def test_mutated_proofs(self, text):
        assert_same_parse(text)


class TestTraceFormat:
    def test_roundtrip_identity_on_the_figure(self):
        d = fig_trapdoor_refutation(2)
        text = serialize_proof(d)
        back = parse_proof(text)
        assert serialize_proof(back) == text
        f = generate(FamilySpec("trapdoor", 2))
        assert check_derivation(f, back, require_refutation=True)

    def test_dangling_premise_rejected(self):
        text = "p qrp-lite qres\nr 1 2 0 5 0\nconclusion 1\n"
        with pytest.raises(QcdclError):
            parse_proof(text)

    def test_missing_header_rejected(self):
        with pytest.raises(QcdclError):
            parse_proof("a 0 1 2 0\nconclusion 0\n")

    def test_missing_conclusion_rejected(self):
        with pytest.raises(QcdclError):
            parse_proof("p qrp-lite qres\na 0 1 2 0\n")

    @pytest.mark.parametrize(
        "bad", ["a 0", "conclusion", "conclusion x", "a 1 1_0 0", "a 1 +2 0", "a \u0660 1 0",
                "p qrp-lite ldqres"]
    )
    def test_malformed_record_rejected(self, bad):
        with pytest.raises(QcdclError) as err:
            parse_proof(f"p qrp-lite qres\na 0 1 2 0\n{bad}\nconclusion 0\n")
        assert err.value.args[0].startswith("line 3: ")

    @pytest.mark.parametrize("text, message", [
        ("p qrp-lite qres\na 0 1 0\np qrp-lite ldqres\nconclusion 0\n", "line 3: duplicate header"),
        ("p qrp-lite qres\na 0 1 0\na 1 2 0\nconclusion 1\nconclusion 0\n",
         "line 5: duplicate conclusion"),
    ])
    def test_second_header_or_conclusion_rejected(self, text, message):
        with pytest.raises(QcdclError) as err:
            parse_proof(text)
        assert err.value.args[0] == message
