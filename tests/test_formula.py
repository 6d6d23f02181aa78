from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdcl_lab.errors import IllegalTautologyError, PivotMissingError
from qcdcl_lab.formula import (
    Clause,
    EXISTS,
    FORALL,
    LDQRES,
    Prefix,
    QRES,
    clause_masks,
    make_clause,
    masks_clause,
    reduce_masks,
    resolve_masks,
)


def prefix_eae(*blocks):
    return Prefix(blocks)


def masks_of(prefix, c):
    return clause_masks(prefix, c.lits, c.merged)


def reduced(c, prefix):
    """Universal reduction of a clause, through its masks."""
    return masks_clause(prefix, reduce_masks(masks_of(prefix, c), prefix))


def resolved(c1, c2, pivot, mode, prefix):
    """The resolvent of two clauses, through their masks."""
    return masks_clause(prefix, resolve_masks(masks_of(prefix, c1), masks_of(prefix, c2),
                                              pivot, mode, prefix))


class TestPrefix:
    def test_merges_adjacent_same_quantifier(self):
        p = Prefix([(EXISTS, [1]), (EXISTS, [2]), (FORALL, [3])])
        assert p.blocks == ((EXISTS, (1, 2)), (FORALL, (3,)))
        assert p.level(1) == p.level(2) == 1
        assert p.level(3) == 2

    def test_rejects_duplicate_variable(self):
        with pytest.raises(ValueError):
            Prefix([(EXISTS, [1]), (FORALL, [1])])

    def test_skips_empty_blocks(self):
        p = Prefix([(EXISTS, []), (FORALL, [2])])
        assert p.blocks == ((FORALL, (2,)),)


class TestClauseMasks:
    """The fold from literals to masks: e{1} a{2} e{3}."""

    P = Prefix([(EXISTS, [1]), (FORALL, [2]), (EXISTS, [3])])

    def test_duplicates_collapse_and_opposite_literals_merge(self):
        assert clause_masks(self.P, [3, 1, 3, 2, -2]) == (0b101, 0, 0b010)
        assert make_clause(self.P, [3, 1, 3, 2, -2]) == Clause((1, 3), merged=(2,))
        assert make_clause(self.P, [-2, -3, 1], merged=[2]) == Clause((1, -3), merged=(2,))
        assert make_clause(self.P, [], merged=[-2, 2]) == Clause(merged=(2,))

    @pytest.mark.parametrize("lits, merged, message", [
        ([1, 0], (), "0 is not a literal"),
        ([1, -9], (), "variable 9 not bound by the prefix"),
        ([1], (-9,), "variable 9 not bound by the prefix"),
        ([3, 1, -3], (), "existential variable 3 cannot be merged"),
        ([1], (3,), "existential variable 3 cannot be merged"),
    ])
    def test_each_fault_has_its_message(self, lits, merged, message):
        for fold in (clause_masks, make_clause):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                fold(self.P, lits, merged)

    @pytest.mark.parametrize("lits, merged, message", [
        ([9, 0], (), "variable 9 not bound by the prefix"),
        ([0, 9], (), "0 is not a literal"),
        ([1, 0], (9,), "0 is not a literal"),
        ([3, -3, 9], (), "variable 9 not bound by the prefix"),
        ([3, -3], (9,), "variable 9 not bound by the prefix"),
        ([3, -3, -1, 1], (), "existential variable 1 cannot be merged"),
    ])
    def test_two_faults_report_the_first_walked(self, lits, merged, message):
        """Literals, then ``merged``, in their order; existential merges
        after every variable is bound, the first in rank order."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            clause_masks(self.P, lits, merged)


class TestReduce:
    def test_trailing_universal_removed(self):
        p = prefix_eae((EXISTS, [1]), (FORALL, [2]))
        c = make_clause(p, [1, 2])
        assert reduced(c, p) == make_clause(p, [1])

    def test_no_existentials_gives_empty_clause(self):
        p = Prefix([(FORALL, [1, 2])])
        c = make_clause(p, [1, 2])
        assert reduced(c, p).is_empty()

    def test_blocked_universal_stays(self):
        # u sits left of y in the prefix, so y blocks its removal.
        p = prefix_eae((EXISTS, [1]), (FORALL, [2]), (EXISTS, [3, 4]))
        c = make_clause(p, [2, 3])
        assert reduced(c, p) == c

    def test_merged_markers_reduce_like_literals(self):
        p = prefix_eae((EXISTS, [1]), (FORALL, [2]), (EXISTS, [3]))
        c = Clause(lits=(1,), merged=(2,))
        assert reduced(c, p) == Clause(lits=(1,))
        blocked = Clause(lits=(1, 3), merged=(2,))
        assert reduced(blocked, p) == blocked


class TestResolve:
    def test_worked_example(self):
        p = prefix_eae((EXISTS, [1]), (FORALL, [2]), (EXISTS, [3, 4]))
        c1 = make_clause(p, [-1, -4])
        c2 = make_clause(p, [-1, 4])
        assert resolved(c1, c2, -4, QRES, p) == make_clause(p, [-1])

    def test_low_universal_merge_rejected_both_modes(self):
        # forall u exists x: (u or -x) with (-u or x) over pivot x.
        p = Prefix([(FORALL, [1]), (EXISTS, [2])])
        c1 = make_clause(p, [-1, 2])
        c2 = make_clause(p, [1, -2])
        for mode in (QRES, LDQRES):
            with pytest.raises(IllegalTautologyError):
                resolved(c1, c2, 2, mode, p)

    def test_high_universal_merge_accepted_long_distance(self):
        # pivot at level 1, universal at level 2: merge admitted.
        p = prefix_eae((EXISTS, [1]), (FORALL, [2]), (EXISTS, [3]))
        c1 = make_clause(p, [1, 2, 3])
        c2 = make_clause(p, [-1, -2, 3])
        with pytest.raises(IllegalTautologyError):
            resolved(c1, c2, 1, QRES, p)
        r = resolved(c1, c2, 1, LDQRES, p)
        assert r == Clause(lits=(3,), merged=(2,))

    def test_merge_carries_over_from_one_premise(self):
        p = prefix_eae((EXISTS, [1]), (FORALL, [2]), (EXISTS, [3]))
        c1 = Clause(lits=(1, 3), merged=(2,))
        c2 = make_clause(p, [-1, 3])
        r = resolved(c1, c2, 1, LDQRES, p)
        assert r == Clause(lits=(3,), merged=(2,))

    def test_existential_tautology_rejected_in_long_distance(self):
        p = prefix_eae((EXISTS, [1, 2]), (FORALL, [3]), (EXISTS, [4]))
        c1 = make_clause(p, [1, 4])
        c2 = make_clause(p, [-1, -4])
        with pytest.raises(IllegalTautologyError):
            resolved(c1, c2, 1, LDQRES, p)

    def test_missing_pivot(self):
        p = Prefix([(EXISTS, [1, 2])])
        c1 = make_clause(p, [1])
        c2 = make_clause(p, [2])
        with pytest.raises(PivotMissingError):
            resolved(c1, c2, 1, QRES, p)


# -- properties --------------------------------------------------------------

alternations = st.lists(
    st.sampled_from([EXISTS, FORALL]), min_size=1, max_size=4
)


@st.composite
def prefix_and_clauses(draw):
    nvars = draw(st.integers(min_value=1, max_value=8))
    variables = list(range(1, nvars + 1))
    cuts = sorted(draw(st.sets(st.integers(1, nvars - 1), max_size=3))) if nvars > 1 else []
    start = draw(st.sampled_from([EXISTS, FORALL]))
    blocks, prev = [], 0
    quant = start
    for cut in cuts + [nvars]:
        blocks.append((quant, variables[prev:cut]))
        quant = EXISTS if quant == FORALL else FORALL
        prev = cut
    prefix = Prefix(blocks)

    def one_clause():
        chosen = draw(st.sets(st.sampled_from(variables), min_size=0, max_size=nvars))
        return make_clause(
            prefix, [v * draw(st.sampled_from([1, -1])) for v in sorted(chosen)]
        )

    return prefix, one_clause(), one_clause()


@given(prefix_and_clauses())
@settings(max_examples=200)
def test_reduce_idempotent_and_monotone(pcc):
    prefix, clause, _ = pcc
    once = reduced(clause, prefix)
    assert reduced(once, prefix) == once
    kept = set(once.lits)
    assert kept <= set(clause.lits)
    for l in clause.lits:
        if prefix.is_existential(l):
            assert l in kept


@given(prefix_and_clauses())
@settings(max_examples=200)
def test_qres_resolvent_never_tautological(pcc):
    prefix, c1, c2 = pcc
    pivots = [l for l in c1.lits if prefix.is_existential(l) and -l in c2.lits]
    for pivot in pivots:
        try:
            r = resolved(c1, c2, pivot, QRES, prefix)
        except IllegalTautologyError:
            continue
        assert not r.merged
        assert not any(-l in r.lits for l in r.lits)


# -- the kernels against the frozenset implementations they replaced ---------


def _reference_polarities(c: Clause, var: int) -> frozenset[int]:
    if var in c.merged:
        return frozenset((1, -1))
    if var in c.lits:
        return frozenset((1,))
    if -var in c.lits:
        return frozenset((-1,))
    return frozenset()


def reference_resolve(c1, c2, pivot, mode, prefix):
    """Resolution as it was before the rank table: per-variable polarity
    sets and a (level, variable) sort."""
    if mode not in (QRES, LDQRES):
        raise ValueError(f"unknown mode {mode!r}")
    pv = abs(pivot)
    if not prefix.is_existential(pv):
        raise PivotMissingError(f"pivot variable {pv} is not existential")
    if pivot not in c1.lits or -pivot not in c2.lits:
        raise PivotMissingError(f"pivot {pivot} not present with both polarities")
    lits, merged = [], []
    for v in (c1.variables() | c2.variables()) - {pv}:
        signs = _reference_polarities(c1, v) | _reference_polarities(c2, v)
        if len(signs) == 1:
            lits.append(v if 1 in signs else -v)
            continue
        if mode == QRES or prefix.is_existential(v):
            raise IllegalTautologyError(f"resolvent tautological in variable {v}")
        both_sides = v in c1.variables() and v in c2.variables()
        if both_sides and prefix.level(v) <= prefix.level(pv):
            raise IllegalTautologyError(f"universal merge on {v} blocked")
        merged.append(v)
    order = lambda v: (prefix.level(v), v)
    return Clause(
        lits=tuple(sorted(lits, key=lambda l: order(abs(l)))),
        merged=tuple(sorted(merged, key=order)),
    )


def reference_make_clause(prefix, lits, merged=()):
    pol: dict[int, set[int]] = {}
    for l in lits:
        if l == 0:
            raise ValueError("0 is not a literal")
        pol.setdefault(abs(l), set()).add(1 if l > 0 else -1)
    merged_vars = set(abs(v) for v in merged)
    plain = []
    for v, signs in pol.items():
        if len(signs) == 2:
            merged_vars.add(v)
        else:
            plain.append(v if 1 in signs else -v)
    for v in merged_vars:
        if v not in prefix:
            raise ValueError(f"variable {v} not bound by the prefix")
        if not prefix.is_universal(v):
            raise ValueError(f"existential variable {v} cannot be merged")
        if v in pol and len(pol[v]) == 1:
            plain = [l for l in plain if abs(l) != v]
    for l in plain:
        if abs(l) not in prefix:
            raise ValueError(f"variable {abs(l)} not bound by the prefix")
    order = lambda v: (prefix.level(v), v)
    return Clause(
        lits=tuple(sorted(plain, key=lambda l: order(abs(l)))),
        merged=tuple(sorted(merged_vars, key=order)),
    )


def reference_reduce(c, prefix):
    ex_levels = [prefix.level(l) for l in c.lits if prefix.is_existential(l)]
    if not ex_levels:
        return Clause()
    cut = max(ex_levels)
    lits = tuple(l for l in c.lits if prefix.is_existential(l) or prefix.level(l) <= cut)
    merged = tuple(v for v in c.merged if prefix.level(v) <= cut)
    return Clause(lits=lits, merged=merged)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # compared by type only
        return type(exc)


@st.composite
def shuffled_prefix(draw):
    """A prefix whose variable ids are out of level order."""
    ids = draw(st.lists(st.integers(1, 12), min_size=1, max_size=7, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1), max_size=4))) if len(ids) > 1 else []
    quant = draw(st.sampled_from([EXISTS, FORALL]))
    blocks, prev = [], 0
    for cut in cuts + [len(ids)]:
        blocks.append((quant, ids[prev:cut]))
        quant = EXISTS if quant == FORALL else FORALL
        prev = cut
    return Prefix(blocks)


@st.composite
def premises(draw):
    """A shuffled prefix and two normal-form clauses that may carry merged
    universals."""
    prefix = draw(shuffled_prefix())
    variables = sorted(prefix.variables)

    def one_clause():
        lits, merged = [], []
        for v in variables:
            state = draw(st.sampled_from(("absent", "pos", "neg", "merged")))
            if state == "pos":
                lits.append(v)
            elif state == "neg":
                lits.append(-v)
            elif state == "merged" and prefix.is_universal(v):
                merged.append(v)
        return make_clause(prefix, lits, merged)

    return prefix, one_clause(), one_clause()


@given(premises())
@settings(max_examples=300)
def test_resolve_matches_reference(pcc):
    prefix, c1, c2 = pcc
    for mode in (QRES, LDQRES):
        for v in prefix.variables:
            for pivot in (v, -v):
                for a, b in ((c1, c2), (c2, c1)):
                    new = outcome(resolved, a, b, pivot, mode, prefix)
                    assert new == outcome(reference_resolve, a, b, pivot, mode, prefix)


@given(shuffled_prefix(), st.data())
@settings(max_examples=300)
def test_make_clause_matches_reference(prefix, data):
    variables = sorted(prefix.variables)
    # Duplicate or opposite literals and, now and then, 0 or an unbound id
    # reach every error path.
    signed = variables + [-v for v in variables]
    lits = data.draw(st.lists(st.sampled_from(signed), max_size=10))
    lits += data.draw(st.lists(st.integers(-13, 13), max_size=1))
    merged = data.draw(st.lists(st.sampled_from(variables), max_size=2))
    made = outcome(make_clause, prefix, lits, merged)
    assert made == outcome(reference_make_clause, prefix, lits, merged)


@given(premises())
@settings(max_examples=300)
def test_reduce_matches_reference(pcc):
    prefix, c1, _ = pcc
    assert reduced(c1, prefix) == reference_reduce(c1, prefix)


@given(premises())
@settings(max_examples=300)
def test_mask_kernels_match_reference(pcc):
    """``resolve_masks`` and ``reduce_masks`` agree, through
    ``clause_masks``, with the reference rules; exceptions by type."""
    prefix, c1, c2 = pcc

    def expected(ref):
        return ref if isinstance(ref, type) else masks_of(prefix, ref)

    masks = {c: masks_of(prefix, c) for c in (c1, c2)}
    for c, m in masks.items():
        assert masks_clause(prefix, m) == c
        assert reduce_masks(m, prefix) == expected(reference_reduce(c, prefix))
    for mode in (QRES, LDQRES):
        for v in prefix.variables:
            for pivot in (v, -v):
                for a, b in ((c1, c2), (c2, c1)):
                    new = outcome(resolve_masks, masks[a], masks[b], pivot, mode, prefix)
                    assert new == expected(outcome(reference_resolve, a, b, pivot, mode, prefix))


@given(shuffled_prefix())
def test_rank_is_level_then_variable_order(prefix):
    by_rank = sorted(prefix.variables, key=prefix.rank.__getitem__)
    assert by_rank == sorted(prefix.variables, key=lambda v: (prefix.level(v), v))
    assert all(prefix.rank[v] == prefix.rank[-v] for v in prefix.variables)
