from __future__ import annotations

import pytest

from qcdcl_lab import FamilySpec, generate, parse_qdimacs, serialize_qdimacs
from qcdcl_lab.errors import (
    QdimacsError,
    TautologicalAxiomError,
    UnboundVariableError,
)
from qcdcl_lab.formula import EXISTS, FORALL, Clause


def test_basic_three_level_parse():
    text = "p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 2 3 0\n-1 -3 0\n"
    f = parse_qdimacs(text)
    assert len(f.prefix.blocks) == 3
    assert len(f.clauses) == 2
    assert f.prefix.quant(1) == EXISTS
    assert f.prefix.quant(2) == FORALL


def test_adjacent_existential_lines_merge():
    f = parse_qdimacs("p cnf 2 1\ne 1 0\ne 2 0\n1 2 0\n")
    assert f.prefix.blocks == ((EXISTS, (1, 2)),)
    assert f.prefix.level(1) == f.prefix.level(2) == 1


def test_tautological_clause_rejected():
    with pytest.raises(TautologicalAxiomError):
        parse_qdimacs("p cnf 1 1\ne 1 0\n1 -1 0\n")


def test_free_variable_rejected():
    with pytest.raises(UnboundVariableError) as err:
        parse_qdimacs("p cnf 2 1\ne 1 0\n1 2 0\n")
    assert err.value.line_no == 3


def test_malformed_clause_line_reports_position():
    for text in (
        "p cnf 1 1\ne 1 0\n1 x 0\n",
        b"p cnf 1 1\ne 1 0\n\xff 0\n",
        "p cnf 10 1\ne 10 0\n1_0 0\n",
        "p cnf 10 1\ne 10 0\n+10 0\n",
        "p cnf 1 1\ne 1 0\n\u0661 0\n",
    ):
        with pytest.raises(QdimacsError) as err:
            parse_qdimacs(text)
        assert err.value.line_no == 3


def test_missing_terminator_rejected():
    with pytest.raises(QdimacsError):
        parse_qdimacs("p cnf 1 1\ne 1 0\n1\n")


def test_content_before_header_rejected():
    with pytest.raises(QdimacsError):
        parse_qdimacs("e 1 0\np cnf 1 0\n")


def test_duplicate_literal_collapses():
    f = parse_qdimacs("p cnf 2 1\ne 1 2 0\n1 1 2 0\n")
    assert f.clauses[0].lits == (1, 2)


def test_comments_and_blank_lines_ignored():
    f = parse_qdimacs("c hello\n\np cnf 1 1\nc mid\ne 1 0\n1 0\n")
    assert len(f.clauses) == 1


def test_roundtrip_identity_on_normalized_input():
    text = "p cnf 4 3\ne 1 2 0\na 3 0\ne 4 0\n1 2 0\n-1 3 4 0\n-2 -4 0\n"
    f = parse_qdimacs(text)
    out = serialize_qdimacs(f)
    f2 = parse_qdimacs(out)
    assert serialize_qdimacs(f2) == out
    assert f2.clauses == f.clauses
    assert f2.prefix.blocks == f.prefix.blocks


def test_added_clauses_agree_with_their_masks_through_a_round_trip():
    """On qparity_4 (universal 5), a clause added with both polarities of 5
    is stored as the merged clause its masks name, which serialization
    refuses instead of writing a text the parser refuses. One with a
    repeated literal is stored without it; one in normal form but another
    order is stored as given. The text then parses back to the same masks."""
    f = generate(FamilySpec("qparity", 4))
    merged = f.copy()
    cid, _ = merged.add_clause(Clause((1, 5, -5)))
    assert merged.clauses[cid] == Clause((1,), merged=(5,))
    with pytest.raises(ValueError, match="^cannot serialize tautological clause"):
        serialize_qdimacs(merged)
    cid, _ = f.add_clause(Clause((7, 1, 7)))
    assert f.clauses[cid] == Clause((1, 7))
    cid, duplicate = f.add_clause(Clause((7, 1)))
    assert f.clauses[cid] == Clause((7, 1)) and duplicate
    back = parse_qdimacs(serialize_qdimacs(f))
    assert back.masks == f.masks


def test_quantifier_line_after_clause_rejected():
    with pytest.raises(QdimacsError):
        parse_qdimacs("p cnf 2 1\ne 1 0\n1 0\na 2 0\n")
