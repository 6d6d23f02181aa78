"""Fuzzing of the three text formats: malformed input ends in a QcdclError.

Inputs are line soups built from the formats' own keywords and whole
header lines, small integers, ``-``, ``0`` and junk tokens, so that many
lines get past the first checks of each parser.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from qcdcl_lab import parse_proof, parse_qdimacs, parse_script
from qcdcl_lab.errors import QcdclError

KEYWORDS = (
    "p", "cnf", "e", "a", "c", "qrp-lite", "qres", "ldqres", "r", "u", "conclusion",
    "round", "d", "learn", "back", "restart", "asserting", "dec", "index:1", "#",
)
JUNK = ("-", "0", "-0", "--1", "1-", "x", "1_0", "+1", "١", "index:", "index:-1", "1e3")
WHOLE_LINES = ("p cnf 3 2", "p qrp-lite qres", "p qrp-lite ldqres", "e 1 2 0", "a 3 0",
               "round", "conclusion 0")

token = st.one_of(
    st.sampled_from(KEYWORDS + JUNK),
    st.integers(-4, 6).map(str),
    st.text(max_size=3),
)
line = st.one_of(
    st.sampled_from(WHOLE_LINES),
    st.lists(token, max_size=6).map(" ".join),
)
soup = st.lists(line, max_size=8).map("\n".join)


@given(soup)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_text_parsers_raise_only_qcdcl_errors(text):
    for parse, data in (
        (parse_qdimacs, text),
        (parse_qdimacs, text.encode()),
        (parse_proof, text),
        (parse_script, text),
    ):
        try:
            parse(data)
        except QcdclError:
            pass
