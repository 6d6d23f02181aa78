"""Deterministic replay of scripted runs.

A script prescribes, per round, the decisions in order, the learning choice,
and the backtrack target. Propagation between decisions is the normal
natural propagation; if a scripted decision's variable was already
propagated in the same polarity the decision is skipped, and an opposite
propagation is a divergence. Optional `p <lit> <clause-id>` lines pin the
next propagation to a named antecedent, which must actually be forcing at
its turn.

File format, line-oriented:

    round
    d <lit> [<lit> ...]
    p <lit> <clause-id>          # optional forced-propagation overrides
    learn <asserting|dec|index:k>
    back <s> <t> | back restart | back asserting
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import NON_DECIMAL, QcdclError, ScriptDivergenceError, non_decimal
from .formula import QCNF
from .learning import learn, parse_scheme
from .proofs import QcdclProof, Round
from .trail import Time, Trail, decide_in_order, propagate_to_fixpoint


@dataclass
class ScriptRound:
    decisions: list[int] = field(default_factory=list)
    learn: str = "asserting"            # "asserting" | "dec" | "index:k"
    back: str | Time = "restart"        # "restart" | "asserting" | (s, t)
    forced: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class ReplayScript:
    rounds: list[ScriptRound]


def parse_script(text: str) -> ReplayScript:
    rounds: list[ScriptRound] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if non_decimal(line):
            raise ScriptDivergenceError(f"line {line_no}: {NON_DECIMAL}")
        fields = line.split()
        if fields[0] == "round":
            rounds.append(ScriptRound())
            continue
        if not rounds:
            raise ScriptDivergenceError(f"line {line_no}: directive before any 'round'")
        cur = rounds[-1]
        directive, args = fields[0], fields[1:]
        if directive == "d":
            cur.decisions.extend(_literals(line_no, args))
        elif directive == "p" and len(args) == 2:
            cur.forced.append((*_literals(line_no, args[:1]), *_ints(line_no, args[1:])))
        elif directive == "learn" and len(args) == 1:
            try:
                parse_scheme(args[0])
            except QcdclError as exc:
                raise ScriptDivergenceError(f"line {line_no}: {exc}") from None
            cur.learn = args[0]
        elif directive == "back" and args in (["restart"], ["asserting"]):
            cur.back = args[0]
        elif directive == "back" and len(args) == 2:
            cur.back = tuple(_ints(line_no, args))
        elif directive in ("p", "learn", "back"):
            raise ScriptDivergenceError(
                f"line {line_no}: wrong number of arguments to {directive!r}"
            )
        else:
            raise ScriptDivergenceError(f"line {line_no}: unknown directive {directive!r}")
    return ReplayScript(rounds)


def _ints(line_no, fields):
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ScriptDivergenceError(f"line {line_no}: non-integer token") from None


def _literals(line_no, fields):
    lits = _ints(line_no, fields)
    if 0 in lits:
        raise ScriptDivergenceError(f"line {line_no}: 0 is not a literal")
    return lits


def serialize_script(script: ReplayScript) -> str:
    lines = []
    for rnd in script.rounds:
        lines.append("round")
        if rnd.decisions:
            lines.append("d " + " ".join(map(str, rnd.decisions)))
        for lit, cid in rnd.forced:
            lines.append(f"p {lit} {cid}")
        lines.append(f"learn {rnd.learn}")
        if isinstance(rnd.back, tuple):
            lines.append(f"back {rnd.back[0]} {rnd.back[1]}")
        else:
            lines.append(f"back {rnd.back}")
    return "\n".join(lines) + "\n"


def replay(qcnf: QCNF, script: ReplayScript, decision_policy: str,
           propagation_policy: str) -> QcdclProof:
    """Run the script and return the induced proof.

    The final round must learn the empty clause; any mismatch between the
    script and forced behaviour raises ScriptDivergenceError (decisions that
    violate the policy raise IllegalDecisionError).
    """
    work = qcnf.copy()
    rounds: list[Round] = []
    trail = Trail(decision_policy, propagation_policy)
    for rno, rnd in enumerate(script.rounds):
        forced = deque(rnd.forced)
        propagate_to_fixpoint(work, trail, forced=forced)
        stopped = decide_in_order(work, trail, rnd.decisions, forced=forced)
        if stopped is not None:
            raise ScriptDivergenceError(
                f"round {rno}: conflict arrived before decision {stopped}"
                if trail.conflicted
                else f"round {rno}: {stopped} was propagated with opposite polarity"
            )
        if not trail.conflicted:
            raise ScriptDivergenceError(f"round {rno}: no conflict after the decisions")
        if forced:
            raise ScriptDivergenceError(f"round {rno}: unused propagation overrides")
        try:
            _, picked = learn(parse_scheme(rnd.learn), trail, work, rounds)
        except QcdclError as exc:
            raise ScriptDivergenceError(f"round {rno}: {exc}") from exc
        if picked.clause.is_empty():
            break
        if rnd.back == "restart":
            target: Time = (0, 0)
        elif rnd.back == "asserting":
            target = picked.time
        else:
            target = rnd.back
        trail = trail.backtrack(target)
    else:
        raise ScriptDivergenceError("script ended without learning the empty clause")
    return QcdclProof(rounds, decision_policy, propagation_policy)
