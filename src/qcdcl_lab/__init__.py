"""Policy-parameterized QCDCL solving, proof extraction and checking, QBF
formula families, and a constructive simulation of plain resolution."""

from .families import FamilySpec, XtReport, evaluate_semantics, generate, xt_check
from .formula import (
    Clause,
    LDQRES,
    Prefix,
    QCNF,
    QRES,
    make_clause,
)
from .learning import (
    ASSERTING,
    DEC,
    LearnableSequence,
    LearningScheme,
    asserting_time,
    learnable_sequence,
    parse_scheme,
    pick_learned,
)
from .proofs import (
    Derivation,
    ProofStep,
    QcdclProof,
    Round,
    check_derivation,
    count_reductions,
    glue_qcdcl_proof,
    parse_proof,
    serialize_proof,
    validate_qcdcl_proof,
)
from .qdimacs import parse_qdimacs, serialize_qdimacs
from .replay import ReplayScript, ScriptRound, parse_script, replay, serialize_script
from .simulation import (
    SimState,
    Witness,
    construct_trail_with_decisions,
    make_unreliable,
    simulate_refutation,
)
from .solver import SolveResult, SolverConfig, solve
from .trail import (
    ANY_ORD,
    ASS_ORD,
    ASS_R_ORD,
    LEV_ORD,
    NO_RED,
    RED,
    Trail,
    decide,
    decide_in_order,
    dump_trail,
    legal_decisions,
    propagate_to_fixpoint,
    validate_trail,
)

__version__ = "0.1.0"
