"""Exception types shared across the package, and the integer-token check
shared by its three text parsers."""

NON_DECIMAL = "integers must be plain ASCII decimals (no '_', '+' or non-ASCII digits)"


def non_decimal(line: str) -> bool:
    """Whether ``int()`` might read a token of ``line`` that is not a plain
    ASCII decimal: it also accepts ``_`` separators, a ``+`` sign and
    non-ASCII digits. The proof parser tests a whole text once, and each
    line only if the text fails, to report the first line that does; the
    QDIMACS parser tests each line that is not a comment, since instance
    names in comments often hold a ``_``, and the script parser tests each
    line once its ``#`` comment is cut."""
    return not line.isascii() or "_" in line or "+" in line


class QcdclError(Exception):
    """Base class for all errors raised by this package."""


class QdimacsError(QcdclError):
    """Malformed QDIMACS input; carries the offending 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TautologicalAxiomError(QdimacsError):
    """An input clause contains a variable in both polarities."""


class UnboundVariableError(QdimacsError):
    """A matrix clause mentions a variable missing from the prefix."""


class IllegalTautologyError(QcdclError):
    """A resolution step would violate its mode's tautology side condition."""


class PivotMissingError(QcdclError):
    """The requested pivot does not occur with the required polarities."""


class IllegalDecisionError(QcdclError):
    """A decision violates the active decision policy."""


class PendingPropagationError(QcdclError):
    """A decision was attempted while a unit propagation is still available."""


class InvalidTimeError(QcdclError):
    """A (level, offset) pair does not name a position of the trail."""


class InternalTautologyError(QcdclError):
    """Conflict analysis produced an illegal tautology.

    Unreachable for well-formed trails; raising it signals a bug in the
    trail construction, not in the input.
    """


class ScriptDivergenceError(QcdclError):
    """A replay script does not match the propagation behaviour it implies."""


class LoopBoundExceededError(QcdclError):
    """The unreliability loop exceeded its quadratic round bound (bug signal)."""


class WitnessInvalidError(QcdclError):
    """An unreliability witness does not validate when stored (bug signal)."""


class SimulationError(QcdclError):
    """An invariant of the constructive simulation failed (bug signal)."""


class InputNotRefutationError(QcdclError):
    """The derivation handed to the simulation is not a valid refutation."""


class TooLargeError(QcdclError):
    """An instance exceeds a size bound: ``generate`` and ``random_qcnf``
    refuse one over ``families.MAX_SIZE`` variables or clauses before
    building it, and the exhaustive game evaluator one over its variable
    bound."""
