"""Exception types shared across the library.

Hard input errors raise; recoverable solver events (happy breakdown, budget
exhaustion, stagnation) are reported through SolveReport instead.
"""


class KrylovError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(KrylovError):
    pass


class RankDeficient(KrylovError):
    """A reduced QR factorization met a (near-)zero diagonal entry.

    `column` is the first offending column, which equals the numerical rank
    of the input.  ``EigenPairSet.capped`` raises RankDeficient(0) when no
    conjugate-closed set of deflation pairs fits its column budget.
    """

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(message or f"rank deficient at column {column}")


class SingularTriangle(KrylovError):
    """Givens-reduced triangle has a negligible diagonal entry."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"singular triangular entry at {index}")


class NoConvergence(KrylovError):
    """The iterative dense eigensolver exhausted its iteration budget."""


class SingularPencil(KrylovError):
    """Both matrices of a generalized eigenproblem are singular together."""


class NotOrthonormal(KrylovError):
    """An input matrix expected to have orthonormal columns does not."""


class ZeroPivot(KrylovError):
    """Incomplete factorization hit a zero pivot."""

    def __init__(self, row, message=None):
        self.row = row
        super().__init__(message or f"zero pivot in row {row}")


class SingularHm(KrylovError):
    """The square Hessenberg block is singular; deflation is impossible."""


class StaleRecycle(KrylovError):
    """A recycled subspace no longer satisfies A*U = C for the current A."""


class StrategyBDegenerate(KrylovError):
    """A trailing-block eigenvalue sits on the unit eigenvalue of the head."""


class SingularKs(KrylovError):
    """The small structural block cannot be factorized."""


class SingularMonolithic(KrylovError):
    """The assembled two-field block matrix is singular."""


class MaxCouplings(KrylovError):
    """The partitioned driver reached its coupling budget."""


class DivergenceDetected(KrylovError):
    """The partitioned driver's fluid residual grew by 10x over 3 cycles."""


class ParseError(KrylovError):
    """Matrix Market input could not be parsed; carries the 1-based line."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonSquare(KrylovError):
    pass


class UnsupportedField(KrylovError):
    """Matrix Market field/symmetry outside of real general/symmetric."""


class ConfigError(KrylovError):
    """Scenario configuration is invalid; carries field and reason."""

    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"config field '{field}': {reason}")


class ParameterError(ValueError):
    """A solver or driver parameter is out of range; ``name`` is its key."""

    def __init__(self, name, reason):
        self.name = name
        super().__init__(reason)


class SchemaMismatch(KrylovError):
    """Convergence-history CSV files do not share the expected schema."""
