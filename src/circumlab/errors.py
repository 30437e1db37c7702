"""Exception types shared across the package."""


class CircumlabError(Exception):
    """Base class for all package errors."""


class DegenerateTriangle(CircumlabError):
    """Triangle area is below the degeneracy floor (collinear apexes)."""


class InvalidThreshold(CircumlabError):
    """Angle/regularity threshold outside its admissible range."""


class UnsupportedDegree(CircumlabError):
    """Quadrature or subspace degree outside the supported range."""


class InconsistentSpec(CircumlabError):
    """Seminorm order requires derivative evaluators the expression lacks."""


class UnknownField(CircumlabError, KeyError):
    """Field registry lookup miss."""


class InvalidExponent(CircumlabError):
    """Lebesgue exponent p outside [1, inf]."""


class InvalidFamily(CircumlabError):
    """Degenerate-family parameter outside the regime the study expects."""


class IllConditioned(CircumlabError):
    """Gram matrix condition estimate exceeds the documented threshold."""


class NotApplicable(CircumlabError):
    """Triangle shape fails the hypothesis of the requested bound."""


class ParseError(CircumlabError):
    """Mesh file syntax error; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonConforming(CircumlabError):
    """Mesh violates conformity; message describes the offending edge."""


class NoConvergence(CircumlabError):
    """Iterative solve exhausted max_iter, or (as ``SingularSystem``) its
    system could not be factored; carries the residual history."""

    def __init__(self, max_iter: int, history):
        super().__init__(
            f"no convergence in {max_iter} iterations "
            f"(final relative residual {history[-1]:.3e})"
        )
        self.max_iter = max_iter
        self.history = list(history)


class SingularSystem(NoConvergence):
    """The system's matrix is singular and could not be factored: a
    NoConvergence after 0 iterations, with the history [1.0]."""

    def __init__(self, detail: str):
        super().__init__(0, [1.0])
        self.args = (f"system is singular and could not be factored ({detail})",)
