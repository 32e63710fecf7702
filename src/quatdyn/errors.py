"""Exception taxonomy.

AlgebraError covers failures of the mathematics (split elements, degree caps
and work budgets, non-convergence); ParseError covers malformed input text and UsageError
out-of-range arguments. The CLI maps the first to exit code 1 and the other
two to exit code 2.
"""


class AlgebraError(ArithmeticError):
    """Base class for mathematical failures."""


class FieldMismatchError(AlgebraError):
    """Operands belong to different ground fields."""


class SpecMismatchError(AlgebraError):
    """Operands belong to different algebras."""


class NoRealEmbeddingError(AlgebraError):
    """The ground field has no real embedding (d < 0)."""


class SplitAlgebraError(AlgebraError):
    """A nonzero element of zero norm was inverted: the algebra is split at
    this element and is not a division ring for these parameters."""

    def __init__(self, message="algebra is split at this element; "
                 "not a division ring for these parameters"):
        super().__init__(message)


class DegreeCapError(AlgebraError):
    """A computation would pass its bound: the degree cap of a built composite,
    or the bit-height or step budget of an iteration that builds none."""


class ZeroPolynomialError(AlgebraError):
    """An operation that needs a nonzero polynomial received the zero one."""


class UnsupportedAlgebraError(AlgebraError):
    """The operation is not defined over this coefficient algebra."""


class ConvergenceError(AlgebraError):
    """The simultaneous root iteration did not converge within its budget."""


class ClassSearchIncompleteError(AlgebraError):
    """Exact class extraction could not fully factor the companion polynomial.

    Carries the classes found so far and the degree of the unfactored
    remainder; the remainder's classes are irrational and need numeric mode.
    """

    def __init__(self, message, classes=(), remainder_degree=0):
        super().__init__(message)
        self.classes = tuple(classes)
        self.remainder_degree = remainder_degree


class ParseError(ValueError):
    """Malformed expression text; `position` is a 0-based character index."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UsageError(ValueError):
    """A command-line argument is outside its allowed range."""
