"""Exception hierarchy shared by all algebra layers."""


class AlgebraError(Exception):
    """Base class for errors raised by the kernel."""


class InputRejected(AlgebraError):
    """Base class for errors that refuse an input rather than report a
    failed computation; the CLI exits 2 on these."""


class SymbolSetMismatch(AlgebraError):
    """Operands live over different symbol sets."""


class DivisionByZero(AlgebraError, ZeroDivisionError):
    """Exact division by a zero scalar."""


class TruncationUnderflow(AlgebraError):
    """Truncated-series divisor is indistinguishable from zero at its order."""


class MissingSymbol(AlgebraError):
    """Numeric evaluation with an incomplete assignment."""


class NearPoleEvaluation(AlgebraError):
    """Numeric evaluation too close to a denominator zero."""


class NumericOverflow(AlgebraError):
    """Numeric evaluation left the float range (a non-finite value)."""


class ExponentOutOfRange(InputRejected):
    """Exponent outside the range that packed exponent keys can hold."""


class UnknownGenerator(AlgebraError):
    """Word references a generator the presentation does not declare."""


class NonInvertibleNegativePower(AlgebraError):
    """Negative exponent on a generator that is not invertible."""


class PresentationMismatch(AlgebraError):
    """Elements of different presentations combined."""


class NotAUnit(AlgebraError):
    """Inversion requested for an element that is not an even unit."""


class NotNilpotent(AlgebraError):
    """Series exponential of a matrix with an entry of weight 0, whose
    terms would never leave the weight window."""


class InvalidRay(InputRejected):
    """Series configuration with a degenerate ray."""


class BadAssignment(InputRejected):
    """Numeric assignment that is not a name=number pair."""


class UnknownIdentifier(InputRejected):
    """Expression references a name the active context does not define."""


class DslSyntaxError(InputRejected):
    """Parse failure; carries position and the expected token kinds."""

    def __init__(self, message, pos, expected=()):
        super().__init__(f"{message} at position {pos}" +
                         (f" (expected {', '.join(expected)})" if expected else ""))
        self.pos = pos
        self.expected = tuple(expected)


class GcdBudgetExceeded(InputRejected):
    """A polynomial gcd needed more steps than its fixed work budget
    (``poly.GCD_BUDGET``)."""


class DivisionBudgetExceeded(InputRejected):
    """An exact polynomial division needed more work than its fixed
    budget (``poly.DIVISION_BUDGET``)."""


class ProductTooLarge(InputRejected):
    """Expression evaluation reached a product of more term pairs than
    the DSL's work bound."""


class CoefficientTooLarge(InputRejected):
    """A coefficient to print has more digits than Python converts to a
    string (``sys.get_int_max_str_digits``)."""


class UnsupportedNegativeN(AlgebraError):
    """Closed power-block forms are defined for positive exponents only."""
