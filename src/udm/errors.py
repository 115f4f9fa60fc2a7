"""Exception types shared across the package."""


class UdmError(Exception):
    """Base class for all errors raised by this package."""


class BadArgument(UdmError, ValueError):
    """An argument outside the domain of a library function: a nonpositive
    size, an index out of range, a value that is not a field element."""


class NotPrime(UdmError):
    pass


class BadExponent(UdmError):
    pass


class NotPrimePower(UdmError):
    pass


class DivisionByZero(UdmError, ZeroDivisionError):
    pass


class DimensionMismatch(UdmError):
    pass


class RankDeficient(UdmError):
    pass


class Inconsistent(UdmError):
    pass


class TooManyChannels(UdmError):
    pass


class NotLowerTriangular(UdmError):
    pass


class ZeroDiagonal(UdmError):
    pass


class Singular(UdmError):
    pass


class BadNormalization(UdmError):
    pass


class DegenerateNullVector(UdmError):
    pass


class InsufficientSymbols(UdmError):
    pass


class DecodeMismatch(UdmError):
    """A decode returned a vector other than the one encoded."""


class BudgetExceeded(UdmError):
    pass


class BadPoint(UdmError):
    pass


class ParseError(UdmError):
    pass
