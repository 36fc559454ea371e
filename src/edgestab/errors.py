"""Exception types shared across the package."""


class EdgeStabError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomialError(EdgeStabError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class BoundOrderViolation(EdgeStabError):
    """An interval entry has a lower coefficient bound above its upper bound."""


class DimensionMismatch(EdgeStabError):
    """A parameter vector or matrix does not have the expected shape."""


class DegreeDropError(EdgeStabError):
    """The leading-coefficient interval of a determinant family contains zero."""


class RegionNotHurwitzError(EdgeStabError):
    """The interval driver supports the open left half plane only."""


class ValidationFailure(EdgeStabError):
    """A family failed structural validation required by an analysis driver."""


class SchemaError(EdgeStabError):
    """An input file does not match the expected JSON layout."""
