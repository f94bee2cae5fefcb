"""Exception hierarchy shared across the package."""


class RipsDecompError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(RipsDecompError):
    """Malformed data: empty facet, non-square matrix, negative distance, ..."""


class NotASubcomplex(RipsDecompError):
    """The claimed subcomplex has a simplex the ambient complex lacks."""


class EnumerationRefused(RipsDecompError):
    """A flag complex was asked to materialize simplices above its cap."""


class EmptyComplex(RipsDecompError):
    """The operation needs at least one simplex."""


class CoverError(RipsDecompError):
    """A vertex cover does not match the complex it is paired with."""
