"""Exception types shared across the toolkit."""


class MalformedTables(ValueError):
    """Operation tables are missing, ragged, out of range, or inconsistent."""


class StructureFileError(ValueError):
    """A structure file could not be parsed into operation tables."""


class EmptyArgument(ValueError):
    """An operation that needs a nonempty subset got the empty one."""


class ImproperFilter(ValueError):
    """The operation is only defined for proper filters."""


class BadN(ValueError):
    """The integer parameter is outside the defined range."""


class NotMinimalPrime(ValueError):
    """An argument claimed to be a minimal prime filter is not one."""


class SearchExhausted(RuntimeError):
    """A witness search guaranteed to succeed found nothing."""


class RepresentationMismatch(RuntimeError):
    """Two provably equal routes to the same set disagreed."""


class SizeOutOfRange(ValueError):
    """Requested carrier size is outside the supported search range."""


class InvalidBaseLattice(ValueError):
    """The given order relation is not a bounded lattice."""
