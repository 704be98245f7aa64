"""Shared exception types."""


class StirpermError(Exception):
    """Base class for all library errors."""


class BadPattern(StirpermError):
    """A pattern string is malformed or its value set is not 1..m."""


class LimitExceeded(StirpermError):
    """A request is above its size limit and --force was not given."""


class NotAvoider(StirpermError):
    """Input contains a pattern the operation requires it to avoid."""


class InvalidPair(StirpermError):
    """A (permutation, sequence) pair violates its bound constraints."""


class DivisibilityError(StirpermError):
    """An arithmetic step that must divide exactly left a remainder."""


class CompositionError(StirpermError):
    """Series composition requires the inner series to vanish at 0."""


class UnknownEquation(StirpermError):
    """Equation identifier is not registered."""
