"""Exception types shared across the package."""


class MagiclabError(Exception):
    """Base class for all package errors."""


class GraphSpecError(MagiclabError):
    """Malformed graph-spec text or adjacency file.

    Carries ``position`` (character offset or line number) when known.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.position = position


class DomainError(MagiclabError):
    """Inputs outside the domain a closed-form result covers."""


class SizeLimitError(MagiclabError):
    """A construction exceeded a configured size cap."""


class BudgetExceededError(MagiclabError):
    """An exhaustive search ran out of its time budget.

    ``lower`` is the largest excess fully ruled out before the budget hit.
    """

    def __init__(self, message, lower=0):
        super().__init__(message)
        self.lower = lower


class InternalInconsistencyError(MagiclabError):
    """A construction produced an object that failed its own verifier.

    Surfacing this instead of returning the object keeps every emitted
    labeling and array a genuine certificate.
    """
