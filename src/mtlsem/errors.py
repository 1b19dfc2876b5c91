"""Exception types shared across the toolkit."""


class MtlsemError(ValueError):
    """Base class for all toolkit errors."""


class EmptyWordError(MtlsemError):
    """A timed word, state sequence or period must contain at least one element."""


class NonMonotoneError(MtlsemError):
    """Timestamps decrease at `position`."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"timestamps decrease at position {position}")


class FirstTimestampError(MtlsemError):
    """The first timestamp must be 0 unless nonzero starts are explicitly allowed."""


class AdjacencyError(MtlsemError):
    """Consecutive intervals of a timed state sequence are not adjacent at `position`."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"interval at position {position} is not adjacent to its predecessor")


class OutOfDomainError(MtlsemError):
    """Evaluation time lies outside the covered time domain."""


class SeamStutterError(MtlsemError):
    """A maximal flat subsequence spans the prefix/period seam of a lasso."""


class FormulaSyntaxError(MtlsemError):
    """Concrete-syntax error, with the offending input position."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"syntax error at {position}: {message}")


class UnknownAtomError(MtlsemError):
    """Atom not declared in the alphabet."""


class BetaNotAllowedError(MtlsemError):
    """The position-zero atom is only meaningful under the mixed semantics."""


class PositionError(MtlsemError, IndexError):
    """A position or block index lies outside the model: an input error, and
    still an IndexError to callers that catch one."""
