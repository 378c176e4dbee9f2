"""Exception types shared across the package, and its whole-number checks."""


class PwexpError(Exception):
    """Base class for errors raised by pwexp operations."""


class EmptyPieceError(PwexpError):
    """A hazard piece contains no events (or no exposure), so its rate is
    not estimable. ``piece`` is the 1-based index of the offending piece."""

    def __init__(self, piece: int, detail: str = "no events"):
        self.piece = piece
        super().__init__(f"hazard piece {piece} is not estimable: {detail}")


class NoFeasibleModelError(PwexpError):
    """The sample or the search cannot support the requested model.

    Raised when the data are valid but too thin for the requested
    change-points (no observed event, no more distinct event times than
    change-points, too few positive-survival Kaplan-Meier steps for the OLS
    search), and when every candidate change-point combination was
    infeasible. Resampling records such a replicate as a failure; a bad
    argument raises ``ValueError`` instead.
    """


def _whole(value, name: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is a whole number (an
    int, a numpy integer or a whole-valued float)."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return whole


def _threads(value) -> int:
    """A worker count as an int; ``ValueError`` unless it is a whole number
    of at least 1. Every function with a ``threads`` argument checks it here
    before any work."""
    threads = _whole(value, "threads")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {value!r}")
    return threads
