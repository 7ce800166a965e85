"""Exception types shared across the library.

The CLI maps them to exit codes, so callers can tell an unphysical
measurement outcome apart from a numerical failure without parsing
messages: `FeasibilityError` and `ForbiddenOutcomeError` exit with
``cli.EXIT_INFEASIBLE`` (3), `RegimeError` with ``cli.EXIT_REGIME`` (4),
`QuadratureError` with ``cli.EXIT_QUADRATURE`` (5) and any other error with
``cli.EXIT_OTHER`` (1).
"""


class ChargeQuenchError(Exception):
    """Base class for all library errors."""


class FeasibilityError(ChargeQuenchError):
    """A measurement outcome violates the ballistic time-delay bound."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class RegimeError(ChargeQuenchError):
    """A closed form was requested outside the regime where it is known."""


class QuadratureError(ChargeQuenchError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ForbiddenOutcomeError(ChargeQuenchError):
    """Exact-oracle projection onto an outcome of (numerically) zero weight."""
