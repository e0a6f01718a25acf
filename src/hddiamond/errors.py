"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise the
most specific one that applies rather than bare ValueError/RuntimeError.
"""

from __future__ import annotations

__all__ = ["BoundViolation", "GuardExceeded", "NetworkFormatError", "SolverFailure"]


class NetworkFormatError(ValueError):
    """Malformed network/schedule data: bad JSON shape, negative or NaN link
    values, mask strings with the wrong alphabet or length, and the like."""


class GuardExceeded(RuntimeError):
    """An operation was asked to run past its configured size guard.

    Exponential-cost routines refuse rather than silently grinding; callers
    that really want a bigger instance raise the relay guard with the
    ``HDDIAMOND_LP_GUARD`` environment variable.
    """


class BoundViolation(RuntimeError):
    """A quantity fell short of a bound that is proven to hold.

    Raised by internal self-checks (e.g. the per-round floor of the iterative
    selector). Seeing this means a bug in the numerics, not bad input.
    """


class SolverFailure(RuntimeError):
    """The LP engine reported a program that is structurally bounded as
    unbounded, ended on a float basis that failed its optimality audit
    (singular, infeasible or not priced out once refactorized), or ran out
    of pivot budget. Indicates a bug or pathological conditioning, not bad
    input. Float mode can hit it on extreme magnitude spreads that rational
    mode solves; float ``hd_capacity`` then solves the game exactly. The CLI
    exits 5 on it."""
