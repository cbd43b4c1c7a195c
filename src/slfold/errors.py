"""Exception types shared across the toolkit."""

from __future__ import annotations


class SlfoldError(Exception):
    """Base class for every error raised by this package."""


class NegativeSError(SlfoldError, ValueError):
    """The level s = v^2 + y^2 must be nonnegative."""


class BranchOverflowError(SlfoldError):
    """P at the start of the branch Newton, or P' at its root, overflows: the shifts are too large for floats."""


class DegenerateBranchError(SlfoldError):
    """P'(w) is below the degeneracy floor; the branch derivative blows up."""


class DomainMismatchError(SlfoldError, ValueError):
    """Fields that must share a grid domain do not."""


class SingularParametersError(SlfoldError):
    """min(a_j) is attained more than once on a domain whose closure meets y = 0, where P'(w)
    vanishes, or whose a-priori ellipticity bound is below the floor."""


class DegeneracyEncounteredError(SlfoldError):
    """The a-priori lower bound on the ellipticity coefficient is not positive or is below the floor."""


class NoConvergenceError(SlfoldError):
    """Iteration budget exhausted before the residual target was met."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class SingularPointError(SlfoldError):
    """(v, y) = (0, 0): the torus orbit collapses / the phase is undefined."""


class ZeroRadiusError(SlfoldError):
    """Some radius sqrt(w + a_j) vanishes; frame formulas divide by it."""


class RankDeficientError(SlfoldError):
    """The spanning set of the least-squares decomposition is rank deficient."""


class NonpositiveAlphaError(SlfoldError, ValueError):
    """alpha = u^2 must be strictly positive."""


class YZeroError(SlfoldError, ValueError):
    """The gauge-fixed root solve requires y != 0."""


class DegenerateRegionError(SlfoldError):
    """P' <= 0 inside the solve bracket: uniqueness is not guaranteed.

    ``sign_changes`` lists the (lo, hi) subintervals on which the constraint
    function was observed to change sign.
    """

    def __init__(self, message: str, sign_changes: list[tuple[float, float]] | None = None):
        super().__init__(message)
        self.sign_changes = sign_changes or []


class ZeroOnLoopError(SlfoldError):
    """The difference map vanishes (numerically) somewhere on the loop."""


class UnderSampledError(SlfoldError):
    """Consecutive loop values subtend an angle >= pi; lifting is ambiguous."""


class NonIntegerWindingError(SlfoldError):
    """The accumulated turn is not within tolerance of an integer."""


class OutOfDomainError(SlfoldError, ValueError):
    """The requested circle does not fit inside the grid domain."""


class ConfigError(SlfoldError):
    """A run-configuration file failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
