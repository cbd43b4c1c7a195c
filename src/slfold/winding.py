"""Winding numbers of planar loop traces and multiplicities of isolated
zeros of the difference of two solutions.

The discrete integral is the sum of principal-value angle increments
between consecutive values; any increment of magnitude >= pi means the
loop is sampled too coarsely to lift the angle unambiguously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonIntegerWindingError,
    OutOfDomainError,
    UnderSampledError,
    ZeroOnLoopError,
)
from .grid import ScalarField2D, require_same_domain

# |value| <= ZERO_REL * max|value| counts as a zero on the loop.
ZERO_REL = 1e-12
INTEGER_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class LoopTrace:
    """Closed polyline (first point not repeated) with map values at nodes."""

    points: np.ndarray  # shape (N, 2)
    values: np.ndarray  # shape (N, 2)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or vals.shape != pts.shape:
            raise ValueError("points and values must both have shape (N, 2)")
        pts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)


def _complex_values(trace: LoopTrace) -> np.ndarray:
    z = trace.values[:, 0] + 1j * trace.values[:, 1]
    mags = np.abs(z)
    if z.size < 8:
        raise UnderSampledError(f"need at least 8 loop samples, got {z.size}")
    if np.min(mags) <= ZERO_REL * np.max(mags):
        raise ZeroOnLoopError("the map (numerically) vanishes on the loop")
    return z


def angle_increments(trace: LoopTrace) -> np.ndarray:
    """Principal-value turn between consecutive values, wrap included."""
    z = _complex_values(trace)
    step = np.angle(np.roll(z, -1) * np.conj(z))
    if np.any(np.abs(step) >= np.pi - 1e-9):
        raise UnderSampledError("an angle increment reached pi; refine the loop sampling")
    return step


def total_turn(trace: LoopTrace) -> float:
    """Accumulated angle around the origin divided by 2 pi (a near-integer)."""
    return float(np.sum(angle_increments(trace)) / (2.0 * np.pi))


def _round_turns(turns: float) -> int:
    nearest = round(turns)
    if abs(turns - nearest) > INTEGER_TOL:
        raise NonIntegerWindingError(
            f"accumulated turn {turns} is not within {INTEGER_TOL} of an integer"
        )
    return int(nearest)


def winding_number(trace: LoopTrace) -> int:
    """Signed number of times the value loop encircles the origin."""
    return _round_turns(total_turn(trace))


def circle_points(center: tuple[float, float], radius: float, samples: int) -> np.ndarray:
    """Counterclockwise circle samples; the first point is not repeated."""
    phis = 2.0 * np.pi * np.arange(samples) / samples
    return np.column_stack(
        [center[0] + radius * np.cos(phis), center[1] + radius * np.sin(phis)]
    )


def difference_trace(
    u1: ScalarField2D,
    v1: ScalarField2D,
    u2: ScalarField2D,
    v2: ScalarField2D,
    center: tuple[float, float],
    radius: float,
    samples: int,
) -> LoopTrace:
    """Trace of F = (u1 - u2, v1 - v2) on a circle, bilinearly interpolated."""
    dom = require_same_domain(u1, v1, u2, v2)
    cx, cy = center
    if not (
        dom.contains(cx - radius, cy - radius) and dom.contains(cx + radius, cy + radius)
    ):
        raise OutOfDomainError("the circle does not fit inside the grid domain")
    pts = circle_points(center, radius, samples)
    x, y = pts.T
    vals = np.column_stack([u1.interp(x, y) - u2.interp(x, y), v1.interp(x, y) - v2.interp(x, y)])
    return LoopTrace(points=pts, values=vals)


def multiplicity_at_zero(
    u1: ScalarField2D,
    v1: ScalarField2D,
    u2: ScalarField2D,
    v2: ScalarField2D,
    center: tuple[float, float],
    radius: float,
    samples: int,
) -> int:
    """Winding of the solution-difference map around a circle in the domain."""
    return winding_number(difference_trace(u1, v1, u2, v2, center, radius, samples))
