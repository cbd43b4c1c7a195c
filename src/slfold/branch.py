"""Reduction polynomial P(w) = prod_j (w + a_j) and its distinguished branch.

The parameter vector a = (a_1, ..., a_{n-1}) fixes a moment-map level for the
torus action.  Every reduced quantity depends on s = v^2 + y^2 only through
the unique root w(s) >= w0 = -min(a_j) of P(w) = s; on that branch all radii
sqrt(w + a_j) are real.  P is strictly increasing and convex on (w0, oo), so
the inversion runs Newton from an upper bound with a bisection safeguard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateBranchError, NegativeSError

# |P(w) - s| <= BRANCH_TOL * (1 + s) defines convergence of the inversion.
BRANCH_TOL = 1e-12
# Below this P'(w) the sensitivity 1/P'(w) is refused instead of returned.
DEGENERACY_FLOOR = 1e-8

_MAX_NEWTON = 200


@dataclass(frozen=True)
class ReductionParams:
    """Dimension n and the level parameters (a_1, ..., a_{n-1})."""

    n: int
    a: tuple[float, ...]
    w0: float = field(init=False)
    min_multiplicity: int = field(init=False)

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if self.n < 3:
            raise ValueError(f"dimension n must be >= 3, got {self.n}")
        if len(a) != self.n - 1:
            raise ValueError(f"need n-1 = {self.n - 1} parameters, got {len(a)}")
        amin = min(a)
        object.__setattr__(self, "w0", -amin)
        # exact equality on purpose: the singular/nonsingular dichotomy is algebraic
        object.__setattr__(self, "min_multiplicity", sum(1 for v in a if v == amin))


def params_from_levels(a: Sequence[float]) -> ReductionParams:
    """Build ReductionParams with n inferred from the parameter count."""
    a = tuple(float(v) for v in a)
    return ReductionParams(len(a) + 1, a)


@dataclass(frozen=True)
class BranchState:
    """A solved point of the branch: P(w) = s with w >= w0."""

    s: float
    w: float
    p_prime_at_w: float


def _p_and_dp(a: tuple[float, ...], w):
    """(P(w), P'(w)) in one pass over the factors (w + a_j), never expanded.

    Serves floats and arrays alike: the loop only rebinds, never writes in place.
    """
    p, dp = 1.0, 0.0
    for aj in a:
        t = w + aj
        dp = dp * t + p
        p = p * t
    return p, dp


def eval_p(params: ReductionParams, w: float) -> float:
    """P(w) as a running product of the factors (w + a_j); elementwise on arrays."""
    return _p_and_dp(params.a, w)[0]


def eval_p_prime(params: ReductionParams, w: float) -> float:
    """P'(w) = sum_k prod_{i != k} (w + a_i), accumulated factor by factor."""
    return _p_and_dp(params.a, w)[1]


def _upper_bound(params: ReductionParams, s: float) -> float:
    # Each factor at this w is >= max(1, s^{1/(n-1)}), hence P >= s there.
    spread = sum(abs(v) for v in params.a)
    return params.w0 + max(1.0, s ** (1.0 / (params.n - 1))) + spread


def solve_branch(params: ReductionParams, s: float) -> BranchState:
    """Invert P(w) = s on the branch w >= w0.

    Newton from the upper bracket end; P is convex and increasing there, so
    iterates descend monotonically onto the root.  Any iterate that leaves
    the bracket (rounding near a flat root) is replaced by a bisection step.
    """
    if s < 0:
        raise NegativeSError(f"s must be >= 0, got {s}")
    a = params.a
    if s == 0.0:
        _, dp = _p_and_dp(a, params.w0)
        return BranchState(0.0, params.w0, dp)
    lo = params.w0
    hi = _upper_bound(params, s)
    w = hi
    tol = BRANCH_TOL * (1.0 + s)
    p, dp = _p_and_dp(a, w)
    for _ in range(_MAX_NEWTON):
        err = p - s
        if abs(err) <= tol:
            break
        if err > 0.0:
            hi = w
        else:
            lo = w
        w_new = w - err / dp if dp > 0.0 else lo
        if not (lo < w_new < hi):
            w_new = 0.5 * (lo + hi)
        w = w_new
        p, dp = _p_and_dp(a, w)
    return BranchState(s, w, dp)


def branch_sensitivity(params: ReductionParams, state: BranchState) -> float:
    """dw/ds = 1/P'(w) by implicit differentiation of P(w) = s."""
    if state.p_prime_at_w < DEGENERACY_FLOOR:
        raise DegenerateBranchError(
            f"P'(w) = {state.p_prime_at_w:.3e} below floor {DEGENERACY_FLOOR:.0e}"
        )
    return 1.0 / state.p_prime_at_w


def branch_w_array(params: ReductionParams, s: np.ndarray) -> np.ndarray:
    """Vectorised branch inversion; same tolerance as solve_branch."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise NegativeSError("all s values must be >= 0")
    spread = sum(abs(v) for v in params.a)
    w = params.w0 + np.maximum(1.0, s ** (1.0 / (params.n - 1))) + spread
    tol = BRANCH_TOL * (1.0 + s)
    for _ in range(_MAX_NEWTON):
        p, dp = _p_and_dp(params.a, w)
        err = p - s
        active = np.abs(err) > tol
        if not active.any():
            break
        step = err / np.where(dp > 0.0, dp, 1.0)
        w = np.where(active, np.maximum(w - step, params.w0), w)
    w = np.where(s == 0.0, params.w0, w)
    return w


def ellipticity_array(params: ReductionParams, s: np.ndarray) -> np.ndarray:
    """F(s) = P'(w(s)) evaluated elementwise on an array of levels."""
    w = branch_w_array(params, s)
    return _p_and_dp(params.a, w)[1]
