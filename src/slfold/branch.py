"""Reduction polynomial P(w) = prod_j (w + a_j) and its distinguished branch.

The parameter vector a = (a_1, ..., a_{n-1}) fixes a moment-map level for the
torus action.  Every reduced quantity depends on s = v^2 + y^2 only through
the unique root w(s) >= w0 = -min(a_j) of P(w) = s; on that branch all radii
sqrt(w + a_j) are real.

One kernel solves for t = w - w0 >= 0: with the shifts d_j = a_j - min(a),
P(w0 + t) = prod_j (t + d_j) = t^k Q(t), k the multiplicity of min(a), so
t(s) ~ (s/Q0)^(1/k) as s -> 0 (Q0 = Q(0)) and w + a_j = t + d_j >= 0.  Newton
descends onto t from an upper bound, to |P - s| <= 2(n-1) eps s where the
product stays in the normal float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BranchOverflowError, DegenerateBranchError, NegativeSError, NoConvergenceError

# Below this P'(w) the sensitivity 1/P'(w) is refused instead of returned.
DEGENERACY_FLOOR = 1e-8

_MAX_NEWTON = 50


@dataclass(frozen=True)
class ReductionParams:
    """Dimension n, levels a, and shifts d_j = a_j - min(a): k = min_multiplicity of
    them vanish and q0 multiplies the others.  bounds holds the (j, Q_j), k <= j < n-1,
    with Q_j the product of the n-1-j largest shifts (P(w0 + t) >= t^j Q_j) in the
    normal float range: outside it Q_j can round up."""

    n: int
    a: tuple[float, ...]
    w0: float = field(init=False)
    min_multiplicity: int = field(init=False)
    shifts: tuple[float, ...] = field(init=False)
    q0: float = field(init=False)
    bounds: tuple[tuple[int, float], ...] = field(init=False)

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if self.n < 3:
            raise ValueError(f"dimension n must be >= 3, got {self.n}")
        if len(a) != self.n - 1:
            raise ValueError(f"need n-1 = {self.n - 1} parameters, got {len(a)}")
        if not all(map(math.isfinite, a)):
            raise ValueError(f"levels a must be finite, got {a}")
        amin = min(a)
        shifts = tuple(v - amin for v in a)
        # exact equality on purpose: the singular/nonsingular dichotomy is algebraic
        k = shifts.count(0.0)
        largest = sorted(shifts, reverse=True)
        q = {j: float(math.prod(largest[: self.n - 1 - j])) for j in range(k, self.n - 1)}
        object.__setattr__(self, "w0", -amin)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "min_multiplicity", k)
        object.__setattr__(self, "q0", q.get(k, 1.0))
        tiny = np.finfo(float).tiny
        object.__setattr__(self, "bounds", tuple((j, qj) for j, qj in q.items() if tiny <= qj < math.inf))


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


def _p_and_dp(a: tuple[float, ...], w, second: bool = False):
    """(P(w), P'(w)) in one pass over the factors (w + a_j), never expanded;
    (P(w), P'(w), P''(w)) from the same pass when second is set.

    Serves floats and arrays alike: the loop only rebinds, never writes in place.
    """
    p, dp, d2p = 1.0, 0.0, 0.0
    for aj in a:
        t = w + aj
        if second:
            d2p = d2p * t + 2.0 * dp
        dp = dp * t + p
        p = p * t
    return (p, dp, d2p) if second else (p, dp)


def eval_p(params: ReductionParams, w: float) -> float:
    """P(w) as a running product of the factors (w + a_j); elementwise on arrays."""
    return _p_and_dp(params.a, w)[0]


def eval_p_prime(params: ReductionParams, w: float) -> float:
    """P'(w) = sum_k prod_{i != k} (w + a_i), accumulated factor by factor."""
    return _p_and_dp(params.a, w)[1]


def _t_upper(params: ReductionParams, s, zeros: int = 0):
    """Least of s^(1/(n-1+zeros)) and the (s/Q_j)^(1/(j+zeros)) of params.bounds: >= the t with t^zeros P(w0 + t) = s."""
    # np.power also on a float: float ** can differ from the array loop in the last bit
    t = np.power(s, 1.0 / (params.n - 1 + zeros))
    with np.errstate(over="ignore"):  # a bound that overflows is inf, which np.minimum drops
        for j, q in params.bounds:
            t = np.minimum(np.power(s, 1.0 / (j + zeros)) / q ** (1.0 / (j + zeros)), t)
    return t


def _branch_t(params: ReductionParams, s):
    """(t, P'(w0 + t)) with P(w0 + t) = s and t >= 0, for s a float or an array.

    prod_j (t + d_j) is increasing and convex in t >= 0, so Newton descends onto t
    from the least of s^(1/(n-1)) and the (s/Q_j)^(1/j) of params.bounds, padded.
    Stopped entries are frozen by arithmetic on a mask, so a float takes an array
    entry's steps.  Raises NegativeSError for s < 0, BranchOverflowError when P
    is not finite at the start (no later P is larger) or the P' returned is not
    finite for a finite s, and NoConvergenceError when the step budget runs out.
    """
    if np.count_nonzero(s < 0):
        raise NegativeSError(f"s must be >= 0, got {np.min(s)}")
    t = _t_upper(params, s)
    # a float runs the loop on Python floats, much faster than numpy scalars
    t, p_last = (t.item() if t.ndim == 0 else t) * (1.0 + 1e-9), np.nan
    for iteration in range(_MAX_NEWTON):
        p, dp = _p_and_dp(params.shifts, t)
        overflow = not iteration and not np.isfinite(p).all()  # Newton descends: P is largest here
        if overflow and np.count_nonzero(~np.isfinite(p) & np.isfinite(s)):
            raise BranchOverflowError(
                f"P(w0 + t) overflows at the Newton start (largest shift {max(params.shifts):.3e})"
            )
        step = (p - s) / (dp + (dp == 0.0))  # P' = 0 only at t = 0 with k > 1
        # Newton descends from above; it has stopped at or below the root, or where
        # the step no longer moves t or the rounded product (gradual underflow)
        moving = (p - s > 0.0) & (t - step != t) & (p != p_last)
        if not np.count_nonzero(moving):
            if np.count_nonzero(~np.isfinite(dp) & np.isfinite(s)):
                raise BranchOverflowError(f"P'(w0 + t) overflows (largest shift {max(params.shifts):.3e})")
            return t, dp
        t, p_last = t - step * moving, p
    raise NoConvergenceError(_MAX_NEWTON, float(np.max(abs(p - s))))


def solve_branch(params: ReductionParams, s: float) -> BranchState:
    """Invert P(w) = s on the branch w >= w0: w = w0 + t and P'(w), from _branch_t."""
    t, dp = _branch_t(params, float(s))
    return BranchState(s, float(params.w0 + t), float(dp))


def branch_sensitivity(params: ReductionParams, state: BranchState) -> float:
    """dw/ds = 1/P'(w) by implicit differentiation of P(w) = s."""
    if state.p_prime_at_w < DEGENERACY_FLOOR:
        raise DegenerateBranchError(
            f"P'(w) = {state.p_prime_at_w:.3e} below floor {DEGENERACY_FLOOR:.0e}"
        )
    return 1.0 / state.p_prime_at_w


def branch_w_array(params: ReductionParams, s: np.ndarray) -> np.ndarray:
    """w(s) = w0 + t(s) elementwise; solve_branch's w bit for bit."""
    return params.w0 + _branch_t(params, np.asarray(s, dtype=float))[0]


def ellipticity_array(params: ReductionParams, s: np.ndarray, derivative: bool = False):
    """F(s) = P'(w(s)) elementwise, from the factors t + d_j.

    With derivative, (F(s), F'(s)) with F'(s) = P''(w)/P'(w), by the chain rule
    and dw/ds = 1/P'(w); the branch is inverted once for both.
    """
    t, dp = _branch_t(params, np.asarray(s, dtype=float))
    if not derivative:
        return dp
    return dp, _p_and_dp(params.shifts, t, second=True)[2] / dp
