"""Explicit solution families: affine pairs, the Harvey-Lawson-type
subfamily cut out by algebraic gauge constraints, and the closed-form
coefficient of the classical three-dimensional reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .branch import (
    ReductionParams,
    ellipticity_array,
    eval_p,
    eval_p_prime,
    params_from_levels,
    solve_branch,
)
from .errors import DegenerateRegionError, NoConvergenceError, NonpositiveAlphaError, YZeroError
from .grid import GridDomain, ScalarField2D

# Step budgets of hl_solve_alpha: doublings (halvings) of the bracket ends,
# and safeguarded Newton steps of the polish.
_BRACKET_STEPS = 600
_POLISH_STEPS = 200


@dataclass(frozen=True)
class AffineSolution:
    """u = alpha x + beta, v = alpha y + gamma solves the system for any P."""

    alpha: float
    beta: float
    gamma: float


def affine_uv(sol: AffineSolution, x: float, y: float) -> tuple[float, float]:
    return sol.alpha * x + sol.beta, sol.alpha * y + sol.gamma


def affine_fields(sol: AffineSolution, domain: GridDomain) -> tuple[ScalarField2D, ScalarField2D]:
    u = ScalarField2D.from_function(domain, lambda x, y: sol.alpha * x + sol.beta + 0.0 * y)
    v = ScalarField2D.from_function(domain, lambda x, y: sol.alpha * y + sol.gamma + 0.0 * x)
    return u, v


def affine_potential(sol: AffineSolution) -> "callable":
    """The potential f with f_y = u, f_x = v:  f = alpha x y + gamma x + beta y."""
    return lambda x, y: sol.alpha * x * y + sol.gamma * x + sol.beta * y


@dataclass(frozen=True)
class HLConfig:
    """Parameters of the gauge-constrained subfamily; the last level is 0."""

    params: ReductionParams
    b: float

    def __post_init__(self):
        if self.params.a[-1] != 0.0:
            raise ValueError("the last parameter a_{n-1} must be exactly 0")

    @classmethod
    def from_head(cls, a_head: Sequence[float], b: float) -> "HLConfig":
        return cls(params_from_levels(tuple(float(v) for v in a_head) + (0.0,)), float(b))


@dataclass(frozen=True)
class HLTriple:
    """Solved invariant data at one base point of the subfamily."""

    x: float
    y: float
    u: float
    v: float
    w: float
    alpha: float


def hl_residual(cfg: HLConfig, x: float, y: float, alpha: float) -> float:
    """y^2 (1 + x^2/alpha) - P(x^2 + alpha + b), the scalar root equation."""
    if alpha <= 0.0:
        raise NonpositiveAlphaError(f"alpha must be > 0, got {alpha}")
    return y * y * (1.0 + x * x / alpha) - eval_p(cfg.params, x * x + alpha + cfg.b)


def _hl_tol(cfg: HLConfig, x: float, y: float, alpha: float) -> float:
    return 1e-10 * (1.0 + y * y + abs(eval_p(cfg.params, x * x + alpha + cfg.b)))


def _scan_sign_changes(cfg: HLConfig, x: float, y: float, lo: float, hi: float) -> list[tuple[float, float]]:
    grid = np.geomspace(lo, hi, 128)
    vals = [hl_residual(cfg, x, y, float(t)) for t in grid]
    out = []
    for k in range(len(grid) - 1):
        if vals[k] == 0.0 or vals[k] * vals[k + 1] < 0.0:
            out.append((float(grid[k]), float(grid[k + 1])))
    return out


def hl_solve_alpha(cfg: HLConfig, x: float, y: float) -> float:
    """Root alpha > 0 of the constraint equation at a base point with y != 0.

    The bracket realises the intermediate-value argument constructively:
    the residual blows up to +oo as alpha -> 0+ (for x != 0) and falls to
    -oo as alpha -> oo.  Uniqueness needs P' > 0 across the bracket, which
    is probed before the safeguarded Newton polish; a nonpositive P' inside
    the bracket raises DegenerateRegionError carrying all observed sign
    changes instead of silently returning one of several roots.  A bracket
    end or a polish that runs out of steps raises NoConvergenceError.
    """
    if y == 0.0:
        raise YZeroError("the constraint solve requires y != 0")
    p = cfg.params

    if x == 0.0:
        # 1/alpha term drops: y^2 = P(alpha + b) on the distinguished branch
        w = solve_branch(p, y * y).w
        alpha = w - cfg.b
        if alpha <= 0.0:
            raise DegenerateRegionError(
                f"branch root w = {w} gives alpha = {alpha} <= 0 at x = 0"
            )
        if eval_p_prime(p, x * x + alpha + cfg.b) <= 0.0:
            raise DegenerateRegionError("P' <= 0 at the x = 0 reduction root")
        return alpha

    hi = 1.0
    for _ in range(_BRACKET_STEPS):
        r = hl_residual(cfg, x, y, hi)
        if r < 0.0:
            break
        hi *= 2.0
    else:
        raise NoConvergenceError(_BRACKET_STEPS, r)
    lo = min(1.0, y * y * x * x / (1.0 + abs(eval_p(p, x * x + 1.0 + cfg.b))))
    for _ in range(_BRACKET_STEPS):
        r = hl_residual(cfg, x, y, lo)
        if r > 0.0:
            break
        lo *= 0.5
    else:
        raise NoConvergenceError(_BRACKET_STEPS, r)

    # uniqueness certificate: P' > 0 and strict decrease at 20 probes
    probes = np.geomspace(lo, hi, 20)
    slopes_ok = all(eval_p_prime(p, x * x + float(t) + cfg.b) > 0.0 for t in probes)
    vals = [hl_residual(cfg, x, y, float(t)) for t in probes]
    decreasing = all(vals[k] > vals[k + 1] for k in range(len(vals) - 1))
    if not (slopes_ok and decreasing):
        raise DegenerateRegionError(
            "P' <= 0 inside the bracket; root may not be unique",
            sign_changes=_scan_sign_changes(cfg, x, y, lo, hi),
        )

    alpha = 0.5 * (lo + hi)
    for _ in range(_POLISH_STEPS):
        r = hl_residual(cfg, x, y, alpha)
        if r > 0.0:
            lo = alpha
        elif r < 0.0:
            hi = alpha
        if abs(r) <= _hl_tol(cfg, x, y, alpha):
            # a few extra Newton polishes push |r| to the rounding floor
            for _ in range(3):
                slope = -y * y * x * x / alpha**2 - eval_p_prime(p, x * x + alpha + cfg.b)
                step = hl_residual(cfg, x, y, alpha) / slope
                cand = alpha - step
                if lo < cand < hi:
                    alpha = cand
            return alpha
        slope = -y * y * x * x / alpha**2 - eval_p_prime(p, x * x + alpha + cfg.b)
        cand = alpha - r / slope if slope < 0.0 else lo
        alpha = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise NoConvergenceError(_POLISH_STEPS, r)


def hl_triple(cfg: HLConfig, x: float, y: float) -> HLTriple:
    """Invariant data (u, v, w) at (x, y): u = -sign(y) sqrt(alpha), v = -xy/u.

    The sign of u is forced by v x - u y = -y (x^2 + u^2)/u > 0.
    """
    alpha = hl_solve_alpha(cfg, x, y)
    u = -math.copysign(math.sqrt(alpha), y)
    v = -x * y / u
    w = x * x + u * u + cfg.b
    return HLTriple(x=x, y=y, u=u, v=v, w=w, alpha=alpha)


def hl_partials(cfg: HLConfig, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """(u_x, v_x, w_x) and (u_y, v_y, w_y) by implicit differentiation.

    Differentiating w = x^2 + u^2 + b, u v = -x y and P(w) = v^2 + y^2 gives
    two 3x3 linear systems for the partials; useful for building tangent
    frames on the subfamily.
    """
    t = hl_triple(cfg, x, y)
    pp = eval_p_prime(cfg.params, t.w)
    # unknowns ordered (u_., v_., w_.)
    m = np.array(
        [
            [-2.0 * t.u, 0.0, 1.0],
            [t.v, t.u, 0.0],
            [0.0, -2.0 * t.v, pp],
        ]
    )
    rhs_x = np.array([2.0 * x, -y, 0.0])
    rhs_y = np.array([0.0, -x, 2.0 * y])
    return np.linalg.solve(m, rhs_x), np.linalg.solve(m, rhs_y)


class JoyceCheck(NamedTuple):
    """Reduced coefficient F(s), its closed form and their max deviation."""

    coefficient: np.ndarray
    closed_form: np.ndarray
    deviation: float


def joyce_check(a: float, s_grid: Sequence[float]) -> JoyceCheck:
    """F(s) against 2 sqrt(s + a^2) for the 3-dimensional case a = (a, -a).

    The reduced coefficient has the closed form 2 sqrt(s + a^2) there; this
    is the consistency check against the classical U(1)-invariant system.
    """
    if a == 0.0:
        raise ValueError("a must be nonzero")
    s = np.asarray(s_grid, dtype=float)
    coef = ellipticity_array(params_from_levels((a, -a)), s)
    closed = 2.0 * np.sqrt(s + a * a)
    return JoyceCheck(coef, closed, float(np.max(np.abs(coef - closed), initial=0.0)))
