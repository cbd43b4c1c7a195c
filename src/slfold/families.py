"""Explicit solution families: affine pairs, the Harvey-Lawson-type subfamily
cut out by algebraic gauge constraints (hl_triples solves it on arrays of base
points), and the closed-form coefficient of the classical 3-dimensional reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .branch import (
    ReductionParams,
    branch_w_array,
    ellipticity_array,
    eval_p,
    eval_p_prime,
    params_from_levels,
)
from .errors import DegenerateRegionError, NoConvergenceError, NonpositiveAlphaError, YZeroError
from .grid import GridDomain, ScalarField2D

# Step budgets of the HL root search: doublings (halvings) of the bracket
# ends, and safeguarded Newton steps of the polish.
_BRACKET_STEPS, _POLISH_STEPS = 600, 200
HL_STATUS = ("ok", "skipped_y0", "degenerate", "underflow")
_OK, _SKIPPED_Y0, _DEGENERATE, _UNDERFLOW = range(len(HL_STATUS))


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


class HLColumns(NamedTuple):
    """Solved invariant data of the subfamily: arrays from hl_triples, floats from hl_triple."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    alpha: np.ndarray
    status: np.ndarray  # HL_STATUS names: "ok", "skipped_y0" (y = 0), "degenerate" or "underflow"


def hl_residual(cfg: HLConfig, x, y, alpha):
    """y^2 (1 + x^2/alpha) - P(x^2 + alpha + b), the root equation; elementwise on arrays."""
    if np.any(np.asarray(alpha) <= 0.0):
        raise NonpositiveAlphaError(f"alpha must be > 0, got {np.min(alpha)}")
    return y * y * (1.0 + x * x / alpha) - eval_p(cfg.params, x * x + alpha + cfg.b)


def _scan_sign_changes(cfg: HLConfig, x: float, y: float, lo: float, hi: float) -> list[tuple[float, float]]:
    grid = np.geomspace(lo, hi, 128)
    vals = hl_residual(cfg, x, y, grid)
    k = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    return [(float(grid[i]), float(grid[i + 1])) for i in k]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _hl_solve(cfg: HLConfig, x, y) -> tuple[HLColumns, np.ndarray, np.ndarray]:
    """hl_triples, and the bracket ends (lo, hi), flat, that degenerate nodes with x != 0 keep.

    Each node takes the steps of a one-point search, as numpy ops over the nodes still searching.
    """
    p, b = cfg.params, cfg.b
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape, x, y = x.shape, x.ravel(), y.ravel()
    alpha, lo, hi = np.zeros(x.shape), np.zeros(x.shape), np.zeros(x.shape)
    status = np.where(y == 0.0, _SKIPPED_Y0, _OK)
    # the 1/alpha term drops at x = 0: y^2 = P(alpha + b) on the distinguished branch
    k = np.flatnonzero((x == 0.0) & (y != 0.0))
    alpha[k] = branch_w_array(p, y[k] * y[k]) - b
    status[k[(alpha[k] <= 0.0) | (eval_p_prime(p, x[k] * x[k] + alpha[k] + b) <= 0.0)]] = _DEGENERATE

    def residual(x, y, a):
        return np.broadcast_to(hl_residual(cfg, x, y, a), a.shape)  # also when it is a scalar
    def slope(x, y, a):
        return -y * y * x * x / a**2 - eval_p_prime(p, x * x + a + b)
    def bracket(end, factor, wrong_sign):
        todo = np.arange(len(end))
        for _ in range(_BRACKET_STEPS):
            r = residual(xk[todo], yk[todo], end[todo])
            todo = todo[wrong_sign(r)]
            if not len(todo):
                return end
            end[todo] *= factor
        raise NoConvergenceError(_BRACKET_STEPS, float(r[wrong_sign(r)][0]))

    # the residual blows up to +oo as alpha -> 0+ (x != 0) and falls to -oo as alpha -> oo
    k = np.flatnonzero((x != 0.0) & (y != 0.0))
    xk, yk = x[k], y[k]
    bottom = np.minimum(1.0, yk * yk * xk * xk / (1.0 + np.abs(eval_p(p, xk * xk + 1.0 + b))))
    # where x^2 y^2 underflows to 0, the root alpha < x^2 y^2 is below the float range
    keep = bottom > 0.0
    status[k[~keep]] = _UNDERFLOW
    k, xk, yk, bottom = k[keep], xk[keep], yk[keep], bottom[keep]
    hi[k] = top = bracket(np.ones(len(k)), 2.0, lambda r: ~(r < 0.0))
    lo[k] = bottom = bracket(bottom, 0.5, lambda r: ~(r > 0.0))

    # uniqueness: P' > 0 and a falling residual at np.geomspace(bottom, top, 20), probe by probe
    log_lo = np.log10(bottom)
    step = (np.log10(top) - log_lo) / 19
    unique = np.ones(len(k), dtype=bool)
    for j in range(20):
        t = bottom if j == 0 else top if j == 19 else np.power(10.0, j * step + log_lo)
        r = residual(xk, yk, t)
        unique &= (eval_p_prime(p, xk * xk + t + b) > 0.0) & (j == 0 or last > r)
        last = r
    status[k[~unique]] = _DEGENERATE

    # Newton, bisecting when a step leaves [lo, hi], until |r| <= 1e-10 (1 + y^2 + |P|)
    certified = k = k[unique]
    a = 0.5 * (lo[k] + hi[k])
    for _ in range(_POLISH_STEPS):
        xs, ys = x[k], y[k]
        r = residual(xs, ys, a)
        lo[k], hi[k], alpha[k] = np.where(r > 0.0, a, lo[k]), np.where(r < 0.0, a, hi[k]), a
        live = ~(np.abs(r) <= 1e-10 * (1.0 + ys * ys + np.abs(eval_p(p, xs * xs + a + b))))
        k, a, r = k[live], a[live], r[live]
        if not len(k):
            break
        s = slope(x[k], y[k], a)
        cand = np.where(s < 0.0, a - r / s, lo[k])
        a = np.where((lo[k] < cand) & (cand < hi[k]), cand, 0.5 * (lo[k] + hi[k]))
    else:
        raise NoConvergenceError(_POLISH_STEPS, float(r[0]))
    k = certified
    for _ in range(3):  # a few extra Newton steps push |r| to the rounding floor
        cand = alpha[k] - residual(x[k], y[k], alpha[k]) / slope(x[k], y[k], alpha[k])
        alpha[k] = np.where((lo[k] < cand) & (cand < hi[k]), cand, alpha[k])
    ok = status == _OK
    # the sign of u is forced by v x - u y = -y (x^2 + u^2)/u > 0
    u = np.where(ok, -np.copysign(np.sqrt(alpha), y), 0.0)
    v = np.where(ok, -x * y / u, 0.0)
    w = np.where(ok, x * x + u * u + b, 0.0)
    columns = (u, v, w, np.where(ok, alpha, 0.0), np.array(HL_STATUS, dtype=object)[status])
    return HLColumns(*(c.reshape(shape) for c in columns)), lo, hi


def hl_triples(cfg: HLConfig, x, y) -> HLColumns:
    """(u, v, w, alpha, status) at the broadcast base points (x, y), in one array solve.

    alpha > 0 is the root of hl_residual, u = -sign(y) sqrt(alpha), v = -xy/u and
    w = x^2 + u^2 + b.  They are 0 where y = 0 ("skipped_y0"), where P' <= 0 on the root's
    bracket may make it not unique ("degenerate") and where x^2 y^2 underflows ("underflow").
    """
    return _hl_solve(cfg, x, y)[0]


def hl_solve_alpha(cfg: HLConfig, x: float, y: float) -> float:
    """Root alpha > 0 of the constraint equation at one base point; hl_triple(...).alpha."""
    return hl_triple(cfg, x, y).alpha


def hl_triple(cfg: HLConfig, x: float, y: float) -> HLColumns:
    """hl_triples at one point as floats; YZeroError, NonpositiveAlphaError or
    DegenerateRegionError by status, the last with the residual's sign changes on the bracket.
    """
    cols, lo, hi = _hl_solve(cfg, x, y)
    if cols.status == "skipped_y0":
        raise YZeroError("the constraint solve requires y != 0")
    if cols.status == "underflow":
        raise NonpositiveAlphaError(f"x^2 y^2 underflows at ({x}, {y}); alpha is below the float range")
    if cols.status == "degenerate":
        changes = _scan_sign_changes(cfg, x, y, lo[0], hi[0]) if x != 0.0 else None
        raise DegenerateRegionError(f"no certified unique root alpha > 0 at ({x}, {y})", changes)
    return HLColumns(*(c.item() for c in cols))


def hl_partials(cfg: HLConfig, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """(u_x, v_x, w_x) and (u_y, v_y, w_y) by implicit differentiation.

    Differentiating w = x^2 + u^2 + b, u v = -x y and P(w) = v^2 + y^2 gives
    two 3x3 linear systems for the partials; useful for building tangent
    frames on the subfamily.
    """
    t = hl_triple(cfg, x, y)
    pp = eval_p_prime(cfg.params, t.w)
    # unknowns ordered (u_., v_., w_.)
    m = np.array([[-2.0 * t.u, 0.0, 1.0], [t.v, t.u, 0.0], [0.0, -2.0 * t.v, pp]])
    return np.linalg.solve(m, [2.0 * x, -y, 0.0]), np.linalg.solve(m, [0.0, -x, 2.0 * y])


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
