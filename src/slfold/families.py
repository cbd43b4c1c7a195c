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
    _branch_t,
    _p_and_dp,
    _t_upper,
    branch_w_array,
    ellipticity_array,
    eval_p,
    eval_p_prime,
    params_from_levels,
)
from .errors import DegenerateRegionError, NoConvergenceError, NonpositiveAlphaError, YZeroError
from .grid import GridDomain, ScalarField2D

_MAX_NEWTON = 100  # HL Newton steps; about 50 at most, where P(x^2 + b) matches y^2 to rounding
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
HL_STATUS = ("ok", "skipped_y0", "degenerate", "underflow")
_OK, _SKIPPED_Y0, _DEGENERATE, _UNDERFLOW = range(len(HL_STATUS))


@dataclass(frozen=True)
class AffineSolution:
    """u = alpha x + beta, v = alpha y + gamma solves the system for any P."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not all(map(np.isfinite, (self.alpha, self.beta, self.gamma))):
            raise ValueError(f"alpha, beta and gamma must be finite, got {(self.alpha, self.beta, self.gamma)}")


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
        if not np.isfinite(self.b):
            raise ValueError(f"b must be finite, got {self.b}")

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


@np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore")
def hl_triples(cfg: HLConfig, x, y) -> HLColumns:
    """(u, v, w, alpha, status) at the broadcast base points (x, y), in one array solve.

    alpha > 0 is the root of hl_residual on the distinguished branch w = x^2 + alpha + b >= w0,
    u = -sign(y) sqrt(alpha), v = -xy/u and w = x^2 + u^2 + b.  They are 0 where y = 0
    ("skipped_y0"), where x = 0 and alpha = w(y^2) - b <= 0 ("degenerate") and where x^2 y^2
    or the root alpha is below the normal float range ("underflow").

    For x != 0, H(alpha) = (P(w) - y^2) alpha - x^2 y^2 is increasing and convex where w >= w0 and
    negative at alpha = max(0, w0 - x^2 - b): Newton descends onto its one root from a start with
    H >= 0, as numpy ops over the nodes, or raises NoConvergenceError when its budget runs out.
    """
    p, b = cfg.params, cfg.b
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape, x, y = x.shape, x.ravel(), y.ravel()
    alpha = np.zeros(x.shape)
    status = np.where(y == 0.0, _SKIPPED_Y0, _OK)
    # the 1/alpha term drops at x = 0: y^2 = P(alpha + b) on the distinguished branch
    k = np.flatnonzero((x == 0.0) & (y != 0.0))
    alpha[k] = branch_w_array(p, y[k] * y[k]) - b
    status[k[alpha[k] <= 0.0]] = _DEGENERATE

    # x != 0: P(w) = P(w0 + t) from the shifts at t = c + alpha, exact where c = x^2 + b - w0 is 0
    k = np.flatnonzero((x != 0.0) & (y != 0.0))
    q = (x[k] * y[k]) ** 2
    status[k[q < _TINY]] = _UNDERFLOW
    k, q = k[q >= _TINY], q[q >= _TINY]
    xx, yy = x[k] * x[k], y[k] * y[k]
    c = xx + b - p.w0
    # alpha P(w) >= max(2 y^2 alpha, 2 q), so H >= 0, where P(w) >= 2 y^2 and either alpha >= x^2
    # or alpha - max(0, -c) >= t with t P(w0 + t) >= 2 q; the latter is tight where c is near 0
    a = np.maximum(_branch_t(p, 2.0 * yy)[0] - c, np.minimum(xx, np.maximum(-c, 0.0) + _t_upper(p, 2.0 * q, 1)))
    live = np.ones(len(k), dtype=bool)
    for _ in range(_MAX_NEWTON):
        pw, dp = _p_and_dp(p.shifts, c + a)
        slope, h = dp * a + pw - yy, (pw - yy) * a - q
        # a - H/H' without its cancellation, which rounds roots far below x^2 to 0
        step = (dp * a * a + q) / slope
        # a step from within the rounding of H (through P and c + a) is the last; a nan one never is
        last = (h <= 2 * _EPS * (a * (pw + yy + dp * np.abs(c + a)) + q)) & (step < a)
        # stopped at or below the root, where H' <= 0 or the step does not lower a; nan goes on
        live &= ~((step >= a) | (slope <= 0.0))
        a, live = np.where(live, step, a), live & ~last
        if not np.count_nonzero(live):
            break
    else:
        raise NoConvergenceError(_MAX_NEWTON, float(np.max(np.abs(h[live]))))
    alpha[k] = a
    status[k[a < _TINY]] = _UNDERFLOW

    ok = status == _OK
    # the sign of u is forced by v x - u y = -y (x^2 + u^2)/u > 0
    u = np.where(ok, -np.copysign(np.sqrt(alpha), y), 0.0)
    v = np.where(ok, -x * y / u, 0.0)
    # the root has w > w0; the sum can round below it
    w = np.where(ok, np.maximum(x * x + u * u + b, p.w0), 0.0)
    columns = (u, v, w, np.where(ok, alpha, 0.0), np.array(HL_STATUS, dtype=object)[status])
    return HLColumns(*(col.reshape(shape) for col in columns))


def hl_solve_alpha(cfg: HLConfig, x: float, y: float) -> float:
    """Root alpha > 0 of the constraint equation at one base point; hl_triple(...).alpha."""
    return hl_triple(cfg, x, y).alpha


def hl_triple(cfg: HLConfig, x: float, y: float) -> HLColumns:
    """hl_triples at one point as floats; YZeroError, NonpositiveAlphaError or DegenerateRegionError by status."""
    cols = hl_triples(cfg, x, y)
    if cols.status == "skipped_y0":
        raise YZeroError("the constraint solve requires y != 0")
    if cols.status == "underflow":
        raise NonpositiveAlphaError(f"x^2 y^2 or alpha is below the normal float range at ({x}, {y})")
    if cols.status == "degenerate":
        raise DegenerateRegionError(f"alpha = w(y^2) - b <= 0 on the branch at ({x}, {y})")
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
