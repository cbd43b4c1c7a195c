"""Reduced quasilinear system on the plane and its Dirichlet solver.

First-order system:      u_x = v_y,   v_x = -P'(w(v^2 + y^2)) u_y.
Potential form:          f_xx + P'(w) f_yy = 0 with (u, v) = (f_y, f_x) and
                         w the branch root of P(w) = f_x^2 + y^2.

Discretisation is the 5-point second-order stencil, applied only by
_Level.apply, for the residual as for the V-cycle; every first derivative is
np.gradient's.  The nonlinear coefficient is evaluated nodewise from the
current iterate.  The Dirichlet solver runs a Picard (frozen-coefficient)
outer loop with one geometric multigrid V-cycle per coefficient refresh
(Briggs, Henson & McCormick, A Multigrid Tutorial, 2000).  Each interior
side m coarsens to max(1, (m - 1) // 2) until a side is 1, where one
smoothing sweep is an exact solve.  The smoother is alternating zebra line
Gauss-Seidel; restriction and prolongation come from the coarse grid's hat
functions, which is full weighting and bilinear interpolation where the
grids nest.  The smoother's batched tridiagonal
line systems are solved by parallel cyclic reduction, in ceil(log2 L)
vector steps for lines of L unknowns; they are factored once per level and
V-cycle, since the frozen coefficient fixes them for the whole cycle.
Ellipticity is checked once, against an a-priori bound on every iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .branch import ReductionParams, _branch_t, ellipticity_array
from .errors import (
    DegeneracyEncounteredError,
    DomainMismatchError,
    NoConvergenceError,
    SingularParametersError,
)
from .grid import BoundaryData, GridDomain, ScalarField2D, require_same_domain

# Step halvings tried before an iteration counts as stalled.
_MAX_HALVINGS = 8


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration controls for solve_dirichlet."""

    tolerance: float = 1e-10
    max_iterations: int = 10_000
    ellipticity_floor: float = 1e-10

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if np.isnan(self.ellipticity_floor):
            raise ValueError("ellipticity_floor must not be nan")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class PdeSolution:
    """Converged f with u = f_y, v = f_x, its least interior P'(w) and the a-priori bound on it."""

    f: ScalarField2D
    u: ScalarField2D
    v: ScalarField2D
    iterations: int
    final_residual: float
    ellipticity_margin: float
    ellipticity_bound: float


def _interior_coefficient(params: ReductionParams, f: np.ndarray, domain: GridDomain) -> np.ndarray:
    """P'(w) at interior nodes with s = (D_x f)^2 + y^2 from the iterate."""
    fx = np.gradient(f, domain.hx, axis=0)[1:-1, 1:-1]
    s = fx * fx + domain.ys()[None, 1:-1] ** 2
    return ellipticity_array(params, s)


def ellipticity_field(params: ReductionParams, f: ScalarField2D) -> np.ndarray:
    """Public view of the assembled interior coefficient, shape (nx-2, ny-2)."""
    return _interior_coefficient(params, f.values, f.domain)


def residual_first_order(
    params: ReductionParams, u: ScalarField2D, v: ScalarField2D
) -> tuple[ScalarField2D, ScalarField2D]:
    """Central-difference residuals of the first-order system.

    r1 = D_x u - D_y v and r2 = D_x v + P'(w(v^2 + y^2)) D_y u at interior
    nodes; boundary rows are reported as zero.
    """
    (r1_in, r2_in), *_ = _first_order_interior(params, u, v)
    r1, r2 = np.zeros_like(u.values), np.zeros_like(u.values)
    r1[1:-1, 1:-1], r2[1:-1, 1:-1] = r1_in, r2_in
    return ScalarField2D(u.domain, r1), ScalarField2D(u.domain, r2)


def _first_order_interior(params: ReductionParams, u: ScalarField2D, v: ScalarField2D):
    """((r1, r2), (D_x u, D_y u, D_x v, D_y v), t, P'(w)) at the interior nodes.

    residual_first_order's interior, with the partials and the branch shifts
    t = w(v^2 + y^2) - w0 it was built from, for callers that reuse them.
    """
    dom = require_same_domain(u, v)
    (u_x, u_y), (v_x, v_y) = (
        (d[1:-1, 1:-1] for d in np.gradient(f.values, dom.hx, dom.hy)) for f in (u, v)
    )
    t, coef = _branch_t(params, v.values[1:-1, 1:-1] ** 2 + dom.ys()[None, 1:-1] ** 2)
    return (u_x - v_y, v_x + coef * u_y), (u_x, u_y, v_x, v_y), t, coef


def residual_potential(params: ReductionParams, f: ScalarField2D) -> ScalarField2D:
    """D_xx f + P'(w) D_yy f at interior nodes, coefficient from D_x f."""
    coef = _interior_coefficient(params, f.values, f.domain)
    return ScalarField2D(f.domain, np.pad(_Level(coef, f.domain.hx, f.domain.hy).apply(f.values), 1))


def recover_uv(f: ScalarField2D) -> tuple[ScalarField2D, ScalarField2D]:
    """(u, v) = (D_y f, D_x f): central interior, second-order one-sided edges."""
    v, u = np.gradient(f.values, f.domain.hx, f.domain.hy, edge_order=2)
    return ScalarField2D(f.domain, u), ScalarField2D(f.domain, v)


def transfinite_interpolant(phi: BoundaryData) -> np.ndarray:
    """Bilinear blend of the four boundary edges; exact on bilinear data."""
    dom = phi.domain
    nx, ny = dom.nx, dom.ny
    full = np.zeros((nx, ny))
    phi.apply_to(full)
    bottom, top = full[:, 0], full[:, -1]
    left, right = full[0, :], full[-1, :]
    xi = ((dom.xs() - dom.x0) / (dom.x1 - dom.x0))[:, None]
    eta = ((dom.ys() - dom.y0) / (dom.y1 - dom.y0))[None, :]
    blend = (
        (1 - xi) * left[None, :]
        + xi * right[None, :]
        + (1 - eta) * bottom[:, None]
        + eta * top[:, None]
        - (1 - xi) * (1 - eta) * full[0, 0]
        - xi * (1 - eta) * full[-1, 0]
        - (1 - xi) * eta * full[0, -1]
        - xi * eta * full[-1, -1]
    )
    phi.apply_to(blend)
    return blend


class _LineFactor(NamedTuple):
    """Cyclic-reduction factors of a batch of tridiagonal line systems."""

    steps: list[tuple[int, np.ndarray, np.ndarray]]  # (stride, alpha, gamma)
    inv_diag: np.ndarray


class _Level:
    """The frozen operator e_xx + c e_yy on one grid of the hierarchy."""

    def __init__(self, coef: np.ndarray, hx: float, hy: float):
        self.coef = coef
        self.invx = 1.0 / hx**2
        self.cy = coef / hy**2

    def apply(self, e: np.ndarray) -> np.ndarray:
        """Operator on the interior of a full array, with whatever boundary values it holds."""
        mid = e[1:-1, 1:-1]
        return (e[2:, 1:-1] - 2.0 * mid + e[:-2, 1:-1]) * self.invx + self.cy * (
            e[1:-1, 2:] - 2.0 * mid + e[1:-1, :-2]
        )

    @cached_property
    def lines(self) -> tuple[tuple[_LineFactor, _LineFactor], tuple[_LineFactor, _LineFactor]]:
        """Factors of the zebra line systems, (y-lines, x-lines) by colour 0, 1.

        Built on the first smoothing sweep and reused by every later one in
        the cycle, on the coarsest level too.
        """
        diag = -2.0 * self.invx - 2.0 * self.cy
        ylines = tuple(_pcr_factor(self.cy[p::2].T, diag[p::2].T) for p in (0, 1))
        xlines = tuple(_pcr_factor(self.invx, diag[:, p::2]) for p in (0, 1))
        return ylines, xlines


def _levels(coef: np.ndarray, hx: float, hy: float) -> list[_Level]:
    """Coarsen each interior side m to max(1, (m - 1) // 2) until a side is 1.

    Odd sides nest; an even side gets a coarse grid on the same interval.
    The coarse coefficient is the fine one interpolated at the coarse nodes.
    """
    levels = [_Level(coef, hx, hy)]
    while min(coef.shape) > 1:
        mx, my = coef.shape
        cx, cy = max(1, (mx - 1) // 2), max(1, (my - 1) // 2)
        coef = _hat(cx, mx) @ coef @ _hat(cy, my).T
        hx, hy = hx * ((mx + 1) / (cx + 1)), hy * ((my + 1) / (cy + 1))
        levels.append(_Level(coef, hx, hy))
    return levels


@lru_cache(maxsize=128)
def _hat(m: int, mc: int) -> np.ndarray:
    """The mc coarse hat functions at the m fine nodes: a read-only (m, mc) matrix.

    Both grids are the equispaced interior nodes of one interval, with zeros
    at its ends; the integer numerators keep nested weights exactly 0, 1/2, 1.
    Cached, as the matrices depend only on the grid: a hierarchy of k levels
    reads at most 4(k - 1), and the bound keeps a process that solves on
    many grids from holding them all.
    """
    i, j = np.arange(1, m + 1)[:, None], np.arange(1, mc + 1)[None, :]
    hat = np.maximum(0.0, 1.0 - np.abs(i * (mc + 1) - j * (m + 1)) / (m + 1))
    hat.flags.writeable = False
    return hat


def _pcr_factor(off: float | np.ndarray, diag: np.ndarray) -> _LineFactor:
    """Parallel cyclic reduction of tridiagonal systems along axis 0, batched over axis 1.

    Row k reads off[k] x[k-1] + diag[k] x[k] + off[k] x[k+1] = rhs[k]; off is
    an array of diag's shape or a scalar.  The step with stride s adds
    alpha times row k-s and gamma times row k+s to row k, which removes
    x[k-s] and x[k+s] from it; after ceil(log2 L) strides every row is
    decoupled (Hockney 1965; Gander & Golub 1997).
    """
    n = diag.shape[0]
    diag = np.ascontiguousarray(diag)  # C order, like the copies _pcr_solve makes
    # At stride s, lower[k] couples row k to row k-s (read for k >= s only) and
    # upper[k] couples it to row k+s (read for k < n-s only).
    lower = np.empty_like(diag)
    lower[...] = off
    upper = lower.copy()
    steps = []
    s = 1
    while s < n:
        r = -1.0 / diag
        alpha, gamma = lower[s:] * r[:-s], upper[:-s] * r[s:]
        diag = diag.copy()
        diag[s:] += alpha * upper[:-s]
        diag[:-s] += gamma * lower[s:]
        lower[2 * s :] = alpha[s:] * lower[s:-s]
        upper[: -2 * s] = gamma[:-s] * upper[s:-s]
        steps.append((s, alpha, gamma))
        s *= 2
    return _LineFactor(steps, 1.0 / diag)


def _pcr_solve(factor: _LineFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve factored systems for rhs, with lines along axis 0; rhs is not changed."""
    d = rhs
    for s, alpha, gamma in factor.steps:
        d, old = d.copy(), d
        d[s:] += alpha * old[:-s]
        d[:-s] += gamma * old[s:]
    return d * factor.inv_diag


def _smooth(lv: _Level, e: np.ndarray, b: np.ndarray) -> None:
    """One alternating zebra line Gauss-Seidel sweep: lines along y, then x."""
    mx, my = e.shape
    ylines, xlines = lv.lines
    for p in (0, 1):
        rhs = b[p::2] - lv.invx * (e[p : mx - 2 : 2, 1:-1] + e[p + 2 :: 2, 1:-1])
        e[p + 1 : mx - 1 : 2, 1:-1] = _pcr_solve(ylines[p], rhs.T).T
    for p in (0, 1):
        rhs = b[:, p::2] - lv.cy[:, p::2] * (e[1:-1, p : my - 2 : 2] + e[1:-1, p + 2 :: 2])
        e[1:-1, p + 1 : my - 1 : 2] = _pcr_solve(xlines[p], rhs)


def _vcycle(levels: list[_Level], b: np.ndarray) -> np.ndarray:
    """One V(1,1) cycle for e_xx + c e_yy = b from e = 0; interior in and out.

    On the coarsest level a side is 1, so the line solves of one sweep
    cover the whole system and the sweep is exact.
    """
    lv = levels[0]
    e = np.zeros((b.shape[0] + 2, b.shape[1] + 2))
    _smooth(lv, e, b)
    if len(levels) > 1:
        (mx, my), (cx, cy) = b.shape, levels[1].cy.shape
        px, py = _hat(mx, cx), _hat(my, cy)
        scale = (cx + 1) / (mx + 1) * ((cy + 1) / (my + 1))  # (hx / Hx) (hy / Hy)
        coarse = _vcycle(levels[1:], scale * (px.T @ (b - lv.apply(e)) @ py))
        e[1:-1, 1:-1] += px @ coarse @ py.T
        _smooth(lv, e, b)
    return e[1:-1, 1:-1]


def solve_dirichlet(
    params: ReductionParams,
    domain: GridDomain,
    phi: BoundaryData,
    cfg: SolverConfig = SolverConfig(),
) -> PdeSolution:
    """Solve f_xx + P'(w) f_yy = 0 with Dirichlet data phi.

    F(s) = P'(w(s)) is nondecreasing up to (n-1) eps relative rounding, and
    s = f_x^2 + y^2 >= y^2: every iterate's coefficient is at least
    m = F(min y^2 over the closed domain).  Unless m > 0 and m >= the floor,
    SingularParametersError (min(a_j) attained more than once, so m = 0 where
    the domain meets y = 0) or else DegeneracyEncounteredError refuses the
    solve.  Boundary nodes carry phi exactly.  Each iteration runs one
    multigrid V-cycle on the correction equation with the coefficient frozen,
    then backtracks the step until the RMS residual decreases; iterations
    counts the V-cycles.
    """
    if phi.domain != domain:
        raise DomainMismatchError("boundary data was built for a different domain")
    y_min = 0.0 if domain.y0 <= 0.0 <= domain.y1 else min(abs(domain.y0), abs(domain.y1))
    bound = float(ellipticity_array(params, y_min**2))
    if not (bound > 0.0 and bound >= cfg.ellipticity_floor):
        refusal = f"the a-priori bound P'(w) >= {bound:.3e} must be > 0 and >= floor {cfg.ellipticity_floor:.0e}"
        if params.min_multiplicity > 1:
            raise SingularParametersError(f"min(a_j) has multiplicity > 1: {refusal}")
        raise DegeneracyEncounteredError(refusal)

    def state(fa: np.ndarray) -> tuple[_Level, np.ndarray, float]:
        """The iterate's operator, with a fresh coefficient, its residual and RMS residual."""
        lv = _Level(_interior_coefficient(params, fa, domain), domain.hx, domain.hy)
        res = lv.apply(fa)
        return lv, res, float(np.sqrt(np.mean(res * res)))

    f = transfinite_interpolant(phi)
    lv, res, rms = state(f)
    cycles = 0
    while (residual := float(np.max(np.abs(res)))) > cfg.tolerance:
        if cycles >= cfg.max_iterations:
            raise NoConvergenceError(cycles, residual)
        step = _vcycle(_levels(lv.coef, domain.hx, domain.hy), -res)
        cycles += 1
        for halvings in range(_MAX_HALVINGS + 1):
            trial = f.copy()
            trial[1:-1, 1:-1] += 0.5**halvings * step
            trial_lv, trial_res, trial_rms = state(trial)
            if trial_rms < rms:
                break
        else:
            raise NoConvergenceError(cycles, residual)
        f, lv, res, rms = trial, trial_lv, trial_res, trial_rms

    field = ScalarField2D(domain, f)
    return PdeSolution(field, *recover_uv(field), iterations=cycles, final_residual=residual,
                       ellipticity_margin=float(lv.coef.min()), ellipticity_bound=bound)
