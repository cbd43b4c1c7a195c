"""Reduced quasilinear system on the plane and its Dirichlet solver.

First-order system:      u_x = v_y,   v_x = -P'(w(v^2 + y^2)) u_y.
Potential form:          f_xx + P'(w) f_yy = 0 with (u, v) = (f_y, f_x) and
                         w the branch root of P(w) = f_x^2 + y^2.

Discretisation is the 5-point second-order stencil, applied only by
_Level.apply; every first derivative is np.gradient's.  _Level is the one
operator type, e_xx + c e_yy + b e_x - sigma e: the V-cycle's levels and the
residual (b = 0, sigma = 0) are all built by its constructor, and _iterate is
the one linearisation.  The nonlinear coefficient is evaluated nodewise from
the current iterate.  The Dirichlet solver runs inexact Newton on the discrete
residual R(f) = D_xx f + c D_yy f, c = F(s) = P'(w(s)), s = (D_x f)^2 + y^2
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).  Its exact
Jacobian is J e = D_xx e + c D_yy e + b D_x e with b = 2 F'(s) D_x f D_yy f
and F'(s) = P''(w)/P'(w).  Each step builds one multigrid hierarchy for
J - sigma I (Briggs, Henson & McCormick, A Multigrid Tutorial, 2000) and
solves (J - sigma I) d = -R by FGMRES, right-preconditioned by one V-cycle
per Krylov vector (Saad, SIAM J. Sci. Comput. 14, 1993), until
|(J - sigma I) d + R| <= eta |R| in the max norm, with eta from Eisenstat &
Walker's choice 2 (SIAM J. Sci. Comput. 17, 1996), floored where the
tolerance asks for no more.  The first Krylov vector is the V-cycle's
correction scaled to minimise the linear residual; the later ones keep the
step converging where repeated V-cycles on one operator diverge after a deep
descent, when c varies strongly, or stall, where b dominates.  The shift is
pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35,
1998): sigma starts at 0, so the steps are Newton steps; a step that does
not lower the RMS residual is rejected and retried from the same iterate
with sigma raised to max(4 sigma, 1), which shortens it towards the explicit
pseudo-time step R / sigma; an accepted step scales sigma by the ratio of
the new RMS residual to the old.  A rejected trial equal to the iterate bit
for bit ends the solve, as no larger shift can move it.

Each interior side m coarsens to max(1, (m - 1) // 2) until a side is 1,
where one smoothing sweep is an exact solve; c and b reach the coarse grids
by interpolation at their nodes, where b e_x is upwinded (Trottenberg,
Oosterlee & Schueller, Multigrid, 2001, ch. 7) so that the coarse x-lines
keep nonnegative couplings however large |b| h grows; the finest level
keeps the exact J.  The smoother is alternating zebra line
Gauss-Seidel; restriction and prolongation come from the coarse grid's hat
functions, which is full weighting and bilinear interpolation where the
grids nest.  The smoother's batched tridiagonal line systems, with unequal
off-diagonals 1/hx^2 -+ b/(2 hx) along x, are solved by parallel cyclic
reduction, in ceil(log2 L) vector steps for lines of L unknowns; they are
factored once per level and hierarchy, and every V-cycle of a step reuses
them.  Ellipticity is checked once, against an a-priori bound on
every iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .branch import ReductionParams, _branch_t, _f_prime, ellipticity_array
from .errors import (
    DegeneracyEncounteredError,
    DomainMismatchError,
    NoConvergenceError,
    SingularParametersError,
)
from .grid import BoundaryData, GridDomain, ScalarField2D, require_same_domain

# Eisenstat-Walker choice 2: eta_k = gamma (|R_k| / |R_k-1|)^alpha, from eta_0,
# safeguarded by gamma eta_k-1^alpha where that exceeds 0.1, and capped at eta_0.
_ETA0, _EW_GAMMA, _EW_ALPHA = 0.5, 0.9, 2.0
# Krylov vectors, each one V-cycle, that one FGMRES step may build; no restart.
_KRYLOV = 30


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration controls for solve_dirichlet."""

    tolerance: float = 1e-10
    max_iterations: int = 10_000
    ellipticity_floor: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:  # an infinite one would pass any iterate
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if np.isnan(self.ellipticity_floor):
            raise ValueError("ellipticity_floor must not be nan")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class PdeSolution:
    """Converged f with u = f_y, v = f_x, its least interior P'(w) and the a-priori bound on it.

    iterations counts V-cycles; newton_steps the accepted steps and
    rejected_steps the steps that did not lower the RMS residual and were
    retried with a larger shift.  summary() gives every field but the grids
    f, u and v, the solver's keys of the run report.
    """

    f: ScalarField2D
    u: ScalarField2D
    v: ScalarField2D
    iterations: int
    final_residual: float
    ellipticity_margin: float
    ellipticity_bound: float
    newton_steps: int
    rejected_steps: int

    def summary(self) -> dict:
        return {k.name: getattr(self, k.name) for k in fields(self) if k.name not in ("f", "u", "v")}


def ellipticity_field(params: ReductionParams, f: ScalarField2D) -> np.ndarray:
    """Public view of the assembled interior coefficient, shape (nx-2, ny-2)."""
    return _iterate(params, f.values, f.domain).coef


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
    return ScalarField2D(f.domain, np.pad(_iterate(params, f.values, f.domain).res, 1))


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
    """The operator J - sigma I, e_xx + c e_yy + b e_x - sigma e, on one grid of the hierarchy.

    Central differences of b e_x give the exact Jacobian.  With upwind, the
    x diffusion 1/hx^2 becomes 1/hx^2 + |b|/(2 hx), which is first-order
    upwinding of b e_x: both x-couplings stay >= 1/hx^2 however large
    |b| hx gets, as a coarse grid needs.  With b = 0 and sigma = 0 the
    operator is e_xx + c e_yy, whose apply gives the residual; hx = inf
    drops the x terms, and with c = 1 leaves D_yy.
    """

    def __init__(self, coef: float | np.ndarray, b: float | np.ndarray, hx: float, hy: float,
                 sigma: float = 0.0, upwind: bool = False):
        self.cy = coef / hy**2
        self.bx, self.sigma = b * (0.5 / hx), sigma
        self.invx = 1.0 / hx**2 + np.abs(self.bx) if upwind else np.full_like(self.bx, 1.0 / hx**2)

    def apply(self, e: np.ndarray) -> np.ndarray:
        """Operator on the interior of a full array, with whatever boundary values it holds."""
        mid = e[1:-1, 1:-1]
        out = (e[2:, 1:-1] - 2.0 * mid + e[:-2, 1:-1]) * self.invx + self.cy * (
            e[1:-1, 2:] - 2.0 * mid + e[1:-1, :-2]
        )
        out += self.bx * (e[2:, 1:-1] - e[:-2, 1:-1]) - self.sigma * mid
        return out

    @cached_property
    def lines(self) -> tuple[tuple[_LineFactor, _LineFactor], tuple[_LineFactor, _LineFactor]]:
        """Factors of the zebra line systems, (y-lines, x-lines) by colour 0, 1.

        Built on the first smoothing sweep and reused by every later one on
        this level, in every V-cycle on the hierarchy, on the coarsest level too.
        """
        diag = -2.0 * self.invx - 2.0 * self.cy - self.sigma
        ylines = tuple(_pcr_factor(self.cy[p::2].T, self.cy[p::2].T, diag[p::2].T) for p in (0, 1))
        lower, upper = self.invx - self.bx, self.invx + self.bx
        xlines = tuple(_pcr_factor(lower[:, p::2], upper[:, p::2], diag[:, p::2]) for p in (0, 1))
        return ylines, xlines


def _levels(coef: np.ndarray, b: np.ndarray, hx: float, hy: float, sigma: float = 0.0) -> list[_Level]:
    """The hierarchy of J - sigma I for c = coef and b on the grid of spacings hx, hy:
    exact on the finest level, with b e_x upwinded on the coarse levels.

    Each interior side m coarsens to max(1, (m - 1) // 2) until a side is 1.
    Odd sides nest; an even side gets a coarse grid on the same interval.
    The coarse c and b are the fine ones interpolated at the coarse nodes;
    sigma is the same on every level.
    """
    levels = [_Level(coef, b, hx, hy, sigma)]
    while min(coef.shape) > 1:
        mx, my = coef.shape
        cx, cy = max(1, (mx - 1) // 2), max(1, (my - 1) // 2)
        px, py = _hat(cx, mx), _hat(cy, my)
        coef, b = px @ coef @ py.T, px @ b @ py.T
        hx, hy = hx * ((mx + 1) / (cx + 1)), hy * ((my + 1) / (cy + 1))
        levels.append(_Level(coef, b, hx, hy, sigma, upwind=True))
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


def _pcr_factor(lower: float | np.ndarray, upper: float | np.ndarray, diag: np.ndarray) -> _LineFactor:
    """Parallel cyclic reduction of tridiagonal systems along axis 0, batched over axis 1.

    Row k reads lower[k] x[k-1] + diag[k] x[k] + upper[k] x[k+1] = rhs[k];
    lower and upper are arrays of diag's shape or scalars, and lower[0] and
    upper[-1] are not read.  The step with stride s adds
    alpha times row k-s and gamma times row k+s to row k, which removes
    x[k-s] and x[k+s] from it; after ceil(log2 L) strides every row is
    decoupled (Hockney 1965; Gander & Golub 1997).
    """
    n = diag.shape[0]
    diag = np.ascontiguousarray(diag)  # C order, like the copies _pcr_solve makes
    # At stride s, lower[k] couples row k to row k-s (read for k >= s only) and
    # upper[k] couples it to row k+s (read for k < n-s only).
    lower, upper = np.broadcast_to(lower, diag.shape).copy(), np.broadcast_to(upper, diag.shape).copy()
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


def _smooth(lv: _Level, e: np.ndarray, g: np.ndarray) -> None:
    """One alternating zebra line Gauss-Seidel sweep for lv's operator e = g: lines along y, then x."""
    mx, my = e.shape
    ylines, xlines = lv.lines
    for p in (0, 1):
        left, right = e[p : mx - 2 : 2, 1:-1], e[p + 2 :: 2, 1:-1]
        rhs = g[p::2] - lv.invx[p::2] * (left + right) - lv.bx[p::2] * (right - left)
        e[p + 1 : mx - 1 : 2, 1:-1] = _pcr_solve(ylines[p], rhs.T).T
    for p in (0, 1):
        rhs = g[:, p::2] - lv.cy[:, p::2] * (e[1:-1, p : my - 2 : 2] + e[1:-1, p + 2 :: 2])
        e[1:-1, p + 1 : my - 1 : 2] = _pcr_solve(xlines[p], rhs)


def _vcycle(levels: list[_Level], g: np.ndarray) -> np.ndarray:
    """One V(1,1) cycle for levels[0]'s operator e = g from e = 0; interior in and out.

    On the coarsest level a side is 1, so the line solves of one sweep
    cover the whole system and the sweep is exact.
    """
    lv = levels[0]
    e = np.zeros((g.shape[0] + 2, g.shape[1] + 2))
    _smooth(lv, e, g)
    if len(levels) > 1:
        (mx, my), (cx, cy) = g.shape, levels[1].cy.shape
        px, py = _hat(mx, cx), _hat(my, cy)
        scale = (cx + 1) / (mx + 1) * ((cy + 1) / (my + 1))  # (hx / Hx) (hy / Hy)
        coarse = _vcycle(levels[1:], scale * (px.T @ (g - lv.apply(e)) @ py))
        e[1:-1, 1:-1] += px @ coarse @ py.T
        _smooth(lv, e, g)
    return e[1:-1, 1:-1]


def _krylov_step(levels: list[_Level], res: np.ndarray, target: float, budget: int):
    """(d, cycles): FGMRES on A d = -res from d = 0, A = levels[0]'s operator.

    Right-preconditioned by one V-cycle per Krylov vector (Saad, SIAM J. Sci.
    Comput. 14, 1993), whose first vector is the V-cycle's correction scaled
    to minimise the 2-norm of the linear residual.  The least-squares problem
    on the Hessenberg matrix is kept triangular by Givens rotations.  Stops
    once max |A d + res| <= target, after budget cycles, at _KRYLOV vectors
    or when the Krylov space holds the solution.
    """
    op, r0 = levels[0], -res
    beta = float(np.sqrt(np.vdot(r0, r0)))
    vs, zs = [r0 / beta], []
    h = np.zeros((_KRYLOV, _KRYLOV))  # the rotated, upper triangular Hessenberg matrix
    rot = np.zeros((_KRYLOV, 2))  # (cos, sin) of each Givens rotation
    g = np.zeros(_KRYLOV + 1)  # beta e_1, rotated: |g[j + 1]| is the residual's 2-norm
    g[0] = beta
    for j in range(min(_KRYLOV, budget)):
        zs.append(_vcycle(levels, vs[j]))
        w = op.apply(np.pad(zs[j], 1))
        for i, v in enumerate(vs):  # modified Gram-Schmidt
            h[i, j] = np.vdot(w, v)
            w -= h[i, j] * v
        norm = float(np.sqrt(np.vdot(w, w)))
        for i, (c, sn) in enumerate(rot[:j]):
            h[i, j], h[i + 1, j] = c * h[i, j] + sn * h[i + 1, j], c * h[i + 1, j] - sn * h[i, j]
        rho = np.hypot(h[j, j], norm)
        rot[j] = h[j, j] / rho, norm / rho
        h[j, j] = rho
        g[j], g[j + 1] = rot[j, 0] * g[j], -rot[j, 1] * g[j]
        y = np.zeros(j + 1)
        for i in range(j, -1, -1):  # back substitution
            y[i] = (g[i] - h[i, i + 1 : j + 1] @ y[i + 1 :]) / h[i, i]
        d = sum(yi * z for yi, z in zip(y, zs))
        r = r0 - op.apply(np.pad(d, 1))
        if float(np.max(np.abs(r))) <= target or norm == 0.0:
            break
        vs.append(w / norm)
    return d, j + 1


class _Iterate(NamedTuple):
    """An iterate f with its interior coefficient c, its residual R(f), the
    RMS and max norm of R, and jacobian_b(), which builds the b of the
    Jacobian at f from the same branch inversion."""

    f: np.ndarray
    coef: np.ndarray
    res: np.ndarray
    rms: float
    residual: float
    jacobian_b: Callable[[], np.ndarray]


def _iterate(params: ReductionParams, f: np.ndarray, domain: GridDomain) -> _Iterate:
    """Linearise R at f: c = F(s) with s = (D_x f)^2 + y^2 and R(f) from one branch inversion,
    and b = 2 F'(s) D_x f D_yy f when jacobian_b() asks for it."""
    fx = np.gradient(f, domain.hx, axis=0)[1:-1, 1:-1]
    t, coef = _branch_t(params, fx * fx + domain.ys()[None, 1:-1] ** 2)
    res = _Level(coef, 0.0, domain.hx, domain.hy).apply(f)

    def jacobian_b() -> np.ndarray:
        # D_x f again, so that the iterate holds t and no D_x f (and its full-grid base);
        # a level with hx = inf has no x coupling: with c = 1 its apply is D_yy
        d_x = np.gradient(f, domain.hx, axis=0)[1:-1, 1:-1]
        return 2.0 * _f_prime(params, t, coef) * d_x * _Level(1.0, 0.0, np.inf, domain.hy).apply(f)

    return _Iterate(f, coef, res, float(np.sqrt(np.mean(res * res))), float(np.max(np.abs(res))), jacobian_b)


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
    solve.  Boundary nodes carry phi exactly.  Each step is an inexact
    Newton step on J - sigma I by FGMRES on the V-cycle, rejected and
    retried with a larger shift sigma unless it lowers the RMS residual (see
    the module docstring).  iterations counts the V-cycles, which
    max_iterations bounds; NoConvergenceError is raised when they run out or
    when a rejected step leaves the iterate unchanged.
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

    it = _iterate(params, transfinite_interpolant(phi), domain)
    b = None  # the Jacobian's b at it, built once for the steps from it
    cycles = newton_steps = rejected_steps = 0
    eta, sigma = _ETA0, 0.0
    while it.residual > cfg.tolerance:
        if cycles >= cfg.max_iterations:
            raise NoConvergenceError(cycles, it.residual)
        b = it.jacobian_b() if b is None else b
        # asking |J d + R| below tolerance / 2 buys nothing the stopping test needs
        target = max(eta * it.residual, 0.5 * cfg.tolerance)
        step, used = _krylov_step(_levels(it.coef, b, domain.hx, domain.hy, sigma), it.res, target,
                                  cfg.max_iterations - cycles)
        cycles += used
        trial = it.f.copy()
        trial[1:-1, 1:-1] += step
        if np.array_equal(trial, it.f):  # no shift can move the iterate further
            raise NoConvergenceError(cycles, it.residual)
        new = _iterate(params, trial, domain)
        if not new.rms < it.rms:
            rejected_steps += 1
            sigma = max(4.0 * sigma, 1.0)
            continue
        newton_steps += 1
        sigma *= new.rms / it.rms
        safeguard = _EW_GAMMA * eta**_EW_ALPHA
        eta = min(_ETA0, max(_EW_GAMMA * (new.residual / it.residual) ** _EW_ALPHA,
                             safeguard if safeguard > 0.1 else 0.0))
        it, b = new, None

    field = ScalarField2D(domain, it.f)
    return PdeSolution(field, *recover_uv(field), iterations=cycles, final_residual=it.residual,
                       ellipticity_margin=float(it.coef.min()), ellipticity_bound=bound,
                       newton_steps=newton_steps, rejected_steps=rejected_steps)
