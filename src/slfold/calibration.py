"""Tangent frames, the calibration forms, and the cross-product identities.

At a lifted point the tangent space of N is spanned by the fiber vectors
Wphi_i = (0, ..., i z_i, ..., -i z_{n-1}, 0) and the transverse vectors Wx,
Wy obtained by differentiating the equal-angle representative

    W(x, y) = (sqrt(w + a_1) e^{i t}, ..., sqrt(w + a_{n-1}) e^{i t}, x + iu),

t = Theta/(n-1).  The plane is special Lagrangian exactly when the Kaehler
form vanishes on all pairs and Im det of the frame matrix vanishes; both are
evaluated here, together with the calibrated cross product computed two
independent ways (cofactor determinants versus closed form) and the
least-squares decomposition of Wy over {Wphi_i, Wx, cross vector}.
The kernels work on (N, n, n) frame stacks, and the one-frame functions
call them with N = 1; verify_fields lifts through embedding.lift_nodes.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .branch import DEGENERACY_FLOOR, ReductionParams, solve_branch
from .embedding import EmbeddedSample, _radicands, lift_nodes, unit_power_i
from .errors import (
    DegenerateBranchError,
    RankDeficientError,
    SingularPointError,
    ZeroRadiusError,
)
from .grid import ScalarField2D
from .pde import _first_order_interior

# Radii at or below this are treated as vanishing; frame formulas divide by them.
ZERO_RADIUS_FLOOR = 1e-14

# verify_fields stacks at most this many frames at a time: stacking all 2,209
# frames of a 49^2 grid at once raised the process's peak memory from 46 to 52 MB.
FRAME_BLOCK = 256

# Why a selected node's frame is not checked, in the order the checks apply.
SKIP_REASONS = (SingularPointError, ZeroRadiusError, DegenerateBranchError, RankDeficientError)


@dataclass(frozen=True)
class ImplicitDerivs:
    """Total derivatives of the angle sum and branch root along x and y."""

    theta_x: float
    theta_y: float
    w_x: float
    w_y: float


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """The n tangent vectors at an embedded point, in the equal-angle gauge."""

    w_phi: tuple[np.ndarray, ...]
    wx: np.ndarray
    wy: np.ndarray
    derivs: ImplicitDerivs
    point: EmbeddedSample

    def vectors(self) -> tuple[np.ndarray, ...]:
        return (*self.w_phi, self.wx, self.wy)


@dataclass(frozen=True, eq=False)
class CrossProductVector:
    """Cofactor components a_j of the calibrated cross product.

    components[j] = det of the matrix whose columns are the input vectors
    followed by e_j.  The geometric tangent vector dual to the contraction
    is the conjugate tuple, exposed as as_tangent_vector().
    """

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=complex)
        if not np.all(np.isfinite(c)):
            raise ValueError("cross-product components must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "components", c)

    def as_tangent_vector(self) -> np.ndarray:
        return np.conj(self.components)


def implicit_derivatives(
    params: ReductionParams, v: float, y: float, v_x: float, v_y: float
) -> ImplicitDerivs:
    """Differentiate the defining relations along the base coordinates.

    (n-1) theta = arg(v + iy) + const and P(w) = v^2 + y^2 give

        theta_x = -y v_x / ((n-1) s),    theta_y = (v - y v_y) / ((n-1) s),
        w_x     = 2 v v_x / P'(w),       w_y     = 2 (v v_y + y) / P'(w),

    with s = v^2 + y^2.  These are validated against finite differences of
    total_phase and solve_branch in the test-suite.
    """
    return _implicit_derivs(params, v, y, v_x, v_y, solve_branch(params, v * v + y * y).p_prime_at_w)


def _implicit_derivs(
    params: ReductionParams, v: float, y: float, v_x: float, v_y: float, p_prime: float
) -> ImplicitDerivs:
    if v == 0.0 and y == 0.0:
        raise SingularPointError("implicit derivatives undefined at v = y = 0")
    if p_prime < DEGENERACY_FLOOR:
        raise DegenerateBranchError(f"P'(w) = {p_prime:.3e} below floor {DEGENERACY_FLOOR:.0e}")
    return ImplicitDerivs(*_derivs(params.n, v, y, v_x, v_y, p_prime))


def _derivs(n: int, v, y, v_x, v_y, p_prime):
    """(theta_x, theta_y, w_x, w_y) unchecked; elementwise on floats and arrays alike."""
    s = v * v + y * y
    m = n - 1
    return (
        -y * v_x / (m * s),
        (v - y * v_y) / (m * s),
        2.0 * v * v_x / p_prime,
        2.0 * (v * v_y + y) / p_prime,
    )


def _radii(
    params: ReductionParams, sample: EmbeddedSample, message: str
) -> tuple[np.ndarray, np.ndarray]:
    """(w + a_j, sqrt(w + a_j)) as t + d_j; raises ZeroRadiusError(message) at the floor."""
    radicand = _radicands(params, sample.w - params.w0)
    if np.any(radicand <= ZERO_RADIUS_FLOOR):
        raise ZeroRadiusError(message)
    return radicand, np.sqrt(radicand)


def tangent_frame(
    params: ReductionParams,
    sample: EmbeddedSample,
    u_x: float,
    u_y: float,
    v_x: float,
    v_y: float,
) -> TangentFrame:
    """Assemble the frame from reduced partial-derivative data.

    The fiber vectors use the equal-angle representative of the orbit, so
    they may differ from vectors at sample.z by a diagonal torus element;
    every calibration quantity evaluated here is invariant under that move.
    """
    n = params.n
    radicand, _ = _radii(params, sample, "a radius sqrt(w + a_j) vanishes; frame is undefined")
    # P'(w) as implicit_derivatives takes it
    p_prime = solve_branch(params, sample.v * sample.v + sample.y * sample.y).p_prime_at_w
    der = _implicit_derivs(params, sample.v, sample.y, v_x, v_y, p_prime)
    data = (sample.theta_total, radicand, p_prime, sample.v, sample.y, u_x, u_y, v_x, v_y)
    cols = _assemble(params, *(np.array([t], dtype=float) for t in data))[0].T.copy()
    return TangentFrame(w_phi=tuple(cols[: n - 2]), wx=cols[n - 2], wy=cols[n - 1],
                        derivs=der, point=sample)


def _assemble(params: ReductionParams, theta, radicand, p_prime, v, y, u_x, u_y, v_x, v_y) -> np.ndarray:
    """Frame matrices (N, n, n) with columns [Wphi_1, ..., Wphi_{n-2}, Wx, Wy].

    Arguments: the angle sum Theta, the radicands w + a_j (N, n-1), P'(w), the
    base values v and y, and the four partials, all of length N.  The caller
    has excluded vanishing radii, v = y = 0 and P'(w) below the floor.
    """
    n = params.n
    radii = np.sqrt(radicand)
    th_x, th_y, w_x, w_y = (d[:, None] for d in _derivs(n, v, y, v_x, v_y, p_prime))
    phase = np.exp(1j * (theta / (n - 1)))[:, None]
    zg = radii * phase  # gauge representative of (z_1, ..., z_{n-1})
    m = np.zeros((len(radicand), n, n), dtype=complex)
    k = np.arange(n - 2)
    m[:, k, k] = 1j * zg[:, : n - 2]
    m[:, n - 2, : n - 2] = -1j * zg[:, n - 2 :]
    m[:, : n - 1, n - 2] = (w_x / (2.0 * radii) + 1j * th_x * radii) * phase
    m[:, n - 1, n - 2] = 1.0 + 1j * u_x
    m[:, : n - 1, n - 1] = (w_y / (2.0 * radii) + 1j * th_y * radii) * phase
    m[:, n - 1, n - 1] = 1j * u_y
    return m


def omega_form(a: np.ndarray, b: np.ndarray) -> float:
    """Standard Kaehler form omega(a, b) = Im sum conj(a_j) b_j."""
    return float(np.vdot(a, b).imag)


def omega_residual(frame: TangentFrame) -> float:
    """max over frame pairs of |omega(A, B)| / (|A| |B|)."""
    m = np.column_stack(frame.vectors())[None]
    return float(_omega(m, np.linalg.norm(m, axis=1))[0])


def _omega(m: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Per frame, max over column pairs i < j of |omega(m_i, m_j)| / (|m_i| |m_j|).

    A pair with a zero norm is left out; a frame with no pair left reads 0.
    """
    i, j = np.triu_indices(m.shape[-1], 1)
    a, b = m[:, :, i], m[:, :, j]
    # Im vdot(m_i, m_j) summed in row order, as np.vdot sums these short vectors
    form = (a.real * b.imag).sum(axis=1) - (a.imag * b.real).sum(axis=1)
    denom = norms[:, i] * norms[:, j]
    ratio = np.abs(form) / np.where(denom == 0.0, 1.0, denom)
    return np.where(denom == 0.0, 0.0, ratio).max(axis=1)


def im_omega_residual(frame: TangentFrame) -> float:
    """|Im det(frame matrix)| normalised by the product of vector norms."""
    m = np.column_stack(frame.vectors())[None]
    return float(_im_det(m, np.linalg.norm(m, axis=1))[0])


def _im_det(m: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Per frame, |Im det m| over the product of the column norms; 0 when that is 0."""
    scale = norms.prod(axis=1)
    zero = scale == 0.0
    return np.where(zero, 0.0, np.abs(np.linalg.det(m).imag) / np.where(zero, 1.0, scale))


def cross_product_det(vectors: Sequence[np.ndarray]) -> CrossProductVector:
    """Cofactor components: det of [v_1 | ... | v_{n-1} | e_j] for each j."""
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    n = vecs[0].size
    if len(vecs) != n - 1:
        raise ValueError(f"need n-1 = {n - 1} vectors in C^{n}, got {len(vecs)}")
    return CrossProductVector(_cross(np.column_stack(vecs)[None])[0])


def cross_product_closed_form(
    params: ReductionParams, sample: EmbeddedSample, frame: TangentFrame
) -> CrossProductVector:
    """Closed-form cofactor components of the cross product of (Wphi..., Wx).

    With t = Theta/(n-1), r_j = sqrt(w + a_j) and rho = prod r_k:

        comp_j = -i^{n-2} e^{i(n-2)t} (rho / r_j) (1 + i u_x),   j <= n-1,
        comp_n =  i^{n-2} e^{i(n-1)t} rho (w_x/2 sum_k 1/(w+a_k)
                                            + i (n-1) theta_x).

    Must agree with cross_product_det on the same frame to 1e-10 relative.
    """
    n = params.n
    radicand, radii = _radii(params, sample, "closed form requires strictly positive radii")
    rho = float(np.prod(radii))
    theta = sample.theta_total / (n - 1)
    u_x = float(frame.wx[n - 1].imag)
    ipow = unit_power_i(n - 2)

    comps = np.empty(n, dtype=complex)
    comps[: n - 1] = (
        -ipow
        * cmath.exp(1j * (n - 2) * theta)
        * (rho / radii)
        * (1.0 + 1j * u_x)
    )
    comps[n - 1] = (
        ipow
        * cmath.exp(1j * (n - 1) * theta)
        * rho
        * (0.5 * frame.derivs.w_x * float(np.sum(1.0 / radicand))
           + 1j * (n - 1) * frame.derivs.theta_x)
    )
    return CrossProductVector(comps)


@dataclass(frozen=True, eq=False)
class DecompositionFit:
    """Least-squares expansion of Wy over {Wphi_i, Wx, cross vector}."""

    gamma: float
    residual: float
    beta: float
    alphas: np.ndarray


def decomposition_check(params: ReductionParams, frame: TangentFrame) -> DecompositionFit:
    """Fit Wy = sum_i alpha_i Wphi_i + beta Wx + gamma Wcross, real coefficients.

    Wcross is the conjugated cofactor tuple of cross_product_det(Wphi..., Wx)
    scaled by the orientation factor (-1)^{n-2}; with that normalisation the
    fitted gamma on solution frames satisfies gamma * P'(w) = (-1)^{2-n}.
    The fit runs over R^{2n}, so non-solutions produce a meaningful residual.
    """
    n = params.n
    coef, residual, rank = _fit(np.column_stack(frame.vectors())[None])
    if rank[0] < n:
        raise RankDeficientError(f"decomposition basis has rank {rank[0]} < {n}")
    c = coef[0]
    return DecompositionFit(gamma=float(c[-1]), residual=float(residual[0]),
                            beta=float(c[-2]), alphas=c[: n - 2].copy())


def _cross(m: np.ndarray) -> np.ndarray:
    """Cofactor components det[m_1 | ... | m_{n-1} | e_j] per frame (N, n); m has >= n-1 columns."""
    count, n, _ = m.shape
    stack = np.empty((count, n, n, n), dtype=complex)
    stack[..., : n - 1] = m[:, None, :, : n - 1]
    stack[..., n - 1] = np.eye(n)  # matrix j ends in e_j
    comps = np.linalg.det(stack)
    if not np.all(np.isfinite(comps)):
        raise ValueError("cross-product components must be finite")
    return comps


def _fit(m: np.ndarray):
    """Stacked real least-squares fit of the last column over the others and Wcross.

    Returns (coef (N, n), relative residual (N,), rank (N,)).  Rank and the
    minimum-norm solution follow np.linalg.lstsq with rcond=None: singular
    values at or below eps * 2n * s_max count as zero.
    """
    n = m.shape[-1]
    basis = m.copy()
    basis[:, :, n - 1] = (-1.0 if n % 2 else 1.0) * np.conj(_cross(m))  # orientation (-1)^{n-2}
    a = np.concatenate([basis.real, basis.imag], axis=1)  # (N, 2n, n)
    b = np.concatenate([m[:, :, n - 1].real, m[:, :, n - 1].imag], axis=1)[:, :, None]
    left, sv, right_t = np.linalg.svd(a, full_matrices=False)
    keep = sv > np.finfo(float).eps * 2 * n * sv[:, :1]
    inverse = np.where(keep, 1.0 / np.where(keep, sv, 1.0), 0.0)[:, :, None]
    coef = right_t.transpose(0, 2, 1) @ (inverse * (left.transpose(0, 2, 1) @ b))
    misfit = (a @ coef - b)[:, :, 0]
    scale = np.linalg.norm(b[:, :, 0], axis=1)
    residual = np.linalg.norm(misfit, axis=1) / np.where(scale > 0.0, scale, 1.0)
    return coef[:, :, 0], residual, keep.sum(axis=1)


# Columns of VerifyReport.points, one row per checked frame.
POINT_COLUMNS = ("x", "y", "omega", "im_omega", "gamma", "fit_residual")


@dataclass(frozen=True, eq=False)
class VerifyReport:
    """Calibration check of a pair of fields over the selected interior frames.

    points has one row per checked frame, in selection order (i outer, j
    inner), with the columns POINT_COLUMNS; gamma_deviation holds
    |gamma P'(w) - (-1)^{2-n}| for the same frames.  skipped_by_reason counts
    the selected nodes left unchecked, by the name of each SKIP_REASONS type.
    summary() gives the report's keys under their JSON names.
    """

    max_first_order_residual: float
    points: np.ndarray  # shape (frames, 6)
    gamma_deviation: np.ndarray  # shape (frames,)
    skipped_by_reason: dict[str, int]

    def summary(self) -> dict:
        """Frame and skip counts and each maximum, 0 over no frames; an argmax_* is the
        (x, y) of the first frame attaining the maximum, or None unless that is above 0."""
        column = dict(zip(POINT_COLUMNS, self.points.T))
        top = {c: float(values.max(initial=0.0)) for c, values in column.items()}
        where = {c: tuple(self.points[np.argmax(column[c]), :2].tolist()) if top[c] > 0.0 else None
                 for c in ("omega", "im_omega")}
        return {
            "frames": len(self.points),
            "skipped_frames": sum(self.skipped_by_reason.values()),
            "skipped_by_reason": self.skipped_by_reason,
            "max_first_order_residual": self.max_first_order_residual,
            "max_omega_residual": top["omega"],
            "argmax_omega": where["omega"],
            "max_im_omega_residual": top["im_omega"],
            "argmax_im_omega": where["im_omega"],
            "max_gamma_deviation": float(self.gamma_deviation.max(initial=0.0)),
            "max_fit_residual": top["fit_residual"],
        }

    def passes(self, first_order: float, omega: float, im_omega: float, gamma: float) -> bool:
        """At least one frame was checked and every maximum is within its budget.

        The fit residual shares the gamma budget.
        """
        s = self.summary()
        return (
            s["frames"] >= 1
            and s["max_first_order_residual"] <= first_order
            and s["max_omega_residual"] <= omega
            and s["max_im_omega_residual"] <= im_omega
            and s["max_gamma_deviation"] <= gamma
            and s["max_fit_residual"] <= gamma
        )


def verify_fields(
    params: ReductionParams, u: ScalarField2D, v: ScalarField2D, max_frames: int
) -> VerifyReport:
    """Check the calibration identities on interior frames of the fields (u, v).

    The interior nodes are taken with one stride in both directions, the
    smallest that selects at most max_frames of them, i outer and j inner.
    The partials, the branch shifts t and P'(w) come from the interior pass
    of pde.residual_first_order, which the lift reuses (lift_nodes).
    Each selected node is skipped for the first SKIP_REASONS check it fails, in
    the order of the one-frame path (lift_point, tangent_frame,
    decomposition_check); the others are checked FRAME_BLOCK frames at a time.
    """
    if max_frames < 1:
        raise ValueError(f"max_frames must be >= 1, got {max_frames}")
    n = params.n
    # one branch inversion of the interior serves the first-order residual and the lift
    residuals, interior_partials, t_in, p_prime_in = _first_order_interior(params, u, v)
    first_order = float(max(np.abs(r).max(initial=0.0) for r in residuals))

    dom = u.domain
    mx, my = dom.nx - 2, dom.ny - 2
    # no stride below sqrt(mx my / max_frames) keeps the cap: start there
    stride = max(1, int(np.ceil(np.sqrt(mx * my / max_frames))))
    while len(range(0, mx, stride)) * len(range(0, my, stride)) > max_frames:
        stride += 1
    ii, jj = (g.ravel() for g in np.meshgrid(
        np.arange(0, mx, stride), np.arange(0, my, stride), indexing="ij"))
    partials = [d[ii, jj] for d in interior_partials]
    x, y, vv = dom.xs()[ii + 1], dom.ys()[jj + 1], v.values[ii + 1, jj + 1]
    theta, _, radicand, singular = lift_nodes(params, vv, y, t_in[ii, jj])
    p_prime = p_prime_in[ii, jj]

    # an index into SKIP_REASONS, or -1 for a frame to check
    reason = np.select(
        [singular, np.any(radicand <= ZERO_RADIUS_FLOOR, axis=1), p_prime < DEGENERACY_FLOOR],
        [0, 1, 2],
        default=-1,
    )
    checked = np.flatnonzero(reason < 0)
    rows, deviations = [], []
    for start in range(0, len(checked), FRAME_BLOCK):
        k = checked[start : start + FRAME_BLOCK]
        m = _assemble(params, *(c[k] for c in (theta, radicand, p_prime, vv, y, *partials)))
        coef, fit_residual, rank = _fit(m)
        full = rank >= n
        reason[k[~full]] = 3
        k, m, gamma = k[full], m[full], coef[full, -1]
        norms = np.linalg.norm(m, axis=1)
        rows.append(np.column_stack(
            [x[k], y[k], _omega(m, norms), _im_det(m, norms), gamma, fit_residual[full]]))
        deviations.append(np.abs(gamma * p_prime[k] - (1.0 if n % 2 == 0 else -1.0)))

    counts = np.bincount(reason[reason >= 0], minlength=len(SKIP_REASONS))
    return VerifyReport(
        max_first_order_residual=first_order,
        points=np.concatenate(rows) if rows else np.empty((0, len(POINT_COLUMNS))),
        gamma_deviation=np.concatenate(deviations) if deviations else np.empty(0),
        skipped_by_reason={cls.__name__: int(c) for cls, c in zip(SKIP_REASONS, counts)},
    )
