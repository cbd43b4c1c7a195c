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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .branch import DEGENERACY_FLOOR, ReductionParams, eval_p_prime, solve_branch
from .embedding import EmbeddedSample, unit_power_i
from .errors import (
    DegenerateBranchError,
    RankDeficientError,
    SingularPointError,
    ZeroRadiusError,
)

# Radii at or below this are treated as vanishing; frame formulas divide by them.
ZERO_RADIUS_FLOOR = 1e-14


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
    s = v * v + y * y
    m = params.n - 1
    return ImplicitDerivs(
        theta_x=-y * v_x / (m * s),
        theta_y=(v - y * v_y) / (m * s),
        w_x=2.0 * v * v_x / p_prime,
        w_y=2.0 * (v * v_y + y) / p_prime,
    )


def _radii(
    params: ReductionParams, sample: EmbeddedSample, message: str
) -> tuple[np.ndarray, np.ndarray]:
    """(w + a_j, sqrt(w + a_j)); raises ZeroRadiusError(message) at the floor."""
    radicand = np.array([sample.w + aj for aj in params.a])
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
    _, radii = _radii(params, sample, "a radius sqrt(w + a_j) vanishes; frame is undefined")
    der = _implicit_derivs(params, sample.v, sample.y, v_x, v_y, eval_p_prime(params, sample.w))

    theta = sample.theta_total / (n - 1)
    phase = cmath.exp(1j * theta)
    zg = radii * phase  # gauge representative of (z_1, ..., z_{n-1})

    w_phi = []
    for i in range(n - 2):
        vec = np.zeros(n, dtype=complex)
        vec[i] = 1j * zg[i]
        vec[n - 2] = -1j * zg[n - 2]
        w_phi.append(vec)

    wx = np.empty(n, dtype=complex)
    wx[: n - 1] = (der.w_x / (2.0 * radii) + 1j * der.theta_x * radii) * phase
    wx[n - 1] = 1.0 + 1j * u_x
    wy = np.empty(n, dtype=complex)
    wy[: n - 1] = (der.w_y / (2.0 * radii) + 1j * der.theta_y * radii) * phase
    wy[n - 1] = 1j * u_y

    return TangentFrame(w_phi=tuple(w_phi), wx=wx, wy=wy, derivs=der, point=sample)


def omega_form(a: np.ndarray, b: np.ndarray) -> float:
    """Standard Kaehler form omega(a, b) = Im sum conj(a_j) b_j."""
    return float(np.vdot(a, b).imag)


def omega_residual(frame: TangentFrame) -> float:
    """max over frame pairs of |omega(A, B)| / (|A| |B|)."""
    vecs = frame.vectors()
    norms = [np.linalg.norm(v) for v in vecs]
    worst = 0.0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            denom = norms[i] * norms[j]
            if denom == 0.0:
                continue
            worst = max(worst, abs(omega_form(vecs[i], vecs[j])) / denom)
    return worst


def im_omega_residual(frame: TangentFrame) -> float:
    """|Im det(frame matrix)| normalised by the product of vector norms."""
    vecs = frame.vectors()
    m = np.column_stack(vecs)
    scale = float(np.prod([np.linalg.norm(v) for v in vecs]))
    if scale == 0.0:
        return 0.0
    return abs(np.linalg.det(m).imag) / scale


def cross_product_det(vectors: Sequence[np.ndarray]) -> CrossProductVector:
    """Cofactor components: det of [v_1 | ... | v_{n-1} | e_j] for each j."""
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    n = vecs[0].size
    if len(vecs) != n - 1:
        raise ValueError(f"need n-1 = {n - 1} vectors in C^{n}, got {len(vecs)}")
    stack = np.empty((n, n, n), dtype=complex)
    stack[:, :, : n - 1] = np.column_stack(vecs)
    stack[:, :, n - 1] = np.eye(n)  # matrix j ends in e_j
    return CrossProductVector(np.linalg.det(stack))


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
    cross = cross_product_det((*frame.w_phi, frame.wx))
    orient = -1.0 if n % 2 else 1.0  # (-1)^{n-2}
    wbar = orient * cross.as_tangent_vector()

    cols = [*frame.w_phi, frame.wx, wbar]
    a = np.column_stack(cols)
    a_real = np.vstack([a.real, a.imag])
    b_real = np.concatenate([frame.wy.real, frame.wy.imag])

    coef, _, rank, _ = np.linalg.lstsq(a_real, b_real, rcond=None)
    if rank < n:
        raise RankDeficientError(f"decomposition basis has rank {rank} < {n}")
    misfit = a_real @ coef - b_real
    scale = float(np.linalg.norm(b_real))
    residual = float(np.linalg.norm(misfit)) / (scale if scale > 0.0 else 1.0)
    return DecompositionFit(
        gamma=float(coef[-1]),
        residual=residual,
        beta=float(coef[-2]),
        alphas=coef[: n - 2].copy(),
    )
