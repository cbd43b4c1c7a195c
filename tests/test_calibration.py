import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slfold.branch import eval_p_prime, params_from_levels, solve_branch
from slfold.calibration import (
    POINT_COLUMNS,
    TangentFrame,
    cross_product_closed_form,
    cross_product_det,
    decomposition_check,
    im_omega_residual,
    implicit_derivatives,
    omega_form,
    omega_residual,
    tangent_frame,
    verify_fields,
)
from slfold.embedding import lift_point, total_phase
from slfold.errors import (
    DegenerateBranchError,
    RankDeficientError,
    SingularPointError,
    SlfoldError,
    ZeroRadiusError,
)
from slfold.families import AffineSolution, HLConfig, affine_fields, hl_partials, hl_triple
from slfold.grid import GridDomain, ScalarField2D

from conftest import random_params


def frame_at(params, x, y, u, v, partials, angles=None):
    sample = lift_point(params, x, y, u, v, angles)
    return sample, tangent_frame(params, sample, *partials)


def affine_frame(params, alpha, beta, gamma, x, y):
    u = alpha * x + beta
    v = alpha * y + gamma
    return frame_at(params, x, y, u, v, (alpha, 0.0, 0.0, alpha))


# --- implicit derivatives -------------------------------------------------------

def test_implicit_derivatives_frozen_example():
    # independent oracle: central differences of total_phase / solve_branch
    params = params_from_levels((1.0, -1.0))
    d = implicit_derivatives(params, 1.0, 0.0, 0.0, 0.0)
    assert d.theta_x == 0.0
    assert d.theta_y == pytest.approx(0.5, abs=1e-14)
    assert d.w_x == 0.0
    assert d.w_y == 0.0


def test_implicit_derivatives_stationary_level():
    for n in (3, 4, 5):
        params = params_from_levels(tuple(np.linspace(0.5, 2.0, n - 1)))
        d = implicit_derivatives(params, 1.3, 0.0, 0.0, 0.0)
        assert d.w_x == 0.0 and d.w_y == 0.0


def test_implicit_derivatives_direct_substitution():
    params = params_from_levels((2.0, -2.0))
    d = implicit_derivatives(params, 0.0, 2.0, 1.0, 0.0)
    w = math.sqrt(8.0)
    assert solve_branch(params, 4.0).w == pytest.approx(w, rel=1e-12)
    assert d.w_y == pytest.approx(4.0 / (2.0 * w), rel=1e-12)  # = 1/sqrt(2)
    assert d.w_x == 0.0


def test_implicit_derivatives_errors():
    params = params_from_levels((1.0, -1.0))
    with pytest.raises(SingularPointError):
        implicit_derivatives(params, 0.0, 0.0, 1.0, 1.0)
    # quadruple root: P'(w(s)) sits below the floor for tiny s
    degenerate = params_from_levels((0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DegenerateBranchError):
        implicit_derivatives(degenerate, 1e-9, 0.0, 1.0, 1.0)


def _fd_derivs(params, v, y, v_x, v_y, h):
    """Finite differences of the defining maps along x and y."""

    def theta_at(vv, yy):
        return total_phase(params, vv, yy)

    def w_at(vv, yy):
        return solve_branch(params, vv * vv + yy * yy).w

    m = params.n - 1
    th_x = (theta_at(v + h * v_x, y) - theta_at(v - h * v_x, y)) / (2 * h) / m
    th_y = (theta_at(v + h * v_y, y + h) - theta_at(v - h * v_y, y - h)) / (2 * h) / m
    w_x = (w_at(v + h * v_x, y) - w_at(v - h * v_x, y)) / (2 * h)
    w_y = (w_at(v + h * v_y, y + h) - w_at(v - h * v_y, y - h)) / (2 * h)
    return th_x, th_y, w_x, w_y


@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_implicit_derivatives_match_finite_differences(n, seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, n=n)
    v, y = rng.uniform(-2, 2, 2)
    assume(v * v + y * y > 0.1)
    # keep clear of the phase branch cut so differencing cannot wrap
    assume(abs(total_phase(params, v, y)) < math.pi - 0.2)
    v_x, v_y = rng.uniform(-2, 2, 2)
    d = implicit_derivatives(params, v, y, v_x, v_y)
    h = 1e-6 * (1 + abs(v) + abs(y))
    fd = _fd_derivs(params, v, y, v_x, v_y, h)
    for analytic, numeric in zip((d.theta_x, d.theta_y, d.w_x, d.w_y), fd):
        assert abs(analytic - numeric) <= 1e-6 * (1 + abs(analytic))


# --- frames ---------------------------------------------------------------------

def test_fiber_vector_structure_n4():
    params = params_from_levels((1.0, 2.0, 3.0))
    sample, frame = frame_at(params, 0.2, 0.5, -1.0, 0.7, (0.3, -0.2, 0.8, 0.1))
    n = params.n
    theta = sample.theta_total / (n - 1)
    zg = np.sqrt([sample.w + aj for aj in params.a]) * np.exp(1j * theta)
    w1 = frame.w_phi[0]
    assert w1[0] == 1j * zg[0]
    assert w1[1] == 0 and w1[3] == 0
    assert w1[2] == -1j * zg[2]


def test_frame_last_components():
    params = params_from_levels((2.0, -2.0))
    _, frame = affine_frame(params, 0.6, 0.0, 1.5, 0.4, 0.8)
    assert frame.wx[-1] == 1.0 + 0.6j
    assert frame.wy[-1] == 0.0


def test_frame_zero_partials():
    params = params_from_levels((2.0, -2.0))
    _, frame = frame_at(params, 0.3, 0.9, 0.1, 0.7, (0.0, 0.0, 0.0, 0.0))
    assert np.allclose(frame.wx[:-1], 0.0)
    assert frame.wx[-1] == 1.0
    assert frame.wy[-1] == 0.0
    assert frame.derivs.w_x == 0.0 and frame.derivs.theta_x == 0.0


def test_frame_zero_radius_refused():
    params = params_from_levels((1.0, -1.0))
    sample = lift_point(params, 2.0, 0.0, 5.0, 0.0)  # s = 0, one radius vanishes
    with pytest.raises(ZeroRadiusError):
        tangent_frame(params, sample, 1.0, 0.0, 0.0, 1.0)


def test_frame_rank_full(rng):
    for _ in range(20):
        params = random_params(rng)
        x, y, u, v = rng.uniform(-2, 2, 4)
        if v * v + y * y < 0.1:
            continue
        try:
            _, frame = frame_at(params, x, y, u, v, tuple(rng.uniform(-2, 2, 4)))
        except ZeroRadiusError:
            continue
        m = np.column_stack(frame.vectors())
        assert np.linalg.matrix_rank(np.vstack([m.real, m.imag])) == params.n


# --- calibration forms ------------------------------------------------------------

def test_fiber_isotropy_exact(rng):
    # omega vanishes pairwise on fiber tangents for arbitrary (non-)solutions
    for _ in range(20):
        params = random_params(rng, n=int(rng.integers(4, 7)))
        x, y, u, v = rng.uniform(-2, 2, 4)
        if v * v + y * y < 0.1:
            continue
        try:
            _, frame = frame_at(params, x, y, u, v, tuple(rng.uniform(-2, 2, 4)))
        except ZeroRadiusError:
            continue
        for i in range(len(frame.w_phi)):
            for j in range(i + 1, len(frame.w_phi)):
                assert abs(omega_form(frame.w_phi[i], frame.w_phi[j])) <= 1e-14


def test_affine_frames_are_calibrated(rng):
    for n in (3, 4):
        params = random_params(rng, n=n)
        for _ in range(25):
            x, y = rng.uniform(-2, 2, 2)
            alpha, beta, gamma = rng.uniform(-1.5, 1.5, 3)
            v = alpha * y + gamma
            if v * v + y * y < 0.1:
                continue
            try:
                _, frame = affine_frame(params, alpha, beta, gamma, x, y)
            except ZeroRadiusError:
                continue
            assert omega_residual(frame) <= 1e-10
            assert im_omega_residual(frame) <= 1e-10


def test_swap_pair_breaks_omega(rng):
    params = params_from_levels((1.0, -1.0))
    hits = total = 0
    for _ in range(50):
        x, y = rng.uniform(-2, 2, 2)
        if x * x + y * y < 0.1:
            continue
        _, frame = frame_at(params, x, y, y, x, (0.0, 1.0, 1.0, 0.0))
        total += 1
        if omega_residual(frame) > 1e-3:
            hits += 1
    assert hits >= 0.9 * total


def test_im_omega_detects_unequal_cross_derivatives(rng):
    # the determinant identity: det = (1 + ux vy - uy vx) + i (ux - vy),
    # so Im det flags exactly a violation of u_x = v_y
    params = params_from_levels((1.0, -1.0))
    for _ in range(20):
        x, y = rng.uniform(-2, 2, 2)
        if x * x + y * y < 0.1:
            continue
        _, frame = frame_at(params, x, y, 2 * x, y, (2.0, 0.0, 0.0, 1.0))
        assert im_omega_residual(frame) > 1e-3


def test_frame_determinant_identity(rng):
    for _ in range(30):
        params = random_params(rng)
        x, y, u, v = rng.uniform(-2, 2, 4)
        if v * v + y * y < 0.1:
            continue
        ux, uy, vx, vy = rng.uniform(-2, 2, 4)
        try:
            _, frame = frame_at(params, x, y, u, v, (ux, uy, vx, vy))
        except ZeroRadiusError:
            continue
        det = np.linalg.det(np.column_stack(frame.vectors()))
        expected = (1 + ux * vy - uy * vx) + 1j * (ux - vy)
        assert abs(det - expected) <= 1e-9 * (1 + abs(expected))


def test_degenerate_frame_zero_residual():
    params = params_from_levels((2.0, -2.0))
    sample, frame = affine_frame(params, 0.5, 0.0, 1.0, 0.3, 0.7)
    degenerate = TangentFrame(
        w_phi=frame.w_phi, wx=frame.wx, wy=frame.wx.copy(), derivs=frame.derivs, point=sample
    )
    assert im_omega_residual(degenerate) <= 1e-14


# --- cross products ----------------------------------------------------------------

def test_cross_product_det_small_cases():
    e1 = np.array([1.0 + 0j, 0.0])
    out = cross_product_det([e1])
    assert np.allclose(out.components, [0.0, 1.0])

    e1, e2 = np.eye(3, dtype=complex)[:2]
    out3 = cross_product_det([e1, e2])
    assert np.allclose(out3.components, [0.0, 0.0, 1.0])


def test_cross_product_det_equals_one_determinant_per_component(rng):
    # the stacked det call against det of [v_1 | ... | v_{n-1} | e_j], one j at a time
    for n in (3, 4, 5, 6):
        vecs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(n - 1)]
        comps = cross_product_det(vecs).components
        ref = [np.linalg.det(np.column_stack([*vecs, np.eye(n)[j]])) for j in range(n)]
        assert comps.tobytes() == np.array(ref).tobytes()


def test_cross_product_vector_is_calibrated_dual(rng):
    # g(conj(components), w) = Re det[v1...v_{n-1}, w] for arbitrary w
    params = random_params(rng, n=4)
    x, y, u, v = 0.4, 0.9, -0.3, 1.2
    _, frame = frame_at(params, x, y, u, v, (0.7, -0.2, 0.5, 0.1))
    cross = cross_product_det((*frame.w_phi, frame.wx))
    tangent = cross.as_tangent_vector()
    for _ in range(5):
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = float(np.vdot(tangent, w).real)
        rhs = float(np.linalg.det(np.column_stack([*frame.w_phi, frame.wx, w])).real)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(
    st.sampled_from([3, 4, 5]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_determinant(n, seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, n=n)
    x, y, u, v = rng.uniform(-2, 2, 4)
    assume(v * v + y * y > 0.05)
    partials = tuple(rng.uniform(-2, 2, 4))
    try:
        sample, frame = frame_at(params, x, y, u, v, partials)
    except ZeroRadiusError:
        assume(False)
    det = cross_product_det((*frame.w_phi, frame.wx))
    closed = cross_product_closed_form(params, sample, frame)
    scale = np.linalg.norm(det.components)
    assert np.linalg.norm(det.components - closed.components) <= 1e-10 * scale


def test_closed_form_magnitude_structure():
    # radii (1, sqrt2, sqrt3) at w = 0: |comp_i| = prod_{k != i} r_k * |u_x + i|
    params = params_from_levels((1.0, 2.0, 3.0))
    ux = 0.8
    sample, frame = frame_at(params, 0.1, 0.0, 0.0, math.sqrt(6.0), (ux, 0.0, 0.0, ux), (0.0, 0.0))
    closed = cross_product_closed_form(params, sample, frame)
    mags = np.abs(closed.components[:3])
    expected = np.array([math.sqrt(6), math.sqrt(3), math.sqrt(2)]) * abs(ux + 1j)
    assert np.allclose(mags, expected, rtol=1e-12)


def test_closed_form_component_n_vanishes_without_x_variation():
    params = params_from_levels((2.0, -2.0))
    sample, frame = frame_at(params, 0.3, 0.8, 0.2, 0.9, (0.0, 0.4, 0.0, 0.0))
    assert frame.derivs.w_x == 0.0 and frame.derivs.theta_x == 0.0
    closed = cross_product_closed_form(params, sample, frame)
    assert closed.components[-1] == 0.0


def test_closed_form_zero_radius_refused():
    params = params_from_levels((1.0, -1.0))
    sample, frame = frame_at(params, 0.0, 1.0, 0.0, 0.0, (0.0, 0.0, 0.0, 0.0))
    near_floor = lift_point(params, 2.0, 0.0, 5.0, 0.0)
    with pytest.raises(ZeroRadiusError):
        cross_product_closed_form(params, near_floor, frame)


# --- decomposition ------------------------------------------------------------------

def test_decomposition_affine_n3():
    params = params_from_levels((2.0, -2.0))
    sample, frame = affine_frame(params, 1.0, 0.0, 1.0, 0.0, 1.0)
    fit = decomposition_check(params, frame)
    pp = eval_p_prime(params, sample.w)
    assert fit.residual <= 1e-10
    assert fit.gamma == pytest.approx(-1.0 / pp, rel=1e-8)
    assert abs(fit.beta) <= 1e-10


def test_decomposition_affine_n4_sign_flip(rng):
    params = random_params(rng, n=4)
    sample, frame = affine_frame(params, 0.7, -0.1, 0.9, 0.4, 1.1)
    fit = decomposition_check(params, frame)
    pp = eval_p_prime(params, sample.w)
    assert fit.residual <= 1e-9
    assert fit.gamma == pytest.approx(+1.0 / pp, rel=1e-8)


def test_decomposition_gamma_sign_law(rng):
    for n in (3, 4, 5, 6):
        target = (-1.0) ** (2 - n)
        for _ in range(10):
            params = random_params(rng, n=n)
            alpha, beta, gamma = rng.uniform(-1.5, 1.5, 3)
            x, y = rng.uniform(-2, 2, 2)
            v = alpha * y + gamma
            if v * v + y * y < 0.1:
                continue
            try:
                sample, frame = affine_frame(params, alpha, beta, gamma, x, y)
            except ZeroRadiusError:
                continue
            fit = decomposition_check(params, frame)
            pp = eval_p_prime(params, sample.w)
            assert abs(fit.gamma * pp - target) <= 1e-8
            assert abs(fit.beta) <= 1e-8
            assert fit.residual <= 1e-8


def test_decomposition_alpha_coefficients_closed_form(rng):
    # exact expansion: alpha_i = theta_y - (v - u_x y) / (P'(w) (w + a_i))
    for n in (3, 4, 5):
        params = random_params(rng, n=n)
        alpha = 0.8
        x, y = 0.7, 1.2
        v = alpha * y + 0.4
        sample, frame = affine_frame(params, alpha, 0.2, 0.4, x, y)
        fit = decomposition_check(params, frame)
        pp = eval_p_prime(params, sample.w)
        expected = frame.derivs.theta_y - (v - alpha * y) / (
            pp * (sample.w + np.array(params.a[: n - 2]))
        )
        assert np.allclose(fit.alphas, expected, atol=1e-9)


def test_decomposition_hl_solution_frames():
    # second exact family: gauge-constrained triples with nonzero u_y, v_x
    cfg = HLConfig.from_head((1.0, 0.5), 0.2)
    params = cfg.params
    target = (-1.0) ** (2 - params.n)
    for (x, y) in [(0.6, 0.8), (-0.9, 1.1), (0.4, -1.3)]:
        t = hl_triple(cfg, x, y)
        dx, dy = hl_partials(cfg, x, y)
        sample = lift_point(params, x, y, t.u, t.v)
        frame = tangent_frame(params, sample, dx[0], dy[0], dx[1], dy[1])
        assert omega_residual(frame) <= 1e-10
        assert im_omega_residual(frame) <= 1e-10
        fit = decomposition_check(params, frame)
        pp = eval_p_prime(params, sample.w)
        assert abs(fit.gamma * pp - target) <= 1e-8
        assert fit.residual <= 1e-8


def test_decomposition_detects_non_solution(rng):
    params = params_from_levels((1.0, -1.0))
    hits = total = 0
    for _ in range(40):
        x, y = rng.uniform(-2, 2, 2)
        if x * x + y * y < 0.1:
            continue
        _, frame = frame_at(params, x, y, y, x, (0.0, 1.0, 1.0, 0.0))
        total += 1
        if decomposition_check(params, frame).residual > 1e-3:
            hits += 1
    assert hits >= 0.9 * total


def test_decomposition_rank_deficient():
    params = params_from_levels((2.0, -2.0))
    sample, frame = affine_frame(params, 0.5, 0.0, 1.0, 0.3, 0.7)
    broken = TangentFrame(
        w_phi=(frame.wx.copy(),),  # fiber slot duplicates wx
        wx=frame.wx,
        wy=frame.wy,
        derivs=frame.derivs,
        point=sample,
    )
    with pytest.raises(RankDeficientError):
        decomposition_check(params, broken)


# --- discrete solutions stay calibrated -----------------------------------------------

def test_solver_output_frames_within_budget():
    # frozen constant: omega/im-omega residuals of frames built from a
    # converged discrete solution stay below C * (tau + h^2), where tau is
    # the measured first-order residual of the derived (u, v) pair.
    from slfold.errors import SlfoldError
    from slfold.grid import BoundaryData, GridDomain
    from slfold.pde import SolverConfig, residual_first_order, solve_dirichlet

    C = 1.0
    params = params_from_levels((1.0, -1.0))
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 33, 33)
    phi = BoundaryData.from_function(dom, lambda x, y: x**2 + 0 * y)
    sol = solve_dirichlet(params, dom, phi, SolverConfig(tolerance=1e-10))
    r1, r2 = residual_first_order(params, sol.u, sol.v)
    tau = float(max(np.abs(r1.values).max(), np.abs(r2.values).max()))
    budget = C * (tau + dom.hx**2)

    u, v = sol.u.values, sol.v.values
    xs, ys = dom.xs(), dom.ys()
    hx, hy = dom.hx, dom.hy
    checked = 0
    for i in range(1, dom.nx - 1, 2):
        for j in range(1, dom.ny - 1, 2):
            if v[i, j] ** 2 + ys[j] ** 2 < 1e-6:
                continue
            ux = (u[i + 1, j] - u[i - 1, j]) / (2 * hx)
            uy = (u[i, j + 1] - u[i, j - 1]) / (2 * hy)
            vx = (v[i + 1, j] - v[i - 1, j]) / (2 * hx)
            vy = (v[i, j + 1] - v[i, j - 1]) / (2 * hy)
            try:
                sample = lift_point(params, float(xs[i]), float(ys[j]), float(u[i, j]), float(v[i, j]))
                frame = tangent_frame(params, sample, ux, uy, vx, vy)
            except SlfoldError:
                continue
            checked += 1
            assert omega_residual(frame) <= budget
            assert im_omega_residual(frame) <= budget
    assert checked > 100


def test_frame_derivs_equal_implicit_derivatives(rng):
    for n in (3, 4, 5, 6):
        params = random_params(rng, n=n)
        x, y, u, v, u_x, u_y, v_x, v_y = (float(t) for t in rng.uniform(-2, 2, 8))
        frame = tangent_frame(params, lift_point(params, x, y, u, v), u_x, u_y, v_x, v_y)
        assert frame.derivs == implicit_derivatives(params, v, y, v_x, v_y)


# --- verify parity against a one-frame-at-a-time reference ----------------------------

def _reference_frame(params, sample, u_x, u_y, v_x, v_y):
    """Frame columns [Wphi_1 .. Wphi_{n-2}, Wx, Wy] built one vector at a time."""
    n = params.n
    radicand = np.array([sample.w + aj for aj in params.a])
    if np.any(radicand <= 1e-14):
        raise ZeroRadiusError("zero radius")
    radii = np.sqrt(radicand)
    v, y = sample.v, sample.y
    if v == 0.0 and y == 0.0:
        raise SingularPointError("v = y = 0")
    pp = eval_p_prime(params, sample.w)
    if pp < 1e-8:
        raise DegenerateBranchError("P' below floor")
    s, m = v * v + y * y, n - 1
    th_x, th_y = -y * v_x / (m * s), (v - y * v_y) / (m * s)
    w_x, w_y = 2.0 * v * v_x / pp, 2.0 * (v * v_y + y) / pp
    phase = np.exp(1j * sample.theta_total / m)
    zg = radii * phase
    vecs = []
    for i in range(n - 2):
        vec = np.zeros(n, dtype=complex)
        vec[i] = 1j * zg[i]
        vec[n - 2] = -1j * zg[n - 2]
        vecs.append(vec)
    wx = np.append((w_x / (2.0 * radii) + 1j * th_x * radii) * phase, 1.0 + 1j * u_x)
    wy = np.append((w_y / (2.0 * radii) + 1j * th_y * radii) * phase, 1j * u_y)
    return [*vecs, wx, wy]


def _reference_fit(n, vecs):
    """(gamma, relative residual) of the real least-squares fit of Wy."""
    cross = cross_product_det(vecs[: n - 1])
    wbar = (-1.0 if n % 2 else 1.0) * cross.as_tangent_vector()
    a = np.column_stack([*vecs[: n - 1], wbar])
    a_real = np.vstack([a.real, a.imag])
    b_real = np.concatenate([vecs[-1].real, vecs[-1].imag])
    coef, _, rank, _ = np.linalg.lstsq(a_real, b_real, rcond=None)
    if rank < n:
        raise RankDeficientError("rank")
    scale = float(np.linalg.norm(b_real))
    return float(coef[-1]), float(np.linalg.norm(a_real @ coef - b_real)) / (scale or 1.0)


def _least_stride(mx, my, max_frames):
    """The least stride that selects at most max_frames of mx * my interior nodes, by search."""
    return next(s for s in range(1, max(mx, my) + 1) if math.ceil(mx / s) * math.ceil(my / s) <= max_frames)


def _reference_verify(params, u, v, max_frames):
    """frames, skip counts by error type, and per-point rows, one frame at a time."""
    dom, n = u.domain, params.n
    xs, ys = dom.xs(), dom.ys()
    u_x, u_y = np.gradient(u.values, dom.hx, dom.hy)
    v_x, v_y = np.gradient(v.values, dom.hx, dom.hy)
    stride = _least_stride(dom.nx - 2, dom.ny - 2, max_frames)
    skipped, points = Counter(), []
    for i in range(1, dom.nx - 1, stride):
        for j in range(1, dom.ny - 1, stride):
            x, y = float(xs[i]), float(ys[j])
            partials = (u_x[i, j], u_y[i, j], v_x[i, j], v_y[i, j])
            try:
                sample = lift_point(params, x, y, float(u.values[i, j]), float(v.values[i, j]))
                vecs = _reference_frame(params, sample, *partials)
                gamma, fit = _reference_fit(n, vecs)
            except SlfoldError as exc:
                skipped[type(exc).__name__] += 1
                continue
            norms = [np.linalg.norm(c) for c in vecs]
            om = max(
                (abs(np.vdot(vecs[p], vecs[q]).imag) / (norms[p] * norms[q])
                 for p, q in combinations(range(n), 2) if norms[p] * norms[q] != 0.0),
                default=0.0,
            )
            scale = float(np.prod(norms))
            im = abs(np.linalg.det(np.column_stack(vecs)).imag) / scale if scale else 0.0
            points.append({"x": x, "y": y, "omega": om, "im_omega": im,
                           "gamma": gamma, "fit_residual": fit})
    return len(points), skipped, points


def _first_strict_max(points, key):
    best, where = 0.0, None
    for p in points:
        if p[key] > best:
            best, where = p[key], (p["x"], p["y"])
    return where


def _verify_report(params, u, v, max_frames):
    """The verify report of (u, v) as a JSON-shaped dict."""
    report = verify_fields(params, u, v, max_frames)
    return {
        "frames": report.frames,
        "skipped_frames": report.skipped_frames,
        "skipped_by_reason": report.skipped_by_reason,
        "argmax_omega": report.argmax_omega,
        "argmax_im_omega": report.argmax_im_omega,
        "points": [dict(zip(POINT_COLUMNS, row)) for row in report.points.tolist()],
    }


PARITY_LEVELS = {
    3: (1.0, -1.0),
    4: (1.0, 0.25, -1.0),
    5: (2.0, 0.5, -0.25, -1.0),
    6: (3.0, 1.5, 0.5, -0.5, -1.0),
    "singular": (0.5, -1.0, -1.0),  # min(a_j) twice: the orbit over v = y = 0 collapses
}


@pytest.mark.parametrize("max_frames", [1000, 20])  # strides 1 and 2 on the 7 x 9 interior
@pytest.mark.parametrize("case", list(PARITY_LEVELS))
def test_verify_matches_frame_by_frame_reference(case, max_frames):
    params = params_from_levels(PARITY_LEVELS[case])
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 9, 11)
    xs, ys = np.meshgrid(dom.xs(), dom.ys(), indexing="ij")
    bump = 1e-3 * np.sin(1.3 * xs + 0.4) * np.cos(0.7 * ys + 0.2)
    uu, vv = 0.9 * xs + 0.2 + bump, 0.9 * ys + 0.45 - bump
    assert ys[3, 5] == 0.0
    vv[3, 5] = 0.0  # s = 0: zero radius, or a collapsed orbit in the singular case
    u, v = ScalarField2D(dom, uu), ScalarField2D(dom, vv)

    frames, skipped, points = _reference_verify(params, u, v, max_frames)
    report = _verify_report(params, u, v, max_frames)
    reason = "SingularPointError" if case == "singular" else "ZeroRadiusError"
    assert skipped == {reason: 1}
    assert {k: c for k, c in report["skipped_by_reason"].items() if c} == skipped
    assert (report["frames"], report["skipped_frames"]) == (frames, sum(skipped.values()))
    for key in ("omega", "im_omega"):
        expected = _first_strict_max(points, key)
        got = report[f"argmax_{key}"]
        assert (got if got is None else tuple(got)) == expected
    assert [(p["x"], p["y"]) for p in report["points"]] == [(p["x"], p["y"]) for p in points]
    for got, ref in zip(report["points"], points):
        for key in ("omega", "im_omega", "fit_residual"):
            assert abs(got[key] - ref[key]) <= 1e-13
        assert abs(got["gamma"] - ref["gamma"]) <= 1e-12 * max(1.0, abs(ref["gamma"]))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40), st.integers(3, 40), st.integers(1, 50))
def test_verify_frames_are_the_least_stride_within_max_frames(nx, ny, max_frames):
    # --max-frames is a cap: the frames are the nodes of the least stride
    # that selects at most max_frames, so stride - 1 would select more
    params = params_from_levels((1.0, -1.0))
    dom = GridDomain(-1.0, 1.0, 0.5, 1.5, nx, ny)
    u, v = affine_fields(AffineSolution(1.5, 0.5, -0.5), dom)
    report = verify_fields(params, u, v, max_frames)
    least = _least_stride(nx - 2, ny - 2, max_frames)
    ii, jj = np.meshgrid(np.arange(1, nx - 1, least), np.arange(1, ny - 1, least), indexing="ij")
    assert report.skipped_frames == 0
    assert report.frames <= max_frames
    assert np.array_equal(report.points[:, :2], np.column_stack([dom.xs()[ii.ravel()], dom.ys()[jj.ravel()]]))


@pytest.mark.parametrize("max_frames", [1, 12, 10_000])
def test_verify_first_order_residual_is_residual_first_order(max_frames):
    # verify_fields takes its residual from residual_first_order's interior pass
    # and reports the max over both equations, bit for bit
    from slfold.pde import residual_first_order

    params = params_from_levels((1.0, 0.25, -1.0))
    dom = GridDomain(-1.0, 1.0, -0.8, 1.2, 13, 10)
    xs, ys = np.meshgrid(dom.xs(), dom.ys(), indexing="ij")
    u = ScalarField2D(dom, np.sin(1.3 * xs) * ys + 0.1)
    v = ScalarField2D(dom, np.cos(0.7 * ys) * xs - 0.3)
    r1, r2 = residual_first_order(params, u, v)
    report = verify_fields(params, u, v, max_frames)
    assert report.max_first_order_residual == max(np.abs(r1.values).max(), np.abs(r2.values).max())
    assert report.max_first_order_residual > 0.1
