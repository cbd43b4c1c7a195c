"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from slfold.branch import (
    eval_p,
    eval_p_prime,
    params_from_levels,
    solve_branch,
)
from slfold.calibration import (
    cross_product_closed_form,
    cross_product_det,
    decomposition_check,
    im_omega_residual,
    implicit_derivatives,
    omega_residual,
    tangent_frame,
)
from slfold.embedding import lift_point, total_phase
from slfold.errors import DegenerateRegionError, SlfoldError
from slfold.families import (
    AffineSolution,
    HLConfig,
    affine_fields,
    hl_partials,
    hl_residual,
    hl_triple,
    joyce_check,
)
from slfold.grid import BoundaryData, GridDomain, ScalarField2D
from slfold.pde import SolverConfig, residual_first_order, solve_dirichlet
from slfold.winding import LoopTrace, circle_points, multiplicity_at_zero, total_turn

from conftest import random_params


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {tag}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_criterion_01_branch_inversion():
    rng = np.random.default_rng(101)
    s_grid = np.concatenate([[0.0], np.logspace(-8, 4, 49)])
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        params = random_params(rng)
        for s in s_grid:
            state = solve_branch(params, float(s))
            worst = max(worst, abs(eval_p(params, state.w) - s) / (1 + s))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 branch inversion",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_joyce_recovery():
    worst = max(joyce_check(a, np.linspace(0.0, 100.0, 1000)).deviation for a in (0.5, 1.0, 2.0))
    _report("criterion 2 closed-form coefficient recovery", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_03_affine_exactness():
    rng = np.random.default_rng(303)
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 33, 33)
    worst = 0.0
    for _ in range(50):
        params = random_params(rng)
        u, v = affine_fields(AffineSolution(*rng.uniform(-2, 2, 3)), dom)
        r1, r2 = residual_first_order(params, u, v)
        worst = max(worst, float(np.abs(r1.values).max()), float(np.abs(r2.values).max()))
    _report("criterion 3 affine exactness", worst <= 1e-12, f"max residual {worst:.2e}")


def test_criterion_04_dirichlet_oracle():
    params = params_from_levels((1.0, -1.0))
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 33, 33)
    fstar = lambda x, y: 2 * x * y + x - y
    phi = BoundaryData.from_function(dom, fstar)
    t0 = time.perf_counter()
    sol = solve_dirichlet(params, dom, phi, SolverConfig(tolerance=1e-10))
    elapsed = time.perf_counter() - t0
    err = float(np.abs(sol.f.values - ScalarField2D.from_function(dom, fstar).values).max())
    _report(
        "criterion 4 Dirichlet oracle",
        err <= 1e-9 and elapsed < 5.0,
        f"max err {err:.2e}, {elapsed:.2f} s",
    )


def test_criterion_05_refinement_consistency():
    # The bilinear oracle problem is discretisation-exact on every grid, so
    # second-order behaviour is measured on a curved boundary (phi = x^2
    # trace) with the same domain, parameters and solver settings.
    params = params_from_levels((1.0, -1.0))

    def solve_at(nodes):
        dom = GridDomain(-1.0, 1.0, -1.0, 1.0, nodes, nodes)
        phi = BoundaryData.from_function(dom, lambda x, y: x**2 + 0 * y)
        return solve_dirichlet(params, dom, phi, SolverConfig(tolerance=1e-10))

    f17 = solve_at(17).f.values
    f33 = solve_at(33).f.values
    f65 = solve_at(65).f.values
    d1 = float(np.abs(f17 - f33[::2, ::2]).max())
    d2 = float(np.abs(f33 - f65[::2, ::2]).max())
    ratio = d1 / d2
    _report("criterion 5 refinement consistency", 3.0 <= ratio <= 5.0, f"ratio {ratio:.3f}")


def _affine_calibration_points(params, rng, count):
    sol = AffineSolution(0.8, -0.3, 1.1)
    frames = []
    while len(frames) < count:
        x, y = rng.uniform(-2, 2, 2)
        u, v = sol.alpha * x + sol.beta, sol.alpha * y + sol.gamma
        if v * v + y * y < 0.1:
            continue
        try:
            sample = lift_point(params, x, y, u, v)
            frames.append(tangent_frame(params, sample, sol.alpha, 0.0, 0.0, sol.alpha))
        except (SlfoldError, ValueError):
            continue
    return frames


def test_criterion_06_calibration_affine_and_omega():
    rng = np.random.default_rng(606)
    worst = 0.0
    for n in (3, 4):
        params = random_params(rng, n=n)
        for frame in _affine_calibration_points(params, rng, 100):
            worst = max(worst, omega_residual(frame), im_omega_residual(frame))
    ok_affine = worst <= 1e-10

    params = params_from_levels((1.0, -1.0))
    hits = total = 0
    for _ in range(200):
        x, y = rng.uniform(-2, 2, 2)
        if x * x + y * y < 0.1:
            continue
        sample = lift_point(params, x, y, y, x)
        frame = tangent_frame(params, sample, 0.0, 1.0, 1.0, 0.0)
        total += 1
        if omega_residual(frame) > 1e-3:
            hits += 1
    ok_nonsol = hits >= 0.9 * total
    _report(
        "criterion 6 calibration (affine + omega falsification)",
        ok_affine and ok_nonsol,
        f"affine worst {worst:.2e}; omega>1e-3 at {hits}/{total}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated verbatim but unattainable: the frame determinant satisfies "
        "det = (1 + u_x v_y - u_y v_x) + i(u_x - v_y), so for (u, v) = (y, x) "
        "the imaginary part vanishes identically and im_omega_residual is ~1e-16 "
        "at every point; only the omega residual can flag this pair"
    ),
)
def test_criterion_06_nonsolution_im_omega_verbatim():
    rng = np.random.default_rng(607)
    params = params_from_levels((1.0, -1.0))
    hits = total = 0
    for _ in range(200):
        x, y = rng.uniform(-2, 2, 2)
        if x * x + y * y < 0.1:
            continue
        sample = lift_point(params, x, y, y, x)
        frame = tangent_frame(params, sample, 0.0, 1.0, 1.0, 0.0)
        total += 1
        if omega_residual(frame) > 1e-3 and im_omega_residual(frame) > 1e-3:
            hits += 1
    _report(
        "criterion 6 (im-omega half, verbatim)",
        hits >= 0.9 * total,
        f"both>1e-3 at {hits}/{total}",
    )


def test_criterion_07_cross_product_oracle():
    rng = np.random.default_rng(707)
    worst = 0.0
    for n in (3, 4, 5):
        done = 0
        while done < 100:
            params = random_params(rng, n=n)
            x, y, u, v = rng.uniform(-2, 2, 4)
            if v * v + y * y < 0.05:
                continue
            try:
                sample = lift_point(params, x, y, u, v)
                frame = tangent_frame(params, sample, *rng.uniform(-2, 2, 4))
                det = cross_product_det((*frame.w_phi, frame.wx))
                closed = cross_product_closed_form(params, sample, frame)
            except (SlfoldError, ValueError):
                continue
            done += 1
            scale = float(np.linalg.norm(det.components))
            worst = max(worst, float(np.linalg.norm(det.components - closed.components)) / scale)
    _report("criterion 7 cross-product oracle", worst <= 1e-10, f"worst rel {worst:.2e}")


def test_criterion_08_decomposition_law():
    rng = np.random.default_rng(808)
    worst_gamma = worst_beta = worst_fit = 0.0
    for n in (3, 4, 5):
        target = (-1.0) ** (2 - n)
        params = random_params(rng, n=n)
        for frame in _affine_calibration_points(params, rng, 40):
            fit = decomposition_check(params, frame)
            pp = eval_p_prime(params, frame.point.w)
            worst_gamma = max(worst_gamma, abs(fit.gamma * pp - target))
            worst_beta = max(worst_beta, abs(fit.beta))
            worst_fit = max(worst_fit, fit.residual)
    # gauge-constrained triples validate the law with u_y, v_x != 0
    cfg = HLConfig.from_head((1.0, 0.5), 0.2)
    for (x, y) in [(0.6, 0.8), (-0.9, 1.1), (0.4, -1.3), (1.2, 0.5)]:
        t = hl_triple(cfg, x, y)
        dx, dy = hl_partials(cfg, x, y, t)
        sample = lift_point(cfg.params, x, y, t.u, t.v)
        frame = tangent_frame(cfg.params, sample, dx[0], dy[0], dx[1], dy[1])
        fit = decomposition_check(cfg.params, frame)
        pp = eval_p_prime(cfg.params, sample.w)
        worst_gamma = max(worst_gamma, abs(fit.gamma * pp - (-1.0) ** (2 - cfg.params.n)))
        worst_beta = max(worst_beta, abs(fit.beta))
        worst_fit = max(worst_fit, fit.residual)
    ok = worst_gamma <= 1e-8 and worst_beta <= 1e-8 and worst_fit <= 1e-8
    _report(
        "criterion 8 decomposition law",
        ok,
        f"gamma dev {worst_gamma:.2e}, beta {worst_beta:.2e}, fit {worst_fit:.2e}",
    )


def test_criterion_09_hl_closure():
    rng = np.random.default_rng(909)
    checked = 0
    worst_f = 0.0
    while checked < 100:
        n = int(rng.integers(3, 6))
        cfg = HLConfig.from_head(tuple(rng.uniform(0.1, 2.5, n - 2)), float(rng.uniform(-0.3, 0.8)))
        x = float(rng.uniform(-1.5, 1.5))
        y = float(rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0]))
        try:
            t = hl_triple(cfg, x, y)
        except DegenerateRegionError:
            continue
        checked += 1
        alpha = t.alpha
        worst_f = max(worst_f, abs(hl_residual(cfg, x, y, alpha)))
        # bracket monotonicity at 20 probes
        probes = np.geomspace(alpha / 3, alpha * 3, 20)
        vals = [hl_residual(cfg, x, y, float(p)) for p in probes]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        # triple invariants
        assert abs(t.w - (x * x + t.u**2 + cfg.b)) <= 1e-10 * (1 + abs(t.w))
        assert abs(t.v * t.u + x * y) <= 1e-10 * (1 + abs(x * y))
        assert t.v * x - t.u * y > 0
        pw = eval_p(cfg.params, t.w)
        assert abs(pw - (t.v**2 + y * y)) <= 1e-9 * (1 + abs(pw))
        assert math.copysign(1.0, t.u) == -math.copysign(1.0, y)
    _report("criterion 9 constrained-family closure", worst_f <= 1e-10, f"worst |F| {worst_f:.2e}")


def test_criterion_10_winding():
    def model(fn, samples=64):
        pts = circle_points((0.0, 0.0), 1.0, samples)
        vals = np.array([fn(x, y) for x, y in pts])
        return LoopTrace(points=pts, values=vals)

    cases = [
        (lambda x, y: (x, y), 1),
        (lambda x, y: (x * x - y * y, 2 * x * y), 2),
        (lambda x, y: (x, -y), -1),
    ]
    ok = True
    detail = []
    for fn, expected in cases:
        for samples in (64, 128):
            turn = total_turn(model(fn, samples))
            ok = ok and abs(turn - expected) <= 1e-6 and round(turn) == expected
        detail.append(f"{expected}:ok")

    dom = GridDomain(-2.0, 2.0, -2.0, 2.0, 41, 41)
    u1, v1 = affine_fields(AffineSolution(1.0, 0.3, -0.2), dom)
    u2, v2 = affine_fields(AffineSolution(0.4, -0.1, 0.5), dom)
    x_star, y_star = -0.4 / 0.6, 0.7 / 0.6
    m1 = multiplicity_at_zero(u1, v1, u2, v2, (x_star, y_star), 0.3, 128)
    m2 = multiplicity_at_zero(u1, v1, u2, v2, (x_star, y_star), 0.3, 256)
    ok = ok and m1 == 1 and m2 == 1
    _report("criterion 10 winding", ok, ", ".join(detail) + f", affine mult {m1}/{m2}")


def test_criterion_11_implicit_derivative_consistency():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for n in (3, 4, 5, 6):
        done = 0
        while done < 200:
            params = random_params(rng, n=n)
            v, y = rng.uniform(-2, 2, 2)
            if v * v + y * y < 0.1:
                continue
            if abs(total_phase(params, v, y)) > math.pi - 0.2:
                continue
            state = solve_branch(params, v * v + y * y)
            if state.p_prime_at_w < 1e-4:
                continue
            v_x, v_y = rng.uniform(-2, 2, 2)
            d = implicit_derivatives(params, v, y, v_x, v_y)
            h = 1e-6 * (1 + abs(v) + abs(y))
            m = params.n - 1

            th = lambda vv, yy: total_phase(params, vv, yy)
            wf = lambda vv, yy: solve_branch(params, vv * vv + yy * yy).w
            fd = (
                (th(v + h * v_x, y) - th(v - h * v_x, y)) / (2 * h) / m,
                (th(v + h * v_y, y + h) - th(v - h * v_y, y - h)) / (2 * h) / m,
                (wf(v + h * v_x, y) - wf(v - h * v_x, y)) / (2 * h),
                (wf(v + h * v_y, y + h) - wf(v - h * v_y, y - h)) / (2 * h),
            )
            done += 1
            for analytic, numeric in zip((d.theta_x, d.theta_y, d.w_x, d.w_y), fd):
                worst = max(worst, abs(analytic - numeric) / (1 + abs(analytic)))
    _report("criterion 11 implicit-derivative consistency", worst <= 1e-6, f"worst {worst:.2e}")
