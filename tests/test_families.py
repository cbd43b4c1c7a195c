import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slfold import families
from slfold.branch import eval_p, eval_p_prime, params_from_levels, solve_branch
from slfold.embedding import lift_point
from slfold.errors import (
    DegenerateRegionError,
    NoConvergenceError,
    NonpositiveAlphaError,
    YZeroError,
)
from slfold.families import (
    AffineSolution,
    HLConfig,
    affine_fields,
    affine_potential,
    affine_uv,
    hl_partials,
    hl_residual,
    hl_solve_alpha,
    hl_triple,
    joyce_check,
)
from slfold.grid import GridDomain
from slfold.pde import residual_first_order

from conftest import random_params

CFG = HLConfig.from_head((1.0,), 0.0)  # P(w) = (w + 1) w


# --- affine family ---------------------------------------------------------------

def test_affine_pointwise():
    assert affine_uv(AffineSolution(0, 0, 0), 3.0, -2.0) == (0.0, 0.0)
    assert affine_uv(AffineSolution(1, 2, -1), 3.0, 4.0) == (5.0, 3.0)


def test_affine_fields_solve_everywhere(rng):
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 17, 17)
    for _ in range(20):
        sol = AffineSolution(*rng.uniform(-2, 2, 3))
        params = random_params(rng)
        u, v = affine_fields(sol, dom)
        r1, r2 = residual_first_order(params, u, v)
        assert np.max(np.abs(r1.values)) <= 1e-12
        assert np.max(np.abs(r2.values)) <= 1e-12


def test_affine_potential_generates_pair():
    sol = AffineSolution(0.7, -0.4, 1.2)
    f = affine_potential(sol)
    h = 1e-6
    x, y = 0.3, -0.8
    u_fd = (f(x, y + h) - f(x, y - h)) / (2 * h)
    v_fd = (f(x + h, y) - f(x - h, y)) / (2 * h)
    u, v = affine_uv(sol, x, y)
    assert u_fd == pytest.approx(u, abs=1e-9)
    assert v_fd == pytest.approx(v, abs=1e-9)


def test_affine_split_phase_constant(rng):
    # Im(e^{-i t} z_n) with e^{i t} = (1 + i alpha)/sqrt(1 + alpha^2) is constant
    params = params_from_levels((1.0, -1.0))
    sol = AffineSolution(1.3, -0.6, 0.9)
    phase = (1 + 1j * sol.alpha) / math.sqrt(1 + sol.alpha**2)
    vals = []
    for _ in range(40):
        x, y = rng.uniform(-2, 2, 2)
        u, v = affine_uv(sol, x, y)
        if v * v + y * y < 0.05:
            continue
        sample = lift_point(params, x, y, u, v)
        vals.append((np.conj(phase) * sample.z[-1]).imag)
    assert np.max(vals) - np.min(vals) <= 1e-10


# --- gauge-constrained subfamily ----------------------------------------------------

def test_hl_residual_values():
    assert hl_residual(CFG, 1.0, 1.0, 1.0) == pytest.approx(-4.0, abs=1e-13)
    assert hl_residual(CFG, 1.0, 1.0, 0.2) == pytest.approx(3.36, abs=1e-12)


def test_hl_residual_blows_up_at_zero():
    assert hl_residual(CFG, 1.0, 1.0, 1e-12) > 1e10


def test_hl_residual_rejects_nonpositive_alpha():
    with pytest.raises(NonpositiveAlphaError):
        hl_residual(CFG, 1.0, 1.0, 0.0)
    with pytest.raises(NonpositiveAlphaError):
        hl_residual(CFG, 1.0, 1.0, -0.3)


def test_hl_solve_alpha_bracket_example():
    alpha = hl_solve_alpha(CFG, 1.0, 1.0)
    assert 0.2 < alpha < 1.0
    assert abs(hl_residual(CFG, 1.0, 1.0, alpha)) <= 1e-10


def test_hl_solve_alpha_monotone_in_y():
    a1 = hl_solve_alpha(CFG, 1.0, 1.0)
    a2 = hl_solve_alpha(CFG, 1.0, 2.0)
    assert a2 > a1


def test_hl_solve_alpha_axis_reduction():
    y = 1.5
    alpha = hl_solve_alpha(CFG, 0.0, y)
    expected = solve_branch(CFG.params, y * y).w - CFG.b
    assert alpha == pytest.approx(expected, rel=1e-12)


def test_hl_solve_alpha_requires_nonzero_y():
    with pytest.raises(YZeroError):
        hl_solve_alpha(CFG, 1.0, 0.0)


def test_hl_degenerate_region_reported():
    # head level -4 puts a P' <= 0 stretch inside the bracket
    cfg = HLConfig.from_head((-4.0,), 0.0)
    with pytest.raises(DegenerateRegionError) as exc:
        hl_solve_alpha(cfg, 0.5, 1.0)
    assert isinstance(exc.value.sign_changes, list)


@pytest.mark.parametrize(
    "residual",
    [
        lambda alpha: 1.0,  # no hi with r < 0
        lambda alpha: -1.0,  # no lo with r > 0
        lambda alpha: 0.3 - alpha + math.copysign(1e-3, 0.3 - alpha),  # jumps over 0
    ],
    ids=["hi-bracket", "lo-bracket", "polish"],
)
def test_hl_solve_alpha_budget_exhaustion_raises(monkeypatch, residual):
    monkeypatch.setattr(families, "hl_residual", lambda cfg, x, y, alpha: residual(alpha))
    with pytest.raises(NoConvergenceError):
        hl_solve_alpha(CFG, 1.0, 1.0)


def test_hl_triple_sign_laws():
    t = hl_triple(CFG, 1.0, 1.0)
    assert t.u < 0 and t.v > 0
    t2 = hl_triple(CFG, 1.0, -1.0)
    assert t2.u > 0 and t2.v > 0
    t3 = hl_triple(CFG, 0.0, 1.2)
    assert t3.v == 0.0


def test_hl_triple_invariants_random(rng):
    checked = 0
    while checked < 60:
        n = int(rng.integers(3, 6))
        head = rng.uniform(0.1, 2.5, n - 2)
        b = rng.uniform(-0.3, 0.8)
        x = rng.uniform(-1.5, 1.5)
        y = float(rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0]))
        cfg = HLConfig.from_head(tuple(head), b)
        try:
            t = hl_triple(cfg, x, y)
        except DegenerateRegionError:
            continue
        checked += 1
        scale = 1 + abs(t.w)
        assert abs(t.w - (x * x + t.u * t.u + b)) <= 1e-10 * scale
        assert abs(t.v * t.u + x * y) <= 1e-10 * (1 + abs(x * y))
        assert t.v * x - t.u * y > 0
        pw = eval_p(cfg.params, t.w)
        assert abs(pw - (t.v**2 + y**2)) <= 1e-9 * (1 + abs(pw))
        assert math.copysign(1.0, t.u) == -math.copysign(1.0, y)


def test_hl_bracket_monotone_at_probes(rng):
    for _ in range(10):
        x = rng.uniform(0.3, 1.5)
        y = rng.uniform(0.3, 1.5)
        alpha = hl_solve_alpha(CFG, x, y)
        probes = np.geomspace(alpha / 4, alpha * 4, 20)
        vals = [hl_residual(CFG, x, y, float(t)) for t in probes]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_hl_triples_satisfy_reduced_system(rng):
    # the subfamily really does solve u_x = v_y, v_x = -P'(w) u_y
    checked = 0
    while checked < 30:
        head = rng.uniform(0.2, 2.0, 2)
        b = rng.uniform(-0.2, 0.6)
        x = rng.uniform(-1.4, 1.4)
        y = float(rng.uniform(0.15, 1.4) * rng.choice([-1.0, 1.0]))
        cfg = HLConfig.from_head(tuple(head), b)
        try:
            dx, dy = hl_partials(cfg, x, y)
            t = hl_triple(cfg, x, y)
        except DegenerateRegionError:
            continue
        checked += 1
        pp = eval_p_prime(cfg.params, t.w)
        assert abs(dx[0] - dy[1]) <= 1e-9 * (1 + abs(dx[0]))
        assert abs(dx[1] + pp * dy[0]) <= 1e-9 * (1 + abs(dx[1]))


def test_hl_config_requires_trailing_zero():
    with pytest.raises(ValueError):
        HLConfig(params_from_levels((1.0, 0.5)), 0.0)


# --- classical 3-dimensional reduction ------------------------------------------------

def test_joyce_deviation_examples():
    assert joyce_check(1.0, np.linspace(0, 100, 200)).deviation <= 1e-10
    assert joyce_check(2.0, [0.0]).deviation <= 1e-12
    assert joyce_check(0.5, [0.0]).deviation <= 1e-12


def test_joyce_deviation_rejects_zero_a():
    with pytest.raises(ValueError):
        joyce_check(0.0, [1.0])


@given(st.floats(min_value=0.25, max_value=4.0), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_joyce_deviation_property(a, seed):
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0, 100, 20))
    assert joyce_check(a, s).deviation <= 1e-10
