import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slfold.branch import params_from_levels, solve_branch
from slfold.embedding import (
    EmbeddedSample,
    lift_point,
    moment_residual,
    product_residual,
    sample_fields,
    total_phase,
    unit_power_i,
)
from slfold.errors import SingularPointError
from slfold.grid import GridDomain, ScalarField2D

from conftest import constant_field, random_params


def test_unit_power_table():
    for k in range(-8, 9):
        assert unit_power_i(k) == (1j) ** (k % 4)


def test_total_phase_examples():
    assert total_phase(params_from_levels((1.0, -1.0)), 1.0, 0.0) == 0.0
    assert total_phase(params_from_levels((1.0, -1.0)), 0.0, 1.0) == pytest.approx(math.pi / 2)
    p5 = params_from_levels((1.0, 2.0, 3.0, 4.0))
    assert total_phase(p5, 1.0, 0.0) == pytest.approx(math.pi)


def test_total_phase_singular():
    with pytest.raises(SingularPointError):
        total_phase(params_from_levels((1.0, -1.0)), 0.0, 0.0)


def test_lift_point_simple():
    p = params_from_levels((0.0, 0.0))
    s = lift_point(p, 0.0, 0.0, 0.0, 1.0, (0.0,))
    assert np.allclose(s.z, [1.0, 1.0, 0.0])
    assert s.w == pytest.approx(1.0, rel=1e-12)
    assert np.prod(s.z[:2]) == pytest.approx(1.0)


def test_lift_point_zero_radius_nonsingular():
    # s = 0 with multiplicity-one minimum: no error, one radius vanishes
    p = params_from_levels((1.0, -1.0))
    s = lift_point(p, 2.0, 0.0, 5.0, 0.0)
    assert s.w == pytest.approx(1.0, abs=1e-12)
    assert abs(s.z[0]) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert s.z[1] == 0.0
    assert s.z[2] == 2.0 + 5.0j


def test_lift_point_singular_orbit_collapse():
    p = params_from_levels((0.0, 0.0))
    with pytest.raises(SingularPointError):
        lift_point(p, 1.0, 0.0, 1.0, 0.0, (0.0,))


def test_lift_point_radii_example_n4():
    p = params_from_levels((1.0, 2.0, 3.0))
    s = lift_point(p, 0.3, 0.0, -0.2, math.sqrt(6.0), (0.0, 0.0))
    assert s.w == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.abs(s.z[:3]), [1.0, math.sqrt(2), math.sqrt(3)], atol=1e-10)


def test_lift_point_wrong_angle_count():
    p = params_from_levels((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        lift_point(p, 0.0, 1.0, 0.0, 1.0, (0.0,))


def test_moment_residual_hand_built_samples():
    p = params_from_levels((3.0, 0.0))
    s = EmbeddedSample(
        z=np.array([2.0, 1.0, 0.5 + 0.5j]), x=0.5, y=0.0, u=0.5, v=2.0,
        w=1.0, theta_total=0.0, torus_angles=(0.0,),
    )
    assert moment_residual(p, s)[0] == pytest.approx(0.0, abs=0)

    p2 = params_from_levels((1.0, 0.0))
    bad = EmbeddedSample(
        z=np.array([1.0, 1.0, 0.0 + 0j]), x=0.0, y=0.0, u=0.0, v=1.0,
        w=0.0, theta_total=0.0, torus_angles=(0.0,),
    )
    assert moment_residual(p2, bad)[0] == pytest.approx(-1.0, abs=0)


@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_lift_invariants_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, n=n)
    x, y, u, v = rng.uniform(-2, 2, 4)
    assume(v * v + y * y > 1e-4)
    angles = tuple(rng.uniform(-3, 3, n - 2))
    s = lift_point(params, x, y, u, v, angles)

    scale = 1 + abs(v) + abs(y)
    # defining relations
    assert product_residual(params, s) <= 1e-10 * scale
    assert s.z[n - 1] == complex(x, u)
    assert np.max(np.abs(moment_residual(params, s))) <= 1e-10 * (1 + abs(s.w))
    # radii recover w, and agree across slots
    wjs = np.abs(s.z[: n - 1]) ** 2 - np.array(params.a)
    assert np.max(np.abs(wjs - s.w)) <= 1e-10 * (1 + abs(s.w))
    assert np.max(np.abs(wjs - solve_branch(params, v * v + y * y).w)) <= 1e-10 * (1 + abs(s.w))


@given(
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_torus_action_invariance(n, seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, n=n)
    x, y, u, v = rng.uniform(-2, 2, 4)
    assume(v * v + y * y > 1e-4)
    base_angles = rng.uniform(-3, 3, n - 2)
    shift = rng.uniform(-3, 3, n - 2)
    s0 = lift_point(params, x, y, u, v, tuple(base_angles))
    s1 = lift_point(params, x, y, u, v, tuple(base_angles + shift))
    prod0 = unit_power_i(n - 3) * np.prod(s0.z[: n - 1])
    prod1 = unit_power_i(n - 3) * np.prod(s1.z[: n - 1])
    scale = 1 + abs(prod0)
    assert abs(prod0 - prod1) <= 1e-12 * scale
    assert np.max(np.abs(moment_residual(params, s0) - moment_residual(params, s1))) <= 1e-12


def _rows(cloud, torus_resolution):
    """The cloud's rows as EmbeddedSample; angles rebuilt from the documented lattice order."""
    n = cloud.z.shape[1]
    step = 2.0 * np.pi / torus_resolution
    lattice = [tuple(step * m for m in idx)
               for idx in itertools.product(range(torus_resolution), repeat=n - 2)]
    return [
        EmbeddedSample(z=z, x=x, y=y, u=u, v=v, w=w, theta_total=theta,
                       torus_angles=lattice[k % len(lattice)])
        for k, ((x, y, u, v, w, theta), z) in enumerate(zip(cloud.base.tolist(), cloud.z))
    ]


def _affine_solution_fields(dom, alpha, beta, gamma):
    u = ScalarField2D.from_function(dom, lambda x, y: alpha * x + beta + 0 * y)
    v = ScalarField2D.from_function(dom, lambda x, y: alpha * y + gamma + 0 * x)
    return u, v


def test_sample_fields_counts():
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 3, 3)
    params = params_from_levels((1.0, -1.0))
    u, v = _affine_solution_fields(dom, 1.0, 0.0, 0.5)
    out = sample_fields(params, u, v, 4)
    assert out.base.shape == (9 * 4, 6) and out.z.shape == (9 * 4, 3)
    assert out.skipped_nodes == []

    out1 = sample_fields(params, u, v, 1)
    assert len(out1.z) == 9
    # n = 3: the one torus angle is the phase of z_1, whose radius is positive here
    assert np.all(np.angle(out1.z[:, 0]) == 0.0)


def test_sample_fields_skips_singular_nodes():
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 3, 3)
    params = params_from_levels((0.0, 0.0))  # degenerate minimum
    # v vanishes on the whole grid; the y = 0 row collapses
    u = constant_field(dom, 0.3)
    v = constant_field(dom, 0.0)
    out = sample_fields(params, u, v, 2)
    assert out.skipped_nodes == [(0, 1), (1, 1), (2, 1)]
    assert len(out.base) == len(out.z) == (9 - 3) * 2


def test_sample_fields_ordering_node_major():
    dom = GridDomain(0.0, 1.0, 0.0, 1.0, 3, 3)
    params = params_from_levels((1.0, -1.0))
    u, v = _affine_solution_fields(dom, 0.0, 0.0, 1.0)
    out = sample_fields(params, u, v, 2)
    xs = out.base[:, 0].tolist()
    assert xs == sorted(xs)
    assert np.angle(out.z[0, 0]) == 0.0
    assert np.angle(out.z[1, 0]) == pytest.approx(math.pi)


def test_sample_surface_from_solution():
    from slfold.branch import params_from_levels
    from slfold.grid import BoundaryData
    from slfold.pde import solve_dirichlet

    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 5, 5)
    params = params_from_levels((1.0, -1.0))
    phi = BoundaryData.from_function(dom, lambda x, y: 0.5 * x * y + x)
    sol = solve_dirichlet(params, dom, phi)
    out = sample_fields(params, sol.u, sol.v, 3)
    samples = _rows(out, 3)
    assert len(samples) == 25 * 3
    for s in samples[:6]:
        assert np.max(np.abs(moment_residual(params, s))) <= 1e-10


def test_sample_fields_within_an_ulp_of_lift_point_at_spread_levels():
    # At widely spread levels too, sample_fields and lift_point run the same
    # branch kernel, so w and Theta agree bit for bit.
    rng = np.random.default_rng(8)
    params = params_from_levels((1e4, 3.0, -1.0))
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 17, 17)
    u = ScalarField2D(dom, rng.uniform(-2, 2, (17, 17)))
    v = ScalarField2D(dom, rng.uniform(-30, 30, (17, 17)))
    out = sample_fields(params, u, v, 1)
    assert out.skipped_nodes == [] and len(out.base) == 289
    for (x, y, uu, vv, w, theta) in out.base.tolist():
        ref = lift_point(params, x, y, uu, vv)
        assert (w, theta) == (ref.w, ref.theta_total)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sample_fields_equals_lift_point_exactly(n):
    rng = np.random.default_rng(n)
    params = random_params(rng, n=n)
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 3, 3)
    uvals = rng.uniform(-2, 2, (3, 3))
    uvals[2, 0] = -0.0  # the sign of a zero u must reach Im z_n
    u = ScalarField2D(dom, uvals)
    vals = rng.uniform(-2, 2, (3, 3))
    vals[1, 1] = 0.0  # ys[1] = 0: a nonsingular node with v = y = 0
    v = ScalarField2D(dom, vals)
    out = sample_fields(params, u, v, 2)
    samples = _rows(out, 2)
    assert out.skipped_nodes == [] and len(samples) == 9 * 2 ** (n - 2)
    xs, ys = dom.xs(), dom.ys()
    for k, s in enumerate(samples):
        i, j = divmod(k // 2 ** (n - 2), 3)
        ref = lift_point(params, float(xs[i]), float(ys[j]), float(u.values[i, j]),
                         float(v.values[i, j]), s.torus_angles)
        assert s.z.tobytes() == ref.z.tobytes()
        assert (s.w, s.theta_total, s.base) == (ref.w, ref.theta_total, ref.base)
