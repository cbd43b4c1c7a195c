import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    hl_triples,
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
    # head level -4 at (0.5, 1.0): one root on the branch w >= w0 = 4
    cfg = HLConfig.from_head((-4.0,), 0.0)
    t = hl_triple(cfg, 0.5, 1.0)
    assert t.w >= cfg.params.w0 and t.alpha > 0.0
    assert abs(hl_residual(cfg, 0.5, 1.0, t.alpha)) <= 1e-12 * (1.0 + eval_p(cfg.params, t.w))
    # at x = 0 the branch root w(y^2) = 0.207 leaves alpha = w - b < 0 for b = 2
    cfg = HLConfig.from_head((1.0,), 2.0)
    with pytest.raises(DegenerateRegionError):
        hl_solve_alpha(cfg, 0.0, 0.5)


def test_hl_solve_alpha_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(families, "_MAX_NEWTON", 1)
    with pytest.raises(NoConvergenceError):
        hl_solve_alpha(CFG, 1.0, 1.0)


def test_hl_tiny_coordinates_are_ok():
    # levels (0, 0), b = 0: P' = 2w > 0, so x or y down to 1e-38 has one root on the branch
    cfg = HLConfig.from_head((0.0,), 0.0)
    tiny = 10.0 ** -np.arange(5, 39)
    for x, y in ((tiny, 0.5), (1.0, tiny)):
        cols = hl_triples(cfg, x, y)
        assert set(cols.status) == {"ok"}
        assert np.all(np.abs(hl_residual(cfg, x, y, cols.alpha)) <= 1e-12 * (1.0 + eval_p(cfg.params, cols.w)))


def test_hl_singular_levels_with_x2_plus_b_at_w0():
    # H = (alpha^5 - y^2) alpha - x^2 y^2: from alpha = x^2 Newton would need about 170 steps,
    # and P(x^2 + alpha + b) from the levels keeps alpha only to 1e-3
    cfg = HLConfig.from_head((0.0, 0.0, 0.0, 0.0), -0.25)
    t = hl_triple(cfg, 0.5, 1e-40)
    assert _on_branch(cfg, 0.5, 1e-40, t)
    assert t.alpha == pytest.approx(2.5e-81 ** (1 / 6), rel=1e-12, abs=0.0)


def test_hl_start_rounded_to_the_lower_bound():
    # the start rounds to alpha = w0 - x^2 - b = 0.25, where P = P' = 0 (min(a) twice), so
    # H' = -y^2 < 0 there: Newton stops instead of stepping to alpha = -x^2 y^2 / y^2
    cfg = HLConfig.from_head((-1.0, -1.0), 0.5)
    assert hl_triple(cfg, 0.5, 1e-30) == (-0.5, 1e-30, 1.0, 0.25, "ok")


def test_hl_overflow_runs_out_of_steps():
    # P(x^2 + alpha) = 1e400 overflows: a nan Newton step is never taken as the root
    with pytest.raises(NoConvergenceError):
        hl_triples(CFG, [0.5, 1e100], 1.0)


def test_hl_subnormal_x2y2_or_alpha_is_underflow():
    # x^2 y^2 = 1.35e-320 keeps 3 digits, and v = -xy/u would be off by 2e-7
    assert hl_triples(HLConfig.from_head((0.0,), 0.0), 0.5, 2.323610941400783e-160).status == "underflow"
    # x^2 y^2 = 1e-300 is normal, alpha = x^2 y^2 / P(1e5 + 1) = 5e-311 is not
    assert hl_triples(HLConfig.from_head((1e5,), 1e5), 1.0, 1e-150).status == "underflow"


def test_hl_newton_stops_in_the_rounding_of_h(monkeypatch):
    # P(x^2 + b) = y^2 to rounding: near the root P(w) - y^2 is rounding noise, and Newton
    # crept on for 90 steps before a step from within that noise was made the last
    monkeypatch.setattr(families, "_MAX_NEWTON", 60)
    cfg = HLConfig.from_head((-0.0010215704026071122, 0.0, 0.0), 0.04221230912492687)
    assert hl_triple(cfg, 1.4837169731916022e-15, 0.001760185565291536).status == "ok"


# The scalar root search that hl_triples replaced, kept as its reference.

def _reference_residual(cfg, x, y, alpha):
    if alpha <= 0.0:
        raise NonpositiveAlphaError(f"alpha must be > 0, got {alpha}")
    return y * y * (1.0 + x * x / alpha) - eval_p(cfg.params, x * x + alpha + cfg.b)


def _reference_hl_solve_alpha(cfg, x, y):
    if y == 0.0:
        raise YZeroError("the constraint solve requires y != 0")
    p = cfg.params

    if x == 0.0:
        # 1/alpha term drops: y^2 = P(alpha + b) on the distinguished branch
        w = solve_branch(p, y * y).w
        alpha = w - cfg.b
        if alpha <= 0.0:
            raise DegenerateRegionError(
                f"branch root w = {w} gives alpha = {alpha} <= 0 at x = 0"
            )
        if eval_p_prime(p, x * x + alpha + cfg.b) <= 0.0:
            raise DegenerateRegionError("P' <= 0 at the x = 0 reduction root")
        return alpha

    hi = 1.0
    for _ in range(600):
        r = _reference_residual(cfg, x, y, hi)
        if r < 0.0:
            break
        hi *= 2.0
    else:
        raise NoConvergenceError(600, r)
    lo = min(1.0, y * y * x * x / (1.0 + abs(eval_p(p, x * x + 1.0 + cfg.b))))
    for _ in range(600):
        r = _reference_residual(cfg, x, y, lo)
        if r > 0.0:
            break
        lo *= 0.5
    else:
        raise NoConvergenceError(600, r)

    # uniqueness certificate: P' > 0 and strict decrease at 20 probes
    probes = np.geomspace(lo, hi, 20)
    slopes_ok = all(eval_p_prime(p, x * x + float(t) + cfg.b) > 0.0 for t in probes)
    vals = [_reference_residual(cfg, x, y, float(t)) for t in probes]
    decreasing = all(vals[k] > vals[k + 1] for k in range(len(vals) - 1))
    if not (slopes_ok and decreasing):
        raise DegenerateRegionError("P' <= 0 inside the bracket; root may not be unique")

    alpha = 0.5 * (lo + hi)
    for _ in range(200):
        r = _reference_residual(cfg, x, y, alpha)
        if r > 0.0:
            lo = alpha
        elif r < 0.0:
            hi = alpha
        if abs(r) <= 1e-10 * (1.0 + y * y + abs(eval_p(p, x * x + alpha + cfg.b))):
            # a few extra Newton polishes push |r| to the rounding floor
            for _ in range(3):
                slope = -y * y * x * x / alpha**2 - eval_p_prime(p, x * x + alpha + cfg.b)
                step = _reference_residual(cfg, x, y, alpha) / slope
                cand = alpha - step
                if lo < cand < hi:
                    alpha = cand
            return alpha
        slope = -y * y * x * x / alpha**2 - eval_p_prime(p, x * x + alpha + cfg.b)
        cand = alpha - r / slope if slope < 0.0 else lo
        alpha = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise NoConvergenceError(200, r)


def _reference_row(cfg, x, y):
    """(u, v, w, alpha, status) as the scalar search gave them."""
    try:
        alpha = _reference_hl_solve_alpha(cfg, x, y)
    except YZeroError:
        return 0.0, 0.0, 0.0, 0.0, "skipped_y0"
    except DegenerateRegionError:
        return 0.0, 0.0, 0.0, 0.0, "degenerate"
    u = -math.copysign(math.sqrt(alpha), y)
    v = -x * y / u
    return u, v, x * x + u * u + cfg.b, alpha, "ok"


def _on_branch(cfg, x, y, row):
    """Whether an hl_triples row is ok, on the branch, with a root of the constraint equation."""
    u, v, w, alpha, status = row
    scale = 1.0 + y * y + eval_p(cfg.params, w)
    return (status == "ok" and w >= cfg.params.w0 and alpha > 0.0
            and abs(hl_residual(cfg, x, y, alpha)) <= 1e-12 * scale)


def test_hl_triples_equal_the_scalar_search(rng):
    # Head level -4 puts nodes the scalar search called degenerate, or solved off the branch
    # w >= w0, on the grids, which hold x = 0 and y = 0.  Where that search found the branch
    # root, hl_triples agrees with it to rounding; elsewhere it finds the branch root.
    # At x = 0 both invert the branch, with branch_w_array and solve_branch: bit for bit.
    ULPS, W_EPS = 64, 8
    counts = {"same root": 0, "skipped_y0": 0, "degenerate": 0, "now on the branch": 0, "ok at x = 0": 0}
    worst = np.zeros(4)
    eps = np.finfo(float).eps
    for trial in range(24):
        n = int(rng.integers(3, 6))
        head = rng.uniform(0.1, 2.5, n - 2)
        if trial % 3 == 0:
            head[0] = -4.0
        cfg = HLConfig.from_head(tuple(head), float(rng.uniform(-0.3, 0.8)))
        xs = np.concatenate([np.linspace(-1.5, 1.5, 7), rng.uniform(-1.5, 1.5, 3)])
        ys = np.concatenate([np.linspace(-1.5, 1.5, 5), rng.uniform(-1.5, 1.5, 3)])
        x, y = np.meshgrid(xs, ys, indexing="ij")
        cols = hl_triples(cfg, x, y)
        for i, j in np.ndindex(x.shape):
            xi, yi = float(x[i, j]), float(y[i, j])
            *want, status = _reference_row(cfg, xi, yi)
            got = [float(c[i, j]) for c in cols[:4]]
            if xi == 0.0 or status == "skipped_y0":
                assert cols.status[i, j] == status, (cfg, xi, yi)
                assert got == want, (cfg, xi, yi)
                counts["ok at x = 0" if status == "ok" else status] += 1
            elif status == "ok" and want[2] >= cfg.params.w0:
                assert cols.status[i, j] == "ok", (cfg, xi, yi)
                u, v, w, alpha = want
                worst = np.maximum(worst, [abs(got[0] - u) / np.spacing(abs(u)),
                                           abs(got[1] - v) / np.spacing(abs(v)),
                                           abs(got[3] - alpha) / np.spacing(alpha),
                                           abs(got[2] - w) / (eps * (xi * xi + alpha + abs(cfg.b)))])
                counts["same root"] += 1
            else:  # degenerate, or ok off the branch, in the scalar search
                assert _on_branch(cfg, xi, yi, [c[i, j] for c in cols]), (cfg, xi, yi, status)
                counts["now on the branch"] += 1
    assert min(counts.values()) >= 40, counts
    assert np.all(worst <= [ULPS, ULPS, ULPS, W_EPS]), worst


def test_hl_triples_broadcast_and_point_wrappers():
    cols = hl_triples(CFG, [[0.5], [1.0]], [0.7, 0.0, -1.2])
    assert all(c.shape == (2, 3) for c in cols)
    assert cols.status.tolist() == [["ok", "skipped_y0", "ok"]] * 2
    t = hl_triple(CFG, 1.0, -1.2)
    assert t == (cols.u[1, 2], cols.v[1, 2], cols.w[1, 2], cols.alpha[1, 2], "ok")
    assert hl_solve_alpha(CFG, 1.0, -1.2) == t.alpha


def test_hl_residual_is_elementwise():
    alpha = np.array([0.2, 1.0])
    expected = [hl_residual(CFG, 1.0, 1.0, float(a)) for a in alpha]
    assert hl_residual(CFG, 1.0, 1.0, alpha).tolist() == expected
    with pytest.raises(NonpositiveAlphaError):
        hl_residual(CFG, 1.0, 1.0, np.array([0.5, 0.0]))


@st.composite
def _hl_grids(draw):
    """A level head, b and a node grid as `slfold example hl` takes them."""
    n = draw(st.integers(3, 5))
    head = draw(st.lists(st.floats(-5.0, 5.0), min_size=n - 2, max_size=n - 2))
    b = draw(st.floats(-1.0, 1.0))
    x0, y0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    wx, wy = draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0))
    nx, ny = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    symmetric = draw(st.booleans())  # odd counts on [-c, c] put nodes at x = 0 and y = 0
    if symmetric:
        x0, y0, nx, ny = -wx / 2, -wy / 2, 2 * (nx // 2) + 1, 2 * (ny // 2) + 1
    dom = GridDomain(x0, x0 + wx, y0, y0 + wy, nx, ny)
    return HLConfig.from_head(tuple(head), b), dom


@given(_hl_grids())
@settings(max_examples=100, deadline=None)
def test_hl_triples_rows_meet_the_constraints(case):
    cfg, dom = case
    x, y = np.meshgrid(dom.xs(), dom.ys(), indexing="ij")
    u, v, w, alpha, status = hl_triples(cfg, x, y)
    assert set(status.ravel()) <= {"ok", "skipped_y0", "degenerate", "underflow"}
    assert np.array_equal(status == "skipped_y0", y == 0.0)
    assert np.all(np.abs(x * y)[status == "underflow"] < 1e-150)
    ok = status == "ok"
    assert np.all(np.stack([u, v, w, alpha])[:, ~ok] == 0.0)
    x, y, u, v, w, alpha = (c[ok] for c in (x, y, u, v, w, alpha))
    pw = eval_p(cfg.params, w)
    assert np.all(alpha > 0.0) and np.all(np.isfinite(np.stack([u, v, w])))
    assert np.all(np.abs(w - (x * x + u * u + cfg.b)) <= 1e-10 * (1 + np.abs(w)))
    assert np.all(np.abs(v * u + x * y) <= 1e-10 * (1 + np.abs(x * y)))
    assert np.all(np.abs(pw - (v * v + y * y)) <= 1e-9 * (1 + y * y + np.abs(pw)))
    assert np.all(v * x / np.abs(y) - u * np.sign(y) > 0.0)  # v x - u y > 0, without its underflow


@st.composite
def _negative_head_nodes(draw):
    """Levels as `slfold example hl` takes them, heads down to -4, and up to 16 base points."""
    n = draw(st.integers(3, 6))
    head = draw(st.lists(st.floats(-4.0, 2.5), min_size=n - 2, max_size=n - 2))
    b = draw(st.floats(-0.3, 0.8))
    nodes = draw(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=1, max_size=16))
    return HLConfig.from_head(tuple(head), b), np.array(nodes)


@given(_negative_head_nodes())
@example((HLConfig.from_head((-0.7703, -2.3912, -3.9233), -0.088), np.array([[-0.75, -1.125], [0.375, 1.5]])))
@settings(max_examples=100, deadline=None)
def test_hl_rows_lie_on_the_branch(case):
    cfg, (x, y) = case[0], case[1].T
    p = cfg.params
    u, v, w, alpha, status = hl_triples(cfg, x, y)
    ok = status == "ok"
    # besides ok: y = 0, x = 0 with w(y^2) - b <= 0, and x^2 y^2 or alpha below the normal range
    assert np.array_equal(status == "skipped_y0", y == 0.0)
    assert np.all(x[status == "degenerate"] == 0.0)
    assert np.all((x * y)[status == "underflow"] ** 2 < 1e5 * np.finfo(float).tiny)
    for xi, yi, ui, vi, wi, ai in zip(*(c[ok] for c in (x, y, u, v, w, alpha))):
        assert wi >= p.w0 and min(wi + aj for aj in p.a) >= 0.0
        assert abs(lift_point(p, xi, yi, ui, vi).w - wi) <= 1e-12 * (xi * xi + ai + abs(cfg.b))


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
