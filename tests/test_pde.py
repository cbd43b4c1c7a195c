import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slfold.branch import params_from_levels
from slfold.errors import (
    DegeneracyEncounteredError,
    DomainMismatchError,
    NoConvergenceError,
    SingularParametersError,
)
from slfold.grid import BoundaryData, GridDomain, ScalarField2D, boundary_indices
from slfold.pde import (
    SolverConfig,
    _hat,
    _levels,
    _pcr_factor,
    _pcr_solve,
    _vcycle,
    central_differences,
    ellipticity_field,
    recover_uv,
    residual_first_order,
    residual_potential,
    solve_dirichlet,
    transfinite_interpolant,
)

from conftest import constant_field, random_params

P3 = params_from_levels((1.0, -1.0))
DOM = GridDomain(-1.0, 1.0, -1.0, 1.0, 17, 17)


def field(fn, dom=DOM):
    return ScalarField2D.from_function(dom, fn)


# --- boundary traversal -------------------------------------------------------

def test_boundary_traversal_structure():
    ii, jj = boundary_indices(5, 4)
    assert ii.tolist() == [0, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 0, 0, 0]
    assert jj.tolist() == [0, 0, 0, 0, 0, 1, 2, 3, 3, 3, 3, 3, 2, 1]
    assert ii.dtype == jj.dtype == np.dtype(int)
    assert len(ii) == 2 * (5 + 4) - 4
    assert (ii[0], jj[0]) == (0, 0)
    # closed: last node is adjacent to the first, not equal to it
    assert (ii[-1], jj[-1]) == (0, 1)
    pairs = list(zip(ii.tolist(), jj.tolist()))
    assert len(set(pairs)) == len(pairs)


def test_boundary_roundtrip():
    phi = BoundaryData.from_function(DOM, lambda x, y: x + 2 * y)
    arr = np.zeros((DOM.nx, DOM.ny))
    phi.apply_to(arr)
    assert np.array_equal(phi.extract_from(arr), phi.values)


# --- residuals ----------------------------------------------------------------

def test_central_differences_are_the_interior_of_np_gradient(rng):
    dom = GridDomain(-1.0, 2.0, 0.5, 1.3, 11, 7)  # hx != hy
    values = rng.normal(size=(dom.nx, dom.ny))
    d_x, d_y = central_differences(values, dom.hx, dom.hy)
    g_x, g_y = np.gradient(values, dom.hx, dom.hy)
    # bit for bit: verify_fields took its partials from np.gradient before
    assert d_x.tobytes() == g_x[1:-1, 1:-1].tobytes()
    assert d_y.tobytes() == g_y[1:-1, 1:-1].tobytes()


def test_first_order_residual_affine_is_zero(rng):
    for _ in range(10):
        al, be, ga = rng.uniform(-2, 2, 3)
        params = random_params(rng)
        u = field(lambda x, y: al * x + be + 0 * y)
        v = field(lambda x, y: al * y + ga + 0 * x)
        r1, r2 = residual_first_order(params, u, v)
        assert np.max(np.abs(r1.values)) <= 1e-12
        assert np.max(np.abs(r2.values)) <= 1e-12


def test_first_order_residual_zero_fields():
    u = constant_field(DOM, 0.0)
    v = constant_field(DOM, 0.0)
    r1, r2 = residual_first_order(P3, u, v)
    assert np.max(np.abs(r1.values)) == 0.0
    assert np.max(np.abs(r2.values)) == 0.0


def test_first_order_residual_swap_pair():
    # u = y, v = x: r1 = 0 and r2 = D_x v + P'(w) D_y u = 1 + 2 sqrt(x^2+y^2+1)
    u = field(lambda x, y: y + 0 * x)
    v = field(lambda x, y: x + 0 * y)
    r1, r2 = residual_first_order(P3, u, v)
    assert np.max(np.abs(r1.values)) <= 1e-13
    xg, yg = np.meshgrid(DOM.xs(), DOM.ys(), indexing="ij")
    expected = 1.0 + 2.0 * np.sqrt(xg**2 + yg**2 + 1.0)
    inner = np.s_[1:-1, 1:-1]
    assert np.allclose(r2.values[inner], expected[inner], atol=1e-10)


def test_first_order_residual_domain_mismatch():
    other = GridDomain(-1.0, 1.0, -1.0, 1.0, 9, 9)
    with pytest.raises(DomainMismatchError):
        residual_first_order(P3, constant_field(DOM, 0.0), constant_field(other, 0.0))


def test_potential_residual_examples():
    assert np.max(np.abs(residual_potential(P3, field(lambda x, y: 1.3 * x * y + 0.2 * x -.7 * y)).values)) <= 1e-12
    assert np.max(np.abs(residual_potential(P3, constant_field(DOM, 4.2)).values)) == 0.0
    r = residual_potential(P3, field(lambda x, y: x**2 + 0 * y))
    assert np.allclose(r.values[1:-1, 1:-1], 2.0, atol=1e-11)
    assert np.all(r.values[0, :] == 0) and np.all(r.values[:, 0] == 0)


def test_recover_uv_exactness():
    al, be, ga = 0.8, -1.1, 0.4
    u, v = recover_uv(field(lambda x, y: al * x * y + ga * x + be * y))
    xg, yg = np.meshgrid(DOM.xs(), DOM.ys(), indexing="ij")
    assert np.allclose(u.values, al * xg + be, atol=1e-13)
    assert np.allclose(v.values, al * yg + ga, atol=1e-13)

    u0, v0 = recover_uv(constant_field(DOM, 3.0))
    assert np.max(np.abs(u0.values)) == 0.0 and np.max(np.abs(v0.values)) == 0.0

    uq, vq = recover_uv(field(lambda x, y: x**2 + 0 * y))
    assert np.allclose(vq.values, 2 * xg, atol=1e-12)
    assert np.max(np.abs(uq.values)) <= 1e-13


@given(
    arrays(
        np.float64,
        (9, 9),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
@settings(max_examples=30, deadline=None)
def test_mixed_partial_identity(vals):
    # r1 of (u, v) = recover_uv(f) cancels identically for any f
    dom = GridDomain(0.0, 2.0, -1.0, 1.5, 9, 9)
    f = ScalarField2D(dom, vals)
    u, v = recover_uv(f)
    r1, _ = residual_first_order(params_from_levels((0.5, -0.5)), u, v)
    assert np.max(np.abs(r1.values)) <= 1e-10 * (1 + np.max(np.abs(vals)))


def test_ellipticity_field_joyce_form():
    a = 1.3
    params = params_from_levels((a, -a))
    f = field(lambda x, y: 0.3 * x * y + x - 0.1 * y)
    coef = ellipticity_field(params, f)
    fx = (f.values[2:, 1:-1] - f.values[:-2, 1:-1]) / (2 * DOM.hx)
    s = fx**2 + DOM.ys()[None, 1:-1] ** 2
    assert np.allclose(coef, 2 * np.sqrt(s + a * a), atol=1e-10)


# --- Dirichlet solver -----------------------------------------------------------

def test_dirichlet_bilinear_oracle():
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 33, 33)
    fstar = lambda x, y: 2 * x * y + x - y
    phi = BoundaryData.from_function(dom, fstar)
    sol = solve_dirichlet(P3, dom, phi)
    exact = ScalarField2D.from_function(dom, fstar)
    assert np.max(np.abs(sol.f.values - exact.values)) <= 1e-9
    assert sol.final_residual <= 1e-10
    assert sol.ellipticity_margin > 0


def test_dirichlet_constant_boundary():
    phi = BoundaryData.from_function(DOM, lambda x, y: 0 * x + 2.5)
    sol = solve_dirichlet(P3, DOM, phi)
    assert np.max(np.abs(sol.f.values - 2.5)) <= 1e-10


def test_dirichlet_boundary_fidelity_bitwise():
    phi = BoundaryData.from_function(DOM, lambda x, y: np.sin(3 * x) + y**3)
    sol = solve_dirichlet(P3, DOM, phi)
    assert np.array_equal(phi.extract_from(sol.f.values), phi.values)


def test_dirichlet_non_solution_boundary_converges():
    phi = BoundaryData.from_function(DOM, lambda x, y: x**2 + 0 * y)
    cfg = SolverConfig()
    sol = solve_dirichlet(P3, DOM, phi, cfg)
    assert sol.final_residual <= cfg.tolerance
    # independent residual recheck on the returned field
    r = residual_potential(P3, sol.f)
    assert np.max(np.abs(r.values)) <= cfg.tolerance * 1.0001
    # maximum-principle surrogate
    lo, hi = phi.values.min(), phi.values.max()
    assert sol.f.values.min() >= lo - 10 * cfg.tolerance
    assert sol.f.values.max() <= hi + 10 * cfg.tolerance
    # and the fields really differ from the boundary generator inside
    exact = ScalarField2D.from_function(DOM, lambda x, y: x**2 + 0 * y)
    assert np.max(np.abs(sol.f.values - exact.values)) > 1e-3


def test_dirichlet_uv_consistency():
    phi = BoundaryData.from_function(DOM, lambda x, y: x**2 + 0 * y)
    sol = solve_dirichlet(P3, DOM, phi)
    u, v = recover_uv(sol.f)
    assert np.array_equal(u.values, sol.u.values)
    assert np.array_equal(v.values, sol.v.values)


def test_dirichlet_rejects_singular_params():
    singular = params_from_levels((1.0, 1.0, 2.0))
    phi = BoundaryData.from_function(DOM, lambda x, y: x + y)
    with pytest.raises(SingularParametersError):
        solve_dirichlet(singular, DOM, phi)


def test_dirichlet_no_convergence_carries_state():
    phi = BoundaryData.from_function(DOM, lambda x, y: np.cos(2 * x) * y)
    cfg = SolverConfig(tolerance=1e-13, max_iterations=3)
    with pytest.raises(NoConvergenceError) as exc:
        solve_dirichlet(P3, DOM, phi, cfg)
    assert exc.value.iterations == 3
    assert exc.value.residual > 0


def test_dirichlet_ellipticity_floor_triggers():
    phi = BoundaryData.from_function(DOM, lambda x, y: x + y)
    cfg = SolverConfig(ellipticity_floor=1e6)
    with pytest.raises(DegeneracyEncounteredError):
        solve_dirichlet(P3, DOM, phi, cfg)


def test_dirichlet_deterministic():
    phi = BoundaryData.from_function(DOM, lambda x, y: x**2 - 0.3 * y)
    a = solve_dirichlet(P3, DOM, phi)
    b = solve_dirichlet(P3, DOM, phi)
    assert np.array_equal(a.f.values, b.f.values)
    assert a.iterations == b.iterations


# --- singular levels away from y = 0 ---------------------------------------------

# Joyce's singular n = 3 case a = (0, 0): F(s) = 2 sqrt(s), so F >= 2 y0 = 0.4 here
SINGULAR = params_from_levels((0.0, 0.0))
SADDLE = lambda x, y: x**2 - y**2 / 2 + 0.3 * x * y


def solve_upper(params, nodes):
    dom = GridDomain(-1.0, 1.0, 0.2, 1.4, nodes, nodes)
    return solve_dirichlet(params, dom, BoundaryData.from_function(dom, SADDLE))


def test_singular_levels_solve_off_y_zero_at_second_order():
    sols = [solve_upper(SINGULAR, nodes) for nodes in (17, 33, 65)]
    for sol in sols:
        assert sol.ellipticity_bound == 0.4 and sol.ellipticity_margin >= 0.4
    f17, f33, f65 = (sol.f.values for sol in sols)
    ratio = np.abs(f17 - f33[::2, ::2]).max() / np.abs(f33 - f65[::2, ::2]).max()
    assert 3.5 <= ratio <= 4.5


def test_nearby_nonsingular_solves_differ_at_order_eps_squared():
    # F(s) = 2 sqrt(s + eps^2) for a = (eps, -eps): the solves approach the eps = 0 one
    f0 = solve_upper(SINGULAR, 17).f.values
    gaps = [np.abs(solve_upper(params_from_levels((eps, -eps)), 17).f.values - f0).max() / eps**2
            for eps in (1e-1, 1e-2, 1e-3)]
    assert max(gaps) < 1.1 * min(gaps)


@st.composite
def _cli_shaped_problem(draw):
    """n = 3...5 with min(a) attained k times, a domain above y = 0 and trig plus quadratic data."""
    n = draw(st.integers(3, 5))
    k = draw(st.integers(1, n - 1))
    low = draw(st.floats(-2.0, 2.0))
    others = draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1 - k, max_size=n - 1 - k))
    params = params_from_levels(draw(st.permutations([low] * k + [low + d for d in others])))
    y0 = draw(st.floats(0.1, 1.0))
    dom = GridDomain(-1.0, 1.0, y0, y0 + draw(st.floats(0.5, 2.0)), 17, 17)
    c = draw(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
    fn = lambda x, y: c[0] * np.sin(c[1] * x + c[2] * y) + c[3] * x * y + c[4] * x**2 + c[5] * y
    return params, dom, BoundaryData.from_function(dom, fn)


@given(_cli_shaped_problem())
@settings(max_examples=25, deadline=None)
def test_solver_obeys_the_maximum_principle_and_the_a_priori_bound(problem):
    params, dom, phi = problem
    try:
        sol = solve_dirichlet(params, dom, phi)
    except NoConvergenceError:
        return  # spread levels can stall the Picard loop above the tolerance
    # f + r (x - xc)^2 / 2 is discretely subharmonic for |residual| <= r
    slack = sol.final_residual * ((dom.x1 - dom.x0) / 2) ** 2 / 2
    assert phi.values.min() - slack <= sol.f.values.min()
    assert sol.f.values.max() <= phi.values.max() + slack
    eps = np.finfo(float).eps
    assert sol.ellipticity_margin >= sol.ellipticity_bound * (1 - 2 * (params.n - 1) * eps)


DOM33 = GridDomain(-1.0, 1.0, -1.0, 1.0, 33, 33)
EXP_Y = lambda x, y: np.exp(2 * x) * y
SIN_CUBE = lambda x, y: np.sin(3 * x) + y**3
FIVE_X2 = lambda x, y: 5 * x**2 + 0 * y


@pytest.mark.parametrize(
    "levels, fn",
    [
        ((1.0, -1.0), EXP_Y),
        ((1.0, -1.0), SIN_CUBE),
        ((1.0, 0.25, -1.0), EXP_Y),
        ((1.0, 0.25, -1.0), SIN_CUBE),
        ((0.1, 0.0), EXP_Y),
        ((0.1, 0.0), SIN_CUBE),
        ((1.0, -1.0), FIVE_X2),
        ((0.1, 0.0), FIVE_X2),
    ],
)
def test_dirichlet_converges_across_levels(levels, fn):
    # (0.1, 0) with exp(2x) y stalls near 1e-8 without the step backtracking
    params = params_from_levels(levels)
    sol = solve_dirichlet(params, DOM33, BoundaryData.from_function(DOM33, fn))
    assert sol.final_residual <= 1e-10
    assert np.max(np.abs(residual_potential(params, sol.f).values)) == sol.final_residual


def test_dirichlet_stall_fails_fast():
    # widely spread levels: the residual stalls above 1e-10 at 65^2
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 65, 65)
    phi = BoundaryData.from_function(dom, lambda x, y: x**2 + 0 * y)
    with pytest.raises(NoConvergenceError) as exc:
        solve_dirichlet(params_from_levels((1e3, 2.0, 0.5, -1.0)), dom, phi)
    assert exc.value.iterations <= 50


@pytest.mark.parametrize("nx, ny", [(50, 38), (257, 257)])
def test_dirichlet_converges_on_uncoarsenable_and_large_grids(nx, ny):
    # 50x38 has even interior sides, which coarsen onto non-nested grids
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, nx, ny)
    phi = BoundaryData.from_function(dom, lambda x, y: x**2 + 0 * y)
    sol = solve_dirichlet(P3, dom, phi)
    assert sol.final_residual <= 1e-10
    assert sol.iterations <= 20


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
def test_vcycle_contracts_anisotropic_error(scale):
    # both line directions are needed: c << 1 couples along x, c >> 1 along y
    rng = np.random.default_rng(7)
    hierarchies = {
        (31, 31): [(31, 31), (15, 15), (7, 7), (3, 3), (1, 1)],
        (30, 22): [(30, 22), (14, 10), (6, 4), (2, 1)],
    }
    for shape, shapes in hierarchies.items():
        coef = scale * rng.uniform(0.5, 2.0, shape)
        levels = _levels(coef, 2 / (shape[0] + 1), 2 / (shape[1] + 1))
        assert [lv.cy.shape for lv in levels] == shapes
        # the dense 5-point operator, one column per unit vector
        units = np.eye(coef.size).reshape(coef.size, *shape)
        dense = np.stack([levels[0].apply(np.pad(u, 1)).ravel() for u in units], axis=1)
        b = rng.standard_normal(shape)
        exact = np.linalg.solve(dense, b.ravel()).reshape(shape)
        err = np.abs(_vcycle(levels, b) - exact).max() / np.abs(exact).max()
        assert err <= 0.25


def test_levels_coarsen_even_sides_to_a_side_of_one():
    levels = _levels(np.ones((128, 128)), 2 / 129, 2 / 129)
    assert [lv.cy.shape for lv in levels] == [(m, m) for m in (128, 63, 31, 15, 7, 3, 1)]


@pytest.mark.parametrize("mx, my", [(1, 1), (3, 7), (15, 31), (31, 15), (127, 63)])
def test_hat_transfers_are_full_weighting_and_bilinear_on_nested_grids(mx, my):
    # bit for bit on small grids; on large ones a BLAS may block or thread
    # the products and add a row's three nonzero terms in another order
    def same(a, b):
        if max(mx, my) <= 31:
            return np.array_equal(a, b)
        return np.abs(a - b).max() <= 4 * np.finfo(float).eps * np.abs(b).max()

    def full_weighting(r):
        t = 0.25 * (r[:-2:2] + 2.0 * r[1::2] + r[2::2])
        return 0.25 * (t[:, :-2:2] + 2.0 * t[:, 1::2] + t[:, 2::2])

    def bilinear(ec):
        p = np.pad(ec, 1)
        t = np.empty((2 * ec.shape[0] + 1, p.shape[1]))
        t[1::2] = p[1:-1]
        t[0::2] = 0.5 * (p[:-1] + p[1:])
        out = np.empty((t.shape[0], 2 * ec.shape[1] + 1))
        out[:, 1::2] = t[:, 1:-1]
        out[:, 0::2] = 0.5 * (t[:, :-1] + t[:, 1:])
        return out

    rng = np.random.default_rng(mx * my)
    fx, fy = 2 * mx + 1, 2 * my + 1
    px, py = _hat(fx, mx), _hat(fy, my)
    r, ec = rng.standard_normal((fx, fy)), rng.standard_normal((mx, my))
    assert same(0.25 * (px.T @ r @ py), full_weighting(r))
    assert same(px @ ec @ py.T, bilinear(ec))
    coef = rng.uniform(0.5, 2.0, (fx, fy))
    assert np.array_equal(_levels(coef, 0.1, 0.1)[1].cy, coef[1::2, 1::2] / 0.2**2)


@pytest.mark.parametrize("m", [1, 2, 5, 8, 30, 64])
def test_hat_matrix_identity_and_partition_of_unity(m):
    assert np.array_equal(_hat(m, m), np.eye(m))
    if m % 2 == 0:
        mc = max(1, (m - 1) // 2)
        assert np.abs(_hat(mc, m).sum(axis=1) - 1.0).max() <= 1e-15
    assert not _hat(m, m).flags.writeable


@pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8, 15, 16, 63, 64, 255])
@pytest.mark.parametrize("lines", ["y", "x"])
def test_line_solver_matches_dense_solve(length, lines):
    # the smoother's systems: per-node c_y off the diagonal along y, the scalar
    # 1/hx^2 along x; diag = -2/hx^2 - 2 c_y; lines along axis 0, batch on axis 1
    rng = np.random.default_rng(length)
    invx = 1.0 / 0.05**2
    cy = rng.uniform(0.01, 100.0, (length, 5)) * invx
    diag = -2.0 * invx - 2.0 * cy
    off = cy if lines == "y" else invx
    rhs = rng.standard_normal((length, 5))
    x = _pcr_solve(_pcr_factor(off, diag), rhs)
    offs = np.broadcast_to(off, diag.shape)
    for j in range(rhs.shape[1]):
        a = np.diag(diag[:, j]) + np.diag(offs[1:, j], -1) + np.diag(offs[:-1, j], 1)
        exact = np.linalg.solve(a, rhs[:, j])
        assert np.abs(x[:, j] - exact).max() <= 1e-13 * np.abs(exact).max()


@pytest.mark.parametrize("nodes", [17, 33, 65, 130])
def test_dirichlet_cycle_count_is_pinned(nodes):
    # a change of the cycle's algorithm shows up as a count, not only as a time
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, nodes, nodes)
    sol = solve_dirichlet(P3, dom, BoundaryData.from_function(dom, lambda x, y: x**2 + 0 * y))
    assert sol.iterations == 9


@given(
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4),
    st.integers(min_value=3, max_value=33),
    st.integers(min_value=3, max_value=33),
)
@settings(max_examples=40, deadline=None)
def test_dirichlet_reproduces_bilinear_boundary(coefs, nx, ny):
    c0, c1, c2, c3 = coefs
    fstar = lambda x, y: c0 + c1 * x + c2 * y + c3 * x * y
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, nx, ny)
    sol = solve_dirichlet(P3, dom, BoundaryData.from_function(dom, fstar))
    assert sol.iterations == 0
    exact = ScalarField2D.from_function(dom, fstar)
    assert np.max(np.abs(sol.f.values - exact.values)) <= 1e-12


def test_transfinite_exact_on_bilinear():
    phi = BoundaryData.from_function(DOM, lambda x, y: 1 + 2 * x - y + 3 * x * y)
    f0 = transfinite_interpolant(phi)
    exact = ScalarField2D.from_function(DOM, lambda x, y: 1 + 2 * x - y + 3 * x * y)
    assert np.allclose(f0, exact.values, atol=1e-13)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError, match="ellipticity_floor"):
        SolverConfig(ellipticity_floor=float("nan"))
    # a floor <= 0 is allowed: the a-priori bound must be > 0 all the same
    assert SolverConfig(ellipticity_floor=-1.0).ellipticity_floor == -1.0


def test_scalar_field_validation():
    with pytest.raises(ValueError):
        ScalarField2D(DOM, np.zeros((3, 3)))
    bad = np.zeros((DOM.nx, DOM.ny))
    bad[2, 2] = np.inf
    with pytest.raises(ValueError):
        ScalarField2D(DOM, bad)
    with pytest.raises(ValueError):
        GridDomain(1.0, -1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        GridDomain(-1.0, 1.0, 0.0, 1.0, 2, 5)


def test_boundary_data_validation():
    with pytest.raises(ValueError):
        BoundaryData(DOM, np.zeros(7))
