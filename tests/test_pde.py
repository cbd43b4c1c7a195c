import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slfold import pde
from slfold.branch import _f_prime, params_from_levels
from slfold.errors import (
    DegeneracyEncounteredError,
    DomainMismatchError,
    NoConvergenceError,
    SingularParametersError,
)
from slfold.grid import BoundaryData, GridDomain, ScalarField2D, boundary_indices
from slfold.pde import (
    SolverConfig,
    _Level,
    _first_order_interior,
    _hat,
    _KRYLOV,
    _iterate,
    _krylov_step,
    _levels,
    _pcr_factor,
    _pcr_solve,
    _vcycle,
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
    u, v = (ScalarField2D(dom, rng.normal(size=(dom.nx, dom.ny))) for _ in range(2))
    _, (u_x, u_y, v_x, v_y), *_ = _first_order_interior(P3, u, v)
    # bit for bit: verify_fields took its partials from np.gradient before
    for (d_x, d_y), f in (((u_x, u_y), u), ((v_x, v_y), v)):
        g_x, g_y = np.gradient(f.values, dom.hx, dom.hy)
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


# hx and hy are no powers of two here, so rounding differs between spellings of the operator
ODD_GRIDS = [GridDomain(-1.0, 1.7, 0.3, 2.2, nx, ny) for nx, ny in ((13, 21), (25, 19))]


@pytest.mark.parametrize("dom", ODD_GRIDS, ids=["13x21", "25x19"])
def test_recover_uv_is_exact_on_quadratics_up_to_the_edges(dom):
    u, v = recover_uv(field(lambda x, y: x**2 + 0.7 * x * y - 1.3 * y**2 + 0.4 * x - 0.2 * y, dom))
    xg, yg = np.meshgrid(dom.xs(), dom.ys(), indexing="ij")
    edges = np.ones((dom.nx, dom.ny), dtype=bool)
    edges[1:-1, 1:-1] = False
    assert np.abs(u.values - (0.7 * xg - 2.6 * yg - 0.2))[edges].max() <= 1e-12
    assert np.abs(v.values - (2.0 * xg + 0.7 * yg + 0.4))[edges].max() <= 1e-12


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
        return  # spread levels can stall the solver above the tolerance
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
    params = params_from_levels(levels)
    sol = solve_dirichlet(params, DOM33, BoundaryData.from_function(DOM33, fn))
    assert sol.final_residual <= 1e-10
    assert np.max(np.abs(residual_potential(params, sol.f).values)) == sol.final_residual


@pytest.mark.parametrize("dom, levels", zip(ODD_GRIDS, [(1.0, 0.25, -1.0), (1.0, -1.0)]), ids=["13x21", "25x19"])
def test_final_residual_is_the_residual_of_the_returned_field(dom, levels):
    # the solver's stopping test and residual_potential apply one operator; two
    # spellings of it differ here in the last bits of the maximum
    params = params_from_levels(levels)
    sol = solve_dirichlet(params, dom, BoundaryData.from_function(dom, lambda x, y: x**2 + 0 * y))
    assert sol.iterations > 0
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
        levels = _levels(coef, np.zeros(shape), 2 / (shape[0] + 1), 2 / (shape[1] + 1))
        assert [lv.cy.shape for lv in levels] == shapes
        # the dense 5-point operator, one column per unit vector
        units = np.eye(coef.size).reshape(coef.size, *shape)
        dense = np.stack([levels[0].apply(np.pad(u, 1)).ravel() for u in units], axis=1)
        b = rng.standard_normal(shape)
        exact = np.linalg.solve(dense, b.ravel()).reshape(shape)
        err = np.abs(_vcycle(levels, b) - exact).max() / np.abs(exact).max()
        assert err <= 0.25


def test_levels_coarsen_even_sides_to_a_side_of_one():
    levels = _levels(np.ones((128, 128)), np.zeros((128, 128)), 2 / 129, 2 / 129)
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
    assert np.array_equal(_levels(coef, np.zeros_like(coef), 0.1, 0.1)[1].cy, coef[1::2, 1::2] / 0.2**2)


@pytest.mark.parametrize("m", [1, 2, 5, 8, 30, 64])
def test_hat_matrix_identity_and_partition_of_unity(m):
    assert np.array_equal(_hat(m, m), np.eye(m))
    if m % 2 == 0:
        mc = max(1, (m - 1) // 2)
        assert np.abs(_hat(mc, m).sum(axis=1) - 1.0).max() <= 1e-15
    assert not _hat(m, m).flags.writeable


@pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8, 15, 16, 63, 64, 255])
@pytest.mark.parametrize("lines", ["y", "x", "x-jacobian", "x-upwind", "x-shifted"])
def test_line_solver_matches_dense_solve(length, lines):
    # the smoother's systems: per-node c_y off the diagonal along y, the scalar
    # 1/hx^2 along x, and along x for the Jacobian the unequal 1/hx^2 -+ b/(2hx),
    # upwinded with |b|/(2hx) added on coarse levels; diag = -2/hx^2 - 2 c_y
    # (less that diffusion twice), less the shift sigma of a rejected step;
    # lines along axis 0, batch on axis 1
    rng = np.random.default_rng(length)
    invx = 1.0 / 0.05**2
    cy = rng.uniform(0.01, 100.0, (length, 5)) * invx
    diag = -2.0 * invx - 2.0 * cy
    lower = upper = cy if lines == "y" else invx
    rhs = rng.standard_normal((length, 5))
    if lines == "x-jacobian":
        bx = rng.uniform(-1.0, 1.0, (length, 5)) * invx
        lower, upper = invx - bx, invx + bx
    elif lines == "x-upwind":
        bx = rng.uniform(-20.0, 20.0, (length, 5)) * invx
        lower, upper = invx + np.abs(bx) - bx, invx + np.abs(bx) + bx
        diag = diag - 2.0 * np.abs(bx)
    elif lines == "x-shifted":
        bx = rng.uniform(-1.0, 1.0, (length, 5)) * invx
        lower, upper = invx - bx, invx + bx
        diag = diag - 4.0**rng.integers(0, 20) * invx
    x = _pcr_solve(_pcr_factor(lower, upper, diag), rhs)
    lower, upper = np.broadcast_to(lower, diag.shape), np.broadcast_to(upper, diag.shape)
    for j in range(rhs.shape[1]):
        a = np.diag(diag[:, j]) + np.diag(lower[1:, j], -1) + np.diag(upper[:-1, j], 1)
        exact = np.linalg.solve(a, rhs[:, j])
        assert np.abs(x[:, j] - exact).max() <= 1e-13 * np.abs(exact).max()


@pytest.mark.parametrize("nodes", [17, 33, 65, 130])
def test_dirichlet_cycle_count_is_pinned(nodes):
    # a change of the cycle's algorithm shows up as a count, not only as a time
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, nodes, nodes)
    sol = solve_dirichlet(P3, dom, BoundaryData.from_function(dom, lambda x, y: x**2 + 0 * y))
    assert sol.iterations == {17: 7, 33: 7, 65: 7, 130: 7}[nodes]


# --- Newton ------------------------------------------------------------------------

def test_jacobian_is_the_derivative_of_the_residual():
    # J e = D_xx e + c D_yy e + b D_x e against central differences of the
    # residual along e: an O(eps^2) error, while the frozen operator misses b
    dom = GridDomain(-1.0, 1.0, -0.5, 1.2, 21, 17)
    params = params_from_levels((1.0, 0.25, -1.0))
    f = field(lambda x, y: np.sin(2 * x + y) + x * x * y, dom).values
    e = np.pad(np.random.default_rng(3).standard_normal((19, 15)), 1)
    it = _iterate(params, f, dom)
    je = _Level(it.coef, it.jacobian_b(), dom.hx, dom.hy).apply(e)

    def res(g):
        return residual_potential(params, ScalarField2D(dom, g)).values[1:-1, 1:-1]
    scale = np.abs(je).max()
    for eps in (1e-3, 1e-4):
        fd = (res(f + eps * e) - res(f - eps * e)) / (2 * eps)
        assert np.abs(fd - je).max() <= eps * scale
        assert np.abs(fd - _Level(it.coef, 0.0, dom.hx, dom.hy).apply(e)).max() >= 1e-3 * scale


def test_jacobian_is_the_frozen_operator_at_an_affine_potential():
    # D_yy f = 0 exactly on dyadic values, so b = 0 and J e is the frozen operator's
    f = field(lambda x, y: 0.5 * x * y - x + 2.0 * y).values
    it = _iterate(params_from_levels((1.0, 0.25, -1.0)), f, DOM)
    b = it.jacobian_b()
    assert not np.any(b)
    e = np.pad(np.random.default_rng(5).standard_normal((15, 15)), 1)
    frozen = _Level(it.coef, 0.0, DOM.hx, DOM.hy)
    assert np.array_equal(_Level(it.coef, b, DOM.hx, DOM.hy).apply(e), frozen.apply(e))


def test_shifted_jacobian_is_j_less_sigma_e():
    # J e - sigma e at every node, and the line factors carry the same shift:
    # on a level with a side of 1 one smoothing sweep solves its operator exactly
    dom = GridDomain(-1.0, 1.0, -0.5, 1.2, 21, 17)
    f = field(lambda x, y: np.sin(2 * x + y) + x * x * y, dom).values
    it = _iterate(params_from_levels((1.0, 0.25, -1.0)), f, dom)
    b = it.jacobian_b()
    e = np.pad(np.random.default_rng(11).standard_normal((19, 15)), 1)
    jac = _Level(it.coef, b, dom.hx, dom.hy)
    for sigma in (1.0, 37.5, 4.0**12):
        shifted = _Level(it.coef, b, dom.hx, dom.hy, sigma).apply(e)
        expected = jac.apply(e) - sigma * e[1:-1, 1:-1]
        assert np.abs(shifted - expected).max() <= 1e-14 * np.abs(expected).max()
        line = _levels(it.coef[:, 7:8], b[:, 7:8], dom.hx, dom.hy, sigma)
        g = np.random.default_rng(13).standard_normal((19, 1))
        assert len(line) == 1
        assert np.abs(line[0].apply(np.pad(_vcycle(line, g), 1)) - g).max() <= 1e-12 * np.abs(g).max()


def _first_step(levels=(0.1, 0.0), nodes=33):
    """The Jacobian hierarchy and residual at the first iterate of exp(2x) y."""
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, nodes, nodes)
    phi = BoundaryData.from_function(dom, EXP_Y)
    it = _iterate(params_from_levels(levels), transfinite_interpolant(phi), dom)
    return _levels(it.coef, it.jacobian_b(), dom.hx, dom.hy), it.res


def test_one_krylov_vector_is_the_minimal_residual_vcycle():
    # FGMRES's first vector: the V-cycle's correction z scaled by the alpha
    # that minimises |r - alpha J z| in the 2-norm
    levels, res = _first_step()
    step, cycles = _krylov_step(levels, res, 0.0, 1)
    r = -res
    z = _vcycle(levels, r)
    jz = levels[0].apply(np.pad(z, 1))
    expected = float(np.vdot(r, jz) / np.vdot(jz, jz)) * z
    assert cycles == 1
    assert np.abs(step - expected).max() <= 1e-13 * np.abs(expected).max()


def test_krylov_residual_does_not_grow_as_vectors_are_added():
    # FGMRES minimises the linear residual's 2-norm over a growing space;
    # a budget of k cycles builds exactly k vectors.  Eight vectors stay
    # above the rounding floor, near 1e-12, where the norm wanders
    levels, res = _first_step()
    norms = []
    for k in range(1, 9):
        step, cycles = _krylov_step(levels, res, 0.0, k)
        assert cycles == k
        r = res + levels[0].apply(np.pad(step, 1))
        norms.append(float(np.sqrt(np.vdot(r, r))))
    assert all(b <= a * (1 + 1e-9) for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 1e-9 * norms[0]


def test_inner_cycles_stop_where_the_stationary_vcycle_diverges():
    # levels (0.1, 0) with exp(2x) y at 65^2: repeated V-cycles on one frozen
    # operator take the linear residual down to 1e-9 of its start, then raise
    # it about 5x per cycle; the solve converges all the same
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 65, 65)
    params, phi = params_from_levels((0.1, 0.0)), BoundaryData.from_function(dom, EXP_Y)
    sol = solve_dirichlet(params, dom, phi)
    assert sol.final_residual <= 1e-10
    assert (sol.iterations, sol.newton_steps, sol.rejected_steps) == (10, 4, 0)
    it = _iterate(params, transfinite_interpolant(phi), dom)
    levels = _levels(it.coef, np.zeros_like(it.res), dom.hx, dom.hy)
    d, norms = np.zeros_like(it.res), []
    for _ in range(16):
        r = -it.res - levels[0].apply(np.pad(d, 1))
        norms.append(np.abs(r).max())
        d += _vcycle(levels, r)
    low = int(np.argmin(norms))
    assert norms[low] <= 1e-9 * norms[0] and norms[-1] >= 100 * norms[low]
    # FGMRES on the same V-cycle reaches the stationary iteration's best in
    # no more cycles, and with no target it runs all _KRYLOV vectors without
    # diverging
    step, cycles = _krylov_step(levels, it.res, norms[low], 200)
    assert cycles <= low
    assert np.abs(it.res + levels[0].apply(np.pad(step, 1))).max() <= norms[low]
    step, cycles = _krylov_step(levels, it.res, 0.0, 200)
    assert cycles == _KRYLOV
    assert np.abs(it.res + levels[0].apply(np.pad(step, 1))).max() <= 1e-12 * norms[0]


def test_a_rejected_step_is_retried_with_a_shift(monkeypatch):
    # the stall case of the solver table at 33^2: two steps fail to lower the
    # RMS residual and are retried on J - sigma I with a larger sigma, with the
    # b of the same iterate: b is built once for the steps from each iterate
    built = []
    monkeypatch.setattr(pde, "_f_prime", lambda *args: built.append(args) or _f_prime(*args))
    dom = GridDomain(-1.0, 1.0, -1.0, 1.0, 33, 33)
    phi = BoundaryData.from_function(
        dom, lambda x, y: -1.8139 * np.sin(-1.7264 * x - 1.6802 * y) - 0.9129 * x * y + 0.3054 * x**2 - 1.2218 * y)
    sol = solve_dirichlet(params_from_levels((-1.989, -0.5366, -1.7663, 0.56)), dom, phi, SolverConfig(tolerance=1e-9))
    assert sol.final_residual <= 1e-9
    assert (sol.iterations, sol.newton_steps, sol.rejected_steps) == (18, 7, 2)
    assert len(built) == sol.newton_steps


def test_the_residual_readers_build_no_jacobian(monkeypatch):
    monkeypatch.setattr(pde, "_f_prime", lambda *args: pytest.fail("F'(s) evaluated"))
    params = params_from_levels((1.0, 0.25, -1.0))
    f = field(lambda x, y: np.sin(3 * x) + y**3)
    it = _iterate(params, f.values, DOM)
    assert np.array_equal(ellipticity_field(params, f), it.coef)
    assert np.array_equal(residual_potential(params, f).values[1:-1, 1:-1], it.res)


def _random_sweep():
    """The 200 seeded problems of ROADMAP's solver baseline: (levels, nodes, data)."""
    rng = np.random.default_rng(2026)
    for _ in range(200):
        n = int(rng.integers(3, 6))
        levels = tuple(rng.uniform(-2.0, 2.0, n - 1))
        nodes = int(rng.choice((17, 33)))
        c = rng.uniform(-2.0, 2.0, 6)
        yield levels, nodes, lambda x, y, c=c: (
            c[0] * np.sin(c[1] * x + c[2] * y) + c[3] * x * y + c[4] * x**2 + c[5] * y)


def test_seeded_random_sweep_converges():
    # every fourth problem of the 200, from the third: 50 problems, among them 70,
    # which the frozen-coefficient loop alone fails, and 90, which needs more
    # than one V-cycle per step where the first leaves 90 % of the residual
    for k, (levels, nodes, fn) in enumerate(_random_sweep()):
        if k % 4 != 2:
            continue
        dom = GridDomain(-1.0, 1.0, -1.0, 1.0, nodes, nodes)
        problem = (params_from_levels(levels), dom, BoundaryData.from_function(dom, fn), SolverConfig(tolerance=1e-9))
        assert solve_dirichlet(*problem).final_residual <= 1e-9, k


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
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        SolverConfig(tolerance=float("inf"))
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
