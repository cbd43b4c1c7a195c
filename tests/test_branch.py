import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slfold import branch
from slfold.branch import (
    ReductionParams,
    branch_sensitivity,
    branch_w_array,
    ellipticity_array,
    eval_p,
    eval_p_prime,
    params_from_levels,
    solve_branch,
)
from slfold.embedding import lift_point
from slfold.errors import (
    BranchOverflowError,
    DegenerateBranchError,
    NegativeSError,
    NoConvergenceError,
)

from conftest import random_params


def test_eval_p_examples():
    assert eval_p(params_from_levels((1.0, -1.0)), 2.0) == pytest.approx(3.0, abs=0)
    assert eval_p(params_from_levels((1.0, 2.0, 3.0)), 0.0) == 6.0
    assert eval_p(params_from_levels((1.0, 2.0, 3.0)), -1.0) == 0.0


def test_eval_p_prime_examples():
    p4 = params_from_levels((1.0, 2.0, 3.0))
    assert eval_p_prime(p4, 0.0) == 11.0  # 2*3 + 1*3 + 1*2
    assert eval_p_prime(params_from_levels((1.0, -1.0)), 1.0) == 2.0
    # symmetric pair: P'(w) = (w + a) + (w - a) = 2w
    for w in (-0.3, 0.0, 1.7, 42.0):
        assert eval_p_prime(params_from_levels((1.5, -1.5)), w) == pytest.approx(2 * w, abs=1e-14)


def test_params_invariants():
    p = params_from_levels((1.0, 2.0, 1.0))
    assert p.n == 4 and p.w0 == -1.0 and p.min_multiplicity == 2
    with pytest.raises(ValueError):
        ReductionParams(3, (1.0,))
    with pytest.raises(ValueError):
        ReductionParams(2, (1.0,))


def test_solve_branch_examples():
    assert solve_branch(params_from_levels((1.0, -1.0)), 3.0).w == pytest.approx(2.0, rel=1e-12)
    assert abs(solve_branch(params_from_levels((1.0, 2.0, 3.0)), 6.0).w) < 1e-12
    assert solve_branch(params_from_levels((2.0, -2.0)), 5.0).w == pytest.approx(3.0, rel=1e-12)


def test_solve_branch_rejects_negative():
    with pytest.raises(NegativeSError):
        solve_branch(params_from_levels((1.0, -1.0)), -0.5)
    with pytest.raises(NegativeSError):
        branch_w_array(params_from_levels((1.0, -1.0)), np.array([1.0, -2.0]))


def test_branch_anchor_is_exact():
    for a in ((1.0, -1.0), (0.5, 0.25, 2.0), (0.0, 0.0)):
        p = params_from_levels(a)
        assert solve_branch(p, 0.0).w == p.w0


def test_branch_sensitivity_examples():
    p = params_from_levels((2.0, -2.0))
    st_ = solve_branch(p, 5.0)
    assert branch_sensitivity(p, st_) == pytest.approx(1 / 6, rel=1e-12)
    p4 = params_from_levels((1.0, 2.0, 3.0))
    assert branch_sensitivity(p4, solve_branch(p4, 6.0)) == pytest.approx(1 / 11, rel=1e-10)
    p3 = params_from_levels((1.0, -1.0))
    assert branch_sensitivity(p3, solve_branch(p3, 0.0)) == pytest.approx(0.5, rel=1e-12)


def test_degenerate_branch_refuses():
    p = params_from_levels((0.0, 0.0))  # double root at w0 = 0
    with pytest.raises(DegenerateBranchError):
        branch_sensitivity(p, solve_branch(p, 0.0))
    # but the branch itself is still defined
    assert solve_branch(p, 4.0).w == pytest.approx(2.0, rel=1e-10)


def test_coefficient_examples():
    assert solve_branch(params_from_levels((2.0, -2.0)), 0.0).p_prime_at_w == pytest.approx(4.0, rel=1e-12)
    assert solve_branch(params_from_levels((1.0, 2.0, 3.0)), 6.0).p_prime_at_w == pytest.approx(11.0, rel=1e-10)


def test_joyce_closed_form_coefficient():
    for a in (0.5, 1.0, 2.0):
        p = params_from_levels((a, -a))
        for s in np.concatenate([[0.0], np.logspace(-4, 2, 31)]):
            assert solve_branch(p, float(s)).p_prime_at_w == pytest.approx(
                2 * math.sqrt(s + a * a), abs=1e-10
            )


@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_branch_properties(n, seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, n=n)
    s_grid = np.concatenate([[0.0], np.logspace(-6, 4, 30)])
    prev_w = -np.inf
    for s in s_grid:
        state = solve_branch(params, float(s))
        assert abs(eval_p(params, state.w) - s) <= 1e-12 * (1 + s)
        assert state.w >= params.w0 - 1e-15
        assert state.w >= prev_w - 1e-9 * (1 + abs(state.w))
        prev_w = state.w


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sensitivity_matches_finite_difference(seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    s = float(rng.uniform(0.05, 50.0))
    state = solve_branch(params, s)
    if state.p_prime_at_w < 1e-8:
        return
    h = 1e-6 * (1 + s)
    fd = (solve_branch(params, s + h).w - solve_branch(params, s - h).w) / (2 * h)
    analytic = branch_sensitivity(params, state)
    assert abs(analytic - fd) <= 1e-6 * abs(analytic)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_p_prime_matches_finite_difference(seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    w = float(rng.uniform(params.w0 + 0.1, params.w0 + 5.0))
    h = 1e-6 * (1 + abs(w))
    fd = (eval_p(params, w + h) - eval_p(params, w - h)) / (2 * h)
    assert abs(eval_p_prime(params, w) - fd) <= 1e-7 * (1 + abs(fd))


def _bisect_t(params, s):
    """The least float t >= 0 with prod_j (t + a_j - min(a)) >= s, by plain float bisection."""
    shifts = [aj - min(params.a) for aj in params.a]

    def p(t):
        out = 1.0
        for d in shifts:
            out *= t + d
        return out

    lo, hi = 0.0, max(1.0, s)  # every factor is >= hi there, so p(hi) >= hi^(n-1) >= s
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if p(mid) < s else (lo, mid)
    return hi


def test_array_solver_matches_scalar(rng):
    # one kernel: the float and array paths agree bit for bit, and t = w - w0 is
    # within 2 ulps of a bisection on the shifted factors
    levels = [random_params(rng, n=5).a, (0.0, 0.0, 1.0), (1e8, -1.0), (2.0, -1.0, -1.0, 5.0)]
    s = np.concatenate([[0.0, 1e-300, 1e-20, 1e200], rng.uniform(0, 100, 64)])
    for a in levels:
        params = params_from_levels(a)
        states = [solve_branch(params, float(v)) for v in s]
        assert branch_w_array(params, s).tolist() == [st_.w for st_ in states]
        assert ellipticity_array(params, s).tolist() == [st_.p_prime_at_w for st_ in states]
        t = branch._branch_t(params, s)[0]
        ref = np.array([_bisect_t(params, float(v)) for v in s])
        assert np.all(np.abs(t - ref) <= 2 * np.spacing(ref)), a


def test_p_and_dp_gives_the_second_derivative_only_when_asked(rng):
    # P = (w + 1)(w + 2)(w + 3): P'' = 6w + 12
    a, w = (1.0, 2.0, 3.0), rng.uniform(-4.0, 4.0, 16)
    p, dp = branch._p_and_dp(a, w)
    assert np.array_equal(branch._p_and_dp(a, w, second=True)[:2], (p, dp))
    assert np.allclose(branch._p_and_dp(a, w, second=True)[2], 6.0 * w + 12.0, rtol=0, atol=1e-12)
    assert len(branch._p_and_dp(a, 0.5)) == 2


def test_ellipticity_derivative_is_the_chain_rule(rng):
    # n = 3: F(s) = sqrt((a1 - a2)^2 + 4 s), so F'(s) = 2 / F(s)
    params, s = params_from_levels((1.0, -1.0)), rng.uniform(0.0, 10.0, 32)
    f, df = ellipticity_array(params, s, derivative=True)
    assert np.array_equal(f, ellipticity_array(params, s))
    assert np.allclose(df, 2.0 / f, rtol=1e-14, atol=0)
    # n = 5: against a central difference of F
    params, h = params_from_levels((1.0, 0.25, -1.0, 3.0)), 1e-5
    s = rng.uniform(0.1, 10.0, 32)
    numeric = (ellipticity_array(params, s + h) - ellipticity_array(params, s - h)) / (2 * h)
    assert np.allclose(ellipticity_array(params, s, derivative=True)[1], numeric, rtol=1e-8, atol=0)


def test_branch_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(branch, "_MAX_NEWTON", 1)
    params = params_from_levels((1.0, -1.0))
    with pytest.raises(NoConvergenceError):
        solve_branch(params, 3.0)
    with pytest.raises(NoConvergenceError):
        branch_w_array(params, np.array([0.0, 3.0]))


# P = t (t + 2.9e243)^4 overflows at the Newton start for every s > 0
OVERFLOWING_SHIFTS = (2.9e243, 0.0, 2.9e243, 2.9e243, 2.9e243)


@pytest.mark.parametrize("s", [1.0, 1e10])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_branch_overflow_at_the_start_raises(s):
    params = params_from_levels(OVERFLOWING_SHIFTS)
    with pytest.raises(BranchOverflowError, match="overflows at the Newton start"):
        solve_branch(params, s)
    with pytest.raises(BranchOverflowError):
        branch_w_array(params, np.array([0.0, s]))
    with pytest.raises(BranchOverflowError):
        ellipticity_array(params, np.array([s, s]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_branch_refuses_an_overflowing_p_prime():
    # at s = 0, P(w0) = 0 is finite but P'(w0) = (2.9e243)^4 is not
    params = params_from_levels(OVERFLOWING_SHIFTS)
    with pytest.raises(BranchOverflowError, match="P'"):
        solve_branch(params, 0.0)
    with pytest.raises(BranchOverflowError, match="P'"):
        ellipticity_array(params, np.array([0.0, 0.0]))
    with pytest.raises(BranchOverflowError, match="P'"):
        branch_w_array(params, np.zeros(3))


def test_an_overflowing_start_bound_is_silent():
    # (s / Q_1)^1 with Q_1 = 1e-300 overflows; the bound s^(1/2) = 1e5 is the start
    params = params_from_levels((1e-300, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = solve_branch(params, 1e10)
        w = branch_w_array(params, np.array([1e10, 1e10]))
    assert (state.w, state.p_prime_at_w) == (1e5, 2e5)
    assert w.tolist() == [1e5, 1e5]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_degeneration_follows_the_multiplicity_of_min_a(n):
    # P(w0 + t) = t^k Q(t) with Q(0) = Q0: F(s) ~ k Q0^(1/k) s^(1 - 1/k), and the
    # k radii of the minimal levels ~ (s/Q0)^(1/(2k)) while the others stay put
    v = 1e-10
    s = v * v
    for k in range(1, n):
        params = params_from_levels((-1.0,) * k + tuple(10.0 * j for j in range(1, n - k)))
        assert params.min_multiplicity == k
        q0 = params.q0
        law = k * q0 ** (1 / k) * s ** (1 - 1 / k)
        assert abs(ellipticity_array(params, np.array([s]))[0] / law - 1) <= 1e-6
        radii = np.sort(np.abs(lift_point(params, 0.0, 0.0, 0.0, v).z[: n - 1]))
        assert np.all(np.abs(radii[:k] / (s / q0) ** (1 / (2 * k)) - 1) <= 1e-6)
        assert np.all(radii[k:] >= np.sqrt(11.0) * (1 - 1e-12))


@st.composite
def _spread_levels(draw):
    """Levels whose minimum is attained k times and whose other shifts run over 1e-8 ... 1e8."""
    n = draw(st.integers(3, 6))
    k = draw(st.integers(1, n - 1))
    low = draw(st.floats(-3.0, 3.0))
    spreads = draw(st.lists(st.floats(-8.0, 8.0), min_size=n - 1 - k, max_size=n - 1 - k))
    levels = [low] * k + [low + 10.0**e for e in spreads]
    return params_from_levels(draw(st.permutations(levels)))


@given(_spread_levels(), st.lists(st.integers(-300, 199), min_size=1, max_size=30, unique=True),
       st.floats(1.0, 10.0, exclude_max=True))
@settings(max_examples=100, deadline=None)
def test_branch_relative_defect_and_monotone_t(params, exponents, mantissa):
    s = np.concatenate([[0.0], mantissa * 10.0 ** np.sort(exponents)])
    t, _ = branch._branch_t(params, s)
    assert t[0] == 0.0 and np.all(np.isfinite(t)) and np.all(np.diff(t) >= 0.0)
    factors = t[:, None] + np.array(params.shifts)
    partial = np.cumprod(factors, axis=1)
    # the relative defect is the rounding of the product where it stays in the normal range
    normal = np.all(np.minimum(factors, partial) >= np.finfo(float).tiny, axis=1)
    defect = np.abs(partial[:, -1] - s)[normal] / s[normal]
    assert np.all(defect <= 2 * (params.n - 1) * np.finfo(float).eps)


# Newton's stop leaves t, and so F(s) = P'(w(s)), a few ulps off the root: at these
# levels and s (found by random probes), the next float up gives an F smaller by
# 2 ulps (n = 5) and by 6 ulps, 1.05 (n-1) eps relative (n = 6)
_ULP_DIPS = [
    ((0.026582672413131284, 0.026547293143773718, 0.0, 0.030307713187428392), 2.0529270899119424e-05),
    ((0.2470626275232354, 0.0, 0.0, 0.0, 0.0), 0.004768750055646255),
]


@given(_spread_levels(), st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=20),
       st.integers(1, 3))
@example(params_from_levels(_ULP_DIPS[0][0]), [math.log10(_ULP_DIPS[0][1])], 1)
@example(params_from_levels(_ULP_DIPS[1][0]), [math.log10(_ULP_DIPS[1][1])], 1)
@settings(max_examples=100, deadline=None)
def test_coefficient_is_monotone_up_to_rounding(params, exponents, ulps):
    # F(s') >= F(s) (1 - 2(n-1) eps) for s' >= s, also for adjacent floats: solve_dirichlet
    # checks the coefficient once, at the least s of the domain, on this property
    s = 10.0 ** np.array(exponents)
    above = s.copy()
    for _ in range(ulps):
        above = np.nextafter(above, np.inf)
    s = np.sort(np.concatenate([s, above]))
    f = ellipticity_array(params, s)
    assert np.all(f >= np.maximum.accumulate(f) * (1 - 2 * (params.n - 1) * np.finfo(float).eps))


def test_p_and_p_prime_on_arrays_equal_scalar_calls(rng):
    for n in (3, 4, 5, 6):
        params = random_params(rng, n=n)
        w = rng.uniform(params.w0 - 1.0, params.w0 + 10.0, 50)
        assert np.array_equal(eval_p(params, w), [eval_p(params, float(t)) for t in w])
        assert np.array_equal(eval_p_prime(params, w), [eval_p_prime(params, float(t)) for t in w])
