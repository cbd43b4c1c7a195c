import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slfold.branch import (
    BRANCH_TOL,
    ReductionParams,
    branch_sensitivity,
    branch_w_array,
    eval_p,
    eval_p_prime,
    params_from_levels,
    solve_branch,
)
from slfold.errors import DegenerateBranchError, NegativeSError

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
        assert abs(eval_p(params, state.w) - s) <= BRANCH_TOL * (1 + s)
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


def test_array_solver_matches_scalar(rng):
    params = random_params(rng, n=5)
    s = np.concatenate([[0.0], rng.uniform(0, 100, 64)])
    w_arr = branch_w_array(params, s)
    w_scalar = np.array([solve_branch(params, float(v)).w for v in s])
    assert np.allclose(w_arr, w_scalar, rtol=1e-10, atol=1e-12)


def test_p_and_p_prime_on_arrays_equal_scalar_calls(rng):
    for n in (3, 4, 5, 6):
        params = random_params(rng, n=n)
        w = rng.uniform(params.w0 - 1.0, params.w0 + 10.0, 50)
        assert np.array_equal(eval_p(params, w), [eval_p(params, float(t)) for t in w])
        assert np.array_equal(eval_p_prime(params, w), [eval_p_prime(params, float(t)) for t in w])
