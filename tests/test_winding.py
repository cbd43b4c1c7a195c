import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slfold.errors import (
    DomainMismatchError,
    NonIntegerWindingError,
    OutOfDomainError,
    UnderSampledError,
    ZeroOnLoopError,
)
from slfold.families import AffineSolution, affine_fields
from slfold.grid import GridDomain, ScalarField2D
from slfold.winding import (
    LoopTrace,
    _round_turns,
    circle_points,
    difference_trace,
    multiplicity_at_zero,
    total_turn,
    winding_number,
)

DOM = GridDomain(-2.0, 2.0, -2.0, 2.0, 41, 41)


def model_trace(fn, samples=64, radius=1.0):
    pts = circle_points((0.0, 0.0), radius, samples)
    vals = np.array([fn(x, y) for x, y in pts])
    return LoopTrace(points=pts, values=vals)


def test_winding_identity_map():
    assert winding_number(model_trace(lambda x, y: (x, y))) == 1


def test_winding_squared_map():
    assert winding_number(model_trace(lambda x, y: (x * x - y * y, 2 * x * y))) == 2


def test_winding_conjugation():
    assert winding_number(model_trace(lambda x, y: (x, -y))) == -1


def test_winding_cubed_map():
    fn = lambda x, y: (((x + 1j * y) ** 3).real, ((x + 1j * y) ** 3).imag)
    assert winding_number(model_trace(fn)) == 3


def test_winding_orientation_reversal():
    trace = model_trace(lambda x, y: (x * x - y * y, 2 * x * y))
    rev = LoopTrace(points=trace.points[::-1].copy(), values=trace.values[::-1].copy())
    assert winding_number(rev) == -winding_number(trace)


@given(st.sampled_from([1, 2, 3]), st.sampled_from([32, 64, 128]))
@settings(max_examples=20, deadline=None)
def test_winding_power_maps_and_doubling(k, samples):
    fn = lambda x, y: (((x + 1j * y) ** k).real, ((x + 1j * y) ** k).imag)
    w1 = winding_number(model_trace(fn, samples=samples))
    w2 = winding_number(model_trace(fn, samples=2 * samples))
    assert w1 == k and w2 == k


def test_winding_sum_near_integer():
    turn = total_turn(model_trace(lambda x, y: (x, y)))
    assert abs(turn - 1) <= 1e-12


def test_round_turns_guard():
    assert _round_turns(2.0000000004) == 2
    with pytest.raises(NonIntegerWindingError):
        _round_turns(1.4999)


def test_undersampled_loop():
    # rotation of exactly pi per step cannot be lifted
    fn = lambda x, y: (((x + 1j * y) ** 3).real, ((x + 1j * y) ** 3).imag)
    pts = circle_points((0.0, 0.0), 1.0, 6)
    vals = np.array([fn(x, y) for x, y in pts])
    with pytest.raises(UnderSampledError):
        winding_number(LoopTrace(points=pts, values=vals))


def test_short_loop_rejected():
    with pytest.raises(UnderSampledError):
        winding_number(model_trace(lambda x, y: (x, y), samples=6))


def test_zero_on_loop():
    with pytest.raises(ZeroOnLoopError):
        winding_number(model_trace(lambda x, y: (0.0, 0.0)))


def test_loop_trace_shape_validation():
    with pytest.raises(ValueError):
        LoopTrace(points=np.zeros((8, 2)), values=np.zeros((7, 2)))


# --- multiplicity of solution differences ----------------------------------------

def test_multiplicity_distinct_affine_pair():
    u1, v1 = affine_fields(AffineSolution(1.0, 0.3, -0.2), DOM)
    u2, v2 = affine_fields(AffineSolution(0.4, -0.1, 0.5), DOM)
    # zero of the difference: x* = -(0.3+0.1)/0.6, y* = (0.5+0.2)/0.6
    da = 0.6
    x_star, y_star = -0.4 / da, 0.7 / da
    mult = multiplicity_at_zero(u1, v1, u2, v2, (x_star, y_star), 0.35, 128)
    assert mult == 1


def test_multiplicity_identical_solutions():
    u1, v1 = affine_fields(AffineSolution(1.0, 0.0, 0.0), DOM)
    with pytest.raises(ZeroOnLoopError):
        multiplicity_at_zero(u1, v1, u1, v1, (0.0, 0.0), 0.5, 64)


def test_multiplicity_constant_nonzero_difference():
    u1, v1 = affine_fields(AffineSolution(1.0, 0.5, 0.0), DOM)
    u2, v2 = affine_fields(AffineSolution(1.0, 0.0, 0.0), DOM)
    assert multiplicity_at_zero(u1, v1, u2, v2, (0.0, 0.0), 0.5, 64) == 0


def test_multiplicity_out_of_domain():
    u1, v1 = affine_fields(AffineSolution(1.0, 0.0, 0.0), DOM)
    u2, v2 = affine_fields(AffineSolution(0.5, 0.0, 0.0), DOM)
    with pytest.raises(OutOfDomainError):
        multiplicity_at_zero(u1, v1, u2, v2, (1.9, 0.0), 0.5, 64)


def test_multiplicity_domain_mismatch():
    other = GridDomain(-2.0, 2.0, -2.0, 2.0, 21, 21)
    u1, v1 = affine_fields(AffineSolution(1.0, 0.0, 0.0), DOM)
    u2, v2 = affine_fields(AffineSolution(0.5, 0.0, 0.0), other)
    with pytest.raises(DomainMismatchError):
        multiplicity_at_zero(u1, v1, u2, v2, (0.0, 0.0), 0.5, 64)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_multiplicity_positive_integer_property(seed):
    rng = np.random.default_rng(seed)
    a1, a2 = rng.uniform(-1.5, 1.5, 2)
    if abs(a1 - a2) < 0.2:
        return
    b1, g1, b2, g2 = rng.uniform(-0.5, 0.5, 4)
    u1, v1 = affine_fields(AffineSolution(a1, b1, g1), DOM)
    u2, v2 = affine_fields(AffineSolution(a2, b2, g2), DOM)
    da = a1 - a2
    x_star, y_star = -(b1 - b2) / da, -(g1 - g2) / da
    if not (DOM.contains(x_star - 0.3, y_star - 0.3) and DOM.contains(x_star + 0.3, y_star + 0.3)):
        return
    mult = multiplicity_at_zero(u1, v1, u2, v2, (x_star, y_star), 0.25, 128)
    assert mult == 1


def test_difference_trace_matches_fields():
    u1, v1 = affine_fields(AffineSolution(1.0, 0.0, 0.0), DOM)
    u2, v2 = affine_fields(AffineSolution(0.0, 0.0, 0.0), DOM)
    trace = difference_trace(u1, v1, u2, v2, (0.2, -0.1), 0.4, 16)
    # difference is (x, y) itself: bilinear interpolation is exact on affine data
    assert np.allclose(trace.values, trace.points, atol=1e-12)


@pytest.mark.parametrize("radius", [0.0, -0.2, float("nan"), float("inf")])
def test_difference_trace_refuses_a_circle_that_is_not_one(radius):
    u1, v1 = affine_fields(AffineSolution(1.0, 0.0, 0.0), DOM)
    u2, v2 = affine_fields(AffineSolution(0.0, 0.0, 0.0), DOM)
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        difference_trace(u1, v1, u2, v2, (0.2, -0.1), radius, 16)


@pytest.mark.parametrize("samples", [-5, 0, 7])
def test_difference_trace_counts_the_samples_it_was_given(samples):
    u1, v1 = affine_fields(AffineSolution(1.0, 0.0, 0.0), DOM)
    u2, v2 = affine_fields(AffineSolution(0.0, 0.0, 0.0), DOM)
    with pytest.raises(UnderSampledError, match=f"got {samples}$"):
        difference_trace(u1, v1, u2, v2, (0.2, -0.1), 0.4, samples)


def test_interp_is_elementwise_and_exact_on_bilinear_data(rng):
    dom = GridDomain(-1.3, 0.7, -0.2, 2.0, 7, 9)

    def bilinear(x, y):
        return 0.5 + 2.0 * x - y + 0.25 * x * y

    f = ScalarField2D.from_function(dom, bilinear)
    x = np.concatenate([rng.uniform(-1.3, 0.7, 49), [-1.3, 0.7, 0.7]]).reshape(4, 13)
    y = np.concatenate([rng.uniform(-0.2, 2.0, 49), [2.0, -0.2, 2.0]]).reshape(4, 13)
    got = f.interp(x, y)
    assert got.shape == (4, 13)
    assert np.allclose(got, bilinear(x, y), rtol=0, atol=1e-13)
    # one call on the arrays equals one call per point, bit for bit
    pointwise = [f.interp(a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
    assert got.ravel().tobytes() == np.array(pointwise).tobytes()
