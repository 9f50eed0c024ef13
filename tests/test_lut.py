import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_lut_eval, reference_lut_invert
from softgait.controllers import default_moment_lut
from softgait.lut import (RHO, SIGMA, InvalidLutError, Lut2D, LutDomainError,
                          UnreachableTargetError, moment_map)


class TestMomentMap:
    def test_closed_forms_are_consistent(self):
        assert moment_map(10.0, 3.0) == pytest.approx(2.5 * (6.0 - 10.0))
        # motor position for a moment at an angle, and the unloaded angle
        assert moment_map(RHO * 3.0 - 7.0 / SIGMA, 3.0) == pytest.approx(7.0)
        assert moment_map(10.0, 10.0 / RHO) == pytest.approx(0.0)


class TestEval:
    def test_exact_at_nodes(self, moment_lut):
        for a in (-40.0, -3.0, 0.0, 17.0, 40.0):
            for b in (-30.0, -1.0, 0.0, 12.0, 30.0):
                assert moment_lut.eval(a, b) == pytest.approx(moment_map(a, b))

    def test_bilinear_reproduces_affine_map_off_nodes(self, moment_lut):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(-40, 40)
            b = rng.uniform(-30, 30)
            assert moment_lut.eval(a, b) == pytest.approx(moment_map(a, b),
                                                          abs=1e-9)

    def test_rejects_out_of_domain(self, moment_lut):
        with pytest.raises(LutDomainError):
            moment_lut.eval(41.0, 0.0)
        with pytest.raises(LutDomainError):
            moment_lut.eval(0.0, -31.0)


class TestInvert:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(-39.0, 39.0), st.floats(-15.0, 15.0))
    def test_round_trip_fixed_angle(self, moment_lut, x, q):
        target = moment_lut.eval(x, q)
        x_back = moment_lut.invert(target, ("b", q))
        assert x_back == pytest.approx(x, abs=1e-9)

    def test_round_trip_fixed_motor(self, moment_lut):
        for x in (-20.0, 0.0, 13.5):
            for q in (-10.0, 0.5, 8.0):
                target = moment_lut.eval(x, q)
                assert moment_lut.invert(target, ("a", x)) == pytest.approx(
                    q, abs=1e-9)

    def test_unreachable_target(self, moment_lut):
        with pytest.raises(UnreachableTargetError):
            moment_lut.invert(1e6, ("b", 0.0))

    def test_inversion_requires_declared_monotonicity(self):
        # monotonicity is read off the values: strict along a, flat along b
        lut = Lut2D([0.0, 1.0], [0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InvalidLutError):
            lut.invert(0.5, ("a", 0.5))   # free axis b is not monotone
        assert lut.invert(0.5, ("b", 0.5)) == pytest.approx(0.5)
        # a rise-and-fall slice along a would have two roots for 0.5
        lut = Lut2D([0.0, 1.0, 2.0], [0.0, 1.0],
                    [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidLutError):
            lut.invert(0.5, ("b", 0.5))

    def test_decreasing_slices_invert(self, moment_lut):
        # values decrease along axis b (as a moment map does with angle)
        q = moment_lut.invert(0.0, ("a", 10.0))
        assert q == pytest.approx(10.0 / RHO)


def _outcome(call):
    """The float's bits, or the class of the exception raised."""
    try:
        return np.float64(call()).tobytes()
    except ValueError as exc:
        return type(exc)


# a non-uniform table that falls along both axes; its nodes are not all
# dyadic, so x + (y - x) can miss y and the bracketing cell shows
_FALLING = Lut2D([-2.0, -0.3, 0.1, 0.7, 3.5], [0.0, 0.1, 0.7, 2.0],
                 -np.add.outer([0.0, 1.5, 1.75, 4.0, 9.0],
                               [0.0, 0.3, 0.5, 2.5]))
_TABLES = (default_moment_lut(), _FALLING)


@st.composite
def _lut_queries(draw):
    """A table and a query on it.  Coordinates land on a node, inside the
    grid or just outside it; targets on the value at the drawn nodes,
    inside the table's range or far beyond it."""
    lut = draw(st.sampled_from(_TABLES))

    def coordinate(axis):
        lo, hi = float(axis[0]), float(axis[-1])
        node = draw(st.integers(0, len(axis) - 1))
        return node, draw(st.one_of(st.just(float(axis[node])),
                                    st.floats(lo, hi),
                                    st.floats(hi, hi + 1.0),
                                    st.floats(lo - 1.0, lo)))

    i, a = coordinate(lut.axis_a)
    j, b = coordinate(lut.axis_b)
    lo, hi = float(lut.values.min()), float(lut.values.max())
    target = draw(st.one_of(st.just(float(lut.values[i, j])),
                            st.floats(lo, hi),
                            st.sampled_from((lo - 1e6, hi + 1e6))))
    return lut, a, b, target, draw(st.sampled_from(("a", "b")))


class TestMatchesVectorisedReference:
    """eval and invert give, bit for bit, the result or the exception class
    of the slice + np.searchsorted formulation in helpers.py."""

    @settings(max_examples=400, deadline=None)
    @given(_lut_queries())
    def test_eval(self, query):
        lut, a, b, _, _ = query
        assert _outcome(lambda: lut.eval(a, b)) == _outcome(
            lambda: reference_lut_eval(lut.axis_a, lut.axis_b, lut.values,
                                       a, b))

    @settings(max_examples=400, deadline=None)
    @given(_lut_queries())
    def test_invert(self, query):
        lut, a, b, target, fixed_axis = query
        fixed = (fixed_axis, a if fixed_axis == "a" else b)
        assert _outcome(lambda: lut.invert(target, fixed)) == _outcome(
            lambda: reference_lut_invert(lut.axis_a, lut.axis_b, lut.values,
                                         target, fixed))


class TestValidation:
    def test_rejects_single_node_axis(self):
        with pytest.raises(InvalidLutError):
            Lut2D([0.0], [0.0, 1.0], [[0.0, 1.0]])

    def test_rejects_nonmonotone_axes(self):
        with pytest.raises(InvalidLutError):
            Lut2D([0.0, 0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidLutError):
            Lut2D([0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)))

    def test_both_axes_validated(self):
        values = np.array([[0.0, 1.0], [1.0, 2.0]])
        lut = Lut2D([0.0, 1.0], [0.0, 1.0], values)
        assert lut.invert(1.0, ("a", 0.0)) == pytest.approx(1.0)
        assert lut.invert(1.0, ("b", 0.0)) == pytest.approx(1.0)
