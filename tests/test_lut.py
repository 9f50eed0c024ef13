import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_lut_eval, reference_lut_invert
from softgait.controllers import default_moment_lut
from softgait.lut import RHO, SIGMA, InvalidLutError, Lut2D, moment_map


class TestMomentMap:
    def test_closed_forms_are_consistent(self):
        assert moment_map(10.0, 3.0) == pytest.approx(2.5 * (6.0 - 10.0))
        # motor position for a moment at an angle, and the unloaded angle
        assert moment_map(RHO * 3.0 - 7.0 / SIGMA, 3.0) == pytest.approx(7.0)
        assert moment_map(10.0, 10.0 / RHO) == pytest.approx(0.0)


class TestEval:
    def test_exact_at_nodes(self, moment_lut):
        a, b = np.meshgrid([-40.0, -3.0, 0.0, 17.0, 40.0],
                           [-30.0, -1.0, 0.0, 12.0, 30.0])
        assert moment_lut.eval_array(a, b) == pytest.approx(moment_map(a, b))

    def test_bilinear_reproduces_affine_map_off_nodes(self, moment_lut):
        rng = np.random.default_rng(3)
        a = rng.uniform(-40, 40, 100)
        b = rng.uniform(-30, 30, 100)
        assert moment_lut.eval_array(a, b) == pytest.approx(moment_map(a, b),
                                                            abs=1e-9)


class TestInvert:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(-39.0, 39.0), st.floats(-15.0, 15.0))
    def test_round_trip_fixed_angle(self, moment_lut, x, q):
        target = float(moment_lut.eval_array(x, q))
        x_back = moment_lut.invert(target, ("b", q))
        assert x_back == pytest.approx(x, abs=1e-9)

    def test_round_trip_fixed_motor(self, moment_lut):
        for x in (-20.0, 0.0, 13.5):
            for q in (-10.0, 0.5, 8.0):
                target = float(moment_lut.eval_array(x, q))
                assert moment_lut.invert(target, ("a", x)) == pytest.approx(
                    q, abs=1e-9)

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


# a non-uniform table that falls along both axes; its nodes are not all
# dyadic, so x + (y - x) can miss y and the bracketing cell shows
_FALLING = Lut2D([-2.0, -0.3, 0.1, 0.7, 3.5], [0.0, 0.1, 0.7, 2.0],
                 -np.add.outer([0.0, 1.5, 1.75, 4.0, 9.0],
                               [0.0, 0.3, 0.5, 2.5]))
_TABLES = (default_moment_lut(), _FALLING)
# the same grid rising along both axes
_RISING = Lut2D(_FALLING.axis_a, _FALLING.axis_b, -_FALLING.values)


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


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestMatchesVectorisedReference:
    """eval_array and invert give, bit for bit, the result of the slice +
    np.searchsorted formulation in helpers.py, saturation included."""

    @settings(max_examples=400, deadline=None)
    @given(_lut_queries())
    def test_eval(self, query):
        lut, a, b, _, _ = query
        assert _bits(lut.eval_array(a, b)) == _bits(
            reference_lut_eval(lut.axis_a, lut.axis_b, lut.values, a, b))

    @settings(max_examples=400, deadline=None)
    @given(_lut_queries())
    def test_invert(self, query):
        lut, a, b, target, fixed_axis = query
        fixed = (fixed_axis, a if fixed_axis == "a" else b)
        assert _bits(lut.invert(target, fixed)) == _bits(
            reference_lut_invert(lut.axis_a, lut.axis_b, lut.values, target,
                                 fixed))


def _coordinates(axis, rng, k=40):
    """k random points across the axis, every node, then both edges."""
    return np.concatenate([rng.uniform(axis[0], axis[-1], k), axis,
                           axis[[0, -1]]])


@pytest.mark.parametrize("lut", (default_moment_lut(), _FALLING, _RISING),
                         ids=("moment", "falling", "rising"))
class TestArrayForms:
    """eval_array and invert_array give, element for element and bit for
    bit, the scalar invert and the helpers.py references, saturating where
    they do."""

    def test_eval_array(self, lut):
        rng = np.random.default_rng(0)
        a, b = np.meshgrid(_coordinates(lut.axis_a, rng),
                           _coordinates(lut.axis_b, rng))
        a, b = a.ravel(), b.ravel()
        pairs = list(zip(a.tolist(), b.tolist()))
        out = lut.eval_array(a, b)
        assert out.shape == a.shape
        assert _bits(out) == _bits([
            reference_lut_eval(lut.axis_a, lut.axis_b, lut.values, x, y)
            for x, y in pairs])

    @pytest.mark.parametrize("fixed_axis", ("a", "b"))
    def test_invert_array(self, lut, fixed_axis):
        rng = np.random.default_rng(1)
        fixed_grid, free_grid = ((lut.axis_a, lut.axis_b) if fixed_axis == "a"
                                 else (lut.axis_b, lut.axis_a))
        fixed, free = np.meshgrid(_coordinates(fixed_grid, rng),
                                  _coordinates(free_grid, rng))
        fixed, free = fixed.ravel(), free.ravel()
        # targets read off the table, so each is inside its slice: at random
        # points, at the nodes and at both ends of the slice's range
        target = (lut.eval_array(fixed, free) if fixed_axis == "a"
                  else lut.eval_array(free, fixed))
        queries = list(zip(target.tolist(), fixed.tolist()))
        out = lut.invert_array(target, (fixed_axis, fixed))
        assert _bits(out) == _bits([lut.invert(t, (fixed_axis, c))
                                    for t, c in queries])
        assert _bits(out) == _bits([
            reference_lut_invert(lut.axis_a, lut.axis_b, lut.values, t,
                                 (fixed_axis, c)) for t, c in queries])
        # a float target broadcasts against the fixed coordinates
        t0, c0 = queries[0]
        one = lut.invert_array(t0, (fixed_axis, fixed[:1]))
        assert _bits(one) == _bits([lut.invert(t0, (fixed_axis, c0))])

    def test_saturates_like_the_scalar_form(self, lut):
        # coordinates off the grid, targets beyond their slice and NaNs,
        # each at one element among in-range ones
        a = np.linspace(lut.axis_a[0], lut.axis_a[-1], 9)
        b = np.linspace(lut.axis_b[0], lut.axis_b[-1], 9)
        target = lut.eval_array(a, b)
        for off_a, off_b, off_t in (
                (lut.axis_a[-1] + 1e-9, b[4], target[4]),
                (lut.axis_a[0] - 1.0, lut.axis_b[-1] + 3.0, target[4]),
                (a[4], b[4], lut.values.max() + 1.0),
                (a[4], lut.axis_b[0] - 1e-9, lut.values.min() - 1.0),
                (np.nan, b[4], target[4]), (a[4], b[4], np.nan)):
            aa, bb, tt = a.copy(), b.copy(), target.copy()
            aa[4], bb[4], tt[4] = off_a, off_b, off_t
            pairs = list(zip(aa.tolist(), bb.tolist()))
            assert _bits(lut.eval_array(aa, bb)) == _bits([
                reference_lut_eval(lut.axis_a, lut.axis_b, lut.values, x, y)
                for x, y in pairs])
            for fixed_axis, fixed in (("a", aa), ("b", bb)):
                queries = list(zip(tt.tolist(), fixed.tolist()))
                out = lut.invert_array(tt, (fixed_axis, fixed))
                assert _bits(out) == _bits([lut.invert(t, (fixed_axis, c))
                                            for t, c in queries])
                assert _bits(out) == _bits([
                    reference_lut_invert(lut.axis_a, lut.axis_b, lut.values,
                                         t, (fixed_axis, c))
                    for t, c in queries])

    def test_invert_array_requires_monotone_slices(self, lut):
        flat = Lut2D(lut.axis_a, lut.axis_b,
                     np.zeros_like(lut.values) + lut.axis_a[:, None])
        with pytest.raises(InvalidLutError):
            flat.invert_array(0.0, ("a", lut.axis_a[:2]))


@pytest.mark.parametrize("lut", (default_moment_lut(), _FALLING, _RISING),
                         ids=("moment", "falling", "rising"))
class TestSaturation:
    """A table saturates at its range, as the actuator it stands for does:
    a coordinate off the grid reads the grid's edge, a target beyond its
    slice gives the free axis' end node, and NaN in gives NaN out."""

    def test_off_grid_coordinate_reads_the_edge(self, lut):
        a_lo, a_hi = lut.axis_a[[0, -1]].tolist()
        b_lo, b_hi = lut.axis_b[[0, -1]].tolist()
        b_mid = float(np.mean(lut.axis_b[:2]))
        for off, edge in ((a_hi + 1e-9, a_hi), (a_lo - 1.0, a_lo),
                          (np.inf, a_hi), (-np.inf, a_lo)):
            assert _bits(lut.eval_array(off, b_mid)) == _bits(
                lut.eval_array(edge, b_mid))
            both_off = lut.eval_array([off, a_lo], [b_hi + 5.0, b_lo - 5.0])
            assert _bits(both_off) == _bits(
                lut.eval_array([edge, a_lo], [b_hi, b_lo]))
            target = float(lut.eval_array(edge, b_mid))
            assert _bits(lut.invert(target, ("a", off))) == _bits(
                lut.invert(target, ("a", edge)))
            assert _bits(lut.invert_array([target], ("a", [off]))) == _bits(
                lut.invert_array([target], ("a", [edge])))
        target = float(lut.eval_array(a_lo, b_lo))
        assert _bits(lut.invert(target, ("b", b_lo - 0.5))) == _bits(
            lut.invert(target, ("b", b_lo)))

    @pytest.mark.parametrize("fixed_axis", ("a", "b"))
    def test_beyond_slice_target_returns_end_node(self, lut, fixed_axis):
        fixed_grid, free_grid = ((lut.axis_a, lut.axis_b) if fixed_axis == "a"
                                 else (lut.axis_b, lut.axis_a))
        for c in (fixed_grid[0], np.mean(fixed_grid[1:3]), fixed_grid[-1],
                  fixed_grid[-1] + 1.0):
            c = float(c)
            slice_ = (lut.eval_array(c, free_grid) if fixed_axis == "a"
                      else lut.eval_array(free_grid, c))
            top, bottom = slice_.max(), slice_.min()
            for target, node in (
                    (np.nextafter(top, np.inf), free_grid[slice_.argmax()]),
                    (top + 1e6, free_grid[slice_.argmax()]),
                    (np.inf, free_grid[slice_.argmax()]),
                    (np.nextafter(bottom, -np.inf),
                     free_grid[slice_.argmin()]),
                    (bottom - 1e6, free_grid[slice_.argmin()])):
                assert _bits(lut.invert(float(target), (fixed_axis, c))) \
                    == _bits(node)
                # among in-range targets in the array form
                out = lut.invert_array([top, target, bottom],
                                       (fixed_axis, [c, c, c]))
                assert _bits(out[1]) == _bits(node)

    def test_nan_in_gives_nan_out(self, lut):
        a = lut.axis_a[[0, 1, -1]]
        b = lut.axis_b[[0, 1, -1]]
        target = lut.eval_array(a, b)
        for i in range(3):
            assert np.isnan(lut.eval_array(np.nan, b[i]))
            assert np.isnan(lut.eval_array(a[i], np.nan))
            for fixed_axis, c in (("a", a[i]), ("b", b[i])):
                assert np.isnan(lut.invert(np.nan, (fixed_axis, c)))
                assert np.isnan(lut.invert(target[i], (fixed_axis, np.nan)))
            for fixed_axis, fixed in (("a", a), ("b", b)):
                nan_fixed = fixed.copy()
                nan_fixed[i] = np.nan
                nan_target = target.copy()
                nan_target[i] = np.nan
                for tt, cc in ((target, nan_fixed), (nan_target, fixed)):
                    out = lut.invert_array(tt, (fixed_axis, cc))
                    assert np.isnan(out).tolist() == [k == i
                                                      for k in range(3)]


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
