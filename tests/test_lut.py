import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softgait.lut import (InvalidLutError, Lut2D, LutDomainError,
                          SyntheticMomentMap, UnreachableTargetError)


class TestSyntheticMomentMap:
    def test_closed_forms_are_consistent(self):
        m = SyntheticMomentMap(sigma=2.5, rho=2.0)
        assert m(10.0, 3.0) == pytest.approx(2.5 * (10.0 - 6.0))
        # motor position for a moment at an angle, and the unloaded angle
        assert m(7.0 / m.sigma + m.rho * 3.0, 3.0) == pytest.approx(7.0)
        assert m(10.0, 10.0 / m.rho) == pytest.approx(0.0)

    def test_rejects_nonpositive_gains(self):
        with pytest.raises(ValueError):
            SyntheticMomentMap(sigma=0.0)
        with pytest.raises(ValueError):
            SyntheticMomentMap(rho=-1.0)


class TestEval:
    def test_exact_at_nodes(self, moment_lut):
        m = SyntheticMomentMap()
        for a in (-40.0, -3.0, 0.0, 17.0, 40.0):
            for b in (-30.0, -1.0, 0.0, 12.0, 30.0):
                assert moment_lut.eval(a, b) == pytest.approx(m(a, b))

    def test_bilinear_reproduces_affine_map_off_nodes(self, moment_lut):
        m = SyntheticMomentMap()
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(-40, 40)
            b = rng.uniform(-30, 30)
            assert moment_lut.eval(a, b) == pytest.approx(m(a, b), abs=1e-9)

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
        assert q == pytest.approx(10.0 / SyntheticMomentMap().rho)


class TestValidation:
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
