"""Interval schedule construction and location."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epcag import locate, make_schedule, reference_schedule
from epcag.errors import BadFractionError, BadStepError


class TestConstruction:
    def test_integer_preset(self):
        s = make_schedule("integer")
        assert (s.omega, s.origin, s.zeta_fraction) == (1.0, 0.0, 0.0)
        assert s.node(3) == 3.0
        assert s.zeta(3) == 3.0

    def test_shifted_preset(self):
        s = make_schedule("shifted", 3, 1)
        # nodes 3k - 1, argument points 3k
        assert s.node(0) == -1.0
        assert s.node(1) == 2.0
        assert s.zeta(0) == 0.0
        assert s.zeta(2) == 6.0

    def test_shifted_preset_rejects_bad_integers(self):
        with pytest.raises(BadStepError):
            make_schedule("shifted", 1, 2)
        with pytest.raises(BadStepError):
            make_schedule("shifted", 3.0, 1)

    def test_unknown_preset(self):
        with pytest.raises(BadStepError, match="unknown preset 'weekly'"):
            make_schedule("weekly")

    def test_explicit_example(self):
        s = make_schedule(2.0, -1.0, 0.5)
        assert s.node(0) == -1.0
        assert s.zeta(0) == 0.0
        assert s.node(1) == 1.0

    def test_reference_schedule(self):
        s = reference_schedule()
        assert s.node(2) == 3.0
        assert s.zeta(0) == 0.5
        assert s.zeta(-1) == -1.0

    def test_bad_omega(self):
        with pytest.raises(BadStepError):
            make_schedule(-1.0)
        with pytest.raises(BadStepError):
            make_schedule(0.0)
        with pytest.raises(BadStepError):
            make_schedule(math.inf)

    @pytest.mark.parametrize("origin", [math.nan, math.inf, -math.inf])
    def test_bad_origin(self, origin):
        with pytest.raises(BadStepError, match="origin must be finite"):
            make_schedule(1.5, origin, 0.5)

    def test_bad_fraction(self):
        with pytest.raises(BadFractionError):
            make_schedule(1.5, 0.0, 1.5)
        with pytest.raises(BadFractionError):
            make_schedule(1.5, 0.0, -0.1)


class TestLocate:
    def test_reference_points(self):
        s = reference_schedule()
        k, theta, zeta = locate(s, 2.0)
        assert (k, zeta) == (1, 2.0)
        assert theta == 1.5
        assert locate(s, 1.5).k == 1
        assert locate(s, 1.4999999).k == 0

    def test_integer_grid_negative_time(self):
        s = make_schedule("integer")
        k, theta, zeta = locate(s, -0.25)
        assert (k, theta, zeta) == (-1, -1.0, -1.0)

    def test_node_snap(self):
        s = reference_schedule()
        # a node perturbed by under the snap tolerance lands on the right
        assert locate(s, 3.0 - 1e-14).k == 2
        assert locate(s, 3.0 + 1e-14).k == 2

    def test_non_finite_time(self):
        with pytest.raises(BadStepError):
            locate(reference_schedule(), math.nan)

    @given(
        t=st.floats(-1e4, 1e4),
        omega=st.floats(0.1, 10.0),
        origin=st.floats(-5.0, 5.0),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_bracketing_invariant(self, t, omega, origin, frac):
        s = make_schedule(omega, origin, frac)
        k, theta, zeta = locate(s, t)
        # up to the documented snap, theta_k <= t < theta_{k+1}
        slop = 1e-12 * max(1.0, abs(t) / omega) * omega
        assert theta <= t + slop
        assert t < theta + omega + slop
        assert zeta == pytest.approx(theta + frac * omega, abs=1e-12)
