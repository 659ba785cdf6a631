"""Interval schedule construction."""

import math

import pytest

from epcag import make_schedule, reference_schedule
from epcag.errors import BadFractionError, BadStepError


class TestConstruction:
    def test_unknown_preset(self):
        # make_schedule takes no preset names: a string omega fails the numeric check
        with pytest.raises(BadStepError, match="omega must be a positive finite number, got 'integer'"):
            make_schedule("integer")

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
