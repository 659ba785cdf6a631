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

    def test_bool_omega(self):
        with pytest.raises(BadStepError, match=r"^omega must be a positive finite number, got True$"):
            make_schedule(True)

    @pytest.mark.parametrize("origin", ["0", None, False])
    def test_origin_that_is_not_a_number(self, origin):
        with pytest.raises(BadStepError, match=rf"^origin must be finite, got {origin!r}$"):
            make_schedule(1.0, origin)

    @pytest.mark.parametrize("fraction", ["0.5", None, True])
    def test_fraction_that_is_not_a_number(self, fraction):
        with pytest.raises(BadFractionError, match=rf"^zeta_fraction must lie in \[0, 1\], got {fraction!r}$"):
            make_schedule(1.0, 0.0, fraction)
