"""Logistic map steps, inverse branches, and orbit construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epcag import (
    DriverOrbit,
    ScalarMap,
    build_orbit,
    logistic_inverse,
    logistic_map,
    logistic_step,
    pair_orbits,
)
from epcag.driver import CONSISTENCY_TOL, _check_consistency
from epcag.errors import (
    BranchEscapeError,
    NoConvergenceError,
    OrbitCoverageError,
    OutOfDomainError,
    OutOfRangeError,
    RangeMismatchError,
)


class TestStepAndInverse:
    def test_step_values(self):
        assert logistic_step(4.0, 0.5) == 1.0
        assert logistic_step(4.0, 0.25) == 0.75
        assert logistic_step(3.9, 1.0 / 3.9) == pytest.approx(2.9 / 3.9, abs=1e-15)

    def test_step_domain(self):
        with pytest.raises(OutOfDomainError):
            logistic_step(4.0, 1.2)
        with pytest.raises(OutOfRangeError):
            logistic_step(4.5, 0.5)

    def test_inverse_values(self):
        # both branches meet at 1/2 on the parabola top
        assert logistic_inverse(4.0, 1.0, "lower_G") == pytest.approx(0.5, abs=1e-15)
        assert logistic_inverse(4.0, 1.0, "upper_H") == pytest.approx(0.5, abs=1e-15)
        assert logistic_inverse(4.0, 0.25, "lower_G") == pytest.approx(0.0669872981077807, abs=1e-12)
        assert logistic_inverse(3.9, 1.0 / 3.9, "upper_H") == pytest.approx(
            0.9292479241739284, abs=1e-12
        )

    def test_inverse_domain(self):
        # domain top is mu/4; a hair above is forgiven, more is not
        assert logistic_inverse(3.0, 0.75 * (1.0 + 1e-13), "lower_G") == pytest.approx(0.5)
        with pytest.raises(OutOfDomainError):
            logistic_inverse(3.0, 0.8, "lower_G")
        with pytest.raises(OutOfDomainError):
            logistic_inverse(4.0, -0.1, "lower_G")
        with pytest.raises(OutOfRangeError):
            logistic_inverse(4.0, 0.5, "middle")
        for mu in (0.0, 4.5, math.nan):
            with pytest.raises(OutOfRangeError, match=r"mu must lie in \(0, 4\]"):
                logistic_inverse(mu, 0.1, "lower_G")

    def test_branch_ranges(self):
        for s in np.linspace(0.0, 1.0, 41):
            assert 0.0 <= logistic_inverse(4.0, s, "lower_G") <= 0.5
            assert 0.5 <= logistic_inverse(4.0, s, "upper_H") <= 1.0

    @given(mu=st.floats(0.0, 4.0, exclude_min=True), frac=st.floats(0.0, 1.0 + 1e-13))
    @settings(max_examples=300, deadline=None)
    def test_branches_stay_in_their_ranges(self, mu, frac):
        # build_orbit relies on this and has no check of its own: with
        # disc in [0, 1], (1 + disc) / 2 lies in [1/2, 1], and
        # 2 s / (mu (1 + disc)) <= 2 s / mu <= 1/2 under monotone rounding
        s = frac * mu / 4.0
        assert 0.0 <= logistic_inverse(mu, s, "lower_G") <= 0.5
        assert 0.5 <= logistic_inverse(mu, s, "upper_H") <= 1.0

    @given(
        mu=st.floats(1.0, 4.0),
        frac=st.floats(0.0, 1.0),
        branch=st.sampled_from(["lower_G", "upper_H"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, mu, frac, branch):
        s = frac * mu / 4.0
        x = logistic_inverse(mu, s, branch)
        assert logistic_step(mu, x) == pytest.approx(s, abs=1e-13)

    def test_map_family_guard(self):
        with pytest.raises(OutOfRangeError):
            ScalarMap("tent", 2.0)
        with pytest.raises(OutOfRangeError):
            logistic_map(4.2)


class TestBuildOrbit:
    def test_fixed_orbit(self):
        m = logistic_map(3.9)
        star = 2.9 / 3.9
        orb = build_orbit(m, "fixed", star, k_min=-5, k_max=5)
        assert orb.k_min == -5 and orb.k_max == 5
        assert np.all(orb.values == star)
        # extension limits cover any k
        assert orb.value(-100)[0] == star
        assert orb.value(100)[0] == star

    def test_fixed_requires_fixed_point(self):
        with pytest.raises(NoConvergenceError):
            build_orbit(logistic_map(3.9), "fixed", 0.3, k_min=-5, k_max=5)

    def test_homoclinic_reference_orbit(self):
        m = logistic_map(3.9)
        star = 2.9 / 3.9
        orb = build_orbit(m, "homoclinic", 1.0 / 3.9, backward_branch="upper_H",
                          k_min=-40, k_max=40)
        assert orb.value(0)[0] == 1.0 / 3.9
        # one forward step lands exactly on the fixed point and stays
        assert orb.value(1)[0] == star
        assert orb.value(40)[0] == star
        assert orb.right_limit[0] == star
        assert orb.left_limit[0] == star
        # backward tail contracts toward the fixed point at ratio 1/1.9
        gaps = {k: abs(orb.value(k)[0] - star) for k in range(orb.k_min, 1)}
        for k in range(-39, -10):
            ratio = gaps[k - 1] / gaps[k]
            assert ratio == pytest.approx(1.0 / 1.9, rel=0.02)

    def test_heteroclinic_reference_orbit(self):
        orb = build_orbit(logistic_map(4.0), "heteroclinic", 0.25, backward_branch="lower_G",
                          k_min=-40, k_max=40)
        assert orb.value(1)[0] == 0.75
        assert orb.right_limit[0] == 0.75
        assert orb.left_limit[0] == 0.0
        gaps = {k: orb.value(k)[0] for k in range(orb.k_min, 0)}
        for k in range(-39, -10):
            assert gaps[k - 1] / gaps[k] == pytest.approx(0.25, rel=0.01)

    def test_backward_window_widens_to_meet_edge_gap(self):
        orb = build_orbit(logistic_map(4.0), "heteroclinic", 0.25, backward_branch="lower_G",
                          k_min=-10, k_max=10, edge_gap=1e-8)
        assert orb.k_min < -10
        assert abs(orb.value(orb.k_min)[0] - 0.0) <= 1e-8

    @pytest.mark.parametrize("mu, seed, branch", [(4.0, 0.25, "lower_G"), (3.9, 1.0 / 3.9, "upper_H")])
    def test_widened_window_is_the_first_step_that_meets_edge_gap(self, mu, seed, branch):
        # k_min = -10 and -20 leave a gap above 1e-8; -30 is the first
        # widening that meets it, and the stored tail is the plain
        # inverse-branch iteration from the seed
        orb = build_orbit(logistic_map(mu), "heteroclinic" if mu == 4.0 else "homoclinic", seed,
                          backward_branch=branch, k_min=-10, k_max=10)
        assert orb.k_min == -30
        back = [seed]
        for _ in range(30):
            back.append(logistic_inverse(mu, back[-1], branch))
        assert orb.values[:31, 0].tolist() == back[::-1]

    def test_orbit_consistency(self):
        orb = build_orbit(logistic_map(3.9), "homoclinic", 1.0 / 3.9, backward_branch="upper_H",
                          k_min=-30, k_max=30)
        vals = orb.values[:, 0]
        stepped = 3.9 * vals[:-1] * (1.0 - vals[:-1])
        assert np.abs(stepped - vals[1:]).max() <= 1e-12

    def test_window_must_contain_zero(self):
        with pytest.raises(OutOfRangeError):
            build_orbit(logistic_map(4.0), "fixed", 0.75, k_min=1, k_max=5)

    def test_homoclinic_needs_branch(self):
        with pytest.raises(OutOfRangeError):
            build_orbit(logistic_map(3.9), "homoclinic", 1.0 / 3.9)

    def test_branch_without_repelling_fixed_point(self):
        # mu = 2: the positive fixed point 1/2 has F' = 0, useless backward
        with pytest.raises(NoConvergenceError):
            build_orbit(logistic_map(2.0), "homoclinic", 0.3, backward_branch="upper_H")

    def test_no_forward_convergence(self):
        # mu = 3.6 orbits wander chaotically, never settling on a fixed point
        with pytest.raises(NoConvergenceError):
            build_orbit(logistic_map(3.6), "homoclinic", 0.3, backward_branch="upper_H",
                        k_min=-10, k_max=10)

    @pytest.mark.parametrize("mu", [2.5, 3.9])
    def test_unknown_backward_branch(self, mu):
        # refused before any sweep, with logistic_inverse's message; at
        # mu = 2.5 the branch fixed point search would read any name but
        # lower_G as the upper branch and report no convergence
        with pytest.raises(OutOfRangeError, match=r"branch must be 'lower_G' or 'upper_H', got 'bogus'"):
            build_orbit(logistic_map(mu), "homoclinic", 0.3, backward_branch="bogus")

    def test_seed_domain(self):
        with pytest.raises(OutOfDomainError, match=r"seed must lie in \[0, 1\], got 1.5"):
            build_orbit(logistic_map(4.0), "heteroclinic", 1.5, backward_branch="lower_G")

    def test_unknown_kind(self):
        with pytest.raises(OutOfRangeError, match="unknown orbit kind 'periodic'"):
            build_orbit(logistic_map(4.0), "periodic", 0.25, backward_branch="lower_G")

    def test_slow_forward_approach_within_edge_gap(self):
        # mu = 2.9: F' = -0.9 at the fixed point 19/29, so 200 steps from
        # 0.3 leave about 2e-10, inside edge_gap but not pinned
        star = 1.9 / 2.9
        orb = build_orbit(logistic_map(2.9), "heteroclinic", 0.3, backward_branch="lower_G", k_max=200)
        assert orb.right_limit[0] == star
        assert 1e-13 < abs(orb.values[-1, 0] - star) <= orb.edge_gap

    def test_homoclinic_forward_limit_off_the_branch_fixed_point(self):
        # F(1/4) = 3/4 at mu = 4, but the lower branch's fixed point is 0
        with pytest.raises(NoConvergenceError, match="must return to the branch fixed point 0.0, forward limit is 0.75"):
            build_orbit(logistic_map(4.0), "homoclinic", 0.25, backward_branch="lower_G")

    def test_heteroclinic_limits_coincide(self):
        # 1/2 -> 1 -> 0, the lower branch's own fixed point
        with pytest.raises(NoConvergenceError, match="heteroclinic orbit limits coincide"):
            build_orbit(logistic_map(4.0), "heteroclinic", 0.5, backward_branch="lower_G")

    def test_backward_iterate_leaves_the_branch_domain(self):
        # at mu = 2.5 the inverse branches take s <= mu/4 = 0.625 only
        with pytest.raises(BranchEscapeError, match="left the branch domain: s = 0.7 exceeds"):
            build_orbit(logistic_map(2.5), "heteroclinic", 0.7, backward_branch="lower_G", k_max=60)

    def test_widening_floor(self):
        # the lower branch quarters the gap to 0 each step: 4^-200 is far
        # above an edge_gap of 1e-300
        with pytest.raises(NoConvergenceError, match="still above edge_gap 1e-300 at the widening floor k = -200"):
            build_orbit(logistic_map(4.0), "heteroclinic", 0.25, backward_branch="lower_G", edge_gap=1e-300)

    def test_consistency_check(self):
        # build_orbit's own orbits pass it (test_seed_above_the_domain_top);
        # a window off F by more than CONSISTENCY_TOL is refused
        vals = np.array([[0.25], [0.75 + 2 * CONSISTENCY_TOL]])
        orb = DriverOrbit(0, 1, vals, None, None, 1e-8)
        with pytest.raises(NoConvergenceError, match="orbit consistency violated"):
            _check_consistency(logistic_map(4.0), orb)

    def test_seed_above_the_domain_top(self):
        # logistic_inverse forgives s up to CONSISTENCY_TOL above mu/4 by
        # the consistency check's own |F(1/2) - s|, so a seed it takes
        # builds; 1e-12 relative is 1.00009e-12 above this top, which is
        # refused as leaving the domain rather than as inconsistent
        m, top = logistic_map(3.9999), 3.9999 / 4.0
        orb = build_orbit(m, "heteroclinic", top + CONSISTENCY_TOL, backward_branch="lower_G",
                          k_max=8, edge_gap=0.3)
        assert orb.value(0)[0] == top + CONSISTENCY_TOL
        assert orb.value(-1)[0] == 0.5
        with pytest.raises(OutOfDomainError, match="exceeds the branch domain top"):
            logistic_inverse(3.9999, top + 2 * CONSISTENCY_TOL, "lower_G")
        with pytest.raises(BranchEscapeError, match="left the branch domain"):
            build_orbit(m, "heteroclinic", top * (1.0 + 1e-12), backward_branch="lower_G",
                        k_max=8, edge_gap=0.3)

    def test_orbit_coverage_error_without_limits(self):
        orb = DriverOrbit(k_min=0, k_max=2, values=np.zeros((3, 1)),
                          left_limit=None, right_limit=None, edge_gap=1e-8)
        with pytest.raises(OrbitCoverageError):
            orb.value(-1)
        with pytest.raises(OrbitCoverageError):
            orb.value(3)

    @pytest.mark.parametrize("left, right", [(None, None), (-1.0, None), (None, 9.0), (-1.0, 9.0)])
    def test_span_equals_stacked_values(self, left, right):
        orb = DriverOrbit(k_min=2, k_max=6, values=np.arange(10.0).reshape(5, 2),
                          left_limit=None if left is None else np.array([left, -left]),
                          right_limit=None if right is None else np.array([right, -right]), edge_gap=1e-8)
        lo_k = 2 if left is None else -3
        hi_k = 7 if right is None else 12
        for k_lo in range(lo_k, hi_k):
            for k_hi in range(k_lo + 1, hi_k + 1):
                want = np.stack([orb.value(k) for k in range(k_lo, k_hi)])
                got = orb.span(k_lo, k_hi)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_span_names_the_first_uncovered_interval(self):
        orb = DriverOrbit(k_min=0, k_max=2, values=np.zeros((3, 1)),
                          left_limit=None, right_limit=None, edge_gap=1e-8)
        with pytest.raises(OrbitCoverageError, match=r"^k = -2 below window start 0 and no left limit declared$"):
            orb.span(-2, 5)
        with pytest.raises(OrbitCoverageError, match=r"^k = 3 above window end 2 and no right limit declared$"):
            orb.span(1, 5)
        with pytest.raises(OrbitCoverageError, match=r"^k = 4 above window end 2 and no right limit declared$"):
            orb.span(4, 5)


class TestPairAndGaps:
    def test_pair_orbits(self):
        m = logistic_map(4.0)
        a = build_orbit(m, "fixed", 0.75, k_min=-3, k_max=3)
        p = pair_orbits(a, a)
        assert p.dim == 2
        assert p.value(0) == pytest.approx([0.75, 0.75])
        assert p.left_limit == pytest.approx([0.75, 0.75])
        assert p.mus == (4.0, 4.0)

    def test_pair_window_mismatch(self):
        m = logistic_map(4.0)
        a = build_orbit(m, "fixed", 0.75, k_min=-3, k_max=3)
        b = build_orbit(m, "fixed", 0.75, k_min=-4, k_max=3)
        with pytest.raises(RangeMismatchError):
            pair_orbits(a, b)

    def test_pair_needs_scalar_orbits(self):
        a = build_orbit(logistic_map(4.0), "fixed", 0.75, k_min=-3, k_max=3)
        with pytest.raises(RangeMismatchError, match="pair_orbits expects scalar orbits"):
            pair_orbits(pair_orbits(a, a), a)

    def test_pair_keeps_a_missing_limit_missing(self):
        a = build_orbit(logistic_map(4.0), "fixed", 0.75, k_min=-3, k_max=3)
        open_left = DriverOrbit(-3, 3, a.values, None, a.right_limit, a.edge_gap)
        p = pair_orbits(a, open_left)
        assert p.left_limit is None
        assert p.right_limit.tolist() == [0.75, 0.75]
