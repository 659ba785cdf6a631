"""Logistic map steps, inverse branches, and orbit construction."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epcag import (
    DriverOrbit,
    build_orbit,
    logistic_inverse,
    logistic_step,
    pair_orbits,
)
from epcag.driver import (
    CONSISTENCY_TOL,
    ORBIT_KINDS,
    PIN_TOL,
    WIDEN_K_MIN,
    _branch_fixed_point,
    _check_branch,
    _check_consistency,
    _fixed_points,
)
from epcag.errors import (
    BranchEscapeError,
    EpcagError,
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

    # mu and s are real numbers, not bools: True read as 1, and a string
    # raised a bare TypeError. Each refusal keeps the range's message
    @pytest.mark.parametrize("mu", [True, np.True_, "4", None], ids=["bool", "numpy-bool", "string", "none"])
    def test_mu_must_be_a_real_number(self, mu):
        msg = re.escape(f"mu must lie in (0, 4], got {mu!r}")
        with pytest.raises(OutOfRangeError, match=msg):
            logistic_step(mu, 0.5)
        with pytest.raises(OutOfRangeError, match=msg):
            logistic_inverse(mu, 0.1, "lower_G")

    @pytest.mark.parametrize("s", [True, np.True_, "0.5", None], ids=["bool", "numpy-bool", "string", "none"])
    def test_s_must_be_a_real_number(self, s):
        with pytest.raises(OutOfDomainError, match=re.escape(f"s must lie in [0, 1], got {s!r}")):
            logistic_step(4.0, s)
        with pytest.raises(OutOfDomainError, match=re.escape(f"s must be nonnegative, got {s!r}")):
            logistic_inverse(4.0, s, "lower_G")

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
        # only the logistic family is bundled; its mu lies in (0, 4]
        for mu in (0.0, 4.2, math.nan):
            with pytest.raises(OutOfRangeError, match=r"^logistic mu must lie in \(0, 4\], got "):
                build_orbit(mu, "fixed", 0.0, k_min=-2, k_max=2)


class TestBuildOrbit:
    def test_fixed_orbit(self):
        star = 2.9 / 3.9
        orb = build_orbit(3.9, "fixed", star, k_min=-5, k_max=5)
        assert orb.k_min == -5 and orb.k_max == 5
        assert np.all(orb.values == star)
        # extension limits cover any k
        assert orb.value(-100)[0] == star
        assert orb.value(100)[0] == star

    def test_fixed_requires_fixed_point(self):
        with pytest.raises(NoConvergenceError):
            build_orbit(3.9, "fixed", 0.3, k_min=-5, k_max=5)

    def test_homoclinic_reference_orbit(self):
        star = 2.9 / 3.9
        orb = build_orbit(3.9, "homoclinic", 1.0 / 3.9, backward_branch="upper_H",
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
        orb = build_orbit(4.0, "heteroclinic", 0.25, backward_branch="lower_G",
                          k_min=-40, k_max=40)
        assert orb.value(1)[0] == 0.75
        assert orb.right_limit[0] == 0.75
        assert orb.left_limit[0] == 0.0
        gaps = {k: orb.value(k)[0] for k in range(orb.k_min, 0)}
        for k in range(-39, -10):
            assert gaps[k - 1] / gaps[k] == pytest.approx(0.25, rel=0.01)

    def test_backward_window_widens_to_meet_edge_gap(self):
        orb = build_orbit(4.0, "heteroclinic", 0.25, backward_branch="lower_G",
                          k_min=-10, k_max=10, edge_gap=1e-8)
        assert orb.k_min < -10
        assert abs(orb.value(orb.k_min)[0] - 0.0) <= 1e-8

    @pytest.mark.parametrize("mu, seed, branch", [(4.0, 0.25, "lower_G"), (3.9, 1.0 / 3.9, "upper_H")])
    def test_widened_window_is_the_first_step_that_meets_edge_gap(self, mu, seed, branch):
        # k_min = -10 and -20 leave a gap above 1e-8; -30 is the first
        # widening that meets it, and the stored tail is the plain
        # inverse-branch iteration from the seed
        orb = build_orbit(mu, "heteroclinic" if mu == 4.0 else "homoclinic", seed,
                          backward_branch=branch, k_min=-10, k_max=10)
        assert orb.k_min == -30
        back = [seed]
        for _ in range(30):
            back.append(logistic_inverse(mu, back[-1], branch))
        assert orb.values[:31, 0].tolist() == back[::-1]

    def test_orbit_consistency(self):
        orb = build_orbit(3.9, "homoclinic", 1.0 / 3.9, backward_branch="upper_H",
                          k_min=-30, k_max=30)
        vals = orb.values[:, 0]
        stepped = 3.9 * vals[:-1] * (1.0 - vals[:-1])
        assert np.abs(stepped - vals[1:]).max() <= 1e-12

    def test_window_must_contain_zero(self):
        with pytest.raises(OutOfRangeError):
            build_orbit(4.0, "fixed", 0.75, k_min=1, k_max=5)

    def test_homoclinic_needs_branch(self):
        with pytest.raises(OutOfRangeError):
            build_orbit(3.9, "homoclinic", 1.0 / 3.9)

    def test_branch_without_repelling_fixed_point(self):
        # mu = 2: the positive fixed point 1/2 has F' = 0, useless backward
        with pytest.raises(NoConvergenceError):
            build_orbit(2.0, "homoclinic", 0.3, backward_branch="upper_H")

    def test_no_forward_convergence(self):
        # mu = 3.6 orbits wander chaotically, never settling on a fixed point
        with pytest.raises(NoConvergenceError):
            build_orbit(3.6, "homoclinic", 0.3, backward_branch="upper_H",
                        k_min=-10, k_max=10)

    @pytest.mark.parametrize("mu", [2.5, 3.9])
    def test_unknown_backward_branch(self, mu):
        # refused before any sweep, with logistic_inverse's message; at
        # mu = 2.5 the branch fixed point search would read any name but
        # lower_G as the upper branch and report no convergence
        with pytest.raises(OutOfRangeError, match=r"branch must be 'lower_G' or 'upper_H', got 'bogus'"):
            build_orbit(mu, "homoclinic", 0.3, backward_branch="bogus")

    def test_seed_domain(self):
        with pytest.raises(OutOfDomainError, match=r"seed must lie in \[0, 1\], got 1.5"):
            build_orbit(4.0, "heteroclinic", 1.5, backward_branch="lower_G")

    def test_unknown_kind(self):
        with pytest.raises(OutOfRangeError, match="unknown orbit kind 'periodic'"):
            build_orbit(4.0, "periodic", 0.25, backward_branch="lower_G")

    def test_bool_mu_is_refused(self):
        # True once built the mu = 1 map
        with pytest.raises(OutOfRangeError, match=r"^logistic mu must lie in \(0, 4\], got True$"):
            build_orbit(True, "fixed", 0.0, k_min=-2, k_max=2)

    @pytest.mark.parametrize("mu", ["4.0", None, [4.0], complex(4.0, 0.0)])
    def test_non_real_mu_is_refused(self, mu):
        with pytest.raises(OutOfRangeError, match=r"^logistic mu must lie in \(0, 4\], got "):
            build_orbit(mu, "fixed", 0.0, k_min=-2, k_max=2)

    @pytest.mark.parametrize("seed", [False, True])
    def test_bool_seed_is_refused(self, seed):
        # False once built an orbit of bool values and limits
        with pytest.raises(OutOfDomainError, match=rf"^seed must lie in \[0, 1\], got {seed}$"):
            build_orbit(4.0, "fixed", seed, k_min=-2, k_max=2)

    @pytest.mark.parametrize("seed", ["0.5", None, [0.25]])
    def test_non_real_seed_is_refused(self, seed):
        with pytest.raises(OutOfDomainError, match=r"^seed must lie in \[0, 1\], got "):
            build_orbit(4.0, "heteroclinic", seed, backward_branch="lower_G")

    @pytest.mark.parametrize("window", [{"k_min": -2.5}, {"k_max": 2.0}, {"k_min": "-2"}, {"k_max": None}])
    def test_non_integer_window_is_refused(self, window):
        # k_min = -2.5 once built a window starting at k = -42.5
        with pytest.raises(OutOfRangeError, match="^need k_min <= 0 <= k_max with k_min < k_max, got "):
            build_orbit(4.0, "heteroclinic", 0.25, backward_branch="lower_G", **window)

    @pytest.mark.parametrize("window", [{"k_min": False}, {"k_max": True}])
    def test_bool_window_is_refused(self, window):
        with pytest.raises(OutOfRangeError, match="^need k_min <= 0 <= k_max with k_min < k_max, got "):
            build_orbit(4.0, "fixed", 0.75, **window)

    def test_integer_arguments_build_a_float_orbit(self):
        # an int seed once gave int64 values; numpy integers bound the window
        orb = build_orbit(4, "fixed", 0, k_min=np.int64(-2), k_max=np.int64(2))
        assert orb.values.dtype == orb.left_limit.dtype == orb.right_limit.dtype == np.float64
        assert orb.values.tolist() == [[0.0]] * 5
        assert type(orb.k_min) is int and type(orb.k_max) is int and (orb.k_min, orb.k_max) == (-2, 2)

    def test_slow_forward_approach_within_edge_gap(self):
        # mu = 2.9: F' = -0.9 at the fixed point 19/29, so 200 steps from
        # 0.3 leave about 2e-10, inside edge_gap but not pinned
        star = 1.9 / 2.9
        orb = build_orbit(2.9, "heteroclinic", 0.3, backward_branch="lower_G", k_max=200)
        assert orb.right_limit[0] == star
        assert 1e-13 < abs(orb.values[-1, 0] - star) <= orb.edge_gap

    def test_homoclinic_forward_limit_off_the_branch_fixed_point(self):
        # F(1/4) = 3/4 at mu = 4, but the lower branch's fixed point is 0
        with pytest.raises(NoConvergenceError, match="must return to the branch fixed point 0.0, forward limit is 0.75"):
            build_orbit(4.0, "homoclinic", 0.25, backward_branch="lower_G")

    def test_heteroclinic_limits_coincide(self):
        # 1/2 -> 1 -> 0, the lower branch's own fixed point
        with pytest.raises(NoConvergenceError, match="heteroclinic orbit limits coincide"):
            build_orbit(4.0, "heteroclinic", 0.5, backward_branch="lower_G")

    def test_backward_iterate_leaves_the_branch_domain(self):
        # at mu = 2.5 the inverse branches take s <= mu/4 = 0.625 only
        with pytest.raises(BranchEscapeError, match="left the branch domain: s = 0.7 exceeds"):
            build_orbit(2.5, "heteroclinic", 0.7, backward_branch="lower_G", k_max=60)

    def test_widening_floor(self):
        # the lower branch quarters the gap to 0 each step: 4^-200 is far
        # above an edge_gap of 1e-300
        with pytest.raises(NoConvergenceError, match="still above edge_gap 1e-300 at the widening floor k = -200"):
            build_orbit(4.0, "heteroclinic", 0.25, backward_branch="lower_G", edge_gap=1e-300)

    def test_consistency_check(self):
        # build_orbit's own orbits pass it (test_seed_above_the_domain_top);
        # a window off F by more than CONSISTENCY_TOL is refused
        vals = np.array([[0.25], [0.75 + 2 * CONSISTENCY_TOL]])
        orb = DriverOrbit(0, 1, vals, None, None, 1e-8)
        with pytest.raises(NoConvergenceError, match="orbit consistency violated"):
            _check_consistency(4.0, orb)

    def test_seed_above_the_domain_top(self):
        # logistic_inverse forgives s up to CONSISTENCY_TOL above mu/4 by
        # the consistency check's own |F(1/2) - s|, so a seed it takes
        # builds; 1e-12 relative is 1.00009e-12 above this top, which is
        # refused as leaving the domain rather than as inconsistent
        mu, top = 3.9999, 3.9999 / 4.0
        orb = build_orbit(mu, "heteroclinic", top + CONSISTENCY_TOL, backward_branch="lower_G",
                          k_max=8, edge_gap=0.3)
        assert orb.value(0)[0] == top + CONSISTENCY_TOL
        assert orb.value(-1)[0] == 0.5
        with pytest.raises(OutOfDomainError, match="exceeds the branch domain top"):
            logistic_inverse(3.9999, top + 2 * CONSISTENCY_TOL, "lower_G")
        with pytest.raises(BranchEscapeError, match="left the branch domain"):
            build_orbit(mu, "heteroclinic", top * (1.0 + 1e-12), backward_branch="lower_G",
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
        a = build_orbit(4.0, "fixed", 0.75, k_min=-3, k_max=3)
        p = pair_orbits(a, a)
        assert p.dim == 2
        assert p.value(0) == pytest.approx([0.75, 0.75])
        assert p.left_limit == pytest.approx([0.75, 0.75])
        assert p.mus == (4.0, 4.0)

    def test_pair_window_mismatch(self):
        a = build_orbit(4.0, "fixed", 0.75, k_min=-3, k_max=3)
        b = build_orbit(4.0, "fixed", 0.75, k_min=-4, k_max=3)
        with pytest.raises(RangeMismatchError):
            pair_orbits(a, b)

    def test_pair_needs_scalar_orbits(self):
        a = build_orbit(4.0, "fixed", 0.75, k_min=-3, k_max=3)
        with pytest.raises(RangeMismatchError, match="pair_orbits expects scalar orbits"):
            pair_orbits(pair_orbits(a, a), a)

    def test_pair_keeps_a_missing_limit_missing(self):
        a = build_orbit(4.0, "fixed", 0.75, k_min=-3, k_max=3)
        open_left = DriverOrbit(-3, 3, a.values, None, a.right_limit, a.edge_gap)
        p = pair_orbits(a, open_left)
        assert p.left_limit is None
        assert p.right_limit.tolist() == [0.75, 0.75]


def looped_build_orbit(mu, kind, seed, backward_branch=None, k_min=-40, k_max=40, edge_gap=1e-8):
    """build_orbit as it was written before its two sweeps were folded
    into one loop each: a pinned flag on the forward sweep, a separate
    current value on the backward one, and the map's mu checked by a
    wrapper object."""
    if not (math.isfinite(mu) and 0.0 < mu <= 4.0):
        raise OutOfRangeError(f"logistic mu must lie in (0, 4], got {mu!r}")
    if not (0.0 <= seed <= 1.0):
        raise OutOfDomainError(f"seed must lie in [0, 1], got {seed!r}")
    if not (k_min <= 0 <= k_max and k_min < k_max):
        raise OutOfRangeError(f"need k_min <= 0 <= k_max with k_min < k_max, got {k_min}, {k_max}")

    if kind == "fixed":
        if abs(logistic_step(mu, seed) - seed) > CONSISTENCY_TOL:
            raise NoConvergenceError(f"seed {seed!r} is not a fixed point of F_{mu}")
        vals = np.full(k_max - k_min + 1, seed)
        lim = np.array([seed])
        return DriverOrbit(k_min, k_max, vals.reshape(-1, 1), lim, lim, edge_gap, (mu,))

    if kind not in ORBIT_KINDS:
        raise OutOfRangeError(f"unknown orbit kind {kind!r}")
    if backward_branch is None:
        raise OutOfRangeError(f"kind {kind!r} needs a backward_branch")
    _check_branch(backward_branch)

    back_fp = _branch_fixed_point(mu, backward_branch)
    if back_fp is None:
        raise NoConvergenceError(
            f"branch {backward_branch!r} of F_{mu} has no attracting fixed point "
            "for the inverse iteration"
        )

    fps = _fixed_points(mu)
    fwd = [seed]
    pinned = None
    for _ in range(k_max):
        if pinned is not None:
            fwd.append(pinned)
            continue
        nxt = logistic_step(mu, fwd[-1])
        for p in fps:
            if abs(nxt - p) <= PIN_TOL:
                nxt = p
                pinned = p
                break
        fwd.append(nxt)

    if pinned is None:
        tail = fwd[-1]
        near = [p for p in fps if abs(tail - p) <= edge_gap]
        if not near:
            raise NoConvergenceError(
                f"forward orbit does not reach a fixed point within edge_gap by k = {k_max}"
            )
        fwd_limit = near[0]
    else:
        fwd_limit = pinned

    if kind == "homoclinic" and abs(fwd_limit - back_fp) > 0.0:
        raise NoConvergenceError(
            f"homoclinic orbit must return to the branch fixed point {back_fp!r}, "
            f"forward limit is {fwd_limit!r}"
        )
    if kind == "heteroclinic" and abs(fwd_limit - back_fp) <= edge_gap:
        raise NoConvergenceError(
            "heteroclinic orbit limits coincide; this is a homoclinic orbit"
        )

    bwd = []
    cur = seed
    lo = k_min
    while True:
        while len(bwd) < -lo:
            try:
                cur = logistic_inverse(mu, cur, backward_branch)
            except OutOfDomainError as exc:
                raise BranchEscapeError(
                    f"backward iterate left the branch domain: {exc}"
                ) from exc
            bwd.append(cur)
        gap = abs(cur - back_fp)
        if gap <= edge_gap:
            break
        if lo <= WIDEN_K_MIN:
            raise NoConvergenceError(
                f"backward gap {gap:.3g} still above edge_gap {edge_gap:.3g} "
                f"at the widening floor k = {WIDEN_K_MIN}"
            )
        lo = max(WIDEN_K_MIN, lo - 20)

    vals = np.array(list(reversed(bwd)) + fwd)
    orbit = DriverOrbit(
        k_min=lo,
        k_max=k_max,
        values=vals.reshape(-1, 1),
        left_limit=np.array([back_fp]),
        right_limit=np.array([fwd_limit]),
        edge_gap=edge_gap,
        mus=(mu,),
    )
    _check_consistency(mu, orbit)
    return orbit


# each refusal build_orbit can reach, by a piece of its message (the
# consistency check's own one is kept by test_consistency_check: no
# orbit of the sweeps fails it)
ORBIT_ERRORS = (
    "logistic mu must lie in",
    "seed must lie in",
    "need k_min <= 0 <= k_max",
    "is not a fixed point",
    "unknown orbit kind",
    "needs a backward_branch",
    "branch must be",
    "has no attracting fixed point",
    "forward orbit does not reach",
    "must return to the branch fixed point",
    "heteroclinic orbit limits coincide",
    "left the branch domain",
    "at the widening floor",
)


def orbit_outcome(build, args):
    """What build(*args) gives: the orbit's fields, bit for bit, or the
    type and message of its refusal."""
    try:
        o = build(*args)
    except EpcagError as exc:
        return type(exc), str(exc)
    fields = (o.k_min, o.k_max, o.values, o.left_limit, o.right_limit, o.edge_gap, o.mus)
    return tuple((type(x), x.dtype, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else (type(x), x)
                 for x in fields)


class TestAgainstLoopedSweeps:
    def test_same_orbits_and_refusals(self):
        # 5000 seeded draws, each argument from the values that build
        # (mu just above 1 puts both fixed points within PIN_TOL) or, one
        # time in 20, from those refused; they reach every refusal,
        # widening down to the floor and from below it, and the slow
        # forward approach
        rng = np.random.default_rng(7)
        axes = [
            ([1.0 + 1e-13, 1.5, 2.0, 2.5, 2.9, 3.0, 3.6, 3.9, 3.9999, 4.0, *rng.uniform(1.0, 4.0, 4).tolist()],
             [0.0, 4.2]),
            (["fixed", "homoclinic", "heteroclinic"], ["periodic"]),
            ([0.0, 0.25, 0.3, 0.5, 0.6, 0.7, 0.75, 1.0, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.9, 2.9 / 3.9, 1.9 / 2.9,
              3.9999 / 4.0 + 1e-12, *rng.uniform(0.0, 1.0, 4).tolist()], [-0.1, 1.5]),
            (["lower_G", "upper_H"], [None, "bogus"]),
            ([(-40, 40), (-83, 32), (0, 8), (-10, 200), (-10, 10), (-250, 3)], [(1, 5)]),
            ([1e-8, 0.3], [1e-300]),
        ]

        def draw(ok, refused):
            pool = refused if rng.random() < 0.05 else ok
            return pool[rng.integers(len(pool))]

        seen = set()
        for _ in range(5000):
            mu, kind, seed, branch, (k_min, k_max), gap = (draw(*axis) for axis in axes)
            args = (mu, kind, seed, branch, k_min, k_max, gap)
            got = orbit_outcome(build_orbit, args)
            assert got == orbit_outcome(looped_build_orbit, args), args
            if len(got) == 2:
                seen.add(next(err for err in ORBIT_ERRORS if err in got[1]))
            else:
                orb = build_orbit(*args)
                seen.add((kind, orb.k_min < k_min, bool(orb.values[-1, 0] == orb.right_limit[0])))
        # (kind, widened, pinned) for the orbits built
        assert seen >= {*ORBIT_ERRORS, ("fixed", False, True), ("homoclinic", False, True),
                        ("homoclinic", True, True), ("heteroclinic", False, True), ("heteroclinic", True, True),
                        ("heteroclinic", False, False), ("heteroclinic", True, False)}
