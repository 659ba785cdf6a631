"""Bounded-solution solver tests.

The f = 0 cases have closed forms: one interval obeys variation of
constants z(t) = e^{A(t-theta)} z0 + A^{-1}(e^{A(t-theta)} - I) alpha,
and a constant driver pins the bounded solution at the equilibrium
-A^{-1} alpha*. The full nonlinear case is cross-checked between the
two methods and through the residual defect.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from epcag import (
    DecayEnvelope,
    DriverOrbit,
    SampledTrajectory,
    assemble_system,
    build_orbit,
    check_assumptions,
    contraction_margin,
    custom_contract,
    default_pad,
    estimate_decay_envelope,
    logistic_map,
    make_schedule,
    mat_exp,
    pair_orbits,
    reference_envelope,
    reference_matrix,
    residual_defect,
    solution_bound,
    solve_bounded,
    step_interval,
    zero_contract,
)
from epcag import solver
from epcag.errors import (
    GridMismatchError,
    InnerDivergenceError,
    OutOfRangeError,
    PadTooSmallError,
)


def constant_driver(value=0.75, k=60):
    orb = build_orbit(logistic_map(4.0), "fixed", value, k_min=-k, k_max=k)
    return pair_orbits(orb, orb)


def linear_system(zeta_fraction=1.0 / 3.0):
    return assemble_system(
        reference_matrix(),
        make_schedule(1.5, 0.0, zeta_fraction),
        zero_contract(2),
        constant_driver(),
        envelope=reference_envelope(),
    )


def held_driver(values, k_min):
    """A driver that holds its first and last values outside its window."""
    values = np.asarray(values, dtype=float)
    return DriverOrbit(k_min, k_min + len(values) - 1, values, values[0], values[-1], 0.0)


def non_normal_hurwitz(rng, dim):
    """Random Hurwitz matrix: distinct negative eigenvalues, a random
    strictly upper triangle, rotated by a random orthogonal matrix."""
    core = np.diag(-rng.uniform(0.4, 1.5, dim)) + np.triu(rng.uniform(-2.0, 2.0, (dim, dim)), 1)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q @ core @ q.T


def coupled_contract(dim):
    """Smooth forcing with both state and frozen-argument coupling in any dimension."""

    def coupled(t, x, y):
        return 0.2 * np.sin(x) + 0.1 * np.cos(y[::-1]) + 0.5 * math.cos(t)

    return custom_contract(coupled, 0.8 * math.sqrt(dim), 0.2, 0.1)


def clipped_contract():
    """A planar contract declaring blocked_ys whose eval and eval_batch take
    the same correctly rounded steps, so the two agree bit for bit."""

    def eval(t, x, y):
        return 0.03 * np.clip(x, -1.0, 1.0) + 0.01 * np.clip(y[::-1], -1.0, 1.0) + np.clip(t / 8.0, -0.5, 0.5)

    def eval_batch(ts, xs, ys):
        y_terms = np.repeat(0.01 * np.clip(ys[:, ::-1], -1.0, 1.0), len(xs) // len(ys), axis=0)
        return 0.03 * np.clip(xs, -1.0, 1.0) + y_terms + np.clip(ts / 8.0, -0.5, 0.5)[:, None]

    return custom_contract(eval, 0.77, 0.03, 0.01, eval_batch=eval_batch, blocked_ys=True)


def recording(contract):
    """The contract with every call's times, states and arguments
    recorded, the arrays beside snapshots taken when they were passed."""
    seen = []

    def eval(t, x, y):
        seen.append((np.atleast_1d(t), x, x.copy(), y, y.copy()))
        return contract.eval(t, x, y)

    def eval_batch(ts, xs, ys):
        seen.append((ts, xs, xs.copy(), ys, ys.copy()))
        return contract.eval_batch(ts, xs, ys)

    return replace(contract, eval=eval, eval_batch=eval_batch if contract.eval_batch else None), seen


def cubic_convolution(a, coeffs, ts):
    """Exact int_0^t exp(A(t-s)) p(s) ds for p(s) = sum_k coeffs[k] s^k,
    read off the exponential of the generator that carries p and its
    derivatives along with the state."""
    dim = a.shape[0]
    blocks = len(coeffs) + 1
    gen = np.zeros((blocks * dim, blocks * dim))
    gen[:dim, :dim] = a
    for i in range(blocks - 1):
        gen[i * dim : (i + 1) * dim, (i + 1) * dim : (i + 2) * dim] = np.eye(dim)
    y0 = np.concatenate([np.zeros(dim)] + [math.factorial(k) * c for k, c in enumerate(coeffs)])
    return np.array([(mat_exp(gen, t) @ y0)[:dim] for t in ts])


def sequential_convolution(ctx, hv):
    """The recurrence the convolution discretises, substep by substep:
    I_{j+1} = E I_j + q_j with E = exp(A h) and q_j the 4-point stencil
    integral over substep j; each interval starts from the previous
    one's end value."""
    n_int, _, dim = hv.shape
    m = ctx.m_sub
    wi, wl, wr = ctx.w_interior, ctx.w_left, ctx.w_right
    e = ctx.e_pows[1]
    out = np.empty_like(hv)
    value = np.zeros(dim)
    for k in range(n_int):
        seg = hv[k]
        q = np.empty((m, dim))
        q[1 : m - 1] = sum(seg[r : r + m - 2] @ wi[r].T for r in range(4))
        q[0] = sum(wl[r] @ seg[r] for r in range(4))
        q[m - 1] = sum(wr[r] @ seg[m - 3 + r] for r in range(4))
        out[k, 0] = value
        for j in range(m):
            value = e @ value + q[j]
            out[k, j + 1] = value
    return out


class TestConvolve:
    N_INT = 50
    OMEGA = 1.5

    def grid(self, m):
        h = self.OMEGA / m
        return self.OMEGA * np.arange(self.N_INT)[:, None] + h * np.arange(m + 1)[None, :]

    @pytest.mark.parametrize("m", [4, 60, 200])
    @pytest.mark.parametrize("degree", [0, 3])
    def test_polynomial_integrands_are_exact(self, m, degree):
        # the 4-point rule integrates cubics exactly, so only rounding is
        # left, however large h lambda is (up to 1125, at -3000 I and m = 4)
        span = self.N_INT * self.OMEGA
        base = [np.array([0.8, -0.3]), np.array([-1.1, 0.4]), np.array([0.5, 0.9]), np.array([0.7, -0.6])]
        coeffs = [c / span**k for k, c in enumerate(base[: degree + 1])]
        ts = self.grid(m)
        hv = sum(np.multiply.outer(ts**k, c) for k, c in enumerate(coeffs))
        # every interval's nodes, and every grid point of the first, a middle and the last interval
        checks = [(k, 0) for k in range(self.N_INT)] + [
            (k, j) for k in (0, self.N_INT // 2, self.N_INT - 1) for j in range(1, m + 1)
        ]
        for name, a in (("reference", reference_matrix()), ("-300 I", -300.0 * np.eye(2)),
                        ("-3000 I", -3000.0 * np.eye(2))):
            got = solver._convolve(solver._Context(a, self.OMEGA, m), hv)
            want = cubic_convolution(a, coeffs, [ts[k, j] for k, j in checks])
            err = np.abs(np.array([got[k, j] for k, j in checks]) - want).max()
            assert err <= 1e-13 * np.abs(want).max(), name

    def test_context_takes_forward_exponentials_only(self, monkeypatch):
        # exp(-A t) grows like exp(lambda t) and overflows for a strongly
        # decaying A; the convolution is built from exp(A t), t > 0, alone
        times = []

        def recording(a, t=1.0):
            times.extend(np.atleast_1d(t).tolist())
            return mat_exp(a, t)

        monkeypatch.setattr(solver, "mat_exp", recording)
        solver._Context(reference_matrix(), self.OMEGA, 200)
        assert times and min(times) > 0.0

    # below, at, across and off multiples of the block length; interval
    # counts on either side of the node scan's doubling steps
    @pytest.mark.parametrize("m", [4, 5, 7, 12, 15, 17, 33, 50, 60, 200, 240])
    def test_matches_interval_by_interval_form(self, m):
        ctx = solver._Context(reference_matrix(), self.OMEGA, m)
        for n_int in (1, 2, 50, 109):
            # random integrands jump at every node, as Picard's do
            hv = np.random.default_rng(m).standard_normal((n_int, m + 1, 2))
            want = sequential_convolution(ctx, hv)
            assert np.abs(solver._convolve(ctx, hv) - want).max() <= 1e-14 * np.abs(want).max(), n_int


class TestStepInterval:
    def test_left_node_argument_is_z0(self):
        # zeta at the left node: w is z0 itself in every sweep, so with f
        # = 0 the first sweep is exact and the second confirms it
        sys = linear_system(zeta_fraction=0.0)
        z0 = np.array([0.3, -0.2])
        samples, w, inner = step_interval(sys, 0, z0)
        assert inner == 2
        assert np.array_equal(w, z0)
        assert np.array_equal(samples[0], z0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("zeta_fraction", [0.0, 0.37, 1.0])
    def test_matches_sequential_sweeps(self, dim, zeta_fraction):
        # the sweeps written out with the substep-by-substep recurrence and
        # the contract's scalar eval, from the free response E^j z0
        rng = np.random.default_rng(10 * dim + round(100 * zeta_fraction))
        a = non_normal_hurwitz(rng, dim)
        sys = assemble_system(
            a,
            make_schedule(1.2, 0.0, zeta_fraction),
            coupled_contract(dim),
            held_driver(rng.uniform(0.0, 1.0, (3, dim)), -1),
            envelope=estimate_decay_envelope(a),
        )
        z0, m = rng.standard_normal(dim), 150
        samples, w, inner = step_interval(sys, 1, z0, substeps=m)

        ctx = solver._Context(a, 1.2, m)
        ts = sys.schedule.node(1) + 1.2 / m * np.arange(m + 1)
        free = np.array([p @ z0 for p in ctx.e_pows])
        j0, lw = solver._lagrange_stencils(zeta_fraction * m, m, 4)
        psi, deltas = free, []
        while not deltas or deltas[-1] > solver.INNER_DEFAULT_TOL:
            want_w = lw @ psi[j0 : j0 + 4]
            hv = np.array([sys.f.eval(t, x, want_w) for t, x in zip(ts, psi)]) + sys.driver.value(1)
            new = free + sequential_convolution(ctx, hv[None])[0]
            deltas.append(np.linalg.norm(new - psi, axis=1).max())
            psi = new
        scale = np.abs(psi).max()
        assert inner == len(deltas)
        assert np.abs(samples - psi).max() <= 1e-13 * scale
        assert np.abs(w - lw @ psi[j0 : j0 + 4]).max() <= 1e-13 * scale

    def test_variation_of_constants(self):
        sys = linear_system()
        z0 = np.array([0.4, 0.1])
        alpha = np.array([0.75, 0.75])
        samples, w, inner = step_interval(sys, 0, z0, substeps=200)
        a = reference_matrix()
        for j in (1, 50, 133, 200):
            t = j * 1.5 / 200
            phi = mat_exp(a, t)
            expected = phi @ z0 + np.linalg.solve(a, (phi - np.eye(2)) @ alpha)
            assert np.abs(samples[j] - expected).max() <= 1e-9

    @pytest.mark.parametrize(
        "zeta_fraction, j_full, partial", [(0.0, 0, 0), (0.25, 50, 0), (1.0 / 3.0, 66, 1), (1.0, 200, 0)]
    )
    def test_eval_count_and_fresh_arguments(self, homo, zeta_fraction, j_full, partial):
        # every sweep evaluates the contract on all 201 grid points; zeta
        # lies j_full substeps in, plus a part of one more if partial
        f, seen = recording(homo.system.f)
        sys = replace(homo.system, f=f, schedule=make_schedule(1.5, 0.0, zeta_fraction))
        samples, w, inner = step_interval(sys, 0, np.array([0.3, -0.2]), substeps=200)
        assert sum(len(ts) for ts, *_ in seen) == inner * 201
        # no state or argument the contract saw was changed afterwards or lives in the samples
        assert all(np.array_equal(x, xc) and np.array_equal(y, yc) for _, x, xc, y, yc in seen)
        assert not any(np.shares_memory(x, samples) or np.shares_memory(y, samples) for _, x, _, y, _ in seen)
        if partial:
            # read off between nodes j_full and j_full + 1
            lo, hi = samples[j_full], samples[j_full + 1]
            assert np.all((np.minimum(lo, hi) - 1e-3 <= w) & (w <= np.maximum(lo, hi) + 1e-3))
            assert not any(np.array_equal(w, s) for s in samples)
        else:
            assert np.array_equal(w, samples[j_full])
        # the last sweep froze the argument its predecessor gave, which is
        # w to within the stop (the cubic stencil's weights sum below 1.2
        # in absolute value)
        assert np.abs(seen[-1][3] - w).max() <= 1.2 * solver.INNER_DEFAULT_TOL

    def test_reference_interval_inner_iterations(self, homo):
        samples, w, inner = step_interval(homo.system, 0, np.zeros(2), tol=1e-12)
        # contraction factor ~1e-2 per sweep: 12 decades in at most 8 sweeps
        assert inner <= 8
        assert samples.shape == (201, 2)
        # zeta_0 = 0.5 sits between grid points 66 and 67; the frozen
        # argument must agree with linear interpolation to O(h^2)
        lerp = samples[66] + (0.5 / 0.0075 - 66.0) * (samples[67] - samples[66])
        assert np.abs(w - lerp).max() <= 1e-3

    def test_zeta_stencil_is_shared_and_read_only(self):
        j0, lw = solver._zeta_stencil(1.0 / 3.0, 200)
        want_j0, want_lw = solver._lagrange_stencils(1.0 / 3.0 * 200, 200, 4)
        assert j0 == want_j0 and np.array_equal(lw, want_lw)
        assert solver._zeta_stencil(1.0 / 3.0, 200)[1] is lw
        with pytest.raises(ValueError):
            lw[0] = 0.0

    @pytest.mark.parametrize("z0", [[1.0, 2.0, 3.0], 5.0, [[0.3, -0.2]]])
    def test_z0_shape_is_checked(self, homo, z0):
        with pytest.raises(OutOfRangeError, match=r"z0 must have shape \(2,\)"):
            step_interval(homo.system, 0, z0)

    @pytest.mark.parametrize("shape", [(200, 2), (201, 3), (201,), (1, 201, 2)])
    def test_guess_shape_is_checked(self, homo, shape):
        with pytest.raises(OutOfRangeError, match=r"guess must have shape \(201, 2\)"):
            step_interval(homo.system, 0, np.zeros(2), 200, 1e-12, 100, np.zeros(shape))

    def test_converged_guess_stops_after_one_sweep(self, homo):
        z0, tol = np.array([0.3, -0.2]), solver.INNER_DEFAULT_TOL
        samples, w, inner = step_interval(homo.system, 0, z0)
        again, w_again, one = step_interval(homo.system, 0, z0, 200, tol, solver.INNER_MAX_ITERS, samples)
        assert inner > 1 and one == 1
        assert np.abs(again - samples).max() <= tol
        assert np.abs(w_again - w).max() <= 1.2 * tol

    def test_poor_guess_reaches_the_same_fixed_point(self, homo):
        # a start 100 times the solution costs sweeps, not accuracy:
        # both stops leave about kappa_pi / (1 - kappa_pi) 1e-12 of error
        z0, tol = np.array([0.3, -0.2]), solver.INNER_DEFAULT_TOL
        samples, w, _ = step_interval(homo.system, 0, z0)
        far, w_far, inner = step_interval(homo.system, 0, z0, 200, tol, solver.INNER_MAX_ITERS, 100.0 * samples)
        assert inner > 1
        assert np.abs(far - samples).max() <= 1e-11
        assert np.abs(w_far - w).max() <= 1e-11

    def test_non_finite_samples_after_zeta(self):
        # f turns NaN on (4, 4.5), inside the last interval [3, 4.5] of a
        # (-3, 3) window but after its zeta = 3.5; every sweep covers the
        # whole interval, so the first one meets it
        def late_nan(t, x, y):
            return np.full(2, np.nan) if 4.0 < t < 4.5 else np.zeros(2)

        sys = replace(linear_system(), f=custom_contract(late_nan, 1.0, 0.0, 0.0))
        with pytest.raises(InnerDivergenceError, match="interval 2: non-finite samples"):
            solve_bounded(sys, (-3, 3), substeps=20, method="burn_in")
        with pytest.raises(InnerDivergenceError):
            solve_bounded(sys, (-3, 3), substeps=20, method="picard")

    def test_picard_names_the_first_non_finite_interval(self):
        # the 5-substep level meets the NaN in interval 2 on its first
        # sweep; the convolution carries it forward only
        sys = replace(linear_system(), f=custom_contract(
            lambda t, x, y: np.full(2, np.nan) if 4.0 < t < 4.5 else np.zeros(2), 1.0, 0.0, 0.0))
        with pytest.raises(InnerDivergenceError, match="interval 2: non-finite samples in picard sweep 1$"):
            solve_bounded(sys, (-3, 3), substeps=20, method="picard")

    def test_a_cap_of_no_sweeps_names_the_interval(self, homo):
        with pytest.raises(InnerDivergenceError, match="interval 4: picard iteration did not reach 1e-12 in 0 sweeps"):
            step_interval(homo.system, 4, np.zeros(2), max_inner=0)

    def test_inner_divergence_guard(self):
        # a frozen-argument gain this large defeats the fixed point loop
        # (its declared bound is too small, so assembly would refuse it)
        wild = custom_contract(lambda t, x, y: 5.0 * y, 10.0, 0.0, 5.0)
        sys = replace(linear_system(), f=wild)
        with pytest.raises(InnerDivergenceError):
            step_interval(sys, 0, np.array([1.0, 1.0]), max_inner=20)


def stiff_system(rate=50.0):
    """A = -rate I with its exact envelope, omega 3 and zeta half-way; the
    bounded solution is the constant 0.75 / rate (0.015 at rate 50)."""
    return assemble_system(
        -rate * np.eye(2),
        make_schedule(3.0, 0.0, 0.5),
        zero_contract(2),
        constant_driver(),
        envelope=DecayEnvelope(n_const=1.0, rate=rate, validated_horizon=10.0 / rate, sample_count=0),
    )


class TestStabilityGuards:
    @pytest.mark.parametrize("rate, substeps", [(50.0, 54), (50.0, 40), (300.0, 40)])
    @pytest.mark.parametrize("method", ["picard", "burn_in"])
    def test_stiff_systems_solve_at_any_substep_count(self, rate, substeps, method):
        # h lambda = -2.78, -3.75 and -22.5: outside classical RK4's
        # stability interval (about (-2.785, 0)) at 40 substeps, and at 54
        # just inside it, where an RK4 march shrinks a transient by only
        # 0.54 per interval against e^-150 for the exact flow
        want = 0.75 / rate
        traj = solve_bounded(stiff_system(rate), (-3, 3), substeps, method=method)
        assert np.abs(traj.samples - want).max() <= 1e-12 * want

    def test_picard_solves_a_strongly_decaying_matrix(self):
        # at rate 300 exp(-A omega) = e^900 overflows; the convolution
        # takes forward powers only and meets no overflow. At rate 3000
        # h lambda = 45, and the closed-form weights keep the samples exact
        for rate in (300.0, 3000.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                traj = solve_bounded(stiff_system(rate), (-3, 3), 200)
            want = 0.75 / rate
            assert np.abs(traj.samples - want).max() <= 2e-15 * want, rate

    @pytest.mark.parametrize("method", ["picard", "burn_in"])
    def test_samples_above_the_a_priori_bound_are_refused(self, method):
        # f = 5 everywhere against a declared bound of 0.01: M_phi is
        # 1.42 while the solution sits at norm 8.1; only assembly's spot
        # check, which saw an honest contract here, would have caught it
        liar = custom_contract(lambda t, x, y: np.full(2, 5.0), 0.01, 0.0, 0.0)
        sys = assemble_system(-np.eye(2), make_schedule(1.5, 0.0, 1.0 / 3.0), zero_contract(2), constant_driver(),
                              envelope=DecayEnvelope(n_const=1.0, rate=1.0, validated_horizon=10.0,
                                                     sample_count=0))
        sys = replace(sys, f=liar)
        with pytest.raises(InnerDivergenceError, match="above the a-priori bound M_phi"):
            solve_bounded(sys, (-3, 3), 32, method=method)

    def test_reference_passes_with_room(self, homo, homo_traj):
        assert homo_traj.meta["sup_norm"] == pytest.approx(2.37, abs=0.01)
        assert solution_bound(homo.system) == pytest.approx(16.24, abs=0.01)


class TestSolveBounded:
    def test_constant_driver_equilibrium(self):
        sys = linear_system()
        target = np.linalg.solve(reference_matrix(), -np.array([0.75, 0.75]))
        for method in ("picard", "burn_in"):
            traj = solve_bounded(sys, (-3, 3), method=method)
            assert np.abs(traj.samples - target).max() <= 1e-8

    def test_methods_agree_on_interior(self, homo):
        pic = solve_bounded(homo.system, (-10, 10))
        burn = solve_bounded(homo.system, (-10, 10), method="burn_in")
        assert pic.samples.shape == burn.samples.shape == (4001, 2)
        quarter = 1000
        gap = np.abs(pic.samples[quarter:-quarter] - burn.samples[quarter:-quarter]).max()
        assert gap <= 1e-6
        assert pic.k_window == burn.k_window
        assert np.abs(pic.frozen - burn.frozen).max() <= 1e-6

    def test_reference_burn_in_inner_iterations(self, homo, het):
        totals = {
            name: sum(solve_bounded(sc.system, (-20, 20), method="burn_in").meta["inner_iterations"])
            for name, sc in (("homoclinic", homo), ("heteroclinic", het))
        }
        # sweeps over 89 intervals (pad 49), at most 9 per interval: each
        # counts the sweeps of the sliding window while it was in it, and
        # each interval enters the window started from the one before it
        assert totals == {"homoclinic": 466, "heteroclinic": 355}

    @pytest.mark.parametrize("method, batch, zeta_fraction", [
        ("picard", True, 1.0 / 3.0), ("picard", False, 1.0 / 3.0),
        ("burn_in", True, 1.0 / 3.0), ("burn_in", True, 0.0), ("burn_in", True, 1.0),
        ("burn_in", False, 1.0 / 3.0),
    ])
    def test_f_evals_counts_every_contract_row(self, homo, method, batch, zeta_fraction):
        # 64 substeps: picard sweeps at 16 substeps first; burn-in sweeps
        # its window of intervals at 64, whatever the zeta fraction
        f, rows = counting_rows(homo.system.f, batch)
        sys = replace(homo.system, f=f, schedule=make_schedule(1.5, 0.0, zeta_fraction))
        traj = solve_bounded(sys, (-3, 3), 64, method=method)
        assert traj.meta["f_evals"] == sum(rows)

    def test_picard_contraction_diagnostics(self, homo_traj):
        meta = homo_traj.meta
        assert meta["method"] == "picard"
        assert meta["iterations"] <= 12
        deltas = meta["iterate_deltas"]
        assert deltas[-1] <= 1e-10
        for prev, cur in zip(deltas[1:], deltas[2:]):
            assert cur / prev <= 0.30

    def test_sup_norm_bound(self, homo, homo_traj):
        bound = solution_bound(homo.system)
        assert homo_traj.meta["sup_norm"] <= bound + 1e-9
        assert bound == pytest.approx(16.2410019, rel=1e-6)

    def test_interval_consistency(self, homo, homo_traj):
        # marching one interval from a sampled node reproduces the next node
        idx = (0 - (-20)) * 200
        z0 = homo_traj.samples[idx]
        seg, w, _ = step_interval(homo.system, 0, z0)
        assert np.abs(seg[-1] - homo_traj.samples[idx + 200]).max() <= 1e-8
        assert np.abs(w - homo_traj.frozen[20]).max() <= 1e-8

    def test_times_and_window(self, homo_traj):
        assert homo_traj.t0 == -30.0
        assert homo_traj.t1 == 30.0
        assert homo_traj.times[0] == -30.0
        assert homo_traj.times[-1] == pytest.approx(30.0, abs=1e-9)
        assert homo_traj.k_window == (-20, 20)

    def test_default_pad_reference_value(self, homo):
        assert default_pad(homo.system, 1e-8) == 49

    def test_reference_driver_windows(self, homo, het):
        # coverage_pad sizes every reference orbit from the mu = 4 bound:
        # pad 49 at tol 1e-8, plus headroom, left of the 30-node window
        for orbit in (homo.beta, *homo.alphas, het.beta, *het.alphas):
            assert (orbit.k_min, orbit.k_max) == (-83, 32)

    def test_pad_too_small(self, homo):
        with pytest.raises(PadTooSmallError):
            solve_bounded(homo.system, (-2, 2), pad=1)

    def test_tail_bound_decays_at_the_contraction_margin(self, homo):
        # f = 0.6 tanh(x/5): L1 = 0.12 leaves a margin of 0.102 against
        # lambda = 0.5, so the start transient fades five times slower
        # than e^{-lambda t}. A lambda-rate bound claimed 2.5e-9 for pad 30
        # while the pad-30 solution is 2e-8 off, above tol = 1e-8.
        def tanh_eval(t, x, y):
            return 0.6 * np.tanh(np.asarray(x) / 5.0)

        def tanh_batch(ts, xs, ys):
            return 0.6 * np.tanh(xs / 5.0)

        sys = replace(homo.system, f=custom_contract(tanh_eval, 0.8486, 0.12, 0.0, eval_batch=tanh_batch))
        window, m = (-2, 2), 50
        long, _, _ = solver._solve_picard(sys, *window, 200, m)
        errors = {}
        for pad in (20, 30, 45):
            short, _, _ = solver._solve_picard(sys, *window, pad, m)
            errors[pad] = np.abs(short - long).max()
            assert errors[pad] <= solver._tail_bound(sys, pad), pad
        assert solution_bound(sys) * math.exp(-0.5 * 30 * 1.5) < 1e-8 < errors[30]
        with pytest.raises(PadTooSmallError):
            solve_bounded(sys, window, m, pad=30)
        traj = solve_bounded(sys, window, m)
        assert traj.meta["tail_bound"] <= 1e-8
        assert np.abs(traj.samples - long).max() <= 1e-8

    @pytest.mark.parametrize("lip_y", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("method", ["picard", "burn_in"])
    def test_default_pad_meets_tol_under_a4_alone(self, method, lip_y):
        # zeta at the left node: the frozen argument lags the state by up
        # to omega, and the start transient fades slower than the
        # contraction margin. Pads sized at the margin (15, 25 and 75) left
        # errors of 9.5e-5, 5.7e-4 and 4.2e-3 against tol 1e-8
        sys = a4_limit_system(lip_y, 0.0)
        traj = solve_bounded(sys, (-3, 3), 40, 1e-8, method)
        long = solve_bounded(sys, (-3, 3), 40, 1e-8, method, pad=600)
        assert traj.meta["pad"] == {0.5: 51, 0.7: 102, 0.9: 360}[lip_y]
        assert np.abs(traj.samples - long.samples).max() <= 1e-8

    def test_context_cache_is_bounded(self, homo):
        for m in range(4, 8 + solver.CONTEXT_CACHE_SIZE):
            solver._context(homo.system, m)
        info = solver._cached_context.cache_info()
        assert info.maxsize == solver.CONTEXT_CACHE_SIZE
        assert info.currsize <= solver.CONTEXT_CACHE_SIZE

    def test_window_validation(self, homo):
        with pytest.raises(OutOfRangeError):
            solve_bounded(homo.system, (2, -2))
        with pytest.raises(OutOfRangeError):
            solve_bounded(homo.system, (-1.5, 2.0))
        # any integral type is a node index, and the trajectory keeps Python ints
        traj = solve_bounded(homo.system, (np.int64(-2), np.int64(2)))
        assert traj.k_window == (-2, 2)
        assert all(type(k) is int for k in traj.k_window)

    def test_unknown_method(self, homo):
        with pytest.raises(OutOfRangeError):
            solve_bounded(homo.system, (-2, 2), method="rk45")


class TestBlockedArguments:
    @pytest.mark.parametrize("method", ["picard", "burn_in"])
    def test_scalar_fallback_solves_bit_identically(self, homo, method):
        # dropping eval_batch keeps the blocked_ys flag, and eval_many must
        # still hand eval one argument row per row
        sys = replace(homo.system, f=clipped_contract())
        scalar = replace(sys, f=replace(sys.f, eval_batch=None))
        batched, looped = (solve_bounded(s, (-3, 3), 40, method=method) for s in (sys, scalar))
        np.testing.assert_array_equal(batched.samples, looped.samples)
        np.testing.assert_array_equal(batched.frozen, looped.frozen)
        assert batched.meta == looped.meta
        assert residual_defect(sys, batched) == residual_defect(scalar, batched)

    @pytest.mark.parametrize("declared", [True, False])
    def test_argument_rows(self, homo, declared):
        # declared: one argument row per interval in each sweep (grids of 4
        # and 16 substeps) and in residual_defect (13 stencil centres);
        # undeclared: one per row, as before blocks
        f, seen = recording(replace(homo.system.f, blocked_ys=declared))
        sys = replace(homo.system, f=f)
        residual_defect(sys, solve_bounded(sys, (-3, 3), 16))
        assert all(len(ts) % len(ys) == 0 for ts, _, _, ys, _ in seen)
        assert {len(ts) // len(ys) for ts, _, _, ys, _ in seen} == ({5, 17, 13} if declared else {1})


def random_system(seed):
    """A seeded random planar system meeting (A4) and (A5) with margin:
    a rotated Hurwitz matrix (complex pair or non-normal real pair), a
    forcing whose exact Lipschitz constants take a drawn share of the
    (A5) budget, and a random held driver."""
    rng = np.random.default_rng(seed)
    sigma, skew = -rng.uniform(0.6, 1.2), math.exp(rng.uniform(0.0, 0.6))
    if seed % 2:
        rot = rng.uniform(0.4, 2.0)
        core = np.array([[sigma, rot * skew], [-rot / skew, sigma]])
    else:
        core = np.array([[sigma, 2.0 * (skew - 1.0)], [0.0, sigma - rng.uniform(0.2, 1.2)]])
    angle = rng.uniform(0.0, np.pi)
    c, s = np.cos(angle), np.sin(angle)
    q = np.array([[c, -s], [s, c]])
    a = q @ core @ q.T
    env = estimate_decay_envelope(a)
    omega = rng.uniform(0.8, 1.2)
    lam, n = env.rate, env.n_const
    ehalf = math.exp(lam * omega / 2.0)
    growth = ehalf * (ehalf**2 - 1.0) / (1.0 - 1.0 / ehalf)
    budget, share = rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.8)
    lx = share * budget * lam / (2.0 * n)
    ly = (1.0 - share) * budget * lam / (n * growth)
    p, nu, c1, c2 = rng.uniform(0.0, 6.0), rng.uniform(0.2, 1.5), *rng.uniform(0.1, 1.0, 2)

    def forcing(t, x, y):
        return np.array([lx * np.cos(x[0] + p) + ly * np.sin(y[1]) + c1 * np.sin(nu * t),
                         lx * np.sin(x[1]) + ly * np.cos(y[0]) + c2 * np.cos(nu * t)])

    def forcing_batch(ts, xs, ys):
        return np.column_stack([lx * np.cos(xs[:, 0] + p) + ly * np.sin(ys[:, 1]) + c1 * np.sin(nu * ts),
                                lx * np.sin(xs[:, 1]) + ly * np.cos(ys[:, 0]) + c2 * np.cos(nu * ts)])

    f = custom_contract(forcing, 1.01 * math.hypot(lx + ly + c1, lx + ly + c2), lx, ly, eval_batch=forcing_batch)
    zeta_fraction = (0.0, 1.0, rng.uniform(0.0, 1.0))[seed % 3]
    driver = held_driver(rng.uniform(0.0, 1.0, (9, 2)), -4)
    sys = assemble_system(a, make_schedule(omega, 0.0, zeta_fraction), f, driver, envelope=env)
    report = check_assumptions(sys)
    assert report.a4_pass and report.a5_pass and report.a5_margin > 0.3
    return sys


def zero_start(sys, window, substeps, tol=1e-8):
    """Picard samples and sweep deltas of solve_bounded's grid, swept from
    zero through the solver's sweep helper with no coarse stage."""
    (k_lo, k_hi), pad = window, default_pad(sys, tol)
    k0 = k_lo - pad
    alpha = np.stack([sys.driver.value(k) for k in range(k0, k_hi)])
    ctx, ts = solver._context(sys, substeps), solver._grid_times(sys, k0, k_hi - k0, substeps)
    psi, deltas, _, _ = solver._iterate(sys, ctx, k0, ts, alpha, np.zeros((k_hi - k0, substeps + 1, sys.dim)),
                                        solver._picard_stop(sys), solver._picard_cap(sys))
    return np.concatenate([psi[pad:, :substeps].reshape(-1, sys.dim), psi[-1, substeps][None]]), deltas


def counting_rows(contract, batch=True):
    """The contract with the row count of every call recorded: len(ts)
    for eval_batch, 1 for eval. batch=False drops eval_batch."""
    rows = []

    def eval(t, x, y):
        rows.append(1)
        return contract.eval(t, x, y)

    def eval_batch(ts, xs, ys):
        rows.append(len(ts))
        return contract.eval_batch(ts, xs, ys)

    return replace(contract, eval=eval, eval_batch=eval_batch if batch else None), rows


@pytest.fixture(scope="module", params=["homo", "het", 0, 1, 2, 3])
def nested(request):
    """(system, window, substeps, solve) for each reference scenario on
    (-30, 30) and each TestRandomSystems draw; all run the cascade."""
    if isinstance(request.param, str):
        sys, window, m = request.getfixturevalue(request.param).system, (-20, 20), 200
    else:
        sys, window, m = random_system(request.param), (-2, 2), 60
    return sys, window, m, solve_bounded(sys, window, m)


class TestNestedStart:
    def test_same_fixed_point_as_a_zero_start(self, nested):
        sys, window, m, traj = nested
        want, deltas = zero_start(sys, window, m)
        assert [lv[0] for lv in traj.meta["levels"]] == {200: [12, 50], 60: [15]}[m]
        assert np.abs(traj.samples - want).max() <= 2e-11
        assert traj.meta["iterate_deltas"][-1] <= 1e-10
        assert deltas[-1] <= 1e-10

    def test_coarse_sweeps_contract(self, nested):
        # criterion 04's law, on every ratio of every level; each coarse
        # level stops at its own target, 1e-10 (m / m_l)^4
        meta, m = nested[3].meta, nested[2]
        for m_l, stop, deltas in meta["levels"]:
            assert stop == 1e-10 * (m / m_l) ** 4
            assert deltas[-1] <= stop < deltas[-2]
        for deltas in [lv[2] for lv in meta["levels"]] + [meta["iterate_deltas"]]:
            assert len(deltas) >= 2
            for prev, cur in zip(deltas, deltas[1:]):
                assert cur / prev <= 0.30

    @pytest.mark.parametrize("substeps", [4, 10, 15])
    def test_fewer_than_16_substeps_start_from_zero(self, homo, substeps):
        traj = solve_bounded(homo.system, (-2, 2), substeps)
        want, deltas = zero_start(homo.system, (-2, 2), substeps)
        assert traj.meta["levels"] == ()
        assert np.array_equal(traj.samples, want)
        assert traj.meta["iterate_deltas"] == tuple(deltas)

    @pytest.mark.parametrize("substeps, coarse", [(50, 12), (201, 50)])
    def test_substeps_not_divisible_by_four(self, homo, substeps, coarse):
        traj = solve_bounded(homo.system, (-2, 2), substeps)
        assert traj.meta["levels"][-1][0] == coarse
        assert residual_defect(homo.system, traj) <= 1e-6
        assert np.abs(traj.samples - zero_start(homo.system, (-2, 2), substeps)[0]).max() <= 2e-11

    def test_refine_reproduces_interval_cubics(self):
        # a different cubic on every interval, so the values jump at every node
        coeffs = np.random.default_rng(5).standard_normal((6, 4, 2))

        def cubics(m_sub):
            s = np.arange(m_sub + 1) / m_sub
            return np.einsum("ikd,jk->ijd", coeffs, s[:, None] ** np.arange(4))

        for coarse, fine in ((12, 50), (8, 32), (50, 201)):
            assert np.abs(solver._refine(cubics(coarse), fine) - cubics(fine)).max() <= 1e-13

    def test_refine_reproduces_interval_quintics(self):
        # the hand-over interpolates through six grid points, so it is
        # exact on a different quintic on every interval; a 4-substep grid
        # has five points, and is exact on quartics
        rng = np.random.default_rng(6)

        def poly(coeffs, m_sub):
            s = np.arange(m_sub + 1) / m_sub
            return np.einsum("ikd,jk->ijd", coeffs, s[:, None] ** np.arange(coeffs.shape[1]))

        coeffs = rng.standard_normal((6, 6, 2))
        for coarse, fine in ((12, 50), (8, 32), (50, 201)):
            assert np.abs(solver._refine(poly(coeffs, coarse), fine) - poly(coeffs, fine)).max() <= 1e-13
        coeffs = rng.standard_normal((6, 5, 2))
        assert np.abs(solver._refine(poly(coeffs, 4), 16) - poly(coeffs, 16)).max() <= 1e-13

    def test_refine_does_not_leak_across_a_jump(self):
        levels = np.array([0.0, 1.0, 0.0, -2.0])
        got = solver._refine(np.broadcast_to(levels[:, None, None], (4, 13, 2)), 50)
        assert not got[0].any() and not got[2].any()
        assert np.abs(got - levels[:, None, None]).max() <= 1e-14

    def test_fewer_contract_evaluations(self, homo):
        f, rows = counting_rows(homo.system.f)
        sys = replace(homo.system, f=f)
        solve_bounded(sys, (-20, 20))
        nested_rows = sum(rows)
        rows.clear()
        zero_start(sys, (-20, 20), 200)
        # 0.35 measured: 2 sweeps at 200 substeps after 5 at 12 and 2 at
        # 50, against 8 at 200 from zero
        assert nested_rows <= 0.55 * sum(rows)

    @pytest.mark.parametrize("substeps", [16, 60, 120, 200, 240])
    @pytest.mark.parametrize("batch", [True, False])
    def test_cascade_keeps_the_fixed_point(self, substeps, batch):
        # seeded random systems within 2e-11 of a start from zero (at 120
        # substeps over three levels, 7, 30 and 120, each handing over
        # through six points); at the (A4) limit kappa_pi is 0.7-0.9,
        # and the stop leaves each solve at most 1e-10 of iteration
        # error, so they differ by at most 2e-10 (7.0e-11 measured at
        # 0.9, 0.5 and 60 substeps; 5.8e-10 under the old absolute stop);
        # their 241 sweeps from zero are batched only, as scalar calls
        # they would take a minute
        cases = [(random_system(seed), (-2, 2), 2e-11) for seed in range(4)]
        if batch:
            cases += [(a4_limit_system(*lz), (-3, 3), 2e-10) for lz in ((0.7, 1.0), (0.9, 0.5), (0.9, 1.0))]
        for sys, window, tol in cases:
            if not batch:
                sys = replace(sys, f=replace(sys.f, eval_batch=None))
            traj = solve_bounded(sys, window, substeps)
            assert np.abs(traj.samples - zero_start(sys, window, substeps)[0]).max() <= tol

    def test_reference_f_evals(self, homo, het):
        # per interval 2 sweeps at 200 substeps after 5 at 12 and 2 at
        # 50, over 109 intervals (pad 49), in both scenarios; from zero it
        # is 8 at 200
        for sc in (homo, het):
            meta = solve_bounded(sc.system, (-30, 30)).meta
            assert [(m_l, len(d)) for m_l, _, d in meta["levels"]] == [(12, 5), (50, 2)]
            assert (meta["f_evals"], meta["iterations"]) == (62_021, 2)

    def test_hand_over_does_not_leak_across_nodes(self, homo):
        # a different cubic on every interval jumps at every node: the
        # hand-over equals the convolution of the fine samples, and an
        # integrand zero up to interval 2 hands over zero before it
        ctx = solver._context(homo.system, 48)
        coeffs = np.random.default_rng(9).standard_normal((5, 4, 2))

        def cubics(m_sub):
            s = np.arange(m_sub + 1) / m_sub
            return np.einsum("ikd,jk->ijd", coeffs, s[:, None] ** np.arange(4))

        want = solver._convolve(ctx, cubics(48))
        got = solver._convolve(ctx, solver._refine(cubics(12), 48))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        coeffs[:2] = 0.0
        got = solver._convolve(ctx, solver._refine(cubics(12), 48))
        assert not got[:2].any() and got[2, 1:].all()


class TestRandomSystems:
    @pytest.mark.parametrize("seed", range(4))
    def test_methods_agree_bounded_and_consistent(self, seed):
        sys = random_system(seed)
        pic = solve_bounded(sys, (-2, 2), substeps=60)
        burn = solve_bounded(sys, (-2, 2), substeps=60, method="burn_in")
        quarter = len(pic.samples) // 4
        assert np.abs(pic.samples[quarter:-quarter] - burn.samples[quarter:-quarter]).max() <= 1e-6
        for traj in (pic, burn):
            assert residual_defect(sys, traj) <= 1e-6
            assert traj.meta["sup_norm"] <= solution_bound(sys)


def a4_limit_system(lip_y, zeta_fraction):
    """A = -I with the exact envelope N = 1, lambda = 1, omega = 3 and
    f = lip_y clip(y, -20, 20): (A4) holds with margin 1 - lip_y while
    (A5) fails. Picard contracts by kappa_pi = lip_y per sweep."""

    def clipped(t, x, y):
        return lip_y * np.clip(y, -20.0, 20.0)

    def clipped_batch(ts, xs, ys):
        return lip_y * np.clip(ys, -20.0, 20.0)

    f = custom_contract(clipped, lip_y * 20.0 * math.sqrt(2.0), 0.0, lip_y, eval_batch=clipped_batch)
    return assemble_system(
        -np.eye(2),
        make_schedule(3.0, 0.0, zeta_fraction),
        f,
        constant_driver(k=90),
        envelope=DecayEnvelope(1.0, 1.0, 60.0, 0),
    )


def interval_chain(sys, k_lo, k_hi, pad, m, warm):
    """Burn-in written out as step_interval calls on intervals k_lo - pad
    .. k_hi - 1, each from the end of the one before it, and started from
    that one moved onto its start state if warm (from its free response
    otherwise). Returns the samples on [k_lo, k_hi], the frozen arguments
    and each interval's sweep count."""
    e_rows = solver._context(sys, m).e_rows
    z, guess, pieces, frozen, sweeps = np.zeros(sys.dim), None, [], [], []
    for k in range(k_lo - pad, k_hi):
        samples, w, inner = step_interval(sys, k, z, m, solver.INNER_DEFAULT_TOL, solver._picard_cap(sys), guess)
        z = samples[-1]
        if warm:
            guess = samples + ((z - samples[0]) @ e_rows).reshape(samples.shape)
        sweeps.append(inner)
        if k >= k_lo:
            pieces.append(samples[:-1])
            frozen.append(w)
    return np.concatenate(pieces + [z[None]]), frozen, tuple(sweeps)


class TestQuasiNewtonBurnIn:
    """Burn-in's frozen arguments. The class is named for the quasi-Newton
    step that burn-in once took on each of them; burn-in now takes plain
    sweeps, and these cases hold it to the plain fixed point, near the
    (A4) limit too, and to the public step_interval."""

    @pytest.mark.parametrize("case", ["homo", "het", 0, 1, 2, 3])
    def test_same_solution_as_plain_fixed_point(self, request, case):
        # Picard's sweeps are the plain fixed-point iteration of the whole
        # window; burn-in solves the same discrete equations interval by
        # interval, so only their stops part them: Picard's leaves at most
        # 1e-10 of iteration error (3.2e-12 apart measured)
        if isinstance(case, str):
            sys, window, m = request.getfixturevalue(case).system, (-10, 10), 200
        else:
            sys, window, m = random_system(case), (-2, 2), 60
        burn = solve_bounded(sys, window, m, method="burn_in")
        pic = solve_bounded(sys, window, m)
        assert np.abs(burn.samples - pic.samples).max() <= 1e-10
        assert burn.k_window == pic.k_window
        assert np.abs(burn.frozen - pic.frozen).max() <= 1e-10

    @pytest.mark.parametrize("lip_y, zeta_fraction", [(0.7, 1.0), (0.9, 0.5), (0.9, 1.0)])
    def test_near_the_a4_limit(self, lip_y, zeta_fraction):
        # an interval's sweeps contract by up to about kappa_pi = lip_y
        # here: at 0.9 and zeta_fraction 1 an interval spends up to 239
        # sweeps in burn-in's window (178 for the first, started from
        # zero), past INNER_MAX_ITERS and within _picard_cap's 479
        sys = a4_limit_system(lip_y, zeta_fraction)
        burn = solve_bounded(sys, (-3, 3), 40, method="burn_in")
        pic = solve_bounded(sys, (-3, 3), 40)
        assert np.abs(pic.samples - burn.samples).max() <= 1e-8

    @pytest.mark.parametrize("case", ["homo", 0, 1, 2, 3])
    def test_warm_start_matches_cold_started_intervals(self, request, case):
        # burn-in starts each interval from the one before it; a chain of
        # step_interval calls from the free response solves the same
        # equations to the same stop (at most 1.1e-14 apart measured)
        if isinstance(case, str):
            sys, (k_lo, k_hi), m = request.getfixturevalue(case).system, (-10, 10), 200
        else:
            sys, (k_lo, k_hi), m = random_system(case), (-2, 2), 60
        burn = solve_bounded(sys, (k_lo, k_hi), m, method="burn_in")
        cold, frozen, _ = interval_chain(sys, k_lo, k_hi, burn.meta["pad"], m, warm=False)
        assert np.abs(burn.samples - cold).max() <= 1e-11
        assert np.abs(burn.frozen - frozen).max() <= 1e-11

    def test_sliding_window_counts_every_interval(self, homo):
        traj = solve_bounded(homo.system, (-3, 3), 64, method="burn_in")
        pad = traj.meta["pad"]
        assert traj.k_window == (-3, 3) and traj.frozen.shape == (6, 2)
        assert len(traj.meta["inner_iterations"]) == pad + 6
        assert traj.meta["iterations"] == max(traj.meta["inner_iterations"])

    def test_a_window_of_one_is_the_warm_started_chain(self, homo, het, monkeypatch):
        # a window of one interval sweeps each interval alone, started
        # from the one before it moved onto its start state: a warm chain
        # of step_interval calls, to the same sweep counts
        monkeypatch.setattr(solver, "BURN_IN_WINDOW", 1)
        totals = {}
        for name, sc in (("homoclinic", homo), ("heteroclinic", het)):
            burn = solve_bounded(sc.system, (-20, 20), method="burn_in")
            chain, frozen, sweeps = interval_chain(sc.system, -20, 20, burn.meta["pad"], 200, warm=True)
            assert burn.meta["inner_iterations"] == sweeps
            assert np.abs(burn.samples - chain).max() <= 1e-14
            assert np.abs(burn.frozen - frozen).max() <= 1e-14
            totals[name] = sum(sweeps)
        assert totals == {"homoclinic": 415, "heteroclinic": 308}

    def test_non_converging_interval_is_named(self, monkeypatch):
        # a cap of 3 sweeps stops the first interval of the window
        sys = random_system(0)
        pad = default_pad(sys, 1e-8)
        monkeypatch.setattr(solver, "_picard_cap", lambda sys: 3)
        message = rf"interval {-2 - pad}: picard iteration did not reach 1e-12 in 3 sweeps at 60 substeps"
        with pytest.raises(InnerDivergenceError, match=message):
            solve_bounded(sys, (-2, 2), 60, method="burn_in")

    def test_picard_sweep_cap_follows_kappa(self, homo, monkeypatch):
        # kappa_pi = 0.9 stops at (1 - 0.9) / 0.9 of the stop of kappa_pi
        # <= 1/2 and takes 189 sweeps at the coarse level, past the old
        # fixed cap of 80; the reference's 0.265 keeps the stop and the floor
        sys = a4_limit_system(0.9, 1.0)
        assert solver._picard_stop(homo.system) == solver.PICARD_STOP == 1e-10
        assert solver._picard_cap(homo.system) == solver.PICARD_MAX_ITERS == 80
        stop = 1e-10 * (1.0 - 0.9) / 0.9
        assert solver._picard_stop(sys) == pytest.approx(stop, rel=1e-15)
        assert solver._picard_cap(sys) == math.ceil(2.0 * math.log(stop) / math.log(0.9)) == 479
        traj = solve_bounded(sys, (-3, 3), 40)
        (m_l, level_stop, deltas), = traj.meta["levels"]
        assert m_l == 10 and level_stop == pytest.approx(stop * 4**4, rel=1e-15)
        assert solver.PICARD_MAX_ITERS < len(deltas) < solver._picard_cap(sys)
        monkeypatch.setattr(solver, "_picard_cap", lambda sys: 80)
        with pytest.raises(InnerDivergenceError, match=r"did not reach 2.84444e-09 in 80 sweeps at 10 substeps"):
            solve_bounded(sys, (-3, 3), 40)


def per_interval_defect(sys, traj):
    """residual_defect interval by interval, one contract call each."""
    m_sub = round(sys.schedule.omega / traj.step)
    h, worst = traj.step, 0.0
    for i in range((len(traj.samples) - 1) // m_sub):
        k = traj.k_window[0] + i
        seg = traj.samples[i * m_sub : (i + 1) * m_sub + 1]
        ts = traj.t0 + h * (i * m_sub + np.arange(m_sub + 1))
        j = np.arange(2, m_sub - 1)
        dz = (seg[j - 2] - 8.0 * seg[j - 1] + 8.0 * seg[j + 1] - seg[j + 2]) / (12.0 * h)
        ws = np.repeat(traj.frozen[i][None], len(j), axis=0)
        rhs = seg[j] @ sys.a.T + solver.eval_many(sys.f, ts[j], seg[j], ws) + sys.driver.value(k)
        worst = max(worst, float(np.max(np.linalg.norm(dz - rhs, axis=1))))
    return worst


def overwriting(contract):
    """The contract, writing NaN over its state and argument arrays once
    it has read them."""

    def eval_batch(ts, xs, ys):
        out = contract.eval_batch(ts, xs, ys)
        xs[...] = ys[...] = np.nan
        return out

    return replace(contract, eval_batch=eval_batch)


class TestResidualDefect:
    def test_reference_defect(self, homo, homo_traj):
        assert residual_defect(homo.system, homo_traj) <= 1e-6

    def test_one_pass_equals_the_per_interval_form(self, homo, het, homo_traj):
        # interval -20 alone, whose samples a strided view holds contiguously
        one = replace(homo_traj, k_window=(-20, -19), samples=homo_traj.samples[:201].copy(),
                      frozen=homo_traj.frozen[:1])
        overwriter = replace(homo.system, f=overwriting(homo.system.f))
        cases = [
            (homo.system, homo_traj),
            (het.system, solve_bounded(het.system, (-20, 20))),
            (homo.system, solve_bounded(homo.system, (-2, 2), substeps=solver.MIN_SUBSTEPS)),
            (het.system, solve_bounded(het.system, (-2, 2), substeps=5)),
            (homo.system, one),
            (homo.system, replace(homo_traj, samples=np.repeat(homo_traj.samples, 2, axis=1)[:, ::2])),
            # the contract must get copies, whatever the layout of the samples
            (overwriter, one),
            (overwriter, replace(homo_traj, samples=homo_traj.samples.copy())),
        ]
        for seed in range(20):
            sys = random_system(seed)
            cases.append((sys, solve_bounded(sys, (-2, 2), substeps=(20, 60)[seed % 2])))
        for sys, traj in cases:
            before = traj.samples.copy()
            want = per_interval_defect(sys, traj)
            assert abs(residual_defect(sys, traj) - want) <= 1e-15 * want
            assert np.array_equal(traj.samples, before)

    def test_one_contract_call(self, homo, homo_traj):
        f, rows = counting_rows(homo.system.f)
        residual_defect(replace(homo.system, f=f), homo_traj)
        assert rows == [40 * 197]

    def test_corrupted_sample_detected(self, homo, homo_traj):
        samples = homo_traj.samples.copy()
        samples[4100, 0] += 0.1  # mid-interval, well away from the nodes
        bad = replace(homo_traj, samples=samples)
        assert residual_defect(homo.system, bad) >= 0.01

    def test_schedule_mismatch(self, homo, homo_traj):
        other = replace(homo.system, schedule=make_schedule(1.5, 0.0, 0.5))
        with pytest.raises(GridMismatchError, match="trajectory and system have different schedules"):
            residual_defect(other, homo_traj)

    @pytest.mark.parametrize("change, message", [
        (lambda t: {"samples": t.samples[:-3]}, "7998 samples and 40 frozen arguments do not fill 40 intervals"),
        (lambda t: {"k_window": (0, 0), "samples": t.samples[:1], "frozen": t.frozen[:0]},
         r"node window \(0, 0\) holds no interval"),
        (lambda t: {"frozen": t.frozen[1:]}, "8001 samples and 39 frozen arguments do not fill 40 intervals"),
    ], ids=["partial-interval", "no-whole-interval", "missing-frozen-argument"])
    def test_inconsistent_grid_refused(self, homo_traj, change, message):
        with pytest.raises(GridMismatchError, match=message):
            replace(homo_traj, **change(homo_traj))

    def test_fewest_substeps(self, homo):
        # four substeps leave one interior point per interval for the stencil
        traj = solve_bounded(homo.system, (-2, 2), substeps=4)
        defect = residual_defect(homo.system, traj)
        assert math.isfinite(defect)
        assert defect > residual_defect(homo.system, solve_bounded(homo.system, (-2, 2), substeps=40))

    def test_too_few_substeps_same_wording(self, homo):
        with pytest.raises(OutOfRangeError) as solving:
            solve_bounded(homo.system, (-2, 2), substeps=3)
        with pytest.raises(GridMismatchError) as recording:
            SampledTrajectory(homo.system.schedule, (-2, 2), 3, np.zeros((13, 2)), np.zeros((4, 2)), {})
        assert str(solving.value) == str(recording.value)


class TestConvergenceOrder:
    def test_fourth_order_in_the_substep(self, homo):
        # Richardson: quadrupling the substep count must shrink the gap
        # to the finest grid by about 2^4 per refinement
        fine = solve_bounded(homo.system, (-2, 2), substeps=400)
        mid = solve_bounded(homo.system, (-2, 2), substeps=200)
        coarse = solve_bounded(homo.system, (-2, 2), substeps=100)
        e_mid = np.abs(mid.samples[::2] - fine.samples[::4]).max()
        e_coarse = np.abs(coarse.samples - fine.samples[::4]).max()
        assert 8.0 <= e_coarse / e_mid <= 40.0

    def test_margin_positive(self, homo):
        assert contraction_margin(homo.system) == pytest.approx(0.5 - 0.1325175, abs=1e-6)
