"""Bounded-solution solver tests.

The f = 0 cases have closed forms: one interval obeys variation of
constants z(t) = e^{A(t-theta)} z0 + A^{-1}(e^{A(t-theta)} - I) alpha,
and a constant driver pins the bounded solution at the equilibrium
-A^{-1} alpha*. The full nonlinear case is cross-checked between the
two methods and through the residual defect.
"""

import functools
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
    estimate_decay_envelope,
    make_schedule,
    map_supremum,
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
from epcag import solver, system
from epcag.errors import (
    GridMismatchError,
    InnerDivergenceError,
    OutOfRangeError,
)


def constant_driver(value=0.75, k=60):
    orb = build_orbit(4.0, "fixed", value, k_min=-k, k_max=k)
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


def interval_polynomials(coeffs, m, a=None, omega=1.5):
    """Samples at m substeps, by _convolve and _output from zero, of the
    integrand sum_k coeffs[i, k] tau^k on interval i (tau from its node),
    and the exact ones, each interval from the exact node value before it."""
    a = reference_matrix() if a is None else a
    ctx = solver._Context(a, omega, 1.0 / 3.0, m, solver.NODES)
    hv = np.einsum("ikd,rk->ird", coeffs, ctx.offsets[:, None] ** np.arange(coeffs.shape[1]))
    new = solver._convolve(ctx, hv, np.zeros(a.shape[0]))
    got = solver._output(ctx, hv, np.concatenate([np.zeros((1, a.shape[0])), new[:, -1]]))
    taus, z, want = omega * np.arange(m + 1) / m, np.zeros(a.shape[0]), []
    for c in coeffs:
        rows = mat_exp(a, taus) @ z + cubic_convolution(a, list(c), taus)
        want.append(rows[:-1])
        z = rows[-1]
    return got, np.concatenate(want + [z[None]])


def direct_table(a, omega, taus):
    """[exp(A tau), W_1(tau), .., W_n(tau)] at each tau, shape (len(taus),
    n+1, dim, dim): every W_r(tau) = int_0^tau exp(A(tau-s)) l_r(s) ds by
    its own graded quadrature rule, with no translation and no scan."""
    n = solver.NODES
    x_nodes, _ = solver._gauss(n)
    bary = solver._bary(x_nodes)
    piece = solver.PIECE_NORM / np.linalg.norm(a)
    rows = []
    for tau in taus:
        sigma, w = solver._rule(tau, piece, n + 4)
        basis = solver._lagrange(x_nodes, bary, 2.0 * (tau - sigma) / omega - 1.0)
        weights = np.einsum("p,rp,pab->rab", w, basis, mat_exp(a, sigma))
        rows.append(np.concatenate([mat_exp(a, tau)[None], weights]))
    return np.array(rows)


def sequential_form(a, omega, hv, taus, start=None):
    """The collocation solution interval by interval: node values by the
    recurrence z_{k+1} = exp(A omega) z_k + sum_r W_r(omega) F_{k,r} from
    `start` (zero if None), and z(theta_k + tau) at each tau of every
    interval from direct_table. hv holds the integrands F (n_int, n, dim)."""
    n_int, _, dim = hv.shape
    at_taus, at_end = direct_table(a, omega, taus), direct_table(a, omega, [omega])[0]
    z = np.zeros(dim) if start is None else start
    out = np.empty((n_int, len(taus), dim))
    for k in range(n_int):
        out[k] = at_taus[:, 0] @ z + np.einsum("trab,rb->ta", at_taus[:, 1:], hv[k])
        z = at_end[0] @ z + np.einsum("rab,rb->a", at_end[1:], hv[k])
    return out, z


class TestConvolve:
    N_INT = 50
    OMEGA = 1.5

    def context(self, a, m):
        return solver._Context(a, self.OMEGA, 1.0 / 3.0, m, solver.NODES)

    def solve(self, ctx, hv):
        """The targets by _convolve, and the samples by _output from its
        node values."""
        new = solver._convolve(ctx, hv, np.zeros(hv.shape[2]))
        return new, solver._output(ctx, hv, np.concatenate([np.zeros((1, hv.shape[2])), new[:, -1]]))

    @pytest.mark.parametrize("m", [4, 60, 200])
    @pytest.mark.parametrize("degree", [0, 3])
    def test_polynomial_integrands_are_exact(self, m, degree):
        # the nodes interpolate polynomials below their count exactly, so
        # only rounding is left, however large h lambda is (up to 1125, at
        # -3000 I and m = 4)
        span = self.N_INT * self.OMEGA
        base = [np.array([0.8, -0.3]), np.array([-1.1, 0.4]), np.array([0.5, 0.9]), np.array([0.7, -0.6])]
        coeffs = [c / span**k for k, c in enumerate(base[: degree + 1])]
        # every interval's nodes, and every grid point of the first, a middle and the last interval
        checks = [(k, 0) for k in range(self.N_INT)] + [
            (k, j) for k in (0, self.N_INT // 2, self.N_INT - 1) for j in range(1, m + 1)
        ]
        for name, a in (("reference", reference_matrix()), ("-300 I", -300.0 * np.eye(2)),
                        ("-3000 I", -3000.0 * np.eye(2))):
            ctx = self.context(a, m)
            ts = self.OMEGA * np.arange(self.N_INT)[:, None] + ctx.offsets
            new, samples = self.solve(ctx, sum(np.multiply.outer(ts**k, c) for k, c in enumerate(coeffs)))
            got = np.array([samples[k * m + j] for k, j in checks])
            want = cubic_convolution(a, coeffs, [self.OMEGA * (k + j / m) for k, j in checks])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
            # the frozen argument at zeta = theta_k + omega / 3
            want = cubic_convolution(a, coeffs, self.OMEGA * (np.arange(self.N_INT) + 1.0 / 3.0))
            assert np.abs(new[:, solver.NODES] - want).max() <= 1e-13 * np.abs(want).max(), name

    def test_context_takes_forward_exponentials_only(self, monkeypatch):
        # exp(-A t) grows like exp(lambda t) and overflows for a strongly
        # decaying A; the weights are built from exp(A t), t >= 0, alone,
        # all in one stacked call
        calls = []

        def recording(a, t=1.0):
            calls.append(np.atleast_1d(t).tolist())
            return mat_exp(a, t)

        monkeypatch.setattr(solver, "mat_exp", recording)
        self.context(reference_matrix(), 200)
        assert len(calls) == 1 and calls[0] and min(calls[0]) >= 0.0

    @pytest.mark.parametrize("m", [4, 200])
    def test_defect_points_match_the_interval_by_interval_form(self, m):
        # the solution at residual_defect's points, both ends included,
        # and the integrand's interpolant there; the output grid leaves
        # both tables as they are
        ctx = self.context(reference_matrix(), m)
        assert ctx.point_offsets[0] == 0.0 and ctx.point_offsets[-1] == pytest.approx(self.OMEGA, abs=1e-15)
        assert np.array_equal(ctx.points, self.context(reference_matrix(), 60).points)
        for n_int in (1, 50):
            hv = np.random.default_rng(n_int).standard_normal((n_int, solver.NODES, 2))
            nodes = np.concatenate([np.zeros((1, 2)), solver._convolve(ctx, hv, np.zeros(2))[:, -1]])
            got = (np.concatenate([nodes[:-1], hv.reshape(n_int, -1)], axis=1) @ ctx.points).reshape(n_int, -1, 2)
            want, _ = sequential_form(reference_matrix(), self.OMEGA, hv, ctx.point_offsets)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), n_int
        x_nodes, _ = solver._gauss(solver.NODES)
        basis = solver._lagrange(x_nodes, solver._bary(x_nodes), 2.0 * ctx.point_offsets / self.OMEGA - 1.0)
        want = np.einsum("rj,krd->kjd", basis, hv)
        got = (hv.reshape(n_int, -1) @ ctx.interpolant).reshape(n_int, -1, 2)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    # output grids from MIN_SUBSTEPS up, across powers of two; interval
    # counts on either side of the node scan's doubling steps
    @pytest.mark.parametrize("m", [4, 5, 7, 12, 15, 17, 33, 50, 60, 200, 240])
    def test_matches_interval_by_interval_form(self, m):
        ctx = self.context(reference_matrix(), m)
        grid = np.arange(m) * self.OMEGA / m
        targets = np.append(ctx.offsets, [self.OMEGA / 3.0, self.OMEGA])
        for n_int in (1, 2, 50, 109):
            # random integrands jump at every node, as Picard's do
            hv = np.random.default_rng(m).standard_normal((n_int, solver.NODES, 2))
            new, samples = self.solve(ctx, hv)
            want, end = sequential_form(reference_matrix(), self.OMEGA, hv, np.append(grid, targets))
            scale = np.abs(want).max()
            assert np.abs(samples[:-1].reshape(n_int, m, 2) - want[:, :m]).max() <= 1e-14 * scale, n_int
            assert np.abs(samples[-1] - end).max() <= 1e-14 * scale, n_int
            assert np.abs(new - want[:, m:]).max() <= 1e-14 * scale, n_int


class TestCollocationRules:
    @pytest.mark.parametrize("points", [10, 16, 20, 28])
    def test_gauss_rule_integrates_polynomials_exactly(self, points):
        # monomials up to degree 2n - 1, to rounding
        x, v = solver._gauss(points)
        k = np.arange(2 * points)
        want = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        assert np.abs(v @ x[:, None] ** k - want).max() <= 4e-16 * points
        assert np.all(np.diff(x) > 0.0) and np.array_equal(x, -x[::-1])
        # a stiff exponential rests on the small weights at the ends, where
        # numpy's leggauss errs: 2.8e-16 to 3.5e-15 relative here
        for rate in (1.0, 2.5):
            want = -np.expm1(-2.0 * rate) / rate
            assert abs(v @ np.exp(rate * (x - 1.0)) - want) <= 2.5e-16 * want

    def test_lagrange_basis_reproduces_polynomials(self):
        x_nodes, _ = solver._gauss(solver.NODES)
        basis = solver._lagrange(x_nodes, solver._bary(x_nodes), np.linspace(-1.0, 1.0, 101))
        coeffs = np.random.default_rng(3).standard_normal(solver.NODES)
        poly = np.polynomial.polynomial.polyval
        assert np.abs(basis.sum(axis=0) - 1.0).max() <= 1e-15
        assert np.abs(poly(x_nodes, coeffs) @ basis - poly(np.linspace(-1.0, 1.0, 101), coeffs)).max() <= 1e-13

    def test_lagrange_basis_on_a_node_is_its_delta(self):
        # the point moves 1e-200 off the node, so the other terms are
        # about 1e-200 of its own
        x_nodes, _ = solver._gauss(solver.NODES)
        basis = solver._lagrange(x_nodes, solver._bary(x_nodes), x_nodes[[0, 7, 15]])
        assert np.abs(basis - np.eye(solver.NODES)[:, [0, 7, 15]]).max() <= 1e-190

    def test_rule_grades_away_from_its_target(self):
        # pieces of 0.01, 0.01, 0.02, ... up to 2.56, then the rest to 3
        sigma, w = solver._rule(3.0, 0.01, 10)
        assert len(sigma) == 10 * 10
        assert np.all((0.0 < sigma) & (sigma < 3.0)) and np.all(sigma[:10] < 0.01)
        assert abs(w.sum() - 3.0) <= 1e-15
        # a rule over no length has zero weights, so its integral is 0 exactly
        sigma, w = solver._rule(0.0, 0.01, 10)
        assert not w.any() and not sigma.any()

    def test_start_value_is_carried_by_the_scan(self):
        # a start value adds its free response exp(A (t - t0)) start to
        # every target of every interval
        ctx = solver._Context(reference_matrix(), 1.5, 1.0 / 3.0, 60, solver.NODES)
        hv = np.random.default_rng(4).standard_normal((50, solver.NODES, 2))
        start = np.array([0.6, -1.3])
        targets = np.append(ctx.offsets, [0.5, 1.5])
        times = 1.5 * np.arange(50)[:, None] + targets
        free = np.einsum("kab,b->ka", mat_exp(reference_matrix(), times.ravel()), start).reshape(50, -1, 2)
        got = solver._convolve(ctx, hv, start) - solver._convolve(ctx, hv, np.zeros(2))
        assert np.abs(got - free).max() <= 1e-14 * np.abs(free).max()

    def test_contract_sees_the_collocation_nodes(self, homo):
        f, seen = recording(homo.system.f)
        traj = solve_bounded(replace(homo.system, f=f), (-2, 2), 40)
        nodes = -1.5 * (2 + traj.meta["pad"]) + 1.5 * np.arange(4 + traj.meta["pad"])[:, None]
        want = (nodes + 0.75 * (1.0 + solver._gauss(solver.NODES)[0])).ravel()
        assert all(np.array_equal(ts, want) for ts, *_ in seen)


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
        # the sweeps written out with directly built weights and the
        # contract's scalar eval, from the free response exp(A tau) z0
        rng = np.random.default_rng(10 * dim + round(100 * zeta_fraction))
        a = non_normal_hurwitz(rng, dim)
        sys = assemble_system(
            a,
            make_schedule(1.2, 0.0, zeta_fraction),
            coupled_contract(dim),
            held_driver(rng.uniform(0.0, 1.0, (3, dim)), -1),
            envelope=estimate_decay_envelope(a),
        )
        z0, m, n = rng.standard_normal(dim), 150, solver.NODES
        samples, w, inner = step_interval(sys, 1, z0, substeps=m)

        offsets = solver._context(sys, m).offsets
        table = direct_table(a, 1.2, np.append(offsets, zeta_fraction * 1.2))
        ts = sys.schedule.node(1) + offsets
        psi, deltas = table[:, 0] @ z0, []
        while not deltas or deltas[-1] > solver._picard_stop(sys):
            hv = np.array([sys.f.eval(t, x, psi[n]) for t, x in zip(ts, psi[:n])]) + sys.driver.value(1)
            new = table[:, 0] @ z0 + np.einsum("trab,rb->ta", table[:, 1:], hv)
            deltas.append(np.linalg.norm(new - psi, axis=1).max())
            psi = new
        grid = direct_table(a, 1.2, np.arange(m + 1) * 1.2 / m)
        want = grid[:, 0] @ z0 + np.einsum("trab,rb->ta", grid[:, 1:], hv)
        scale = np.abs(want).max()
        assert inner == len(deltas)
        assert np.abs(samples - want).max() <= 1e-13 * scale
        assert np.abs(w - psi[n]).max() <= 1e-13 * scale

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
        # every sweep evaluates the contract at the interval's NODES
        # collocation nodes; zeta lies j_full substeps in, plus a part of
        # one more if partial
        f, seen = recording(homo.system.f)
        sys = replace(homo.system, f=f, schedule=make_schedule(1.5, 0.0, zeta_fraction))
        samples, w, inner = step_interval(sys, 0, np.array([0.3, -0.2]), substeps=200)
        assert sum(len(ts) for ts, *_ in seen) == inner * solver.NODES
        # no state or argument the contract saw was changed afterwards or lives in the samples
        assert all(np.array_equal(x, xc) and np.array_equal(y, yc) for _, x, xc, y, yc in seen)
        assert not any(np.shares_memory(x, samples) or np.shares_memory(y, samples) for _, x, _, y, _ in seen)
        if partial:
            # read off between nodes j_full and j_full + 1
            lo, hi = samples[j_full], samples[j_full + 1]
            assert np.all((np.minimum(lo, hi) - 1e-3 <= w) & (w <= np.maximum(lo, hi) + 1e-3))
            assert not any(np.array_equal(w, s) for s in samples)
        elif j_full == 0:
            assert np.array_equal(w, samples[0])
        else:
            # the sweep's zeta target and the output table reach the same
            # point by different sums
            assert np.abs(w - samples[j_full]).max() <= 1e-15 * np.abs(samples).max()
        # the last sweep froze the argument its predecessor gave, which is
        # w to within the stop, as the zeta target is one of the targets
        # whose delta the stop bounds
        assert np.abs(seen[-1][3] - w).max() <= solver._picard_stop(sys)

    def test_reference_interval_inner_iterations(self, homo):
        samples, w, inner = step_interval(homo.system, 0, np.zeros(2))
        # contraction factor ~1e-2 per sweep: Picard's stop of 1e-10 in
        # at most 8 sweeps
        assert inner <= 8
        assert samples.shape == (201, 2)
        # zeta_0 = 0.5 sits between grid points 66 and 67; the frozen
        # argument must agree with linear interpolation to O(h^2)
        lerp = samples[66] + (0.5 / 0.0075 - 66.0) * (samples[67] - samples[66])
        assert np.abs(w - lerp).max() <= 1e-3

    @pytest.mark.parametrize("z0", [[1.0, 2.0, 3.0], 5.0, [[0.3, -0.2]]])
    def test_z0_shape_is_checked(self, homo, z0):
        with pytest.raises(OutOfRangeError, match=r"z0 must have shape \(2,\)"):
            step_interval(homo.system, 0, z0)

    def one_interval(self, sys, z0, psi):
        """The sweep loop on interval 0 alone from the iterate psi (the
        guess step_interval once took) and the start value z0."""
        ctx = solver._context(sys, 200)
        return solver._iterate(sys, ctx, 0, solver._times(sys, ctx.offsets, 0, 1), sys.driver.value(0)[None], psi,
                               solver._picard_stop(sys), solver._picard_cap(sys), z0)

    def test_converged_guess_stops_after_one_sweep(self, homo):
        # step_interval starts from the free response; the loop under it
        # starts from any iterate, as burn-in's warm start does
        z0, tol = np.array([0.3, -0.2]), solver._picard_stop(homo.system)
        free = (z0 @ solver._context(homo.system, 200).shift).reshape(1, -1, 2)
        psi, _, inner, _ = self.one_interval(homo.system, z0, free)
        again, _, one, _ = self.one_interval(homo.system, z0, psi)
        assert inner[0] > 1 and one[0] == 1
        assert np.abs(again - psi).max() <= tol

    def test_poor_guess_reaches_the_same_fixed_point(self, homo):
        # a start 100 times the solution costs sweeps, not accuracy:
        # both stops leave at most kappa_pi / (1 - kappa_pi) times Picard's
        # stop of error, and the sweeps contract faster than kappa_pi
        # (1.2e-13 apart measured)
        z0 = np.array([0.3, -0.2])
        free = (z0 @ solver._context(homo.system, 200).shift).reshape(1, -1, 2)
        psi, _, _, _ = self.one_interval(homo.system, z0, free)
        far, _, inner, _ = self.one_interval(homo.system, z0, 100.0 * psi)
        assert inner[0] > 1
        assert np.abs(far - psi).max() <= 1e-11

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
        # the first sweep meets the NaN in interval 2, the last one; the
        # node scan carries it forward only
        sys = replace(linear_system(), f=custom_contract(
            lambda t, x, y: np.full(2, np.nan) if 4.0 < t < 4.5 else np.zeros(2), 1.0, 0.0, 0.0))
        with pytest.raises(InnerDivergenceError, match="interval 2: non-finite samples in picard sweep 1$"):
            solve_bounded(sys, (-3, 3), substeps=20, method="picard")

    def test_inner_divergence_guard(self):
        # a frozen-argument gain this large defeats the fixed point loop
        # (its declared bound is too small, so assembly would refuse it)
        wild = custom_contract(lambda t, x, y: 5.0 * y, 10.0, 0.0, 5.0)
        sys = replace(linear_system(), f=wild)
        with pytest.raises(InnerDivergenceError):
            step_interval(sys, 0, np.array([1.0, 1.0]))

    def test_a_system_without_a4_stops_at_picard_stop(self):
        # kappa_pi only bounds the contraction: a zero term declared with
        # gains past (A4) still settles, and (1 - kappa_pi) / kappa_pi
        # would make the stop negative
        loose = custom_contract(lambda t, x, y: np.zeros(2), 10.0, 0.0, 5.0)
        sys, z0 = replace(linear_system(), f=loose), np.array([1.0, 1.0])
        assert solver._kappa_pi(sys) > 1.0 and solver._picard_stop(sys) == solver.PICARD_STOP
        samples, w, inner = step_interval(sys, 0, z0)
        want, want_w, want_inner = step_interval(linear_system(), 0, z0)
        assert inner == want_inner <= 2
        assert np.array_equal(samples, want) and np.array_equal(w, want_w)


def stiff_system(rate=50.0):
    """A = -rate I with its exact envelope, omega 3 and zeta half-way; the
    bounded solution is the constant 0.75 / rate (0.015 at rate 50)."""
    return assemble_system(
        -rate * np.eye(2),
        make_schedule(3.0, 0.0, 0.5),
        zero_contract(2),
        constant_driver(),
        envelope=DecayEnvelope(n_const=1.0, rate=rate, validated_horizon=10.0 / rate),
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
        # at rate 300 exp(-A omega) = e^900 overflows; the weights take
        # forward exponentials only and meet no overflow. At rate 3000
        # h lambda = 45, and the graded quadrature keeps the samples exact
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
                              envelope=DecayEnvelope(n_const=1.0, rate=1.0, validated_horizon=10.0))
        sys = replace(sys, f=liar)
        with pytest.raises(InnerDivergenceError, match="above the a-priori bound M_phi"):
            solve_bounded(sys, (-3, 3), 32, method=method)

    @pytest.mark.parametrize("method", ["picard", "burn_in"])
    def test_stiff_non_normal_matrix_builds_finite_weights(self, method):
        # spectral abscissa -300 with a large off-diagonal coupling: exp(-A
        # omega) is out of double range, and the graded rules near each
        # target keep every weight finite and the equilibrium -A^-1 alpha
        # exact to rounding
        a = np.array([[-300.0, 40.0], [0.0, -310.0]])
        sys = assemble_system(a, make_schedule(3.0, 0.0, 0.5), zero_contract(2), constant_driver(),
                              envelope=estimate_decay_envelope(a))
        ctx = solver._context(sys, 40)
        assert all(np.isfinite(t).all() for t in (ctx.weights, ctx.shift, ctx.table))
        want = np.linalg.solve(a, -np.full(2, 0.75))
        traj = solve_bounded(sys, (-3, 3), 40, method=method)
        assert np.abs(traj.samples - want).max() <= 1e-14 * np.abs(want).max()

    def test_a_priori_bound_reads_the_node_values(self, homo, monkeypatch):
        # at 4 substeps the samples of (-2, 2) peak at norm 2.3475 and the
        # collocation nodes, which lie between them, at 2.3699; a bound
        # between the two passes the samples and refuses the nodes
        monkeypatch.setattr(solver, "solution_bound", lambda sys: 2.36)
        for method in ("picard", "burn_in"):
            with pytest.raises(InnerDivergenceError, match="reaches norm 2.36986, above the a-priori bound"):
                solve_bounded(homo.system, (-2, 2), solver.MIN_SUBSTEPS, method=method)

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
        # sweeps over 89 intervals (pad 49), at most 8 per interval: each
        # counts the sweeps of the sliding window while it was in it, and
        # each interval enters the window started from the one before it
        assert totals == {"homoclinic": 466, "heteroclinic": 377}

    @pytest.mark.parametrize("method, batch, zeta_fraction", [
        ("picard", True, 1.0 / 3.0), ("picard", False, 1.0 / 3.0),
        ("burn_in", True, 1.0 / 3.0), ("burn_in", True, 0.0), ("burn_in", True, 1.0),
        ("burn_in", False, 1.0 / 3.0),
    ])
    def test_f_evals_counts_every_contract_row(self, homo, method, batch, zeta_fraction):
        # NODES rows per interval and sweep, whatever the substeps and the
        # zeta fraction
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
        assert homo_traj.times[0] == -30.0
        assert homo_traj.times[-1] == pytest.approx(30.0, abs=1e-9)
        assert homo_traj.k_window == (-20, 20)

    def test_default_pad_reference_value(self, homo):
        assert solve_bounded(homo.system, (-2, 2), 4).meta["pad"] == lead_in_pad(homo.system) == 49

    def test_reference_driver_windows(self, homo, het):
        # coverage_pad sizes every reference orbit from the mu = 4 bound:
        # pad 49 at tol 1e-8, plus headroom, left of the 30-node window
        for orbit in (homo.beta, *homo.alphas, het.beta, *het.alphas):
            assert (orbit.k_min, orbit.k_max) == (-83, 32)

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
        (long, *_), _ = solver._solve(sys, *window, 200, m, "picard")
        errors = {}
        rates = solver._tail_rates(sys.envelope, sys.f, solution_bound(sys), 1.5, sys.schedule.zeta_fraction)
        for pad in (20, 30, 45):
            (short, *_), _ = solver._solve(sys, *window, pad, m, "picard")
            errors[pad] = np.abs(short - long).max()
            assert errors[pad] <= solver._tail_bound(*rates, 1.5, pad), pad
        assert solution_bound(sys) * math.exp(-0.5 * 30 * 1.5) < 1e-8 < errors[30]
        assert solver._tail_bound(*rates, 1.5, 30) > 1e-8
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
        (long, *_), _ = solver._solve(sys, -3, 3, 600, 40, method)
        assert traj.meta["pad"] == {0.5: 51, 0.7: 102, 0.9: 360}[lip_y]
        assert np.abs(traj.samples - long).max() <= 1e-8

    def test_pad_is_the_fewest_that_meets_tol(self):
        # seeded (A4) systems, near the limit too, at tolerances from 1e-13
        # to 1: the lead-in solve_bounded picks bounds the transient by tol,
        # and one interval less would not
        rng = np.random.default_rng(35)
        systems = [random_system(seed) for seed in range(3)]
        systems += [a4_limit_system(lip_y, zeta) for lip_y, zeta in zip(rng.uniform(0.0, 0.9, 3), (0.0, 0.5, 1.0))]
        systems.append(a4_limit_system(0.9, 0.0))
        for sys in systems:
            sched = sys.schedule
            rates = solver._tail_rates(sys.envelope, sys.f, solution_bound(sys), sched.omega, sched.zeta_fraction)
            for tol in (1e-13, 1.0, *10.0 ** rng.uniform(-13.0, 0.0, 4)):
                meta = solve_bounded(sys, (0, 1), solver.MIN_SUBSTEPS, tol).meta
                assert meta["tail_bound"] <= tol, (sys.f.lip_y, tol)
                pad = meta["pad"]
                assert pad == 1 or solver._tail_bound(*rates, sched.omega, pad - 1) > tol, (sys.f.lip_y, tol)

    @pytest.mark.parametrize("zeta_fraction", [0.0, 0.37, 1.0])
    def test_frozen_arguments_at_every_zeta_fraction(self, homo, zeta_fraction):
        # f = 0: w is the variation-of-constants value at zeta from z0
        sys = linear_system(zeta_fraction)
        z0, alpha, a = np.array([0.4, 0.1]), np.full(2, 0.75), reference_matrix()
        phi = mat_exp(a, zeta_fraction * 1.5)
        _, w, _ = step_interval(sys, 0, z0, 100)
        assert np.abs(w - (phi @ z0 + np.linalg.solve(a, (phi - np.eye(2)) @ alpha))).max() <= 1e-13
        # with the reference contract, at 100 substeps zeta falls on grid
        # point 0, 37 or 100 of each interval: the start node exactly, and
        # elsewhere the same point by the output table's sums
        sys = replace(homo.system, schedule=make_schedule(1.5, 0.0, zeta_fraction))
        for method in ("picard", "burn_in"):
            traj = solve_bounded(sys, (-3, 3), 100, method=method)
            at_zeta = traj.samples[round(100 * zeta_fraction) :: 100][:6]
            if zeta_fraction == 0.0:
                assert np.array_equal(traj.frozen, at_zeta)
            assert np.abs(traj.frozen - at_zeta).max() <= 1e-14 * np.abs(at_zeta).max()

    def test_output_at_the_fewest_substeps(self, homo):
        # MIN_SUBSTEPS samples every 50th point of a 200-substep solve, and
        # the frozen arguments do not depend on the output grid
        few, many = (solve_bounded(homo.system, (-3, 3), m) for m in (solver.MIN_SUBSTEPS, 200))
        assert few.samples.shape == (6 * solver.MIN_SUBSTEPS + 1, 2)
        assert np.array_equal(few.frozen, many.frozen)
        assert np.abs(few.samples - many.samples[::50]).max() <= 1e-14 * np.abs(many.samples).max()

    @pytest.mark.parametrize("method", ["picard", "burn_in"])
    def test_cold_caches_solve_bit_for_bit(self, homo, method):
        # a solve that builds its weights, Gauss rules and node-scan powers
        # afresh equals one that finds them cached, samples, frozen
        # arguments and meta alike. meta carries each sweep's delta for
        # Picard alone and each interval's sweep count for burn-in alone;
        # `epcag solve` prints inner passes only when that key is there
        for cache in (solver._cached_context, solver._gauss, system._spot_design):
            cache.cache_clear()
        cold = solve_bounded(homo.system, (-20, 20), method=method)
        warm = solve_bounded(homo.system, (-20, 20), method=method)
        assert solver._cached_context.cache_info().hits >= 1
        np.testing.assert_array_equal(cold.samples, warm.samples)
        np.testing.assert_array_equal(cold.frozen, warm.frozen)
        assert cold.meta == warm.meta
        per = {"picard": "iterate_deltas", "burn_in": "inner_iterations"}[method]
        assert list(cold.meta) == ["method", "iterations", per, "f_evals", "pad", "tail_bound", "sup_norm"]

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
        # a window of the wrong length names the window, as the others do
        for window in ((1, 2, 3), (1,)):
            with pytest.raises(OutOfRangeError, match=r"increasing pair of node indices, got \("):
                solve_bounded(homo.system, window)
        # any integral type is a node index, and the trajectory keeps Python ints
        traj = solve_bounded(homo.system, (np.int64(-2), np.int64(2)))
        assert traj.k_window == (-2, 2)
        assert all(type(k) is int for k in traj.k_window)

    @pytest.mark.parametrize("window", [(False, True), (0, True), (np.False_, np.True_), (0, True, 5)])
    def test_bools_are_not_node_indices(self, homo, window):
        # operator.index(True) is 1, so (False, True) read as the window (0, 1);
        # a bool refused is not dropped, so (0, True, 5) is no pair (0, 5)
        with pytest.raises(OutOfRangeError, match=r"^t_window must be an increasing pair of node indices, got \("):
            solve_bounded(homo.system, window)

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
        # declared: one argument row per interval in each sweep (NODES
        # collocation nodes) and in residual_defect (DEFECT_POINTS + 1
        # points); undeclared: one per row, as before blocks
        f, seen = recording(replace(homo.system.f, blocked_ys=declared))
        sys = replace(homo.system, f=f)
        residual_defect(sys, solve_bounded(sys, (-3, 3), 16))
        assert all(len(ts) % len(ys) == 0 for ts, _, _, ys, _ in seen)
        assert {len(ts) // len(ys) for ts, _, _, ys, _ in seen} == ({solver.NODES, solver.DEFECT_POINTS + 1} if declared else {1})


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


def lead_in_pad(sys, tol=1e-8):
    """solve_bounded's default pad at tol, from the system's parts."""
    sched = sys.schedule
    return solver._lead_in_pad(sys.envelope, sys.f, map_supremum(sys.driver), sched.omega, sched.zeta_fraction, tol)


def zero_start(sys, window, substeps, tol=1e-8):
    """Picard samples and sweep deltas of solve_bounded's grid, swept from
    zero through the solver's sweep loop and written out by its output
    table."""
    (k_lo, k_hi), pad = window, lead_in_pad(sys, tol)
    k0 = k_lo - pad
    alpha = np.stack([sys.driver.value(k) for k in range(k0, k_hi)])
    ctx = solver._context(sys, substeps)
    psi, deltas, _, hv = solver._iterate(sys, ctx, k0, solver._times(sys, ctx.offsets, k0, k_hi - k0), alpha,
                                         np.zeros((k_hi - k0, solver.NODES + 2, sys.dim)),
                                         solver._picard_stop(sys), solver._picard_cap(sys), np.zeros(sys.dim))
    return solver._output(ctx, hv[pad:], psi[pad - 1 :, -1]), deltas


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
    (-30, 30) and each TestRandomSystems draw."""
    if isinstance(request.param, str):
        sys, window, m = request.getfixturevalue(request.param).system, (-20, 20), 200
    else:
        sys, window, m = random_system(request.param), (-2, 2), 60
    return sys, window, m, solve_bounded(sys, window, m)


class TestNestedStart:
    """Picard's start. The class is named for the cascade of coarser grids
    that Picard once ran before its requested grid, and its cases for what
    the cascade owed: the fixed point of a start from zero, sweeps that
    contract from the first, and a hand-over and refinement between grids
    that leak across no node. Picard now sweeps the collocation nodes from
    zero, and the cases hold that start, its sweeps, and the output table
    that refines the nodes onto the substep grid to the same demands."""

    def test_same_fixed_point_as_a_zero_start(self, nested):
        sys, window, m, traj = nested
        want, deltas = zero_start(sys, window, m)
        assert "levels" not in traj.meta
        assert np.array_equal(traj.samples, want)
        assert traj.meta["iterate_deltas"] == tuple(deltas)
        assert deltas[-1] <= 1e-10

    def test_coarse_sweeps_contract(self, nested):
        # criterion 04's law on every ratio, the first sweeps from zero
        # included, which the coarse levels once took
        deltas = nested[3].meta["iterate_deltas"]
        assert len(deltas) >= 2
        for prev, cur in zip(deltas, deltas[1:]):
            assert cur / prev <= 0.30

    @pytest.mark.parametrize("substeps", [4, 10, 15])
    def test_fewer_than_16_substeps_start_from_zero(self, homo, substeps):
        traj = solve_bounded(homo.system, (-2, 2), substeps)
        want, deltas = zero_start(homo.system, (-2, 2), substeps)
        assert np.array_equal(traj.samples, want)
        assert traj.meta["iterate_deltas"] == tuple(deltas)

    @pytest.mark.parametrize("substeps, coarse", [(50, 12), (201, 50)])
    def test_substeps_not_divisible_by_four(self, homo, substeps, coarse):
        # the substeps set only the output grid: a coarser one solves the
        # same equations in the same sweeps, to the same node values and
        # frozen arguments bit for bit; only the sup norm over the samples
        # may differ
        traj, other = (solve_bounded(homo.system, (-2, 2), m) for m in (substeps, coarse))
        assert residual_defect(homo.system, traj) <= 1e-6
        assert {**traj.meta, "sup_norm": 0} == {**other.meta, "sup_norm": 0}
        assert np.array_equal(traj.frozen, other.frozen)
        assert np.array_equal(traj.samples[::substeps], other.samples[::coarse])

    def test_refine_reproduces_interval_cubics(self):
        # the output table refines the nodes onto any substep grid, as
        # _refine once refined a coarse grid onto a fine one: exact for a
        # different cubic integrand on every interval, jumping at each node
        coeffs = np.random.default_rng(5).standard_normal((6, 4, 2))
        for coarse, fine in ((12, 50), (8, 32), (50, 201)):
            for m in (coarse, fine):
                got, want = interval_polynomials(coeffs, m)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), m

    def test_refine_reproduces_interval_quintics(self):
        # and for quintics, and on the 4-substep grid for quartics: every
        # degree below the node count is exact
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal((6, 6, 2))
        for coarse, fine in ((12, 50), (8, 32), (50, 201)):
            for m in (coarse, fine):
                got, want = interval_polynomials(coeffs, m)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), m
        got, want = interval_polynomials(rng.standard_normal((6, 5, 2)), solver.MIN_SUBSTEPS)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_refine_does_not_leak_across_a_jump(self):
        # integrands constant on each interval: the first interval, whose
        # integrand and start are zero, stays exactly zero, and the others
        # carry only their node values across the jumps
        levels = np.array([0.0, 1.0, 0.0, -2.0])
        got, want = interval_polynomials(np.broadcast_to(levels[:, None, None], (4, 1, 2)), 50)
        assert not got[:51].any()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_reference_f_evals(self, homo, het):
        # per interval 8 sweeps of the NODES = 16 nodes, over 109
        # intervals (pad 49), in both scenarios
        for sc in (homo, het):
            meta = solve_bounded(sc.system, (-30, 30)).meta
            assert (meta["f_evals"], meta["iterations"]) == (13_952, 8)

    @pytest.mark.parametrize("substeps", [16, 60, 120, 200, 240])
    @pytest.mark.parametrize("batch", [True, False])
    def test_cascade_keeps_the_fixed_point(self, substeps, batch):
        # the cascade once had to keep the fixed point of a start from
        # zero; Picard now starts from zero, and its fixed point is the one
        # burn-in's sliding window reaches, as both solve the same
        # collocation equations. Seeded random systems agree within the
        # stops' 1e-10 (1.9e-12 measured); at the (A4) limit kappa_pi is
        # 0.7-0.9, and each stop leaves at most 1e-10 of iteration error
        # (7.0e-11 apart measured). The (A4)-limit solves take up to 241
        # sweeps and are batched only
        cases = [(random_system(seed), (-2, 2), 1e-10) for seed in range(4)]
        if batch:
            cases += [(a4_limit_system(*lz), (-3, 3), 2e-10) for lz in ((0.7, 1.0), (0.9, 0.5), (0.9, 1.0))]
        for sys, window, tol in cases:
            if not batch:
                sys = replace(sys, f=replace(sys.f, eval_batch=None))
            pic = solve_bounded(sys, window, substeps)
            burn = solve_bounded(sys, window, substeps, method="burn_in")
            assert np.abs(pic.samples - burn.samples).max() <= tol
            assert np.abs(pic.frozen - burn.frozen).max() <= tol

    def test_hand_over_does_not_leak_across_nodes(self, homo):
        # the cascade handed each grid the convolution of the last one's
        # integrand; a sweep now hands the output table its integrand at
        # the nodes. An integrand zero up to interval 2 hands over zero
        # before it, in the sweep's targets and in the samples
        ctx = solver._context(homo.system, 48)
        hv = np.random.default_rng(9).standard_normal((5, solver.NODES, 2))
        hv[:2] = 0.0
        new = solver._convolve(ctx, hv, np.zeros(2))
        samples = solver._output(ctx, hv, np.concatenate([np.zeros((1, 2)), new[:, -1]]))
        assert not new[:2].any() and new[2:].all()
        assert not samples[: 2 * 48 + 1].any() and samples[2 * 48 + 1 :].all()


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
        envelope=DecayEnvelope(1.0, 1.0, 60.0),
    )


def interval_chain(sys, k_lo, k_hi, pad, m, warm):
    """Burn-in written out interval by interval on k_lo - pad .. k_hi - 1,
    each from the end of the one before it: step_interval calls from the
    free response if not warm, else the solver's sweep loop on one
    interval started from the one before it moved onto its start state;
    both at Picard's stop, as burn-in retires its intervals. Returns the
    samples on [k_lo, k_hi], the frozen arguments and each interval's
    sweep count."""
    ctx, cap, stop = solver._context(sys, m), solver._picard_cap(sys), solver._picard_stop(sys)
    z, psi, pieces, frozen, sweeps = np.zeros(sys.dim), None, [], [], []
    for k in range(k_lo - pad, k_hi):
        if warm:
            moved = z @ ctx.shift if psi is None else psi.ravel() + (z - start) @ ctx.shift
            psi, _, inner, hv = solver._iterate(sys, ctx, k, solver._times(sys, ctx.offsets, k, 1),
                                                sys.driver.value(k)[None], moved.reshape(1, -1, sys.dim),
                                                stop, cap, z)
            samples, w, inner = solver._output(ctx, hv, np.stack([z, psi[0, -1]])), psi[0, solver.NODES], inner[0]
        else:
            samples, w, inner = step_interval(sys, k, z, m)
        start, z = z, samples[-1]
        sweeps.append(int(inner))
        if k >= k_lo:
            pieces.append(samples[:-1])
            frozen.append(w)
    return np.concatenate(pieces + [z[None]]), frozen, tuple(sweeps)


def top_up_loop(ctx, new, start, count):
    """Burn-in's top-up one interval after another, each the one before
    it moved onto its own start."""
    out, last, s = [], new[-1], (new[-2, -1] if len(new) > 1 else start)
    for _ in range(count):
        last, s = last + ((last[-1] - s) @ ctx.shift).reshape(last.shape), last[-1]
        out.append(last)
    return np.stack(out)


def top_up_long(ctx, new, start, count):
    """The top-up's formula last + exp(A tau) (I + E + ... + E^(j-1)) e,
    e = end - start of last, in long double."""
    ld = np.longdouble
    shift, power = ctx.shift.astype(ld), ctx.scan[0].astype(ld)
    term = new[-1, -1].astype(ld) - (new[-2, -1] if len(new) > 1 else start).astype(ld)
    out, total = [], np.zeros_like(term)
    for _ in range(count):
        total, term = total + term, term @ power
        out.append(new[-1] + (total @ shift).reshape(new.shape[1:]))
    return np.stack(out)


class TestTopUp:
    @pytest.mark.parametrize("case", ["homo", "het", 0, 1, 2, 3])
    def test_one_product_matches_the_interval_loop(self, request, case):
        # windows cut from a solved grid, as burn-in tops them up: one
        # interval is the loop's step exactly; longer top-ups stay within
        # 1e-15 of the formula, where the loop's sums drift further
        # (2.4e-15 measured at 24)
        sys = request.getfixturevalue(case).system if isinstance(case, str) else random_system(case)
        ctx = solver._context(sys, 50)
        k0, n_all = -30, 40
        psi, *_ = solver._iterate(sys, ctx, k0, solver._times(sys, ctx.offsets, k0, n_all), sys.driver.span(k0, k0 + n_all),
                                  np.zeros((n_all, ctx.nodes + 2, sys.dim)), 1e-12, 200, np.zeros(sys.dim))
        for size in (1, 2, 8, solver.BURN_IN_WINDOW):
            for i in range(0, n_all - size, 3):
                new, start = psi[i : i + size], (psi[i - 1, -1] if i else np.zeros(sys.dim))
                assert np.array_equal(solver._top_up(ctx, new, start, 1), top_up_loop(ctx, new, start, 1))
                got = solver._top_up(ctx, new, start, size)
                assert np.abs(got - top_up_long(ctx, new, start, size)).max() <= 1e-15
                assert np.abs(got - top_up_loop(ctx, new, start, size)).max() <= 3e-15


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
        # 1e-10 of iteration error (1.9e-12 apart measured)
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
        # zero), past PICARD_MAX_ITERS and within _picard_cap's 479
        sys = a4_limit_system(lip_y, zeta_fraction)
        burn = solve_bounded(sys, (-3, 3), 40, method="burn_in")
        pic = solve_bounded(sys, (-3, 3), 40)
        assert np.abs(pic.samples - burn.samples).max() <= 1e-8

    @pytest.mark.parametrize("case", ["homo", 0, 1, 2, 3])
    def test_warm_start_matches_cold_started_intervals(self, request, case):
        # burn-in starts each interval from the one before it; a chain of
        # step_interval calls from the free response solves the same
        # equations to the same stop (at most 2.8e-12 apart measured)
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
        # of one-interval sweep loops, to the same sweep counts. Contexts
        # size their top-up table by BURN_IN_WINDOW, so they come from a
        # cache of this test's own, not left for tests at the full window
        monkeypatch.setattr(solver, "BURN_IN_WINDOW", 1)
        monkeypatch.setattr(solver, "_cached_context", functools.lru_cache(solver._cached_context.__wrapped__))
        totals = {}
        for name, sc in (("homoclinic", homo), ("heteroclinic", het)):
            burn = solve_bounded(sc.system, (-20, 20), method="burn_in")
            chain, frozen, sweeps = interval_chain(sc.system, -20, 20, burn.meta["pad"], 200, warm=True)
            assert burn.meta["inner_iterations"] == sweeps
            assert np.abs(burn.samples - chain).max() <= 1e-14
            assert np.abs(burn.frozen - frozen).max() <= 1e-14
            totals[name] = sum(sweeps)
        assert totals == {"homoclinic": 333, "heteroclinic": 254}

    @pytest.mark.parametrize("case", [0, 1, 2, 3, 4, 5, (0.7, 1.0), (0.9, 0.5), (0.9, 1.0)])
    def test_retired_blocks_meet_the_stop_bound(self, case, monkeypatch):
        # burn-in retires intervals at Picard's stop: each retired block
        # lies within eps = kappa_pi / (1 - kappa_pi) stop of the solution
        # from its start value, and _solve's docstring bounds the
        # samples by eps (1 + N / ((1 - q(mu)) (1 - e^{-mu omega}))). A
        # Picard solve at PICARD_STOP 1e-14 stands in for the solution
        # from zero (3.6e-13 to 5.1e-11 apart measured, at most 3% of the
        # bound)
        if isinstance(case, int):
            sys, window, m = random_system(case), (-2, 2), 60
        else:
            sys, window, m = a4_limit_system(*case), (-3, 3), 40
        burn = solve_bounded(sys, window, m, method="burn_in")
        monkeypatch.setattr(solver, "PICARD_STOP", 1e-14)
        pic = solve_bounded(sys, window, m)
        monkeypatch.undo()
        omega, kappa = sys.schedule.omega, system._kappa_pi(sys)
        mu, pre = solver._tail_rates(sys.envelope, sys.f, 1.0, omega, sys.schedule.zeta_fraction)
        eps = kappa / (1.0 - kappa) * solver._picard_stop(sys)
        bound = eps * float(np.min(1.0 + pre / (1.0 - np.exp(-mu * omega)))) + 1e-14
        assert np.abs(burn.samples - pic.samples).max() <= bound
        assert np.abs(burn.frozen - pic.frozen).max() <= bound

    def test_window_holds_burn_in_window_intervals(self, homo, monkeypatch):
        # each sweep hands the contract its window's nodes in one
        # eval_many call, and the first windows are full
        f, rows = counting_rows(homo.system.f)
        swept = []

        def eval_many(contract, ts, xs, ys, _eval_many=solver.eval_many):
            swept.append(len(ts))
            return _eval_many(contract, ts, xs, ys)

        monkeypatch.setattr(solver, "eval_many", eval_many)
        traj = solve_bounded(replace(homo.system, f=f), (-20, 20), method="burn_in")
        assert max(swept) == solver.BURN_IN_WINDOW * solver.NODES == 24 * 16
        assert rows == swept
        assert sum(swept) == traj.meta["f_evals"]

    def test_non_converging_interval_is_named(self, monkeypatch):
        # a cap of 3 sweeps stops the first interval of the window
        sys = random_system(0)
        pad = lead_in_pad(sys)
        monkeypatch.setattr(solver, "_picard_cap", lambda sys: 3)
        message = rf"interval {-2 - pad}: picard iteration did not reach 1e-10 in 3 sweeps$"
        with pytest.raises(InnerDivergenceError, match=message):
            solve_bounded(sys, (-2, 2), 60, method="burn_in")

    def test_picard_sweep_cap_follows_kappa(self, homo, monkeypatch):
        # kappa_pi = 0.9 stops at (1 - 0.9) / 0.9 of the stop of kappa_pi
        # <= 1/2 and takes 241 sweeps from zero, past the old fixed cap
        # of 80; the reference's 0.265 keeps the stop and the floor
        sys = a4_limit_system(0.9, 1.0)
        assert solver._picard_stop(homo.system) == solver.PICARD_STOP == 1e-10
        assert solver._picard_cap(homo.system) == solver.PICARD_MAX_ITERS == 80
        stop = 1e-10 * (1.0 - 0.9) / 0.9
        assert solver._picard_stop(sys) == pytest.approx(stop, rel=1e-15)
        assert solver._picard_cap(sys) == math.ceil(2.0 * math.log(stop) / math.log(0.9)) == 479
        deltas = solve_bounded(sys, (-3, 3), 40).meta["iterate_deltas"]
        assert solver.PICARD_MAX_ITERS < len(deltas) < solver._picard_cap(sys)
        monkeypatch.setattr(solver, "_picard_cap", lambda sys: 80)
        with pytest.raises(InnerDivergenceError, match=r"did not reach 1.11111e-11 in 80 sweeps$"):
            solve_bounded(sys, (-3, 3), 40)


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

    @pytest.mark.parametrize("substeps", [solver.MIN_SUBSTEPS, 5, 50, 200])
    def test_zero_contract_at_rounding(self, substeps):
        # with f = 0 every integrand value is the driver's alpha, and the
        # interpolant of a constant is that constant to rounding
        sys = linear_system()
        traj = solve_bounded(sys, (-3, 3), substeps)
        assert residual_defect(sys, traj) <= 1e-14

    def test_same_at_every_substep_count(self, homo, het):
        # the defect reads the kept collocation solution, which the output
        # density does not touch
        cases = [(sc.system, window) for sc in (homo, het) for window in ((-3, 3), (-1, 0))]
        cases += [(random_system(seed), (-2, 2)) for seed in range(6)]
        for sys, window in cases:
            for method in solver.METHODS:
                defects = {residual_defect(sys, solve_bounded(sys, window, m, method=method))
                           for m in (solver.MIN_SUBSTEPS, 5, 50, 200)}
                assert len(defects) == 1 and defects.pop() <= 1e-10, method

    def test_kept_solution(self, homo_traj):
        # each interval's first sample is its node value, exactly; the kept
        # arrays are the window's own, not views of the solve's grid
        m = homo_traj.substeps
        assert homo_traj.node_values.shape == (41, 2)
        assert homo_traj.integrands.shape == (40, solver.NODES, 2)
        assert np.array_equal(homo_traj.samples[::m], homo_traj.node_values)
        assert homo_traj.node_values.base is None and homo_traj.integrands.base is None

    def test_corrupted_integrand_detected(self, homo, homo_traj):
        # one integrand row moved by 1e-9 moves the interpolant by 1e-9
        # times its basis function, whose largest value at the points is
        # 0.96, and the interval's end by 2.9e-10, below the jump allowed;
        # the samples are never read
        integrands = homo_traj.integrands.copy()
        integrands[20, 8, 0] += 1e-9
        bad = replace(homo_traj, integrands=integrands, samples=np.full_like(homo_traj.samples, np.nan))
        x_nodes, _ = solver._gauss(solver.NODES)
        basis = solver._lagrange(x_nodes, solver._bary(x_nodes), np.linspace(-1.0, 1.0, solver.DEFECT_POINTS + 1))
        assert residual_defect(homo.system, bad) == pytest.approx(1e-9 * np.abs(basis[8]).max(), rel=1e-2)
        # moved by 1e-6, the end misses the next node value by 2.9e-7
        integrands[20, 8, 0] += 1e-6
        with pytest.raises(GridMismatchError, match=r"^interval k=0 rebuilt under the system's matrix ends 2\.95e-07 "):
            residual_defect(homo.system, replace(bad, integrands=integrands))

    def test_other_matrix_detected(self, homo, homo_traj):
        # the defect's formula has no A term; the rebuilt interval ends do
        other = replace(homo.system, a=1.1 * homo.system.a)
        with pytest.raises(GridMismatchError, match=(
            r"^interval k=1 rebuilt under the system's matrix ends 0\.32 from the next node value; "
            r"the trajectory does not belong to this system$"
        )):
            residual_defect(other, homo_traj)

    def test_contract_gets_copies(self, homo, homo_traj):
        # a contract that writes NaN over its arguments leaves the
        # trajectory as it was, and the defect as well
        traj = replace(homo_traj, samples=homo_traj.samples.copy(), frozen=homo_traj.frozen.copy(),
                       node_values=homo_traj.node_values.copy(), integrands=homo_traj.integrands.copy())
        overwriter = replace(homo.system, f=overwriting(homo.system.f))
        assert residual_defect(overwriter, traj) == residual_defect(homo.system, homo_traj)
        for name in ("samples", "frozen", "node_values", "integrands"):
            assert np.array_equal(getattr(traj, name), getattr(homo_traj, name)), name

    def test_one_contract_call(self, homo, homo_traj):
        f, rows = counting_rows(homo.system.f)
        residual_defect(replace(homo.system, f=f), homo_traj)
        assert rows == [40 * (solver.DEFECT_POINTS + 1)]

    def test_schedule_mismatch(self, homo, homo_traj):
        other = replace(homo.system, schedule=make_schedule(1.5, 0.0, 0.5))
        with pytest.raises(GridMismatchError, match="trajectory and system have different schedules"):
            residual_defect(other, homo_traj)

    @pytest.mark.parametrize("change, message", [
        (lambda t: {"samples": t.samples[:-3]}, "7998 samples and 40 frozen arguments do not fill 40 intervals"),
        (lambda t: {"k_window": (0, 0), "samples": t.samples[:1], "frozen": t.frozen[:0]},
         r"node window \(0, 0\) holds no interval"),
        (lambda t: {"frozen": t.frozen[1:]}, "8001 samples and 39 frozen arguments do not fill 40 intervals"),
        (lambda t: {"node_values": t.node_values[1:]},
         r"node values of shape \(40, 2\) and integrands of shape \(40, 16, 2\) do not fill 40 intervals of "
         r"16 nodes in dimension 2$"),
        (lambda t: {"integrands": t.integrands[:, 1:]},
         r"node values of shape \(41, 2\) and integrands of shape \(40, 15, 2\) do not fill"),
    ], ids=["partial-interval", "no-whole-interval", "missing-frozen-argument", "missing-node-value",
            "missing-integrand-node"])
    def test_inconsistent_grid_refused(self, homo_traj, change, message):
        with pytest.raises(GridMismatchError, match=message):
            replace(homo_traj, **change(homo_traj))

    def test_too_few_substeps_same_wording(self, homo):
        with pytest.raises(OutOfRangeError) as solving:
            solve_bounded(homo.system, (-2, 2), substeps=3)
        with pytest.raises(GridMismatchError) as recording:
            SampledTrajectory(homo.system.schedule, (-2, 2), 3, np.zeros((13, 2)), np.zeros((4, 2)),
                              np.zeros((5, 2)), np.zeros((4, solver.NODES, 2)), {})
        assert str(solving.value) == str(recording.value)


class TestConvergenceOrder:
    def test_geometric_in_the_node_count(self, homo, het, monkeypatch):
        # inside an interval the integrand is analytic, so the error of n
        # collocation nodes falls geometrically in n; NODES = 16 is the
        # fewest that stay within 1e-12 of a 28-node solve in both
        # scenarios on (-30, 30). Measured (homoclinic / heteroclinic):
        # 12: 5.9e-10 / 2.2e-11, 14: 2.1e-11 / 6.4e-13,
        # 16: 5.1e-13 / 4.8e-14, 20: 4.7e-15 / 2.7e-15
        assert solver.NODES == 16
        for sc in (homo, het):
            solves = {}
            for n in (12, 14, 16, 20, 28):
                monkeypatch.setattr(solver, "NODES", n)
                solves[n] = solve_bounded(sc.system, (-20, 20))
            errors = [np.abs(solves[n].samples - solves[28].samples).max() for n in (12, 14, 16, 20)]
            assert errors == sorted(errors, reverse=True), sc.kind
            assert errors[2] <= 1e-12 < errors[0], sc.kind
            assert errors[3] <= 1e-14, sc.kind
        # the contract rows grow with n: 8 sweeps of n rows per interval
        assert solves[16].meta["f_evals"] == 89 * 16 * solves[16].meta["iterations"]

    def test_margin_positive(self, homo):
        assert contraction_margin(homo.system) == pytest.approx(0.5 - 0.1325175, abs=1e-6)
