"""Matrix exponential and decay envelope tests.

Closed-form oracles: diagonal matrices, a 2x2 Jordan block, and the
damped-rotation factorization P e^{Bt} P^{-1} of the bundled planar
matrix, where B is the real normal form -1/2 +- i sqrt(15)/2.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epcag
from epcag import (
    REFERENCE_N,
    DecayEnvelope,
    estimate_decay_envelope,
    mat_exp,
    reference_envelope,
    reference_matrix,
    sample_norm_curve,
    spectral_abscissa,
    validate_envelope,
)
from epcag.errors import (
    DimensionMismatchError,
    EnvelopeRequiredError,
    HorizonTooShortError,
    NonFiniteError,
    NotHurwitzError,
    OutOfRangeError,
    OverflowRiskError,
)
from epcag.linear import _THETA13, _expm, _row_norms, _spectral_norms

ROT_HALF = math.sqrt(15.0) / 2.0
P = np.array([[0.0, 4.0], [-math.sqrt(15.0), 5.0]])
P_INV = np.linalg.inv(P)


def damped_rotation(t):
    """e^{Bt} for B = [[-1/2, -s], [s, -1/2]], s = sqrt(15)/2."""
    c, s = math.cos(ROT_HALF * t), math.sin(ROT_HALF * t)
    return math.exp(-0.5 * t) * np.array([[c, -s], [s, c]])


ROTATION = np.array([[-0.5, -ROT_HALF], [ROT_HALF, -0.5]])
JORDAN_LAMBDA = -0.7
JORDAN = np.array([[JORDAN_LAMBDA, 1.0], [0.0, JORDAN_LAMBDA]])


# theta_3, theta_5, theta_7, theta_9 and theta_13 of Higham 2005, Table
# 2.3: the 1-norms at which the Pade approximants of those degrees meet
# double precision
PADE_BAND_EDGES = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                   2.097847961257068e0, 5.371920351148152e0)


def every_branch(a):
    """Times at which ||A t||_1 is tiny, lies in each band between the
    PADE_BAND_EDGES (unscaled), and lies well past theta_13 (with
    squarings), both signs."""
    norm = np.abs(a).sum(axis=0).max()
    edges = PADE_BAND_EDGES
    ts = [0.5 * edges[0] / norm]
    ts += [0.5 * (lo + hi) / norm for lo, hi in zip(edges, edges[1:])]
    ts += [3.0 * edges[-1] / norm, 40.0 * edges[-1] / norm]
    return np.array(ts + [-t for t in ts])


def recursion_norms(a, horizon, count):
    """Reference scan by the semigroup recursion M_{j+1} = exp(A h) M_j,
    re-anchored at exp(A t_j) every 512 steps."""
    ts = np.linspace(0.0, horizon, count)
    step = mat_exp(a, ts[1] - ts[0])
    mats = np.empty((count, *a.shape))
    for j in range(count):
        if j % 512 == 0:
            cur = mat_exp(a, ts[j])
        mats[j] = cur
        cur = step @ cur
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def fresh_interpreter(code):
    """stdout of `code` run by a fresh interpreter that imports this epcag."""
    src = str(Path(epcag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def random_hurwitz(rng, count):
    """Seeded 2x2 matrices with entries in [-3, 3] and abscissa <= -0.05."""
    out = []
    while len(out) < count:
        a = rng.uniform(-3.0, 3.0, (2, 2))
        sigma = float(np.max(np.linalg.eigvals(a).real))
        if sigma <= -0.05:
            out.append((a, sigma))
    return out


class TestMatExp:
    def test_diagonal_closed_form(self):
        out = mat_exp(np.diag([-1.0, -2.0]), 1.0)
        assert out == pytest.approx(np.diag([0.36787944117144233, 0.1353352832366127]), abs=1e-12)
        assert out[0, 1] == 0.0 and out[1, 0] == 0.0

    def test_t_zero_is_identity(self):
        assert np.array_equal(mat_exp(reference_matrix(), 0.0), np.eye(2))

    def test_reference_factorization(self):
        for t in (-3.0, -0.7, 0.25, 1.0, 4.0, 10.0):
            expected = P @ damped_rotation(t) @ P_INV
            assert np.abs(mat_exp(reference_matrix(), t) - expected).max() <= 1e-10

    def test_scalar_case(self):
        assert mat_exp([[-2.0]], 0.5)[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            mat_exp(np.zeros((2, 3)), 1.0)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(NonFiniteError):
            mat_exp([[np.nan, 0.0], [0.0, -1.0]], 1.0)
        with pytest.raises(NonFiniteError):
            mat_exp([[-1.0]], math.inf)

    def test_overflow_guard(self):
        with pytest.raises(OverflowRiskError):
            mat_exp([[800.0]], 1.0)
        with pytest.raises(OverflowRiskError):
            mat_exp([[-800.0]], -1.0)
        # fast decay is not an overflow risk, it just underflows to zero
        assert mat_exp([[-800.0]], 1.0)[0, 0] == 0.0

    def test_guards_hold_near_the_largest_double(self):
        # (A + A^T) / 2 summed before halving overflowed to a nan mu(A t),
        # which passed the overflow guard, and an overflowed 1-norm broke
        # the scaling: both returned the identity
        huge = np.full((2, 2), 1e308)
        with pytest.raises(OverflowRiskError, match=r"mu\(A t\) = inf at t = 1 "):
            mat_exp(huge, 1.0)
        with pytest.raises(NonFiniteError, match="A t overflowed"):
            mat_exp([[-1.7e308, 1.7e308], [-1.7e308, -1.7e308]], 1.0)
        assert np.array_equal(mat_exp(huge, 0.0), np.eye(2))
        assert np.array_equal(mat_exp([[-1.7e308, 0.0], [0.0, -1.7e308]], 1.0), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "a, closed_form",
        [
            (np.diag([-1.0, -2.0]), lambda t: np.diag([math.exp(-t), math.exp(-2.0 * t)])),
            (ROTATION, damped_rotation),
            (JORDAN, lambda t: math.exp(JORDAN_LAMBDA * t) * np.array([[1.0, t], [0.0, 1.0]])),
        ],
        ids=["diagonal", "damped-rotation", "jordan"],
    )
    def test_closed_forms_on_every_pade_branch(self, a, closed_form):
        # exp(x) has relative condition number |x|, so the error bound grows with ||A t||
        norm = np.abs(a).sum(axis=0).max()
        ts = every_branch(a)
        for t, got in zip(ts, mat_exp(a, ts)):
            want = closed_form(t)
            tol = 2e-15 * max(1.0, norm * abs(t))
            assert np.abs(got - want).max() <= tol * np.abs(want).max(), t

    def test_stack_equals_its_elements_bit_for_bit(self):
        a = reference_matrix()
        ts = np.concatenate([every_branch(a), np.linspace(-3.0, 25.0, 57)])
        stack = mat_exp(a, ts)
        assert stack.shape == (len(ts), 2, 2)
        for t, got in zip(ts, stack):
            assert np.array_equal(got, mat_exp(a, t)), t
        assert mat_exp(a, ts[:0]).shape == (0, 2, 2)

    def test_unsorted_squaring_counts_equal_their_elements_bit_for_bit(self):
        # squarings run on the stack sorted by count, most first; shuffled
        # times, repeats and matrices needing none must all come back in
        # place and as each would alone
        rng = np.random.default_rng(8)
        a = np.array([[-1.0, 4.0, 0.0], [0.0, -1.0, 4.0], [0.0, 0.0, -2.0]])
        ts = rng.permutation(np.concatenate([[0.0, 0.01, 0.01, 60.0, 3.0, 3.0], rng.uniform(-5.0, 60.0, 40)]))
        x = ts[:, None, None] * a
        counts = np.ceil(np.log2(np.maximum(np.abs(x).sum(axis=1).max(axis=1) / _THETA13, 1.0)))
        assert len(set(counts)) >= 5 and np.any(np.diff(counts) > 0) and np.any(np.diff(counts) < 0)
        stack = _expm(x)
        for t, xt, got in zip(ts, x, stack):
            assert np.array_equal(got, _expm(xt[None])[0]), t

    def test_stack_guards_every_element(self):
        with pytest.raises(OverflowRiskError, match=r"at t = 800"):
            mat_exp([[1.0]], [0.5, 800.0, 1.0])
        with pytest.raises(OverflowRiskError):
            mat_exp([[-1.0]], [0.5, -800.0])
        with pytest.raises(NonFiniteError, match="non-finite time nan"):
            mat_exp(reference_matrix(), [0.1, math.nan, 0.2])
        with pytest.raises(NonFiniteError):
            mat_exp([[-10.0]], [1.0, 1e308])  # A t itself overflows
        with pytest.raises(DimensionMismatchError):
            mat_exp(reference_matrix(), np.zeros((2, 2)))

    def test_agrees_with_scipy(self):
        expm = pytest.importorskip("scipy.linalg").expm
        a = reference_matrix()
        ts = np.linspace(-1.0, 25.0, 261)
        for t, got in zip(ts, mat_exp(a, ts)):
            want = expm(a * t)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), t

    def test_import_loads_no_scipy(self):
        code = (
            "import sys, epcag, epcag.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert fresh_interpreter(code) == "[]"

    def test_mat_exp_and_a_solve_load_no_numpy_ma(self):
        # np.unique imports numpy.ma: 10-17 ms and about 1 MB in each
        # fresh process that runs a matrix exponential; leggauss imports
        # numpy.polynomial, about 2.3 ms
        code = (
            "import sys, epcag; "
            f"epcag.mat_exp(epcag.reference_matrix(), {every_branch(reference_matrix()).tolist()!r}); "
            "epcag.solve_bounded(epcag.homoclinic_scenario().system, (-5, 5)); "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['numpy', 'ma'], "
            "['numpy', 'polynomial'])))"
        )
        assert fresh_interpreter(code) == "[]"

    @given(
        s=st.floats(-5.0, 5.0),
        t=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_semigroup_property(self, s, t):
        a = reference_matrix()
        lhs = mat_exp(a, s) @ mat_exp(a, t)
        rhs = mat_exp(a, s + t)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    @given(t=st.floats(-8.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_inverse_property(self, t):
        a = reference_matrix()
        prod = mat_exp(a, t) @ mat_exp(a, -t)
        assert np.abs(prod - np.eye(2)).max() <= 1e-10


class TestSpectralAbscissa:
    def test_reference_value(self):
        assert spectral_abscissa(reference_matrix()) == pytest.approx(-0.5, abs=1e-12)

    def test_diagonal(self):
        assert spectral_abscissa(np.diag([-3.0, -1.0, -2.0])) == pytest.approx(-1.0, abs=1e-14)

    def test_large_order_needs_explicit_envelope(self):
        with pytest.raises(EnvelopeRequiredError):
            spectral_abscissa(-np.eye(9))


def fixed_point_system(a, envelope):
    """A planar system on a, with a zero contract and a constant driver,
    assembled with the given envelope (estimated if None)."""
    orbit = epcag.build_orbit(epcag.logistic_map(4.0), "fixed", 0.75, k_min=-60, k_max=60)
    return epcag.assemble_system(a, epcag.make_schedule(3.0, 0.0, 0.5), epcag.zero_contract(2),
                                 epcag.pair_orbits(orbit, orbit), envelope=envelope)


class TestEnvelope:
    def test_identity_decay_gives_unit_constant(self):
        # ||e^{-It}|| e^{rate t} = e^{-margin t} <= 1 for any rate_margin
        env = estimate_decay_envelope(-np.eye(2))
        assert env.n_const == 1.0
        env = estimate_decay_envelope(-np.eye(2), rate_margin=0.3)
        assert env.n_const == 1.0

    def test_defective_matrix_needs_a_real_constant(self):
        a = np.array([[-1.0, 100.0], [0.0, -1.0]])
        env = estimate_decay_envelope(a, rate_margin=0.5)
        assert env.rate == pytest.approx(0.5)
        assert env.n_const >= 50.0

    def test_estimated_envelope_validates_on_finer_grid(self):
        a = reference_matrix()
        env = estimate_decay_envelope(a)
        step = env.validated_horizon / (2 * (env.sample_count - 1))
        report = validate_envelope(a, env, step)
        assert report.passed
        assert report.max_ratio <= 1.01

    def test_reference_envelope_is_sharp(self):
        # the analytic (N, 1/2) pair is sharp: the ratio grazes 1 at an
        # interior point of the first oscillation (at t = 0 it is only 1/N)
        report = validate_envelope(reference_matrix(), reference_envelope(), 1e-2, slack=1e-9)
        assert report.passed
        # the peak sits between grid points; a 1e-2 grid resolves it to O(h^2)
        assert report.max_ratio == pytest.approx(1.0, abs=1e-6)

    def test_undersized_constant_fails(self):
        env = DecayEnvelope(n_const=1.0, rate=0.5, validated_horizon=60.0, sample_count=0)
        report = validate_envelope(reference_matrix(), env, 1e-2, slack=1e-9)
        assert not report.passed
        assert report.max_ratio > 2.0

    def test_argument_guards(self):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            sample_norm_curve(reference_matrix(), 60.0, 1)
        for margin in (-0.1, 1.0):
            with pytest.raises(ValueError, match=r"rate_margin must lie in \[0, 1\)"):
                estimate_decay_envelope(reference_matrix(), rate_margin=margin)
        for step in (0.0, -1e-2, math.inf, math.nan):
            with pytest.raises(ValueError, match="grid_step must be positive and finite"):
                validate_envelope(reference_matrix(), reference_envelope(), step)

    def test_sampled_sup_stays_below_reference_constant(self):
        ts, norms = sample_norm_curve(reference_matrix(), 60.0, 6001)
        assert float(np.max(norms * np.exp(0.5 * ts))) <= REFERENCE_N

    @pytest.mark.parametrize("count", [2, 513, 1000, 4001, 4002, 6001])
    def test_batched_scan_matches_the_recursion_on_the_reference(self, count):
        a = reference_matrix()
        ts, norms = sample_norm_curve(a, 60.0, count)
        assert len(ts) == len(norms) == count
        assert norms[0] == 1.0
        old = recursion_norms(a, 60.0, count)
        assert np.all(np.abs(norms - old) <= 1e-12 * old)

    def test_batched_scan_matches_the_recursion_on_random_matrices(self):
        # the recursion's rounding is absolute, on the scale of the curve's
        # peak, so late samples of a non-normal draw that decayed by 1e-5
        # differ by more than 1e-12 of themselves (the batched scan being
        # the closer one to a 40-digit reference); compare at the peak
        for a, sigma in random_hurwitz(np.random.default_rng(5), 20):
            for count in (2, 513, 1000, 4001, 4002):
                _, norms = sample_norm_curve(a, 12.0 / -sigma, count)
                old = recursion_norms(a, 12.0 / -sigma, count)
                assert np.abs(norms - old).max() <= 1e-12 * old.max()

    @pytest.mark.parametrize("count, block", [(2, 2), (3, 2), (1000, 32), (4001, 64), (4002, 64)])
    def test_scan_takes_one_exponential_call_and_one_product(self, monkeypatch, count, block):
        # blocks of isqrt(count - 1) + 1 samples: one stacked mat_exp call
        # gives the in-block powers and the anchors, one 2-D product
        # (anchors m, m) x (m, block m) every sample
        a3 = np.array([[-1.0, 4.0, 0.0], [0.0, -1.0, 4.0], [0.0, 0.0, -2.0]])
        exps, products = [], []

        def recording_exp(a, t):
            exps.append(np.array(t))
            return mat_exp(a, t)

        def recording_product(x, y):
            products.append((x.shape, y.shape))
            return x @ y

        monkeypatch.setattr(epcag.linear, "mat_exp", recording_exp)
        monkeypatch.setattr(epcag.linear, "_serial_matmul", recording_product)
        ts, norms = sample_norm_curve(a3, 12.0, count)
        anchors = -(-count // block)
        assert [len(t) for t in exps] == [block + anchors]
        assert products == [((3 * anchors, 3), (3, 3 * block))]
        h = ts[1] - ts[0]
        want = [np.linalg.svd(mat_exp(a3, (j % block) * h) @ mat_exp(a3, ts[j - j % block]), compute_uv=False)[0]
                for j in range(count)]
        assert np.allclose(norms, want, rtol=1e-13, atol=0.0)

    def test_estimates_and_validations_equal_those_of_a_per_sample_scan(self, monkeypatch):
        # every sample of a per-sample scan is one exp(A t_j); the blocked
        # scan's products of two differ by rounding only, which the 0.01
        # rounding of n_const and the validation's slack absorb
        draws = [a for a, _ in random_hurwitz(np.random.default_rng(8), 30)]

        def run():
            out = []
            for a in draws:
                env = estimate_decay_envelope(a)
                out.append((env, validate_envelope(a, env, env.validated_horizon / 4001.5).passed))
            return out

        blocked = run()

        def per_sample(a, horizon, count):
            ts = np.linspace(0.0, horizon, count)
            return ts, np.linalg.svd(mat_exp(a, ts), compute_uv=False)[:, 0]

        monkeypatch.setattr(epcag.linear, "sample_norm_curve", per_sample)
        assert blocked == run()

    def test_not_hurwitz_rejected(self):
        with pytest.raises(NotHurwitzError):
            estimate_decay_envelope(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_horizon_floor(self):
        with pytest.raises(HorizonTooShortError):
            estimate_decay_envelope(-np.eye(2), horizon=5.0)

    def test_validation_refuses_a_matrix_that_is_not_hurwitz(self):
        env = DecayEnvelope(n_const=1.0, rate=0.5, validated_horizon=60.0, sample_count=0)
        with pytest.raises(NotHurwitzError, match=r"^spectral abscissa 0 is not negative$"):
            validate_envelope(np.array([[0.0, 1.0], [-1.0, 0.0]]), env, 1e-2)

    def test_validation_refuses_a_short_horizon(self):
        # -I decays at abscissa -1, so the scan must reach t = 10
        env = DecayEnvelope(n_const=1.0, rate=0.5, validated_horizon=5.0, sample_count=0)
        with pytest.raises(HorizonTooShortError, match=r"^envelope horizon 5 < 10/\|abscissa\| = 10$"):
            validate_envelope(-np.eye(2), env, 1e-2)

    def test_underflowing_scan_is_refused(self):
        # ||exp(-20 t)|| falls below the smallest normal double at t = 35.43
        # of the 4001-point scan to 60 that estimation runs (35.4211 of
        # assembly's 4002-point one), and 1517 samples are 0: their ratio
        # to the exact envelope read nan, the subnormal ones a wrong finite
        # value; the scans to 35.415 (35.4061) keep every sample
        a = -20.0 * np.eye(2)
        env = DecayEnvelope(n_const=1.0, rate=20.0, validated_horizon=60.0, sample_count=0)
        msg = r"at t = 35\.43 is below the smallest normal double; scan to a horizon of at most 35\.415 instead of 60"
        with pytest.raises(OutOfRangeError, match=msg):
            validate_envelope(a, env, 60.0 / 4000.0, 1e-9)
        with pytest.raises(OutOfRangeError, match=msg):
            estimate_decay_envelope(a, rate_margin=0.0, horizon=60.0)
        msg = r"at t = 35\.4211 is below the smallest normal double; scan to a horizon of at most 35\.4061 instead of 60"
        with pytest.raises(OutOfRangeError, match=msg):
            fixed_point_system(a, env)
        for horizon, step in ((35.415, 35.415 / 4000.0), (35.4061, 35.4061 / 4001.5)):
            shorter = DecayEnvelope(n_const=1.0, rate=20.0, validated_horizon=horizon, sample_count=0)
            report = validate_envelope(a, shorter, step, 1e-9)
            assert report.passed and report.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_assembly_validates_off_the_estimation_grid(self, monkeypatch):
        # an estimated constant is the sampled supremum of its own scan
        # rounded up, so a check on that scan's times could never fail;
        # assembly's grid meets it only at the ends
        scans = []

        def recording(a, horizon, count):
            scans.append(np.linspace(0.0, horizon, count))
            return sample_norm_curve(a, horizon, count)

        monkeypatch.setattr(epcag.linear, "sample_norm_curve", recording)
        envelope = fixed_point_system(reference_matrix(), None).envelope
        estimated, validated = scans
        horizon = envelope.validated_horizon
        assert len(estimated) == envelope.sample_count == 4001 and len(validated) == 4002
        # the two grids are at least horizon / (4000 * 4001) apart inside
        assert np.abs(validated[:, None] - estimated[None, 1:-1]).min() >= 0.5 * horizon / 4001**2

    def test_overflowing_growth_factor_takes_log_space(self):
        # exp(1.01 t) overflows past t = 702.8 while exp(-t) is still a
        # normal double: the ratio exp(0.01 t) stays finite (it read inf)
        env = DecayEnvelope(n_const=1.0, rate=1.01, validated_horizon=705.0, sample_count=0)
        report = validate_envelope(-np.eye(2), env, 705.0 / 4000.0)
        assert not report.passed and report.t_at_max == 705.0
        assert report.max_ratio == pytest.approx(math.exp(0.01 * 705.0), rel=1e-10)

    def test_envelope_field_guards(self):
        with pytest.raises(ValueError):
            DecayEnvelope(n_const=0.5, rate=0.5, validated_horizon=60.0, sample_count=0)
        with pytest.raises(ValueError):
            DecayEnvelope(n_const=2.0, rate=0.0, validated_horizon=60.0, sample_count=0)

    def test_bound_is_vectorized(self):
        env = reference_envelope()
        ts = np.array([0.0, 1.0, 2.0])
        assert env.bound(ts) == pytest.approx(env.n_const * np.exp(-0.5 * ts))


def svd_norms(mats):
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def gram_norms(mats):
    """sqrt((F^2 + sqrt(F^4 - 4 det^2)) / 2), which cancels near sigma_1 = sigma_2."""
    f2 = (mats**2).sum(axis=(1, 2))
    det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    return np.sqrt((f2 + np.sqrt(np.maximum(f2**2 - 4.0 * det**2, 0.0))) / 2.0)


def near_normal_rotations(rng, count):
    """Scaled rotations plus a relative 1e-12..1e-6 perturbation."""
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    c, s = np.cos(th), np.sin(th)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    eps = 10.0 ** rng.uniform(-12.0, -6.0, count)
    scale = np.exp(-rng.uniform(0.0, 20.0, count))
    return scale[:, None, None] * (rot + eps[:, None, None] * rng.standard_normal((count, 2, 2)))


class TestSpectralNorms:
    TOL = 4e-15

    def assert_matches_svd(self, mats):
        want = svd_norms(mats)
        got = _spectral_norms(mats)
        assert np.all(np.abs(got - want) <= self.TOL * want)

    def test_multiples_of_the_identity(self):
        # sigma_1 = sigma_2: the second hypot is exactly zero
        mats = np.array([k * np.eye(2) for k in (-1.0, 1.0, -3.7, 2.5e-3, -1e7)])
        self.assert_matches_svd(mats)
        assert _spectral_norms(-np.eye(2)[None])[0] == 1.0

    def test_near_normal_rotations(self):
        mats = near_normal_rotations(np.random.default_rng(3), 200)
        self.assert_matches_svd(mats)
        # the Gram/determinant form loses half the digits here, so this
        # test also catches a swap to it
        want = svd_norms(mats)
        assert np.abs(gram_norms(mats) - want).max() > 1e3 * self.TOL * want.max()

    def test_defective_rank_one_and_zero(self):
        mats = np.array([JORDAN, [[1.0, 2.0], [-3.0, -6.0]], [[0.0, 5.0], [0.0, 0.0]]])
        self.assert_matches_svd(mats)
        assert _spectral_norms(np.zeros((1, 2, 2)))[0] == 0.0

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_scales(self, scale):
        rng = np.random.default_rng(4)
        mats = np.concatenate([rng.standard_normal((100, 2, 2)), near_normal_rotations(rng, 100)])
        self.assert_matches_svd(scale * mats)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_any_leading_shape(self, dim):
        mats = np.random.default_rng(9).standard_normal((4, 5, 3, dim, dim))
        assert np.array_equal(_spectral_norms(mats), _spectral_norms(mats.reshape(-1, dim, dim)).reshape(4, 5, 3))

    def test_only_larger_orders_take_the_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def recording_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        sample_norm_curve(reference_matrix(), 12.0, 1000)
        assert calls == []
        a3 = np.array([[-1.0, 4.0, 0.0], [0.0, -1.0, 4.0], [0.0, 0.0, -2.0]])
        ts, norms = sample_norm_curve(a3, 12.0, 1000)
        assert calls == [(1000, 3, 3)]
        want = [svd(mat_exp(a3, t), compute_uv=False)[0] for t in ts[::111]]
        assert np.allclose(norms[::111], want, rtol=1e-12, atol=0.0)

    def test_estimates_equal_the_svd_built_ones(self, monkeypatch):
        draws = [a for a, _ in random_hurwitz(np.random.default_rng(6), 50)]
        got = [estimate_decay_envelope(a) for a in draws]
        monkeypatch.setattr(epcag.linear, "_spectral_norms", svd_norms)
        assert got == [estimate_decay_envelope(a) for a in draws]


class TestRowNorms:
    """_row_norms sums squares column by column, as np.linalg.norm's
    reduction does over fewer than 8 columns."""

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_equals_numpy_norm_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        flat = rng.standard_normal((501, dim)) * np.exp(rng.uniform(-20.0, 20.0, (501, dim)))
        stacked = rng.standard_normal((6, 7, dim))
        # non-contiguous: every other column, and every other row of a transpose
        strided = rng.standard_normal((40, 2 * dim))[:, ::2]
        transposed = np.asfortranarray(rng.standard_normal((30, dim)))[::2]
        for v in (flat, stacked, strided, transposed):
            assert np.array_equal(_row_norms(v), np.linalg.norm(v, axis=-1))
