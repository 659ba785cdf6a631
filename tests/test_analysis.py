"""Gap profiles, decay fits, and connection certificates."""

import math
from dataclasses import replace

import numpy as np
import pytest

import epcag.analysis
from epcag import (
    build_orbit,
    certify_connection,
    contraction_margin,
    difference_profile,
    fit_decay_rate,
    logistic_map,
    proof_constants,
    solve_bounded,
    transfer_catalog,
    unstable_gap_bound,
    verify_hyperbolic_transfer,
)
from epcag.errors import (
    AssumptionFailureError,
    DegenerateTailError,
    DimensionMismatchError,
    GridMismatchError,
    OutOfRangeError,
    PremiseFailureError,
)


def synthetic_profile(fn, t0=0.0, t1=30.0, n=601):
    ts = np.linspace(t0, t1, n)
    return [(float(t), float(fn(t))) for t in ts]


class TestDifferenceProfile:
    def test_identical_trajectories(self, homo_traj):
        prof = difference_profile(homo_traj, homo_traj)
        assert prof.shape == (len(homo_traj.samples), 2)
        assert np.all(prof[:, 1] == 0.0)
        assert prof[0, 0] == homo_traj.t0

    def test_constant_offset(self, homo_traj):
        shifted = replace(homo_traj, samples=homo_traj.samples + np.array([0.3, 0.4]))
        prof = difference_profile(homo_traj, shifted)
        gaps = prof[:, 1]
        assert gaps == pytest.approx(np.full(len(prof), 0.5), abs=1e-12)

    def test_symmetry(self, homo_traj):
        shifted = replace(homo_traj, samples=homo_traj.samples * 1.1)
        ab = difference_profile(homo_traj, shifted)
        ba = difference_profile(shifted, homo_traj)
        np.testing.assert_array_equal(ab, ba)

    def test_grid_mismatch(self, homo_traj):
        clipped = replace(homo_traj, k_window=(-20, 19), samples=homo_traj.samples[:-200],
                          frozen=homo_traj.frozen[:-1], node_values=homo_traj.node_values[:-1],
                          integrands=homo_traj.integrands[:-1])
        with pytest.raises(GridMismatchError):
            difference_profile(homo_traj, clipped)
        moved = replace(homo_traj, schedule=replace(homo_traj.schedule, origin=homo_traj.schedule.origin + 0.5))
        with pytest.raises(GridMismatchError):
            difference_profile(homo_traj, moved)
        # as many samples from the same t0, at half the step
        finer = replace(homo_traj, k_window=(-20, 60), substeps=100, frozen=np.tile(homo_traj.frozen, (2, 1)),
                        node_values=np.tile(homo_traj.node_values, (2, 1))[1:],
                        integrands=np.tile(homo_traj.integrands, (2, 1, 1)))
        with pytest.raises(GridMismatchError):
            difference_profile(homo_traj, finer)

    def test_zeta_fraction_may_differ(self, homo_traj):
        other = replace(homo_traj, schedule=replace(homo_traj.schedule, zeta_fraction=0.25))
        assert np.all(difference_profile(homo_traj, other)[:, 1] == 0.0)


class TestFitDecayRate:
    def test_pure_exponential(self):
        rate, quality = fit_decay_rate(synthetic_profile(lambda t: math.exp(-0.5 * t)))
        assert rate == pytest.approx(0.5, abs=1e-6)
        assert quality >= 0.999999

    def test_oscillating_envelope(self):
        prof = synthetic_profile(lambda t: math.exp(-0.5 * t) * (2.0 + math.sin(t)))
        rate, quality = fit_decay_rate(prof)
        assert rate == pytest.approx(0.5, abs=0.05)
        assert quality >= 0.9

    def test_descending_time_axis(self):
        # a backward profile ends at -inf; decay toward the end is still
        # reported as a positive rate
        prof = synthetic_profile(lambda t: math.exp(0.5 * t), t0=0.0, t1=-30.0)
        rate, quality = fit_decay_rate(prof)
        assert rate == pytest.approx(0.5, abs=1e-6)
        assert quality >= 0.999999

    def test_growth_gets_negative_rate(self):
        rate, _ = fit_decay_rate(synthetic_profile(lambda t: math.exp(0.3 * t)))
        assert rate == pytest.approx(-0.3, abs=1e-6)

    def test_flat_tail_fits_exactly(self):
        # a constant gap above the floor leaves nothing to explain: rate 0,
        # and the fit is exact, also where the mean of the tail's log gaps
        # is rounded (log 1 = 0 is the only level where it is not)
        for level in (1.0, 1e-3, 1e-6, 1e-9):
            rate, quality = fit_decay_rate(synthetic_profile(lambda t: level))
            assert rate == pytest.approx(0.0, abs=1e-12), level
            assert quality == 1.0, level

    def test_floored_tail_is_degenerate(self):
        with pytest.raises(DegenerateTailError):
            fit_decay_rate(synthetic_profile(lambda t: 0.0))

    def test_empty_profile_guard(self):
        with pytest.raises(OutOfRangeError, match="profile must be a nonempty sequence"):
            fit_decay_rate([])


def test_rounding_noise_barely_moves_reference_rates(homo_cert, het_cert):
    # +-3e-15 is rounding-level noise on the reference gaps; a gap floor
    # of 1e-14 let it move the heteroclinic backward rate by 5e-4
    rng = np.random.default_rng(11)
    for cert in (homo_cert, het_cert):
        for dc in (cert.forward, cert.backward):
            noisy = dc.gap_samples.copy()
            noisy[:, 1] = np.abs(noisy[:, 1] + rng.uniform(-3e-15, 3e-15, len(noisy)))
            rate, _ = fit_decay_rate(noisy)
            assert rate == pytest.approx(dc.fitted_rate, rel=1e-6)


class TestHomoclinicCertificate:
    def test_verdict(self, homo_cert):
        assert homo_cert.verdict is True
        assert homo_cert.kind == "homoclinic"

    def test_end_gaps(self, homo_cert):
        assert homo_cert.forward.end_gap <= 1e-4
        assert homo_cert.backward.end_gap <= 1e-4

    def test_directions_and_sample_order(self, homo_cert):
        fwd, bwd = homo_cert.forward, homo_cert.backward
        # the window counts nodes; node 30 sits at t = 45
        assert fwd.gap_samples[-1][0] == 45.0
        assert bwd.gap_samples[-1][0] == -45.0

    def test_fitted_rates(self, homo_cert):
        # forward decay reflects the linear part (lambda/2 cap in the
        # envelope, observed ~0.52); backward reflects the map's
        # multiplier: ln(1.9)/1.5 = 0.4279
        assert homo_cert.forward.fitted_rate >= 0.33
        assert homo_cert.forward.fit_quality >= 0.9
        assert homo_cert.backward.fitted_rate == pytest.approx(math.log(1.9) / 1.5, abs=0.02)
        assert homo_cert.backward.fit_quality >= 0.9

    def test_stable_envelope_holds(self, homo_cert):
        assert homo_cert.forward.bound_check is True
        assert homo_cert.backward.bound_check is True

    def test_distinctness(self, homo_cert):
        assert homo_cert.distinctness > 10.0 * 1e-4
        assert homo_cert.distinctness == pytest.approx(0.79, abs=0.05)

    def test_constants_travel_with_certificate(self, homo, homo_cert):
        pc = proof_constants(homo.system)
        assert homo_cert.constants.m_phi == pc.m_phi
        assert homo_cert.constants.r1 == pc.r1


class TestHeteroclinicCertificate:
    def test_trajectories_travel_with_certificate(self, het, het_cert):
        beta, alpha_f, alpha_b = het_cert.trajectories
        assert beta.k_window == (-30, 30)
        assert difference_profile(beta, alpha_f)[-1][1] == het_cert.forward.end_gap
        assert difference_profile(beta, alpha_b)[0][1] == het_cert.backward.end_gap

    def test_verdict(self, het_cert):
        assert het_cert.verdict is True
        assert het_cert.kind == "heteroclinic"
        assert het_cert.forward.end_gap <= 1e-4
        assert het_cert.backward.end_gap <= 1e-4

    def test_backward_rate_matches_map_multiplier(self, het_cert):
        # gaps shrink by 1/4 per interval of length 3/2 toward -inf
        assert het_cert.backward.fitted_rate == pytest.approx(math.log(4.0) / 1.5, abs=0.02)

    def test_distinctness(self, het_cert):
        assert het_cert.distinctness > 1e-3


class TestCertifyGuards:
    def test_control_same_driver_fails_distinctness(self, homo):
        cert = certify_connection(homo.system, (homo.beta,), homo.beta, "homoclinic")
        assert cert.verdict is False
        assert cert.distinctness == 0.0
        assert cert.forward.fitted_rate == 0.0
        assert cert.forward.fit_quality == 0.0

    def test_subject_as_its_own_target_is_solved_once(self, homo, solve_counter):
        cert = certify_connection(homo.system, (homo.beta,), homo.beta, "homoclinic")
        assert len(solve_counter) == 1
        assert cert.trajectories[0] is cert.trajectories[1]

    def test_bare_target_orbit(self, homo, homo_cert):
        # one DriverOrbit stands for the one-target tuple
        (alpha,) = homo.alphas
        cert = certify_connection(homo.system, alpha, homo.beta, "homoclinic")
        assert cert.verdict is homo_cert.verdict is True
        for got, want in zip(cert.trajectories, homo_cert.trajectories):
            assert np.array_equal(got.samples, want.samples)
        assert (cert.forward.end_gap, cert.backward.end_gap) == (homo_cert.forward.end_gap, homo_cert.backward.end_gap)

    def test_premise_failure(self, homo, het):
        # a mu=3.9 subject can never meet mu=4 fixed targets at the ends
        with pytest.raises(PremiseFailureError):
            certify_connection(homo.system, het.alphas[:1], homo.beta, "homoclinic")

    def test_target_count(self, homo):
        with pytest.raises(OutOfRangeError):
            certify_connection(homo.system, homo.alphas, homo.beta, "heteroclinic")
        with pytest.raises(OutOfRangeError):
            certify_connection(homo.system, homo.alphas + homo.alphas, homo.beta, "homoclinic")

    def test_kind_guard(self, homo):
        with pytest.raises(OutOfRangeError):
            certify_connection(homo.system, homo.alphas, homo.beta, "periodic")

    def test_driver_dimension(self, homo):
        scalar = build_orbit(logistic_map(4.0), "fixed", 0.75, k_min=-35, k_max=35)
        with pytest.raises(DimensionMismatchError,
                           match=r"^forward target driver dimension 1 does not match the system \(2\)$"):
            certify_connection(homo.system, (scalar,), homo.beta, "homoclinic")

    def test_gap_above_the_stable_envelope_fails_the_verdict(self, homo, monkeypatch):
        # lift the subject by 0.05 per component on t in [38, 42]; the
        # envelope r1 e^{-lambda (t - t_ref)/2} is 0.045 at t = 38 and
        # 0.028 at t = 40, while the end gaps and distinctness still pass
        def lifted(sys, *args, **kwargs):
            traj = solve_bounded(sys, *args, **kwargs)
            if sys.driver is not homo.beta:
                return traj
            bump = ((traj.times >= 38.0) & (traj.times <= 42.0))[:, None] * 0.05
            return replace(traj, samples=traj.samples + bump)

        monkeypatch.setattr(epcag.analysis, "solve_bounded", lifted)
        cert = certify_connection(homo.system, homo.alphas, homo.beta, "homoclinic")
        assert cert.forward.end_gap <= 1e-4
        assert cert.backward.end_gap <= 1e-4
        assert cert.distinctness > 10.0 * 1e-4
        assert cert.forward.bound_check is False
        assert cert.verdict is False


class TestUnstableGapBound:
    def test_formula(self, homo):
        sys = homo.system
        g = 1e-3
        expected = sys.envelope.n_const * g / contraction_margin(sys)
        assert unstable_gap_bound(sys, g) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(9.0152e-3, rel=1e-4)

    def test_requires_margin(self, homo):
        bad = replace(homo.system, envelope=replace(homo.system.envelope, rate=0.01))
        with pytest.raises(AssumptionFailureError):
            unstable_gap_bound(bad, 1e-3)


class TestTransferBattery:
    def test_empty_catalog_is_vacuous(self, homo):
        report = verify_hyperbolic_transfer(homo.system, [])
        assert report.passed is True
        assert report.entries == ()
        assert len(report.notes) == 1

    def test_control_entry_fails(self, homo):
        alpha = homo.alphas[0]
        report = verify_hyperbolic_transfer(homo.system, [(alpha, alpha, alpha)])
        assert report.passed is False
        assert report.entries[0].passed is False
        assert report.entries[0].distinctness == 0.0

    def test_reference_catalog_passes(self):
        template, catalog = transfer_catalog()
        report = verify_hyperbolic_transfer(template, catalog)
        assert report.passed is True
        assert len(report.entries) == 3
        for entry in report.entries:
            assert entry.forward.end_gap <= 1e-4
            assert entry.backward.end_gap <= 1e-4
            assert entry.distinctness > 1e-3

    def test_premise_failure_names_the_entry(self, homo, het):
        # the mu = 3.9 companions never meet the mu = 4 fixed point 3/4
        template, catalog = transfer_catalog()
        bad_row = (het.alphas[0], homo.beta, homo.beta)
        with pytest.raises(PremiseFailureError, match=r"^entry 1: forward sequence gap .* at k=30"):
            verify_hyperbolic_transfer(template, [catalog[0], bad_row])

    def test_equal_companions_need_not_be_one_object(self):
        template, catalog = transfer_catalog()
        alpha, beta, _ = catalog[0]
        twin = replace(beta, values=beta.values.copy())
        shared, split = verify_hyperbolic_transfer(
            template, [(alpha, beta, beta), (alpha, beta, twin)]
        ).entries
        for attr in ("forward", "backward"):
            a, b = getattr(shared, attr), getattr(split, attr)
            assert (b.end_gap, b.fitted_rate, b.fit_quality) == (a.end_gap, a.fitted_rate, a.fit_quality)
        assert split.distinctness == shared.distinctness
        assert split.passed is shared.passed is True

    def test_one_round_solves_each_driver_once(self, solve_counter):
        # six distinct orbit objects in the catalog, one in the control entry
        template, catalog = transfer_catalog()
        assert verify_hyperbolic_transfer(template, catalog).passed is True
        fixed = catalog[0][0]
        control = verify_hyperbolic_transfer(template, [(fixed, fixed, fixed)])
        assert control.passed is False
        assert control.entries[0].distinctness == 0.0
        assert len(solve_counter) == 7
