"""Nonlinearity contracts, system assembly, assumption checks, constants."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epcag import (
    REFERENCE_N,
    assemble_system,
    build_orbit,
    check_assumptions,
    custom_contract,
    eval_many,
    example_contract,
    map_supremum,
    pair_orbits,
    proof_constants,
    reference_envelope,
    reference_matrix,
    reference_schedule,
    solve_bounded,
    unstable_gap_bound,
    zero_contract,
)
from epcag import solver, system
from epcag.errors import (
    AssumptionFailureError,
    ContractViolatedError,
    DimensionMismatchError,
)


def fixed_driver(mu=4.0, value=0.75, k=5):
    orb = build_orbit(mu, "fixed", value, k_min=-k, k_max=k)
    return pair_orbits(orb, orb)


class TestContracts:
    def test_example_contract_constants(self):
        c = example_contract()
        assert (c.lip_x, c.lip_y) == (0.03, 0.01)
        assert c.bound_mf == 1.07229

    def test_example_eval(self):
        c = example_contract()
        v = c.eval(0.0, np.zeros(2), np.zeros(2))
        assert v == pytest.approx([0.03 + 0.5, 0.01])

    def test_batch_matches_loop(self):
        c = example_contract()
        rng = np.random.default_rng(7)
        ts = rng.uniform(-30, 30, 50)
        xs = rng.normal(size=(50, 2))
        ys = rng.normal(size=(50, 2))
        batched = eval_many(c, ts, xs, ys)
        looped = np.array([c.eval(float(t), x, y) for t, x, y in zip(ts, xs, ys)])
        assert np.abs(batched - looped).max() <= 1e-14

    def test_batch_sigmoid_equals_the_clipped_form(self):
        # the three-exp form eval_batch used before taking one exp of -|t|
        def clipped(ts, xs, ys):
            sig = np.where(
                ts >= 0.0,
                1.0 / (1.0 + np.exp(-np.clip(ts, 0.0, None))),
                np.exp(np.clip(ts, None, 0.0)) / (1.0 + np.exp(np.clip(ts, None, 0.0))),
            )
            return np.column_stack([
                0.03 * np.cos(xs[:, 0]) - 0.01 * np.sin(ys[:, 1]) + sig,
                0.02 * np.sin(xs[:, 1]) + 0.01 * np.cos(ys[:, 0]),
            ])

        rng = np.random.default_rng(11)
        edge = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 36.0, -36.0,
                745.0, -745.0, 800.0, -800.0, np.nan]
        ts = np.concatenate([edge, rng.uniform(-50.0, 50.0, 10_000)])
        xs = rng.normal(size=(len(ts), 2))
        ys = rng.normal(size=(len(ts), 2))
        batch = example_contract().eval_batch
        np.testing.assert_array_equal(batch(ts, xs, ys), clipped(ts, xs, ys))
        # x1 = pi/2, y2 = 0 leave f1 = sig + 1.8e-18, so every digit of sig shows
        xs[:, 0], ys[:, 1] = math.pi / 2.0, 0.0
        np.testing.assert_array_equal(batch(ts, xs, ys), clipped(ts, xs, ys))

    def test_scalar_eval_equals_the_formula(self):
        # the formula with each component indexed off the arrays, bit for bit
        def formula(t, x, y):
            sig = 1.0 / (1.0 + math.exp(-t)) if t >= 0.0 else math.exp(t) / (1.0 + math.exp(t))
            return np.array([0.03 * math.cos(x[0]) - 0.01 * math.sin(y[1]) + sig,
                             0.02 * math.sin(x[1]) + 0.01 * math.cos(y[0])])

        rng = np.random.default_rng(13)
        ts = np.concatenate([rng.uniform(-40.0, 0.0, 300), rng.uniform(0.0, 40.0, 300),
                             rng.uniform(40.0, 800.0, 200), -rng.uniform(40.0, 800.0, 200)])
        xs = rng.normal(scale=3.0, size=(len(ts), 2))
        ys = rng.normal(scale=3.0, size=(len(ts), 2))
        eval = example_contract().eval
        for t, x, y in zip(ts.tolist(), xs, ys):
            np.testing.assert_array_equal(eval(t, x, y), formula(t, x, y))

    @pytest.mark.parametrize("strided", [False, True])
    def test_eval_many_walks_rows_like_the_index_loop(self, strided):
        # the per-index loop eval_many ran before walking rows with zip:
        # the contract sees the same float times and 1-D row views
        calls = []

        def recording(t, x, y):
            calls.append((type(t), t, type(x), x.shape, x.tolist(), type(y), y.shape, y.tolist()))
            return example_contract().eval(t, x, y)

        rng = np.random.default_rng(19)
        ts, xs, ys = rng.uniform(-30, 30, 60), rng.normal(size=(60, 4)), rng.normal(size=(60, 4))
        if strided:
            ts, xs, ys = ts[::3], xs[::3, 1::2], ys[::3, ::2]
        else:
            ts, xs, ys = ts[:20], np.ascontiguousarray(xs[:20, :2]), np.ascontiguousarray(ys[:20, :2])
        assert xs.flags.c_contiguous is not strided
        got = eval_many(custom_contract(recording, 1.1, 0.03, 0.01), ts, xs, ys)
        seen = calls[:]
        calls.clear()
        want = np.empty_like(xs)
        for i in range(len(ts)):
            want[i] = recording(float(ts[i]), xs[i], ys[i])
        assert seen == calls
        np.testing.assert_array_equal(got, want)

    def test_eval_many_expands_blocked_arguments(self):
        # one argument row per block of 5 rows computes what a row per row
        # does: declared, undeclared, and declared with eval_batch dropped
        rng = np.random.default_rng(23)
        ts, xs, ys = rng.uniform(-30, 30, 20), rng.normal(size=(20, 2)), rng.normal(size=(4, 2))
        c = example_contract()
        for f in (c, replace(c, blocked_ys=False), replace(c, eval_batch=None),
                  custom_contract(c.eval, c.bound_mf, c.lip_x, c.lip_y)):
            np.testing.assert_array_equal(eval_many(f, ts, xs, ys), eval_many(f, ts, xs, np.repeat(ys, 5, axis=0)))

    def test_undeclared_batch_gets_an_argument_row_per_row(self):
        seen = []

        def batch(ts, xs, ys):
            seen.append(ys.copy())
            return example_contract().eval_batch(ts, xs, ys)

        rng = np.random.default_rng(29)
        ys = rng.normal(size=(4, 2))
        eval_many(custom_contract(example_contract().eval, 1.1, 0.03, 0.01, eval_batch=batch),
                  rng.uniform(-30, 30, 20), rng.normal(size=(20, 2)), ys)
        np.testing.assert_array_equal(seen[0], np.repeat(ys, 5, axis=0))

    def test_zero_contract(self):
        c = zero_contract(2)
        assert np.all(c.eval(1.0, np.ones(2), np.ones(2)) == 0.0)
        assert c.lip_x == 0.0 and c.lip_y == 0.0
        assert c.bound_mf > 0.0


# an envelope of N = 1 for the reference matrix, checked on validate_envelope's grid
ENVELOPE_FAILS = r"^envelope failed validation: max ratio 3\.31294 at t = 8\.92277$"


class TestAssembly:
    def test_reference_assembly(self):
        sys = assemble_system(
            reference_matrix(),
            reference_schedule(),
            example_contract(),
            fixed_driver(),
            envelope=reference_envelope(),
        )
        assert sys.dim == 2
        assert sys.envelope.n_const == REFERENCE_N

    def test_envelope_estimated_when_missing(self):
        sys = assemble_system(
            reference_matrix(), reference_schedule(), example_contract(), fixed_driver()
        )
        assert sys.envelope.validated_horizon == pytest.approx(24.0)
        assert sys.envelope.rate == pytest.approx(0.49)

    def test_driver_dimension_mismatch(self):
        scalar = build_orbit(4.0, "fixed", 0.75, k_min=-3, k_max=3)
        with pytest.raises(DimensionMismatchError):
            assemble_system(
                reference_matrix(),
                reference_schedule(),
                example_contract(),
                scalar,
                envelope=reference_envelope(),
            )

    @pytest.mark.parametrize(
        "matrix, contract, message",
        [
            (np.ones((2, 3)), example_contract(), "matrix must be square, got shape (2, 3)"),
            (reference_matrix(), custom_contract(lambda t, x, y: np.zeros(3), 1.0, 0.0, 0.0),
             "contract eval returned shape (3,), expected (2,)"),
        ],
        ids=["non-square-matrix", "contract-shape"],
    )
    def test_shape_refusals(self, matrix, contract, message):
        # the envelope is supplied: estimating one from a non-square
        # matrix would refuse first
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            assemble_system(matrix, reference_schedule(), contract, fixed_driver(),
                            envelope=reference_envelope())

    def test_understated_lipschitz_is_caught(self):
        honest = example_contract()
        lying = custom_contract(honest.eval, honest.bound_mf, 0.001, honest.lip_y,
                                eval_batch=honest.eval_batch)
        with pytest.raises(ContractViolatedError):
            assemble_system(
                reference_matrix(),
                reference_schedule(),
                lying,
                fixed_driver(),
                envelope=reference_envelope(),
            )

    # the first violation in per-sample order, with its message; contracts
    # with and without eval_batch must report the same one
    @pytest.mark.parametrize(
        "declared, message",
        [
            ({"lip_x": 0.001}, "lip_x: sampled quotient 0.0124891 exceeds declared 0.001"),
            ({"lip_y": 0.001}, "lip_y: sampled quotient 0.00503605 exceeds declared 0.001"),
            ({"bound_mf": 0.5}, "bound_mf: sampled ||f|| = 0.964011 exceeds declared 0.5 at t = 15.8459"),
        ],
    )
    @pytest.mark.parametrize("batched", [True, False])
    def test_first_violation_with_and_without_batch(self, declared, message, batched):
        honest = example_contract()
        constants = {"bound_mf": honest.bound_mf, "lip_x": honest.lip_x, "lip_y": honest.lip_y}
        lying = custom_contract(
            honest.eval, **{**constants, **declared},
            eval_batch=honest.eval_batch if batched else None,
        )
        with pytest.raises(ContractViolatedError) as caught:
            assemble_system(
                reference_matrix(), reference_schedule(), lying, fixed_driver(),
                envelope=reference_envelope(),
            )
        assert str(caught.value) == message

    def test_spot_design_is_shared_between_assemblies(self):
        # systems of different radius 2 M_phi draw from one cached design;
        # assembling them in either order passes contracts the same
        # writable arrays, and the design itself stays read-only
        def recorded(sys_parts):
            seen = []
            honest = example_contract()

            def batch(ts, xs, ys):
                assert ts.flags.writeable and xs.flags.writeable and ys.flags.writeable
                seen.append((ts.copy(), xs.copy(), ys.copy()))
                return honest.eval_batch(ts, xs, ys)

            f = custom_contract(honest.eval, *sys_parts, eval_batch=batch)
            assemble_system(reference_matrix(), reference_schedule(), f, fixed_driver(),
                            envelope=reference_envelope())
            return seen

        small, large = (1.07229, 0.03, 0.01), (2.5, 0.03, 0.01)
        system._spot_design.cache_clear()
        first = recorded(small), recorded(large)
        system._spot_design.cache_clear()
        second = recorded(large), recorded(small)
        assert system._spot_design.cache_info().misses == 1
        for a, b in zip(first, second[::-1]):
            assert len(a) == len(b) == 3
            for call_a, call_b in zip(a, b):
                for arr_a, arr_b in zip(call_a, call_b):
                    np.testing.assert_array_equal(arr_a, arr_b)
        assert not np.array_equal(first[0][0][1], first[1][0][1])
        assert not any(arr.flags.writeable for arr in system._spot_design(2))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_spot_design_draws(self, dim):
        system._spot_design.cache_clear()
        first = system._spot_design(dim)
        system._spot_design.cache_clear()
        second = system._spot_design(dim)
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(a, b)
        ts, x_dirs, x_radii, y_dirs, y_radii, steps = first
        count = system.SPOT_CHECK_SAMPLES
        assert ts.shape == x_radii.shape == y_radii.shape == (count,)
        assert x_dirs.shape == y_dirs.shape == (count, dim)
        assert steps.shape == (count, dim + 1, dim)
        assert ts.min() >= -60.0 and ts.max() < 60.0
        lengths = np.linalg.norm(steps, axis=2)
        for dirs in (x_dirs, y_dirs, steps[:, 0] / lengths[:, :1], steps[:, 1:] / lengths[:, 1:, None]):
            assert np.all(np.any(dirs != 0.0, axis=-1))
            np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, rtol=1e-15, atol=0)
        # after the random direction, the steps run along the axes
        axes = np.broadcast_to(np.eye(dim, dtype=bool), (count, dim, dim))
        np.testing.assert_array_equal(steps[:, 1:] != 0.0, axes)
        for radii in (x_radii, y_radii):
            assert radii.min() >= 0.0 and radii.max() <= 1.0
        assert lengths.min() >= 1e-3 and lengths.max() < 0.501

    @pytest.mark.parametrize("batched", [True, False])
    def test_first_violation_in_sample_order(self, batched):
        # x-gain understated only for t > 50, y-gain only for t < -50; the
        # fifth sample is the first with t < -50, the twenty-third the first
        # with t > 50, so the lip_y violation comes first in per-sample order
        honest = example_contract()

        def regional(t, x, y):
            v = honest.eval(t, x, y)
            if t > 50.0:
                v[0] += 0.05 * math.sin(x[0])
            if t < -50.0:
                v[1] += 0.05 * math.sin(y[0])
            return v

        def regional_batch(ts, xs, ys):
            v = honest.eval_batch(ts, xs, ys)
            v[:, 0] += np.where(ts > 50.0, 0.05 * np.sin(xs[:, 0]), 0.0)
            v[:, 1] += np.where(ts < -50.0, 0.05 * np.sin(ys[:, 0]), 0.0)
            return v

        lying = custom_contract(regional, 1.2, honest.lip_x, honest.lip_y,
                                eval_batch=regional_batch if batched else None)
        with pytest.raises(ContractViolatedError) as caught:
            assemble_system(
                reference_matrix(), reference_schedule(), lying, fixed_driver(),
                envelope=reference_envelope(),
            )
        assert str(caught.value) == "lip_y: sampled quotient 0.0200491 exceeds declared 0.01"

    def test_batch_disagreeing_with_eval_is_caught(self):
        # the solvers evaluate f through eval_batch, the contract is declared by eval
        honest = example_contract()

        def skewed(ts, xs, ys):
            return honest.eval_batch(ts, xs, ys) * (1.0 + 1e-9)

        two_faced = custom_contract(honest.eval, honest.bound_mf, honest.lip_x, honest.lip_y,
                                    eval_batch=skewed)
        with pytest.raises(ContractViolatedError, match="eval_batch"):
            assemble_system(
                reference_matrix(), reference_schedule(), two_faced, fixed_driver(),
                envelope=reference_envelope(),
            )

    @pytest.mark.parametrize("layout, message", [
        ("per_row", r"^eval_batch: declares blocked_ys but fails on blocks of two rows: operands could not"),
        ("tiled", r"^eval_batch: row at t = \S+ differs from eval by "),
        ("per_block", r"^eval_batch: declares blocked_ys but returns shape \(4, 2\) on blocks of two rows, "
                      r"expected \(8, 2\)$"),
    ], ids=["per_row", "tiled", "per_block"])
    def test_blocked_declaration_is_checked(self, layout, message):
        # each eval_batch agrees with eval on a row per row, so only the
        # call on blocks can tell a contract that declares blocked_ys
        # but does not read its arguments that way
        def eval(t, x, y):
            return 0.03 * np.sin(x) + 0.01 * np.cos(y[::-1])

        def blocked(ts, xs, ys):
            rep = len(xs) // len(ys)
            return 0.03 * np.sin(xs) + np.repeat(0.01 * np.cos(ys[:, ::-1]), rep, axis=0)

        misread = {
            "per_row": lambda ts, xs, ys: 0.03 * np.sin(xs) + 0.01 * np.cos(ys[:, ::-1]),
            "tiled": lambda ts, xs, ys: 0.03 * np.sin(xs)
            + 0.01 * np.cos(np.tile(ys, (len(xs) // len(ys), 1))[:, ::-1]),
            "per_block": lambda ts, xs, ys: 0.03 * np.sin(xs[:: len(xs) // len(ys)]) + 0.01 * np.cos(ys[:, ::-1]),
        }[layout]
        parts = (reference_matrix(), reference_schedule())
        assemble_system(*parts, custom_contract(eval, 0.06, 0.03, 0.01, eval_batch=blocked, blocked_ys=True),
                        fixed_driver(), envelope=reference_envelope())
        # undeclared, the misreading batch is never handed blocks
        assemble_system(*parts, custom_contract(eval, 0.06, 0.03, 0.01, eval_batch=misread),
                        fixed_driver(), envelope=reference_envelope())
        liar = custom_contract(eval, 0.06, 0.03, 0.01, eval_batch=misread, blocked_ys=True)
        with pytest.raises(ContractViolatedError, match=message):
            assemble_system(*parts, liar, fixed_driver(), envelope=reference_envelope())

    def test_envelope_failing_validation_is_refused(self):
        # ||exp(A t)|| e^{t/2} peaks at REFERENCE_N = 3.31294 on every period
        # of the rotation; N = 1 understates it
        low = replace(reference_envelope(), n_const=1.0)
        with pytest.raises(AssumptionFailureError, match=ENVELOPE_FAILS):
            assemble_system(reference_matrix(), reference_schedule(), example_contract(), fixed_driver(),
                            envelope=low)

    def test_understated_bound_is_caught(self):
        honest = example_contract()
        lying = custom_contract(honest.eval, 0.5, honest.lip_x, honest.lip_y)
        with pytest.raises(ContractViolatedError):
            assemble_system(
                reference_matrix(),
                reference_schedule(),
                lying,
                fixed_driver(),
                envelope=reference_envelope(),
            )


class TestMapSupremum:
    def test_logistic_closed_form(self):
        assert map_supremum(fixed_driver(4.0)) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert map_supremum(fixed_driver(3.9, 2.9 / 3.9)) == pytest.approx(
            math.hypot(0.975, 0.975), rel=1e-14
        )

    def test_custom_orbit_fallback(self):
        base = fixed_driver(4.0)
        stripped = replace(base, mus=None)
        # window max is (0.75, 0.75); fallback adds a 10% margin
        assert map_supremum(stripped) == pytest.approx(1.1 * math.hypot(0.75, 0.75))


class TestAssumptions:
    def test_reference_report(self, homo):
        rep = check_assumptions(homo.system)
        assert rep.a4_lhs == pytest.approx(0.13252, abs=1e-5)
        assert rep.a5_lhs == pytest.approx(0.74192, abs=1e-4)
        assert rep.a4_pass and rep.a5_pass and rep.passed
        assert rep.notes == ()

    def test_zero_forcing_passes_trivially(self):
        sys = assemble_system(
            reference_matrix(),
            reference_schedule(),
            zero_contract(2),
            fixed_driver(),
            envelope=reference_envelope(),
        )
        rep = check_assumptions(sys)
        assert rep.passed
        assert rep.a4_lhs == 0.0
        assert rep.a5_lhs == 0.0

    def test_non_positive_bound_is_reported(self):
        # the spot check would refuse this bound; past assembly, the report flags it
        zero_bound = replace(example_contract(), bound_mf=0.0)
        sys = assemble_system(reference_matrix(), reference_schedule(), example_contract(), fixed_driver(),
                              envelope=reference_envelope())
        sys = replace(sys, f=zero_bound)
        rep = check_assumptions(sys)
        assert rep.notes == ("(A1) fails: bound 0.0 not a positive finite number",)
        assert rep.passed is False

    def test_failure_is_reported_not_raised(self):
        sys = assemble_system(
            reference_matrix(),
            reference_schedule(),
            example_contract(),
            fixed_driver(),
            envelope=reference_envelope(),
        )
        weak = replace(sys, envelope=replace(sys.envelope, n_const=REFERENCE_N, rate=0.01))
        # rate 0.01 makes N(L1+L2) >> lambda; the report carries the news
        rep = check_assumptions(weak)
        assert not rep.a4_pass and not rep.passed
        assert any("A4" in n for n in rep.notes)

    @given(
        n=st.floats(1.0, 10.0),
        lam=st.floats(0.05, 3.0),
        l1=st.floats(0.0, 0.5),
        l2=st.floats(0.0, 0.5),
        w=st.floats(0.1, 4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_second_condition_implies_first(self, n, lam, l1, l2, w):
        # the interval condition dominates the static one: its L2 factor
        # e^{lw/2}(e^{lw}-1)/(1-e^{-lw/2}) = (e^{lw/2}+1)e^{lw} >= 2
        a4 = n * (l1 + l2) / lam
        ehalf, efull = math.exp(lam * w / 2), math.exp(lam * w)
        a5 = (n / lam) * (2 * l1 + l2 * (ehalf + 1.0) * efull)
        if a5 < 1.0:
            assert a4 < 1.0 + 1e-12


class TestProofConstants:
    def test_heteroclinic_scenario_constants(self, het):
        pc = proof_constants(het.system)
        assert pc.m_phi == pytest.approx(16.475, abs=1e-3)
        assert pc.kappa_pi == pytest.approx(0.26503, abs=1e-5)
        assert pc.r2 == pytest.approx(10.025, abs=0.01)
        assert pc.r1 > 0.0
        assert pc.r1 == pytest.approx(422.9709, rel=1e-4)
        assert pc.sigma_max == pytest.approx(1.0 / (pc.r1 + pc.r2), rel=1e-12)
        assert pc.map_sup == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_homoclinic_scenario_constants(self, homo):
        pc = proof_constants(homo.system)
        assert pc.m_phi == pytest.approx(16.2410019, rel=1e-6)
        assert pc.r1 == pytest.approx(416.956685, rel=1e-6)
        assert pc.h_bound == pytest.approx(140.092853, rel=1e-6)
        assert pc.eta_max == pytest.approx(0.1109234614, rel=1e-6)

    def test_requires_a5(self, homo):
        # lambda = 0.3 keeps (A4), N (L1 + L2) = 0.1325, and fails (A5)
        bad = replace(homo.system, envelope=replace(homo.system.envelope, rate=0.3))
        assert check_assumptions(bad).a4_pass
        with pytest.raises(AssumptionFailureError, match=A5_FAILS):
            proof_constants(bad)

    def test_requires_contraction(self, homo):
        bad = replace(homo.system, envelope=replace(homo.system.envelope, rate=0.01))
        with pytest.raises(AssumptionFailureError):
            proof_constants(bad)


# the reference system with lambda = 0.05: N (L1 + L2) = 0.132518 leaves no margin
A4_FAILS = r"^\(A4\) fails: N\(L1\+L2\) = 0\.132518 >= lambda = 0\.05$"


# the reference system with lambda = 0.3 keeps (A4) and fails (A5)
A5_FAILS = r"^\(A5\) fails: lhs = 1\.05267 >= 1; the stable-direction constants r1, r2 are undefined$"


class TestA4Guard:
    @pytest.mark.parametrize(
        "call",
        [
            proof_constants,
            lambda sys: solve_bounded(sys, (-2, 2)),
            lambda sys: solver._lead_in_pad(sys.envelope, sys.f, map_supremum(sys.driver), 1.5, 1.0 / 3.0, 1e-8),
            lambda sys: unstable_gap_bound(sys, 1e-3),
        ],
        ids=["proof_constants", "solve_bounded", "lead_in_pad", "unstable_gap_bound"],
    )
    def test_one_message(self, homo, call):
        bad = replace(homo.system, envelope=replace(homo.system.envelope, rate=0.05))
        with pytest.raises(AssumptionFailureError, match=A4_FAILS):
            call(bad)
