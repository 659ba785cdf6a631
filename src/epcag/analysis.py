"""Decay certificates: function-level evidence that map-level structure
survives the transfer to bounded solutions.

A connection claim ("the bounded solution for driver beta approaches the
one for driver alpha forward in time, and the one for alpha-backward
backward in time, while staying distinct") is certified numerically:

  * sequence-level premise: the driver gaps at the window ends are
    already below tol;
  * solve both bounded solutions, take the pointwise gap profile;
  * per direction: end gap, fitted decay rate over the tail third of
    the window, fit quality; forward direction additionally checked
    against the stable-gap envelope r1 exp(-rate (t - t_ref)/2) +
    r2 * end sequence gap * 1.1;
  * distinctness: the smallest sup-gap against any target must clear
    10 * tol, the quantitative form of "beta differs from alpha".

The verdict is end gaps <= tol in both directions plus distinctness;
rates and qualities are reported as evidence alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .driver import DriverOrbit
from .errors import (
    AssumptionFailureError,
    DegenerateTailError,
    DimensionMismatchError,
    GridMismatchError,
    OutOfRangeError,
    PremiseFailureError,
)
from .solver import SampledTrajectory, contraction_margin, solve_bounded
from .system import EpcagSystem, ProofConstants, proof_constants

GAP_FLOOR = 1e-14
MIN_FIT_POINTS = 10
TAIL_FRACTION = 1.0 / 3.0
DISTINCTNESS_FACTOR = 10.0
ENVELOPE_SLACK = 0.1


@dataclass(frozen=True, eq=False)
class DecayCertificate:
    """One-directional decay evidence for a gap profile.

    gap_samples run toward the certified direction (last sample = the
    window end the gap is supposed to vanish at). bound_check records
    the stable-gap envelope test; it is vacuously true for backward
    certificates, where no such envelope applies.
    """

    direction: str
    gap_samples: tuple
    fitted_rate: float
    fit_quality: float
    end_gap: float
    bound_check: bool


@dataclass(frozen=True, eq=False)
class ConnectionCertificate:
    """trajectories holds the solved bounded solutions the evidence was
    read from: the subject's first, then one per target orbit."""

    kind: str
    forward: DecayCertificate
    backward: DecayCertificate
    distinctness: float
    verdict: bool
    constants: ProofConstants
    trajectories: tuple


@dataclass(frozen=True, eq=False)
class TransferEntry:
    forward: DecayCertificate
    backward: DecayCertificate
    distinctness: float
    passed: bool


@dataclass(frozen=True, eq=False)
class TransferReport:
    entries: tuple
    passed: bool
    notes: tuple


def difference_profile(traj_a: SampledTrajectory, traj_b: SampledTrajectory) -> list:
    """Pointwise Euclidean gaps between two trajectories on one grid."""
    if (
        len(traj_a.samples) != len(traj_b.samples)
        or abs(traj_a.t0 - traj_b.t0) > 1e-12
        or abs(traj_a.step - traj_b.step) > 1e-15
    ):
        raise GridMismatchError("trajectories live on different grids")
    gaps = np.linalg.norm(traj_a.samples - traj_b.samples, axis=1)
    ts = traj_a.times
    return list(zip(ts.tolist(), gaps.tolist()))


def fit_decay_rate(profile, tail_fraction: float = TAIL_FRACTION) -> tuple[float, float]:
    """Least-squares decay rate of log gap vs t over the profile's tail.

    The tail is the last `tail_fraction` of the samples; gaps at or
    below the 1e-14 floor are excluded as double-precision noise. The
    profile may run toward either +inf or -inf in t; the rate is
    positive when the gap shrinks toward the profile's end. Returns
    (rate, coefficient of determination).
    """
    arr = np.asarray(list(profile), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise OutOfRangeError("profile must be a nonempty sequence of (t, gap) pairs")
    if not 0.0 < tail_fraction <= 1.0:
        raise OutOfRangeError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    n_tail = max(int(math.ceil(len(arr) * tail_fraction)), 2)
    tail = arr[len(arr) - n_tail :]
    xs = tail[:, 0]
    gaps = tail[:, 1]
    if len(xs) > 1 and xs[0] > xs[-1]:
        xs = -xs
    usable = gaps > GAP_FLOOR
    if int(usable.sum()) < MIN_FIT_POINTS:
        raise DegenerateTailError(
            f"only {int(usable.sum())} tail gaps above the {GAP_FLOOR:g} floor"
        )
    x = xs[usable]
    y = np.log(gaps[usable])
    slope, intercept = np.polyfit(x, y, 1)
    res = y - (slope * x + intercept)
    ss_res = float(res @ res)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-30:
        quality = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        quality = 1.0 - ss_res / ss_tot
    return float(-slope), float(quality)


def _sequence_gaps(beta: DriverOrbit, alpha: DriverOrbit, window: int) -> np.ndarray:
    ks = range(-window, window + 1)
    return np.array([np.linalg.norm(beta.value(k) - alpha.value(k)) for k in ks])


def _degenerate_fit(profile):
    try:
        return fit_decay_rate(profile, TAIL_FRACTION)
    except DegenerateTailError:
        # identical drivers produce an all-floored profile; report no
        # measurable rate and let the distinctness gate fail the verdict
        return 0.0, 0.0


def _forward_certificate(
    profile, seq_gaps: np.ndarray, pc: ProofConstants, sys: EpcagSystem, tol: float, window: int
) -> DecayCertificate:
    gaps = np.array([g for _, g in profile])
    ts = np.array([t for t, _ in profile])
    end_gap = float(gaps[-1])
    rate, quality = _degenerate_fit(profile)

    # t_ref mirrors the proof's first index past which the sequence gap
    # is negligible; scan for the earliest suffix below sigma_max * tol
    threshold = pc.sigma_max * tol
    above = np.nonzero(seq_gaps >= threshold)[0]
    k0 = -window if len(above) == 0 else (-window + int(above[-1]) + 1)
    k0 = min(k0, window)
    t_ref = sys.schedule.node(k0)
    end_seq_gap = float(seq_gaps[-1])
    lam = sys.envelope.rate
    sel = ts >= t_ref - 1e-12
    envelope = pc.r1 * np.exp(-lam * (ts[sel] - t_ref) / 2.0) + pc.r2 * end_seq_gap * (
        1.0 + ENVELOPE_SLACK
    )
    bound_check = bool(np.all(gaps[sel] <= envelope))
    return DecayCertificate(
        direction="forward",
        gap_samples=tuple(profile),
        fitted_rate=rate,
        fit_quality=quality,
        end_gap=end_gap,
        bound_check=bound_check,
    )


def _backward_certificate(profile) -> DecayCertificate:
    rev = list(profile)[::-1]
    rate, quality = _degenerate_fit(rev)
    return DecayCertificate(
        direction="backward",
        gap_samples=tuple(rev),
        fitted_rate=rate,
        fit_quality=quality,
        end_gap=float(rev[-1][1]),
        bound_check=True,
    )


def _check_driver(sys: EpcagSystem, orbit: DriverOrbit, label: str) -> None:
    if orbit.dim != sys.dim:
        raise DimensionMismatchError(
            f"{label} driver dimension {orbit.dim} does not match the system ({sys.dim})"
        )


def _solve_once(sys: EpcagSystem, window: int, substeps: int, solve_tol: float, method: str):
    """A solver for the bounded solution of each driver orbit on the
    window that solves each distinct orbit object once."""
    t_window = (-window, window)
    cache: dict = {}

    def solved(orbit: DriverOrbit) -> SampledTrajectory:
        key = id(orbit)
        if key not in cache:
            traj = solve_bounded(replace(sys, driver=orbit), t_window, substeps, solve_tol, method)
            cache[key] = (orbit, traj)  # holding the orbit keeps its id from being reused
        return cache[key][1]

    return solved


def _entry(sys: EpcagSystem, pc: ProofConstants, seq_f, prof_f, prof_b, tol: float, window: int):
    """Both directions' evidence, distinctness and verdict from the
    forward and backward gap profiles."""
    fwd = _forward_certificate(prof_f, seq_f, pc, sys, tol, window)
    bwd = _backward_certificate(prof_b)
    distinctness = float(min(max(g for _, g in prof_f), max(g for _, g in prof_b)))
    passed = bool(
        fwd.end_gap <= tol and bwd.end_gap <= tol and distinctness > DISTINCTNESS_FACTOR * tol
    )
    return TransferEntry(forward=fwd, backward=bwd, distinctness=distinctness, passed=passed)


def certify_connection(
    sys: EpcagSystem,
    alphas,
    beta: DriverOrbit,
    kind: str,
    tol: float = 1e-4,
    *,
    window: int = 30,
    substeps: int = 200,
    solve_tol: float = 1e-8,
    method: str = "picard",
) -> ConnectionCertificate:
    """Certify that beta's bounded solution connects to the targets'.

    alphas: one target orbit (homoclinic) or a (forward, backward) pair
    (heteroclinic). The system's own driver is ignored; matrix,
    envelope, schedule and nonlinearity are reused for every solve, and
    each distinct orbit object is solved once.

    Raises PremiseFailureError when the driver sequences themselves do
    not meet at the window ends, and AssumptionFailureError when the
    contraction conditions behind the certified bounds fail.
    """
    return _certify(sys, alphas, beta, kind, tol, window, _solve_once(sys, window, substeps, solve_tol, method))


def _certify(sys: EpcagSystem, alphas, beta: DriverOrbit, kind: str, tol: float, window: int, solved):
    if kind not in ("homoclinic", "heteroclinic"):
        raise OutOfRangeError(f"kind must be homoclinic or heteroclinic, got {kind!r}")
    if isinstance(alphas, DriverOrbit):
        alphas = (alphas,)
    else:
        alphas = tuple(alphas)
    want = 1 if kind == "homoclinic" else 2
    if len(alphas) != want:
        raise OutOfRangeError(f"{kind} certification needs {want} target orbit(s), got {len(alphas)}")
    alpha_f = alphas[0]
    alpha_b = alphas[-1]
    for label, orbit in (("target", alpha_f), ("target", alpha_b), ("subject", beta)):
        _check_driver(sys, orbit, label)

    pc = proof_constants(replace(sys, driver=beta))

    seq_f = _sequence_gaps(beta, alpha_f, window)
    seq_b = _sequence_gaps(beta, alpha_b, window)
    if seq_f[-1] > tol:
        raise PremiseFailureError(
            f"forward sequence gap {seq_f[-1]:.3g} at k={window} exceeds tol {tol:g}"
        )
    if seq_b[0] > tol:
        raise PremiseFailureError(
            f"backward sequence gap {seq_b[0]:.3g} at k={-window} exceeds tol {tol:g}"
        )

    trajectories = tuple(solved(orbit) for orbit in (beta, *alphas))
    prof_f = difference_profile(trajectories[0], trajectories[1])
    prof_b = prof_f if alpha_b is alpha_f else difference_profile(trajectories[0], trajectories[-1])
    entry = _entry(sys, pc, seq_f, prof_f, prof_b, tol, window)
    return ConnectionCertificate(
        kind=kind,
        forward=entry.forward,
        backward=entry.backward,
        distinctness=entry.distinctness,
        verdict=entry.passed,
        constants=pc,
        trajectories=trajectories,
    )


def unstable_gap_bound(sys: EpcagSystem, seq_gap: float) -> float:
    """Sup trajectory gap implied by a driver gap <= seq_gap on a left
    half-axis: N seq_gap / (lambda - N (L1 + L2))."""
    margin = contraction_margin(sys)
    if margin <= 0.0:
        raise AssumptionFailureError("(A4) fails; the unstable-side gap bound needs it")
    return sys.envelope.n_const * seq_gap / margin


def _same_orbit(a: DriverOrbit, b: DriverOrbit) -> bool:
    if a is b:
        return True
    return a.k_min == b.k_min and a.k_max == b.k_max and np.array_equal(a.values, b.values)


def verify_hyperbolic_transfer(
    sys: EpcagSystem,
    catalog,
    tol: float = 1e-4,
    *,
    window: int = 30,
    substeps: int = 200,
    solve_tol: float = 1e-8,
    method: str = "picard",
) -> TransferReport:
    """Check that every catalog entry (alpha, beta_stable, beta_unstable)
    has function-level stable and unstable companions.

    When the two companions are the same orbit this is a homoclinic
    certification; otherwise the stable companion is checked forward
    and the unstable one backward, each with its own distinctness.
    An empty catalog passes vacuously, with a note saying so.
    """
    catalog = list(catalog)
    if not catalog:
        return TransferReport(entries=(), passed=True, notes=("empty catalog: vacuous pass",))

    solved = _solve_once(sys, window, substeps, solve_tol, method)
    entries = []
    notes: list[str] = []
    for idx, (alpha, beta_s, beta_u) in enumerate(catalog):
        if _same_orbit(beta_s, beta_u):
            cert = _certify(sys, alpha, beta_s, "homoclinic", tol, window, solved)
            entry = TransferEntry(
                forward=cert.forward,
                backward=cert.backward,
                distinctness=cert.distinctness,
                passed=cert.verdict,
            )
        else:
            for label, orbit in (("target", alpha), ("stable", beta_s), ("unstable", beta_u)):
                _check_driver(sys, orbit, label)
            seq_s = _sequence_gaps(beta_s, alpha, window)
            seq_u = _sequence_gaps(beta_u, alpha, window)
            if seq_s[-1] > tol:
                raise PremiseFailureError(
                    f"entry {idx}: stable companion sequence gap {seq_s[-1]:.3g} at k={window}"
                )
            if seq_u[0] > tol:
                raise PremiseFailureError(
                    f"entry {idx}: unstable companion sequence gap {seq_u[0]:.3g} at k={-window}"
                )
            pc = proof_constants(replace(sys, driver=beta_s))
            traj_a = solved(alpha)
            prof_s = difference_profile(solved(beta_s), traj_a)
            prof_u = difference_profile(solved(beta_u), traj_a)
            entry = _entry(sys, pc, seq_s, prof_s, prof_u, tol, window)
        if not entry.passed:
            notes.append(f"entry {idx} failed (distinctness {entry.distinctness:.3g})")
        entries.append(entry)

    return TransferReport(
        entries=tuple(entries),
        passed=all(e.passed for e in entries),
        notes=tuple(notes),
    )
