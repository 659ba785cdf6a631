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

The verdict is end gaps <= tol in both directions, the forward profile
within the stable-gap envelope, and distinctness; rates and qualities
are reported as evidence alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .driver import DriverOrbit, _sequence_gaps
from .errors import (
    DegenerateTailError,
    DimensionMismatchError,
    GridMismatchError,
    OutOfRangeError,
    PremiseFailureError,
)
from .linear import _row_norms
from .solver import SampledTrajectory, solve_bounded
from .system import EpcagSystem, ProofConstants, _require_a4, proof_constants

# gaps at or below this are left out of rate fits as rounding noise: the
# O(1) reference trajectories carry rounding of up to about 1e-13, which
# moves a log gap at 1e-10 by at most 1e-3, and noise of a few 1e-15
# moves the fitted reference rates by well under 1e-6 relative
GAP_FLOOR = 1e-10
MIN_FIT_POINTS = 10
TAIL_FRACTION = 1.0 / 3.0
DISTINCTNESS_FACTOR = 10.0
ENVELOPE_SLACK = 0.1
# certify_connection's kinds of connection
CONNECTION_KINDS = ("homoclinic", "heteroclinic")


@dataclass(frozen=True, eq=False)
class DecayCertificate:
    """One-directional decay evidence for a gap profile.

    gap_samples is an (n, 2) array of (t, gap) rows running toward the
    certified direction (last row = the window end the gap is supposed
    to vanish at). bound_check records the stable-gap envelope test; it
    is vacuously true for backward certificates, where no such envelope
    applies.
    """

    gap_samples: np.ndarray
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


def difference_profile(traj_a: SampledTrajectory, traj_b: SampledTrajectory) -> np.ndarray:
    """Pointwise Euclidean gaps between two trajectories on one grid, as
    an (n, 2) array of (t, gap) rows. One grid means the same node
    window, substeps and schedule omega and origin; the zeta fractions
    may differ, as gap profiles across argument points are legitimate."""
    grid_a, grid_b = ((t.k_window, t.substeps, t.schedule.omega, t.schedule.origin) for t in (traj_a, traj_b))
    if grid_a != grid_b:
        raise GridMismatchError("trajectories live on different grids")
    gaps = _row_norms(traj_a.samples - traj_b.samples)
    return np.column_stack([traj_a.times, gaps])


def fit_decay_rate(profile) -> tuple[float, float]:
    """Least-squares decay rate of log gap vs t over the profile's tail.

    The tail is the last TAIL_FRACTION (a third) of the samples; gaps at
    or below the GAP_FLOOR of 1e-10 are excluded as rounding noise. The
    profile may run toward either +inf or -inf in t; the rate is
    positive when the gap shrinks toward the profile's end. Returns
    (rate, coefficient of determination); a tail flat to rounding is
    fitted exactly.
    """
    arr = np.asarray(profile, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise OutOfRangeError("profile must be a nonempty sequence of (t, gap) pairs")
    n_tail = max(int(math.ceil(len(arr) * TAIL_FRACTION)), 2)
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
    # a spread of 1e-12 relative to the log gaps' own size is the rounding
    # of their mean, not a trend
    quality = 1.0 if ss_tot <= 1e-24 * max(1.0, float(y @ y)) else 1.0 - ss_res / ss_tot
    return float(-slope), float(quality)


def _degenerate_fit(profile):
    try:
        return fit_decay_rate(profile)
    except DegenerateTailError:
        # identical drivers produce an all-floored profile; report no
        # measurable rate and let the distinctness gate fail the verdict
        return 0.0, 0.0


def _forward_certificate(
    profile: np.ndarray, seq_gaps: np.ndarray, pc: ProofConstants, sys: EpcagSystem, tol: float, window: int
) -> DecayCertificate:
    ts, gaps = profile[:, 0], profile[:, 1]
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
        gap_samples=profile,
        fitted_rate=rate,
        fit_quality=quality,
        end_gap=end_gap,
        bound_check=bound_check,
    )


def _backward_certificate(profile: np.ndarray) -> DecayCertificate:
    rev = profile[::-1]
    rate, quality = _degenerate_fit(rev)
    return DecayCertificate(
        gap_samples=rev,
        fitted_rate=rate,
        fit_quality=quality,
        end_gap=float(rev[-1, 1]),
        bound_check=True,
    )


def _solve_once(sys: EpcagSystem, window: int, substeps: int, solve_tol: float, method: str):
    """A solver for the bounded solution of each driver orbit on the
    window that solves each distinct orbit object once (orbits compare
    and hash by identity)."""
    t_window = (-window, window)
    cache: dict[DriverOrbit, SampledTrajectory] = {}

    def solved(orbit: DriverOrbit) -> SampledTrajectory:
        if orbit not in cache:
            cache[orbit] = solve_bounded(replace(sys, driver=orbit), t_window, substeps, solve_tol, method)
        return cache[orbit]

    return solved


def _connect(sys: EpcagSystem, forward, backward, tol: float, window: int, solved, where: str = ""):
    """Evidence that the (subject, target) pair `forward` meets as
    t -> +inf and the pair `backward` as t -> -inf, with the verdict.

    Returns (TransferEntry, proof constants of the forward subject).
    `where` prefixes every error message.
    """
    for direction, pair in (("forward", forward), ("backward", backward)):
        for role, orbit in zip(("subject", "target"), pair):
            if orbit.dim != sys.dim:
                raise DimensionMismatchError(
                    f"{where}{direction} {role} driver dimension {orbit.dim} "
                    f"does not match the system ({sys.dim})"
                )
    seq_f = _sequence_gaps(*forward, window)
    seq_b = _sequence_gaps(*backward, window)
    for direction, gap, k in (("forward", seq_f[-1], window), ("backward", seq_b[0], -window)):
        if gap > tol:
            raise PremiseFailureError(
                f"{where}{direction} sequence gap {gap:.3g} at k={k} exceeds tol {tol:g}"
            )
    pc = proof_constants(replace(sys, driver=forward[0]))

    prof_f = difference_profile(*(solved(orbit) for orbit in forward))
    prof_b = difference_profile(*(solved(orbit) for orbit in backward))
    fwd = _forward_certificate(prof_f, seq_f, pc, sys, tol, window)
    bwd = _backward_certificate(prof_b)
    distinctness = float(min(prof_f[:, 1].max(), prof_b[:, 1].max()))
    passed = bool(
        fwd.end_gap <= tol
        and bwd.end_gap <= tol
        and fwd.bound_check
        and distinctness > DISTINCTNESS_FACTOR * tol
    )
    return TransferEntry(forward=fwd, backward=bwd, distinctness=distinctness, passed=passed), pc


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
    if kind not in CONNECTION_KINDS:
        raise OutOfRangeError(f"kind must be homoclinic or heteroclinic, got {kind!r}")
    if isinstance(alphas, DriverOrbit):
        alphas = (alphas,)
    else:
        alphas = tuple(alphas)
    want = 1 if kind == "homoclinic" else 2
    if len(alphas) != want:
        raise OutOfRangeError(f"{kind} certification needs {want} target orbit(s), got {len(alphas)}")

    solved = _solve_once(sys, window, substeps, solve_tol, method)
    entry, pc = _connect(sys, (beta, alphas[0]), (beta, alphas[-1]), tol, window, solved)
    return ConnectionCertificate(
        kind=kind,
        forward=entry.forward,
        backward=entry.backward,
        distinctness=entry.distinctness,
        verdict=entry.passed,
        constants=pc,
        trajectories=tuple(solved(orbit) for orbit in (beta, *alphas)),
    )


def unstable_gap_bound(sys: EpcagSystem, seq_gap: float) -> float:
    """Sup trajectory gap implied by a driver gap <= seq_gap on a left
    half-axis: N seq_gap / (lambda - N (L1 + L2))."""
    return sys.envelope.n_const * seq_gap / _require_a4(sys.envelope, sys.f)


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

    The stable companion is checked forward and the unstable one
    backward, each against alpha; when both are one orbit this is a
    homoclinic certification. Premise failures name the entry index.
    An empty catalog passes vacuously, with a note saying so.
    """
    catalog = list(catalog)
    if not catalog:
        return TransferReport(entries=(), passed=True, notes=("empty catalog: vacuous pass",))

    solved = _solve_once(sys, window, substeps, solve_tol, method)
    entries = []
    notes: list[str] = []
    for idx, (alpha, beta_s, beta_u) in enumerate(catalog):
        entry, _ = _connect(sys, (beta_s, alpha), (beta_u, alpha), tol, window, solved, f"entry {idx}: ")
        if not entry.passed:
            notes.append(f"entry {idx} failed (distinctness {entry.distinctness:.3g})")
        entries.append(entry)

    return TransferReport(
        entries=tuple(entries),
        passed=all(e.passed for e in entries),
        notes=tuple(notes),
    )
