"""Logistic-map orbits that drive the piecewise constant forcing term.

An orbit window stores alpha_k for k_min <= k <= k_max together with its
limits at both ends, so a solver may read alpha_k outside the window:
beyond the stored range the orbit is extended by its declared limit
values, committing an error no larger than the recorded edge gap.

Backward continuations use an inverse branch of the map. For the
logistic family F_mu(s) = mu s (1 - s) the two branches are

    lower_G(s) = 2 s / (mu (1 + sqrt(1 - 4 s / mu)))      in [0, 1/2]
    upper_H(s) = (1 + sqrt(1 - 4 s / mu)) / 2             in [1/2, 1]

lower_G is written in the cancellation-free form; the textbook
(1 - sqrt(1 - 4s/mu))/2 loses all significant digits near 0 and would
flatten backward gap profiles long before double precision runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchEscapeError,
    NoConvergenceError,
    OrbitCoverageError,
    OutOfDomainError,
    OutOfRangeError,
    RangeMismatchError,
)
from .linear import _row_norms

LOWER_BRANCH = "lower_G"
UPPER_BRANCH = "upper_H"
BRANCHES = (LOWER_BRANCH, UPPER_BRANCH)
ORBIT_KINDS = ("fixed", "homoclinic", "heteroclinic")

# hard floor for automatic backward widening
WIDEN_K_MIN = -200

# forward iterates this close to a fixed point of F are pinned to it; float
# iteration near a repelling fixed point drifts away at |F'|^k otherwise
PIN_TOL = 1e-13

# orbit consistency |alpha_{k+1} - F(alpha_k)| allowed after construction
CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class ScalarMap:
    """One scalar map family member. Only the logistic family is bundled."""

    kind: str
    mu: float

    def __post_init__(self):
        if self.kind != "logistic":
            raise OutOfRangeError(f"unknown map kind {self.kind!r}")
        if not (math.isfinite(self.mu) and 0.0 < self.mu <= 4.0):
            raise OutOfRangeError(f"logistic mu must lie in (0, 4], got {self.mu!r}")


def logistic_map(mu: float) -> ScalarMap:
    return ScalarMap("logistic", mu)


def logistic_step(mu: float, s: float) -> float:
    """F_mu(s) = mu s (1 - s) on [0, 1]."""
    if not (0.0 < mu <= 4.0):
        raise OutOfRangeError(f"mu must lie in (0, 4], got {mu!r}")
    if not (0.0 <= s <= 1.0):
        raise OutOfDomainError(f"s must lie in [0, 1], got {s!r}")
    return mu * s * (1.0 - s)


def _check_branch(branch) -> None:
    if branch not in BRANCHES:
        raise OutOfRangeError(f"branch must be {LOWER_BRANCH!r} or {UPPER_BRANCH!r}, got {branch!r}")


def logistic_inverse(mu: float, s: float, branch: str) -> float:
    """Preimage of s under F_mu on the requested branch.

    Domain is [0, mu/4]; s at most CONSISTENCY_TOL above mu/4 is treated
    as mu/4, whose preimage on both branches is exactly 1/2, so the
    consistency check of build_orbit reads the same |F(1/2) - s| this
    forgives. The lower branch lands in [0, 1/2] and the upper in
    [1/2, 1], in floating point too.
    """
    if not (0.0 < mu <= 4.0):
        raise OutOfRangeError(f"mu must lie in (0, 4], got {mu!r}")
    if not (0.0 <= s):
        raise OutOfDomainError(f"s must be nonnegative, got {s!r}")
    top = mu / 4.0
    if s > top:
        if abs(top - s) > CONSISTENCY_TOL:
            raise OutOfDomainError(f"s = {s!r} exceeds the branch domain top mu/4 = {top!r}")
        s = top
    _check_branch(branch)
    disc = math.sqrt(max(0.0, 1.0 - 4.0 * s / mu))
    if branch == UPPER_BRANCH:
        return (1.0 + disc) / 2.0
    return 2.0 * s / (mu * (1.0 + disc))


def _fixed_points(mu: float) -> list[float]:
    pts = [0.0]
    if mu > 1.0:
        pts.append((mu - 1.0) / mu)
    return pts


def _branch_fixed_point(mu: float, branch: str) -> float | None:
    """The fixed point of F inside the branch range that attracts the
    inverse iteration (|F'| >= 1 there)."""
    lo, hi = (0.0, 0.5) if branch == LOWER_BRANCH else (0.5, 1.0)
    for p in _fixed_points(mu):
        if lo <= p <= hi and abs(mu * (1.0 - 2.0 * p)) >= 1.0:
            return p
    return None


@dataclass(frozen=True, eq=False)
class DriverOrbit:
    """Finite window of a map orbit with extension limits.

    values has shape (k_max - k_min + 1, m); scalar orbits use m = 1.
    left_limit / right_limit are the extension values used outside the
    window (None means the orbit cannot be extended on that side).
    """

    k_min: int
    k_max: int
    values: np.ndarray
    left_limit: np.ndarray | None
    right_limit: np.ndarray | None
    edge_gap: float
    mus: tuple[float, ...] | None = None

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value(self, k: int) -> np.ndarray:
        if self.k_min <= k <= self.k_max:
            return self.values[k - self.k_min]
        if k < self.k_min:
            if self.left_limit is None:
                raise OrbitCoverageError(
                    f"k = {k} below window start {self.k_min} and no left limit declared"
                )
            return self.left_limit
        if self.right_limit is None:
            raise OrbitCoverageError(
                f"k = {k} above window end {self.k_max} and no right limit declared"
            )
        return self.right_limit

    def span(self, k_lo: int, k_hi: int) -> np.ndarray:
        """alpha_k for k_lo <= k < k_hi as one (k_hi - k_lo, m) array: the
        window's values, padded with the limits; equal to stacking value(k),
        and raising for the same first uncovered k."""
        n_left = max(0, min(k_hi, self.k_min) - k_lo)
        first_right = max(k_lo, self.k_max + 1)
        n_right = max(0, k_hi - first_right)
        parts = [np.broadcast_to(self.value(k_lo), (n_left, self.dim))] if n_left else []
        parts.append(self.values[max(k_lo, self.k_min) - self.k_min : max(0, min(k_hi, first_right) - self.k_min)])
        if n_right:
            parts.append(np.broadcast_to(self.value(first_right), (n_right, self.dim)))
        return np.concatenate(parts)


def build_orbit(
    scalar_map: ScalarMap,
    kind: str,
    seed: float,
    backward_branch: str | None = None,
    k_min: int = -40,
    k_max: int = 40,
    edge_gap: float = 1e-8,
) -> DriverOrbit:
    """Construct a scalar orbit window through seed at k = 0.

    kind "fixed" requires seed to be a fixed point and fills the window
    with it. Kinds "homoclinic" and "heteroclinic" iterate F forward and
    the chosen inverse branch backward; the backward window is widened
    automatically (down to k = -200) until the gap to the backward limit
    is <= edge_gap. Forward iterates landing within 1e-13 of a fixed
    point are pinned there.
    """
    mu = scalar_map.mu
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

    # forward sweep with fixed-point pinning
    fps = _fixed_points(mu)
    fwd = [seed]
    pinned: float | None = None
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
        # accept a slow approach if the tail already sits within edge_gap
        # of some fixed point
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

    # backward sweep, extended 20 intervals at a time until the edge gap
    # target is met
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
    _check_consistency(scalar_map, orbit)
    return orbit


def _check_consistency(scalar_map: ScalarMap, orbit: DriverOrbit) -> None:
    vals = orbit.values[:, 0]
    stepped = scalar_map.mu * vals[:-1] * (1.0 - vals[:-1])
    worst = float(np.max(np.abs(stepped - vals[1:]))) if len(vals) > 1 else 0.0
    if worst > CONSISTENCY_TOL:
        raise NoConvergenceError(
            f"orbit consistency violated: max |alpha_(k+1) - F(alpha_k)| = {worst:.3g}"
        )


def pair_orbits(first: DriverOrbit, second: DriverOrbit) -> DriverOrbit:
    """Stack two scalar orbits into one planar orbit on the shared window."""
    if (first.k_min, first.k_max) != (second.k_min, second.k_max):
        raise RangeMismatchError(
            f"window mismatch: [{first.k_min}, {first.k_max}] vs "
            f"[{second.k_min}, {second.k_max}]"
        )
    if first.dim != 1 or second.dim != 1:
        raise RangeMismatchError("pair_orbits expects scalar orbits")

    def _stack(a, b):
        if a is None or b is None:
            return None
        return np.concatenate([a, b])

    mus = None
    if first.mus is not None and second.mus is not None:
        mus = first.mus + second.mus
    return DriverOrbit(
        k_min=first.k_min,
        k_max=first.k_max,
        values=np.hstack([first.values, second.values]),
        left_limit=_stack(first.left_limit, second.left_limit),
        right_limit=_stack(first.right_limit, second.right_limit),
        edge_gap=max(first.edge_gap, second.edge_gap),
        mus=mus,
    )


def _sequence_gaps(orbit: DriverOrbit, target: DriverOrbit, window: int) -> np.ndarray:
    """||alpha_k - target_k|| for -window <= k <= window; either orbit may
    have any window, and is extended by its limits where needed."""
    return _row_norms(orbit.span(-window, window + 1) - target.span(-window, window + 1))
