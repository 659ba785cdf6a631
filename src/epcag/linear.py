"""Matrix exponentials and exponential decay envelopes for Hurwitz matrices.

A decay envelope is a certified pair (n_const, rate) with

    ||exp(A t)|| <= n_const * exp(-rate * t)   for t >= 0,

in the spectral norm, n_const >= 1, rate > 0. Envelopes are either
estimated here by dense sampling or supplied by the caller from an
analytic bound, and in both cases can be re-validated on a fresh grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EnvelopeRequiredError,
    HorizonTooShortError,
    NonFiniteError,
    NotHurwitzError,
    OutOfRangeError,
    OverflowRiskError,
)

# largest matrix order for eigenvalue-based abscissa checks; beyond this the
# caller must supply an envelope
ABSCISSA_MAX_DIM = 8

# mu(A t) beyond this risks overflow: ||exp(A t)|| <= exp(mu(A t))
OVERFLOW_NORM_LIMIT = 700.0

# largest m n k of one matrix product in _serial_matmul: OpenBLAS runs larger
# products on all its threads (SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD)
SERIAL_MATMUL_MNK = 1 << 18

# points of estimate_decay_envelope's scan over [0, 12 / |abscissa|]
ENVELOPE_SAMPLES = 4001


def _as_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix has non-finite entries")
    return m


# the degree-13 diagonal Pade approximant r_13 = q_13(A)^-1 p_13(A) for
# scaling and squaring: coefficients b_0..b_13 of p_13 (q_13 flips the odd
# signs), divided by b_0 so that r_13(0) is I exactly, and theta_13, the
# largest ||A||_1 at which r_13 meets double precision (Higham 2005, "The
# scaling and squaring method for the matrix exponential revisited", SIAM
# J. Matrix Anal. Appl. 26(4), Table 2.3)
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0
_THETA13 = 5.371920351148152


def _expm(x: np.ndarray) -> np.ndarray:
    """exp of each matrix of an (n, m, m) stack by scaling and squaring.

    Each matrix is scaled by 2^-s into ||.||_1 <= theta_13 (s = 0 when it
    is already inside), given r_13 and squared s times. Each matrix takes
    the same operations as it would alone, so a stack equals its
    per-element calls bit for bit.
    """
    norms = np.abs(x).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0))).astype(int)
    a = np.ldexp(x, -squarings[:, None, None])
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(x.shape[-1])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    out = np.linalg.solve(v - u, v + u)
    if not squarings.any():
        return out
    # the matrices in order of squaring count, most first (stable), so
    # that each squaring takes a leading slice; scattered back once
    order = np.argsort(-squarings, kind="stable")
    counts, sq = squarings[order], out[order]
    for k in range(int(counts[0])):
        lead = sq[: np.count_nonzero(counts > k)]
        lead[...] = lead @ lead
    out[order] = sq
    return out


def mat_exp(a, t=1.0) -> np.ndarray:
    """Return exp(A t), or the (len(t), m, m) stack of them for a 1-D t.

    Parameters
    ----------
    a : (m, m) array_like
        Real square matrix.
    t : float or 1-D array_like
        Time(s), any sign.

    Notes
    -----
    Scaling and squaring with the degree-13 diagonal Pade approximant
    (Higham 2005), on numpy's broadcasting matmul and solve; each element
    of a stack equals its own scalar call bit for bit, and exp(A 0) is I
    exactly.
    Inputs whose logarithmic norm mu(A t) exceeds 700 are rejected
    outright: ||e^{At}|| <= e^{mu(At)} would overflow. The logarithmic
    norm, not ||A t||, is the right guard; a stiff Hurwitz matrix like
    [[-1, 100], [0, -1]] has a huge norm but a harmless exponential.
    An A t whose 1-norm overflows is refused too, as the scaling needs
    it. Within both guards ||e^{At}|| <= e^700, so the result is finite.
    Every guard applies to every element of a stack.
    """
    m = _as_square(a)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DimensionMismatchError(
            f"expected a scalar or 1-D array of times, got shape {ts.shape}"
        )
    flat = ts.reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise NonFiniteError(f"non-finite time {float(flat[~np.isfinite(flat)][0])!r}")
    # mu(A t) is t times the largest eigenvalue of (A + A^T)/2 for t >= 0
    # and t times the smallest for t < 0; halving first keeps the sum
    # finite, as an overflowed one gives nan eigenvalues, which pass the
    # guard below
    sym = np.linalg.eigvalsh(m / 2.0 + m.T / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        log_norms = np.maximum(flat * sym[0], flat * sym[-1])
        at = flat[:, None, None] * m
        # _expm scales A t by its 1-norm, so that must be finite too
        norms = np.abs(at).sum(axis=-2)
    if np.any(log_norms > OVERFLOW_NORM_LIMIT):
        i = int(np.argmax(log_norms))
        raise OverflowRiskError(
            f"mu(A t) = {log_norms[i]:.3g} at t = {flat[i]:.6g} exceeds the overflow guard "
            f"{OVERFLOW_NORM_LIMIT}"
        )
    if not np.all(np.isfinite(norms)):
        raise NonFiniteError("A t overflowed")
    out = _expm(at)
    return out[0] if ts.ndim == 0 else out


def _serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D a and b, in row chunks whose m n k stays at most
    SERIAL_MATMUL_MNK, below OpenBLAS's threshold for threading a product.
    A threaded product leaves its helper thread spinning, and on two CPUs
    that halved the speed of the small products that followed (burn-in
    after a Picard solve ran 1.8 times slower). It lives here, below the
    solver, so that the envelope scan's block product and the solver's
    convolution share it."""
    rows = max(1, SERIAL_MATMUL_MNK // b.size)
    if a.shape[0] <= rows:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], rows):
        np.matmul(a[i : i + rows], b, out=out[i : i + rows])
    return out


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of v, summed column by column.
    np.linalg.norm(v, axis=-1) takes a slow path over a short last axis
    (177 us against 23 us on 8001 rows of 2, 2 CPUs); below 8 columns its
    sum runs in column order too, so the two agree bit for bit."""
    sq = v[..., 0] * v[..., 0]
    for j in range(1, v.shape[-1]):
        sq += v[..., j] * v[..., j]
    return np.sqrt(sq)


def spectral_abscissa(a) -> float:
    """Largest real part among the eigenvalues of A (order <= 8 only)."""
    m = _as_square(a)
    if m.shape[0] > ABSCISSA_MAX_DIM:
        raise EnvelopeRequiredError(
            f"order {m.shape[0]} > {ABSCISSA_MAX_DIM}: supply an envelope instead "
            "of relying on eigenvalue estimation"
        )
    return float(np.max(np.real(np.linalg.eigvals(m))))


@dataclass(frozen=True)
class DecayEnvelope:
    """Certified bound ||exp(A t)|| <= n_const * exp(-rate t), t >= 0."""

    n_const: float
    rate: float
    validated_horizon: float

    def __post_init__(self):
        if not (self.n_const >= 1.0):
            raise ValueError(f"n_const must be >= 1, got {self.n_const}")
        if not (self.rate > 0.0):
            raise ValueError(f"rate must be positive, got {self.rate}")

    def bound(self, t):
        """Envelope value n_const * exp(-rate t)."""
        return self.n_const * np.exp(-self.rate * np.asarray(t))


@dataclass(frozen=True)
class EnvelopeValidation:
    passed: bool
    max_ratio: float
    t_at_max: float


def sample_norm_curve(a, horizon: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectral norms of exp(A t) on a uniform grid of `count` points over [0, horizon].

    With step h and block length B = isqrt(count - 1) + 1 (64 for the
    4001 and 4002 points of estimation and validation), sample j is the
    product exp(A (j mod B) h) exp(A t_{B floor(j / B)}). One stacked
    mat_exp call gives the B in-block powers and the ceil(count / B)
    anchors, about 2 sqrt(count) exponentials, and one 2-D product of
    the stacked anchors with the side-by-side powers gives every sample,
    so rounding never accumulates along the scan. The product is laid
    out (column, anchor, power, row), so the samples in time order are
    a strided view of it, never copied. For a 2x2 matrix the
    norms come from the closed form in `_spectral_norms`, which needs no
    SVD; larger orders take a batched SVD.
    """
    m = _as_square(a)
    if count < 2:
        raise ValueError("need at least 2 samples")
    ts = np.linspace(0.0, horizon, count)
    dim = m.shape[0]
    block = math.isqrt(count - 1) + 1
    exps = mat_exp(m, np.concatenate([(ts[1] - ts[0]) * np.arange(block), ts[::block]]))
    inblock, anchors = exps[:block], exps[block:]
    n_anchor = len(anchors)
    # row (j, q) of the product holds column j of exp(A r h) exp(A t_{Bq})
    # for every power r side by side; each entry sums exp(A r h)[i, k]
    # exp(A t_{Bq})[k, j] over k in order, as the product of the two does
    stacked = anchors.transpose(2, 0, 1).reshape(dim * n_anchor, dim)
    side = inblock.transpose(2, 0, 1).reshape(dim, block * dim)
    prod = _serial_matmul(stacked, side)
    mats = prod.reshape(dim, n_anchor * block, dim).transpose(1, 2, 0)[:count]
    return ts, _spectral_norms(mats)


def _spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (..., m, m) stack.

    For m = 2, [[a, b], [c, d]] has sigma_1 = (hypot(a + d, c - b) +
    hypot(a - d, b + c)) / 2 (Blinn 1996, "Consider the lowly 2x2
    matrix"): no cancellation, unlike sqrt((F^2 + sqrt(F^4 - 4 det^2))/2),
    which loses half the digits near sigma_1 = sigma_2.
    """
    if mats.shape[-1] != 2:
        return np.linalg.svd(mats, compute_uv=False)[..., 0]
    a, b, c, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    return 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))


def _scaled_norms(ts: np.ndarray, norms: np.ndarray, rate: float) -> np.ndarray:
    """||exp(A t)|| exp(rate t) at the samples of a norm scan.

    The product is formed directly, and in log space where exp(rate t)
    overflows. A norm below the smallest normal double has lost relative
    digits to underflow (0 or a subnormal, whose ratio can read well off
    the true one), so a scan that reaches one is refused, naming the
    horizon that keeps every sample normal.
    """
    low = np.flatnonzero(norms < np.finfo(float).tiny)
    if len(low):
        i = int(low[0])
        raise OutOfRangeError(
            f"||exp(A t)|| = {norms[i]:.3g} at t = {ts[i]:.6g} is below the smallest normal "
            f"double; scan to a horizon of at most {ts[i - 1]:.6g} instead of {ts[-1]:.6g}"
        )
    with np.errstate(over="ignore"):
        growth = np.exp(rate * ts)
    out = norms * growth
    big = np.isinf(growth)
    out[big] = np.exp(np.log(norms[big]) + rate * ts[big])
    return out


def estimate_decay_envelope(a, rate_margin: float = 0.02) -> DecayEnvelope:
    """Estimate a decay envelope for a Hurwitz matrix by dense sampling.

    The rate is set to (1 - rate_margin) * |spectral abscissa| and the
    constant to the sampled supremum of ||exp(A t)|| exp(rate t) over
    ENVELOPE_SAMPLES points of [0, 12 / |abscissa|], the validated
    horizon, rounded up to the next 0.01 and floored at 1.
    ||exp(A t)|| is at least exp(abscissa t) >= exp(-12) there, so no
    sampled norm underflows.

    Parameters
    ----------
    a : (m, m) array_like, m <= 8
    rate_margin : float in [0, 1)
        Fraction of the abscissa given up to keep the supremum finite
        and stable. rate_margin = 0 is allowed and appropriate for
        semisimple spectra; with a defective leading eigenvalue the
        sampled constant then grows with the horizon.
    """
    m = _as_square(a)
    if not (0.0 <= rate_margin < 1.0):
        raise ValueError(f"rate_margin must lie in [0, 1), got {rate_margin}")
    sigma = spectral_abscissa(m)
    if sigma >= 0.0:
        raise NotHurwitzError(f"spectral abscissa {sigma:.6g} is not negative")
    horizon = 12.0 / abs(sigma)
    rate = (1.0 - rate_margin) * abs(sigma)
    ts, norms = sample_norm_curve(m, horizon, ENVELOPE_SAMPLES)
    sup = float(np.max(_scaled_norms(ts, norms, rate)))
    n_const = max(1.0, math.ceil(sup * 100.0) / 100.0)
    return DecayEnvelope(n_const=n_const, rate=rate, validated_horizon=horizon)


def validate_envelope(
    a,
    envelope: DecayEnvelope,
    grid_step: float,
    slack: float = 1e-2,
) -> EnvelopeValidation:
    """Check ||exp(A t)|| <= envelope on a fresh uniform grid.

    Samples [0, validated_horizon] at `grid_step` and reports the largest
    ratio ||exp(A t)|| exp(rate t) / n_const. Passes iff that ratio is
    <= 1 + slack. Use slack ~1e-2 for estimated envelopes (their constant
    was rounded from a coarser grid) and ~1e-9 for analytic ones. Raises
    OutOfRangeError when a sampled norm falls below the smallest normal
    double, naming the horizon that avoids it.
    """
    m = _as_square(a)
    if grid_step <= 0.0 or not math.isfinite(grid_step):
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    if m.shape[0] <= ABSCISSA_MAX_DIM:
        sigma = spectral_abscissa(m)
        if sigma >= 0.0:
            raise NotHurwitzError(f"spectral abscissa {sigma:.6g} is not negative")
        if envelope.validated_horizon < 10.0 / abs(sigma):
            raise HorizonTooShortError(
                f"envelope horizon {envelope.validated_horizon:.6g} < 10/|abscissa| "
                f"= {10.0 / abs(sigma):.6g}"
            )
    count = int(math.floor(envelope.validated_horizon / grid_step)) + 1
    ts, norms = sample_norm_curve(m, envelope.validated_horizon, count)
    ratios = _scaled_norms(ts, norms, envelope.rate) / envelope.n_const
    idx = int(np.argmax(ratios))
    max_ratio = float(ratios[idx])
    return EnvelopeValidation(
        passed=max_ratio <= 1.0 + slack,
        max_ratio=max_ratio,
        t_at_max=float(ts[idx]),
    )
