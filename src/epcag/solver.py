"""Bounded-solution solvers for the assembled system.

Two routes to the unique bounded solution:

picard
    Iterates the integral operator

        (Pi psi)(t) = int_{t_lo}^{t} exp(A(t-s)) [f(s, psi(s), psi(gamma(s))) + g(s, alpha)] ds

    on a uniform grid, truncated `pad` intervals before the requested
    window. The convolution obeys I_{j+1} = exp(A h) I_j + q_j substep
    by substep, with q_j from exponentially weighted interpolatory
    4-point quadrature (weights precomputed once per matrix/step pair in
    closed form, from the phi-functions of A h), which is
    grid-restricted, respects the interval kinks, and is 4th order like
    a composite Simpson rule, but needs no off-grid midpoints. The
    recurrence is evaluated as a blocked scan (Blelloch 1990) from
    forward powers exp(A j h) only, never the growing backward factors
    exp(-A tau): one matrix product of every block of up to
    CONVOLVE_BLOCK substeps with a block kernel, edge stencils, carries
    between blocks, a doubling scan over exp(A omega)^(2^s) for the node
    values, and one product adding exp(A j h) times them, each product
    in row chunks that BLAS runs on one thread. The scan's powers are
    kept per context, built only as far as the longest scan has reached,
    as later ones underflow to slow subnormals. Successive iterates
    contract with factor at most kappa_pi; iteration stops when they differ by at most
    1e-10 min(1, (1 - kappa_pi) / kappa_pi) in the sup norm, which
    bounds the iteration error kappa_pi / (1 - kappa_pi) delta by 1e-10.
    The sweeps run as nested iteration over the grids m, m/4, m/16, ...
    of at least MIN_SUBSTEPS substeps each, coarsest first and from zero
    (full multigrid's cascade, Brandt 1977). A coarse grid of m_l
    substeps stops at that stop times (m/m_l)^4: its 4th-order solution
    is that much less accurate, so sweeping it further buys nothing. It
    hands the next grid the convolution of its last sweep's integrand,
    refined by interval-local quintic interpolation through the six
    nearest grid points, which is one more sweep for the price of a
    convolution and no contract call. That interpolation errs like h^6,
    an order beyond the discretisation's h^4, so the hand-over adds
    little to the coarse grid's own error, as full multigrid asks. The
    requested grid keeps the stop rule and fixed point of a start from
    zero; the coarse sweeps cost a quarter, a sixteenth, ... as much.

burn_in
    Marches from zero initial data `pad` intervals early and discards
    the transient: an exponential integrator in collocation form (Cox &
    Matthews 2002; Hochbruck & Ostermann 2010). It sweeps a sliding
    window of up to BURN_IN_WINDOW unfinished intervals [k, k + n) whose
    start value z(theta_k) is final, as windowed waveform relaxation
    does (Lelarasmee, Ruehli & Sangiovanni-Vincentelli 1982). A sweep is
    Picard's convolution above from theta_k with z(theta_k) as its first
    node value, so the node scan carries exp(A (t - theta_k)) z(theta_k)
    along and no table of free responses is needed. After each sweep the
    leading intervals whose own delta is at most INNER_DEFAULT_TOL are
    final, z(theta_k) moves to the end of the last of them, and the
    window is topped up with intervals each started from the one before
    it moved onto its own start, last + exp(A j h) (last[-1] - last[0]).
    Neighbouring intervals see similar forcing, so this start saves
    sweeps and leaves the fixed point where it was; one sweep of eight
    intervals costs little more than one of one. The first window
    starts from zero. The linear part is exact, so no substep count is
    unstable. Both methods solve the same discrete equations and differ
    in the order of their sweeps and in their stops, so comparing them
    checks the iteration and the truncation, not the quadrature.

One loop, _iterate, runs every fixed-point iteration: each Picard grid
level, burn-in, and step_interval. It sweeps, refuses non-finite deltas
and stops at the sweep cap, naming the interval; its callers differ
only in when a converged interval retires. Picard retires the whole
grid once every interval has met its stop. Burn-in is the loop's
windowed use: it retires the leading intervals that met the stop and
moves the window on. step_interval is a window of one interval started
from a given value, where the two rules agree.

Both methods return a SampledTrajectory: the schedule, node window and
substep count that fix its grid, the samples on it, and one frozen
argument per interval. Both report their truncation/transient bound
(_tail_bound) in the trajectory meta and refuse pads whose bound
exceeds the requested tolerance. Every solve checks its samples
against the a-priori bound M_phi plus that bound, which the bounded
solution meets, and raises InnerDivergenceError above it: a contract
that breaks its declared bound, or an iteration gone wrong.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    InnerDivergenceError,
    OutOfRangeError,
    PadTooSmallError,
)
from .linear import mat_exp
from .nonlinearity import eval_many
from .schedule import Schedule
from .system import (
    EpcagSystem,
    _kappa_pi,
    _require_a4,
    _solution_bound,
    map_supremum,
    solution_bound,
)

METHODS = ("picard", "burn_in")
PICARD_STOP = 1e-10
# fewest sweeps Picard may take; _picard_cap raises it near the (A4) limit
PICARD_MAX_ITERS = 80
INNER_DEFAULT_TOL = 1e-12
INNER_MAX_ITERS = 100
# most unfinished intervals burn-in sweeps together
BURN_IN_WINDOW = 8
# fewest substeps per interval: five grid points hold the 5-point
# residual stencil, and the 4-point quadrature stencils fit inside it
MIN_SUBSTEPS = 4


def _too_few_substeps(substeps: int) -> str:
    return f"need at least {MIN_SUBSTEPS} substeps per interval, got {substeps}"


@dataclass(frozen=True, eq=False)
class SampledTrajectory:
    """A solution sampled on the node window k_window = (k_lo, k_hi) of a
    schedule, at `substeps` substeps per interval. samples holds
    substeps (k_hi - k_lo) + 1 rows at t0 + j step, from t0 = theta_{k_lo}
    to t1 = theta_{k_hi}; frozen holds the frozen arguments
    w_k = z(zeta_k), row i for interval k_lo + i. These fields are the
    one record of the grid, and construction refuses arrays that do not
    fill it with GridMismatchError; meta carries only solver diagnostics."""

    schedule: Schedule
    k_window: tuple[int, int]
    substeps: int
    samples: np.ndarray
    frozen: np.ndarray
    meta: dict

    def __post_init__(self):
        k_lo, k_hi = self.k_window
        if self.substeps < MIN_SUBSTEPS:
            raise GridMismatchError(_too_few_substeps(self.substeps))
        if not k_lo < k_hi:
            raise GridMismatchError(f"node window {self.k_window!r} holds no interval")
        n_int = k_hi - k_lo
        if len(self.samples) != n_int * self.substeps + 1 or len(self.frozen) != n_int:
            raise GridMismatchError(
                f"{len(self.samples)} samples and {len(self.frozen)} frozen arguments do not fill "
                f"{n_int} intervals of {self.substeps} substeps"
            )

    @property
    def t0(self) -> float:
        return self.schedule.node(self.k_window[0])

    @property
    def t1(self) -> float:
        return self.schedule.node(self.k_window[1])

    @property
    def step(self) -> float:
        return self.schedule.omega / self.substeps

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(len(self.samples))


# rates mu the tail bound is minimised over, evenly spaced in (0, the
# largest at which q(mu) < 1 is possible)
TAIL_RATES = 1024


def _tail_rates(envelope, f, m_phi: float, omega: float, zeta_fraction: float):
    """Rates mu on a grid in (0, lambda) with q(mu) = N (L1 + L2 e^{mu (1-c)
    omega}) / (lambda - mu) below 1, c the zeta fraction, and the
    prefactors N M_phi / (1 - q(mu)) of their tail bounds. Requires (A4).

    Both solvers return the solution of the initial-value problem that
    starts from zero at the truncated grid start t0. Its difference e to
    the bounded solution has |e(t0)| <= M_phi, and the frozen argument
    lags the state by up to (1-c) omega, so in the weighted norm
    sup |e(t)| e^{mu (t - t0)} variation of constants gives
    |e(t)| <= N M_phi / (1 - q(mu)) e^{-mu (t - t0)}. q(mu) < 1 needs mu
    below the contraction margin lambda - N (L1 + L2), and
    N L2 e^{mu (1-c) omega} below lambda; the grid spans up to both.
    """
    lam, n = envelope.rate, envelope.n_const
    top = _require_a4(envelope, f)
    lag = (1.0 - zeta_fraction) * omega
    if f.lip_y and lag:
        top = min(top, math.log(lam / (n * f.lip_y)) / lag)
    mu = top * np.arange(1, TAIL_RATES) / TAIL_RATES
    # with L2 = 0 the lag term is 0, and its exponential may overflow
    lagged = f.lip_y * np.exp(mu * lag) if f.lip_y else 0.0
    q = n * (f.lip_x + lagged) / (lam - mu)
    ok = q < 1.0
    return mu[ok], n * m_phi / (1.0 - q[ok])


def _tail_bound(sys: EpcagSystem, pad: int) -> float:
    """Bound on what starting from zero `pad` intervals early leaves in
    the window: the least N M_phi / (1 - q(mu)) e^{-mu pad omega} over
    the rates of _tail_rates."""
    omega = sys.schedule.omega
    mu, pre = _tail_rates(sys.envelope, sys.f, solution_bound(sys), omega, sys.schedule.zeta_fraction)
    return float(np.min(pre * np.exp(-mu * pad * omega)))


def _lead_in_pad(envelope, f, map_sup: float, omega: float, zeta_fraction: float, tol: float) -> int:
    """Fewest intervals of lead-in whose tail bound is at most tol, from
    the parts of a system; driver coverage is sized with it before the
    system exists. Requires (A4)."""
    mu, pre = _tail_rates(envelope, f, _solution_bound(envelope, f, map_sup), omega, zeta_fraction)
    return max(1, math.ceil(float(np.min(np.log(pre / tol) / (mu * omega)))))


def _coverage_range(window: int, pad: int) -> tuple[int, int]:
    """(k_min, k_max) of driver coverage for a solve on [-window, window]
    with `pad` intervals of lead-in, plus two intervals of headroom."""
    return -(window + pad + 2), window + 2


def default_pad(sys: EpcagSystem, tol: float) -> int:
    """Fewest intervals of lead-in whose tail bound is at most tol."""
    sched = sys.schedule
    return _lead_in_pad(sys.envelope, sys.f, map_supremum(sys.driver), sched.omega, sched.zeta_fraction, tol)


# ---------------------------------------------------------------------------
# stepping context: exponential powers and quadrature weights per
# (matrix, omega, substeps)

# contexts kept for the most recent (matrix, omega, substeps) keys
CONTEXT_CACHE_SIZE = 8
# most substeps per block of _convolve's block kernel
CONVOLVE_BLOCK = 16
# largest m n k of one matrix product in _convolve: OpenBLAS runs larger
# products on all its threads (SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD)
SERIAL_MATMUL_MNK = 1 << 18


class _Context:
    """Forward powers e_pows[j] = exp(A j h), j = 0..m, the three 4-point
    stencil weight sets, the block tables _convolve applies them with, and
    the node scan's powers scan[s] = (exp(A omega)^(2^s)).T, which
    _convolve extends as far as its longest scan needs."""

    def __init__(self, a: np.ndarray, omega: float, substeps: int):
        if substeps < MIN_SUBSTEPS:
            raise OutOfRangeError(_too_few_substeps(substeps))
        h = omega / substeps
        self.m_sub = m = substeps
        dim = a.shape[0]

        # the exponential of [[hA, I, 0, 0, 0], [0, 0, I, 0, 0], ..., [0, 0,
        # 0, 0, 0]] has the top block row [exp(hA), phi_1, .., phi_4](hA)
        # (Saad 1992); moments[k] = int_0^h exp(A(h-tau)) (tau/h)^k dtau
        # = h k! phi_{k+1}(hA)
        aug = np.eye(5 * dim, k=dim)
        aug[:dim, :dim] = h * a
        top = mat_exp(aug)[:dim].reshape(dim, 5, dim).transpose(1, 0, 2)
        self.e_h = top[0]
        moments = h * np.array([1.0, 1.0, 2.0, 6.0])[:, None, None] * top[1:]
        self.e_pows = pows = np.empty((m + 1, dim, dim))
        pows[0] = np.eye(dim)
        for j in range(m):
            pows[j + 1] = self.e_h @ pows[j]

        # interpolatory weights W_r = int_0^h exp(A(h-tau)) l_r(tau) dtau for
        # the cubic through the stencil nodes (offsets in substeps): with V
        # the Vandermonde matrix of the offsets, l_r(tau) = sum_k
        # (V^-1)_{kr} (tau/h)^k, so W_r = sum_k (V^-1)_{kr} moments[k]
        offsets = np.array([[-1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], [-2.0, -1.0, 0.0, 1.0]])
        inv = np.linalg.inv(offsets[..., None] ** np.arange(4))
        wi, wl, wr = np.einsum("skr,kab->srab", inv, moments)
        self.w_interior, self.w_left, self.w_right = wi, wl, wr

        # substeps 1..m-1 in nb blocks of b; block i reads grid points
        # i b .. i b + b + 2 (clipped to m), and the kernel maps each of
        # them to I_1..I_b of the recurrence run from zero over the block
        self.n_blocks = nb = -(-(m - 1) // CONVOLVE_BLOCK)
        self.block = b = -(-(m - 1) // nb)
        self.windows = b * np.arange(nb)[:, None] + np.arange(b + 3)
        kernel = np.zeros((b + 1, b + 3, dim, dim))
        for t in range(b):
            kernel[t + 1] = self.e_h @ kernel[t]
            kernel[t + 1, t : t + 4] += wi
        self.kernel = kernel[1:].transpose(1, 3, 0, 2).reshape((b + 3) * dim, b * dim)
        # carries[i, j] = E^{(j - i) b} takes [I_1, block ends] to block starts
        lag = np.arange(nb) - np.arange(nb)[:, None]
        carries = np.where(lag[..., None, None] >= 0, pows[b * np.maximum(lag, 0)], 0.0)
        self.carries = carries.transpose(0, 3, 1, 2).reshape(nb * dim, nb * dim)
        # v @ e_rows[:, j dim : (j + 1) dim] = E^j v
        self.e_rows = np.ascontiguousarray(pows.transpose(2, 0, 1)).reshape(dim, -1)
        # substep 0 takes the left stencil; substep m-1 the right one, less
        # the interior one the kernel gave it (reading point m for m + 1)
        fix = wr - np.stack([0 * wi[0], wi[0], wi[1], wi[2] + wi[3]])
        self.edges = [w.transpose(0, 2, 1).reshape(4 * dim, dim) for w in (wl, fix)]
        self.scan = (pows[m].T,)


@functools.lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _cached_context(a_bytes: bytes, dim: int, omega: float, substeps: int) -> _Context:
    return _Context(np.frombuffer(a_bytes).reshape(dim, dim), omega, substeps)


def _context(sys: EpcagSystem, substeps: int) -> _Context:
    a = np.ascontiguousarray(sys.a, dtype=float)
    return _cached_context(a.tobytes(), a.shape[0], sys.schedule.omega, substeps)


def _lagrange_stencils(pos, m_sub: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Start indices and Lagrange weights reading a function off grid
    points 0..m_sub of one interval at positions pos (in substeps): the
    `points` grid points nearest each position, kept inside the interval.
    Picard reads the frozen argument psi(zeta) with four of them, and
    _refine hands over with six."""
    pos = np.asarray(pos, dtype=float)
    j0 = np.clip(np.floor(pos) - (points // 2 - 1), 0, m_sub + 1 - points).astype(int)
    rel = pos - j0
    lw = np.ones(pos.shape + (points,))
    for r in range(points):
        for s in range(points):
            if s != r:
                lw[..., r] *= (rel - s) / (r - s)
    return j0, lw


@functools.lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _zeta_stencil(zeta_fraction: float, m_sub: int) -> tuple[int, np.ndarray]:
    """The cubic (4-point) _lagrange_stencils at the zeta point,
    zeta_fraction * m_sub, of an interval of m_sub substeps; its weights
    are read-only, as every caller shares them."""
    j0, lw = _lagrange_stencils(zeta_fraction * m_sub, m_sub, 4)
    lw.flags.writeable = False
    return int(j0), lw


@functools.lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _refine_matrix(m: int, m_sub: int) -> np.ndarray:
    """The (m_sub+1, m+1) matrix of _refine, read-only, as every caller
    shares it."""
    points = min(6, m + 1)
    j0, lw = _lagrange_stencils(np.arange(m_sub + 1) * m / m_sub, m, points)
    interp = np.zeros((m_sub + 1, m + 1))
    interp[np.arange(m_sub + 1)[:, None], j0[:, None] + np.arange(points)] = lw
    interp.flags.writeable = False
    return interp


def _refine(psi: np.ndarray, m_sub: int) -> np.ndarray:
    """Interval-local quintic interpolation of psi (n_int, m+1, dim) onto
    m_sub substeps per interval, through the six grid points nearest each
    position (all five of a 4-substep grid); no stencil reaches across a
    node."""
    return _refine_matrix(psi.shape[1] - 1, m_sub) @ psi


def _serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D a and b, in row chunks whose m n k stays at most
    SERIAL_MATMUL_MNK, below OpenBLAS's threshold for threading a product.
    A threaded product leaves its helper thread spinning, and on two CPUs
    that halved the speed of the small products that followed (burn-in
    after a Picard solve ran 1.8 times slower)."""
    rows = max(1, SERIAL_MATMUL_MNK // b.size)
    if a.shape[0] <= rows:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], rows):
        np.matmul(a[i : i + rows], b, out=out[i : i + rows])
    return out


def _convolve(ctx: _Context, hv: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Cumulative convolution I(t) = int_{grid start}^t exp(A(t-s)) hv(s) ds,
    plus exp(A(t - grid start)) start if a start value (dim,) is given.

    hv has shape (n_int, m_sub+1, dim) with interval-local endpoint
    values (the integrand jumps at nodes). Returns I on the same grid;
    node values are shared between intervals, so I is continuous.

    Solves I_{j+1} = E I_j + q_j, with E = exp(A h) and q_j the stencil
    integral over substep j, by forward powers of E only: one product of
    every block window with the block kernel, the edge stencils, the
    carries between blocks, the node values by a doubling scan over
    E_omega^(2^s) (Blelloch 1990) from the start value, and one product
    adding E^j times them.
    """
    n_int, m1, dim = hv.shape
    m, b, nb = ctx.m_sub, ctx.block, ctx.n_blocks
    flat = _serial_matmul(np.take(hv, ctx.windows, axis=1, mode="clip").reshape(n_int * nb, -1), ctx.kernel)
    flat = flat.reshape(n_int, nb * b, dim)  # grid points 2, 3, ...
    first = hv[:, :4].reshape(n_int, -1) @ ctx.edges[0]  # I_1
    flat[:, m - 2] += hv[:, m - 3 :].reshape(n_int, -1) @ ctx.edges[1]
    starts = np.concatenate([first[:, None], flat[:, b - 1 : (nb - 1) * b : b]], axis=1).reshape(n_int, -1)
    carry = _serial_matmul(starts, ctx.carries).reshape(-1, dim)
    flat += _serial_matmul(carry, ctx.e_rows[:, dim : (b + 1) * dim]).reshape(flat.shape)
    # node values: the start value, then the inclusive prefix of the
    # interval ends from it, doubled in log2 steps
    ends = flat[:, m - 2].copy()
    if start is not None:
        ends[0] += start @ ctx.scan[0]
    # powers are built on first need: later ones underflow to subnormals,
    # whose products are slow
    need, scan = (n_int - 1).bit_length(), ctx.scan
    while len(scan) < need:
        scan += (scan[-1] @ scan[-1],)
    ctx.scan = scan
    for s, power in enumerate(scan[:need]):
        ends[1 << s :] += ends[: -(1 << s)] @ power
    nodes = np.concatenate([np.zeros((1, dim)) if start is None else start[None], ends[:-1]])
    out = _serial_matmul(nodes, ctx.e_rows).reshape(n_int, m1, dim)
    out[:, 1] += first
    out[:, 2:] += flat[:, : m - 1]
    return out


def _picard_stop(sys: EpcagSystem) -> float:
    """Stop for the requested grid: PICARD_STOP times min(1, (1 - kappa_pi)
    / kappa_pi). Successive iterates delta apart leave an iteration error
    of at most kappa_pi / (1 - kappa_pi) delta (the contraction mapping
    theorem's a-posteriori bound), so at most PICARD_STOP at this stop
    whatever kappa_pi is; kappa_pi <= 1/2 keeps PICARD_STOP itself."""
    kappa = _kappa_pi(sys)
    return PICARD_STOP * (1.0 - kappa) / kappa if kappa > 0.5 else PICARD_STOP


def _picard_cap(sys: EpcagSystem) -> int:
    """Most Picard sweeps to run: twice the sweeps in which the contraction
    factor kappa_pi shrinks a delta to _picard_stop, and never fewer than
    PICARD_MAX_ITERS. Near the (A4) limit kappa_pi nears 1 and the cap
    grows without bound."""
    kappa = _kappa_pi(sys)
    if not 0.0 < kappa < 1.0:
        return PICARD_MAX_ITERS
    return max(PICARD_MAX_ITERS, math.ceil(2.0 * math.log(_picard_stop(sys)) / math.log(kappa)))


def _grid_times(sys: EpcagSystem, k0: int, n_int: int, m: int) -> np.ndarray:
    """Times of the grid points of intervals k0 .. k0 + n_int - 1 at m
    substeps, shape (n_int, m+1)."""
    omega = sys.schedule.omega
    starts = sys.schedule.origin + np.arange(k0, k0 + n_int) * omega
    return starts[:, None] + (omega / m) * np.arange(m + 1)


def _sweep(sys: EpcagSystem, ctx: _Context, ts: np.ndarray, alpha: np.ndarray, psi: np.ndarray,
           start: np.ndarray | None, hv: np.ndarray, d: np.ndarray):
    """One Picard sweep on the grid of psi (n_int, m+1, dim), whose
    intervals run at times ts (n_int, m+1) and carry driver values alpha
    (n_int, dim): the frozen arguments are read off psi, hv is filled
    with the integrand f + alpha, and the new iterate is its convolution
    from the start value `start` (zero if None). d is scratch of psi's
    shape. Returns the new iterate and each interval's sup-norm delta to
    psi."""
    n_int, m1, dim = psi.shape
    j0, lw = _zeta_stencil(sys.schedule.zeta_fraction, m1 - 1)
    w = np.einsum("r,ird->id", lw, psi[:, j0 : j0 + 4, :])
    fv = eval_many(sys.f, ts.reshape(-1), psi.reshape(-1, dim), w)
    np.add(fv.reshape(n_int, m1, dim), alpha[:, None, :], out=hv)
    new = _convolve(ctx, hv, start)
    np.subtract(new, psi, out=d)
    return new, np.sqrt(np.einsum("ijk,ijk->ij", d, d).max(axis=1))


def _iterate(sys: EpcagSystem, ctx: _Context, k0: int, ts: np.ndarray, alpha: np.ndarray, psi: np.ndarray,
             stop: float, cap: int, start: np.ndarray | None = None, sliding: bool = False):
    """Picard sweeps over intervals k0, k0 + 1, ... of the grid ts (n_all,
    m+1), which carry driver values alpha (n_all, dim), from the iterate
    psi on a window of the leading intervals and the start value `start`
    at its first node (zero if None). Each sweep is _sweep over the
    window. After it the intervals whose delta is at most stop retire:
    the leading ones if `sliding` (burn-in), else all of them once every
    one has (Picard), which needs a window of the whole grid. A sliding
    window then takes the end of the last retired interval as its start
    value and is topped up to its first size with intervals each started
    from the one before it moved onto its own start, last + exp(A j h)
    (last[-1] - last[0]). An interval unretired
    after cap sweeps, or a non-finite delta, raises InnerDivergenceError
    naming the interval. Returns the retired intervals (n_all, m+1, dim),
    each sweep's largest delta, each interval's sweep count and the
    integrand buffer hv = f + alpha, which holds the last sweep's
    integrand on the window it swept (the whole grid for Picard)."""
    (n_all, m1), size = ts.shape, len(psi)
    # only a sliding window retires part of the grid; allocating this
    # for Picard too cost 2-3% of a crosscheck op
    out = np.empty((n_all, m1, psi.shape[2])) if sliding else None
    sweeps = np.zeros(n_all, dtype=int)
    deltas: list[float] = []
    # one integrand and one difference array serve every sweep; fresh
    # ones each sweep would fault in new pages every time
    hv, d = np.empty_like(psi), np.empty_like(psi)
    # i0: the first interval in the window; first: the first not yet
    # within stop
    i0 = first = 0
    while i0 < n_all:
        if sweeps[first] >= cap:
            raise InnerDivergenceError(
                f"interval {k0 + first}: picard iteration did not reach {stop:g} in {cap} sweeps at {m1 - 1} substeps"
            )
        n = len(psi)
        new, per = _sweep(sys, ctx, ts[i0 : i0 + n], alpha[i0 : i0 + n], psi, start, hv[:n], d[:n])
        sweeps[i0 : i0 + n] += 1
        deltas.append(float(per.max()))
        if not math.isfinite(deltas[-1]):
            i = int(np.argmin(np.isfinite(per)))
            raise InnerDivergenceError(f"interval {k0 + i0 + i}: non-finite samples in picard sweep {sweeps[i0 + i]}")
        met = n if deltas[-1] <= stop else int(np.argmax(per > stop))
        first = i0 + met
        done = met if sliding or met == n else 0
        if not done:
            psi = new
            continue
        if done == n_all:
            # the whole grid at once, as Picard retires it: copying it
            # into out cost 4% of a Picard solve
            return new, deltas, sweeps, hv
        out[i0 : i0 + done] = new[:done]
        i0 += done
        psi, last = [new[done:]], new[-1]
        for _ in range(min(size, n_all - i0) - (n - done)):
            last = last + ((last[-1] - last[0]) @ ctx.e_rows).reshape(last.shape)
            psi.append(last[None])
        psi = np.concatenate(psi)
        start = new[done - 1, -1]
    return out, deltas, sweeps, hv


def _samples_and_frozen(sys: EpcagSystem, psi: np.ndarray, pad: int):
    """The samples of the grid psi (n_int, m+1, dim) from its interval pad
    on as one array, and the frozen arguments w_k read off them, one row
    per interval."""
    m, dim = psi.shape[1] - 1, psi.shape[2]
    j0, lw = _zeta_stencil(sys.schedule.zeta_fraction, m)
    frozen = np.einsum("r,ird->id", lw, psi[pad:, j0 : j0 + 4, :])
    samples = np.concatenate([psi[pad:, :m, :].reshape(-1, dim), psi[-1, m][None]])
    return samples, frozen


def _solve_picard(sys: EpcagSystem, k_lo: int, k_hi: int, pad: int, substeps: int):
    """Picard on [k_lo - pad, k_hi] by the cascade the module docstring
    describes, over grids of m, m/4, m/16, ... substeps (floored, each at
    least MIN_SUBSTEPS), coarsest first."""
    m, dim = substeps, sys.dim
    k0 = k_lo - pad
    n_int = k_hi - k0
    alpha = np.stack([sys.driver.value(k) for k in range(k0, k_hi)])
    grids = [m]
    while grids[-1] // 4 >= MIN_SUBSTEPS:
        grids.append(grids[-1] // 4)
    grids.reverse()
    levels = []
    base, cap = _picard_stop(sys), _picard_cap(sys)
    hv = None
    for m_l in grids:
        ctx = _context(sys, m_l)
        # each finer grid starts one sweep on, at the cost of a convolution
        psi = np.zeros((n_int, m_l + 1, dim)) if hv is None else _convolve(ctx, _refine(hv, m_l))
        stop = base * (m / m_l) ** 4
        psi, deltas, _, hv = _iterate(sys, ctx, k0, _grid_times(sys, k0, n_int, m_l), alpha, psi, stop, cap)
        levels.append((m_l, stop, tuple(deltas)))

    samples, frozen = _samples_and_frozen(sys, psi, pad)
    # one contract row per grid point per sweep, on every level
    rows = sum(len(d) * (m_l + 1) for m_l, _, d in levels)
    sweeps = {"iterations": len(deltas), "iterate_deltas": tuple(deltas),
              "levels": tuple(levels[:-1]), "f_evals": n_int * rows}
    return samples, frozen, sweeps


def step_interval(
    sys: EpcagSystem,
    k: int,
    z0,
    substeps: int = 200,
    tol: float = INNER_DEFAULT_TOL,
    max_inner: int = INNER_MAX_ITERS,
    guess=None,
):
    """Solve one interval [theta_k, theta_{k+1}] from z(theta_k) = z0.

    Picard sweeps on this interval alone: each sweep reads the frozen
    argument w_k = z(zeta_k) off the current iterate by the cubic
    stencil and sets z_j = exp(A j h) z0 + I_j, with I the convolution
    of f(t, z, w_k) + alpha_k that Picard uses. The sweeps start from
    `guess`, an array of shape (substeps+1, dim) on the substep grid,
    or from the free response exp(A j h) z0 if it is None; the start
    moves the sweep count, not the fixed point. The linear part is
    exact, so every substep count is stable. Stops when successive
    sweeps differ by at most tol in the sup norm, after at most
    max_inner sweeps (InnerDivergenceError otherwise, or on non-finite
    samples). Returns (samples on the substep grid, w_k read off them,
    sweep count). The a-priori bound check on the samples belongs to
    solve_bounded.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (sys.dim,):
        raise OutOfRangeError(f"z0 must have shape ({sys.dim},), got {z0.shape}")
    shape = (substeps + 1, sys.dim)
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != shape:
            raise OutOfRangeError(f"guess must have shape {shape}, got {guess.shape}")
    ctx = _context(sys, substeps)
    psi = (z0 @ ctx.e_rows if guess is None else guess).reshape((1,) + shape)
    alpha = sys.driver.value(k)[None]
    psi, _, sweeps, _ = _iterate(sys, ctx, k, _grid_times(sys, k, 1, substeps), alpha, psi, tol, max_inner, z0)
    j0, lw = _zeta_stencil(sys.schedule.zeta_fraction, substeps)
    return psi[0], lw @ psi[0, j0 : j0 + 4], int(sweeps[0])


def _solve_burn_in(sys: EpcagSystem, k_lo: int, k_hi: int, pad: int, substeps: int):
    """Burn-in on [k_lo - pad, k_hi] from zero, by the sliding window of
    up to BURN_IN_WINDOW intervals the module docstring describes. An
    interval still unfinished after _picard_cap sweeps in the window
    raises InnerDivergenceError; inner_iterations counts each interval's
    sweeps in the window, so f_evals is (substeps + 1) times their sum."""
    m, dim = substeps, sys.dim
    ctx = _context(sys, m)
    k0 = k_lo - pad
    n_all = k_hi - k0
    alpha = np.stack([sys.driver.value(k) for k in range(k0, k_hi)])
    psi = np.zeros((min(BURN_IN_WINDOW, n_all), m + 1, dim))
    out, _, sweeps, _ = _iterate(sys, ctx, k0, _grid_times(sys, k0, n_all, m), alpha, psi,
                                 INNER_DEFAULT_TOL, _picard_cap(sys), np.zeros(dim), sliding=True)
    samples, frozen = _samples_and_frozen(sys, out, pad)
    passes = {"iterations": int(sweeps.max()), "inner_iterations": tuple(int(s) for s in sweeps),
              "f_evals": int(sweeps.sum()) * (m + 1)}
    return samples, frozen, passes


def solve_bounded(
    sys: EpcagSystem,
    t_window: tuple[int, int],
    substeps: int = 200,
    tol: float = 1e-8,
    method: str = "picard",
    pad: int | None = None,
) -> SampledTrajectory:
    """Sample the unique bounded solution on node window [k_lo, k_hi],
    a pair of integral values (int, numpy integers).

    Requires (A4). `pad` lead-in intervals (defaulted from the
    contraction margin so the associated bound sits below tol) are
    solved and discarded; an explicit pad whose transient/truncation
    bound exceeds tol raises PadTooSmallError. Samples whose norm
    exceeds M_phi plus that bound raise InnerDivergenceError.
    """
    try:
        k_lo, k_hi = map(operator.index, t_window)
    except TypeError:
        k_lo = k_hi = 0
    if not k_lo < k_hi:
        raise OutOfRangeError(f"t_window must be an increasing pair of node indices, got {t_window!r}")
    _require_a4(sys.envelope, sys.f)
    if method not in METHODS:
        raise OutOfRangeError(f"method must be picard or burn_in, got {method!r}")
    if pad is None:
        pad = default_pad(sys, tol)
    bound = _tail_bound(sys, pad)
    if bound > tol:
        kind = "truncation" if method == "picard" else "transient"
        raise PadTooSmallError(
            f"pad {pad} leaves a {kind} bound {bound:.3g} above tol {tol:.3g}"
        )
    solve = _solve_picard if method == "picard" else _solve_burn_in
    samples, frozen, counts = solve(sys, k_lo, k_hi, pad, substeps)
    meta = {"method": method, **counts, "pad": pad, "tail_bound": bound}
    meta["sup_norm"] = float(np.max(np.linalg.norm(samples, axis=1)))
    limit = solution_bound(sys) + bound
    if not meta["sup_norm"] <= limit:
        raise InnerDivergenceError(
            f"{method} samples reach norm {meta['sup_norm']:.6g}, above the a-priori "
            f"bound M_phi + tail bound {limit:.6g}"
        )
    return SampledTrajectory(sys.schedule, (k_lo, k_hi), substeps, samples, frozen, meta)


def residual_defect(sys: EpcagSystem, traj: SampledTrajectory) -> float:
    """Max ODE residual over interior grid points.

    Differentiates the samples with the 5-point 4th-order centered
    stencil and compares against A z + f(t, z, w_k) + alpha_k. Points
    within two substeps of a node are skipped: the solution has corners
    there and the stencil would straddle them. A trajectory on another
    schedule than the system's raises GridMismatchError.
    """
    if traj.schedule != sys.schedule:
        raise GridMismatchError("trajectory and system have different schedules")
    m_sub, (k_lo, k_hi) = traj.substeps, traj.k_window
    n_int, h, c = k_hi - k_lo, traj.step, m_sub - 3
    # every interval's grid points as a strided view, (n_int, dim, m_sub+1);
    # stencil centres 2 .. m_sub - 2 of each
    seg = np.lib.stride_tricks.sliding_window_view(traj.samples, m_sub + 1, axis=0)[::m_sub]
    dz = (seg[..., :c] - 8.0 * seg[..., 1 : c + 1] + 8.0 * seg[..., 3 : c + 3] - seg[..., 4:]) / (12.0 * h)
    # the contract may write into its arguments, so it gets copies, even
    # where the view is contiguous (one interval)
    x = seg[..., 2 : c + 2].transpose(0, 2, 1).copy().reshape(-1, sys.dim)
    idx = ((m_sub * np.arange(n_int))[:, None] + np.arange(2, m_sub - 1)).reshape(-1)
    alpha = np.stack([sys.driver.value(k) for k in range(k_lo, k_hi)])
    rhs = x @ sys.a.T
    rhs += eval_many(sys.f, traj.t0 + h * idx, x, traj.frozen.copy())
    rhs = rhs.reshape(n_int, c, -1) + alpha[:, None]
    diff = dz.transpose(0, 2, 1) - rhs
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))
