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
    in row chunks that BLAS runs on one thread. Successive iterates
    contract with factor at most kappa_pi; iteration stops when they differ by at most
    1e-10 min(1, (1 - kappa_pi) / kappa_pi) in the sup norm, which
    bounds the iteration error kappa_pi / (1 - kappa_pi) delta by 1e-10.
    The sweeps run as nested iteration over the grids m, m/4, m/16, ...
    of at least MIN_SUBSTEPS substeps each, coarsest first and from zero
    (full multigrid's cascade, Brandt 1977). A coarse grid of m_l
    substeps stops at that stop times (m/m_l)^4: its 4th-order solution
    is that much less accurate, so sweeping it further buys nothing. It
    hands the next grid the
    convolution of its last sweep's integrand, refined by interval-local
    cubic interpolation, which is one more sweep for the price of a
    convolution and no contract call. The requested grid keeps the stop
    rule and fixed point of a start from zero; the coarse sweeps cost a
    quarter, a sixteenth, ... as much.

burn_in
    Marches from zero initial data `pad` intervals early and discards
    the transient: an exponential integrator in collocation form (Cox &
    Matthews 2002; Hochbruck & Ostermann 2010). It sweeps a sliding
    window of up to BURN_IN_WINDOW unfinished intervals [k, k + n) whose
    start value z(theta_k) is final, as windowed waveform relaxation
    does (Lelarasmee, Ruehli & Sangiovanni-Vincentelli 1982). A sweep is
    Picard's, z(t) = exp(A (t - theta_k)) z(theta_k) + I(t) with I the
    convolution above from theta_k. After each sweep the leading
    intervals whose own delta is at most INNER_DEFAULT_TOL are final,
    z(theta_k) moves to the end of the last of them, and the window is
    topped up with intervals each started from the one before it moved
    onto its own start, last + exp(A j h) (last[-1] - last[0]).
    Neighbouring intervals see similar forcing, so this start saves
    sweeps and leaves the fixed point where it was; one sweep of eight
    intervals costs little more than one of one. The first window
    starts from its free response. step_interval solves one interval
    the same way. The linear part is exact, so no substep count is
    unstable. Both methods solve the same discrete equations and differ
    in the order of their sweeps and in their stops, so comparing them
    checks the iteration and the truncation, not the quadrature.

Both report their truncation/transient bound (_tail_bound) in the
trajectory meta and refuse pads whose bound exceeds the requested
tolerance. Every solve checks its samples against the a-priori bound
M_phi plus that bound, which the bounded solution meets, and raises
InnerDivergenceError above it: a contract that breaks its declared
bound, or an iteration gone wrong.
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
from .schedule import locate
from .system import (
    EpcagSystem,
    _a4,
    _require_a4,
    _solution_bound,
    map_supremum,
    solution_bound,
)

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
    """Uniformly sampled solution on [t0, t1] with per-interval frozen
    arguments w_k = z(zeta_k). meta carries solver diagnostics."""

    t0: float
    t1: float
    step: float
    samples: np.ndarray
    frozen_args: tuple
    meta: dict

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
    stencil weight sets, and the block tables _convolve applies them with."""

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


@functools.lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _cached_context(a_bytes: bytes, dim: int, omega: float, substeps: int) -> _Context:
    return _Context(np.frombuffer(a_bytes).reshape(dim, dim), omega, substeps)


def _context(sys: EpcagSystem, substeps: int) -> _Context:
    a = np.ascontiguousarray(sys.a, dtype=float)
    return _cached_context(a.tobytes(), a.shape[0], sys.schedule.omega, substeps)


def _cubic_stencils(pos, m_sub: int) -> tuple[np.ndarray, np.ndarray]:
    """Start indices and cubic Lagrange weights reading a function off
    grid points 0..m_sub of one interval at positions pos (in substeps):
    the four grid points around each position, kept inside the interval.
    Picard reads the frozen argument psi(zeta) with it."""
    pos = np.asarray(pos, dtype=float)
    j0 = np.clip(np.floor(pos) - 1, 0, m_sub - 3).astype(int)
    rel = pos - j0
    lw = np.ones(pos.shape + (4,))
    for r in range(4):
        for s in range(4):
            if s != r:
                lw[..., r] *= (rel - s) / (r - s)
    return j0, lw


@functools.lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _zeta_stencil(zeta_fraction: float, m_sub: int) -> tuple[int, np.ndarray]:
    """_cubic_stencils at the zeta point, zeta_fraction * m_sub, of an
    interval of m_sub substeps; its weights are read-only, as every
    caller shares them."""
    j0, lw = _cubic_stencils(zeta_fraction * m_sub, m_sub)
    lw.flags.writeable = False
    return int(j0), lw


def _refine(psi: np.ndarray, m_sub: int) -> np.ndarray:
    """Interval-local cubic interpolation of psi (n_int, m+1, dim) onto
    m_sub substeps per interval; no stencil reaches across a node."""
    m = psi.shape[1] - 1
    j0, lw = _cubic_stencils(np.arange(m_sub + 1) * m / m_sub, m)
    interp = np.zeros((m_sub + 1, m + 1))
    interp[np.arange(m_sub + 1)[:, None], j0[:, None] + np.arange(4)] = lw
    return interp @ psi


def _serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D a and b, in row chunks whose m n k stays at most
    SERIAL_MATMUL_MNK, below OpenBLAS's threshold for threading a product.
    A threaded product leaves its helper thread spinning, and on two CPUs
    that halved the speed of the small products that followed (burn-in
    after a Picard solve ran 1.8 times slower)."""
    out = np.empty((a.shape[0], b.shape[1]))
    rows = max(1, SERIAL_MATMUL_MNK // b.size)
    for i in range(0, a.shape[0], rows):
        np.matmul(a[i : i + rows], b, out=out[i : i + rows])
    return out


def _convolve(ctx: _Context, hv: np.ndarray) -> np.ndarray:
    """Cumulative convolution I(t) = int_{grid start}^t exp(A(t-s)) hv(s) ds.

    hv has shape (n_int, m_sub+1, dim) with interval-local endpoint
    values (the integrand jumps at nodes). Returns I on the same grid;
    node values are shared between intervals, so I is continuous.

    Solves I_{j+1} = E I_j + q_j, with E = exp(A h) and q_j the stencil
    integral over substep j, by forward powers of E only: one product of
    every block window with the block kernel, the edge stencils, the
    carries between blocks, the node values by a doubling scan over
    E_omega^(2^s) (Blelloch 1990), and one product adding E^j times them.
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
    # node values: inclusive prefix of the interval ends, doubled in log2 steps
    ends = flat[:, m - 2].copy()
    power, d = ctx.e_pows[m].T, 1
    while d < n_int:
        ends[d:] += ends[:-d] @ power
        power, d = power @ power, 2 * d
    nodes = np.concatenate([np.zeros((1, dim)), ends[:-1]])
    out = _serial_matmul(nodes, ctx.e_rows).reshape(n_int, m1, dim)
    out[:, 1] += first
    out[:, 2:] += flat[:, : m - 1]
    return out


def _kappa_pi(sys: EpcagSystem) -> float:
    """Contraction factor of the solution operator, N (L1 + L2) / lambda."""
    return _a4(sys.envelope, sys.f)[0] / sys.envelope.rate


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
           free: np.ndarray | None, hv: np.ndarray, d: np.ndarray):
    """One Picard sweep on the grid of psi (n_int, m+1, dim), whose
    intervals run at times ts (n_int, m+1) and carry driver values alpha
    (n_int, dim): the frozen arguments are read off psi, hv is filled
    with the integrand f + alpha, and the new iterate is its convolution
    plus the free response `free` (zero if None). d is scratch of psi's
    shape. Returns the new iterate and each interval's sup-norm delta to
    psi."""
    n_int, m1, dim = psi.shape
    j0, lw = _zeta_stencil(sys.schedule.zeta_fraction, m1 - 1)
    w = np.einsum("r,ird->id", lw, psi[:, j0 : j0 + 4, :])
    fv = eval_many(sys.f, ts.reshape(-1), psi.reshape(-1, dim), np.repeat(w, m1, axis=0))
    np.add(fv.reshape(n_int, m1, dim), alpha[:, None, :], out=hv)
    new = _convolve(ctx, hv)
    if free is not None:
        new += free
    np.subtract(new, psi, out=d)
    return new, np.sqrt(sum(d[..., k] ** 2 for k in range(dim)).max(axis=1))


def _non_finite(k0: int, deltas: np.ndarray, sweeps) -> InnerDivergenceError:
    """The error for sweep deltas of intervals k0, k0 + 1, ... not all
    finite, naming the first interval that went non-finite and its sweep
    count (sweeps, one per interval or one for all)."""
    i = int(np.argmin(np.isfinite(deltas)))
    return InnerDivergenceError(
        f"interval {k0 + i}: non-finite samples in picard sweep {np.broadcast_to(sweeps, deltas.shape)[i]}"
    )


def _not_reached(k: int, stop: float, cap: int, m: int) -> InnerDivergenceError:
    return InnerDivergenceError(
        f"interval {k}: picard iteration did not reach {stop:g} in {cap} sweeps at {m} substeps"
    )


def _picard_sweeps(sys: EpcagSystem, k0: int, alpha: np.ndarray, psi: np.ndarray,
                   stop: float | None = None, free: np.ndarray | None = None, cap: int | None = None):
    """Picard sweeps on the grid of psi (n_int, m+1, dim), whose intervals
    start at node k0 and carry driver values alpha (n_int, dim), until
    successive iterates differ by <= stop (default _picard_stop), for at
    most cap sweeps (default _picard_cap). Each sweep is _sweep with the
    free response `free` (zero by default), and its delta is the largest
    of the intervals'. Returns the last iterate, the sweep deltas and the
    last sweep's integrand hv = f + alpha. An error names the first
    interval that went non-finite, or the first still above the stop."""
    if stop is None:
        stop = _picard_stop(sys)
    if cap is None:
        cap = _picard_cap(sys)
    n_int, m1, _ = psi.shape
    m = m1 - 1
    ctx = _context(sys, m)
    ts = _grid_times(sys, k0, n_int, m)

    deltas: list[float] = []
    # one integrand and one difference array serve every sweep; fresh
    # ones each sweep would fault in new pages every time
    hv, d = np.empty_like(psi), np.empty_like(psi)
    per = np.full(n_int, math.inf)  # before any sweep no interval has converged
    for _ in range(cap):
        psi, per = _sweep(sys, ctx, ts, alpha, psi, free, hv, d)
        deltas.append(float(per.max()))
        if not math.isfinite(deltas[-1]):
            raise _non_finite(k0, per, len(deltas))
        if deltas[-1] <= stop:
            return psi, deltas, hv
    raise _not_reached(k0 + int(np.argmax(per > stop)), stop, cap, m)


def _samples_and_frozen(sys: EpcagSystem, psi: np.ndarray, k0: int, pad: int):
    """The samples of the grid psi (n_int, m+1, dim), whose intervals
    start at node k0, from interval k0 + pad on as one array, and the
    frozen arguments w_k read off them."""
    n_int, m1, dim = psi.shape
    m = m1 - 1
    j0, lw = _zeta_stencil(sys.schedule.zeta_fraction, m)
    w = np.einsum("r,ird->id", lw, psi[:, j0 : j0 + 4, :])
    frozen = tuple((k0 + i, w[i].copy()) for i in range(pad, n_int))
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
    psi = np.zeros((n_int, grids[0] + 1, dim))
    base = _picard_stop(sys)
    for m_l, m_next in zip(grids, grids[1:]):
        stop = base * (m / m_l) ** 4
        _, deltas, hv = _picard_sweeps(sys, k0, alpha, psi, stop)
        levels.append((m_l, stop, tuple(deltas)))
        # the next grid starts one sweep on, at the cost of a convolution
        psi = _convolve(_context(sys, m_next), _refine(hv, m_next))
    psi, deltas, _ = _picard_sweeps(sys, k0, alpha, psi)

    samples, frozen = _samples_and_frozen(sys, psi, k0, pad)
    # one contract row per grid point per sweep, on every level
    rows = sum(len(d) * (m_l + 1) for m_l, _, d in levels) + len(deltas) * (m + 1)
    sweeps = {"iterations": len(deltas), "iterate_deltas": tuple(deltas),
              "levels": tuple(levels), "f_evals": n_int * rows}
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
    ctx = _context(sys, substeps)
    free = (z0 @ ctx.e_rows).reshape(1, substeps + 1, sys.dim)
    if guess is None:
        psi = free
    else:
        psi = np.asarray(guess, dtype=float)
        if psi.shape != free.shape[1:]:
            raise OutOfRangeError(f"guess must have shape {free.shape[1:]}, got {psi.shape}")
        psi = psi[None]
    alpha = sys.driver.value(k)[None]
    psi, deltas, _ = _picard_sweeps(sys, k, alpha, psi, tol, free, max_inner)
    j0, lw = _zeta_stencil(sys.schedule.zeta_fraction, substeps)
    return psi[0], lw @ psi[0, j0 : j0 + 4], len(deltas)


def _solve_burn_in(sys: EpcagSystem, k_lo: int, k_hi: int, pad: int, substeps: int):
    """Burn-in on [k_lo - pad, k_hi] from zero, by the sliding window of
    up to BURN_IN_WINDOW intervals the module docstring describes. An
    interval still unfinished after _picard_cap sweeps in the window
    raises InnerDivergenceError; inner_iterations counts each interval's
    sweeps in the window, so f_evals is (substeps + 1) times their sum."""
    m, dim = substeps, sys.dim
    cap = _picard_cap(sys)
    ctx = _context(sys, m)
    k0 = k_lo - pad
    n_all = k_hi - k0
    ts = _grid_times(sys, k0, n_all, m)
    alpha = np.stack([sys.driver.value(k) for k in range(k0, k_hi)])
    size = min(BURN_IN_WINDOW, n_all)
    # z @ rows[:, (i (m+1) + j) dim : ...] = exp(A (i omega + j h)) z, the
    # free response on interval i of the window
    e_omega = np.stack([np.linalg.matrix_power(ctx.e_pows[m], i) for i in range(size)])
    rows = (ctx.e_pows[None] @ e_omega[:, None]).transpose(3, 0, 1, 2).reshape(dim, -1)

    out = np.empty((n_all, m + 1, dim))
    sweeps = np.zeros(n_all, dtype=int)
    z, i0 = np.zeros(dim), 0
    psi = free = (z @ rows).reshape(size, m + 1, dim)
    hv, d = np.empty_like(psi), np.empty_like(psi)
    while i0 < n_all:
        n = len(psi)
        new, per = _sweep(sys, ctx, ts[i0 : i0 + n], alpha[i0 : i0 + n], psi, free, hv[:n], d[:n])
        sweeps[i0 : i0 + n] += 1
        if not np.isfinite(per).all():
            raise _non_finite(k0 + i0, per, sweeps[i0 : i0 + n])
        ok = per <= INNER_DEFAULT_TOL
        done = n if ok.all() else int(np.argmin(ok))
        out[i0 : i0 + done] = new[:done]
        i0 += done
        if i0 < n_all and sweeps[i0] >= cap:
            raise _not_reached(k0 + i0, INNER_DEFAULT_TOL, cap, m)
        if not done:
            psi = new
            continue
        # each interval joining the window starts from the one before it
        # moved onto its start
        psi, last = [new[done:]], new[-1]
        for _ in range(min(size, n_all - i0) - (n - done)):
            last = last + ((last[-1] - last[0]) @ ctx.e_rows).reshape(last.shape)
            psi.append(last[None])
        psi = np.concatenate(psi)
        z = new[done - 1, m]
        free = (z @ rows[:, : psi.size]).reshape(psi.shape)

    samples, frozen = _samples_and_frozen(sys, out, k0, pad)
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
    if method not in ("picard", "burn_in"):
        raise OutOfRangeError(f"method must be picard or burn_in, got {method!r}")
    if pad is None:
        pad = default_pad(sys, tol)
    bound = _tail_bound(sys, pad)
    if bound > tol:
        kind = "truncation" if method == "picard" else "transient"
        raise PadTooSmallError(
            f"pad {pad} leaves a {kind} bound {bound:.3g} above tol {tol:.3g}"
        )
    omega = sys.schedule.omega

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
    meta["k_window"] = (k_lo, k_hi)
    meta["omega"] = omega
    meta["origin"] = sys.schedule.origin
    meta["zeta_fraction"] = sys.schedule.zeta_fraction
    step = omega / substeps
    return SampledTrajectory(
        t0=sys.schedule.node(k_lo),
        t1=sys.schedule.node(k_hi),
        step=step,
        samples=samples,
        frozen_args=frozen,
        meta=meta,
    )


def residual_defect(sys: EpcagSystem, traj: SampledTrajectory) -> float:
    """Max ODE residual over interior grid points.

    Differentiates the samples with the 5-point 4th-order centered
    stencil and compares against A z + f(t, z, w_k) + alpha_k. Points
    within two substeps of a node are skipped: the solution has corners
    there and the stencil would straddle them.
    """
    omega = sys.schedule.omega
    m_sub = round(omega / traj.step)
    if abs(m_sub * traj.step - omega) > 1e-9 * omega:
        raise GridMismatchError(
            f"trajectory step {traj.step!r} does not subdivide the interval length {omega!r}"
        )
    if m_sub < MIN_SUBSTEPS:
        raise GridMismatchError(_too_few_substeps(m_sub))
    n = len(traj.samples)
    if (n - 1) % m_sub != 0:
        raise GridMismatchError("sample count does not fill whole intervals")
    n_int = (n - 1) // m_sub
    frozen = dict(traj.frozen_args)
    k_first = locate(sys.schedule, traj.t0 + traj.step / 2.0).k
    ks = range(k_first, k_first + n_int)
    for k in ks:
        if k not in frozen:
            raise GridMismatchError(f"no frozen argument stored for interval {k}")
    h, s = traj.step, traj.samples
    # stencil centres of all intervals at once, m_sub - 3 per interval
    idx = ((m_sub * np.arange(n_int))[:, None] + np.arange(2, m_sub - 1)).reshape(-1)
    dz = (s[idx - 2] - 8.0 * s[idx - 1] + 8.0 * s[idx + 1] - s[idx + 2]) / (12.0 * h)
    ws = np.repeat(np.stack([frozen[k] for k in ks]), m_sub - 3, axis=0)
    alpha = np.repeat(np.stack([sys.driver.value(k) for k in ks]), m_sub - 3, axis=0)
    rhs = s[idx] @ sys.a.T + eval_many(sys.f, traj.t0 + h * idx, s[idx], ws) + alpha
    return float(np.max(np.linalg.norm(dz - rhs, axis=1)))
