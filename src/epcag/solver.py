"""Bounded-solution solvers for the assembled system.

Two independent routes to the unique bounded solution:

picard
    Iterates the integral operator

        (Pi psi)(t) = int_{t_lo}^{t} exp(A(t-s)) [f(s, psi(s), psi(gamma(s))) + g(s, alpha)] ds

    on a uniform grid, truncated `pad` intervals before the requested
    window. The convolution obeys I_{j+1} = exp(A h) I_j + q_j substep
    by substep, with q_j from exponentially weighted interpolatory
    4-point quadrature (weights precomputed once per matrix/step pair by
    Gauss-Legendre), which is grid-restricted, respects the interval
    kinks, and is 4th order like a composite Simpson rule, but needs no
    off-grid midpoints. The recurrence is evaluated as a blocked scan
    (Blelloch 1990) from forward powers exp(A j h) only, never the
    growing backward factors exp(-A tau): one matrix product of every
    block of up to CONVOLVE_BLOCK substeps with a block kernel, edge
    stencils, carries between blocks, a doubling scan over
    exp(A omega)^(2^s) for the node values, and one product adding
    exp(A j h) times them, each product in row chunks that BLAS runs on
    one thread. Successive iterates contract with factor at
    most kappa_pi; iteration stops when they differ by at most
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
    Marches interval solvers forward from zero initial data `pad`
    intervals early and discards the transient. Each interval is solved
    with classical fixed-step RK4 around an inner fixed point for the
    frozen argument w_k = z(zeta_k). The inner loop takes quasi-Newton
    steps from a secant (good Broyden) estimate of dz(zeta_k)/dw_k,
    which changes slowly from interval to interval and so is carried
    from each interval to the next; where the estimate's norm reaches 1,
    outside the contraction regime of (A4), the step is the plain
    fixed-point one. Where zeta_k > theta_k, the loop starts from two
    plain fixed-point passes of a coarse RK4 march to zeta_k, with steps
    of up to COARSE_START_RATIO fine steps (nested iteration); the fixed
    point and the stop rule are those of a start from z(theta_k).
    Samples up to the last grid point before zeta_k come from the last
    inner pass, which the march to the interval end continues with the
    settled w_k. Each RK4 step applies linear tables precomputed per
    step size (_rk4_tables), once per solve (_interval_geometry).
    Outside RK4's stability region (about (-2.785, 0) on the negative
    real axis) the march grows a finite but wrong answer, so a solve
    whose RK4 amplification matrix R(hA) has spectral radius >= 1 is
    refused with OutOfRangeError naming the fewest stable substeps, and
    the coarse start is skipped where its own longer step is unstable.

Both report their truncation/transient bound in the trajectory meta and
refuse pads whose bound exceeds the requested tolerance. Every solve
checks its samples against the a-priori bound M_phi plus that bound,
which the bounded solution meets, and raises InnerDivergenceError above
it: a contract that breaks its declared bound, or a march gone wrong.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    GridMismatchError,
    InnerDivergenceError,
    OutOfRangeError,
    PadTooSmallError,
)
from .linear import _spectral_norms, mat_exp
from .nonlinearity import eval_many
from .schedule import locate
from .system import (
    EpcagSystem,
    _a4,
    _require_a4,
    _solution_bound,
    contraction_margin,
    map_supremum,
    solution_bound,
)

PICARD_STOP = 1e-10
# fewest sweeps Picard may take; _picard_cap raises it near the (A4) limit
PICARD_MAX_ITERS = 80
INNER_DEFAULT_TOL = 1e-12
INNER_MAX_ITERS = 100
# burn-in's coarse start takes RK4 steps of at most this many fine steps
COARSE_START_RATIO = 16
# a move of w below this share of |w| is rounding and updates no secant
SECANT_FLOOR = 1e3 * np.finfo(float).eps
GAUSS_POINTS = 16
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


def _tail_bound(sys: EpcagSystem, pad: int) -> float:
    """Bound on what starting from zero `pad` intervals early leaves in
    the window: 2 N M_phi exp(-(lambda - N(L1+L2)) pad omega).

    Both solvers return the solution of the initial-value problem that
    starts from zero at the truncated grid start. Its distance to the
    bounded solution decays at the contraction margin, not at lambda.
    """
    margin = contraction_margin(sys)
    return 2.0 * solution_bound(sys) * sys.envelope.n_const * math.exp(
        -margin * pad * sys.schedule.omega
    )


def _lead_in_pad(envelope, f, map_sup: float, omega: float, tol: float) -> int:
    """Fewest intervals of lead-in whose tail bound is at most tol, from
    the parts of a system; driver coverage is sized with it before the
    system exists. Requires (A4)."""
    margin = _require_a4(envelope, f)
    m_phi = _solution_bound(envelope, f, map_sup)
    return max(1, math.ceil(math.log(2.0 * m_phi * envelope.n_const / tol) / (margin * omega)))


def _coverage_range(window: int, pad: int) -> tuple[int, int]:
    """(k_min, k_max) of driver coverage for a solve on [-window, window]
    with `pad` intervals of lead-in, plus two intervals of headroom."""
    return -(window + pad + 2), window + 2


def default_pad(sys: EpcagSystem, tol: float) -> int:
    """Fewest intervals of lead-in whose tail bound is at most tol."""
    return _lead_in_pad(sys.envelope, sys.f, map_supremum(sys.driver), sys.schedule.omega, tol)


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


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """GAUSS_POINTS-point Gauss-Legendre nodes and weights on [-1, 1] by
    Golub-Welsch: the eigenvalues of the Legendre Jacobi matrix, and
    twice the squared first components of its eigenvectors."""
    k = np.arange(1.0, GAUSS_POINTS)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0] ** 2


class _Context:
    """Forward powers e_pows[j] = exp(A j h), j = 0..m, the three 4-point
    stencil weight sets, and the block tables _convolve applies them with."""

    def __init__(self, a: np.ndarray, omega: float, substeps: int):
        if substeps < MIN_SUBSTEPS:
            raise OutOfRangeError(_too_few_substeps(substeps))
        h = omega / substeps
        self.m_sub = m = substeps
        dim = a.shape[0]

        # one stacked call: exp(A h) and exp(A(h - tau)) at the
        # Gauss-Legendre nodes tau of the weights below
        gq, gw = _gauss_legendre()
        taus = (gq + 1.0) * (h / 2.0)
        wqs = gw * (h / 2.0)
        exps = mat_exp(a, np.concatenate(([h], h - taus)))
        self.e_h, e_taus = exps[0], exps[1:]
        self.e_pows = pows = np.empty((m + 1, dim, dim))
        pows[0] = np.eye(dim)
        for j in range(m):
            pows[j + 1] = self.e_h @ pows[j]

        # interpolatory weights W_r = int_0^h exp(A(h-tau)) l_r(tau) dtau for
        # the cubic through the stencil nodes
        def weights(offs):
            ws = np.zeros((4, dim, dim))
            for r in range(4):
                ell = np.ones_like(taus)
                for s_idx in range(4):
                    if s_idx != r:
                        ell *= (taus - offs[s_idx]) / (offs[r] - offs[s_idx])
                ws[r] = np.einsum("q,qab->ab", wqs * ell, e_taus)
            return ws

        self.w_interior = wi = weights([-h, 0.0, h, 2.0 * h])
        self.w_left = weights([0.0, h, 2.0 * h, 3.0 * h])
        self.w_right = weights([-2.0 * h, -h, 0.0, h])

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
        fix = self.w_right - np.stack([0 * wi[0], wi[0], wi[1], wi[2] + wi[3]])
        self.edges = [w.transpose(0, 2, 1).reshape(4 * dim, dim) for w in (self.w_left, fix)]


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


def _picard_sweeps(sys: EpcagSystem, k0: int, alpha: np.ndarray, psi: np.ndarray,
                   stop: float | None = None):
    """Picard sweeps on the grid of psi (n_int, m+1, dim), whose intervals
    start at node k0 and carry driver values alpha (n_int, dim), until
    successive iterates differ by <= stop (default _picard_stop), for at
    most _picard_cap sweeps. Returns the last iterate, the sweep deltas
    and the last sweep's integrand hv = f + alpha."""
    if stop is None:
        stop = _picard_stop(sys)
    n_int, m1, dim = psi.shape
    m = m1 - 1
    ctx = _context(sys, m)
    starts = sys.schedule.origin + np.arange(k0, k0 + n_int) * sys.schedule.omega
    ts_flat = (starts[:, None] + (sys.schedule.omega / m) * np.arange(m1)).reshape(-1)
    j0, lw = _cubic_stencils(sys.schedule.zeta_fraction * m, m)

    deltas: list[float] = []
    cap = _picard_cap(sys)
    # one integrand and one difference array serve every sweep; fresh
    # ones each sweep would fault in new pages every time
    hv, d = np.empty_like(psi), np.empty_like(psi)
    for _ in range(cap):
        w = np.einsum("r,ird->id", lw, psi[:, j0 : j0 + 4, :])
        ys = np.repeat(w, m1, axis=0)
        fv = eval_many(sys.f, ts_flat, psi.reshape(-1, dim), ys)
        np.add(fv.reshape(n_int, m1, dim), alpha[:, None, :], out=hv)
        new = _convolve(ctx, hv)
        np.subtract(new, psi, out=d)
        delta = math.sqrt(float(sum(d[..., k] ** 2 for k in range(dim)).max()))
        psi = new
        deltas.append(delta)
        if not math.isfinite(delta):
            raise InnerDivergenceError("picard iteration produced non-finite values")
        if delta <= stop:
            return psi, deltas, hv
    raise InnerDivergenceError(
        f"picard iteration did not reach {stop:g} in {cap} sweeps "
        f"at {m} substeps"
    )


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

    j0, lw = _cubic_stencils(sys.schedule.zeta_fraction * m, m)
    w = np.einsum("r,ird->id", lw, psi[:, j0 : j0 + 4, :])
    frozen = tuple((k0 + i, w[i].copy()) for i in range(pad, n_int))
    samples = np.concatenate([psi[pad:, :m, :].reshape(-1, dim), psi[-1, m][None]])
    # one contract row per grid point per sweep, on every level
    rows = sum(len(d) * (m_l + 1) for m_l, _, d in levels) + len(deltas) * (m + 1)
    sweeps = {"iterations": len(deltas), "iterate_deltas": tuple(deltas),
              "levels": tuple(levels), "f_evals": n_int * rows}
    return samples, frozen, sweeps


def _rk4_tables(a: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of z' = A z + f + alpha as four linear maps
    of x = [z, alpha, f1, f2, f3, f4], with f_i the contract at stage i:
    stacked (4, dim, 6 dim) tables giving the stage states y2, y3, y4
    and the new z. The stage formulas are applied to the block rows that
    select each slot of x, so A is folded in once per step size."""
    dim = a.shape[0]
    z, alpha, *fs = np.eye(6 * dim).reshape(6, dim, 6 * dim)
    k1 = a @ z + fs[0] + alpha
    y2 = z + (h / 2.0) * k1
    k2 = a @ y2 + fs[1] + alpha
    y3 = z + (h / 2.0) * k2
    k3 = a @ y3 + fs[2] + alpha
    y4 = z + h * k3
    k4 = a @ y4 + fs[3] + alpha
    return np.stack([y2, y3, y4, z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)])


def _rk4_march(feval, tables, t: float, z: np.ndarray, w, alpha, h: float, steps: int, out=None):
    """`steps` RK4 steps of size h from z at t with w held; out[j] gets the
    state after j steps. feval sees only fresh arrays, never a slot of x.
    A step is at Python's dispatch floor: each table's bound .dot (about
    twice as fast as @ on operands this small), slot rows bound once and
    filled by row[...] = v, and the stage times from one midpoint sum and
    one running t += h, the same float operations as t + h/2 and t + h.
    The stage slots start at zero: a table's zero weight on a slot not yet
    written would turn a NaN left in reused memory into a NaN stage."""
    slots = np.zeros((6, len(z)))
    slots[0], slots[1] = z, alpha
    x = slots.reshape(-1)
    s_z, _, s_f1, s_f2, s_f3, s_f4 = slots
    d2, d3, d4, dz = (tab.dot for tab in tables)
    half = h / 2.0
    for j in range(steps):
        s_f1[...] = feval(t, z, w)
        mid = t + half
        s_f2[...] = feval(mid, d2(x), w)
        s_f3[...] = feval(mid, d3(x), w)
        t += h
        s_f4[...] = feval(t, d4(x), w)
        z = dz(x)
        s_z[...] = z
        if out is not None:
            out[j + 1] = z
    return z


class _Geometry(NamedTuple):
    """The parts of an interval solve that a burn-in solve holds fixed:
    m substeps of size h, j_full whole steps and a partial step `part`
    (0 if none) from theta_k to zeta_k, n_coarse steps of size coarse_h
    over the same span for the coarse start (0 if zeta_k = theta_k),
    and the RK4 tables of each step size."""

    m: int
    h: float
    j_full: int
    part: float
    n_coarse: int
    coarse_h: float
    tables: np.ndarray
    part_tables: np.ndarray | None
    coarse_tables: np.ndarray | None


# the stable-substep search in an unstable solve's message stops here
STABLE_SEARCH_CAP = 1 << 20


def _rk4_radius(eigs: np.ndarray, hs) -> np.ndarray:
    """Spectral radius of the RK4 amplification matrix R(hA) at each step
    size in hs, from the eigenvalues of A: R is the degree-4 Taylor
    polynomial of exp, so the eigenvalues of R(hA) are R(h lambda_i)."""
    x = np.multiply.outer(np.atleast_1d(hs), eigs)
    return np.abs(1.0 + x * (1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0)))).max(axis=1)


def _stable_substeps(eigs: np.ndarray, omega: float, substeps: int) -> int | None:
    """Fewest substeps above `substeps` at which RK4 is stable, searched
    in blocks of doubling length up to STABLE_SEARCH_CAP; None if none."""
    lo = substeps + 1
    while lo <= STABLE_SEARCH_CAP:
        ms = np.arange(lo, min(2 * lo, STABLE_SEARCH_CAP + 1))
        stable = np.flatnonzero(_rk4_radius(eigs, omega / ms) < 1.0)
        if len(stable):
            return int(ms[stable[0]])
        lo = 2 * lo
    return None


def _interval_geometry(sys: EpcagSystem, substeps: int) -> _Geometry:
    """The solve's geometry. Refuses substeps whose RK4 step is not stable
    (spectral radius of R(hA) at least 1), where burn-in would grow a
    finite but wrong answer; drops the coarse start where its own longer
    step is not stable."""
    omega = sys.schedule.omega
    tau = sys.schedule.zeta_fraction * omega
    h = omega / substeps
    eigs = np.linalg.eigvals(sys.a)
    rho = float(_rk4_radius(eigs, h)[0])
    if not rho < 1.0:
        stable = _stable_substeps(eigs, omega, substeps)
        fix = (f"{stable} substeps are the fewest that are stable" if stable
               else f"no count up to {STABLE_SEARCH_CAP} is stable")
        raise OutOfRangeError(
            f"RK4 at {substeps} substeps per interval is unstable for this matrix "
            f"(spectral radius of R(hA) {rho:.6g} >= 1); {fix}"
        )
    j_full = min(int(math.floor(tau / h + 1e-9)), substeps)
    part = tau - j_full * h
    if part < 1e-13 * omega:
        part = 0.0
    n_coarse = math.ceil(tau / (COARSE_START_RATIO * h))
    coarse_h = tau / n_coarse if n_coarse else 0.0
    if n_coarse and not _rk4_radius(eigs, coarse_h)[0] < 1.0:
        n_coarse, coarse_h = 0, 0.0
    return _Geometry(
        substeps, h, j_full, part, n_coarse, coarse_h,
        _rk4_tables(sys.a, h),
        _rk4_tables(sys.a, part) if part else None,
        _rk4_tables(sys.a, coarse_h) if n_coarse else None,
    )


def step_interval(
    sys: EpcagSystem,
    k: int,
    z0,
    substeps: int = 200,
    tol: float = INNER_DEFAULT_TOL,
    max_inner: int = INNER_MAX_ITERS,
):
    """Solve one interval [theta_k, theta_{k+1}] from z(theta_k) = z0.

    The frozen argument w_k = z(zeta_k) is the fixed point of G(w), the
    state at zeta_k reached with w held. Where zeta_k > theta_k, w
    starts from two plain passes w <- G_c(w) from w = z0, with G_c the
    march to zeta_k in ceil((zeta_k - theta_k) / (16 h)) equal RK4
    steps, or at z0 if they end non-finite. Each pass integrates to
    zeta_k and takes the residual r = G(w) - w. The loop stops once
    |r| <= tol and sets w = G(w). Otherwise w takes the quasi-Newton
    step w + (I - J)^{-1} r, with J a secant (good Broyden) estimate of
    dG/dw that starts at zero, takes a rank-1 update after every pass
    and is dropped when the residual grows; a move of w at the rounding
    level of w updates nothing. Where ||J||_2 >= 1, outside the
    contraction regime in which (A4) puts the exact derivative, the
    step is the plain w <- G(w). Each pass writes the grid points up to
    the last one before zeta_k, so those samples come from the last
    pass; the rest of the interval is marched from there with the
    converged w. Returns (samples on the substep grid, w_k, inner
    iteration count).

    Raises OutOfRangeError when the RK4 step h = omega / substeps is not
    stable for A (the spectral radius of R(hA) is 1 or more), naming the
    fewest substeps that are; the coarse start is skipped where its own
    step is not stable. The a-priori bound check on the samples belongs
    to solve_bounded.
    """
    z0 = np.asarray(z0, dtype=float)
    geo = _interval_geometry(sys, substeps)
    samples, w, inner, _ = _step_interval(sys, k, z0, geo, tol, max_inner, np.zeros((len(z0),) * 2))
    return samples, w, inner


def _step_interval(sys, k, z0, geo: _Geometry, tol, max_inner, jac):
    """step_interval on a solve's geometry, from a secant estimate jac of
    dG/dw, carried over from the previous interval by burn-in; also
    returns the estimate the passes left."""
    theta = sys.schedule.node(k)
    alpha = sys.driver.value(k)
    h, j_full, part = geo.h, geo.j_full, geo.part
    feval = sys.f.eval

    samples = np.empty((geo.m + 1, len(z0)))
    samples[0] = z0
    eye = np.eye(len(z0))
    w = z0.copy()
    if geo.n_coarse:
        start = w
        for _ in range(2):
            start = _rk4_march(feval, geo.coarse_tables, theta, z0.copy(), start, alpha,
                               geo.coarse_h, geo.n_coarse)
        if np.all(np.isfinite(start)):
            w = start
    inner = 0
    last = None
    while True:
        inner += 1
        z_full = _rk4_march(feval, geo.tables, theta, z0.copy(), w, alpha, h, j_full, out=samples)
        z = _rk4_march(feval, geo.part_tables, theta + j_full * h, z_full, w, alpha, part, 1) if part else z_full
        if not np.all(np.isfinite(z)):
            raise InnerDivergenceError(f"interval {k}: non-finite state in inner loop")
        r = z - w
        diff = float(np.linalg.norm(r))
        if diff <= tol:
            w = z
            break
        if inner >= max_inner:
            raise InnerDivergenceError(
                f"interval {k}: frozen argument not fixed after {max_inner} iterations "
                f"(last move {diff:.3g})"
            )
        if last is not None:
            w_last, z_last, diff_last = last
            if diff > diff_last:
                jac = np.zeros_like(jac)
            dw = w - w_last
            dw2 = float(dw @ dw)
            if dw2 > SECANT_FLOOR**2 * float(w @ w):
                jac = jac + np.outer(z - z_last - jac @ dw, dw / dw2)
        last = w, z, diff
        if _spectral_norms(jac[None])[0] < 1.0:
            w = w + np.linalg.solve(eye - jac, r)
        else:
            w = z

    _rk4_march(feval, geo.tables, theta + j_full * h, z_full, w, alpha, h, geo.m - j_full,
               out=samples[j_full:])
    if not np.all(np.isfinite(samples)):
        raise InnerDivergenceError(f"interval {k}: non-finite samples")
    return samples, w, inner, jac


def _solve_burn_in(sys: EpcagSystem, k_lo: int, k_hi: int, pad: int, substeps: int):
    dim = sys.dim
    geo = _interval_geometry(sys, substeps)
    z = np.zeros(dim)
    jac = np.zeros((dim, dim))
    pieces = []
    frozen = []
    inner_counts = []
    for k in range(k_lo - pad, k_hi):
        samples, w, inner, jac = _step_interval(sys, k, z, geo, INNER_DEFAULT_TOL, INNER_MAX_ITERS, jac)
        z = samples[-1]
        inner_counts.append(inner)
        if k >= k_lo:
            pieces.append(samples[:-1])
            frozen.append((k, w))
    pieces.append(z[None])
    # four contract calls per RK4 step: the passes to zeta, and per
    # interval the march past zeta and the two coarse-start passes
    steps = (sum(inner_counts) * (geo.j_full + (geo.part > 0))
             + len(inner_counts) * (substeps - geo.j_full + 2 * geo.n_coarse))
    passes = {"iterations": max(inner_counts), "inner_iterations": tuple(inner_counts),
              "f_evals": 4 * steps}
    return np.concatenate(pieces), tuple(frozen), passes


def solve_bounded(
    sys: EpcagSystem,
    t_window: tuple[int, int],
    substeps: int = 200,
    tol: float = 1e-8,
    method: str = "picard",
    pad: int | None = None,
) -> SampledTrajectory:
    """Sample the unique bounded solution on node window [k_lo, k_hi].

    Requires (A4). `pad` lead-in intervals (defaulted from the
    contraction margin so the associated bound sits below tol) are
    solved and discarded; an explicit pad whose transient/truncation
    bound exceeds tol raises PadTooSmallError. Samples whose norm
    exceeds M_phi plus that bound raise InnerDivergenceError; burn-in
    also refuses substeps at which RK4 is unstable (step_interval).
    """
    k_lo, k_hi = t_window
    if not (isinstance(k_lo, int) and isinstance(k_hi, int) and k_lo < k_hi):
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
