"""Bounded-solution solvers for the assembled system.

Both routes to the unique bounded solution solve one discretisation:
n-node Gauss-Legendre collocation inside each interval, an exponential
collocation method (Hochbruck & Ostermann, "Exponential integrators",
Acta Numerica 2010, section 2). Inside interval k the frozen argument
w_k = z(zeta_k) and the driver alpha_k are constant, so the integrand
is analytic and every kink sits on a node; with nodes tau_r in [0,
omega] and F_r the integrand f(t, z, w_k) + alpha_k at them,

    z(theta_k + tau) = exp(A tau) z_k + sum_r W_r(tau) F_r,
    W_r(tau) = int_0^tau exp(A (tau - s)) l_r(s) ds,

l_r the Lagrange basis of the nodes (in barycentric form, Berrut &
Trefethen 2004), converges geometrically in n. NODES = 16 puts both
reference scenarios within 1e-12 of 28-node solves. w_k is read at
tau = c omega by the same formula. The weights come from forward
exponentials only, never exp(-A s), which overflows for strongly
decaying A: each target's integral is Gauss-Legendre quadrature of
exp(A sigma) l_r(tau - sigma) over pieces that grade geometrically
away from the target, in one stacked mat_exp call. A sweep evaluates
the contract at the nodes, then takes one product with the (n dim) x
((n+2) dim) weight block per interval, a doubling scan over exp(A
omega)^(2^s) for the node values z_k (Blelloch 1990), and one product
adding exp(A tau) z_k. The samples on the uniform grid of `substeps`
substeps, and the frozen arguments, are written once per solve, over
the requested window only, from a table built by translation: one set
of exponentials over one substep and the powers of exp(A h) serve
every substep. The sweeps and residual_defect never read the samples,
so `substeps` leaves the collocation solution and its defect as they
are; but meta["sup_norm"] and the a-priori guard read the samples
along with the node values, so they move with it (2.36986 at 4
substeps, 2.37057 at 50 and 200, homoclinic scenario on (-20, 20)).
The linear part is exact, so no node or substep count is unstable.

picard
    Iterates the integral operator

        (Pi psi)(t) = int_{t_lo}^{t} exp(A(t-s)) [f(s, psi(s), psi(gamma(s))) + g(s, alpha)] ds

    from zero on all intervals at once, truncated `pad` intervals before
    the requested window. Successive iterates contract with factor at
    most kappa_pi; iteration stops when they differ by at most 1e-10
    min(1, (1 - kappa_pi) / kappa_pi) in the sup norm over the targets,
    which bounds the iteration error kappa_pi / (1 - kappa_pi) delta by
    1e-10.

burn_in
    Marches from zero initial data `pad` intervals early and discards
    the transient. It sweeps a sliding window of unfinished intervals
    [k, k + n) whose start value z(theta_k) is final, as windowed
    waveform relaxation does (Lelarasmee, Ruehli &
    Sangiovanni-Vincentelli 1982). A sweep is Picard's above from
    theta_k with z(theta_k) as its first node value. After each sweep
    the leading intervals whose own delta is at most Picard's stop are
    final, z(theta_k) moves to the end of the last of them, and the
    window is topped up with intervals each started from the one before
    it moved onto its own start, last + exp(A tau) (end - start of
    last). Neighbouring intervals see similar forcing, so this start
    saves sweeps and leaves the fixed point where it was. The whole
    top-up is one product of end - start of the last interval with
    stored sums of powers of exp(A omega) (_top_up). The window holds up
    to BURN_IN_WINDOW = 24 intervals: the contract evaluates the whole
    window in one eval_many call, so a sweep costs mostly fixed overhead
    (on the reference system, 2 CPUs: 53 us for 24 intervals, 40 us for
    8, 31 us for one). The first window starts from zero. Both methods
    solve the same discrete equations to the same stop and differ in the
    order of their sweeps, so comparing them checks the iteration and the
    truncation, not the quadrature.

One routine, _solve, runs both methods; they differ only in the
window of intervals each sweep covers (the whole grid for Picard, up
to BURN_IN_WINDOW for burn-in) and in when a converged interval
retires. Under it one loop, _iterate, runs every fixed-point
iteration, step_interval's too: it sweeps from an explicit start value
at the window's first node (zero for a solve), refuses non-finite
deltas and stops at the sweep cap, naming the interval. Picard retires
the whole grid once every interval has met its stop. Burn-in is the
loop's sliding use: it retires the leading intervals that met the stop
and moves the window on. step_interval is a window of one interval
started from a given value, where the two rules agree, at Picard's
stop and sweep cap.

Both methods return a SampledTrajectory: the schedule, node window and
substep count that fix its grid, the samples on it, one frozen argument
per interval, and the collocation solution itself, the node values z_k
and the integrands F of the final sweep. residual_defect checks that
solution against the equation exactly (its docstring gives the
formula), at DEFECT_POINTS + 1 points of every interval, both ends
included, where a table built by translation, as the output's is,
gives z from [z_k, F]; one helper, _solution_at, forms that product for
both tables. It reads the kept solution, never the samples, so
`substeps` does not change it. Both methods report their
truncation/transient bound (_tail_bound) in the trajectory meta, at
the fewest intervals of lead-in that bring it to the requested
tolerance (_fewest_pad). Every solve
checks its samples and its collocation node values against the
a-priori bound M_phi plus that bound, which the bounded solution
meets, and raises InnerDivergenceError above it: a contract that
breaks its declared bound, or an iteration gone wrong.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InnerDivergenceError, OutOfRangeError
from .linear import _row_norms, _serial_matmul, mat_exp
from .nonlinearity import eval_many
from .schedule import Schedule
from .system import EpcagSystem, _kappa_pi, _require_a4, _solution_bound, solution_bound

METHODS = ("picard", "burn_in")
PICARD_STOP = 1e-10
# fewest sweeps Picard may take; _picard_cap raises it near the (A4) limit
PICARD_MAX_ITERS = 80
# most unfinished intervals burn-in sweeps together (module docstring)
BURN_IN_WINDOW = 24
# fewest substeps per interval. It bounds only how sparse the output may
# be: the sweeps and residual_defect work at fixed points per interval
MIN_SUBSTEPS = 4
# residual_defect reads each interval at DEFECT_POINTS + 1 uniform points,
# both ends included: its sup sits at an interval's end, and every count
# from 8 to 512 gives the reference scenarios' defect to 3 digits
DEFECT_POINTS = 32
# largest jump, relative to max(1, max |z_k|), that residual_defect allows
# between an interval's rebuilt end and the next node value: at most
# 1.3e-15 under a trajectory's own matrix (reference scenarios and the
# tests' random systems, both methods), 0.07-0.32 under 1.1 A
END_JUMP_RTOL = 1e-9


def _too_few_substeps(substeps: int) -> str:
    return f"need at least {MIN_SUBSTEPS} substeps per interval, got {substeps}"


@dataclass(frozen=True, eq=False)
class SampledTrajectory:
    """A solution sampled on the node window k_window = (k_lo, k_hi) of a
    schedule, at `substeps` substeps per interval. samples holds
    substeps (k_hi - k_lo) + 1 rows at t0 + j step, from t0 = theta_{k_lo}
    to theta_{k_hi}; frozen holds the frozen arguments
    w_k = z(zeta_k), row i for interval k_lo + i. These fields are the
    one record of the grid, and construction refuses arrays that do not
    fill it with GridMismatchError; meta carries only solver diagnostics.
    node_values (n_int + 1, dim) and integrands (n_int, NODES, dim) keep
    the collocation solution itself: z at theta_{k_lo} .. theta_{k_hi} and
    each interval's integrand F_r at its nodes, from which residual_defect
    reads the solution between the samples."""

    schedule: Schedule
    k_window: tuple[int, int]
    substeps: int
    samples: np.ndarray
    frozen: np.ndarray
    node_values: np.ndarray
    integrands: np.ndarray
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
        dim = self.samples.shape[1]
        if self.node_values.shape != (n_int + 1, dim) or self.integrands.shape != (n_int, NODES, dim):
            raise GridMismatchError(
                f"node values of shape {self.node_values.shape} and integrands of shape "
                f"{self.integrands.shape} do not fill {n_int} intervals of {NODES} nodes in dimension {dim}"
            )

    @property
    def t0(self) -> float:
        return self.schedule.node(self.k_window[0])

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


def _tail_bound(mu: np.ndarray, pre: np.ndarray, omega: float, pad: int) -> float:
    """Bound on what starting from zero `pad` intervals early leaves in
    the window: the least N M_phi / (1 - q(mu)) e^{-mu pad omega} over
    the rates mu and prefactors pre of _tail_rates."""
    return float(np.min(pre * np.exp(-mu * pad * omega)))


def _fewest_pad(mu: np.ndarray, pre: np.ndarray, omega: float, tol: float) -> int:
    """Fewest intervals of lead-in whose _tail_bound is at most tol."""
    return max(1, math.ceil(float(np.min(np.log(pre / tol) / (mu * omega)))))


def _lead_in_pad(envelope, f, map_sup: float, omega: float, zeta_fraction: float, tol: float) -> int:
    """Fewest intervals of lead-in whose tail bound is at most tol, from
    the parts of a system; driver coverage is sized with it before the
    system exists. Requires (A4)."""
    mu, pre = _tail_rates(envelope, f, _solution_bound(envelope, f, map_sup), omega, zeta_fraction)
    return _fewest_pad(mu, pre, omega, tol)


def _coverage_range(window: int, pad: int) -> tuple[int, int]:
    """(k_min, k_max) of driver coverage for a solve on [-window, window]
    with `pad` intervals of lead-in, plus two intervals of headroom."""
    return -(window + pad + 2), window + 2


# ---------------------------------------------------------------------------
# collocation context: weight tables per (matrix, omega, zeta fraction,
# substeps, nodes)

# collocation nodes per interval: the fewest whose solves of both reference
# scenarios on (-30, 30) lie within 1e-12 of 28-node solves
NODES = 16
# largest ||A||_F times the length of a quadrature piece next to its
# target; the output grid's rule over one substep takes pieces of a quarter
# of that, and half as many points
PIECE_NORM = 8.0
# contexts kept for the most recent keys
CONTEXT_CACHE_SIZE = 8


@functools.lru_cache(maxsize=4)
def _gauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: Newton's
    method on the Legendre recurrence from the nodes' cosine estimates,
    in long double, with the weights 2 (1 - x^2) / (n P_{n-1}(x))^2. On
    x86-64 the rule comes out correctly rounded; numpy's leggauss weights
    err by up to 1e-13 relative, which showed as 4e-15 in the weights of
    a stiff A, and importing numpy.polynomial costs each process 2 ms."""
    x = -np.cos(np.pi * (np.arange(1, points + 1, dtype=np.longdouble) - 0.25) / (points + 0.5))
    # four steps reach long double resolution up to 40 points; the fifth
    # moves x by less, so its recurrence values serve the weights
    for _ in range(5):
        p0, p1 = np.ones_like(x), x
        for k in range(2, points + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        # P_n' = n (P_{n-1} - x P_n) / (1 - x^2)
        x = x - p1 * (1 - x * x) / (points * (p0 - x * p1))
    v = 2 * (1 - x * x) / (points * (p0 - x * p1)) ** 2
    x, v = x.astype(float), v.astype(float)
    x.flags.writeable = v.flags.writeable = False
    return x, v


def _bary(x_nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights 1 / prod_{s != r} (x_r - x_s) of the nodes,
    scaled to a largest magnitude of 1."""
    diff = x_nodes[:, None] - x_nodes
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / diff.prod(axis=1)
    return bary / np.abs(bary).max()


def _lagrange(x_nodes: np.ndarray, bary: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Lagrange basis l_r of the nodes at every x (k,), shape (n, k),
    by the second barycentric form (Berrut & Trefethen 2004): its basis
    sums to 1 to rounding at every x, so a constant integrand keeps its
    exact convolution. A point on a node is moved off it by 1e-200, the
    formula's limit there."""
    diff = x - x_nodes[:, None]
    diff[diff == 0.0] = 1e-200
    # in place: a fresh array of this size faults in new pages every call
    np.divide(bary[:, None], diff, out=diff)
    diff /= diff.sum(axis=0)
    return diff


def _rule(length: float, piece: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Points sigma and weights of a rule for int_0^length exp(A sigma) p(sigma)
    dsigma, p a polynomial: `points` Gauss-Legendre points on each of the
    pieces [0, d], [d, 2d], [2d, 4d], ... with d = min(length, piece). The
    first two keep each piece at most `piece` long; past them the pieces
    double, as the exponential of a stiff A has decayed there. A length of
    0 gives one piece of zero weights."""
    x, v = _gauss(points)
    edges = [0.0, min(length, piece)]
    while edges[-1] < length:
        edges.append(min(length, 2.0 * edges[-1]))
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    return (lo + (hi - lo) * (1.0 + x) / 2.0).ravel(), ((hi - lo) / 2.0 * v).ravel()


def _translation(x_nodes: np.ndarray, bary: np.ndarray, omega: float, h: float, count: int, local_rule,
                 pows: np.ndarray, e_local: np.ndarray) -> np.ndarray:
    """The table mapping [z, F] ((n+1) dim,) of an interval to the
    collocation solution at j h, j < count, by translation: out[j] =
    [exp(A j h), W_1(j h), .., W_n(j h)] obeys out[j] = exp(A h) out[j-1]
    + [0, L_j], L_j the local rule over step j, whose exponentials e_local
    every step shares; the recurrence runs as a doubling scan over pows[s]
    = exp(A h 2^s). out is laid out (row of A, j, r, column) so that each
    step is one product."""
    local, local_w = local_rule
    nodes, dim = len(x_nodes), e_local.shape[1]
    at = (h * np.arange(1, count)[:, None] - local).ravel()
    lw = _lagrange(x_nodes, bary, 2.0 * at / omega - 1.0).reshape(-1, len(local)) * local_w
    out = np.zeros((dim, count, nodes + 1, dim))
    out[:, 0, 0] = np.eye(dim)
    out[:, 1:, 1:] = (lw @ e_local.reshape(len(local), -1)).reshape(nodes, count - 1, dim, dim).transpose(2, 1, 0, 3)
    for s, power in enumerate(pows):
        k = 1 << s
        out[:, k:] += (power @ out[:, :-k].reshape(dim, -1)).reshape(dim, count - k, nodes + 1, dim)
    return out.transpose(2, 3, 1, 0).reshape((nodes + 1) * dim, count * dim)


class _Context:
    """Weight tables of n-node Gauss-Legendre collocation on intervals of
    length omega (module docstring). offsets holds the nodes tau_r in an
    interval. The sweep's targets are the n nodes, the zeta point
    c omega and the end omega: weights maps an interval's integrand
    (n dim,) to the convolution part sum_r W_r(tau) F_r at every target,
    and shift maps a start value z (dim,) to exp(A tau) z at every target.
    table maps [z, F] ((n+1) dim,) to the samples at substeps 0..m-1,
    and points to the solution at the residual_defect points
    point_offsets, where interpolant gives the integrand's interpolant.
    The node scan's powers scan[s] = (exp(A omega)^(2^s)).T are built as
    far as the longest scan has reached, as later ones underflow to slow
    subnormals."""

    def __init__(self, a: np.ndarray, omega: float, zeta_fraction: float, substeps: int, nodes: int):
        if substeps < MIN_SUBSTEPS:
            raise OutOfRangeError(_too_few_substeps(substeps))
        dim, m, h = a.shape[0], substeps, omega / substeps
        x_nodes, _ = _gauss(nodes)
        bary = _bary(x_nodes)
        self.nodes = nodes
        self.offsets = omega * (1.0 + x_nodes) / 2.0
        targets = np.append(self.offsets, [zeta_fraction * omega, omega])

        # every exponential in one stacked call, all at times in [0, omega]:
        # the targets, the rule of each target, and for the output grid's
        # table and the defect points' table (_translation) exp(A h 2^s)
        # and the rule over one step of h
        piece = PIECE_NORM / np.linalg.norm(a)
        rules = [_rule(tau, piece, nodes + 4) for tau in targets]
        grids = [(h, m), (omega / DEFECT_POINTS, DEFECT_POINTS + 1)]
        steps = [_rule(step, piece / 4.0, nodes // 2 + 2) for step, _ in grids]
        sigma = np.concatenate([s for s, _ in rules])
        times = [targets, sigma]
        for (step, count), (local, _) in zip(grids, steps):
            times += [step * 2.0 ** np.arange((count - 1).bit_length()), local]
        free, e_rule, *scans = np.split(mat_exp(a, np.concatenate(times)), np.cumsum([len(t) for t in times[:-1]]))

        # W_r(tau) = sum_p w_p l_r(tau - sigma_p) exp(A sigma_p) over each
        # target's rule
        counts = [len(s) for s, _ in rules]
        at = np.repeat(targets, counts) - sigma
        lw = _lagrange(x_nodes, bary, 2.0 * at / omega - 1.0) * np.concatenate([w for _, w in rules])
        starts = np.cumsum([0] + counts[:-1])
        w_tau = np.add.reduceat(lw.T[:, :, None] * e_rule.reshape(len(at), 1, -1), starts, axis=0)
        w_tau = w_tau.reshape(len(targets), nodes, dim, dim)
        self.weights = w_tau.transpose(1, 3, 0, 2).reshape(nodes * dim, -1)
        self.shift = free.transpose(2, 0, 1).reshape(dim, -1)
        self.scan = (free[-1].T,)
        self.table, self.points = (_translation(x_nodes, bary, omega, step, count, rule, pows, e_local)
                                   for (step, count), rule, pows, e_local in zip(grids, steps, scans[::2], scans[1::2]))
        # the defect points and the integrand's interpolant there, a map of
        # F (n dim,) to sum_r l_r(tau_j) F_r
        self.point_offsets = grids[1][0] * np.arange(DEFECT_POINTS + 1)
        self.interpolant = np.kron(_lagrange(x_nodes, bary, 2.0 * self.point_offsets / omega - 1.0), np.eye(dim))

    @functools.cached_property
    def tops(self) -> np.ndarray:
        """Burn-in's top-up (_top_up), built on first use: tops[j] maps a
        difference e (dim,) to exp(A tau) (I + E + ... + E^j) e at every
        target, E = exp(A omega), for j < BURN_IN_WINDOW."""
        power = sums = np.eye(len(self.shift))
        tops = [self.shift]
        for _ in range(1, BURN_IN_WINDOW):
            power = power @ self.scan[0]
            sums = sums + power
            tops.append(sums @ self.shift)
        return np.stack(tops)


@functools.lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _cached_context(a_bytes: bytes, dim: int, omega: float, zeta_fraction: float, substeps: int,
                    nodes: int) -> _Context:
    return _Context(np.frombuffer(a_bytes).reshape(dim, dim), omega, zeta_fraction, substeps, nodes)


def _context(sys: EpcagSystem, substeps: int) -> _Context:
    a = np.ascontiguousarray(sys.a, dtype=float)
    sched = sys.schedule
    return _cached_context(a.tobytes(), a.shape[0], sched.omega, sched.zeta_fraction, substeps, NODES)


def _convolve(ctx: _Context, hv: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The collocation solution at every target of every interval, from
    the integrand hv (n_int, n, dim) at the nodes and the start value
    `start` (dim,) at the first node: one product with the weight block
    per interval, the node values z_k by a doubling scan over exp(A
    omega)^(2^s) (Blelloch 1990), and one product adding exp(A tau) z_k.
    Returns (n_int, n+2, dim); the end target holds the
    scan's node values, so the next interval starts exactly there."""
    n_int, _, dim = hv.shape
    out = _serial_matmul(hv.reshape(n_int, -1), ctx.weights).reshape(n_int, -1, dim)
    ends = out[:, -1].copy()
    ends[0] += start @ ctx.scan[0]
    # powers are built on first need: later ones underflow to subnormals,
    # whose products are slow
    need, scan = (n_int - 1).bit_length(), ctx.scan
    while len(scan) < need:
        scan += (scan[-1] @ scan[-1],)
    ctx.scan = scan
    for s, power in enumerate(scan[:need]):
        ends[1 << s :] += ends[: -(1 << s)] @ power
    nodes = np.concatenate([start[None], ends[:-1]])
    out += (nodes @ ctx.shift).reshape(out.shape)
    out[:, -1] = ends
    return out


def _solution_at(table: np.ndarray, hv: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The collocation solution at the points of a translation table
    (_translation) in every interval, from the integrands hv (n_int, n,
    dim) and the node values nodes (n_int + 1, dim): one product of each
    interval's [z_k, F] with the table. Returns (n_int points, dim)."""
    n_int, _, dim = hv.shape
    return _serial_matmul(np.concatenate([nodes[:-1], hv.reshape(n_int, -1)], axis=1), table).reshape(-1, dim)


def _output(ctx: _Context, hv: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Samples at substeps 0..m of intervals with integrands hv (n_int, n,
    dim) and node values nodes (n_int + 1, dim): the solution on the
    output table, the last node appended."""
    return np.concatenate([_solution_at(ctx.table, hv, nodes), nodes[-1:]])


def _picard_stop(sys: EpcagSystem) -> float:
    """Stop for Picard: PICARD_STOP times min(1, (1 - kappa_pi) / kappa_pi).
    Successive iterates delta apart leave an iteration error of at most
    kappa_pi / (1 - kappa_pi) delta (the contraction mapping theorem's
    a-posteriori bound), so at most PICARD_STOP at this stop whatever
    kappa_pi is; kappa_pi <= 1/2 keeps PICARD_STOP itself. So does
    kappa_pi >= 1, where no contraction bounds the error: solve_bounded
    refuses such systems, step_interval sweeps them at PICARD_STOP."""
    kappa = _kappa_pi(sys)
    return PICARD_STOP * (1.0 - kappa) / kappa if 0.5 < kappa < 1.0 else PICARD_STOP


def _picard_cap(sys: EpcagSystem) -> int:
    """Most Picard sweeps to run: twice the sweeps in which the contraction
    factor kappa_pi shrinks a delta to _picard_stop, and never fewer than
    PICARD_MAX_ITERS. Near the (A4) limit kappa_pi nears 1 and the cap
    grows without bound."""
    kappa = _kappa_pi(sys)
    if not 0.0 < kappa < 1.0:
        return PICARD_MAX_ITERS
    return max(PICARD_MAX_ITERS, math.ceil(2.0 * math.log(_picard_stop(sys)) / math.log(kappa)))


def _times(sys: EpcagSystem, offsets: np.ndarray, k0: int, n_int: int) -> np.ndarray:
    """Times at the offsets (p,) into intervals k0 .. k0 + n_int - 1,
    shape (n_int, p)."""
    sched = sys.schedule
    return (sched.origin + np.arange(k0, k0 + n_int) * sched.omega)[:, None] + offsets


def _sweep(sys: EpcagSystem, ctx: _Context, ts: np.ndarray, alpha: np.ndarray, psi: np.ndarray,
           start: np.ndarray, hv: np.ndarray, d: np.ndarray):
    """One Picard sweep from the iterate psi (n_int, n+2, dim) at the
    targets of intervals whose nodes run at times ts (n_int, n) and which
    carry driver values alpha (n_int, n, dim), one row per node: hv
    (n_int, n, dim) is filled with the integrand f + alpha at the nodes,
    with the frozen argument read at the zeta target, and the new iterate
    is its _convolve from the start value `start`. d is scratch of psi's
    shape.
    Returns the new iterate and each interval's sup-norm delta to psi."""
    n_int, _, dim = psi.shape
    n = ctx.nodes
    fv = eval_many(sys.f, ts.reshape(-1), psi[:, :n].reshape(-1, dim), psi[:, n])
    np.add(fv.reshape(n_int, n, dim), alpha, out=hv)
    new = _convolve(ctx, hv, start)
    np.subtract(new, psi, out=d)
    return new, _row_norms(d).max(axis=1)


def _top_up(ctx: _Context, new: np.ndarray, start: np.ndarray, count: int) -> np.ndarray:
    """`count` intervals to follow the window `new` (size, n+2, dim) whose
    start value is `start`, each started from the one before it moved
    onto its own start. With last the window's last interval and e its
    end minus its start, interval j after it is last + exp(A tau) (I +
    E + ... + E^(j-1)) e at every target, E = exp(A omega): one product
    of e with the stored ctx.tops. For one interval that is last +
    exp(A tau) e, as the step taken alone."""
    e = new[-1, -1] - (new[-2, -1] if len(new) > 1 else start)
    return new[-1] + (e @ ctx.tops[:count]).reshape((count,) + new.shape[1:])


def _iterate(sys: EpcagSystem, ctx: _Context, k0: int, ts: np.ndarray, alpha: np.ndarray, psi: np.ndarray,
             stop: float, cap: int, start: np.ndarray, sliding: bool = False):
    """Picard sweeps over intervals k0, k0 + 1, ... whose nodes run at
    times ts (n_all, n) and which carry driver values alpha (n_all, dim),
    from the iterate psi (size, n+2, dim) on a window of the leading
    intervals and the start value `start` (dim,) at its first node. Each
    sweep is _sweep over the window. After it the intervals whose delta
    is at most stop retire: the leading ones if `sliding` (burn-in), else
    all of them once every one has (Picard), which needs a window of the
    whole grid. A sliding window then takes the end of the last retired
    interval as its start value and is topped up to its first size with
    intervals each started from the one before it moved onto its own
    start, last + exp(A tau) (end - start of last), all in one product
    with the stored powers (_top_up). The driver values are repeated to
    one row per node once, for every sweep to add. An interval unretired after cap sweeps, or a non-finite delta, raises
    InnerDivergenceError naming the interval. Returns the retired
    intervals (n_all, n+2, dim), each sweep's largest delta, each
    interval's sweep count and their integrands (n_all, n, dim) from the
    sweep that retired them."""
    n_all, size, dim = len(ts), len(psi), psi.shape[2]
    # the driver once per node, so that each sweep adds it elementwise
    alpha = np.repeat(alpha[:, None], ctx.nodes, axis=1)
    # only a sliding window retires part of the grid; allocating these
    # for Picard too would copy its whole grid once more
    out, out_hv = (np.empty((n_all,) + psi.shape[1:]), np.empty((n_all, ctx.nodes, dim))) if sliding else (None, None)
    sweeps = np.zeros(n_all, dtype=int)
    deltas: list[float] = []
    # one integrand and one difference array serve every sweep; fresh
    # ones each sweep would fault in new pages every time
    hv, d = np.empty((size, ctx.nodes, dim)), np.empty_like(psi)
    # i0: the first interval in the window; first: the first not yet
    # within stop
    i0 = first = 0
    while i0 < n_all:
        if sweeps[first] >= cap:
            raise InnerDivergenceError(f"interval {k0 + first}: picard iteration did not reach {stop:g} "
                                       f"in {cap} sweeps")
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
            # the whole grid at once, as Picard retires it
            return new, deltas, sweeps, hv
        out[i0 : i0 + done], out_hv[i0 : i0 + done] = new[:done], hv[:done]
        i0 += done
        psi = np.concatenate([new[done:], _top_up(ctx, new, start, min(size, n_all - i0) - (n - done))])
        start = new[done - 1, -1]
    return out, deltas, sweeps, out_hv


def _solve(sys: EpcagSystem, k_lo: int, k_hi: int, pad: int, substeps: int, method: str):
    """`method` on [k_lo - pad, k_hi], pad >= 1, from zero: _iterate over a window
    of the whole grid (Picard) or a sliding window of up to
    BURN_IN_WINDOW intervals (burn-in, as the module docstring
    describes). An interval unfinished after _picard_cap sweeps raises
    InnerDivergenceError. Returns what a solve keeps from interval k_lo
    on: the samples, the frozen arguments, read at the zeta target, the
    node values z_k, the integrands, and the largest norm over those
    samples and the intervals' collocation values (the collocation nodes
    lie between the output grid's points, so a coarse grid alone can
    miss the solution's peak); and the sweep counts for meta. iterations
    is the most sweeps any interval took and f_evals n times their sum;
    Picard adds each sweep's delta (iterate_deltas), burn-in each
    interval's sweep count (inner_iterations).

    Burn-in's intervals retire at Picard's stop, and the reason carries
    over. The leading block that retires after a sweep depends only on
    its final start value and on itself, never on the intervals after
    it, so the sweep restricted to it is Picard's map on a closed
    sub-problem, which contracts by at most kappa_pi. Its delta is at
    most the stop, so the block lies within eps = kappa_pi / (1 -
    kappa_pi) stop <= PICARD_STOP of the sub-problem's fixed point, the
    solution from the block's start value. Each block's error is carried
    into the later intervals through its end value, and two solutions
    from start values e apart differ by at most N e / (1 - q(mu))
    e^{-mu (t - theta)} after theta, as the start transient does in
    _tail_rates. Block ends are nodes at least omega apart, so the
    samples lie within eps (1 + N / ((1 - q(mu)) (1 - e^{-mu omega})))
    of the solution from zero, for every rate mu of _tail_rates: the
    errors add as a geometric series and do not compound."""
    ctx = _context(sys, substeps)
    k0, sliding, start = k_lo - pad, method == "burn_in", np.zeros(sys.dim)
    n_all = k_hi - k0
    psi = np.zeros((min(BURN_IN_WINDOW, n_all) if sliding else n_all, ctx.nodes + 2, sys.dim))
    psi, deltas, sweeps, hv = _iterate(sys, ctx, k0, _times(sys, ctx.offsets, k0, n_all), sys.driver.span(k0, k_hi),
                                       psi, _picard_stop(sys), _picard_cap(sys), start, sliding)
    nodes = psi[pad - 1 :, -1].copy()
    samples = _output(ctx, hv[pad:], nodes)
    peak = max(_row_norms(samples).max(), _row_norms(psi[pad:, : ctx.nodes]).max())
    key, per = ("inner_iterations", tuple(int(c) for c in sweeps)) if sliding else ("iterate_deltas", tuple(deltas))
    counts = {"iterations": int(sweeps.max()), key: per, "f_evals": int(sweeps.sum()) * ctx.nodes}
    return (samples, psi[pad:, ctx.nodes].copy(), nodes, hv[pad:].copy(), float(peak)), counts


def step_interval(sys: EpcagSystem, k: int, z0, substeps: int = 200):
    """Solve one interval [theta_k, theta_{k+1}] from z(theta_k) = z0.

    Picard sweeps on this interval alone, from the free response
    exp(A tau) z0: each evaluates f(t, z, w_k) + alpha_k at the
    collocation nodes, with w_k = z(zeta_k) from the iterate, and sets
    z(tau) = exp(A tau) z0 + sum_r W_r(tau) F_r as Picard does. The
    linear part is exact, so every substep count is stable. Stops at
    Picard's stop (_picard_stop) after at most _picard_cap sweeps, as
    burn-in's window of one interval does (InnerDivergenceError
    otherwise, or on non-finite samples). Returns (samples on the
    substep grid, w_k, sweep count). The a-priori bound check on the
    samples belongs to solve_bounded.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (sys.dim,):
        raise OutOfRangeError(f"z0 must have shape ({sys.dim},), got {z0.shape}")
    ctx = _context(sys, substeps)
    psi = (z0 @ ctx.shift).reshape(1, -1, sys.dim)
    alpha = sys.driver.value(k)[None]
    psi, _, sweeps, hv = _iterate(sys, ctx, k, _times(sys, ctx.offsets, k, 1), alpha, psi, _picard_stop(sys),
                                  _picard_cap(sys), z0)
    return _output(ctx, hv, np.stack([z0, psi[0, -1]])), psi[0, ctx.nodes].copy(), int(sweeps[0])


def solve_bounded(
    sys: EpcagSystem,
    t_window: tuple[int, int],
    substeps: int = 200,
    tol: float = 1e-8,
    method: str = "picard",
) -> SampledTrajectory:
    """Sample the unique bounded solution on node window [k_lo, k_hi],
    a pair of integral values (int, numpy integers, not bools).

    Requires (A4). The fewest lead-in intervals whose transient/truncation
    bound (meta["tail_bound"]) is at most tol (meta["pad"]) are solved and
    discarded. A solution whose norm, over the samples and the collocation
    node values, exceeds M_phi plus that bound raises InnerDivergenceError.
    """
    try:
        if any(isinstance(k, (bool, np.bool_)) for k in t_window):  # operator.index reads True as 1
            raise TypeError
        k_lo, k_hi = map(operator.index, t_window)
    except (TypeError, ValueError):
        k_lo = k_hi = 0
    if not k_lo < k_hi:
        raise OutOfRangeError(f"t_window must be an increasing pair of node indices, got {t_window!r}")
    if method not in METHODS:
        raise OutOfRangeError(f"method must be picard or burn_in, got {method!r}")
    sched, m_phi = sys.schedule, solution_bound(sys)
    mu, pre = _tail_rates(sys.envelope, sys.f, m_phi, sched.omega, sched.zeta_fraction)
    pad = _fewest_pad(mu, pre, sched.omega, tol)
    bound = _tail_bound(mu, pre, sched.omega, pad)
    (samples, frozen, node_values, integrands, peak), counts = _solve(sys, k_lo, k_hi, pad, substeps, method)
    meta = {"method": method, **counts, "pad": pad, "tail_bound": bound, "sup_norm": peak}
    limit = m_phi + bound
    if not meta["sup_norm"] <= limit:
        raise InnerDivergenceError(
            f"{method} solution reaches norm {meta['sup_norm']:.6g}, above the a-priori "
            f"bound M_phi + tail bound {limit:.6g}"
        )
    return SampledTrajectory(sys.schedule, (k_lo, k_hi), substeps, samples, frozen, node_values, integrands, meta)


def residual_defect(sys: EpcagSystem, traj: SampledTrajectory) -> float:
    """Max ODE residual of the trajectory's collocation solution.

    On interval k the kept solution is z(tau) = exp(A tau) z_k +
    sum_r W_r(tau) F_r with W_r' = A W_r + l_r, so its defect
    z' - A z - f(t, z, w_k) - alpha_k is

        sum_r l_r(tau) F_r - f(theta_k + tau, z(tau), w_k) - alpha_k,

    the integrand's interpolant minus the integrand, with no derivative
    taken (residual control, Kierzenka & Shampine, ACM TOMS 27, 2001).
    It is read at tau_j = j omega / DEFECT_POINTS, j = 0 .. DEFECT_POINTS,
    of every interval, both ends included, from the kept node values,
    integrands and frozen arguments, never from the samples, so it does
    not depend on `substeps`: one product for z at the points, one for
    the interpolant and one contract call. The defect's formula has no A
    term, so the matrix shows in the last point, z(theta_k + omega): a
    trajectory whose rebuilt ends miss the next node values by more than
    END_JUMP_RTOL max(1, max |z_k|), as one solved under another matrix
    does, raises GridMismatchError, as does one on another schedule than
    the system's.
    """
    if traj.schedule != sys.schedule:
        raise GridMismatchError("trajectory and system have different schedules")
    ctx = _context(sys, traj.substeps)
    (k_lo, k_hi), dim = traj.k_window, sys.dim
    n_int, per = k_hi - k_lo, DEFECT_POINTS + 1
    # fresh arrays for the contract, which may write into its arguments
    z = _solution_at(ctx.points, traj.integrands, traj.node_values)
    jumps = _row_norms(z[per - 1 :: per] - traj.node_values[1:])
    k = int(np.argmax(jumps))
    if jumps[k] > END_JUMP_RTOL * max(1.0, float(np.abs(traj.node_values).max())):
        raise GridMismatchError(
            f"interval k={k_lo + k} rebuilt under the system's matrix ends {jumps[k]:.3g} "
            "from the next node value; the trajectory does not belong to this system"
        )
    ts = _times(sys, ctx.point_offsets, k_lo, n_int)
    rhs = _serial_matmul(traj.integrands.reshape(n_int, -1), ctx.interpolant).reshape(n_int, per, dim)
    rhs -= eval_many(sys.f, ts.reshape(-1), z, traj.frozen.copy()).reshape(rhs.shape)
    rhs -= sys.driver.span(k_lo, k_hi)[:, None]
    return float(_row_norms(rhs).max())
