"""System assembly, sufficient-condition checks, and proof constants.

The assembled object represents

    z'(t) = A z(t) + f(t, z(t), z(gamma(t))) + g(t, alpha)

with gamma(t) = zeta_k and g(t, alpha) = alpha_k on [theta_k, theta_{k+1}).
Sufficient conditions for a unique bounded solution and for the
stability transfer are expressed through the envelope constants
(n_const, rate) = (N, lambda) and the contract constants (M_f, L1, L2):

    (A4)  N (L1 + L2) < lambda
    (A5)  (N/lambda) (2 L1 + L2 e^{lambda w/2}(e^{lambda w}-1)/(1-e^{-lambda w/2})) < 1

with w the interval length. (A5) implies (A4).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .driver import DriverOrbit
from .errors import AssumptionFailureError, ContractViolatedError, DimensionMismatchError
from .linear import DecayEnvelope, _row_norms, estimate_decay_envelope, validate_envelope
from .nonlinearity import NonlinearityContract, eval_many
from .schedule import Schedule

# deterministic seed and point count for contract spot checks; the seed
# keeps artifact runs reproducible. The generator is the package's own
# (_uniforms): numpy.random's streams may change between numpy releases
# (NEP 19), and importing it costs every process that assembles a system
# about 6 MB and 12 ms
SPOT_CHECK_SEED = 20260814
SPOT_CHECK_SAMPLES = 1000

# relative slack allowed on sampled bound/Lipschitz quotients
SPOT_CHECK_SLACK = 1e-6

# dimensions whose spot-check draws are kept
SPOT_DESIGN_CACHE_SIZE = 8

# sampled points at which a contract's eval must reproduce its
# eval_batch rows, and the relative agreement required
SPOT_CHECK_SCALAR_ROWS = 8
EVAL_BATCH_RTOL = 1e-12

# margin applied to the orbit-window fallback for the map supremum
CUSTOM_MAP_SUP_MARGIN = 1.1


@dataclass(frozen=True)
class EpcagSystem:
    a: np.ndarray
    envelope: DecayEnvelope
    schedule: Schedule
    f: NonlinearityContract
    driver: DriverOrbit

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class AssumptionReport:
    a4_lhs: float
    a4_margin: float
    a4_pass: bool
    a5_lhs: float
    a5_margin: float
    a5_pass: bool
    f_bound: float
    lip_x: float
    lip_y: float
    passed: bool
    notes: tuple[str, ...]


@dataclass(frozen=True)
class ProofConstants:
    """Constants appearing in the bounded-solution and transfer estimates.

    map_sup       sup of the driving map over its range (M_F)
    m_phi         sup bound for any bounded solution, N (M_f + M_F) / lambda
    r1, r2        coefficients of the stable-direction gap envelope
    sigma_max     largest admissible sequence-gap scale, 1 / (r1 + r2)
    h_bound       uniform bound used inside the stable-set construction
    kappa_pi      contraction factor of the solution operator, N (L1 + L2) / lambda
    eta_max       largest admissible backward sequence-gap scale, (lambda - N(L1+L2)) / N
    """

    map_sup: float
    m_phi: float
    r1: float
    r2: float
    sigma_max: float
    h_bound: float
    kappa_pi: float
    eta_max: float


def map_supremum(driver: DriverOrbit) -> float:
    """sup over the driver range of the step map, euclidean norm.

    Logistic components admit the closed form mu/4 per component. For
    custom orbits without map metadata the orbit window maximum is used
    with a 10% margin.
    """
    if driver.mus is not None:
        return _logistic_sup(driver.mus)
    sup = float(np.max(np.linalg.norm(driver.values, axis=1)))
    for lim in (driver.left_limit, driver.right_limit):
        if lim is not None:
            sup = max(sup, float(np.linalg.norm(lim)))
    return CUSTOM_MAP_SUP_MARGIN * sup


def _logistic_sup(mus) -> float:
    """sup of a logistic step map, one mu per component: the norm of the maxima mu/4."""
    return float(np.linalg.norm([mu / 4.0 for mu in mus]))


def _solution_bound(envelope: DecayEnvelope, f: NonlinearityContract, map_sup: float) -> float:
    """N (M_f + M_F) / lambda from the parts of a system, which exist
    before the driver orbit that completes it."""
    return envelope.n_const * (f.bound_mf + map_sup) / envelope.rate


def _a4(envelope: DecayEnvelope, f: NonlinearityContract) -> tuple[float, float]:
    """(N (L1 + L2), lambda - N (L1 + L2)): the left side of (A4) and the contraction margin."""
    lhs = envelope.n_const * (f.lip_x + f.lip_y)
    return lhs, envelope.rate - lhs


def _require_a4(envelope: DecayEnvelope, f: NonlinearityContract) -> float:
    """The contraction margin; AssumptionFailureError when (A4) fails."""
    lhs, margin = _a4(envelope, f)
    if not lhs < envelope.rate:
        raise AssumptionFailureError(
            f"(A4) fails: N(L1+L2) = {lhs:.6g} >= lambda = {envelope.rate:.6g}"
        )
    return margin


def solution_bound(sys: EpcagSystem) -> float:
    """Lemma-level sup bound for any bounded solution: N (M_f + M_F) / lambda."""
    return _solution_bound(sys.envelope, sys.f, map_supremum(sys.driver))


def contraction_margin(sys: EpcagSystem) -> float:
    """lambda - N (L1 + L2), the (A4) margin; solution differences decay
    at rates below it (solver._tail_rates)."""
    return _a4(sys.envelope, sys.f)[1]


def _kappa_pi(sys: EpcagSystem) -> float:
    """Contraction factor of the solution operator, N (L1 + L2) / lambda."""
    return _a4(sys.envelope, sys.f)[0] / sys.envelope.rate


def assemble_system(
    a,
    schedule: Schedule,
    f: NonlinearityContract,
    driver: DriverOrbit,
    envelope: DecayEnvelope | None = None,
) -> EpcagSystem:
    """Validate all parts against each other and freeze them into a system.

    When no envelope is supplied one is estimated from the matrix. Either
    way the envelope is re-validated against the matrix, and the
    contract's declared bound and Lipschitz constants are spot-checked on
    SPOT_CHECK_SAMPLES (1000) deterministic pseudo-random points with
    ||x||, ||y|| <= 2 M_phi. A sampled quotient exceeding a declared
    constant by more than a relative 1e-6 raises ContractViolatedError.
    """
    a = np.asarray(a, dtype=float)
    if envelope is None:
        envelope = estimate_decay_envelope(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got shape {a.shape}")
    dim = a.shape[0]
    if driver.dim != dim:
        raise DimensionMismatchError(
            f"driver dimension {driver.dim} does not match matrix order {dim}"
        )
    probe = np.asarray(f.eval(0.0, np.zeros(dim), np.zeros(dim)), dtype=float)
    if probe.shape != (dim,):
        raise DimensionMismatchError(
            f"contract eval returned shape {probe.shape}, expected ({dim},)"
        )

    # 4002 points, of which only the ends lie on estimate_decay_envelope's
    # 4001-point scan (4000 and 4001 are coprime): an estimated envelope
    # is checked where its constant was not read off, so the check can
    # fail; the default slack of 1e-2 covers the rounding of that constant
    report = validate_envelope(a, envelope, envelope.validated_horizon / 4001.5)
    if not report.passed:
        raise AssumptionFailureError(
            f"envelope failed validation: max ratio {report.max_ratio:.6g} "
            f"at t = {report.t_at_max:.6g}"
        )

    sys = EpcagSystem(a=a, envelope=envelope, schedule=schedule, f=f, driver=driver)
    _spot_check_contract(sys)
    return sys


# SplitMix64's counter increment and output multipliers (Steele, Lea &
# Flood, OOPSLA 2014)
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))


def _uniforms(stream: int, n: int) -> np.ndarray:
    """n uniforms in [0, 1) from the spot check's stream `stream`:
    SplitMix64's output function on the counters SPOT_CHECK_SEED +
    gamma (2^32 stream + i), i = 1 .. n, the top 53 bits of each output
    times 2^-53. Every step works on arrays, which wrap silently; numpy
    warns on scalar uint64 overflow."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z += np.uint64(stream << 32)
    z *= np.uint64(_SPLITMIX_GAMMA)
    z += np.uint64(SPOT_CHECK_SEED)
    for shift, mult in _SPLITMIX_MIX:
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def _normals(stream: int, shape: tuple[int, int]) -> np.ndarray:
    """Standard normals of the given shape from one stream, by Box-Muller:
    the stream's first half gives the radii, its second half the angles,
    and the cosines fill the array before the sines."""
    n = shape[0] * shape[1]
    half = (n + 1) // 2
    u = _uniforms(stream, 2 * half)
    r = np.sqrt(-2.0 * np.log1p(-u[:half]))
    angle = 2.0 * np.pi * u[half:]
    return np.concatenate([r * np.cos(angle), r * np.sin(angle)])[:n].reshape(shape)


@functools.lru_cache(maxsize=SPOT_DESIGN_CACHE_SIZE)
def _spot_design(dim: int) -> tuple[np.ndarray, ...]:
    """The spot check's seeded draws, read-only: times ts, the unit
    directions and radial factors of the x and y balls, and the steps of
    the Lipschitz quotients. Only the ball radius differs between
    assemblies, so the draws are made once per dimension. Each of the
    seven drawn arrays has a stream of its own from _uniforms, a
    generator the package owns: numpy.random's streams may change between
    numpy releases (NEP 19), and importing it would cost every process
    that assembles a system about 6 MB and 12 ms."""
    count = SPOT_CHECK_SAMPLES

    def unit_rows(v):
        return v / _row_norms(v)[..., None]

    ts = -60.0 + 120.0 * _uniforms(0, count)
    x_dirs, x_radii = unit_rows(_normals(1, (count, dim))), _uniforms(2, count) ** (1.0 / dim)
    y_dirs, y_radii = unit_rows(_normals(3, (count, dim))), _uniforms(4, count) ** (1.0 / dim)
    # Lipschitz quotients: per sample a random direction plus each
    # coordinate axis, so directional structure cannot hide behind
    # averaging
    dirs = np.empty((count, dim + 1, dim))
    dirs[:, 0] = unit_rows(_normals(5, (count, dim)))
    dirs[:, 1:] = np.eye(dim)
    lengths = 1e-3 + 0.5 * _uniforms(6, count * (dim + 1)).reshape(count, dim + 1)
    design = (ts, x_dirs, x_radii, y_dirs, y_radii, dirs * lengths[:, :, None])
    for arr in design:
        arr.flags.writeable = False
    return design


def _spot_check_contract(sys: EpcagSystem) -> None:
    count, dim = SPOT_CHECK_SAMPLES, sys.dim
    f = sys.f
    radius = 2.0 * solution_bound(sys)
    slack = 1.0 + SPOT_CHECK_SLACK
    ts, x_dirs, x_radii, y_dirs, y_radii, steps = _spot_design(dim)
    # contracts get writable arrays of their own
    ts = ts.copy()
    xs = x_dirs * (radius * x_radii)[:, None]
    ys = y_dirs * (radius * y_radii)[:, None]

    val = np.asarray(eval_many(f, ts, xs, ys), dtype=float)
    if f.eval_batch is not None:
        _check_batch_matches_eval(f, ts, xs, ys, val)

    rep = dim + 1
    t_rep = np.repeat(ts, rep)
    x_rep, y_rep = np.repeat(xs, rep, axis=0), np.repeat(ys, rep, axis=0)
    flat_steps = steps.reshape(-1, dim)
    step_len = _row_norms(steps)

    def quotients(x_at, y_at):
        moved = eval_many(f, t_rep, x_at, y_at).reshape(count, rep, dim)
        return _row_norms(moved - val[:, None, :]) / step_len

    qx = quotients(x_rep + flat_steps, y_rep)
    qy = quotients(x_rep, y_rep + flat_steps)
    norms = _row_norms(val)

    # report the first violation in per-sample order: the bound, then for
    # each direction the x quotient and the y quotient
    lip = np.stack([qx > f.lip_x * slack + 1e-15, qy > f.lip_y * slack + 1e-15], axis=2)
    bad = np.column_stack([norms > f.bound_mf * slack, lip.reshape(count, -1)])
    if not bad.any():
        return
    i, col = np.unravel_index(int(np.argmax(bad)), bad.shape)
    if col == 0:
        raise ContractViolatedError(
            f"bound_mf: sampled ||f|| = {norms[i]:.6g} exceeds declared "
            f"{f.bound_mf:.6g} at t = {ts[i]:.6g}"
        )
    j, in_y = divmod(col - 1, 2)
    if in_y:
        raise ContractViolatedError(
            f"lip_y: sampled quotient {qy[i, j]:.6g} exceeds declared {f.lip_y:.6g}"
        )
    raise ContractViolatedError(
        f"lip_x: sampled quotient {qx[i, j]:.6g} exceeds declared {f.lip_x:.6g}"
    )


def _check_batch_matches_eval(f: NonlinearityContract, ts, xs, ys, batch: np.ndarray) -> None:
    """A contract's eval_batch must compute its eval. The solvers and the
    spot check take eval_batch where a contract has one; eval is the form
    the contract is declared by and the one eval_many falls back to.
    Both come from outside the program, so their agreement is checked. A
    contract declaring blocked_ys is also called on the sampled rows in
    consecutive pairs, each sharing its first row's argument, with one
    argument row per pair."""
    rows = np.linspace(0, len(ts) - 1, min(SPOT_CHECK_SCALAR_ROWS, len(ts))).astype(int)
    _check_rows(f, ts[rows], xs[rows], ys[rows], batch[rows])
    rows = rows[: len(rows) // 2 * 2]
    if not (f.blocked_ys and len(rows)):
        return
    ts, xs, ys = ts[rows], xs[rows], ys[rows[::2]]
    try:
        got = np.asarray(f.eval_batch(ts, xs, ys), dtype=float)
    except (ValueError, IndexError) as e:
        raise ContractViolatedError(f"eval_batch: declares blocked_ys but fails on blocks of two rows: {e}") from e
    if got.shape != xs.shape:
        raise ContractViolatedError(
            f"eval_batch: declares blocked_ys but returns shape {got.shape} on blocks of two rows, "
            f"expected {xs.shape}"
        )
    _check_rows(f, ts, xs, np.repeat(ys, 2, axis=0), got)


def _check_rows(f: NonlinearityContract, ts, xs, ys, batch: np.ndarray) -> None:
    """Each row of batch must equal f.eval on the same row to EVAL_BATCH_RTOL."""
    for t, x, y, row in zip(ts, xs, ys, batch):
        scalar = np.asarray(f.eval(float(t), x, y), dtype=float)
        gap = float(np.linalg.norm(scalar - row))
        if gap > EVAL_BATCH_RTOL * max(float(np.linalg.norm(scalar)), float(np.linalg.norm(row))):
            raise ContractViolatedError(
                f"eval_batch: row at t = {t:.6g} differs from eval by {gap:.3g}"
            )


def check_assumptions(sys: EpcagSystem) -> AssumptionReport:
    """Evaluate (A1)-(A5) and report margins.

    (A1)-(A3) hold by contract (positive bound, finite Lipschitz
    constants, both spot-checked at assembly); their declared values are
    echoed. (A4) and (A5) are computed from the envelope and schedule.
    """
    env = sys.envelope
    n, lam = env.n_const, env.rate
    l1, l2 = sys.f.lip_x, sys.f.lip_y
    w = sys.schedule.omega
    notes = []

    a4_lhs, a4_margin = _a4(env, sys.f)
    try:
        _require_a4(env, sys.f)
    except AssumptionFailureError as e:
        notes.append(str(e))
    a4_pass = not notes

    ehalf = math.exp(lam * w / 2.0)
    efull = math.exp(lam * w)
    a5_lhs = (n / lam) * (2.0 * l1 + l2 * ehalf * (efull - 1.0) / (1.0 - 1.0 / ehalf))
    a5_pass = a5_lhs < 1.0
    if not a5_pass:
        notes.append(f"(A5) fails: lhs = {a5_lhs:.6g} >= 1")

    if not (sys.f.bound_mf > 0.0 and math.isfinite(sys.f.bound_mf)):
        notes.append(f"(A1) fails: bound {sys.f.bound_mf!r} not a positive finite number")

    passed = a4_pass and a5_pass and not notes
    return AssumptionReport(
        f_bound=sys.f.bound_mf,
        lip_x=l1,
        lip_y=l2,
        a4_lhs=a4_lhs,
        a4_margin=a4_margin,
        a4_pass=a4_pass,
        a5_lhs=a5_lhs,
        a5_margin=1.0 - a5_lhs,
        a5_pass=a5_pass,
        passed=passed,
        notes=tuple(notes),
    )


def proof_constants(sys: EpcagSystem) -> ProofConstants:
    """Compute the quantitative constants of the existence and transfer
    estimates. Requires (A4); r1/r2/sigma_max additionally require (A5).
    """
    env = sys.envelope
    margin = _require_a4(env, sys.f)
    report = check_assumptions(sys)
    n, lam = env.n_const, env.rate
    l1, l2 = sys.f.lip_x, sys.f.lip_y
    map_sup = map_supremum(sys.driver)
    m_phi = _solution_bound(env, sys.f, map_sup)

    if not report.a5_pass:
        raise AssumptionFailureError(
            f"(A5) fails: lhs = {report.a5_lhs:.6g} >= 1; the stable-direction "
            "constants r1, r2 are undefined"
        )
    r1 = 2.0 * n * m_phi / (1.0 - report.a5_lhs)
    efull = math.exp(lam * sys.schedule.omega)
    r2_denom = 1.0 - n * l1 / lam - n * l2 * efull / lam
    r2 = (n / lam) / r2_denom

    return ProofConstants(
        map_sup=map_sup,
        m_phi=m_phi,
        r1=r1,
        r2=r2,
        sigma_max=1.0 / (r1 + r2),
        h_bound=2.0 * n * (m_phi + (sys.f.bound_mf + map_sup) / lam),
        kappa_pi=_kappa_pi(sys),
        eta_max=margin / n,
    )
