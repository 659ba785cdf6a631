"""Config parsing, artifact emission, and command execution.

Configs are JSON documents with the shape

    {
      "command": "solve",
      "system": {
        "matrix": [[2, -2], [5, -3]],
        "schedule": {"omega": 1.5, "origin": 0.0, "zeta_fraction": 0.333...},
        "f": {"catalog": "example4"},
        "envelope": {"n_const": 3.3129375336, "rate": 0.5, "horizon": 60.0}
      },
      "driver": {"map": "logistic", "mu": 3.9, "kind": "homoclinic",
                 "seed": 0.2564..., "branch": "upper_H"},
      "targets": [ ...driver blocks, certify only... ],
      "numeric": {"substeps": 200, "tol": 1e-8, "window": 30,
                  "method": "picard", "cert_tol": 1e-4},
      "out_dir": "results"
    }

The envelope block is optional (estimated from the matrix when absent),
as are the driver's k_min/k_max (sized to cover the solve window plus
the lead-in pad; orbit takes build_orbit's default window). Scalar map
orbits drive both components of a 2-D system; higher dimensions are
library-API territory.

All files are written atomically (temp file + rename), with %.17g
number formatting and LF line endings, so identical runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
import sys as _sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import CONNECTION_KINDS as MODES
from .analysis import ConnectionCertificate, certify_connection
from .driver import BRANCHES, ORBIT_KINDS, DriverOrbit, ScalarMap, build_orbit, pair_orbits
from .errors import AssumptionFailureError, EpcagError, IoError, ParseError, ValidationError
from .linear import DecayEnvelope, estimate_decay_envelope
from .nonlinearity import example_contract, zero_contract
from .reference import heteroclinic_scenario, homoclinic_scenario
from .schedule import _real, make_schedule
from .solver import (
    METHODS,
    MIN_SUBSTEPS,
    SampledTrajectory,
    _coverage_range,
    _lead_in_pad,
    residual_defect,
    solve_bounded,
)
from .system import _logistic_sup, assemble_system, check_assumptions, proof_constants

COMMANDS = ("check", "constants", "orbit", "solve", "certify", "example4")
F_CATALOGS = ("example4", "zero")


@dataclass(frozen=True)
class EnvelopeSpec:
    n_const: float
    rate: float
    horizon: float = 60.0


@dataclass(frozen=True)
class SystemSpec:
    matrix: tuple
    omega: float
    origin: float = 0.0
    zeta_fraction: float = 0.0
    f_catalog: str = "example4"
    envelope: EnvelopeSpec | None = None


@dataclass(frozen=True, kw_only=True)
class DriverSpec:
    map: str = "logistic"
    mu: float
    kind: str
    seed: float
    branch: str | None = None
    k_min: int | None = None
    k_max: int | None = None


@dataclass(frozen=True)
class NumericSpec:
    substeps: int = 200
    tol: float = 1e-8
    window: int = 30
    method: str = "picard"
    cert_tol: float = 1e-4


@dataclass(frozen=True)
class RunSpec:
    command: str
    mode: str | None = None
    system: SystemSpec | None = None
    driver: DriverSpec | None = None
    targets: tuple = ()
    numeric: NumericSpec = field(default_factory=NumericSpec)
    out_dir: str | None = None


# ---------------------------------------------------------------------------
# parsing
#
# Each block is a table of (JSON key, spec attribute, kind, check, message)
# rows: kind is float, int or a tuple of allowed values, and a value that
# fails the optional check is rejected with the message. Defaults come from
# the spec dataclass; a field without one is required.


def _positive(v):
    return v > 0


_RUN = (("command", "command", COMMANDS), ("mode", "mode", MODES))
_SCHEDULE = (
    ("omega", "omega", float, _positive, "must be positive"),
    ("origin", "origin", float),
    ("zeta_fraction", "zeta_fraction", float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
)
_F = (("catalog", "f_catalog", F_CATALOGS),)
_ENVELOPE = (
    ("n_const", "n_const", float, lambda v: v >= 1.0, "must be >= 1"),
    ("rate", "rate", float, _positive, "must be positive"),
    ("horizon", "horizon", float, _positive, "must be positive"),
)
_DRIVER = (
    ("map", "map", ("logistic",)),
    ("mu", "mu", float, lambda v: 0.0 < v <= 4.0, "must lie in (0, 4]"),
    ("kind", "kind", ORBIT_KINDS),
    ("seed", "seed", float),
    ("branch", "branch", BRANCHES),
    ("k_min", "k_min", int),
    ("k_max", "k_max", int),
)
_NUMERIC = (
    ("substeps", "substeps", int, lambda v: v >= MIN_SUBSTEPS, f"must be at least {MIN_SUBSTEPS}"),
    ("tol", "tol", float, _positive, "must be positive"),
    ("window", "window", int, lambda v: v >= 1, "must be at least 1"),
    ("method", "method", METHODS),
    ("cert_tol", "cert_tol", float, _positive, "must be positive"),
)


def _require_dict(obj, fieldname):
    if not isinstance(obj, dict):
        raise ValidationError(fieldname, "must be an object")
    return obj


def _check_keys(obj: dict, allowed, fieldname: str) -> None:
    for key in obj:
        if key not in allowed:
            prefix = f"{fieldname}.{key}" if fieldname else key
            raise ValidationError(prefix, "unknown field")


def _parse_fields(obj, table, spec_cls, prefix: str, allowed=None) -> dict:
    """The checked values of one block, by spec attribute. allowed widens
    the accepted keys beyond the table's (the top level holds blocks)."""
    obj = _require_dict(obj, prefix)
    _check_keys(obj, allowed or [row[0] for row in table], prefix)
    defaults = {f.name: f.default for f in fields(spec_cls)}
    out = {}
    for key, attr, kind, *check in table:
        name = f"{prefix}.{key}" if prefix else key
        if key not in obj:
            if defaults[attr] is MISSING:
                raise ValidationError(name, "missing required field")
            out[attr] = defaults[attr]
            continue
        v = obj[key]
        if isinstance(kind, tuple):
            if v not in kind:
                raise ValidationError(name, f"must be one of {', '.join(kind)}")
        elif kind is float:
            if not _real(v):
                raise ValidationError(name, "must be a finite number")
            v = float(v)
        elif isinstance(v, bool) or not isinstance(v, int):
            raise ValidationError(name, "must be an integer")
        if check and not check[0](v):
            raise ValidationError(name, check[1])
        out[attr] = v
    return out


def _parse_matrix(obj) -> tuple:
    rows = obj.get("matrix")
    if not isinstance(rows, list) or not rows:
        raise ValidationError("system.matrix", "must be a nonempty array of rows")
    m = len(rows)
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != m:
            raise ValidationError("system.matrix", "must be square")
        if not all(_real(x) for x in row):
            raise ValidationError("system.matrix", "entries must be finite numbers")
        out.append(tuple(float(x) for x in row))
    return tuple(out)


def _parse_system(obj) -> SystemSpec:
    obj = _require_dict(obj, "system")
    _check_keys(obj, {"matrix", "schedule", "f", "envelope"}, "system")
    matrix = _parse_matrix(obj)
    values = _parse_fields(obj.get("schedule", {}), _SCHEDULE, SystemSpec, "schedule")
    values |= _parse_fields(obj.get("f", {}), _F, SystemSpec, "f")
    if obj.get("envelope") is not None:
        envelope = _parse_fields(obj["envelope"], _ENVELOPE, EnvelopeSpec, "envelope")
        values["envelope"] = EnvelopeSpec(**envelope)
    return SystemSpec(matrix=matrix, **values)


def _parse_driver(obj, fieldname="driver") -> DriverSpec:
    d = DriverSpec(**_parse_fields(obj, _DRIVER, DriverSpec, fieldname))
    if d.kind != "fixed" and d.branch is None:
        raise ValidationError(f"{fieldname}.branch", f"required for {d.kind} orbits")
    if (d.k_min is None) != (d.k_max is None):
        raise ValidationError(f"{fieldname}.k_min", "k_min and k_max must be given together")
    if d.k_min is not None and d.k_min >= d.k_max:
        raise ValidationError(f"{fieldname}.k_min", "must be below k_max")
    return d


def parse_numeric(obj) -> NumericSpec:
    """Checked numeric block; the command line's overrides go through here too."""
    return NumericSpec(**_parse_fields(obj, _NUMERIC, NumericSpec, "numeric"))


def check_mode(command: str, mode: str | None) -> None:
    """Reject a mode for any command but example4; --mode goes through here too."""
    if mode is not None and command != "example4":
        raise ValidationError("mode", "only the example4 command takes a mode")


def parse_config(text: str) -> RunSpec:
    """Parse and validate a JSON config into a RunSpec with defaults."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    head = _parse_fields(obj, _RUN, RunSpec, "", allowed=[f.name for f in fields(RunSpec)])
    command, mode = head["command"], head["mode"]
    if command == "example4" and mode is None:
        mode = "homoclinic"

    system = _parse_system(obj["system"]) if obj.get("system") is not None else None
    driver = _parse_driver(obj["driver"]) if obj.get("driver") is not None else None
    targets = ()
    if obj.get("targets") is not None:
        raw = obj["targets"]
        if not isinstance(raw, list):
            raise ValidationError("targets", "must be an array of driver blocks")
        targets = tuple(_parse_driver(t, f"targets[{i}]") for i, t in enumerate(raw))
    numeric = parse_numeric(obj.get("numeric", {}))
    out_dir = obj.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ValidationError("out_dir", "must be a string path")

    needs_system = command in ("check", "constants", "solve", "certify")
    if needs_system and system is None:
        raise ValidationError("system", f"required for the {command} command")
    if command in ("check", "constants", "orbit", "solve", "certify") and driver is None:
        raise ValidationError("driver", f"required for the {command} command")
    if command == "certify":
        if not 1 <= len(targets) <= 2:
            raise ValidationError("targets", "certify needs one or two target orbits")
    elif targets:
        raise ValidationError("targets", f"not used by the {command} command")
    check_mode(command, mode)
    return RunSpec(command=command, mode=mode, system=system, driver=driver,
                   targets=targets, numeric=numeric, out_dir=out_dir)


# ---------------------------------------------------------------------------
# building runtime objects from specs


def _auto_range(spec: RunSpec, sys_parts) -> tuple[int, int]:
    """Coverage window for the solve window and the lead-in pad implied
    by the system constants."""
    envelope, contract = sys_parts
    window = spec.numeric.window
    # the scalar orbit is paired into both components
    map_sup = _logistic_sup((spec.driver.mu, spec.driver.mu))
    try:
        pad = _lead_in_pad(envelope, contract, map_sup, spec.system.omega, spec.system.zeta_fraction,
                           spec.numeric.tol)
    except AssumptionFailureError:
        pad = 1  # no contraction margin: still build the system so that check can report it
    return _coverage_range(window, pad)


def _build_scalar_orbit(dspec: DriverSpec, **window) -> DriverOrbit:
    """window holds k_min and k_max, or neither for build_orbit's defaults."""
    return build_orbit(
        ScalarMap(dspec.map, dspec.mu),
        dspec.kind,
        dspec.seed,
        backward_branch=dspec.branch,
        **window,
    )


def _build_system_and_driver(spec: RunSpec):
    s = spec.system
    a = np.array(s.matrix)
    if a.shape != (2, 2):
        raise ValidationError(
            "system.matrix",
            "config-driven runs pair one scalar orbit into two components; the matrix must be 2x2",
        )
    schedule = make_schedule(s.omega, s.origin, s.zeta_fraction)
    contract = example_contract() if s.f_catalog == "example4" else zero_contract(2)
    if s.envelope is not None:
        envelope = DecayEnvelope(
            n_const=s.envelope.n_const, rate=s.envelope.rate,
            validated_horizon=s.envelope.horizon, sample_count=0,
        )
    else:
        envelope = estimate_decay_envelope(a)

    def paired(dspec: DriverSpec) -> DriverOrbit:
        if dspec.k_min is not None:
            k_min, k_max = dspec.k_min, dspec.k_max
        else:
            k_min, k_max = _auto_range(spec, (envelope, contract))
        scalar = _build_scalar_orbit(dspec, k_min=k_min, k_max=k_max)
        return pair_orbits(scalar, scalar)

    driver = paired(spec.driver)
    system = assemble_system(a, schedule, contract, driver, envelope=envelope)
    targets = tuple(paired(t) for t in spec.targets)
    return system, driver, targets


# ---------------------------------------------------------------------------
# artifact emission

_FMT = "%.17g"
_CSV_BLOCK_ROWS = 1000


def _atomic_write(path: Path, text: str) -> None:
    """Write text to path through path.tmp, which a failed write or
    replace removes again."""
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        tmp.unlink(missing_ok=True)
        raise IoError(f"cannot write {path}: {e}") from None


def _write_json(obj, path: Path) -> None:
    _atomic_write(path, json.dumps(obj, indent=2) + "\n")


def _write_csv(path, header: str, row: str, table: np.ndarray) -> None:
    """The header line, then `row % values` for each table row. Each block
    of _CSV_BLOCK_ROWS rows is one %, the row format repeated once per
    row, on the block's Python floats, so few small objects are alive at
    once."""
    row += "\n"
    parts = [header + "\n"]
    for lo in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[lo : lo + _CSV_BLOCK_ROWS]
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    _atomic_write(Path(path), "".join(parts))


def export_orbit_csv(orbit: DriverOrbit, path) -> None:
    """k, alpha_1, ..., alpha_m rows over the orbit's stored window."""
    header = "k," + ",".join(f"alpha_{i + 1}" for i in range(orbit.dim))
    ks = np.arange(orbit.k_min, orbit.k_max + 1)
    _write_csv(path, header, "%d," + ",".join([_FMT] * orbit.dim), np.column_stack([ks, orbit.values]))


def export_trajectory_csv(traj: SampledTrajectory, path) -> None:
    """t, z_1, ..., z_m, interval_k rows; the last row's node belongs to
    the right interval, matching the half-open convention."""
    n, dim = traj.samples.shape
    header = "t," + ",".join(f"z_{i + 1}" for i in range(dim)) + ",interval_k"
    row = ",".join([_FMT] * (dim + 1)) + ",%d"
    ks = traj.k_window[0] + np.arange(n) // traj.substeps
    _write_csv(path, header, row, np.column_stack([traj.times, traj.samples, ks]))


def export_frozen_csv(traj: SampledTrajectory, path) -> None:
    """k, zeta_k, w_1, ..., w_m rows for the stored frozen arguments."""
    dim = traj.frozen.shape[1]
    header = "k,zeta_k," + ",".join(f"w_{i + 1}" for i in range(dim))
    ks = np.arange(*traj.k_window)
    table = np.column_stack([ks, traj.schedule.zeta(ks), traj.frozen])
    _write_csv(path, header, "%d," + ",".join([_FMT] * (dim + 1)), table)


def certificate_dict(cert: ConnectionCertificate, envelope_n: float, envelope_rate: float) -> dict:
    pc = cert.constants
    return {
        "kind": cert.kind,
        "verdict": cert.verdict,
        "forward": {
            "end_gap": cert.forward.end_gap,
            "fitted_rate": cert.forward.fitted_rate,
            "fit_quality": cert.forward.fit_quality,
        },
        "backward": {
            "end_gap": cert.backward.end_gap,
            "fitted_rate": cert.backward.fitted_rate,
            "fit_quality": cert.backward.fit_quality,
        },
        "distinctness": cert.distinctness,
        "constants": {
            "N": envelope_n,
            "lambda": envelope_rate,
            "M_phi": pc.m_phi,
            "R1": pc.r1,
            "R2": pc.r2,
            "kappa_pi": pc.kappa_pi,
        },
    }


# ---------------------------------------------------------------------------
# command execution


def _out_dir(spec: RunSpec) -> Path:
    root = spec.out_dir or os.environ.get("EPCAG_OUT_DIR") or os.getcwd()
    path = Path(root)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create output directory {path}: {e}") from None
    return path


def _emit(path: Path, writer, *args) -> None:
    writer(*args, path)
    print(f"wrote {path}")


def _run_certification(system, beta, alphas, kind, numeric: NumericSpec, out: Path) -> int:
    n = numeric
    cert = certify_connection(
        system, alphas, beta, kind, n.cert_tol,
        window=n.window, substeps=n.substeps, solve_tol=n.tol, method=n.method,
    )
    traj_beta, *traj_alphas = cert.trajectories
    _emit(out / "beta.csv", export_orbit_csv, beta)
    _emit(out / "traj_beta.csv", export_trajectory_csv, traj_beta)
    names = ("alpha",) if kind == "homoclinic" else ("alpha1", "alpha2")
    for name, alpha in zip(names, alphas):
        _emit(out / f"{name}.csv", export_orbit_csv, alpha)
    for name, traj in zip(names, traj_alphas):
        _emit(out / f"traj_{name}.csv", export_trajectory_csv, traj)
    _emit(out / "certificate.json", _write_json,
          certificate_dict(cert, system.envelope.n_const, system.envelope.rate))
    print(f"verdict: {'pass' if cert.verdict else 'fail'} "
          f"(forward end gap {cert.forward.end_gap:.3g}, backward {cert.backward.end_gap:.3g}, "
          f"distinctness {cert.distinctness:.3g})")
    return 0 if cert.verdict else 2


def run(spec: RunSpec) -> int:
    """Execute a RunSpec: 0 = pass, 2 = computed but verdict/check failed,
    1 = error (diagnostic on stderr)."""
    try:
        return _run(spec)
    except (EpcagError, OSError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1


def _run(spec: RunSpec) -> int:
    out = _out_dir(spec)
    n = spec.numeric

    if spec.command == "example4":
        maker = homoclinic_scenario if spec.mode == "homoclinic" else heteroclinic_scenario
        scenario = maker(window=n.window, tol=n.tol)
        return _run_certification(
            scenario.system, scenario.beta, scenario.alphas, scenario.kind, n, out
        )

    if spec.command == "orbit":
        d = spec.driver
        window = {} if d.k_min is None else {"k_min": d.k_min, "k_max": d.k_max}
        orbit = _build_scalar_orbit(d, **window)
        _emit(out / "orbit.csv", export_orbit_csv, orbit)
        return 0

    system, driver, targets = _build_system_and_driver(spec)

    if spec.command == "check":
        report = check_assumptions(system)
        _emit(out / "check_report.json", _write_json, asdict(report))
        print(f"a4_lhs={report.a4_lhs:.6g} a5_lhs={report.a5_lhs:.6g} "
              f"passed={'yes' if report.passed else 'no'}")
        return 0 if report.passed else 2

    if spec.command == "constants":
        _emit(out / "constants.json", _write_json, asdict(proof_constants(system)))
        return 0

    if spec.command == "solve":
        traj = solve_bounded(system, (-n.window, n.window), n.substeps, n.tol, n.method)
        _emit(out / "trajectory.csv", export_trajectory_csv, traj)
        _emit(out / "frozen_args.csv", export_frozen_csv, traj)
        passes = traj.meta.get("inner_iterations")
        stage = f" at most, {sum(passes)} inner passes over {len(passes)} intervals" if passes else ""
        print(f"sup norm {traj.meta['sup_norm']:.6g}, residual defect {residual_defect(system, traj):.3g}, "
              f"{traj.meta['iterations']} iterations{stage}, tail bound {traj.meta['tail_bound']:.3g}, "
              f"{traj.meta['f_evals']} f evaluations")
        return 0

    # certify
    kind = "homoclinic" if len(targets) == 1 else "heteroclinic"
    return _run_certification(system, driver, targets, kind, n, out)
