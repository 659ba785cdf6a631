"""Config parsing, artifact formats, command execution, CLI."""

import filecmp
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import epcag
from epcag import (
    REFERENCE_N,
    DecayEnvelope,
    RunSpec,
    assemble_system,
    build_orbit,
    certificate_dict,
    custom_contract,
    estimate_decay_envelope,
    export_frozen_csv,
    export_orbit_csv,
    export_trajectory_csv,
    main,
    make_schedule,
    map_supremum,
    pair_orbits,
    parse_config,
    reference_matrix,
    run,
)
from epcag.errors import IoError, ParseError, ValidationError
from epcag.io import DriverSpec, NumericSpec, SystemSpec, _auto_range, _write_csv
from epcag.solver import NODES, _lead_in_pad


def reference_config(command, **over):
    cfg = {
        "command": command,
        "system": {
            "matrix": [[2.0, -2.0], [5.0, -3.0]],
            "schedule": {"omega": 1.5, "origin": 0.0, "zeta_fraction": 1.0 / 3.0},
            "f": {"catalog": "example4"},
            "envelope": {"n_const": REFERENCE_N, "rate": 0.5, "horizon": 60.0},
        },
        "driver": {"map": "logistic", "mu": 4.0, "kind": "fixed", "seed": 0.75},
    }
    cfg.update(over)
    return cfg


def parse(cfg) -> RunSpec:
    return parse_config(json.dumps(cfg))


class TestParse:
    def test_minimal_example4(self):
        spec = parse_config('{"command": "example4", "mode": "homoclinic"}')
        assert spec.command == "example4"
        assert spec.mode == "homoclinic"
        assert spec.numeric.substeps == 200
        assert spec.numeric.window == 30

    def test_example4_mode_defaults(self):
        assert parse_config('{"command": "example4"}').mode == "homoclinic"

    def test_full_system_block(self):
        spec = parse(reference_config("check"))
        assert spec.system.matrix == ((2.0, -2.0), (5.0, -3.0))
        assert spec.system.omega == 1.5
        assert spec.system.envelope.rate == 0.5
        assert spec.driver.kind == "fixed"

    def test_bad_json_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_config('{"command": "check",\n  nope}')
        assert exc.value.line == 2
        assert exc.value.column is not None

    def test_negative_omega(self):
        cfg = reference_config("check")
        cfg["system"]["schedule"]["omega"] = -1.0
        with pytest.raises(ValidationError) as exc:
            parse(cfg)
        assert exc.value.field == "schedule.omega"

    def test_unknown_field_rejected(self):
        cfg = reference_config("check")
        cfg["system"]["dampening"] = 0.1
        with pytest.raises(ValidationError) as exc:
            parse(cfg)
        assert "dampening" in exc.value.field

    def test_unknown_command(self):
        with pytest.raises(ValidationError):
            parse_config('{"command": "integrate"}')

    def test_missing_blocks(self):
        with pytest.raises(ValidationError) as exc:
            parse_config('{"command": "check"}')
        assert exc.value.field == "system"
        cfg = reference_config("check")
        del cfg["driver"]
        with pytest.raises(ValidationError) as exc:
            parse(cfg)
        assert exc.value.field == "driver"

    def test_branch_required_for_connecting_orbits(self):
        cfg = reference_config("orbit")
        del cfg["system"]
        cfg["driver"] = {"map": "logistic", "mu": 4.0, "kind": "heteroclinic", "seed": 0.25}
        with pytest.raises(ValidationError) as exc:
            parse(cfg)
        assert exc.value.field == "driver.branch"

    def test_window_bounds_come_together(self):
        cfg = reference_config("check")
        cfg["driver"]["k_min"] = -5
        with pytest.raises(ValidationError):
            parse(cfg)

    def test_targets_only_for_certify(self):
        cfg = reference_config("check", targets=[{"map": "logistic", "mu": 4.0,
                                                  "kind": "fixed", "seed": 0.75}])
        with pytest.raises(ValidationError) as exc:
            parse(cfg)
        assert exc.value.field == "targets"

    def test_certify_target_count(self):
        cfg = reference_config("certify", targets=[])
        with pytest.raises(ValidationError):
            parse(cfg)

    def test_numeric_guards(self):
        cfg = reference_config("check", numeric={"substeps": 2})
        with pytest.raises(ValidationError) as exc:
            parse(cfg)
        assert exc.value.field == "numeric.substeps"


DROP = object()  # mutation value that deletes the key


def certify_config():
    """A config that sets every field of every block."""
    return reference_config(
        "certify",
        driver={"map": "logistic", "mu": 4.0, "kind": "heteroclinic", "seed": 0.25,
                "branch": "lower_G"},
        targets=[{"map": "logistic", "mu": 4.0, "kind": "fixed", "seed": 0.75,
                  "k_min": -50, "k_max": 40}],
        numeric={"substeps": 100, "tol": 1e-7, "window": 10, "method": "burn_in",
                 "cert_tol": 1e-3},
        out_dir="artifacts",
    )


# (path, value, field, message): setting path to value in certify_config()
# gives one of every validation message the parser has
MALFORMED = [
    (("bogus",), 1, "bogus", "unknown field"),
    (("command",), DROP, "command", "missing required field"),
    (("command",), "integrate", "command",
     "must be one of check, constants, orbit, solve, certify, example4"),
    (("mode",), "sideways", "mode", "must be one of homoclinic, heteroclinic"),
    (("system",), [], "system", "must be an object"),
    (("system", "dampening"), 0.1, "system.dampening", "unknown field"),
    (("system", "matrix"), [], "system.matrix", "must be a nonempty array of rows"),
    (("system", "matrix"), [[2.0, -2.0]], "system.matrix", "must be square"),
    (("system", "matrix"), [[2.0, "x"], [5.0, -3.0]], "system.matrix",
     "entries must be finite numbers"),
    (("system", "schedule"), None, "schedule", "must be an object"),
    (("system", "schedule", "period"), 1, "schedule.period", "unknown field"),
    (("system", "schedule", "omega"), DROP, "schedule.omega", "missing required field"),
    (("system", "schedule", "omega"), True, "schedule.omega", "must be a finite number"),
    (("system", "schedule", "omega"), 0, "schedule.omega", "must be positive"),
    (("system", "schedule", "origin"), "0", "schedule.origin", "must be a finite number"),
    (("system", "schedule", "zeta_fraction"), 1.5, "schedule.zeta_fraction", "must lie in [0, 1]"),
    (("system", "f"), "example4", "f", "must be an object"),
    (("system", "f", "scale"), 2, "f.scale", "unknown field"),
    (("system", "f", "catalog"), "cubic", "f.catalog", "must be one of example4, zero"),
    (("system", "envelope"), [], "envelope", "must be an object"),
    (("system", "envelope", "slack"), 0, "envelope.slack", "unknown field"),
    (("system", "envelope", "n_const"), DROP, "envelope.n_const", "missing required field"),
    (("system", "envelope", "rate"), DROP, "envelope.rate", "missing required field"),
    (("system", "envelope", "n_const"), 0.5, "envelope.n_const", "must be >= 1"),
    (("system", "envelope", "rate"), 0.0, "envelope.rate", "must be positive"),
    (("system", "envelope", "horizon"), -1.0, "envelope.horizon", "must be positive"),
    (("system", "envelope", "horizon"), "long", "envelope.horizon", "must be a finite number"),
    (("driver",), [], "driver", "must be an object"),
    (("driver", "period"), 2, "driver.period", "unknown field"),
    (("driver", "map"), "tent", "driver.map", "must be one of logistic"),
    (("driver", "mu"), DROP, "driver.mu", "missing required field"),
    (("driver", "mu"), 4.5, "driver.mu", "must lie in (0, 4]"),
    (("driver", "kind"), DROP, "driver.kind", "missing required field"),
    (("driver", "kind"), "periodic", "driver.kind",
     "must be one of fixed, homoclinic, heteroclinic"),
    (("driver", "seed"), DROP, "driver.seed", "missing required field"),
    (("driver", "branch"), "middle", "driver.branch", "must be one of lower_G, upper_H"),
    (("driver", "branch"), DROP, "driver.branch", "required for heteroclinic orbits"),
    (("driver", "k_min"), 1.5, "driver.k_min", "must be an integer"),
    (("driver", "k_max"), "40", "driver.k_max", "must be an integer"),
    (("driver", "k_min"), -5, "driver.k_min", "k_min and k_max must be given together"),
    (("driver", "k_max"), 40, "driver.k_min", "k_min and k_max must be given together"),
    (("targets",), {}, "targets", "must be an array of driver blocks"),
    (("targets",), [], "targets", "certify needs one or two target orbits"),
    (("targets", 0), 3, "targets[0]", "must be an object"),
    (("targets", 0, "seed"), None, "targets[0].seed", "must be a finite number"),
    (("targets", 0, "k_min"), 50, "targets[0].k_min", "must be below k_max"),
    (("targets", 0, "k_min"), 40, "targets[0].k_min", "must be below k_max"),
    (("numeric",), [], "numeric", "must be an object"),
    (("numeric", "precision"), 1, "numeric.precision", "unknown field"),
    (("numeric", "substeps"), 2, "numeric.substeps", "must be at least 4"),
    (("numeric", "substeps"), 100.0, "numeric.substeps", "must be an integer"),
    (("numeric", "tol"), 0, "numeric.tol", "must be positive"),
    (("numeric", "window"), 0, "numeric.window", "must be at least 1"),
    (("numeric", "method"), "rk4", "numeric.method", "must be one of picard, burn_in"),
    (("numeric", "cert_tol"), -1e-3, "numeric.cert_tol", "must be positive"),
    (("out_dir",), 7, "out_dir", "must be a string path"),
    (("command",), "check", "targets", "not used by the check command"),
    (("system",), DROP, "system", "required for the certify command"),
    (("driver",), DROP, "driver", "required for the certify command"),
]


def _malformed_ids(cases):
    # "field: message", with the mutated key and value appended when that
    # pair repeats, so each case keeps a stable id of its own
    ids = []
    for path, value, field, message in cases:
        case_id = f"{field}: {message}"
        if case_id in ids:
            case_id += f" ({path[-1]}={value!r})"
        ids.append(case_id)
    return ids


@pytest.mark.parametrize("path, value, field, message", MALFORMED,
                         ids=_malformed_ids(MALFORMED))
def test_validation_field_and_message(path, value, field, message):
    cfg = certify_config()
    *parents, last = path
    block = cfg
    for key in parents:
        block = block[key]
    if value is DROP:
        del block[last]
    else:
        block[last] = value
    with pytest.raises(ValidationError) as exc:
        parse(cfg)
    assert type(exc.value) is ValidationError
    assert exc.value.field == field
    assert str(exc.value) == f"{field}: {message}"


@pytest.mark.parametrize("command", ["check", "constants", "orbit", "solve", "certify"])
def test_mode_only_for_example4(command):
    cfg = certify_config() if command == "certify" else reference_config(command)
    cfg["mode"] = "heteroclinic"
    with pytest.raises(ValidationError) as exc:
        parse(cfg)
    assert exc.value.field == "mode"
    assert str(exc.value) == "mode: only the example4 command takes a mode"


def test_top_level_must_be_an_object():
    with pytest.raises(ParseError) as exc:
        parse_config("[]")
    assert str(exc.value) == "top level must be an object"


def small_orbit():
    orb = build_orbit(4.0, "fixed", 0.75, k_min=-2, k_max=2)
    return pair_orbits(orb, orb)


class TestExports:
    def test_orbit_csv(self, tmp_path):
        path = tmp_path / "orbit.csv"
        export_orbit_csv(small_orbit(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,alpha_1,alpha_2"
        assert len(lines) == 6
        assert lines[1] == "-2,0.75,0.75"

    def test_trajectory_csv(self, tmp_path, homo_traj):
        path = tmp_path / "traj.csv"
        export_trajectory_csv(homo_traj, path)
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "t,z_1,z_2,interval_k"
        assert len(lines) == 8002
        first = lines[1].split(",")
        assert first[0] == "-30" and first[3] == "-20"
        # %.17g must reproduce the double exactly
        row = lines[3].split(",")
        assert float(row[1]) == homo_traj.samples[2, 0]
        assert float(row[2]) == homo_traj.samples[2, 1]
        assert lines[-1].split(",")[3] == "20"

    def test_trajectory_csv_bytes_match_per_element_formatting(self, tmp_path, homo_traj):
        path = tmp_path / "traj.csv"
        export_trajectory_csv(homo_traj, path)
        fmt = "%.17g"
        lines = ["t,z_1,z_2,interval_k"]
        for r in range(len(homo_traj.samples)):
            vals = ",".join(fmt % x for x in homo_traj.samples[r])
            lines.append(f"{fmt % homo_traj.times[r]},{vals},{-20 + r // 200}")
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("rows", [0, 1, 999, 1000, 1001, 2500])
    def test_csv_blocks_match_per_row_formatting(self, tmp_path, rows):
        # _write_csv formats a block of rows with one %; the bytes are
        # those of one % per row
        ks = np.arange(rows) - 7
        vals = np.sin(np.arange(2 * rows, dtype=float)).reshape(rows, 2) * 1e3
        vals.ravel()[::7] = -0.0
        vals.ravel()[3::11] = 1e-300
        table = np.column_stack([ks, vals, ks])
        row = "%d,%.17g,%.17g,%d"
        path = tmp_path / "table.csv"
        _write_csv(path, "k,a,b,j", row, table)
        expected = "k,a,b,j\n" + "".join(row % tuple(r) + "\n" for r in table.tolist())
        assert path.read_bytes() == expected.encode()

    def test_frozen_csv(self, tmp_path, homo_traj):
        path = tmp_path / "frozen.csv"
        export_frozen_csv(homo_traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,zeta_k,w_1,w_2"
        assert len(lines) == 41  # one per interval of the +-20 window
        k0_row = lines[21].split(",")
        assert k0_row[0] == "0" and k0_row[1] == "0.5"
        w0 = homo_traj.frozen[20]  # interval 0 of the window from -20
        assert float(k0_row[2]) == w0[0]

    def test_unwritable_target(self, tmp_path):
        with pytest.raises(IoError):
            export_orbit_csv(small_orbit(), tmp_path / "missing_dir" / "orbit.csv")


class TestCertificateDict:
    def test_key_order(self, homo_cert):
        d = certificate_dict(homo_cert, REFERENCE_N, 0.5)
        assert list(d) == ["kind", "verdict", "forward", "backward", "distinctness", "constants"]
        assert list(d["forward"]) == ["end_gap", "fitted_rate", "fit_quality"]
        assert list(d["backward"]) == ["end_gap", "fitted_rate", "fit_quality"]
        assert list(d["constants"]) == ["N", "lambda", "M_phi", "R1", "R2", "kappa_pi"]

    def test_values_serialize(self, homo_cert):
        d = certificate_dict(homo_cert, REFERENCE_N, 0.5)
        text = json.dumps(d)
        back = json.loads(text)
        assert back["verdict"] is True
        assert back["constants"]["lambda"] == 0.5
        assert back["distinctness"] == homo_cert.distinctness


class TestRun:
    def test_orbit_command(self, tmp_path, capsys):
        cfg = {"command": "orbit", "out_dir": str(tmp_path),
               "driver": {"map": "logistic", "mu": 4.0, "kind": "heteroclinic",
                          "seed": 0.25, "branch": "lower_G", "k_min": -15, "k_max": 10}}
        assert run(parse(cfg)) == 0
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines[0] == "k,alpha_1"
        # backward widening may extend below the requested k_min
        assert len(lines) >= 27
        assert "orbit.csv" in capsys.readouterr().out

    def test_orbit_command_default_window(self, tmp_path, capsys):
        # without k_min/k_max the command writes build_orbit's own window
        driver = {"map": "logistic", "mu": 3.9, "kind": "homoclinic",
                  "seed": 0.2564102564102564, "branch": "upper_H"}
        assert run(parse({"command": "orbit", "out_dir": str(tmp_path), "driver": driver})) == 0
        export_orbit_csv(build_orbit(3.9, "homoclinic", driver["seed"], backward_branch="upper_H"),
                         tmp_path / "direct.csv")
        written = (tmp_path / "orbit.csv").read_bytes()
        assert written == (tmp_path / "direct.csv").read_bytes()
        assert written.splitlines()[-1].startswith(b"40,")
        capsys.readouterr()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        # a directory holds orbit.csv's name, so replacing it with the
        # written temporary file fails; the temporary file goes too
        (tmp_path / "orbit.csv").mkdir()
        driver = {"map": "logistic", "mu": 3.9, "kind": "homoclinic",
                  "seed": 0.2564102564102564, "branch": "upper_H"}
        assert run(parse({"command": "orbit", "out_dir": str(tmp_path), "driver": driver})) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {tmp_path / 'orbit.csv'}: ")
        assert captured.out == ""
        assert not list(tmp_path.glob("*.tmp"))

    def test_check_command(self, tmp_path, capsys):
        cfg = reference_config("check", out_dir=str(tmp_path))
        assert run(parse(cfg)) == 0
        report = json.loads((tmp_path / "check_report.json").read_text())
        assert report["passed"] is True
        assert report["a4_lhs"] == pytest.approx(0.13252, abs=1e-5)
        assert report["a5_lhs"] == pytest.approx(0.74192, abs=1e-4)
        assert "passed=yes" in capsys.readouterr().out

    def test_check_command_failing_system(self, tmp_path, capsys):
        # stretching the interval blows up the delay term of the second
        # condition while the static one still holds; the report is
        # written and the exit code flags the failure
        cfg = reference_config("check", out_dir=str(tmp_path))
        cfg["system"]["schedule"]["omega"] = 20.0
        assert run(parse(cfg)) == 2
        report = json.loads((tmp_path / "check_report.json").read_text())
        assert report["a4_pass"] is True
        assert report["a5_pass"] is False
        capsys.readouterr()

    def test_check_command_without_contraction_margin(self, tmp_path, capsys):
        # lambda = 0.05 fails (A4); the driver window falls back to a pad
        # of 1, so the report is still written and flags the failure
        cfg = reference_config("check", out_dir=str(tmp_path))
        cfg["system"]["envelope"]["rate"] = 0.05
        assert run(parse(cfg)) == 2
        report = json.loads((tmp_path / "check_report.json").read_text())
        assert report["a4_pass"] is False
        assert report["notes"][0] == "(A4) fails: N(L1+L2) = 0.132518 >= lambda = 0.05"
        capsys.readouterr()

    def test_solve_without_contraction_margin(self, tmp_path, capsys):
        cfg = reference_config("solve", out_dir=str(tmp_path))
        cfg["system"]["envelope"]["rate"] = 0.05
        assert run(parse(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: (A4) fails: N(L1+L2) = 0.132518 >= lambda = 0.05\n"
        assert not (tmp_path / "trajectory.csv").exists()

    def test_config_runs_need_a_2x2_matrix(self, tmp_path, capsys):
        # a config names one scalar orbit, paired into both components
        cfg = reference_config("check", out_dir=str(tmp_path))
        cfg["system"]["matrix"] = (-np.eye(3)).tolist()
        assert run(parse(cfg)) == 1
        assert capsys.readouterr().err == ("error: system.matrix: config-driven runs pair one scalar orbit "
                                           "into two components; the matrix must be 2x2\n")
        assert not (tmp_path / "check_report.json").exists()

    def test_constants_command(self, tmp_path, capsys):
        cfg = reference_config("constants", out_dir=str(tmp_path))
        assert run(parse(cfg)) == 0
        consts = json.loads((tmp_path / "constants.json").read_text())
        assert consts["m_phi"] == pytest.approx(16.475, abs=1e-3)
        assert consts["kappa_pi"] == pytest.approx(0.26503, abs=1e-5)
        assert consts["map_sup"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        capsys.readouterr()

    def test_solve_command(self, tmp_path, capsys):
        cfg = reference_config("solve", out_dir=str(tmp_path),
                               numeric={"window": 3, "substeps": 64})
        assert run(parse(cfg)) == 0
        traj_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(traj_lines) == 6 * 64 + 2
        frozen_lines = (tmp_path / "frozen_args.csv").read_text().splitlines()
        assert len(frozen_lines) == 7
        # the defect of the kept collocation solution, between the sup
        # norm and the sweeps
        line = re.search(r"^sup norm \S+, residual defect (\S+), \d+ iterations, ", capsys.readouterr().out, re.M)
        assert line and float(line[1]) <= 1e-9

    def test_picard_solve_reports_its_sweeps(self, tmp_path, capsys):
        # each Picard sweep evaluates the contract at the NODES collocation
        # nodes of all 55 intervals (pad 49), whatever the substeps
        cfg = reference_config("solve", out_dir=str(tmp_path),
                               numeric={"window": 3, "substeps": 15})
        assert run(parse(cfg)) == 0
        line = re.search(r", (\d+) iterations, tail bound \S+, (\d+) f evaluations\n$", capsys.readouterr().out)
        assert line and int(line[2]) == 55 * NODES * int(line[1])

    def test_burn_in_solve_reports_inner_passes(self, tmp_path, capsys):
        cfg = reference_config("solve", out_dir=str(tmp_path),
                               numeric={"window": 3, "substeps": 64, "method": "burn_in"})
        assert run(parse(cfg)) == 0
        out = capsys.readouterr().out
        passes = re.search(r", (\d+) iterations at most, (\d+) inner passes over 55 intervals, tail", out)
        assert passes and int(passes[1]) < int(passes[2])

    def test_solve_reports_contract_evaluations(self, tmp_path, capsys):
        # each inner pass is one sweep of the interval's NODES collocation nodes
        cfg = reference_config("solve", out_dir=str(tmp_path),
                               numeric={"window": 3, "substeps": 64, "method": "burn_in"})
        assert run(parse(cfg)) == 0
        line = re.search(r"(\d+) inner passes over 55 intervals, tail bound \S+, (\d+) f evaluations\n$",
                         capsys.readouterr().out)
        assert line and int(line[2]) == NODES * int(line[1])

    def test_certify_control_fails_distinctness(self, tmp_path, capsys):
        cfg = reference_config(
            "certify", out_dir=str(tmp_path),
            targets=[{"map": "logistic", "mu": 4.0, "kind": "fixed", "seed": 0.75}],
            numeric={"window": 5},
        )
        assert run(parse(cfg)) == 2
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["kind"] == "homoclinic"
        assert cert["verdict"] is False
        assert cert["distinctness"] == 0.0
        assert "verdict: fail" in capsys.readouterr().out

    def test_certify_with_estimated_envelope_and_explicit_window(self, tmp_path, capsys):
        # no envelope block: the envelope is estimated from the matrix;
        # the driver's k_min/k_max replace the automatic coverage
        cfg = reference_config(
            "certify",
            driver={"map": "logistic", "mu": 3.9, "kind": "homoclinic", "seed": 0.2564102564102564,
                    "branch": "upper_H", "k_min": -80, "k_max": 25},
            targets=[{"map": "logistic", "mu": 3.9, "kind": "fixed", "seed": 0.7435897435897436}],
            numeric={"window": 20},
        )
        del cfg["system"]["envelope"]
        path = tmp_path / "certify.json"
        path.write_text(json.dumps(cfg))
        assert main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("verdict: pass")
        cert = json.loads((tmp_path / "certificate.json").read_text())
        envelope = estimate_decay_envelope(np.array(cfg["system"]["matrix"]))
        assert (cert["constants"]["N"], cert["constants"]["lambda"]) == (envelope.n_const, envelope.rate)
        beta = (tmp_path / "beta.csv").read_text().splitlines()
        assert (beta[1].split(",")[0], beta[-1].split(",")[0]) == ("-80", "25")

    def test_error_exit_code(self, tmp_path, capsys):
        # mu = 3.6 forward orbits never settle; the run must fail cleanly
        cfg = {"command": "orbit", "out_dir": str(tmp_path),
               "driver": {"map": "logistic", "mu": 3.6, "kind": "homoclinic",
                          "seed": 0.3, "branch": "upper_H", "k_min": -10, "k_max": 10}}
        assert run(parse(cfg)) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EPCAG_OUT_DIR", str(tmp_path / "from_env"))
        cfg = {"command": "orbit",
               "driver": {"map": "logistic", "mu": 4.0, "kind": "fixed", "seed": 0.75,
                          "k_min": -3, "k_max": 3}}
        assert run(parse(cfg)) == 0
        assert (tmp_path / "from_env" / "orbit.csv").exists()
        capsys.readouterr()


class TestAutoRange:
    """The driver window sized before assembly covers the lead-in pad the
    solver asks for on the assembled system."""

    @seed(20261018)
    @settings(max_examples=30, deadline=None)
    @given(
        n_const=st.floats(REFERENCE_N, 3.0 * REFERENCE_N),
        rate=st.floats(0.05, 0.5),
        a4_share=st.floats(0.01, 0.99),
        x_share=st.floats(0.0, 1.0),
        bound_mf=st.floats(1e-3, 5.0),
        omega=st.floats(0.25, 3.0),
        mu=st.floats(3.0, 4.0, exclude_min=True),
        tol=st.floats(1e-12, 1e-4),
        window=st.integers(1, 40),
    )
    def test_window_covers_the_solver_pad(self, n_const, rate, a4_share, x_share, bound_mf,
                                          omega, mu, tol, window):
        # envelopes no tighter than the reference one validate against its
        # matrix; the Lipschitz constants use a share of the (A4) room
        envelope = DecayEnvelope(n_const=n_const, rate=rate, validated_horizon=60.0)
        lip = a4_share * rate / n_const
        contract = custom_contract(lambda t, x, y: np.zeros(2), bound_mf, x_share * lip, (1.0 - x_share) * lip)
        star = (mu - 1.0) / mu
        spec = RunSpec(
            command="solve",
            system=SystemSpec(matrix=((2.0, -2.0), (5.0, -3.0)), omega=omega, origin=0.0,
                              zeta_fraction=1.0 / 3.0),
            driver=DriverSpec(mu=mu, kind="fixed", seed=star),
            numeric=NumericSpec(tol=tol, window=window),
        )
        k_min, k_max = _auto_range(spec, (envelope, contract))
        orbit = build_orbit(mu, "fixed", star, k_min=k_min, k_max=k_max)
        sys = assemble_system(reference_matrix(), make_schedule(omega, 0.0, 1.0 / 3.0), contract,
                              pair_orbits(orbit, orbit), envelope=envelope)
        pad = _lead_in_pad(envelope, contract, map_supremum(sys.driver), omega, 1.0 / 3.0, tol)
        assert k_min <= -(window + pad)
        assert k_max >= window


def fresh_python(*args):
    """`python args` in a fresh interpreter that imports the package
    from the source tree under test."""
    src = str(Path(epcag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_import_leaves_out_the_command_line_layer():
    # a fresh `import epcag` loads neither layer nor argparse and json;
    # dir() lists the layer's names, and each resolves on first access
    # to the very object its module defines
    layer = {
        "main": "epcag.cli",
        **dict.fromkeys(("RunSpec", "certificate_dict", "export_frozen_csv", "export_orbit_csv",
                         "export_trajectory_csv", "parse_config", "run"), "epcag.io"),
    }
    done = fresh_python("-c", f"""
import sys, epcag
print(sorted(m for m in ("epcag.io", "epcag.cli", "argparse", "json") if m in sys.modules))
layer = {layer!r}
print(sorted(set(layer) - set(dir(epcag))))
print(sorted(n for n, m in layer.items() if getattr(epcag, n) is not getattr(sys.modules[m], n)))
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["[]", "[]", "[]", ""]
    assert not hasattr(epcag, "no_such_name")
    with pytest.raises(AttributeError, match="^module 'epcag' has no attribute 'no_such_name'$"):
        epcag.no_such_name


def test_assembly_leaves_numpy_random_unloaded():
    # the assembly spot check draws from the package's own generator
    done = fresh_python("-c", "import sys, epcag; epcag.homoclinic_scenario(); print('numpy.random' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


class TestCli:
    def test_example4_homoclinic(self, tmp_path, capsys):
        code = main(["example4", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("beta.csv", "traj_beta.csv", "alpha.csv", "traj_alpha.csv",
                     "certificate.json"):
            assert (tmp_path / name).exists(), name
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["kind"] == "homoclinic"
        assert cert["verdict"] is True
        assert "verdict: pass" in out

    def test_example4_heteroclinic(self, tmp_path, capsys):
        code = main(["example4", "--mode", "heteroclinic", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        for name in ("beta.csv", "alpha1.csv", "alpha2.csv", "traj_alpha1.csv",
                     "traj_alpha2.csv", "certificate.json"):
            assert (tmp_path / name).exists(), name
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["kind"] == "heteroclinic"
        assert cert["verdict"] is True

    @pytest.mark.parametrize("mode, solves", [("homoclinic", 2), ("heteroclinic", 3)])
    def test_example4_solves_each_driver_once(self, mode, solves, tmp_path, capsys, solve_counter):
        assert main(["example4", "--mode", mode, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(solve_counter) == solves
        assert len({id(d) for d in solve_counter}) == solves

    def test_python_m_epcag(self, tmp_path):
        # a fresh interpreter runs the package as a module, without the
        # RuntimeWarning that running epcag.cli as a module gives
        done = fresh_python("-m", "epcag", "example4", "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert (tmp_path / "certificate.json").exists()

    @pytest.mark.parametrize("mode", ["homoclinic", "heteroclinic"])
    def test_cold_process_matches_a_warm_run(self, mode, tmp_path, capsys):
        # the solver keeps tables per context (stepping contexts, stencils,
        # refine matrices, node-scan powers): a fresh process builds each
        # anew and must write the bytes a run on warm tables writes
        for sub in ("first", "warm"):
            assert main(["example4", "--mode", mode, "--out", str(tmp_path / sub)]) == 0
        capsys.readouterr()
        done = fresh_python("-m", "epcag", "example4", "--mode", mode, "--out", str(tmp_path / "cold"))
        assert done.returncode == 0, done.stderr
        names = sorted(p.name for p in (tmp_path / "warm").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "cold").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "warm", tmp_path / "cold", names, shallow=False)
        assert (mismatch, errors) == ([], [])

    def test_config_commands_need_config(self, capsys):
        assert main(["solve"]) == 1
        assert "needs --config" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["check", "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_out_naming_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["example4", "--out", str(taken)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot create output directory {taken}: ")
        assert captured.out == ""

    def test_command_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(reference_config("check")))
        assert main(["constants", "--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field, message", [
        ("--tol", "0", "tol", "must be positive"),
        ("--tol", "-1", "tol", "must be positive"),
        ("--tol", "nan", "tol", "must be a finite number"),
        ("--substeps", "2", "substeps", "must be at least 4"),
        ("--window", "0", "window", "must be at least 1"),
    ])
    def test_flags_are_checked_like_config_fields(self, tmp_path, capsys, flag, value, field, message):
        assert main(["example4", flag, value, "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: numeric.{field}: {message}\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_mode_flag_only_for_example4(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(reference_config("check")))
        out = tmp_path / "artifacts"
        assert main(["check", "--config", str(cfg_path), "--mode", "homoclinic", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: mode: only the example4 command takes a mode\n"
        assert captured.out == ""
        assert not out.exists()

    def test_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(reference_config(
            "solve", numeric={"window": 3, "substeps": 64})))
        out = tmp_path / "artifacts"
        code = main(["solve", "--config", str(cfg_path), "--out", str(out),
                     "--substeps", "80"])
        capsys.readouterr()
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 6 * 80 + 2
