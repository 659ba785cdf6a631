"""The benchmark's three workloads.

Each workload is built from the run's seed and a scratch directory
inside the checkout, builds its inputs in `prepare`, draws any per-op
inputs in `before_op` (untimed), does one op of program work in `work`
(the timed part) and checks that op's outputs in `check` (untimed).
The program is always called through `epcag` module attributes, never
through names imported from it, so the traced run's wrappers see every
call. Every check failure is a string; an op with
any is a failed op.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import numpy as np

import epcag
import epcag.cli
import epcag.reference

import battery
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the `epcag` console script, run the way the installed entry point runs it
CONSOLE = "import sys; from epcag.cli import main; sys.exit(main())"
MODES = ("homoclinic", "heteroclinic")
CHILD_TIMEOUT_S = 60  # a hung child fails its op well inside a run's time limit

TOL = 1e-6  # residual defects and the picard/burn-in interior gap
CROSSCHECK_WINDOW = (-20, 20)
RANDOM_WINDOW = (-4, 4)


def child_env() -> dict:
    """The caller's environment with the checkout's sources importable.
    BLAS thread settings are passed through untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


class ReferenceCold:
    """`epcag example4` in both modes and the transfer battery, each in a
    fresh process. With `inproc` set (the traced run) the same three
    steps run in this process through `epcag.cli.main` and the API."""

    name = "reference-cold"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.inproc = False
        self.reference = {}  # mode -> artifacts of the first round

    @property
    def cold(self) -> bool:
        """Whether the op's work runs in fresh processes."""
        return not self.inproc

    def prepare(self) -> None:
        pass

    def before_op(self) -> None:
        pass

    def _out(self) -> Path:
        out = self.workdir / uuid.uuid4().hex
        out.mkdir(parents=True)
        return out

    def work(self, tracer=None) -> dict:
        if self.inproc:
            return self._work_inproc(tracer)
        env = child_env()
        steps = {}
        for mode in MODES:
            out = self._out()
            proc = subprocess.run(
                [sys.executable, "-c", CONSOLE, "example4", "--mode", mode, "--out", str(out)],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            steps[mode] = (proc.returncode, proc.stdout, proc.stderr, out)
        proc = subprocess.run(
            [sys.executable, str(HERE / "battery.py")],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        steps["battery"] = (proc.returncode, proc.stdout, proc.stderr, None)
        return steps

    def _work_inproc(self, tracer) -> dict:
        steps = {}
        for mode in MODES:
            out = self._out()
            if tracer is not None:
                tracer.new_scope(cli=True)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = epcag.cli.main(["example4", "--mode", mode, "--out", str(out)])
            if tracer is not None:
                written = [p.stat().st_size for p in out.iterdir()]
                tracer.add("files_written", len(written))
                tracer.add("bytes_written", sum(written))
            steps[mode] = (code, buf.getvalue(), "", out)
        if tracer is not None:
            tracer.new_scope()
        steps["battery"] = (0, json.dumps(battery.battery()), "", None)
        return steps

    def check(self, steps) -> list:
        problems = []
        try:
            for mode in MODES:
                code, stdout, stderr, out = steps[mode]
                if code != 0:
                    problems.append(f"example4 {mode}: exit code {code}: {stderr.strip()[-300:]}")
                lines = stdout.strip().splitlines()
                if not lines or not lines[-1].startswith("verdict: pass"):
                    problems.append(f"example4 {mode}: verdict is not pass: {lines[-1:]}")
                files = _files(out)
                first = self.reference.setdefault(mode, files)
                if files != first:
                    differ = sorted(set(files) ^ set(first) | {k for k in files if files[k] != first.get(k)})
                    problems.append(f"example4 {mode}: artifacts differ from the first round: {differ}")
            code, stdout, stderr, _ = steps["battery"]
            if code != 0:
                problems.append(f"battery: exit code {code}: {stderr.strip()[-300:]}")
            else:
                summary = json.loads(stdout.strip().splitlines()[-1])
                if not summary["passed"]:
                    problems.append("battery: transfer report did not pass")
                if summary["control_passed"] or summary["control_distinctness"] != 0.0:
                    problems.append(f"battery: identical-driver control did not fail with distinctness 0: {summary}")
        finally:
            for mode in MODES:
                if mode in steps:
                    shutil.rmtree(steps[mode][3], ignore_errors=True)
        return problems


class Crosscheck:
    """Picard and burn-in solves of both reference scenarios on (-20, 20),
    with the residual defect of each, in this process."""

    name = "crosscheck"
    cold = False

    def __init__(self, seed: int, workdir: Path):
        self.scenarios = ()

    def prepare(self) -> None:
        self.scenarios = (epcag.homoclinic_scenario(), epcag.heteroclinic_scenario())

    def before_op(self) -> None:
        pass

    def work(self, tracer=None) -> list:
        results = []
        for sc in self.scenarios:
            system = sc.system
            if tracer is not None:
                system = dataclasses.replace(system, f=tracer.contract(system.f))
            pic = epcag.solve_bounded(system, CROSSCHECK_WINDOW)
            burn = epcag.solve_bounded(system, CROSSCHECK_WINDOW, method="burn_in")
            defects = (epcag.residual_defect(system, pic), epcag.residual_defect(system, burn))
            results.append((sc.kind, system, pic, burn, defects))
        return results

    def check(self, results) -> list:
        problems = []
        for kind, system, pic, burn, defects in results:
            n = len(pic.samples)
            interior = slice(n // 4, 3 * n // 4 + 1)
            gap = float(np.linalg.norm(pic.samples[interior] - burn.samples[interior], axis=1).max())
            if not gap <= TOL:
                problems.append(f"{kind}: picard/burn-in interior gap {gap:.3g} > {TOL:g}")
            for label, d in zip(("picard", "burn-in"), defects):
                if not d <= TOL:
                    problems.append(f"{kind} {label}: residual defect {d:.3g} > {TOL:g}")
            bound = epcag.solution_bound(system)
            for label, traj in (("picard", pic), ("burn-in", burn)):
                if not traj.meta["sup_norm"] <= bound:
                    problems.append(f"{kind} {label}: sup norm {traj.meta['sup_norm']:.6g} > bound {bound:.6g}")
        return problems


class RandomSystems:
    """Seeded random systems: each op assembles, checks and solves one
    draw per (substeps, batched contract) pair."""

    name = "random-systems"
    cold = False

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.driver = None
        self.next_index = 0
        self.draws = []

    def prepare(self) -> None:
        self.driver, _ = epcag.reference.homoclinic_driver()

    def before_op(self) -> None:
        self.draws = gen.op_draws(self.rng, self.next_index)
        self.next_index += len(self.draws)

    def work(self, tracer=None) -> list:
        results = []
        for d in self.draws:
            forcing = gen.Forcing(d.coeffs)
            contract = epcag.custom_contract(
                forcing.eval, d.bound_mf, d.lip_x, d.lip_y, forcing.eval_batch if d.batched else None
            )
            if tracer is not None:
                contract = tracer.contract(contract)
            try:
                schedule = epcag.make_schedule(d.omega, 0.0, d.zeta_fraction)
                system = epcag.assemble_system(d.matrix, schedule, contract, self.driver)
                report = epcag.check_assumptions(system)
                constants = epcag.proof_constants(system)
                traj = epcag.solve_bounded(system, RANDOM_WINDOW, d.substeps)
                defect = epcag.residual_defect(system, traj)
            except Exception as e:  # a draw the program gets wrong is reported, not fatal
                results.append((d, f"raised {type(e).__name__}: {e}"))
                continue
            results.append((d, (system, report, constants, traj, defect)))
        return results

    def check(self, results) -> list:
        problems = []
        for d, outcome in results:
            if isinstance(outcome, str):
                found = [outcome]
            else:
                system, report, constants, traj, defect = outcome
                found = []
                if not (report.a4_pass and report.a5_pass):
                    found.append(f"assumptions reported failing: a4 {report.a4_lhs:.6g}, a5 {report.a5_lhs:.6g}")
                if not constants.kappa_pi < 1.0:
                    found.append(f"kappa_pi {constants.kappa_pi:.6g} >= 1")
                if not defect <= TOL:
                    found.append(f"residual defect {defect:.3g} > {TOL:g}")
                bound = epcag.solution_bound(system)
                if not traj.meta["sup_norm"] <= bound:
                    found.append(f"sup norm {traj.meta['sup_norm']:.6g} > bound {bound:.6g}")
            problems.extend(f"draw {json.dumps(d.params())}: {p}" for p in found)
        return problems


WORKLOADS = {w.name: w for w in (ReferenceCold, Crosscheck, RandomSystems)}
