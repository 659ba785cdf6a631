"""Smoke test of the benchmark: one op per workload.

    python3 -m pytest -q bench/smoke.py

The file is named so that the repository's own test run does not
collect it; pass it to pytest explicitly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(name, trace):
    result = _bench(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], float), k


def _bindings() -> dict:
    """Identity of every attribute of every loaded epcag module."""
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "epcag" or name.startswith("epcag."))
        for attr, value in vars(module).items()
    }


def _workload(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    wl.inproc = True  # only reference-cold reads it
    wl.prepare()
    wl.before_op()
    assert run.one_op(wl)[1] == []  # warm-up; fills reference-cold's first-round artifacts
    return wl


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_untraced_ops_install_nothing_and_traced_ops_clean_up(name, tmp_path, monkeypatch):
    wl = _workload(name, tmp_path)
    before = _bindings()

    def refuse(self):
        raise AssertionError("an untraced op installed wrappers")

    with monkeypatch.context() as m:
        m.setattr(tracing.Tracer, "install", refuse)
        assert run.timed_ops(wl, 0)["failed"] == 0
    assert _bindings() == before
    assert run.timed_ops(wl, 0, tracing.Tracer())["failed"] == 0
    assert _bindings() == before


def _span_names(fname, layer):
    return ("solver.picard", "solver.burn_in") if fname == "solve_bounded" else (f"{layer}.{fname}",)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_wrappers_see_every_call(name, tmp_path):
    """Calls counted by the wrappers equal calls of the wrapped code
    objects counted by a profiler, which no rebinding can miss."""
    import epcag.nonlinearity
    import gen

    wl = _workload(name, tmp_path)
    codes = {}
    for modname, names in tracing.TRACED.items():
        layer = modname.split(".")[1]
        for fname in names:
            codes[getattr(sys.modules[modname], fname).__code__] = _span_names(fname, layer)
    for fn in (epcag.nonlinearity._example_eval, gen.Forcing.eval):
        codes[fn.__code__] = ("nonlinearity.eval",)
    for fn in (epcag.nonlinearity._example_eval_batch, gen.Forcing.eval_batch):
        codes[fn.__code__] = ("nonlinearity.eval_batch",)
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    tracer = tracing.Tracer()
    wl.before_op()
    tracer.begin_op(0)
    tracer.install()
    sys.setprofile(profile)
    try:
        outcome = wl.work(tracer)
    finally:
        sys.setprofile(None)
        tracer.remove()
    rec = tracer.end_op()
    assert wl.check(outcome) == []
    assert tracer.unattributed == 0
    for names in set(codes.values()):
        wrapped = sum(rec["agg"].get(n, (0, 0.0))[0] for n in names)
        assert wrapped == seen[names], names


# Counts of the program at the commit that defined this benchmark. A
# change that alters one on purpose (solving once in the CLI halves the
# example4 solves; warm-starting burn-in cuts its inner iterations)
# states it and updates the figure here.
SEED_COUNTS = {
    "crosscheck": {
        "homoclinic": {"picard": (8, 42, 82), "burn_in_inner": 371, "burn_in_intervals": 82},
        "heteroclinic": {"picard": (8, 42, 82), "burn_in_inner": 302, "burn_in_intervals": 82},
    },
    "example4": {"homoclinic": (4, 2), "heteroclinic": (6, 3)},
}


def test_tracer_reproduces_seed_counts(tmp_path):
    cross = _workload("crosscheck", tmp_path)
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        cross.work(tracer)
    finally:
        tracer.remove()
    solves = tracer.end_op()["solves"]
    for sc, (pic, burn) in zip(("homoclinic", "heteroclinic"), zip(solves[0::2], solves[1::2])):
        want = SEED_COUNTS["crosscheck"][sc]
        assert (pic["sweeps"], pic["pad"], pic["intervals"]) == want["picard"], sc
        assert burn["inner_iterations"] == want["burn_in_inner"], sc
        assert burn["intervals"] == want["burn_in_intervals"], sc

    ref = _workload("reference-cold", tmp_path)
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        ref.work(tracer)
    finally:
        tracer.remove()
    solves = tracer.end_op()["solves"]
    for mode, scope in zip(("homoclinic", "heteroclinic"), sorted(tracer.cli_scopes)):
        mine = [s["key"] for s in solves if s["scope"] == scope]
        assert (len(mine), len(set(mine))) == SEED_COUNTS["example4"][mode], mode
    assert tracer.per_layer(0.0, 1.0)["cli.useful_solve_ratio"]["value"] == 0.5
