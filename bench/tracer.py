"""Outside-in tracer: timing wrappers around epcag's public functions.

`Tracer.install()` rebinds each public function listed in `TRACED` to a
timing wrapper in every epcag module that holds it by name (the package,
the defining module and each importer), and rebinds
`example_contract` so that the reference contract comes back wrapped.
`Tracer.remove()` puts every original back. Nothing under `src/` is
edited and untraced runs never call `install()`.

Each wrapped call becomes a span: name, start, end, parent span and op
id, kept in memory and written out by `write()` when the run ends. The
contract's `eval` / `eval_batch` are called thousands of times per op,
so they are counted and timed but not kept as spans. Self time is a
span's duration minus the time its direct children cover; it is
computed on the fly from the call stack.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import statistics
import sys
import time

# module -> public functions whose calls are spans; the span name is
# "<layer>.<function>", layer being the module's short name
TRACED = {
    "epcag.linear": ("mat_exp", "sample_norm_curve", "estimate_decay_envelope", "validate_envelope"),
    "epcag.driver": ("build_orbit",),
    "epcag.system": ("assemble_system", "check_assumptions", "proof_constants"),
    "epcag.solver": ("solve_bounded", "step_interval", "residual_defect"),
    "epcag.analysis": (
        "certify_connection",
        "verify_hyperbolic_transfer",
        "difference_profile",
        "fit_decay_rate",
    ),
    "epcag.reference": ("homoclinic_scenario", "heteroclinic_scenario", "transfer_catalog"),
    "epcag.io": ("run",),
}

SCENARIO_SPANS = ("reference.homoclinic_scenario", "reference.heteroclinic_scenario", "reference.transfer_catalog")

# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    "linear.mat_exp.calls": "count",
    "linear.mat_exp.self_s": "s",
    "linear.sample_norm_curve.self_s": "s",
    "linear.estimate_decay_envelope.self_s": "s",
    "linear.validate_envelope.self_s": "s",
    "driver.build_orbit.calls": "count",
    "driver.build_orbit.self_s": "s",
    "nonlinearity.eval.calls": "count",
    "nonlinearity.eval.self_s": "s",
    "nonlinearity.eval_batch.calls": "count",
    "nonlinearity.eval_batch.rows": "count",
    "nonlinearity.eval_batch.self_s": "s",
    "system.assemble_system.calls": "count",
    "system.assemble_system.self_s": "s",
    "system.check_assumptions.calls": "count",
    "system.proof_constants.calls": "count",
    "solver.solve_bounded.calls": "count",
    "solver.useful_solve_ratio": "ratio",
    "solver.picard.self_s": "s",
    "solver.picard.sweeps": "count",
    "solver.picard.intervals": "count",
    "solver.burn_in.self_s": "s",
    "solver.burn_in.inner_iterations": "count",
    "solver.step_interval.calls": "count",
    "solver.solve_bounded.mat_exp_calls": "count",
    "solver.residual_defect.self_s": "s",
    "analysis.certify_connection.self_s": "s",
    "analysis.verify_hyperbolic_transfer.self_s": "s",
    "analysis.difference_profile.self_s": "s",
    "analysis.fit_decay_rate.calls": "count",
    "analysis.fit_decay_rate.self_s": "s",
    "reference.scenario.self_s": "s",
    "io.run.self_s": "s",
    "io.files_written": "count",
    "io.bytes_written": "B",
    "cli.import_s": "s",
    "cli.useful_solve_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class _Frame:
    __slots__ = ("index", "child_s")

    def __init__(self, index):
        self.index = index
        self.child_s = 0.0


class Tracer:
    """Spans and per-op counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self._stack = []
        self._saved = []  # (module, attribute, original)
        self.op = None
        self.scope = 0
        self.cli_scopes = set()
        self.ops = []  # finished per-op aggregates
        self.unattributed = 0  # contract calls outside any span
        self._reset_op()

    # ----------------------------------------------------------- binding
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, names in TRACED.items():
            layer = modname.split(".")[1]
            module = sys.modules[modname]
            for fname in names:
                self._rebind(getattr(module, fname), self._wrap(layer, fname, getattr(module, fname)))
        original = sys.modules["epcag.nonlinearity"].example_contract

        def example_contract():
            return self.contract(original())

        self._rebind(original, example_contract)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` in every epcag module that binds it by name."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "epcag" or name.startswith("epcag.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # ------------------------------------------------------------- spans
    def _enter(self, name):
        parent = self._stack[-1].index if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        frame = _Frame(len(self.spans) - 1)
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        span = self.spans[frame.index]
        span[2] = end
        self._stack.pop()
        dur = end - span[1]
        if self._stack:
            self._stack[-1].child_s += dur
        agg = self._cur.setdefault(span[0], [0, 0.0])
        agg[0] += 1
        agg[1] += dur - frame.child_s

    def _leaf(self, key, start, rows=None):
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1].child_s += dur
        else:
            self.unattributed += 1
        agg = self._cur.setdefault(key, [0, 0.0])
        agg[0] += 1
        agg[1] += dur
        if rows is not None:
            self.add("nonlinearity.eval_batch.rows", rows)

    def _in_solve(self) -> bool:
        return any(self.spans[f.index][0] in ("solver.picard", "solver.burn_in") for f in self._stack)

    def _wrap(self, layer, fname, fn):
        tracer = self
        if fname == "solve_bounded":
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def solve_wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                method = bound.arguments["method"]
                frame = tracer._enter("solver.burn_in" if method == "burn_in" else "solver.picard")
                try:
                    traj = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                tracer._record_solve(bound.arguments, traj)
                return traj

            return solve_wrapper

        name = f"{layer}.{fname}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fname == "mat_exp" and tracer._in_solve():
                tracer.add("solver.solve_bounded.mat_exp_calls", 1)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def contract(self, c):
        """The contract with eval (and eval_batch, if any) counted and timed."""
        tracer = self
        scalar = c.eval

        def traced_eval(t, x, y):
            start = time.perf_counter()
            try:
                return scalar(t, x, y)
            finally:
                tracer._leaf("nonlinearity.eval", start)

        batch = c.eval_batch
        if batch is None:
            return dataclasses.replace(c, eval=traced_eval)

        def traced_eval_batch(ts, xs, ys):
            start = time.perf_counter()
            try:
                return batch(ts, xs, ys)
            finally:
                tracer._leaf("nonlinearity.eval_batch", start, rows=len(ts))

        return dataclasses.replace(c, eval=traced_eval, eval_batch=traced_eval_batch)

    def _record_solve(self, args, traj) -> None:
        sys_ = args["sys"]
        k_lo, k_hi = args["t_window"]
        meta = traj.meta
        driver = sys_.driver
        # what makes two solves the same solve: system, driver, grid, tol, method
        key = (
            sys_.a.tobytes(),
            sys_.schedule,
            id(sys_.f),
            driver.k_min,
            driver.k_max,
            driver.values.tobytes(),
            tuple(args["t_window"]),
            args["substeps"],
            args["tol"],
            args["method"],
        )
        solve = {
            "method": meta["method"],
            "pad": meta["pad"],
            "intervals": meta["pad"] + (k_hi - k_lo),
            "sweeps": meta["iterations"] if meta["method"] == "picard" else 0,
            "inner_iterations": int(sum(meta.get("inner_iterations", ()))),
            "scope": self.scope,
            "key": hash(key),  # distinct within one op and scope
        }
        self._solves.append(solve)

    # --------------------------------------------------------------- ops
    def _reset_op(self):
        self._cur = {}  # span name -> [calls, self seconds]; counter name -> total
        self._solves = []

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._reset_op()

    def new_scope(self, cli: bool = False) -> None:
        """Start a fresh process-equivalent scope for solve reuse; `cli`
        marks the scope of one `epcag` command."""
        self.scope += 1
        if cli:
            self.cli_scopes.add(self.scope)

    def add(self, key, value) -> None:
        """Add to one of this op's counters."""
        self._cur[key] = self._cur.get(key, 0) + value

    def end_op(self) -> dict:
        rec = {"agg": self._cur, "solves": self._solves}
        self.ops.append(rec)
        self.op = None
        self._reset_op()
        return rec

    # ----------------------------------------------------------- metrics
    def per_layer(self, import_s: float, overhead_ratio: float) -> dict:
        """Per-op figures over the traced ops: medians of seconds, means of counts."""
        n_ops = len(self.ops)

        def calls(name):
            return sum(op["agg"].get(name, (0, 0.0))[0] for op in self.ops) / n_ops

        def self_s(*names):
            return statistics.median(
                sum(op["agg"].get(n, (0, 0.0))[1] for n in names) for op in self.ops
            )

        def count(key):
            return sum(op["agg"].get(key, 0) for op in self.ops) / n_ops

        def solves(field, method):
            return sum(
                s[field] for op in self.ops for s in op["solves"] if s["method"] == method
            ) / n_ops

        def useful(pick):
            # solves repeated across ops are the benchmark's repetition, not waste
            chosen = [(i, s["scope"], s["key"]) for i, op in enumerate(self.ops) for s in op["solves"] if pick(s)]
            if not chosen:
                return 1.0
            return len(set(chosen)) / len(chosen)

        values = {
            "linear.mat_exp.calls": calls("linear.mat_exp"),
            "linear.mat_exp.self_s": self_s("linear.mat_exp"),
            "linear.sample_norm_curve.self_s": self_s("linear.sample_norm_curve"),
            "linear.estimate_decay_envelope.self_s": self_s("linear.estimate_decay_envelope"),
            "linear.validate_envelope.self_s": self_s("linear.validate_envelope"),
            "driver.build_orbit.calls": calls("driver.build_orbit"),
            "driver.build_orbit.self_s": self_s("driver.build_orbit"),
            "nonlinearity.eval.calls": calls("nonlinearity.eval"),
            "nonlinearity.eval.self_s": self_s("nonlinearity.eval"),
            "nonlinearity.eval_batch.calls": calls("nonlinearity.eval_batch"),
            "nonlinearity.eval_batch.rows": count("nonlinearity.eval_batch.rows"),
            "nonlinearity.eval_batch.self_s": self_s("nonlinearity.eval_batch"),
            "system.assemble_system.calls": calls("system.assemble_system"),
            "system.assemble_system.self_s": self_s("system.assemble_system"),
            "system.check_assumptions.calls": calls("system.check_assumptions"),
            "system.proof_constants.calls": calls("system.proof_constants"),
            "solver.solve_bounded.calls": calls("solver.picard") + calls("solver.burn_in"),
            "solver.useful_solve_ratio": useful(lambda s: True),
            "solver.picard.self_s": self_s("solver.picard"),
            "solver.picard.sweeps": solves("sweeps", "picard"),
            "solver.picard.intervals": solves("intervals", "picard"),
            "solver.burn_in.self_s": self_s("solver.burn_in", "solver.step_interval"),
            "solver.burn_in.inner_iterations": solves("inner_iterations", "burn_in"),
            "solver.step_interval.calls": calls("solver.step_interval"),
            "solver.solve_bounded.mat_exp_calls": count("solver.solve_bounded.mat_exp_calls"),
            "solver.residual_defect.self_s": self_s("solver.residual_defect"),
            "analysis.certify_connection.self_s": self_s("analysis.certify_connection"),
            "analysis.verify_hyperbolic_transfer.self_s": self_s("analysis.verify_hyperbolic_transfer"),
            "analysis.difference_profile.self_s": self_s("analysis.difference_profile"),
            "analysis.fit_decay_rate.calls": calls("analysis.fit_decay_rate"),
            "analysis.fit_decay_rate.self_s": self_s("analysis.fit_decay_rate"),
            "reference.scenario.self_s": self_s(*SCENARIO_SPANS),
            "io.run.self_s": self_s("io.run"),
            "io.files_written": count("files_written"),
            "io.bytes_written": count("bytes_written"),
            "cli.import_s": import_s,
            "cli.useful_solve_ratio": useful(lambda s: s["scope"] in self.cli_scopes),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}

    def write(self, path) -> None:
        """Spans and per-op aggregates as one JSON document."""
        doc = {
            "spans": self.spans,
            "ops": self.ops,
            "unattributed_contract_calls": self.unattributed,
        }
        path.write_text(json.dumps(doc))
