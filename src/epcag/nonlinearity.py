"""Nonlinear forcing contracts.

A contract packages the forcing term f(t, x, y) together with its
declared global bound and Lipschitz constants in the current state x
and the frozen-argument state y. Declared constants are spot-checked at
system assembly; the solver and every proof constant trust them
afterwards.

eval takes one row: a float time and 1-D state and argument views.
eval_batch, where a contract has one, takes n rows at once: times
(n,), states (n, dim) and arguments (n, dim). The argument y = z(gamma(t))
is constant on each interval, and the solvers evaluate whole intervals
at a time, so a contract may declare blocked_ys: its eval_batch then
also accepts ys with one row per block of b = n // len(ys) consecutive
rows (rows i b .. i b + b - 1 take ys[i]), and can evaluate the
argument's terms once per block. eval_many hands every other contract,
and eval, one argument row per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class NonlinearityContract:
    eval: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    bound_mf: float
    lip_x: float
    lip_y: float
    # optional vectorized form: (ts (n,), xs (n,m), ys (n,m)) -> (n,m)
    eval_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    # eval_batch also takes ys of one row per block of n // len(ys) rows
    blocked_ys: bool = False


def eval_many(contract: NonlinearityContract, ts, xs, ys) -> np.ndarray:
    """f on the rows of ts (n,) and xs (n, dim); ys holds one argument row
    per block of n // len(ys) consecutive rows, so (n, dim) gives each row
    its own."""
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    batch = contract.eval_batch
    if len(ys) != len(xs) and not (batch is not None and contract.blocked_ys):
        ys = np.repeat(ys, len(xs) // len(ys), axis=0)
    if batch is not None:
        return batch(ts, xs, ys)
    out = np.empty_like(xs)
    # contracts take a Python float time and 1-D row views
    f = contract.eval
    for t, x, y, row in zip(ts.tolist(), xs, ys, out, strict=True):
        row[...] = f(t, x, y)
    return out


def _example_eval(t: float, x, y) -> np.ndarray:
    # e^t / (1 + e^t), stable on both half lines
    sig = 1.0 / (1.0 + math.exp(-t)) if t >= 0.0 else math.exp(t) / (1.0 + math.exp(t))
    return np.array([0.03 * math.cos(x[0]) - 0.01 * math.sin(y[1]) + sig,
                     0.02 * math.sin(x[1]) + 0.01 * math.cos(y[0])])


def _example_eval_batch(ts, xs, ys) -> np.ndarray:
    # blocked_ys: the argument's terms once per block, then repeated
    rep = len(xs) // len(ys)
    e = np.exp(-np.abs(ts))
    sig = np.where(ts >= 0.0, 1.0, e) / (1.0 + e)
    return np.column_stack(
        [
            0.03 * np.cos(xs[:, 0]) - np.repeat(0.01 * np.sin(ys[:, 1]), rep) + sig,
            0.02 * np.sin(xs[:, 1]) + np.repeat(0.01 * np.cos(ys[:, 0]), rep),
        ]
    )


def example_contract() -> NonlinearityContract:
    """The bundled planar forcing term.

    f1 = 0.03 cos(x1) - 0.01 sin(y2) + e^t/(1+e^t)
    f2 = 0.02 sin(x2) + 0.01 cos(y1)

    The declared bound 1.07229 dominates the true supremum
    sqrt((0.03 + 0.01 + 1)^2 + 0.03^2) ~ 1.0404; the Lipschitz constants
    0.03 / 0.01 equal the exact Jacobian sups in x and y.
    """
    return NonlinearityContract(
        eval=_example_eval,
        bound_mf=1.07229,
        lip_x=0.03,
        lip_y=0.01,
        eval_batch=_example_eval_batch,
        blocked_ys=True,
    )


def zero_contract(dim: int) -> NonlinearityContract:
    """f identically zero (bound declared as a tiny positive number)."""

    def _zero(t, x, y):
        return np.zeros(dim)

    def _zero_batch(ts, xs, ys):
        return np.zeros_like(xs)

    return NonlinearityContract(
        eval=_zero,
        bound_mf=1e-12,
        lip_x=0.0,
        lip_y=0.0,
        eval_batch=_zero_batch,
    )


def custom_contract(
    eval: Callable,
    bound_mf: float,
    lip_x: float,
    lip_y: float,
    eval_batch: Callable | None = None,
    blocked_ys: bool = False,
) -> NonlinearityContract:
    return NonlinearityContract(
        eval=eval,
        bound_mf=float(bound_mf),
        lip_x=float(lip_x),
        lip_y=float(lip_y),
        eval_batch=eval_batch,
        blocked_ys=blocked_ys,
    )
