"""Nonlinear forcing contracts.

A contract packages the forcing term f(t, x, y) together with its
declared global bound and Lipschitz constants in the current state x
and the frozen-argument state y. Declared constants are spot-checked at
system assembly; the solver and every proof constant trust them
afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

CATALOG_EXAMPLE = "example4"
CATALOG_ZERO = "zero"
CATALOG_CUSTOM = "custom"


@dataclass(frozen=True)
class NonlinearityContract:
    eval: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    bound_mf: float
    lip_x: float
    lip_y: float
    catalog_id: str
    # optional vectorized form: (ts (n,), xs (n,m), ys (n,m)) -> (n,m)
    eval_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None


def eval_many(contract: NonlinearityContract, ts, xs, ys) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if contract.eval_batch is not None:
        return contract.eval_batch(ts, xs, ys)
    out = np.empty_like(xs)
    # contracts take a Python float time and 1-D row views
    f = contract.eval
    for t, x, y, row in zip(ts.tolist(), xs, ys, out):
        row[...] = f(t, x, y)
    return out


def _example_eval(t: float, x, y) -> np.ndarray:
    # e^t / (1 + e^t), stable on both half lines
    sig = 1.0 / (1.0 + math.exp(-t)) if t >= 0.0 else math.exp(t) / (1.0 + math.exp(t))
    return np.array([0.03 * math.cos(x[0]) - 0.01 * math.sin(y[1]) + sig,
                     0.02 * math.sin(x[1]) + 0.01 * math.cos(y[0])])


def _example_eval_batch(ts, xs, ys) -> np.ndarray:
    e = np.exp(-np.abs(ts))
    sig = np.where(ts >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.column_stack(
        [
            0.03 * np.cos(xs[:, 0]) - 0.01 * np.sin(ys[:, 1]) + sig,
            0.02 * np.sin(xs[:, 1]) + 0.01 * np.cos(ys[:, 0]),
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
        catalog_id=CATALOG_EXAMPLE,
        eval_batch=_example_eval_batch,
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
        catalog_id=CATALOG_ZERO,
        eval_batch=_zero_batch,
    )


def custom_contract(
    eval: Callable,
    bound_mf: float,
    lip_x: float,
    lip_y: float,
    eval_batch: Callable | None = None,
) -> NonlinearityContract:
    return NonlinearityContract(
        eval=eval,
        bound_mf=float(bound_mf),
        lip_x=float(lip_x),
        lip_y=float(lip_y),
        catalog_id=CATALOG_CUSTOM,
        eval_batch=eval_batch,
    )
