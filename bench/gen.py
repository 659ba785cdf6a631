"""Seeded generator of random systems for the random-systems workload.

Each draw is a Hurwitz 2x2 matrix, a schedule, a substep count and a
custom contract whose Lipschitz constants are sized to a chosen (A5)
margin. Draws are built with numpy alone, so the program only ever sees
the generated inputs. The envelope constant the program estimates is a
sampled supremum of ||e^{At}|| e^{rate t}, which the eigenvector
condition number bounds from above; the contract constants are sized
against that bound, so every draw meets the paper's preconditions
(Hurwitz, positive (A4)/(A5) margins) by construction, and `draw`
checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# coarse to fine grids per interval; with the step cap below they keep
# the residual-defect check (<= 1e-6) within the scheme's accuracy
SUBSTEPS = (60, 120, 240)

# largest h * ||A|| allowed; the 5-point residual stencil and the
# 4th-order quadrature both err like (h ||A||)^4
MAX_STEP_NORM = 0.07

# the envelope estimator gives up this share of the spectral abscissa
RATE_MARGIN = 0.02


@dataclass(frozen=True)
class Draw:
    index: int
    matrix: np.ndarray
    omega: float
    zeta_fraction: float
    substeps: int
    coeffs: tuple
    batched: bool
    lip_x: float
    lip_y: float
    bound_mf: float
    a5_bound: float

    def params(self) -> dict:
        """Plain-JSON description, for reporting a failing draw."""
        return {
            "index": self.index,
            "matrix": self.matrix.tolist(),
            "omega": self.omega,
            "zeta_fraction": self.zeta_fraction,
            "substeps": self.substeps,
            "coeffs": list(self.coeffs),
            "batched": self.batched,
            "lip_x": self.lip_x,
            "lip_y": self.lip_y,
            "bound_mf": self.bound_mf,
            "a5_bound": self.a5_bound,
        }


class Forcing:
    """f1 = a1 cos(x1 + p) + b1 sin(y2) + c1 sin(nu t)
    f2 = a2 sin(x2) + b2 cos(y1) + c2 cos(nu t)

    The Jacobian in x is diagonal and the one in y anti-diagonal, so the
    exact Lipschitz constants are max(|a1|, |a2|) and max(|b1|, |b2|).
    """

    def __init__(self, coeffs):
        self.a1, self.a2, self.b1, self.b2, self.c1, self.c2, self.p, self.nu = coeffs

    def eval(self, t, x, y):
        return np.array(
            [
                self.a1 * math.cos(x[0] + self.p) + self.b1 * math.sin(y[1]) + self.c1 * math.sin(self.nu * t),
                self.a2 * math.sin(x[1]) + self.b2 * math.cos(y[0]) + self.c2 * math.cos(self.nu * t),
            ]
        )

    def eval_batch(self, ts, xs, ys):
        return np.column_stack(
            [
                self.a1 * np.cos(xs[:, 0] + self.p) + self.b1 * np.sin(ys[:, 1]) + self.c1 * np.sin(self.nu * ts),
                self.a2 * np.sin(xs[:, 1]) + self.b2 * np.cos(ys[:, 0]) + self.c2 * np.cos(self.nu * ts),
            ]
        )


def _matrix(rng: np.random.Generator) -> np.ndarray:
    """Rotated Hurwitz matrix with independently drawn abscissa,
    rotation (complex pair) or eigenvalue gap (real pair), and
    non-normality."""
    sigma = -rng.uniform(0.6, 1.2)
    skew = math.exp(rng.uniform(0.0, 0.6))
    if rng.random() < 0.5:
        rot = rng.uniform(0.4, 2.0)
        core = np.array([[sigma, rot * skew], [-rot / skew, sigma]])
    else:
        core = np.array([[sigma, 2.0 * (skew - 1.0)], [0.0, sigma - rng.uniform(0.2, 1.2)]])
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    q = np.array([[c, -s], [s, c]])
    return q @ core @ q.T


def draw(rng: np.random.Generator, index: int, substeps: int, batched: bool) -> Draw:
    a = _matrix(rng)
    eigvals, vecs = np.linalg.eig(a)
    sigma = float(np.max(eigvals.real))
    if not sigma < 0.0:
        raise RuntimeError(f"draw {index}: generated matrix is not Hurwitz")
    rate = (1.0 - RATE_MARGIN) * abs(sigma)
    n_bound = math.ceil(max(1.0, float(np.linalg.cond(vecs))) * 100.0) / 100.0 + 0.01

    omega = rng.uniform(0.7, min(1.6, MAX_STEP_NORM * substeps / float(np.linalg.norm(a, 2))))
    zeta_fraction = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)], p=[0.25, 0.25, 0.5]))

    # split an (A5) budget between L1 and L2, then each L between components
    a5_target = rng.uniform(0.2, 0.8)
    ehalf = math.exp(rate * omega / 2.0)
    growth = ehalf * (ehalf * ehalf - 1.0) / (1.0 - 1.0 / ehalf)
    share = rng.uniform(0.2, 0.8)
    lip_x = share * a5_target * rate / (2.0 * n_bound)
    lip_y = (1.0 - share) * a5_target * rate / (n_bound * growth)
    a1, a2 = lip_x * rng.permutation([1.0, rng.uniform(0.3, 1.0)])
    b1, b2 = lip_y * rng.permutation([1.0, rng.uniform(0.3, 1.0)])
    c1, c2 = rng.uniform(0.1, 1.0, 2)
    p = rng.uniform(0.0, 2.0 * math.pi)
    nu = rng.uniform(0.2, 1.5)
    bound_mf = 1.01 * math.hypot(abs(a1) + abs(b1) + c1, abs(a2) + abs(b2) + c2)

    a4_bound = n_bound * (lip_x + lip_y)
    a5_bound = (n_bound / rate) * (2.0 * lip_x + lip_y * growth)
    if not (a4_bound < rate and a5_bound < 1.0):
        raise RuntimeError(f"draw {index}: contract sizing left no (A4)/(A5) margin")
    return Draw(
        index=index,
        matrix=a,
        omega=float(omega),
        zeta_fraction=zeta_fraction,
        substeps=int(substeps),
        coeffs=tuple(float(v) for v in (a1, a2, b1, b2, c1, c2, p, nu)),
        batched=batched,
        lip_x=float(lip_x),
        lip_y=float(lip_y),
        bound_mf=float(bound_mf),
        a5_bound=float(a5_bound),
    )


def op_draws(rng: np.random.Generator, first_index: int) -> list:
    """One op's draws: every (substeps, batched) pair once, in seeded order,
    so each op carries the same mix of grid sizes and contract kinds."""
    cells = [(m, batched) for m in SUBSTEPS for batched in (True, False)]
    order = rng.permutation(len(cells))
    return [draw(rng, first_index + i, *cells[j]) for i, j in enumerate(order)]
