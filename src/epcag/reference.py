"""Built-in demonstration fixture: a 2-D damped-rotation system driven
by logistic-map orbits.

The linear part [[2,-2],[5,-3]] has eigenvalues -1/2 +- i sqrt(15)/2 and
the analytic decay envelope N = (7 + sqrt(34))/sqrt(15), rate 1/2. The
nodes sit at 3k/2 with the frozen argument one third into each interval.
Scalar logistic orbits drive both state components.

Two connection scenarios ship ready-made:

  homoclinic     mu = 3.9, seed 1/3.9; one forward step lands exactly on
                 the positive fixed point, the backward inverse-branch
                 tail contracts toward it with ratio 1/1.9 per interval.
  heteroclinic   mu = 4, seed 1/4; forward step lands on 3/4, backward
                 lower-branch tail falls to 0 with ratio 1/4.

plus a three-row catalog exercising stable and unstable companions for
the hyperbolicity transfer check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import (
    LOWER_BRANCH,
    UPPER_BRANCH,
    DriverOrbit,
    ScalarMap,
    build_orbit,
    pair_orbits,
)
from .linear import DecayEnvelope
from .nonlinearity import example_contract
from .schedule import Schedule, make_schedule
from .solver import _coverage_range, _lead_in_pad
from .system import EpcagSystem, _logistic_sup, assemble_system

REFERENCE_MATRIX = ((2.0, -2.0), (5.0, -3.0))
REFERENCE_N = (7.0 + math.sqrt(34.0)) / math.sqrt(15.0)
REFERENCE_RATE = 0.5
REFERENCE_OMEGA = 1.5
REFERENCE_ZETA_FRACTION = 1.0 / 3.0
REFERENCE_HORIZON = 60.0
HOMOCLINIC_MU = 3.9
HETEROCLINIC_MU = 4.0


def reference_matrix() -> np.ndarray:
    return np.array(REFERENCE_MATRIX)


def reference_envelope() -> DecayEnvelope:
    """Analytic envelope; sample_count 0 marks it as closed-form."""
    return DecayEnvelope(
        n_const=REFERENCE_N, rate=REFERENCE_RATE, validated_horizon=REFERENCE_HORIZON, sample_count=0
    )


def reference_schedule() -> Schedule:
    return make_schedule(REFERENCE_OMEGA, 0.0, REFERENCE_ZETA_FRACTION)


def coverage_pad(tol: float = 1e-8) -> int:
    """Driver coverage needed left of the solve window, sized from the
    worst-case (mu = 4) solution bound so one figure fits every scenario."""
    map_sup = _logistic_sup((HETEROCLINIC_MU, HETEROCLINIC_MU))
    return _lead_in_pad(reference_envelope(), example_contract(), map_sup, REFERENCE_OMEGA,
                        REFERENCE_ZETA_FRACTION, tol) + 2


def homoclinic_driver(window: int = 30, tol: float = 1e-8) -> tuple[DriverOrbit, DriverOrbit]:
    """(beta, alpha): the paired mu=3.9 homoclinic orbit and the paired
    positive fixed point it is homoclinic to."""
    k_min, k_max = _coverage_range(window, coverage_pad(tol))
    m = ScalarMap("logistic", HOMOCLINIC_MU)
    star = (HOMOCLINIC_MU - 1.0) / HOMOCLINIC_MU
    beta = build_orbit(m, "homoclinic", 1.0 / HOMOCLINIC_MU, backward_branch=UPPER_BRANCH,
                       k_min=k_min, k_max=k_max)
    alpha = build_orbit(m, "fixed", star, k_min=k_min, k_max=k_max)
    return pair_orbits(beta, beta), pair_orbits(alpha, alpha)


def heteroclinic_driver(window: int = 30, tol: float = 1e-8):
    """(beta, alpha_fwd, alpha_bwd): the paired mu=4 orbit through 1/4
    and the fixed points 3/4 (forward target) and 0 (backward target)."""
    k_min, k_max = _coverage_range(window, coverage_pad(tol))
    m = ScalarMap("logistic", HETEROCLINIC_MU)
    beta = build_orbit(m, "heteroclinic", 0.25, backward_branch=LOWER_BRANCH,
                       k_min=k_min, k_max=k_max)
    alpha_f = build_orbit(m, "fixed", 0.75, k_min=k_min, k_max=k_max)
    alpha_b = build_orbit(m, "fixed", 0.0, k_min=k_min, k_max=k_max)
    return pair_orbits(beta, beta), pair_orbits(alpha_f, alpha_f), pair_orbits(alpha_b, alpha_b)


@dataclass(frozen=True, eq=False)
class ReferenceScenario:
    kind: str
    system: EpcagSystem
    beta: DriverOrbit
    alphas: tuple


def _assemble(driver: DriverOrbit) -> EpcagSystem:
    return assemble_system(
        reference_matrix(),
        reference_schedule(),
        example_contract(),
        driver,
        envelope=reference_envelope(),
    )


def homoclinic_scenario(window: int = 30, tol: float = 1e-8) -> ReferenceScenario:
    beta, alpha = homoclinic_driver(window, tol)
    return ReferenceScenario("homoclinic", _assemble(beta), beta, (alpha,))


def heteroclinic_scenario(window: int = 30, tol: float = 1e-8) -> ReferenceScenario:
    beta, alpha_f, alpha_b = heteroclinic_driver(window, tol)
    return ReferenceScenario("heteroclinic", _assemble(beta), beta, (alpha_f, alpha_b))


def transfer_catalog(window: int = 30, tol: float = 1e-8):
    """(system template, catalog) for verify_hyperbolic_transfer.

    Rows: the mu=3.9 homoclinic companion serving both directions; then
    the two mu=4 fixed points, each with a stable companion approaching
    it forward and an unstable one leaving it backward. The second
    mu=4 orbit runs the opposite way (3/4 down to 0, seed 1), so the
    two heteroclinic orbits exchange roles between the rows.
    """
    k_min, k_max = _coverage_range(window, coverage_pad(tol))
    m4 = ScalarMap("logistic", HETEROCLINIC_MU)
    beta_h, alpha_h = homoclinic_driver(window, tol)
    het, alpha_34, alpha_0 = heteroclinic_driver(window, tol)
    downhill = build_orbit(m4, "heteroclinic", 1.0, backward_branch=UPPER_BRANCH,
                           k_min=k_min, k_max=k_max)
    downhill = pair_orbits(downhill, downhill)
    catalog = [
        (alpha_h, beta_h, beta_h),
        (alpha_34, het, downhill),
        (alpha_0, downhill, het),
    ]
    return _assemble(het), catalog
