"""Bounded solutions of quasilinear systems with piecewise constant
arguments driven by discrete-map orbits.

The pipeline: certify a decay envelope for the linear part, build a
node/argument schedule, wrap the nonlinearity in a declared-constant
contract, generate a driver orbit of the discrete map, assemble and
check the system, solve for the unique bounded solution, and certify
that map-level homoclinic/heteroclinic/hyperbolic structure carries
over to the solutions.

The command-line layer, `epcag.io` (configs, artifacts) and `epcag.cli`
(the `epcag` entry point), loads on first use of one of its names, so
a library caller never imports it or its argparse and json.
"""

import importlib

from .analysis import (
    ConnectionCertificate,
    DecayCertificate,
    TransferEntry,
    TransferReport,
    certify_connection,
    difference_profile,
    fit_decay_rate,
    unstable_gap_bound,
    verify_hyperbolic_transfer,
)
from .driver import (
    LOWER_BRANCH,
    UPPER_BRANCH,
    DriverOrbit,
    build_orbit,
    logistic_inverse,
    logistic_step,
    pair_orbits,
)
from .errors import (
    AssumptionFailureError,
    BadFractionError,
    BadStepError,
    BranchEscapeError,
    ContractViolatedError,
    DegenerateTailError,
    DimensionMismatchError,
    EnvelopeRequiredError,
    EpcagError,
    GridMismatchError,
    HorizonTooShortError,
    InnerDivergenceError,
    IoError,
    NoConvergenceError,
    NonFiniteError,
    NotHurwitzError,
    OrbitCoverageError,
    OutOfDomainError,
    OutOfRangeError,
    OverflowRiskError,
    ParseError,
    PremiseFailureError,
    RangeMismatchError,
    ValidationError,
)
from .linear import (
    DecayEnvelope,
    EnvelopeValidation,
    estimate_decay_envelope,
    mat_exp,
    sample_norm_curve,
    spectral_abscissa,
    validate_envelope,
)
from .nonlinearity import (
    NonlinearityContract,
    custom_contract,
    eval_many,
    example_contract,
    zero_contract,
)
from .reference import (
    REFERENCE_N,
    REFERENCE_OMEGA,
    REFERENCE_RATE,
    ReferenceScenario,
    heteroclinic_scenario,
    homoclinic_scenario,
    reference_envelope,
    reference_matrix,
    reference_schedule,
    transfer_catalog,
)
from .schedule import Schedule, make_schedule
from .solver import (
    SampledTrajectory,
    residual_defect,
    solve_bounded,
    step_interval,
)
from .system import (
    AssumptionReport,
    EpcagSystem,
    ProofConstants,
    assemble_system,
    check_assumptions,
    contraction_margin,
    map_supremum,
    proof_constants,
    solution_bound,
)

__version__ = "0.1.0"

# name -> the command-line module that defines it (PEP 562)
_LAZY = {
    "main": ".cli",
    **dict.fromkeys(
        (
            "RunSpec",
            "certificate_dict",
            "export_frozen_csv",
            "export_orbit_csv",
            "export_trajectory_csv",
            "parse_config",
            "run",
        ),
        ".io",
    ),
}


def __getattr__(name):
    # looked up in the module on every access, never cached here, so a
    # name rebound in epcag.io or epcag.cli reads the same through epcag
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module, __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
