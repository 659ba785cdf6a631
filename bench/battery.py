"""One round of the hyperbolic-transfer battery through the public API.

Run as a script it prints a one-line JSON summary; the reference-cold
workload runs it that way, in a fresh process. The package is called
through its attributes, never through names imported from it, so a
traced run's wrappers see every call.
"""

from __future__ import annotations

import json

import epcag


def battery() -> dict:
    """The bundled catalog, then a control entry whose subject and
    targets are one identical driver, which must fail with distinctness 0."""
    system, catalog = epcag.transfer_catalog()
    report = epcag.verify_hyperbolic_transfer(system, catalog)
    fixed = catalog[0][0]  # the mu = 3.9 fixed point
    control = epcag.verify_hyperbolic_transfer(system, [(fixed, fixed, fixed)])
    return {
        "passed": bool(report.passed),
        "entries": len(report.entries),
        "control_passed": bool(control.passed),
        "control_distinctness": float(control.entries[0].distinctness),
    }


if __name__ == "__main__":
    print(json.dumps(battery()))
