"""Shared fixtures.

The reference scenarios cost a few hundred ms each to build and solve,
so the suite constructs them once per session and every module borrows
the same objects. Nothing here mutates them; all carriers are frozen.
"""

import pytest

import epcag.analysis
import epcag.io
from epcag import (
    certify_connection,
    heteroclinic_scenario,
    homoclinic_scenario,
    solve_bounded,
)


@pytest.fixture(scope="session")
def homo():
    return homoclinic_scenario()


@pytest.fixture(scope="session")
def het():
    return heteroclinic_scenario()


@pytest.fixture(scope="session")
def homo_cert(homo):
    return certify_connection(homo.system, homo.alphas, homo.beta, homo.kind)


@pytest.fixture(scope="session")
def het_cert(het):
    return certify_connection(het.system, het.alphas, het.beta, het.kind)


@pytest.fixture(scope="session")
def homo_traj(homo):
    # scenario systems carry their own subject orbit as the driver
    return solve_bounded(homo.system, (-20, 20))


@pytest.fixture
def solve_counter(monkeypatch):
    """Drivers of every solve_bounded call the analysis and I/O layers make."""
    drivers = []

    def counting(sys, *args, **kwargs):
        drivers.append(sys.driver)
        return solve_bounded(sys, *args, **kwargs)

    for module in (epcag.analysis, epcag.io):
        monkeypatch.setattr(module, "solve_bounded", counting)
    return drivers
