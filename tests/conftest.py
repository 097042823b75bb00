"""Shared fixtures: the calibrated parameter sets and load programs.

The glass set is the calibrated glass-fabric parameter set used for the
machine-precision checks; the soft set is the normalized demonstration set
(stresses in units of mu0) whose zero-yield variant drives the cyclic
verification program; the locking set raises the power-law exponent so the
power term is negligible below 10 degrees of shear.
"""

import numpy as np
import pytest

from wovenshear import ElastoplasticParams, HyperelasticParams, LoadProgram

import acceptance_log


@pytest.fixture(scope="session")
def glass_params():
    return ElastoplasticParams(mu_f=5.0, tau_y=1e-4, A_h=8.8, a_h=0.0024,
                               B_h=0.0028, b_h=65.0, C_h=1.0, c_h=11.0)


@pytest.fixture(scope="session")
def glass_hyper():
    return HyperelasticParams(eps_L=110.0)


@pytest.fixture(scope="session")
def soft_params():
    # normalized units (mu0 = 1) with a visible elastic range
    return ElastoplasticParams(mu_f=1.0, tau_y=0.1, A_h=0.05, a_h=1.0,
                               B_h=0.01, b_h=55.0, C_h=0.7, c_h=5.0)


@pytest.fixture(scope="session")
def demo_params():
    # zero yield stress: plastic from the first increment
    return ElastoplasticParams(mu_f=1.0, tau_y=0.0, A_h=0.05, a_h=1.0,
                               B_h=0.01, b_h=55.0, C_h=0.7, c_h=5.0)


@pytest.fixture(scope="session")
def locking_params():
    # high power-law exponent: the locking term is < 1e-10 of the response
    # below 10 degrees of shear
    return ElastoplasticParams(mu_f=1.0, tau_y=0.0, A_h=0.05, a_h=1.0,
                               B_h=0.01, b_h=55.0, C_h=0.7, c_h=15.0)


@pytest.fixture(scope="session")
def cycle_program():
    # load to 50 deg, unload to 20 deg, reload to 50 deg
    return LoadProgram.from_gamma_degrees([50.0, 20.0, 50.0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.LINES:
            terminalreporter.write_line(line)
