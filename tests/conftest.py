"""Shared fixtures.

The bundled five-oscillator case study drives most of the suite.  Its
100-second integrations are expensive, so the noiseless trace and the five
seeded noisy traces are integrated once, in one batched pass, and shared
between the simulation tests and the acceptance gate.
"""

from __future__ import annotations

import pytest

from syncert import bundled_config, bundled_expected, run_batch
from syncert.simulation import DisturbanceSpec, NetworkModel

# first entry is the master seed committed in the bundled configuration
BOUND_SEEDS = (20260815, 1, 2, 3, 4)


@pytest.fixture(scope="session")
def paper_config():
    return bundled_config()


@pytest.fixture(scope="session")
def paper_expected():
    return bundled_expected()


@pytest.fixture(scope="session")
def paper_certification(paper_config):
    """The bundled network certificate; its margins, dissipation weights,
    forms and gain bound are computed once and shared by every test."""
    return paper_config.certificate()


@pytest.fixture(scope="session")
def paper_traces(paper_config):
    """The noiseless trace, then one noisy trace per ``BOUND_SEEDS`` entry,
    integrated together in one batched RK4 pass."""
    cfg = paper_config
    noiseless = NetworkModel(
        graph=cfg.graph, agents=cfg.agents, couplings=cfg.couplings,
        disturbances=(DisturbanceSpec(kind="zero"),) * cfg.graph.edge_count,
        initial_states=cfg.initial_states,
    )
    noisy = [cfg.with_seed(seed).model() for seed in BOUND_SEEDS]
    return run_batch([noiseless, *noisy], cfg.horizon, dt=cfg.dt, stride=cfg.stride)


@pytest.fixture(scope="session")
def noiseless_trace(paper_traces):
    return paper_traces[0]


@pytest.fixture(scope="session")
def noisy_traces(paper_traces):
    return dict(zip(BOUND_SEEDS, paper_traces[1:]))
