"""Shared fixtures.

The bundled five-oscillator case study drives most of the suite.  Its
100-second integrations are expensive, so the noiseless trace and the five
seeded noisy traces are session scoped and shared between the simulation
tests and the acceptance gate.
"""

from __future__ import annotations

import pytest

from syncert import bundled_config, bundled_expected, run
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
    """The bundled network certificate; its margins, dissipation matrices,
    forms and gain bound are computed once and shared by every test."""
    return paper_config.certificate()


@pytest.fixture(scope="session")
def noiseless_trace(paper_config):
    cfg = paper_config
    model = NetworkModel(
        graph=cfg.graph, agents=cfg.agents, couplings=cfg.couplings,
        disturbances=(DisturbanceSpec(kind="zero"),) * cfg.graph.edge_count,
        initial_states=cfg.initial_states,
    )
    return run(model, cfg.horizon, dt=cfg.dt, stride=cfg.stride)


@pytest.fixture(scope="session")
def noisy_traces(paper_config):
    traces = {}
    for seed in BOUND_SEEDS:
        cfg = paper_config.with_seed(seed)
        traces[seed] = run(cfg.model(), cfg.horizon, dt=cfg.dt, stride=cfg.stride)
    return traces
