"""End-to-end acceptance checks for the bundled five-oscillator case study
and the toolkit's numerical hygiene.  Each test is one verdict; run with
``pytest -v tests/test_acceptance.py`` to see one pass/fail line per check.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import erdos_renyi_graph, pd_oracle
from syncert.certificates import POSITIVITY_TOL
from syncert.cli import main
from syncert.goodwin import hill_slope
from syncert.graphs import edge_slacks
from syncert.simulation import trace_checks

# frozen targets and tolerances for the bundled case study
NU_TARGET = -0.01
NU_ATOL = 1e-12
NODE_SUM_TARGET = -0.04
GAMMA_TARGET = -16.125
GAMMA_ATOL = 5e-3
SLACK_TARGET = 0.035
SLACK_ATOL = 1e-3

# slope-constant consistency
SLOPE_GAP_ATOL_LARGE_HILL = 1e-3
SLOPE_GAP_RANGE_SMALL_HILL = (0.105, 0.115)

# dominance-check soundness scan
SOUNDNESS_GRAPHS = 1000
PD_EIG_FLOOR = 1e-10

# synchronisation of the undisturbed network
SYNC_RATIO_MAX = 0.05

# integrator order: halving dt divides the global error by about 2**4
RK4_RATIO_RANGE = (12.0, 20.0)


def test_bundled_certificate_matches_frozen_values(paper_certification):
    cert = paper_certification
    assert np.max(np.abs(cert.nu - NU_TARGET)) <= NU_ATOL
    assert np.max(np.abs(cert.nu_node - NODE_SUM_TARGET)) <= NU_ATOL
    assert np.max(np.abs(cert.gamma - GAMMA_TARGET)) <= GAMMA_ATOL
    assert np.max(np.abs(cert.slacks - SLACK_TARGET)) <= SLACK_ATOL
    assert cert.satisfied


def test_slope_constant_consistent_across_hill_exponents(paper_certification):
    # independent route to the output weight: closed-form slope constant
    # fed through the derived-weight formulas at theta = 2, theta3 = 1.5
    delta = hill_slope(14)
    a1, a2, a3, b2, b3 = 0.5, 1.0, 1.0, 1.5, 1.5
    theta, theta3 = 2.0, 1.5
    theta1 = delta**2 * theta3 / (2.0 * a3 * theta3 - b3**2)
    theta2 = b2**2 / (2.0 * a2 - theta3)
    gamma = a1 - theta - 0.5 * (theta1 + theta2)
    assert gamma == np.max(paper_certification.gamma)
    assert gamma == np.min(paper_certification.gamma)
    assert abs(gamma - GAMMA_TARGET) <= GAMMA_ATOL
    # the closed form never exceeds a brute-force scan of the true slope
    xs = np.linspace(1e-6, 2.0, 400001)
    for hill in range(2, 21):
        grid_max = float(np.max(hill * xs ** (hill - 1)
                                / (xs**hill + 1.0) ** 2))
        assert hill_slope(hill) <= grid_max + 1e-12
        if hill == 2:
            lo, hi = SLOPE_GAP_RANGE_SMALL_HILL
            assert lo <= grid_max - hill_slope(hill) <= hi
        if hill == 14:
            assert abs(grid_max - hill_slope(hill)) < SLOPE_GAP_ATOL_LARGE_HILL


def test_edge_dominance_check_is_sound_on_random_graphs():
    rng = np.random.default_rng(20260815)
    passes = 0
    violations = 0
    for _ in range(SOUNDNESS_GRAPHS):
        n = int(rng.integers(2, 9))
        g = erdos_renyi_graph(n, float(rng.uniform(0.3, 1.0)), rng,
                              require_connected=True)
        mu = rng.uniform(-2.0, 2.0, size=n)
        sigma = rng.uniform(0.0, 3.0, size=g.edge_count)
        # connected, so the verdict is every slack beyond POSITIVITY_TOL
        if np.all(edge_slacks(g, mu, sigma) > POSITIVITY_TOL):
            passes += 1
            if pd_oracle(g, mu, sigma) <= PD_EIG_FLOOR:
                violations += 1
    assert violations == 0
    assert passes > 0, "scan never exercised the passing branch"


@pytest.fixture(scope="module")
def noisy_verdicts(noisy_traces, paper_certification):
    """The library's trace verdicts on each noisy trace, by seed and check
    name: the bound, the network inequality and every pair inequality,
    each at every grid point."""
    cert = paper_certification
    verdicts = {}
    for seed, trace in noisy_traces.items():
        checks, _ = trace_checks(trace, cert, trace.margin_curve(cert.bound))
        verdicts[seed] = {name: (ok, detail) for name, ok, detail in checks}
    return verdicts


def _assert_verdicts(noisy_verdicts, name: str) -> None:
    for seed, verdicts in noisy_verdicts.items():
        ok, detail = verdicts[name]
        assert ok, f"seed {seed}, {name}: {detail}"


def test_certified_bound_holds_on_noisy_traces(noisy_traces, noisy_verdicts,
                                               paper_certification):
    for trace in noisy_traces.values():
        margins = trace.margin_curve(paper_certification.bound)
        assert margins.shape == trace.times.shape and trace.times[-1] == 100.0
    _assert_verdicts(noisy_verdicts, "bound-margins")


def test_network_dissipation_inequality_on_noisy_traces(noisy_verdicts):
    _assert_verdicts(noisy_verdicts, "dissipation-residual")


def test_pairwise_dissipation_inequality_on_noisy_traces(noisy_verdicts):
    _assert_verdicts(noisy_verdicts, "pair-dissipation")


def test_noiseless_network_synchronises(noiseless_trace, paper_expected):
    start = noiseless_trace.disagreement(0)
    end = noiseless_trace.disagreement(-1)
    assert start > 1.0  # the bundled initial outputs are well spread
    ratio = end / start
    # the frozen threshold is far stricter than the qualitative 5% claim
    assert paper_expected["sync_threshold"] <= SYNC_RATIO_MAX
    assert ratio <= paper_expected["sync_threshold"]


def test_integrator_order_and_bytewise_reproducibility(tmp_path):
    # global error of x' = -x, x(0) = 1 over [0, 1] for dt and dt/2
    def global_error(dt: float) -> float:
        x = 1.0
        steps = int(round(1.0 / dt))
        for _ in range(steps):
            k1 = -x
            k2 = -(x + 0.5 * dt * k1)
            k3 = -(x + 0.5 * dt * k2)
            k4 = -(x + dt * k3)
            x += (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        return abs(x - math.exp(-1.0))

    ratio = global_error(0.1) / global_error(0.05)
    lo, hi = RK4_RATIO_RANGE
    assert lo <= ratio <= hi

    # identical seeds must give byte-identical trace files
    text = (resources.files("syncert") / "fixtures"
            / "paper_k5.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    payload["simulation"]["horizon"] = 1.0
    config_path = tmp_path / "case.json"
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    runner = CliRunner()
    for out in ("first", "second"):
        result = runner.invoke(main, ["simulate", str(config_path),
                                      "-o", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    first = (tmp_path / "first" / "trace.csv").read_bytes()
    second = (tmp_path / "second" / "trace.csv").read_bytes()
    assert first == second and len(first) > 0
