"""JSON configuration parsing, seed plumbing and the command line surface."""

from __future__ import annotations

import copy
import csv
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from syncert import __version__, certificates, graphs
from syncert.cli import main
from syncert.config import (
    SEED_ENV_VAR,
    ConfigError,
    bundled_config,
    bundled_expected,
    config_from_dict,
    parse_config,
    seed_override,
)
from syncert.goodwin import CertParams, certify_network
from syncert.noise import edge_seed_sequence

TRIANGLE = {
    "graph": {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
    "agents": {"a1": 0.5, "a2": 1.0, "a3": 1.0, "b2": 1.5, "b3": 1.5,
               "hill": 14, "input_gains": [0.9, 1.0, 1.1],
               "initial_outputs": [1.0, -0.5, 0.3]},
    "couplings": {"kind": "linear", "gain": 10.0},
    "disturbances": {"kind": "gaussian", "scale": 0.2},
    "certification": {"theta": 2.0, "theta3": 1.5},
    "simulation": {"dt": 0.001, "horizon": 0.5, "stride": 50},
    "seed": 4242,
}


def _payload(**overrides):
    payload = copy.deepcopy(TRIANGLE)
    payload.update(copy.deepcopy(overrides))
    return payload


def _write(tmp_path, payload, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _bundled_path(tmp_path):
    text = (resources.files("syncert") / "fixtures" / "paper_k5.json").read_text(
        encoding="utf-8")
    path = tmp_path / "bundled.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_bundled_config_values():
    cfg = bundled_config()
    assert cfg.graph.n == 5 and cfg.graph.edge_count == 10
    assert cfg.certification == CertParams(theta=2.0, theta3=1.5)
    assert cfg.mode == "uniform"
    assert (cfg.dt, cfg.horizon, cfg.stride) == (1e-3, 100.0, 100)
    assert cfg.seed == 20260815
    assert all(s.alpha_lo == s.alpha_hi == 5.0 for s in cfg.sectors)
    assert all(d.kind == "gaussian" for d in cfg.disturbances)
    expected = bundled_expected()
    assert expected["sync_horizon"] <= cfg.horizon


def test_defaults_fill():
    cfg = config_from_dict({
        "graph": {"n": 2, "edges": [[1, 2]]},
        "agents": {"a1": 0.5, "a2": 1.0, "a3": 1.0, "b2": 1.5, "b3": 1.5,
                   "hill": 14, "input_gains": [1.0, 1.1]},
        "couplings": {"kind": "linear", "gain": 5.0},
    })
    assert (cfg.dt, cfg.horizon, cfg.stride) == (1e-3, 100.0, 100)
    assert cfg.seed == 0 and cfg.mode == "uniform"
    assert cfg.certification is None
    assert all(d.kind == "zero" for d in cfg.disturbances)
    assert np.array_equal(cfg.initial_states, np.zeros((2, 3)))
    with pytest.raises(ConfigError, match="certification block required") as err:
        cfg.certificate()
    assert err.value.pointer == "/certification"


def test_initial_outputs_fill_first_component():
    cfg = config_from_dict(_payload())
    assert np.array_equal(cfg.initial_states[:, 0], [1.0, -0.5, 0.3])
    assert np.array_equal(cfg.initial_states[:, 1:], np.zeros((3, 2)))


@pytest.mark.parametrize("mutate, pointer, fragment", [
    (lambda d: d.pop("graph"), "/", "missing required key 'graph'"),
    (lambda d: d.update(bogus=1), "/bogus", "unknown key"),
    (lambda d: d["graph"].update(edges=[[1]]), "/graph/edges/0", "pair"),
    (lambda d: d["graph"].update(edges=[[1, 1]]), "/graph/edges", "self-loop"),
    (lambda d: d["agents"].update(input_gains=[1.0]), "/agents/input_gains",
     "input gains for"),
    (lambda d: d["agents"].update(initial_states=[[0, 0, 0]] * 3),
     "/agents", "not both"),
    (lambda d: d["agents"].update(hill=True), "/agents/hill",
     "expected an integer"),
    (lambda d: d["agents"].update(input_gains=[0.9, 0, 1.1]),
     "/agents/input_gains/1", "must be positive"),
    (lambda d: d["agents"].update(a1=-0.5), "/agents/a1", "must be positive"),
    (lambda d: d["agents"].update(hill=1), "/agents/hill", "integer >= 2"),
    (lambda d: d["certification"].update(theta=-1), "/certification/theta",
     "must be positive"),
    (lambda d: d["certification"].update(theta3=5.0), "/certification/theta3",
     "admissible interval"),
    (lambda d: d.update(couplings={"kind": "linear", "gain": -1.0}),
     "/couplings/gain", "must be positive"),
    (lambda d: d.update(couplings=[{"kind": "linear", "gain": 5.0}] * 2
                        + [{"kind": "affine_sinusoid", "gain": -5.0,
                            "amplitude": 0.3,
                            "sector": {"alpha_lo": 4.7, "alpha_hi": 5.3}}]),
     "/couplings/2/gain", "must be positive"),
    (lambda d: d.update(couplings={"kind": "affine_sinusoid", "gain": 5.0,
                                   "amplitude": math.inf,
                                   "sector": {"alpha_lo": 4.7, "alpha_hi": 5.3}}),
     "/couplings/amplitude", "finite number"),
    (lambda d: d.update(couplings={"kind": "piecewise_linear",
                                   "knots": [[2.0, 1.0], [1.0, 2.0]],
                                   "sector": {"alpha_lo": 0.5, "alpha_hi": 2.0}}),
     "/couplings/knots", "strictly increasing"),
    (lambda d: d["disturbances"].update(scale=-0.1), "/disturbances/scale",
     "must be nonnegative"),
    (lambda d: d.update(couplings={"kind": "linear", "gain": 5.0,
                                   "sector": {"alpha_lo": 5.5,
                                              "alpha_hi": 6.0}}),
     "/couplings", "declared sector"),
    (lambda d: d.update(couplings={"kind": "warped"}), "/couplings/kind",
     "unknown coupling kind"),
    (lambda d: d.update(couplings=[{"kind": "linear", "gain": 5.0}]),
     "/couplings", "couplings for"),
    (lambda d: d["disturbances"].update(seed=3), "/disturbances/seed",
     "per-edge list form"),
    (lambda d: d["certification"].update(mode="per-edge"),
     "/certification/mode", "mode must be one of"),
    (lambda d: d["certification"].pop("theta"), "/certification",
     "missing required key 'theta'"),
    (lambda d: d["simulation"].update(dt=-0.1), "/simulation/dt",
     "must be positive"),
    (lambda d: d.update(seed=1.5), "/seed", "expected an integer"),
])
def test_rejections_carry_pointers(mutate, pointer, fragment):
    payload = _payload()
    mutate(payload)
    with pytest.raises(ConfigError, match=fragment) as err:
        config_from_dict(payload)
    assert err.value.pointer == pointer


def test_overstated_sinusoid_sector_exits_2_with_pointer(tmp_path):
    # gain 1, amplitude 2: the slope ratio's infimum is 0.565533; a declared
    # alpha_lo 0.0068 above it passed the sampled check
    sinusoid = {"kind": "affine_sinusoid", "gain": 1.0, "amplitude": 2.0,
                "sector": {"alpha_lo": 0.565533 + 0.0068, "alpha_hi": 3.0}}
    linear = {"kind": "linear", "gain": 10.0}
    path = _write(tmp_path, _payload(couplings=[linear, sinusoid, linear]))
    result = CliRunner().invoke(main, ["certify", str(path)])
    assert result.exit_code == 2
    assert "error: /couplings/1: declared sector" in result.output
    assert "[0.565533, 3]" in result.output


def test_coupling_dict_replicates_and_list_is_positional():
    cfg = config_from_dict(_payload())
    assert len(set(cfg.couplings)) == 1
    listed = config_from_dict(_payload(couplings=[
        {"kind": "linear", "gain": 5.0},
        {"kind": "linear", "gain": 10.0},
        {"kind": "linear", "gain": 15.0},
    ]))
    assert [c.gain for c in listed.couplings] == [5.0, 10.0, 15.0]


def test_gaussian_seeds_derive_from_master():
    cfg = config_from_dict(_payload())
    assert [d.seed for d in cfg.disturbances] == edge_seed_sequence(4242, 3)


def test_explicit_seed_allowed_in_list_form():
    cfg = config_from_dict(_payload(disturbances=[
        {"kind": "gaussian", "scale": 0.2, "seed": 7},
        {"kind": "gaussian", "scale": 0.2},
        {"kind": "constant", "scale": 0.1},
    ]))
    derived = edge_seed_sequence(4242, 3)
    assert cfg.disturbances[0].seed == 7
    assert cfg.disturbances[1].seed == derived[1]
    assert cfg.disturbances[2].kind == "constant"


def test_with_seed_rederives_every_gaussian_stream():
    cfg = config_from_dict(_payload(disturbances=[
        {"kind": "gaussian", "scale": 0.2, "seed": 7},
        {"kind": "gaussian", "scale": 0.2},
        {"kind": "zero"},
    ]))
    reseeded = cfg.with_seed(99)
    derived = edge_seed_sequence(99, 3)
    assert reseeded.seed == 99
    # the explicitly pinned seed is re-derived too: one master seed must pin
    # the whole realisation
    assert [d.seed for d in reseeded.disturbances[:2]] == derived[:2]
    assert reseeded.disturbances[2].kind == "zero"
    assert cfg.seed == 4242


def test_with_simulation_overrides():
    cfg = config_from_dict(_payload())
    tuned = cfg.with_simulation(dt=2e-3, horizon=1.0)
    assert (tuned.dt, tuned.horizon, tuned.stride) == (2e-3, 1.0, 50)
    assert cfg.with_simulation() is cfg
    with pytest.raises(ConfigError, match="must be positive") as err:
        cfg.with_simulation(dt=0.0)
    assert err.value.pointer == "/simulation/dt"


def test_seed_override_precedence(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "5")
    assert seed_override(7) == 7
    assert seed_override(None) == 5
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigError, match="must be an integer"):
        seed_override(None)
    monkeypatch.delenv(SEED_ENV_VAR)
    assert seed_override(None) is None


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(broken)


def test_certify_writes_full_precision_csv(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "margins.csv"
    result = runner.invoke(main, ["certify", str(path), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert "verdict: certified" in result.output

    cfg = parse_config(path)
    cert = cfg.certificate()
    report = cert.margins
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["edge"] for r in rows] == ["1-2", "1-3", "2-3"]
    for k, row in enumerate(rows):
        assert float(row["nu"]) == cert.nu[k]
        assert float(row["gamma"]) == cert.gamma[k]
        assert float(row["beta"]) == cert.beta[k]
        assert float(row["slack"]) == report.slacks[k]
        assert row["ok"] == "true"


def test_certify_reports_failed_verdict(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload(couplings={"kind": "linear", "gain": 2.0}))
    result = runner.invoke(main, ["certify", str(path)])
    assert result.exit_code == 1
    assert "NOT certified" in result.output


def test_certify_rejects_disconnected_graph(tmp_path):
    payload = json.loads(_bundled_path(tmp_path).read_text(encoding="utf-8"))
    edges = payload["graph"]["edges"]
    payload["graph"] = {"n": 10, "edges": edges + [[i + 5, j + 5] for i, j in edges]}
    for key in ("input_gains", "initial_outputs"):
        payload["agents"][key] = payload["agents"][key] * 2
    result = CliRunner().invoke(main, ["certify", str(_write(tmp_path, payload))])
    assert result.exit_code == 1, result.output
    assert "verdict: NOT certified (graph is disconnected)" in result.output


def _count_certificate_work(monkeypatch):
    """Count eigen solves and edge-statistics computations from here on."""
    calls = {"eigvalsh": 0, "edge_stats": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(certificates, "symmetric_eigenvalues",
                        counted("eigvalsh", certificates.symmetric_eigenvalues))
    monkeypatch.setattr(graphs, "edge_stats", counted("edge_stats", graphs.edge_stats))
    return calls


def test_certify_solves_each_quantity_once(tmp_path, monkeypatch):
    calls = _count_certificate_work(monkeypatch)
    result = CliRunner().invoke(main, ["certify", str(_bundled_path(tmp_path))])
    assert result.exit_code == 0, result.output
    # margin eigenvalue once, then the smallest and largest response
    # eigenvalues of the single slope sample
    assert calls == {"eigvalsh": 3, "edge_stats": 1}


@pytest.mark.parametrize("command", [
    ["certify"],
    ["search", "--theta", "2:2:1", "--theta3", "1.5:1.5:1"],
], ids=["certify", "search"])
def test_edgeless_graph_exits_2_before_any_table(tmp_path, command):
    path = _write(tmp_path, _payload(graph={"n": 3, "edges": []}))
    result = CliRunner().invoke(main, [command[0], str(path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert result.output == "error: graph has no edges, nothing to certify\n"


def test_search_computes_edge_stats_once_for_the_grid(tmp_path, monkeypatch):
    path = _write(tmp_path, _payload())
    out = tmp_path / "grid.csv"
    calls = _count_certificate_work(monkeypatch)
    result = CliRunner().invoke(main, ["search", str(path), "--theta", "0.5:4:4",
                                       "--theta3", "1.2:1.95:3", "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert calls == {"eigvalsh": 0, "edge_stats": 1}
    cfg = parse_config(path)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12 and all(r["feasible"] == "true" for r in rows)
    for row in rows:
        cp = CertParams(theta=float(row["theta"]), theta3=float(row["theta3"]))
        cert = certify_network(cfg.agents, cfg.graph, cp,
                               *certificates.sector_arrays(cfg.sectors), mode=cfg.mode)
        assert float(row["min_slack"]) == cert.margins.min_slack


def test_search_reproduces_golden_grid_csv(tmp_path):
    # written on the bundled K5 network by the per-edge certificate build
    # that the array build replaced; the grid includes theta3 points outside
    # the admissible (1.125, 2), which carry nan
    expected = (Path(__file__).parent / "data" / "search_k5_golden.csv").read_bytes()
    out = tmp_path / "grid.csv"
    result = CliRunner().invoke(main, ["search", str(_bundled_path(tmp_path)),
                                       "--theta", "0.5:4:7", "--theta3", "1.0:2.1:9",
                                       "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert "grid points: 63, admissible: 49" in result.output
    assert out.read_bytes() == expected


def test_version_option_reads_the_package_version():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == f"syncert, version {__version__}\n"
    assert __version__ == "0.1.0"


def test_certify_rejects_inadmissible_theta3_with_pointer(tmp_path):
    path = _write(tmp_path, _payload(certification={"theta": 2.0, "theta3": 5.0}))
    result = CliRunner().invoke(main, ["certify", str(path)])
    assert result.exit_code == 2
    assert ("error: /certification/theta3: must lie in the admissible interval "
            "(b3^2/(2*a3), 2*a2) = (1.125, 2), got 5.0") in result.output


def test_simulate_reproduces_golden_mixed_coupling_trace(tmp_path):
    # all three coupling kinds with distinct parameters, piecewise knot counts
    # of 1, 2 and 4 and arguments past every last knot; trace.csv written by
    # the per-edge evaluator that the kind kernels replaced
    data = Path(__file__).parent / "data"
    out = tmp_path / "mixed"
    result = CliRunner().invoke(main, ["simulate", str(data / "mixed_couplings.json"),
                                       "--full", "-o", str(out), "--seed", "1"])
    assert result.exit_code == 0, result.output
    assert (out / "trace.csv").read_bytes() == \
        (data / "mixed_couplings_trace.csv").read_bytes()


def test_reproduce_paper_reproduces_golden_traces(tmp_path):
    # both traces written by the one-realisation-per-pass integrator that the
    # batched pass replaced
    golden = Path(__file__).parent / "data" / "reproduce_paper_T1_seed3"
    out = tmp_path / "repro"
    result = CliRunner().invoke(main, ["reproduce-paper", "-T", "1", "--seed", "3",
                                       "-o", str(out)])
    assert result.exit_code == 0, result.output
    for name in ("trace_noiseless.csv", "trace_noisy.csv"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_certify_rejects_bad_config(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload(bogus=1))
    result = runner.invoke(main, ["certify", str(path)])
    assert result.exit_code == 2
    assert "unknown key" in result.output


def test_simulate_trace_layout_and_determinism(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "run1"
    result = runner.invoke(main, ["simulate", str(path), "-o", str(out)])
    assert result.exit_code == 0, result.output
    data = (out / "trace.csv").read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "t,y_1,y_2,y_3,normDTY,normW,bound_margin"
    assert len(lines) == 1 + 11  # header plus 500 steps sampled every 50
    # identical invocations must byte-match
    runner.invoke(main, ["simulate", str(path), "-o", str(tmp_path / "run2")])
    assert (tmp_path / "run2" / "trace.csv").read_bytes() == data
    # a different master seed changes the realisation
    runner.invoke(main, ["simulate", str(path), "-o", str(tmp_path / "run3"),
                         "--seed", "7"])
    seeded = (tmp_path / "run3" / "trace.csv").read_bytes()
    assert seeded != data
    # the environment override is equivalent to the flag
    runner.invoke(main, ["simulate", str(path), "-o", str(tmp_path / "run4")],
                  env={SEED_ENV_VAR: "7"})
    assert (tmp_path / "run4" / "trace.csv").read_bytes() == seeded


def test_simulate_full_appends_edge_columns(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "full"
    result = runner.invoke(main, ["simulate", str(path), "-o", str(out),
                                  "--full"])
    assert result.exit_code == 0, result.output
    with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == (
            ["t", "y_1", "y_2", "y_3", "normDTY", "normW", "bound_margin"]
            + [f"{s}_{k}" for s in ("X", "V", "W") for k in (1, 2, 3)])
        for row in reader:
            for k in (1, 2, 3):
                x, v = float(row[f"X_{k}"]), float(row[f"V_{k}"])
                assert v == pytest.approx(10.0 * x, rel=1e-12, abs=1e-12)


def test_simulate_checks_pass_and_annotate_csv(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "checked"
    result = runner.invoke(main, ["simulate", str(path), "-o", str(out),
                                  "--check-bound", "--check-lemma1"])
    assert result.exit_code == 0, result.output
    assert "bound check" in result.output and "pass" in result.output
    assert "dissipation check" in result.output
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.endswith("bound_margin,dissipation_residual")


def test_simulate_checks_require_certification_block(tmp_path):
    runner = CliRunner()
    payload = _payload()
    del payload["certification"]
    path = _write(tmp_path, payload)
    result = runner.invoke(main, ["simulate", str(path),
                                  "-o", str(tmp_path / "x"), "--check-bound"])
    assert result.exit_code == 2
    assert "certification block required" in result.output


_K6_SINUSOID = _payload(
    graph={"n": 6, "edges": [[i, j] for i in range(1, 7) for j in range(i + 1, 7)]},
    agents=dict(TRIANGLE["agents"], input_gains=[0.95, 1.0, 1.05] * 2,
                initial_outputs=[1.0, -0.5, 0.3] * 2),
    couplings={"kind": "affine_sinusoid", "gain": 5.0, "amplitude": 0.3,
               "sector": {"alpha_lo": 4.7, "alpha_hi": 5.3}},
)


@pytest.mark.parametrize("payload, flags, message", [
    # the gain bound is formed but not certified (n_min <= 0)
    (_payload(couplings={"kind": "linear", "gain": 0.5}), ["--check-bound"],
     "gain bound is not certified"),
], ids=["uncertified_bound"])
def test_simulate_rejects_unboundable_certificate_before_integrating(
        tmp_path, monkeypatch, payload, flags, message):
    def no_run(*args, **kwargs):
        raise AssertionError("integrated before the certificate was checked")

    monkeypatch.setattr("syncert.cli.run", no_run)
    result = CliRunner().invoke(main, ["simulate", str(_write(tmp_path, payload)),
                                       "-o", str(tmp_path / "x"), *flags])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "integrated" not in result.output


def test_non_point_box_of_any_size_is_bounded(tmp_path):
    # 15 non-point edges: the interval bound has no edge limit
    path = _write(tmp_path, _K6_SINUSOID)
    result = CliRunner().invoke(main, ["certify", str(path)])
    assert result.exit_code == 0, result.output
    assert "gain bound (interval, whole slope box): gain " in result.output
    result = CliRunner().invoke(main, ["simulate", str(path), "--check-bound",
                                       "-o", str(tmp_path / "x")])
    assert result.exit_code == 0, result.output
    assert "integrated 500 steps" in result.output
    assert "bound check: worst sampled margin" in result.output


def test_certify_interval_bound_takes_one_more_solve(tmp_path, monkeypatch):
    # a non-point box of 15 edges: margin, centre, centre plus output shift
    # and radius, whatever the edge count
    calls = _count_certificate_work(monkeypatch)
    result = CliRunner().invoke(main, ["certify", str(_write(tmp_path, _K6_SINUSOID))])
    assert result.exit_code == 0, result.output
    assert calls == {"eigvalsh": 4, "edge_stats": 1}


def test_simulate_blowup_exit_code(tmp_path):
    payload = _payload(
        graph={"n": 2, "edges": [[1, 2]]},
        agents={"a1": 0.5, "a2": 1.0, "a3": 1.0, "b2": 1.5, "b3": 1.5,
                "hill": 14, "input_gains": [1.0, 1.2],
                "initial_outputs": [1.0, -1.0]},
        couplings={"kind": "linear", "gain": 50.0},
        disturbances={"kind": "zero"},
        simulation={"dt": 1.0, "horizon": 100.0, "stride": 1},
    )
    del payload["certification"]
    path = _write(tmp_path, payload)
    runner = CliRunner()
    result = runner.invoke(main, ["simulate", str(path),
                                  "-o", str(tmp_path / "boom")])
    assert result.exit_code == 3
    assert "diverged at t =" in result.output


def test_simulate_rejects_off_grid_horizon(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    result = runner.invoke(main, ["simulate", str(path),
                                  "-o", str(tmp_path / "x"),
                                  "-T", "0.25", "--dt", "0.1"])
    assert result.exit_code == 2
    assert "integer multiple" in result.output


def test_search_single_point_matches_certify(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "grid.csv"
    result = runner.invoke(main, ["search", str(path), "--theta", "2:2:1",
                                  "--theta3", "1.5:1.5:1", "-o", str(out)])
    assert result.exit_code == 0, result.output
    cfg = parse_config(path)
    cert = cfg.certificate()
    report = cert.margins
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["min_slack"]) == report.min_slack
    assert rows[0]["feasible"] == "true"


def test_search_marks_infeasible_rows(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "grid.csv"
    result = runner.invoke(main, ["search", str(path), "--theta", "2:2:1",
                                  "--theta3", "1:1.5:2", "-o", str(out)])
    assert result.exit_code == 0, result.output
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["feasible"] == "false" and rows[0]["min_slack"] == "nan"
    assert rows[1]["feasible"] == "true"


def test_search_bad_grid_spec_exits_two(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    for spec in ("2:1", "a:b:1"):
        result = runner.invoke(main, ["search", str(path), "--theta", spec,
                                      "--theta3", "1.5:1.5:1"])
        assert result.exit_code == 2


def test_search_infeasible_grid_exits_two(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    result = runner.invoke(main, ["search", str(path), "--theta", "2:2:1",
                                  "--theta3", "1:1.1:2"])
    assert result.exit_code == 2
    assert "inadmissible" in result.output


def test_graph_stats_csv_outputs(tmp_path):
    runner = CliRunner()
    path = _bundled_path(tmp_path)
    stats_out = tmp_path / "stats.csv"
    inc_out = tmp_path / "incidence.csv"
    result = runner.invoke(main, ["graph-stats", str(path),
                                  "-o", str(stats_out),
                                  "--incidence", str(inc_out)])
    assert result.exit_code == 0, result.output
    assert "connected: yes" in result.output
    with open(stats_out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        assert (row["degree_i"], row["degree_j"]) == ("4", "4")
        assert (row["common"], row["exclusive"]) == ("3", "0")
    with open(inc_out, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        matrix = np.array([[int(v) for v in row] for row in reader])
    assert header == [f"{i}-{j}" for i in range(1, 6) for j in range(i + 1, 6)]
    assert matrix.shape == (5, 10)
    assert np.array_equal(np.sort(np.unique(matrix)), [-1, 0, 1])
    assert np.array_equal(matrix.sum(axis=0), np.zeros(10))


def test_reproduce_short_horizon_smoke(tmp_path):
    runner = CliRunner()
    out = tmp_path / "repro"
    result = runner.invoke(main, ["reproduce-paper", "-T", "2", "--dt", "2e-3",
                                  "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert "all checks passed" in result.output
    assert "noiseless-sync: skipped" in result.output
    assert "FAIL" not in result.output
    for name in ("margins.csv", "trace_noiseless.csv", "trace_noisy.csv"):
        assert (out / name).exists()


def test_reproduce_below_the_first_grid_horizon():
    # no HORIZON_GRID point lies within T = 0.5: the integral inequalities
    # are checked at the horizon itself
    result = CliRunner().invoke(main, ["reproduce-paper", "-T", "0.5", "--seed", "3"])
    assert result.exit_code == 0, result.output
    assert "all checks passed" in result.output
    assert result.output.count("at horizons [0.5]") == 2


def test_vocabulary_rejections_keep_their_text():
    payload = _payload()
    payload["certification"]["mode"] = "per-edge"
    with pytest.raises(ConfigError) as err:
        config_from_dict(payload)
    assert str(err.value) == ("/certification/mode: mode must be one of "
                              "('uniform', 'per_edge'), got 'per-edge'")
    payload = _payload()
    payload["disturbances"]["kind"] = "pink"
    with pytest.raises(ConfigError) as err:
        config_from_dict(payload)
    assert str(err.value) == "/disturbances/kind: unknown disturbance kind 'pink'"
    result = CliRunner().invoke(main, ["reproduce-paper", "--mode", "per-edge"])
    assert result.exit_code == 2
    assert "'uniform', 'per_edge'" in result.output


def test_reproduce_per_edge_mode_smoke():
    runner = CliRunner()
    result = runner.invoke(main, ["reproduce-paper", "--mode", "per_edge",
                                  "-T", "1"])
    assert result.exit_code == 0, result.output
    assert "all checks passed" in result.output
