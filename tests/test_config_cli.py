"""JSON configuration parsing, seed plumbing and the command line surface."""

from __future__ import annotations

import copy
import csv
import json
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from syncert import certificates
from syncert.certificates import sync_margins
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
from syncert.goodwin import CertParams
from syncert.graphs import edge_stats
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
    with pytest.raises(ConfigError):
        cfg.with_simulation(stride=0)


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
    report = sync_margins(edge_stats(cfg.graph), cert.sectors,
                          cert.certificates)
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


def test_certify_solves_each_quantity_once(tmp_path, monkeypatch):
    calls = {"eigvalsh": 0, "jacobi": 0, "edge_stats": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(certificates, "symmetric_eigenvalues",
                        counted("eigvalsh", certificates.symmetric_eigenvalues))
    jacobi_fn = counted("jacobi", certificates.jacobi_eigenvalues)
    for module in ("syncert.certificates", "syncert.graphs"):
        monkeypatch.setattr(f"{module}.jacobi_eigenvalues", jacobi_fn)
    stats_fn = counted("edge_stats", certificates.edge_stats)
    for module in ("syncert.certificates", "syncert.cli", "syncert.goodwin"):
        monkeypatch.setattr(f"{module}.edge_stats", stats_fn)
    result = CliRunner().invoke(main, ["certify", str(_bundled_path(tmp_path))])
    assert result.exit_code == 0, result.output
    # margin eigenvalue once, then the smallest and largest response
    # eigenvalues of the single slope sample; Jacobi is only the test oracle
    assert calls == {"eigvalsh": 3, "jacobi": 0, "edge_stats": 1}


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
    # the gain bound cannot be formed: too many non-point edges to scan
    (_K6_SINUSOID, [], "15 edges with non-point sectors"),
    # the gain bound is formed but not certified (n_min <= 0)
    (_payload(couplings={"kind": "linear", "gain": 0.5}), ["--check-bound"],
     "gain bound is not certified"),
], ids=["non_point_sectors", "uncertified_bound"])
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
    report = sync_margins(edge_stats(cfg.graph), cert.sectors,
                          cert.certificates)
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


def test_reproduce_per_edge_mode_smoke():
    runner = CliRunner()
    result = runner.invoke(main, ["reproduce-paper", "--mode", "per_edge",
                                  "-T", "1"])
    assert result.exit_code == 0, result.output
    assert "all checks passed" in result.output
