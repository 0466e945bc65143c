"""Command line interface.

Exit codes are a stable contract: 0 all requested checks pass, 1 a
certificate verdict or trace check is false, 2 invalid or inadmissible or
uncertified input, 3 numerical blow-up.  Console tables round to four
decimals for reading; CSV files carry 17 significant digits and are the
machine interface.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .certificates import NetworkCertificate, UncertifiedBoundError
from .config import (
    ConfigError,
    NetworkConfig,
    bundled_config,
    bundled_expected,
    parse_config,
    seed_override,
)
from .goodwin import (
    CERTIFICATION_MODES,
    InadmissibleParams,
    hill_slope,
    hill_slope_max,
    search_params,
)
from .graphs import incidence
from .simulation import (
    DisturbanceSpec,
    NetworkModel,
    SimulationDiverged,
    SimulationTrace,
    bound_check,
    run,
    run_batch,
)

# Integral inequalities are checked with this relative tolerance against the
# magnitude of their right-hand side.
RESIDUAL_RTOL = 1e-6

# Horizons at which reproduce-paper evaluates the integral inequalities.
HORIZON_GRID = (1.0, 10.0, 50.0, 100.0)


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _fmt4(value) -> str:
    return format(float(value), ".4f")


def _write_csv(path: Path, header, rows) -> None:
    path = Path(path)
    if str(path.parent) not in ("", "."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _print_table(headers, rows) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    click.echo("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        click.echo("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _guarded(fn):
    """Map domain exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except InadmissibleParams as exc:
            click.echo(f"error: inadmissible certification parameters: {exc}",
                       err=True)
            sys.exit(2)
        except SimulationDiverged as exc:
            click.echo(f"error: simulation diverged at t = {exc.time:.6g}", err=True)
            sys.exit(3)
        except ValueError as exc:
            # every validation rejection, ConfigError and
            # UncertifiedBoundError included
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        sys.exit(int(code))

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="syncert")
def main() -> None:
    """Certify and simulate output synchronisation of oscillator networks."""


def _margin_csv_rows(cfg: NetworkConfig, cert: NetworkCertificate):
    report = cert.margins
    rows = []
    for k, (i, j) in enumerate(cfg.graph.edges):
        rows.append([
            cfg.graph.edge_label(k), str(i), str(j),
            _fmt(cert.nu[k]), _fmt(cert.gamma[k]), _fmt(cert.beta[k]),
            _fmt(report.slacks[k]),
            "true" if report.edge_ok[k] else "false",
        ])
    return rows


_MARGIN_CSV_HEADER = ["edge", "node_i", "node_j", "nu", "gamma", "beta",
                      "slack", "ok"]


def _echo_certificate(cfg: NetworkConfig, cert: NetworkCertificate) -> None:
    g = cfg.graph
    report = cert.margins
    hill = cfg.agents.hill
    click.echo(f"nodes: {g.n}, edges: {g.edge_count}, mode: {cfg.mode}")
    click.echo(
        f"repression slope bound: closed form {hill_slope(hill):.6g}, "
        f"exact maximum {hill_slope_max(hill):.6g}"
    )
    table = [
        (g.edge_label(k), _fmt4(cert.nu[k]), _fmt4(cert.gamma[k]),
         _fmt4(cert.beta[k]), _fmt4(report.slacks[k]),
         "yes" if report.edge_ok[k] else "NO")
        for k in range(g.edge_count)
    ]
    _print_table(("edge", "nu", "gamma", "beta", "slack", "ok"), table)
    click.echo("per-node input-weight sums: "
               + ", ".join(_fmt4(v) for v in cert.nu_node))
    click.echo(f"min slack: {report.min_slack:.6g}")
    click.echo(f"margin matrix min eigenvalue: {cert.forms.margin_min_eig:.6g}")
    bound = cert.bound
    if bound.certified:
        # a point box is one slope sample; an interval bound covers the box
        box = "1 slope sample(s)" if bound.estimate == "exact" else "whole slope box"
        click.echo(
            f"gain bound ({bound.estimate}, {box}): "
            f"gain {bound.gain:.6g}, offset {bound.offset:.6g}, "
            f"n_min {bound.n_min:.6g}, m_max {bound.m_max:.6g}"
        )
    else:
        click.echo(f"gain bound: not certified (n_min = {bound.n_min:.6g} <= 0)")
    if report.satisfied:
        click.echo("verdict: certified")
    elif not g.is_connected:
        click.echo("verdict: NOT certified (graph is disconnected)")
    else:
        click.echo("verdict: NOT certified")


@main.command()
@click.argument("config_file",
                type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("-o", "--output", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Write the per-edge margin report as CSV.")
@_guarded
def certify(config_file: Path, output: Path | None) -> int:
    """Evaluate the synchronisation certificate of a configured network."""
    cfg = parse_config(config_file)
    cert = cfg.certificate()
    _echo_certificate(cfg, cert)
    if output is not None:
        _write_csv(output, _MARGIN_CSV_HEADER, _margin_csv_rows(cfg, cert))
        click.echo(f"wrote {output}")
    return 0 if cert.margins.satisfied else 1


def _trace_table(trace: SimulationTrace, margin_col, residual_col=None,
                 full: bool = False):
    g = trace.model.graph
    header = ["t"] + [f"y_{i}" for i in range(1, g.n + 1)]
    header += ["normDTY", "normW", "bound_margin"]
    if residual_col is not None:
        header.append("dissipation_residual")
    if full:
        ids = [str(k + 1) for k in range(g.edge_count)]
        header += [f"X_{k}" for k in ids]
        header += [f"V_{k}" for k in ids]
        header += [f"W_{k}" for k in ids]
    idx = trace.sample_indices
    rel = np.sqrt(trace.norm_rel_sq[idx])
    dist = np.sqrt(trace.norm_dist_sq[idx])
    rows = []
    for pos, m in enumerate(idx):
        row = [_fmt(trace.times[m])]
        row += [_fmt(v) for v in trace.outputs[m]]
        row += [_fmt(rel[pos]), _fmt(dist[pos]), _fmt(margin_col[m])]
        if residual_col is not None:
            row.append(_fmt(residual_col[m]))
        if full:
            row += [_fmt(v) for v in trace.coupling_arguments[m]]
            row += [_fmt(v) for v in trace.coupling_outputs[m]]
            row += [_fmt(v) for v in trace.held_disturbance[m]]
        rows.append(row)
    return header, rows


def _residual_floor(rhs: np.ndarray) -> np.ndarray:
    return -RESIDUAL_RTOL * (1.0 + np.abs(rhs))


@main.command()
@click.argument("config_file",
                type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("-o", "--output", "output_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path),
              help="Directory for trace.csv.")
@click.option("--full", is_flag=True,
              help="Append per-edge coupling argument, coupling output and "
                   "disturbance columns.")
@click.option("--check-bound", is_flag=True,
              help="Check the certified disagreement bound along the trace.")
@click.option("--check-lemma1", "check_residual", is_flag=True,
              help="Check the integrated network dissipation inequality and "
                   "append its residual column.")
@click.option("--seed", type=int, default=None,
              help="Master seed override (beats SYNC_CERT_SEED and the file).")
@click.option("--dt", type=float, default=None, help="Step size override.")
@click.option("-T", "--horizon", type=float, default=None,
              help="Horizon override.")
@_guarded
def simulate(config_file: Path, output_dir: Path, full: bool, check_bound: bool,
             check_residual: bool, seed: int | None, dt: float | None,
             horizon: float | None) -> int:
    """Integrate the configured network and write its trace CSV."""
    cfg = parse_config(config_file)
    master = seed_override(seed)
    if master is not None:
        cfg = cfg.with_seed(master)
    cfg = cfg.with_simulation(dt=dt, horizon=horizon)
    if (check_bound or check_residual) and cfg.certification is None:
        raise ConfigError("/certification",
                          "certification block required for trace checks")

    cert = bound = None
    if cfg.certification is not None:
        # certify before integrating: an invalid certificate, or an
        # uncertified bound that --check-bound needs, exits 2 without
        # spending the integration
        cert = cfg.certificate()
        bound = cert.bound
        if check_bound and not bound.certified:
            raise UncertifiedBoundError(
                "gain bound is not certified (n_min <= 0); nothing to check")

    trace = run(cfg.model(), cfg.horizon, dt=cfg.dt, stride=cfg.stride)
    click.echo(f"integrated {trace.steps} steps of dt = {cfg.dt:g} "
               f"(horizon {cfg.horizon:g}, seed {cfg.seed})")

    if bound is not None and bound.certified:
        margin_col = trace.margin_curve(bound)
    else:
        margin_col = np.full(trace.steps + 1, math.nan)

    failures = []
    if check_bound:
        check = bound_check(trace, bound)
        click.echo(
            f"bound check: worst sampled margin {check.worst_margin:.6g} -> "
            + ("pass" if check.satisfied else "FAIL")
        )
        if not check.satisfied:
            failures.append("bound")

    residual_col = None
    if check_residual:
        residual_col, rhs = trace.dissipation_curves(cert)
        idx = trace.sample_indices
        slack = residual_col[idx] - _residual_floor(rhs[idx])
        ok = bool(np.all(slack >= 0.0))
        click.echo(
            f"dissipation check: worst sampled residual slack "
            f"{float(np.min(slack)):.6g} -> " + ("pass" if ok else "FAIL")
        )
        if not ok:
            failures.append("dissipation")

    output_dir.mkdir(parents=True, exist_ok=True)
    trace_path = output_dir / "trace.csv"
    header, rows = _trace_table(trace, margin_col, residual_col, full)
    _write_csv(trace_path, header, rows)
    click.echo(f"wrote {trace_path}")
    click.echo(f"final output disagreement: {trace.disagreement():.6g}")
    return 1 if failures else 0


def _parse_grid_spec(text: str, name: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.BadParameter(f"{name} expects LO:HI:N, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise click.BadParameter(f"{name} expects numeric LO:HI:N, got {text!r}")
    return lo, hi, count


@main.command()
@click.argument("config_file",
                type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--theta", "theta_spec", required=True, metavar="LO:HI:N",
              help="Input-weight parameter grid.")
@click.option("--theta3", "theta3_spec", required=True, metavar="LO:HI:N",
              help="Chain-splitting parameter grid.")
@click.option("-o", "--output", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Write the full grid as CSV.")
@_guarded
def search(config_file: Path, theta_spec: str, theta3_spec: str,
           output: Path | None) -> int:
    """Grid-search the free certificate parameters for the best margin."""
    cfg = parse_config(config_file)
    result = search_params(cfg.agents, cfg.graph, cfg.sectors,
                           _parse_grid_spec(theta_spec, "--theta"),
                           _parse_grid_spec(theta3_spec, "--theta3"),
                           mode=cfg.mode)
    feasible = sum(1 for r in result.rows if r[3])
    click.echo(f"grid points: {len(result.rows)}, admissible: {feasible}")
    click.echo(
        f"best: theta = {result.best_theta:.6g}, theta3 = {result.best_theta3:.6g}, "
        f"min slack = {result.best_min_slack:.6g}"
    )
    if output is not None:
        rows = [[_fmt(t), _fmt(t3), _fmt(s), "true" if ok else "false"]
                for t, t3, s, ok in result.rows]
        _write_csv(output, ["theta", "theta3", "min_slack", "feasible"], rows)
        click.echo(f"wrote {output}")
    return 0


@main.command("graph-stats")
@click.argument("config_file",
                type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("-o", "--output", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Write per-edge statistics as CSV.")
@click.option("--incidence", "incidence_out",
              type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Write the oriented incidence matrix as CSV.")
@_guarded
def graph_stats(config_file: Path, output: Path | None,
                incidence_out: Path | None) -> int:
    """Report degrees and shared/exclusive neighbour counts per edge."""
    cfg = parse_config(config_file)
    g = cfg.graph
    stats = g.stats
    click.echo(f"nodes: {g.n}, edges: {g.edge_count}, "
               f"connected: {'yes' if g.is_connected else 'no'}")
    table = []
    for k in range(g.edge_count):
        r_i, r_j = stats.endpoint_degrees(k)
        table.append((g.edge_label(k), str(r_i), str(r_j),
                      str(int(stats.common[k])), str(int(stats.exclusive[k]))))
    _print_table(("edge", "deg_i", "deg_j", "common", "exclusive"), table)
    if output is not None:
        rows = []
        for k, (i, j) in enumerate(g.edges):
            r_i, r_j = stats.endpoint_degrees(k)
            rows.append([g.edge_label(k), str(i), str(j), str(r_i), str(r_j),
                         str(int(stats.common[k])), str(int(stats.exclusive[k]))])
        _write_csv(output, ["edge", "node_i", "node_j", "degree_i", "degree_j",
                            "common", "exclusive"], rows)
        click.echo(f"wrote {output}")
    if incidence_out is not None:
        matrix = incidence(g)
        rows = [[str(int(v)) for v in matrix[i]] for i in range(g.n)]
        _write_csv(incidence_out, g.edge_labels(), rows)
        click.echo(f"wrote {incidence_out}")
    return 0


def _zero_disturbance_model(cfg: NetworkConfig) -> NetworkModel:
    return NetworkModel(
        graph=cfg.graph, agents=cfg.agents, couplings=cfg.couplings,
        disturbances=(DisturbanceSpec(kind="zero"),) * cfg.graph.edge_count,
        initial_states=cfg.initial_states,
    )


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


@main.command("reproduce-paper")
@click.option("-o", "--output", "output_dir",
              type=click.Path(file_okay=False, path_type=Path), default=None,
              help="Directory for the margin and trace CSVs.")
@click.option("--mode", type=click.Choice(CERTIFICATION_MODES), default=None,
              help="Certification mode override.")
@click.option("--dt", type=float, default=None, help="Step size override.")
@click.option("-T", "--horizon", type=float, default=None,
              help="Horizon override.")
@click.option("--seed", type=int, default=None, help="Master seed override.")
@_guarded
def reproduce_paper(output_dir: Path | None, mode: str | None, dt: float | None,
                    horizon: float | None, seed: int | None) -> int:
    """Re-derive the bundled five-oscillator case study end to end.

    Certifies the network, checks every number against the frozen reference
    values, runs a noiseless and a seeded noisy simulation, and checks the
    disagreement bound plus all integral inequalities on the traces.
    """
    cfg = bundled_config()
    expected = bundled_expected()
    if mode is not None:
        cfg = dataclasses.replace(cfg, mode=mode)
    master = seed_override(seed)
    if master is not None:
        cfg = cfg.with_seed(master)
    cfg = cfg.with_simulation(dt=dt, horizon=horizon)
    uniform = cfg.mode == "uniform"

    cert = cfg.certificate()
    _echo_certificate(cfg, cert)
    report, forms, bound = cert.margins, cert.forms, cert.bound

    checks: list[tuple[str, bool, str]] = []

    gamma_dev = float(np.max(np.abs(cert.gamma - expected["gamma_target"])))
    checks.append((
        "output-weights", gamma_dev <= expected["gamma_tol"],
        f"max |gamma - ({expected['gamma_target']:g})| = {gamma_dev:.3g} "
        f"(tol {expected['gamma_tol']:g})",
    ))
    if uniform:
        nu_dev = float(np.max(np.abs(cert.nu - expected["nu"])))
        checks.append((
            "input-weights", nu_dev <= expected["nu_tol"],
            f"max |nu - ({expected['nu']:g})| = {nu_dev:.3g} "
            f"(tol {expected['nu_tol']:g})",
        ))
        node_dev = float(np.max(np.abs(cert.nu_node - expected["nu_node"])))
        checks.append((
            "node-weight-sums", node_dev <= expected["nu_tol"],
            f"max |sum - ({expected['nu_node']:g})| = {node_dev:.3g}",
        ))
        slack_dev = float(np.max(np.abs(report.slacks - expected["slack_target"])))
        checks.append((
            "margin-slacks",
            slack_dev <= expected["slack_tol"] and report.satisfied,
            f"max |slack - {expected['slack_target']:g}| = {slack_dev:.3g} "
            f"(tol {expected['slack_tol']:g})",
        ))
        eig_dev = abs(forms.margin_min_eig - expected["margin_min_eig"])
        checks.append((
            "margin-matrix", eig_dev <= expected["bound_tol"],
            f"min eigenvalue {forms.margin_min_eig:.9g} vs frozen "
            f"{expected['margin_min_eig']:.9g}",
        ))
        bound_ok = bound.certified and all(
            _within(getattr(bound, key), expected[key], expected["bound_tol"])
            for key in ("n_min", "m_max", "gain", "offset")
        )
        checks.append((
            "gain-bound", bound_ok,
            f"gain {bound.gain:.9g}, offset {bound.offset:.9g}, "
            f"n_min {bound.n_min:.9g}, m_max {bound.m_max:.9g} vs frozen values",
        ))
    else:
        # per-edge weights can only improve on the uniform margins; an edge
        # whose both endpoints carry the worst gain deviation still lands
        # exactly on the uniform slack, hence the shared tolerance
        floor = expected["slack_target"] - expected["slack_tol"]
        checks.append((
            "margin-slacks",
            report.satisfied and report.min_slack >= floor,
            f"min slack {report.min_slack:.6g} >= {floor:g}",
        ))
        checks.append((
            "margin-matrix", forms.margin_min_eig > 0.0,
            f"min eigenvalue {forms.margin_min_eig:.9g} > 0",
        ))
        checks.append(("gain-bound", bound.certified,
                       f"certified = {bound.certified}"))

    # the noiseless and the noisy realisation in one RK4 pass
    trace_zero, trace_noisy = run_batch(
        (_zero_disturbance_model(cfg), cfg.model()), cfg.horizon, dt=cfg.dt,
        stride=cfg.stride)
    start = trace_zero.disagreement(0)
    end = trace_zero.disagreement(-1)
    ratio = end / start
    if cfg.horizon + 1e-9 >= expected["sync_horizon"]:
        checks.append((
            "noiseless-sync", ratio <= expected["sync_threshold"],
            f"end/initial disagreement = {ratio:.3g} "
            f"(threshold {expected['sync_threshold']:g})",
        ))
    else:
        click.echo(f"noiseless-sync: skipped (horizon {cfg.horizon:g} < "
                   f"{expected['sync_horizon']:g}), disagreement ratio {ratio:.3g}")

    margin_check = bound_check(trace_noisy, bound)
    checks.append((
        "bound-margins", margin_check.satisfied,
        f"worst sampled margin {margin_check.worst_margin:.6g}",
    ))

    # a horizon below the first grid point is checked at the horizon itself
    horizons = [t for t in HORIZON_GRID if t <= cfg.horizon + 1e-9] or [cfg.horizon]
    residual, rhs = trace_noisy.dissipation_curves(cert)
    grid_idx = [trace_noisy.index_at(t) for t in horizons]
    slack = residual[grid_idx] - _residual_floor(rhs[grid_idx])
    checks.append((
        "dissipation-residual", bool(np.all(slack >= 0.0)),
        f"worst residual slack {float(np.min(slack)):.6g} at horizons {horizons}",
    ))

    worst_pair = math.inf
    for k in range(cfg.graph.edge_count):
        pair_res, pair_rhs = trace_noisy.pair_residual_curves(k, cert.edge(k))
        pair_slack = pair_res[grid_idx] - _residual_floor(pair_rhs[grid_idx])
        worst_pair = min(worst_pair, float(np.min(pair_slack)))
    checks.append((
        "pair-dissipation", worst_pair >= 0.0,
        f"worst pair residual slack {worst_pair:.6g} at horizons {horizons}",
    ))

    click.echo("")
    for name, ok, detail in checks:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(output_dir / "margins.csv", _MARGIN_CSV_HEADER,
                   _margin_csv_rows(cfg, cert))
        for label, trace in (("noiseless", trace_zero), ("noisy", trace_noisy)):
            margin_col = trace.margin_curve(bound)
            header, rows = _trace_table(trace, margin_col)
            _write_csv(output_dir / f"trace_{label}.csv", header, rows)
        click.echo(f"wrote margin and trace CSVs to {output_dir}")

    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        click.echo(f"first failing check: {failed[0]}")
        return 1
    click.echo("all checks passed")
    return 0


if __name__ == "__main__":
    main()
