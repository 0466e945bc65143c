"""Command line interface.

Exit codes are a stable contract: 0 all requested checks pass, 1 a
certificate verdict or trace check is false, 2 invalid or inadmissible or
uncertified input, an unwritable output file or a run too large to
allocate, 3 numerical blow-up.
Console tables round to four decimals for reading; CSV files carry 17
significant digits and are the machine interface.
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
from .certificates import NetworkCertificate
from .config import (
    NetworkConfig,
    bundled_config,
    bundled_expected,
    parse_config,
    reproduction_checks,
    seed_override,
)
from .goodwin import (
    CERTIFICATION_MODES,
    hill_slope,
    hill_slope_max,
    search_params,
)
from .simulation import SimulationDiverged, SimulationTrace, run, run_batch, trace_checks


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
        except SimulationDiverged as exc:
            click.echo(f"error: simulation diverged at t = {exc.time:.6g}", err=True)
            sys.exit(3)
        except (ValueError, OSError) as exc:
            # every validation rejection (ConfigError and UncertifiedBoundError
            # included) and an unwritable output file: config reads raise ConfigError
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except MemoryError as exc:
            # a run too large to allocate; a bare MemoryError has no message
            click.echo(f"error: {str(exc) or 'not enough memory for this run'}", err=True)
            sys.exit(2)
        sys.exit(int(code))

    return wrapper


# the positional configuration file of every command that reads one
_CONFIG_FILE = click.argument(
    "config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))


@click.group()
@click.version_option(version=__version__, prog_name="syncert")
def main() -> None:
    """Certify and simulate output synchronisation of oscillator networks."""


def _margin_csv_rows(cfg: NetworkConfig, cert: NetworkCertificate):
    return [[cfg.graph.edge_label(k), str(i), str(j),
             _fmt(cert.nu[k]), _fmt(cert.gamma[k]), _fmt(cert.beta[k]),
             _fmt(cert.slacks[k]), "true" if cert.edge_ok[k] else "false"]
            for k, (i, j) in enumerate(cfg.graph.edges)]


_MARGIN_CSV_HEADER = ["edge", "node_i", "node_j", "nu", "gamma", "beta",
                      "slack", "ok"]


def _echo_certificate(cfg: NetworkConfig, cert: NetworkCertificate) -> None:
    g = cfg.graph
    hill = cfg.agents.hill
    click.echo(f"nodes: {g.n}, edges: {g.edge_count}, mode: {cfg.certification.mode}")
    click.echo(f"repression slope bound: closed form {hill_slope(hill):.6g}, "
               f"exact maximum {hill_slope_max(hill):.6g}")
    table = [
        (g.edge_label(k), _fmt4(cert.nu[k]), _fmt4(cert.gamma[k]),
         _fmt4(cert.beta[k]), _fmt4(cert.slacks[k]),
         "yes" if cert.edge_ok[k] else "NO")
        for k in range(g.edge_count)
    ]
    _print_table(("edge", "nu", "gamma", "beta", "slack", "ok"), table)
    click.echo("per-node input-weight sums: "
               + ", ".join(_fmt4(v) for v in cert.nu_node))
    click.echo(f"min slack: {cert.min_slack:.6g}")
    click.echo(f"margin matrix min eigenvalue: {cert.forms.margin_min_eig:.6g}")
    bound = cert.bound
    if bound.certified:
        # a point box is one slope sample; an interval bound covers the box
        box = "1 slope sample(s)" if bound.estimate == "exact" else "whole slope box"
        click.echo(f"gain bound ({bound.estimate}, {box}): "
                   f"gain {bound.gain:.6g}, offset {bound.offset:.6g}, "
                   f"n_min {bound.n_min:.6g}, m_max {bound.m_max:.6g}")
    else:
        click.echo(f"gain bound: not certified ({bound.why_uncertified})")
    if cert.satisfied:
        click.echo("verdict: certified")
    elif not g.is_connected:
        click.echo("verdict: NOT certified (graph is disconnected)")
    else:
        click.echo("verdict: NOT certified")


@main.command()
@_CONFIG_FILE
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
    return 0 if cert.satisfied else 1


def _trace_table(trace: SimulationTrace, stride: int, margin_col,
                 residual_col=None, full: bool = False):
    """Header and rows of a trace CSV: every ``stride``-th grid point plus
    the last.  The rows are generated one at a time as the CSV writer takes
    them, so no table of cell strings is ever held whole."""
    g = trace.config.graph
    header = ["t"] + [f"y_{i}" for i in range(1, g.n + 1)]
    header += ["normDTY", "normW", "bound_margin"]
    if residual_col is not None:
        header.append("dissipation_residual")
    # the per-edge column families of a full table, in column order
    families = (("X", trace.coupling_arguments), ("V", trace.coupling_outputs),
                ("W", trace.held_disturbance)) if full else ()
    header += [f"{name}_{k + 1}" for name, _ in families for k in range(g.edge_count)]
    idx = np.array([*range(0, trace.steps, stride), trace.steps])
    rel = np.sqrt(trace.norm_rel_sq[idx])
    dist = np.sqrt(trace.norm_dist_sq[idx])

    def rows():
        for pos, m in enumerate(idx):
            row = [_fmt(trace.times[m])]
            row += [_fmt(v) for v in trace.outputs[m]]
            row += [_fmt(rel[pos]), _fmt(dist[pos]), _fmt(margin_col[m])]
            if residual_col is not None:
                row.append(_fmt(residual_col[m]))
            row += [_fmt(v) for _, values in families for v in values[m]]
            yield row

    return header, rows()


def _echo_checks(checks) -> None:
    for name, ok, detail in checks:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


@main.command()
@_CONFIG_FILE
@click.option("-o", "--output", "output_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path),
              help="Directory for trace.csv.")
@click.option("--full", is_flag=True,
              help="Append per-edge coupling argument, coupling output and "
                   "disturbance columns.")
@click.option("--check-bound", is_flag=True,
              help="Check the certified disagreement bound along the trace.")
@click.option("--check-lemma1", is_flag=True,
              help="Check the integrated network and pair dissipation "
                   "inequalities and append the network residual column.")
@click.option("--seed", type=int, default=None,
              help="Master seed override (beats SYNC_CERT_SEED and the file).")
@click.option("--dt", type=float, default=None, help="Step size override.")
@click.option("-T", "--horizon", type=float, default=None,
              help="Horizon override.")
@_guarded
def simulate(config_file: Path, output_dir: Path, full: bool, check_bound: bool,
             check_lemma1: bool, seed: int | None, dt: float | None,
             horizon: float | None) -> int:
    """Integrate the configured network and write its trace CSV."""
    cfg = parse_config(config_file).with_seed(seed_override(seed))
    cfg = cfg.with_simulation(dt=dt, horizon=horizon)
    cert = None
    if check_bound or check_lemma1 or cfg.certification is not None:
        # certify before integrating: a missing certification block that a
        # check needs, an invalid certificate, or an uncertified bound that
        # --check-bound needs, exits 2 without spending the integration
        cert = cfg.certificate()
        if check_bound:
            cert.bound.require_certified("nothing to check")

    trace = run(cfg)
    click.echo(f"integrated {trace.steps} steps of dt = {cfg.dt:g} "
               f"(horizon {cfg.horizon:g}, seed {cfg.seed})")

    margin_col = (trace.margin_curve(cert.bound) if cert is not None and cert.bound.certified
                  else np.full(trace.steps + 1, math.nan))

    checks, residual_col = trace_checks(trace, cert if check_lemma1 else None,
                                        margin_col if check_bound else None)
    _echo_checks(checks)

    output_dir.mkdir(parents=True, exist_ok=True)
    trace_path = output_dir / "trace.csv"
    header, rows = _trace_table(trace, cfg.stride, margin_col, residual_col, full)
    _write_csv(trace_path, header, rows)
    click.echo(f"wrote {trace_path}")
    click.echo(f"final output disagreement: {trace.disagreement():.6g}")
    return 0 if all(ok for _, ok, _ in checks) else 1


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
@_CONFIG_FILE
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
    result = search_params(cfg, _parse_grid_spec(theta_spec, "--theta"),
                           _parse_grid_spec(theta3_spec, "--theta3"))
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
@_CONFIG_FILE
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
    click.echo(f"nodes: {g.n}, edges: {g.edge_count}, "
               f"connected: {'yes' if g.is_connected else 'no'}")
    # label, endpoints, degrees, common and exclusive counts of each edge
    rows = [(g.edge_label(k), str(i), str(j), str(g.degrees[i - 1]),
             str(g.degrees[j - 1]), str(g.common[k]), str(g.exclusive[k]))
            for k, (i, j) in enumerate(g.edges)]
    _print_table(("edge", "deg_i", "deg_j", "common", "exclusive"),
                 [(row[0], *row[3:]) for row in rows])
    if output is not None:
        _write_csv(output, ["edge", "node_i", "node_j", "degree_i", "degree_j",
                            "common", "exclusive"], rows)
        click.echo(f"wrote {output}")
    if incidence_out is not None:
        rows = [[str((v == i) - (v == j)) for i, j in g.edges] for v in range(1, g.n + 1)]
        _write_csv(incidence_out, g.edge_labels(), rows)
        click.echo(f"wrote {incidence_out}")
    return 0


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
        cfg = dataclasses.replace(
            cfg, certification=dataclasses.replace(cfg.certification, mode=mode))
    cfg = cfg.with_seed(seed_override(seed)).with_simulation(dt=dt, horizon=horizon)

    cert = cfg.certificate()
    _echo_certificate(cfg, cert)

    # the noiseless and the noisy realisation in one RK4 pass
    zero = dataclasses.replace(cfg, disturbances=None)
    trace_zero, trace_noisy = run_batch((zero, cfg))
    checks, note = reproduction_checks(cert, trace_zero, expected)
    if note is not None:
        click.echo(note)

    margin_noisy = trace_noisy.margin_curve(cert.bound)
    checks += trace_checks(trace_noisy, cert, margin_noisy)[0]

    click.echo("")
    _echo_checks(checks)

    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(output_dir / "margins.csv", _MARGIN_CSV_HEADER,
                   _margin_csv_rows(cfg, cert))
        for label, trace, margin_col in (
                ("noiseless", trace_zero, trace_zero.margin_curve(cert.bound)),
                ("noisy", trace_noisy, margin_noisy)):
            header, rows = _trace_table(trace, cfg.stride, margin_col)
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
