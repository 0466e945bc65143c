"""Seeded workload generator, job commands and the correctness gate.

Every workload is derived from one integer seed: the same seed writes the
same config JSON and the same command lines.  The program under test only
ever sees those files and flags.  Sizes are fixed per workload (node count,
edge count, coupling mix, steps) so that seeds change values, not the
amount of work, and timings stay comparable across seeds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The Goodwin chain of the bundled case study; only input gains vary.
CHAIN = {"a1": 0.5, "a2": 1.0, "a3": 1.0, "b2": 1.5, "b3": 1.5, "hill": 14}
CERTIFICATION = {"theta": 2.0, "theta3": 1.5, "mode": "uniform"}

# Generator parameters, one block per workload.
PAPER_K5 = {"horizon": 4.0}
DENSE_CERTIFY = {"n": 15, "gain": 5.0, "input_gains": (0.95, 1.05),
                 "theta": "0.5:4:20", "theta3": "1.2:1.95:20"}
SECTOR_BOX = {"n": 4, "gain": 5.0, "amplitude": 0.3, "sector": (4.7, 5.3),
              "input_gains": (0.95, 1.05)}
WIDE_MIXED = {"n": 50, "edges": 100, "kinds": ("linear", "affine_sinusoid",
                                                "piecewise_linear"),
              "input_gains": (0.9, 1.1), "scale": 0.3, "dt": 0.01,
              "horizon": 3.0, "stride": 10}

NAMES = ("paper_k5", "dense_certify", "sector_box", "wide_mixed")

_FLOAT = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf|-inf)"
_MIN_EIG = re.compile(r"^margin matrix min eigenvalue: " + _FLOAT + r"$", re.M)
_BOUND = re.compile(r"^gain bound \([a-z]+, \d+ slope sample\(s\)\): gain " + _FLOAT
                    + r", offset " + _FLOAT + r", n_min " + _FLOAT
                    + r", m_max " + _FLOAT + r"$", re.M)
_GRID = re.compile(r"^grid points: (\d+), admissible: (\d+)$", re.M)


@dataclass
class Workload:
    """Commands of one job plus what the gate checks after it.

    ``commands`` are CLI argument lists for ``python -m syncert.cli``; the
    job is all of them run back to back.  ``config`` is the file whose parse
    ``setup_s`` times (``None`` means the bundled case study).
    """

    name: str
    seed: int
    out: Path
    config: Path | None
    commands: list[list[str]]
    stable_csvs: tuple[str, ...] = ()
    margin_eig: float | None = None
    margin_scale: float = 1.0


def _uniform(rng, lo_hi, count) -> list[float]:
    return [round(float(v), 6) for v in rng.uniform(lo_hi[0], lo_hi[1], count)]


def _pinned_gains(rng, lo_hi, count) -> list[float]:
    """Input gains with one seeded node at the upper end.  In uniform mode
    the certificate forms depend on the gains only through the worst
    deviation, so pinning it gives every seed the same matrices and the
    same Jacobi sweep count, while gains and initial states still vary."""
    gains = _uniform(rng, lo_hi, count)
    gains[int(rng.integers(count))] = lo_hi[1]
    return gains


def _complete_edges(n: int) -> list[list[int]]:
    return [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _connected(n: int, edges) -> bool:
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(v) for v in range(1, n + 1)}) == 1


def _gnm_connected(rng, n: int, m: int) -> list[list[int]]:
    """Uniform G(n, m) Erdos-Renyi sample, redrawn until connected; a fixed
    edge count keeps the per-step work the same for every seed."""
    pairs = _complete_edges(n)
    while True:
        pick = sorted(rng.choice(len(pairs), size=m, replace=False))
        edges = [pairs[k] for k in pick]
        if _connected(n, edges):
            return edges


def _mixed_coupling(rng, kind: str) -> dict:
    gain = round(float(rng.uniform(4.5, 5.5)), 4)
    if kind == "linear":
        return {"kind": "linear", "gain": gain}
    if kind == "affine_sinusoid":
        amp = round(float(rng.uniform(0.1, 0.4)), 4)
        # gain + amp * sin(x)/x spans [gain - 0.2173 amp, gain + amp]
        return {"kind": "affine_sinusoid", "gain": gain, "amplitude": amp,
                "sector": {"alpha_lo": round(gain - 0.25 * amp - 0.05, 4),
                           "alpha_hi": round(gain + amp + 0.05, 4)}}
    # slopes gain, 0.8 gain, 0.9 gain: ratios y/x stay in [0.9 gain, gain]
    return {"kind": "piecewise_linear",
            "knots": [[1.0, gain], [2.0, round(1.8 * gain, 4)],
                      [4.0, round(3.6 * gain, 4)]],
            "sector": {"alpha_lo": round(0.9 * gain - 0.05, 4),
                       "alpha_hi": round(gain + 0.05, 4)}}


def _certified_complete(rng, seed: int, p: dict, coupling: dict) -> dict:
    """Complete graph on ``p["n"]`` nodes, one coupling for every edge, and
    the case study's certification parameters."""
    return {"graph": {"n": p["n"], "edges": _complete_edges(p["n"])},
            "agents": dict(CHAIN,
                           input_gains=_pinned_gains(rng, p["input_gains"], p["n"]),
                           initial_outputs=_uniform(rng, (-1.0, 1.0), p["n"])),
            "couplings": coupling,
            "certification": CERTIFICATION,
            "seed": seed}


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


def build(name: str, seed: int, out: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``out``."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    out.mkdir(parents=True, exist_ok=True)
    job = out / "job"
    if name == "paper_k5":
        return Workload(
            name, seed, out, None,
            [["reproduce-paper", "-o", str(job), "--seed", str(seed),
              "-T", str(PAPER_K5["horizon"])]],
            stable_csvs=("trace_noiseless.csv", "trace_noisy.csv"))
    if name == "dense_certify":
        p = DENSE_CERTIFY
        cfg = _write(out / "network.json", _certified_complete(
            rng, seed, p, {"kind": "linear", "gain": p["gain"]}))
        return Workload(
            name, seed, out, cfg,
            [["certify", str(cfg), "-o", str(job / "margins.csv")],
             ["search", str(cfg), "--theta", p["theta"], "--theta3", p["theta3"]]])
    if name == "sector_box":
        p = SECTOR_BOX
        lo, hi = p["sector"]
        cfg = _write(out / "network.json", _certified_complete(
            rng, seed, p, {"kind": "affine_sinusoid", "gain": p["gain"],
                           "amplitude": p["amplitude"],
                           "sector": {"alpha_lo": lo, "alpha_hi": hi}}))
        return Workload(name, seed, out, cfg, [["certify", str(cfg)]])
    if name == "wide_mixed":
        p = WIDE_MIXED
        edges = _gnm_connected(rng, p["n"], p["edges"])
        kinds = [p["kinds"][k % len(p["kinds"])] for k in range(p["edges"])]
        rng.shuffle(kinds)
        # no certification block: see README, "Known defect"
        cfg = _write(out / "network.json", {
            "graph": {"n": p["n"], "edges": edges},
            "agents": dict(CHAIN, input_gains=_uniform(rng, p["input_gains"], p["n"]),
                           initial_outputs=_uniform(rng, (-1.0, 1.0), p["n"])),
            "couplings": [_mixed_coupling(rng, kind) for kind in kinds],
            "disturbances": {"kind": "gaussian", "scale": p["scale"]},
            "simulation": {"dt": p["dt"], "horizon": p["horizon"],
                           "stride": p["stride"]},
            "seed": seed})
        return Workload(
            name, seed, out, cfg,
            [["simulate", str(cfg), "--full", "-o", str(job), "--seed", str(seed)]],
            stable_csvs=("trace.csv",))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def reference_margin_eig(w: Workload) -> None:
    """Smallest eigenvalue of the program's own ``margin_form``, solved by
    LAPACK instead of the in-package Jacobi, for the printed-value check."""
    if w.name not in ("dense_certify", "sector_box"):
        return
    from syncert import certificates
    from syncert.config import parse_config

    cfg = parse_config(w.config)
    cert = cfg.certificate()
    jacobi = certificates.jacobi_eigenvalues
    certificates.jacobi_eigenvalues = np.linalg.eigvalsh
    try:
        form = certificates.quadratic_forms(cfg.graph, cert).margin_form
    finally:
        certificates.jacobi_eigenvalues = jacobi
    w.margin_eig = float(np.linalg.eigvalsh(form)[0])
    w.margin_scale = float(np.linalg.norm(form))


def _agrees(printed: str, exact: float, slack: float = 0.0) -> bool:
    """``printed`` (six significant digits, as the CLI's ``.6g``) equals
    ``exact`` to its last digit, give or take ``slack``."""
    value = float(printed)
    if not math.isfinite(value):
        return False
    exponent = math.floor(math.log10(abs(value))) if value else 0
    half_ulp = 0.5 * 10.0 ** (exponent - 5)
    return abs(value - exact) <= half_ulp * (1 + 1e-9) + slack


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Gate:
    """Correctness checks on every job of one run, counted for
    ``fail_ratio``.  The first job of the run fixes the reference CSV
    digests that later jobs of the same seed must reproduce byte for byte."""

    def __init__(self, w: Workload, expected_k5: dict) -> None:
        self.w = w
        self.k5 = expected_k5
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str | None] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def job(self, codes: list[int], stdout: str) -> None:
        w = self.w
        self.check(all(c == 0 for c in codes), f"exit codes {codes}")
        job = w.out / "job"
        if w.name == "paper_k5":
            self.check("\nFAIL" not in "\n" + stdout and "all checks passed" in stdout,
                       "reproduce-paper printed a FAIL line")
            self.check(self._k5_certificate(job / "margins.csv", stdout),
                       "K5 certificate outside the frozen tolerances")
        if w.name in ("dense_certify", "sector_box"):
            found = _MIN_EIG.search(stdout)
            self.check(found is not None and _agrees(
                found.group(1), w.margin_eig, 1e-9 * w.margin_scale),
                f"printed margin min eigenvalue vs eigvalsh {w.margin_eig!r}")
            self.check("verdict: certified" in stdout, "verdict not certified")
        if w.name == "dense_certify":
            p = DENSE_CERTIFY
            points = int(p["theta"].split(":")[2]) * int(p["theta3"].split(":")[2])
            grid = _GRID.search(stdout)
            self.check(grid is not None and int(grid.group(1)) == points,
                       "search grid size")
            rows = _csv_rows(job / "margins.csv")
            self.check(len(rows) == p["n"] * (p["n"] - 1) // 2
                       and all(r.get("ok") == "true" for r in rows),
                       "margin CSV rows")
        for name in w.stable_csvs:
            digest = _digest(job / name)
            first = self.digests.setdefault(name, digest)
            self.check(digest is not None and digest == first,
                       f"{name} bytes differ between runs of seed {w.seed}")

    def _k5_certificate(self, margins: Path, stdout: str) -> bool:
        e = self.k5
        rows = _csv_rows(margins)
        if len(rows) != 10:
            return False
        try:
            for r in rows:
                if abs(float(r["nu"]) - e["nu"]) > e["nu_tol"] \
                        or abs(float(r["gamma"]) - e["gamma_target"]) > e["gamma_tol"] \
                        or abs(float(r["slack"]) - e["slack_target"]) > e["slack_tol"]:
                    return False
        except (KeyError, TypeError, ValueError):  # a malformed CSV fails the check
            return False
        bound = _BOUND.search(stdout)
        eig = _MIN_EIG.search(stdout)
        if bound is None or eig is None:
            return False
        pairs = zip(bound.groups(), ("gain", "offset", "n_min", "m_max"))
        return all(_agrees(text, e[key], e["bound_tol"]) for text, key in pairs) \
            and _agrees(eig.group(1), e["margin_min_eig"], e["bound_tol"])


def _csv_rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []
