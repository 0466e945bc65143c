"""syncert benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` (it is not installed).  The load is a closed loop with one client:
each job is a fresh ``python -m syncert.cli ...`` process and the next job
starts when the previous one has exited.  With ``--trace 0`` the run times
those processes and prints the end-to-end metrics; with ``--trace 1`` it
calls ``syncert.cli.main`` in-process instead, alternating untraced and
traced jobs, and prints the per-layer metrics.  Every job passes through
the correctness gate.  The last line of stdout is the JSON result; inputs,
job outputs, spans and a result file land in ``.bench_work/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child: the box has two cores
# and a second BLAS thread would compete with the measured process.
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                  "NUMEXPR_NUM_THREADS")}
os.environ.update(THREADS)

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_SETUPS = 7
JOB_LIMIT_S = 60.0
# The layer expected to block each workload's traced job.
DOMINANT = {"paper_k5": "simulation.run_s", "wide_mixed": "simulation.run_s",
            "dense_certify": "linalg.jacobi_s", "sector_box": "linalg.jacobi_s"}
SETUP_CODE = ("import sys, syncert.cli as c; "
              "c.parse_config(sys.argv[1]) if len(sys.argv) > 1 "
              "else c.bundled_config()")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SYNC_CERT_SEED", None)  # the seed reaches the program by flag only
    return env


def spawn(args: list[str], log: Path) -> tuple[float, int, float]:
    """Run ``python ARGS`` to completion; wall seconds, exit code, peak RSS
    in MiB.  A process still running after ``JOB_LIMIT_S`` is killed."""
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        timer = threading.Timer(JOB_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def _fresh_job_dir(w: workloads.Workload) -> None:
    shutil.rmtree(w.out / "job", ignore_errors=True)
    (w.out / "job").mkdir()


def process_job(w: workloads.Workload):
    """One job as CLI processes: seconds, exit codes, peak RSS, stdout."""
    _fresh_job_dir(w)
    seconds, codes, rss, text = 0.0, [], 0.0, []
    for k, cmd in enumerate(w.commands):
        log = w.out / f"cmd{k}.log"
        elapsed, code, peak = spawn(["-m", "syncert.cli", *cmd], log)
        seconds += elapsed
        codes.append(code)
        rss = max(rss, peak)
        text.append(log.read_text(encoding="utf-8", errors="replace"))
    return seconds, codes, rss, "".join(text)


def inprocess_job(w: workloads.Workload, cli):
    """One job through ``cli.main`` in this interpreter: seconds, exit
    codes, stdout."""
    _fresh_job_dir(w)
    codes = []
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for cmd in w.commands:
            try:
                cli.main.main(args=cmd, prog_name="syncert", standalone_mode=False)
                codes.append(0)
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 1)
            except Exception:  # a crash fails the gate like a bad exit code
                traceback.print_exc()
                codes.append(-1)
    return time.perf_counter() - start, codes, out.getvalue()


def csv_bytes(w: workloads.Workload) -> int:
    return sum(p.stat().st_size for p in (w.out / "job").rglob("*.csv"))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least ten samples above it, as
    (value, percentile, sample count).  With ten samples or fewer none
    qualifies; the minimum, which has the most samples above it, is
    reported, so the value does not jump from the maximum to the minimum
    when a run's job count crosses eleven."""
    xs = sorted(samples)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "loadavg": [round(v, 2) for v in os.getloadavg()],
            "git_sha": sha, "threads": THREADS}


def setup_once(w, gate) -> float:
    args = ["-c", SETUP_CODE] + ([str(w.config)] if w.config else [])
    elapsed, code, _ = spawn(args, w.out / "setup.log")
    gate.check(code == 0, f"setup exit code {code}")
    return elapsed


def measure(w, gate, seconds: float) -> tuple[dict, list[str], dict]:
    _, codes, _, text = process_job(w)  # warm-up, discarded from the timings
    gate.job(codes, text)
    # set-up samples are interleaved with the jobs: this box's speed drifts
    # over seconds, and a burst of samples would see only one phase of it
    setups, times, peaks = [], [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        setups.append(setup_once(w, gate))
        elapsed, codes, rss, text = process_job(w)
        gate.job(codes, text)
        times.append(elapsed)
        peaks.append(rss)
    while len(setups) < MIN_SETUPS:
        setups.append(setup_once(w, gate))
    tail_s, pct, n = tail(times)
    metrics = {
        "job_s": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(peaks), "MiB"),
        "pass_ratio": ((gate.attempted - gate.failed) / gate.attempted, "ratio"),
    }
    notes = [f"job_s: median of {n} timed jobs after 1 warm-up",
             f"job_s_tail: p{pct:.1f} of {n} samples"
             + ("" if n > 10 else " (fewer than 11 samples: minimum)"),
             f"setup_s: median of {len(setups)} fresh interpreters",
             f"fail_ratio: {gate.failed}/{gate.attempted} checks = "
             f"{gate.failed / gate.attempted:g}"]
    return metrics, notes, {"job_s": times, "setup_s": setups, "peak_rss_mb": peaks}


def measure_traced(w, gate, seconds: float,
                   tracer: Tracer) -> tuple[dict, list[str], dict]:
    import syncert.cli as cli

    _, codes, text = inprocess_job(w, cli)  # warm-up
    gate.job(codes, text)
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        elapsed, codes, text = inprocess_job(w, cli)
        gate.job(codes, text)
        plain.append(elapsed)
        with tracer.job() as spans:
            _, codes, text = inprocess_job(w, cli)
        gate.job(codes, text)
        traced.append(spans[0].end - spans[0].start)
        layers.append(layer_metrics(spans, csv_bytes(w)))
    metrics = {name: (statistics.median(m[name] for m in layers),
                      _unit(name)) for name in layers[0]}
    job_s = statistics.median(traced)
    metrics["trace.job_s"] = (job_s, "s")
    metrics["trace.untraced_job_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (job_s - statistics.median(plain), "s")
    share = metrics[DOMINANT[w.name]][0] / job_s
    metrics["trace.dominant_share"] = (share, "ratio")
    notes = [f"{len(traced)} traced and {len(plain)} untraced in-process jobs "
             "after 1 warm-up; per-layer values are medians over traced jobs",
             f"dominant layer {DOMINANT[w.name]}: {share:.1%} of the traced job"
             + (" (as predicted)" if share > 0.5 else " (NOT the majority)"),
             f"fail_ratio: {gate.failed}/{gate.attempted} checks"]
    notes += [f"no binding {site}: its span is not recorded"
              for site in sorted(tracer.missing)]
    return metrics, notes, {"trace.job_s": traced, "trace.untraced_job_s": plain}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "syncert" / "cli.py").is_file():
        print(f"error: no syncert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    out = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    w = workloads.build(args.workload, args.seed, out)
    workloads.reference_margin_eig(w)
    expected = json.loads((SRC / "syncert" / "fixtures" / "paper_k5_expected.json")
                          .read_text(encoding="utf-8"))
    gate = workloads.Gate(w, expected)
    env = environment()
    if args.trace:
        tracer = Tracer()
        metrics, notes, samples = measure_traced(w, gate, args.seconds, tracer)
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, notes, samples = measure(w, gate, args.seconds)

    print(f"# syncert benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# env: " + json.dumps(env))
    for line in notes:
        print("# " + line)
    for failure in gate.failures:
        print("# gate FAIL: " + failure)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, notes=notes, samples=samples), indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
