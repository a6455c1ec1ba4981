"""granulab benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rods_collapse --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  Each measurement runs in a
fresh interpreter (``worker.py``) with ``src`` on ``PYTHONPATH`` and
BLAS/OpenMP threads pinned to 1.  Human-readable lines come first; the last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rods_collapse", "dsmc_cooling", "estimators", "bgl_study")
SETUP_SAMPLES = 9  # fresh processes whose set-up time is taken; median reported
TIME_LIMIT_S = 170.0  # per workload, so a run ends within 180 s
# workload rates printed with the end-to-end metrics: name -> (workload, work)
RATES = {"events_per_s": ("rods_collapse", "events"),
         "sample_steps_per_s": ("dsmc_cooling", "sample_steps")}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(Exception):
    """A worker failed or ran out of time."""


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def worker(mode, workload, seed, seconds, deadline):
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"{workload}: time limit reached before {mode}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: {mode} worker timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"{workload}: {mode} worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"{workload}: {mode} worker output: {exc}")


def spread(values, what):
    """'n <what>, median m, quartiles q1 .. q3' for a summary line."""
    if len(values) < 2:
        return f"1 {what}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (f"{len(values)} {what}, median {median:.4f}, "
            f"quartiles {q1:.4f} .. {q3:.4f}")


def measure(workload, seed, seconds, deadline):
    """Untraced run: end-to-end metrics, notes for the summary, result."""
    setups = [worker("setup", workload, seed, seconds, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = worker("run", workload, seed, seconds, deadline)
    setups.append(run["setup_s"])
    walls = run["walls"]
    # the host's speed drifts over seconds, so the mean over the whole window
    # varies less between runs than the median or minimum job does
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.fmean(walls),
               "peak_rss_mb": run["peak_rss_mb"]}
    notes = {"setup_s": spread(setups, "fresh processes"),
             "wall_s": spread(walls, "jobs")}
    for name, (owner, work) in RATES.items():
        if owner == workload:
            # a job that raised reports no work; its checks count it failed
            done = [job.get(work, 0) for job in run["work"]]
            metrics[name] = sum(done) / sum(walls)
            notes[name] = f"{max(done)} {work} per job"
    if workload == "bgl_study":
        notes["verdicts"] = "; ".join(
            " ".join(f"{k}={'pass' if v else 'FAIL'}"
                     for k, v in job["verdicts"].items())
            for job in run["work"] if "verdicts" in job)
    return metrics, notes, run


def trace(workload, seed, seconds, deadline):
    """Traced run: per-layer metrics and the tracing overhead."""
    run = worker("trace", workload, seed, seconds, deadline)
    metrics = dict(run["layers"])
    traced = statistics.fmean(run["traced_walls"])
    untraced = statistics.fmean(run["untraced_walls"])
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    notes = {"trace.overhead_pct":
             f"{len(run['traced_walls'])} traced, "
             f"{len(run['untraced_walls'])} untraced jobs"}
    notes.update({f"span {parent or '-'} -> {name}":
                  f"{calls} calls, {total:.4f} s"
                  for parent, name, calls, total in run["edges"]})
    return metrics, notes, run


def report(workload, seed, trace_flag, spec, metrics, notes, run):
    """Print the summary lines of one workload and return its result."""
    expected = spec["per_layer" if trace_flag else "end_to_end"]
    missing = [m["name"] for m in expected if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"{workload}: metrics not measured: {missing}")
    v = run["versions"]
    print(f"{workload}  seed {seed}  trace {trace_flag}  (nproc {v['nproc']}, "
          f"python {v['python']}, numpy {v['numpy']})")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    units.update(dict.fromkeys(RATES, "1/s"))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:.6g} {units[name]}{note}")
    if not trace_flag:
        for name in RATES:
            if name not in metrics:
                print(f"  {name:<40} n/a (not this workload's work)")
    failures = run["failures"]
    print(f"  {'failed_frac':<40} {len(failures) / run['attempted']:.4g}"
          f"  ({len(failures)} of {run['attempted']} checks failed)")
    for name in failures:
        print(f"  failed check: {name}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"  {key}: {note}")
    return {"correct": not failures, "attempted": run["attempted"],
            "failed": len(failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in expected}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "granulab" / "__init__.py").is_file():
        print(f"no granulab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    step = trace if args.trace else measure
    results = {}
    for workload in selected:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            metrics, notes, run = step(workload, args.seed, args.seconds,
                                       deadline)
            results[workload] = report(workload, args.seed, args.trace, spec,
                                       metrics, notes, run)
        except BenchmarkError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[workload] if len(selected) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
