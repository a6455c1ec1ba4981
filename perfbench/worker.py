"""One benchmark process: set-up sample, measured run, or traced run.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``
and BLAS/OpenMP threads pinned to 1.  Prints one JSON object on its last
stdout line.

* ``--mode setup`` times import of granulab plus the workload's ``prepare``
  and exits: one ``setup_s`` sample.
* ``--mode run`` does the same, then runs jobs one after another (a closed
  loop, one job at a time) while the next job is expected to end within
  ``--seconds``; at least one job runs.
* ``--mode trace`` alternates traced and untraced jobs on the same inputs
  (traced first, at least two traced and one untraced) and reports the
  per-layer metrics of the traced ones.
"""
import time

_START = time.perf_counter()  # set-up is timed from before granulab's import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports granulab)

# per-layer metrics read off a Tracer: span name -> fields reported, where
# "calls" is the call count, "s" the total time and "self_s" the total time
# minus the time covered by direct child spans
SPAN_METRICS = {
    "core.collide": ("calls", "s"),
    "core.sample_chaotic_state": ("s",),
    "dynamics.Simulation.init": ("calls", "s"),
    "dynamics.Simulation.run": ("s", "self_s"),
    "dynamics.advance": ("calls", "s"),
    "dynamics.evolve_rods_ensemble": ("calls", "s"),
    "kinetic.dsmc_init": ("s",),
    "kinetic.dsmc_step": ("calls", "s"),
    "kinetic.suggest_dt": ("calls", "s"),
    "kinetic.solve_limit_equation": ("s",),
    "kinetic.energy_moment_quadrature": ("s",),
    "kinetic.enskog_collision_integral": ("calls", "s"),
    "cumulants.apply_cumulant": ("calls", "self_s"),
    "cumulants.duality_residual": ("self_s",),
    "bgl.empirical_marginals": ("s",),
    "bgl.g2_iid_floor": ("s",),
    "bgl.bg_study": ("self_s",),
    "cli.main": ("self_s",),
}
# per-layer counts a job reports itself (read off its outputs, not spans)
JOB_COUNTS = {"artifact_bytes": "cli.artifact_bytes",
              "verdicts_failed": "bgl.verdicts_failed"}
COUNT_METRICS = ("dynamics.events", "dynamics.log.events",
                 *JOB_COUNTS.values())

# exact counts: a traced job repeated on the same inputs must reproduce them
EXACT_COUNTS = ("core.collide.calls", "dynamics.events",
                "dynamics.advance.calls", "kinetic.dsmc_step.calls",
                "kinetic.enskog_collision_integral.calls")


def layer_metrics(tracer):
    out = {}
    for span, fields in SPAN_METRICS.items():
        calls, total, child = tracer.spans.get(span, (0, 0.0, 0.0))
        values = {"calls": calls, "s": total, "self_s": total - child}
        out.update((f"{span}.{field}", values[field]) for field in fields)
    out.update((name, tracer.counts[name]) for name in COUNT_METRICS)
    return out


def versions():
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_job(workload, inputs):
    start = time.perf_counter()
    checks, work = workloads.run_job(workload, inputs)
    return time.perf_counter() - start, checks, work


def measure(args):
    prepare = workloads.WORKLOADS[args.workload][0]
    inputs = prepare(args.seed)
    setup_s = time.perf_counter() - _START
    if args.mode == "setup":
        return {"setup_s": setup_s}
    walls, attempted, failures, work = [], 0, [], []
    window = time.perf_counter()
    while True:
        wall, checks, job_work = timed_job(args.workload, inputs)
        del inputs
        walls.append(wall)
        attempted += checks.attempted
        failures += checks.failures
        work.append(job_work)
        if time.perf_counter() - window + wall > args.seconds:
            break
        inputs = prepare(args.seed)
    return {"setup_s": setup_s, "walls": walls, "attempted": attempted,
            "failures": failures, "work": work, "peak_rss_mb": peak_rss_mb(),
            "versions": versions()}


def trace(args):
    prepare = workloads.WORKLOADS[args.workload][0]
    traced, untraced, layers = [], [], []
    attempted, failures, spans = 0, [], None
    window = time.perf_counter()
    while True:
        tracer = tracing.Tracer()
        is_traced = len(traced) <= len(untraced)
        if is_traced:
            with tracing.installed(tracer):
                wall, checks, work = timed_job(args.workload,
                                               prepare(args.seed))
            for key, name in JOB_COUNTS.items():
                tracer.counts[name] += work.get(key, 0)
            traced.append(wall)
            layers.append(layer_metrics(tracer))
            spans = spans or tracer
        else:
            wall, checks, work = timed_job(args.workload, prepare(args.seed))
            untraced.append(wall)
        attempted += checks.attempted
        failures += checks.failures
        done = len(traced) >= 2 and untraced
        if done and time.perf_counter() - window + wall > args.seconds:
            break
    for name in EXACT_COUNTS:
        attempted += 1
        if len({job[name] for job in layers}) != 1:
            failures.append(f"{name} differs between repeats")
    metrics = {name: statistics.median_low(job[name] for job in layers)
               for name in layers[0]}
    return {"layers": metrics, "traced_walls": traced,
            "untraced_walls": untraced, "attempted": attempted,
            "failures": failures, "versions": versions(),
            "edges": [[parent, name, calls, total] for (parent, name),
                      (calls, total) in sorted(spans.edges.items(),
                                               key=lambda kv: -kv[1][1])]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    args = parser.parse_args()
    result = trace(args) if args.mode == "trace" else measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
