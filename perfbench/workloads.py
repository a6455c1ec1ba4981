"""The four benchmark workloads: seeded inputs, the timed job and its checks.

Each workload is a pair of functions.  ``prepare(seed)`` makes the job's
inputs from the seed alone (sampling and engine construction; this is the
set-up that ``setup_s`` times).  ``job(inputs, checks)`` does the workload's
fixed work, records every correctness check in ``checks`` and returns the
work counts the summary reports.  Workloads call granulab through module attributes at call time,
so the spans of :mod:`tracing` see the calls.

The 3D engine is left out: periodic 3D misses collisions, so timing it would
time a wrong program.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

import granulab.cli
import granulab.core
import granulab.cumulants
import granulab.dynamics
import granulab.kinetic
from granulab.core import Inelasticity, UniformMaxwellian
from granulab.errors import GranulabError

ROD_EVENTS = 50_000
DSMC_SAMPLES = 200_000
DSMC_CELLS = 64
DUALITY_EPS = (0.0, 0.1, 0.25)
DUALITY_T = (0.5, 1.0, 2.0)
DUALITY_N = (2, 3)
DUALITY_SAMPLES = 100_000
CUMULANT_CONFIGS = 10  # order-6 evaluations; every second one isolates a rod
ENSKOG_RUNS = ((1, 2500, 200), (3, 1500, 150))  # (d, outer samples, budget)
BGL_VERDICTS = ("d1_nonincreasing", "g2_within_2x_floor", "energy_within_5pct")
SCRATCH = Path(".perfbench_tmp")


class Checks:
    """Named correctness checks of one job."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


# -- rods_collapse ---------------------------------------------------------

def rods_prepare(seed):
    rng = np.random.default_rng(seed)
    sampler = UniformMaxwellian(length=1.0, temperature=1.0)
    state = granulab.core.sample_chaotic_state(
        100, sampler, 0.002, Inelasticity(0.25), 1.0, rng)
    log = granulab.dynamics.TrajectoryLog()
    sim = granulab.dynamics.Simulation(state, log=log, tc_threshold=1e-9)
    return state, sim


def rods_job(inputs, checks):
    state0, sim = inputs
    processed = sim.run(max_events=ROD_EVENTS)
    final = sim.state()
    e0 = state0.kinetic_energy()
    ledger = e0 - final.kinetic_energy() + sim.log.total_dissipation()
    checks.check("energy_ledger", abs(ledger) <= 1e-9 * e0)
    drift = np.abs(final.total_momentum() - state0.total_momentum()).max()
    checks.check("momentum_drift", drift <= 1e-12 * np.abs(state0.p).sum())
    checks.check("events_logged", processed == len(sim.log.events))
    try:
        granulab.dynamics.Simulation(final, tc_threshold=1e-9)
        accepted = True
    except ValueError:
        accepted = False
    checks.check("final_state_accepted", accepted)
    return {"events": processed}


# -- dsmc_cooling ----------------------------------------------------------

def dsmc_prepare(seed):
    rng = np.random.default_rng(seed)
    sampler = UniformMaxwellian(length=1.0, temperature=1.0)
    state = granulab.kinetic.dsmc_init(sampler, DSMC_SAMPLES, DSMC_CELLS,
                                       Inelasticity(0.25), rng)
    return state, rng


def dsmc_job(inputs, checks):
    """Cool from T0 to 0.1*T0 in segments of 10% temperature loss and check
    each segment's mean cooling rate against the quadrature oracle."""
    kinetic = granulab.kinetic
    state0, rng = inputs
    state = state0
    temperature = kinetic.granular_temperature
    t0 = temperature(state)
    steps = 0
    segment = 0
    while temperature(state) > 0.1 * t0:
        seg_t0 = temperature(state)
        rate_a = kinetic.energy_moment_quadrature(state.p, state.eps, 1.0)
        elapsed = 0.0
        while temperature(state) > 0.9 * seg_t0:
            dt = kinetic.suggest_dt(state)
            state = kinetic.dsmc_step(state, dt, rng)
            elapsed += dt
            steps += 1
        rate_b = kinetic.energy_moment_quadrature(state.p, state.eps, 1.0)
        measured = (temperature(state) - seg_t0) / elapsed
        expected = 0.5 * (rate_a + rate_b)
        checks.check(f"segment_{segment}_rate",
                     abs(measured - expected) <= 0.05 * abs(expected))
        segment += 1
    mass0 = kinetic.dsmc_moments(state0)[0]
    checks.check("mass_exact", kinetic.dsmc_moments(state)[0] == mass0)
    drift = abs(float(state.p.sum()) - float(state0.p.sum()))
    checks.check("momentum_drift", drift <= 1e-12 * np.abs(state0.p).sum())
    return {"sample_steps": steps * state.n_samples}


# -- estimators ------------------------------------------------------------

def _energy(q, p):
    return 0.5 * float(np.sum(p * p))


def _kinetic_energy(q, p):
    return 0.5 * p * p


def _rod_cluster(rng, isolated):
    """Seven unbounded rods (sigma=0.1) that collide within t=1; with
    ``isolated`` the last rod is moved beyond any possible contact."""
    sigma, t, n = 0.1, 1.0, 7
    gaps = np.sort(rng.uniform(0.0, 2.0 - n * sigma, size=n))
    q = gaps + sigma * np.arange(n)
    p = rng.normal(size=n)
    if isolated:
        # 1D collisions keep momenta inside the initial range, so no pair
        # closes faster than 2*max|p|
        q[-1] = q[-2] + sigma + 2.0 * np.abs(p).max() * t + 1.0
    return q[:, None], p[:, None]


def estimators_prepare(seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    clusters = [_rod_cluster(rng, isolated=k % 2 == 1)
                for k in range(CUMULANT_CONFIGS)]
    return seed, clusters


def estimators_job(inputs, checks):
    seed, clusters = inputs
    cumulants, kinetic = granulab.cumulants, granulab.kinetic

    sampler = UniformMaxwellian(length=1.0, temperature=1.0)
    for e in DUALITY_EPS:
        for t in DUALITY_T:
            for n in DUALITY_N:
                cell_seed = np.random.SeedSequence(
                    seed, spawn_key=(0, int(1000 * e), int(1000 * t), n))
                res, err = cumulants.duality_residual(
                    _kinetic_energy, sampler, t, n, DUALITY_SAMPLES, 0.02,
                    Inelasticity(e), seed=cell_seed.generate_state(1)[0])
                checks.check(f"duality_eps{e}_t{t}_n{n}", abs(res / err) < 3.0)

    eps = Inelasticity(0.25)
    weight = sum(abs(term.coefficient)
                 for term in cumulants.enumerate_cumulant_terms(6))
    for k, (q, p) in enumerate(clusters):
        value = cumulants.apply_cumulant(6, 1.0, _energy, q, p, 0.1, eps)
        if k % 2 == 1:
            # every term's energy is at most the initial one (the flows
            # dissipate), so rounding is bounded by weight * energy * ulps
            tol = 16 * np.finfo(float).eps * weight * _energy(q, p)
            checks.check(f"cumulant_{k}_vanishes", abs(value) <= tol)
        else:
            checks.check(f"cumulant_{k}_finite", math.isfinite(value))

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    for d, n_outer, budget in ENSKOG_RUNS:
        moments = _enskog_moments(d, n_outer, budget, rng)
        for name in ("mass", "momentum"):
            value, err = moments[name]
            checks.check(f"enskog_d{d}_{name}", abs(value) <= 3.0 * err)
        value, err = moments["energy"]
        checks.check(f"enskog_d{d}_energy", value < -3.0 * err)
    return {}


def _enskog_moments(d, n_outer, budget, rng):
    """Mass, momentum and energy moments of the collision integral at a unit
    Maxwellian, as (mean, stderr), with p1 drawn from the Maxwellian."""
    f2 = granulab.kinetic.maxwellian_product_f2(temperature=1.0, d=d)
    norm = (2.0 * np.pi) ** (d / 2.0)
    eps = Inelasticity(0.25)
    samples = np.empty((3, n_outer))
    for k in range(n_outer):
        p1 = rng.normal(size=d)
        val, _ = granulab.kinetic.enskog_collision_integral(
            f2, (np.zeros(d), p1), 0.05, eps, budget, d=d, rng=rng)
        w = val * norm / np.exp(-0.5 * p1 @ p1)
        samples[:, k] = (w, p1[0] * w, 0.5 * (p1 @ p1) * w)
    mean = samples.mean(axis=1)
    err = samples.std(axis=1, ddof=1) / np.sqrt(n_outer)
    return {name: (float(mean[i]), float(err[i]))
            for i, name in enumerate(("mass", "momentum", "energy"))}


# -- bgl_study -------------------------------------------------------------

def bgl_prepare(seed):
    out = SCRATCH / f"bgl-{os.getpid()}"
    return ["bgl-study", "--out", str(out), "--seed", str(seed)], out


def bgl_job(inputs, checks):
    """The CLI's Boltzmann-Grad study with its default (acceptance) config.

    The three verdicts are results of the study, reported by name; the checks
    are that the CLI ran, wrote a well-formed report and that its exit code
    agrees with the verdicts (0 when all pass, 1 otherwise).
    """
    argv, out = inputs
    try:
        # 2 is a config error, 3 a runtime guard abort (a GranulabError)
        code = granulab.cli.main(argv)
        if code not in (0, 1):
            checks.check(f"exit_code {code}", False)
            return {}
        with open(out / "report.json") as fh:
            report = json.load(fh)
        artifact_bytes = sum(f.stat().st_size for f in out.iterdir())
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    verdicts = report.get("verdicts", {})
    for name in BGL_VERDICTS:
        checks.check(f"verdict_{name}_reported",
                     isinstance(verdicts.get(name), bool))
    expected_code = 0 if all(verdicts.get(v) for v in BGL_VERDICTS) else 1
    checks.check("exit_code", code == expected_code)
    rows = report.get("per_sigma", [])
    checks.check("per_sigma_rows", len(rows) == 3 and all(
        math.isfinite(row[key]) for row in rows
        for key in ("D1", "D1_err", "G2", "G2_floor", "energy_particle")))
    return {"artifact_bytes": artifact_bytes,
            "verdicts_failed": sum(not verdicts.get(v) for v in BGL_VERDICTS),
            "verdicts": {v: verdicts.get(v) for v in BGL_VERDICTS}}


WORKLOADS = {
    "rods_collapse": (rods_prepare, rods_job),
    "dsmc_cooling": (dsmc_prepare, dsmc_job),
    "estimators": (estimators_prepare, estimators_job),
    "bgl_study": (bgl_prepare, bgl_job),
}


def run_job(workload, inputs):
    """Run one job; a raised GranulabError counts as one failed check."""
    checks = Checks()
    try:
        work = WORKLOADS[workload][1](inputs, checks)
    except GranulabError as exc:
        checks.check(f"raised {type(exc).__name__}: {exc}", False)
        work = {}
    return checks, work
