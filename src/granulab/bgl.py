"""Boltzmann-Grad scaling study for the 1D rod gas.

Runs ensembles of event-driven rod systems at decreasing diameter with the
number density held fixed, builds empirical one- and two-particle
marginals, and compares against the diameter-free DSMC solution of the
limit equation.  The chaos metric is the L1 distance between the pair
distribution and the product of singles on a coarse grid, always reported
next to a floor measured on synthetic independent data with matched
replica, particle and pair counts (finite ensembles never reach zero).
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import check_config
from .core import Inelasticity, UniformMaxwellian, sample_chaotic_state
from .dynamics import Simulation
from .errors import ConfigError
from .kinetic import PhaseHistogram, granular_temperature, solve_limit_equation


@dataclass
class MarginalEstimate:
    F1: PhaseHistogram
    g2_norm: float
    n_pairs: int


@dataclass
class ChaosReport:
    per_sigma: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    # per sigma row, the replicas' summed engine counters
    engine_totals: list = field(default_factory=list)


_Q_BINS, _P_BINS = 4, 24  # one-particle grid of D1
_PAIR_Q_BINS, _PAIR_P_BINS = 2, 8  # coarse grid of G2
_DSMC_CELLS = 8  # cells of the DSMC reference
_TC_THRESHOLD = 1e-9  # elastic cutoff of the rod runs
_FLOOR_TRIALS = 3  # synthetic data sets averaged into the G2 floor


def _digitize(x, edges):
    idx = np.searchsorted(edges, x, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def _ordered_pairs(n: int, max_pairs: int, rng: np.random.Generator):
    """Ordered pairs (ii, jj), i != j, of n particles: all n(n-1) when that
    is at most ``max_pairs``, else ``max_pairs`` drawn with replacement."""
    if n * (n - 1) <= max_pairs:
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        mask = i != j
        return i[mask], j[mask]
    ii = rng.integers(0, n, size=max_pairs)
    jj = rng.integers(0, n - 1, size=max_pairs)
    return ii, np.where(jj >= ii, jj + 1, jj)


def _cells(state, q_edges, p_edges):
    """Flat (q, p) grid cell of each particle of a 1D state."""
    return (_digitize(state.q[:, 0], q_edges) * (len(p_edges) - 1)
            + _digitize(state.p[:, 0], p_edges))


def _chaos_counts(cells, k: int, max_pairs: int, rng: np.random.Generator):
    """Single-particle counts, ordered-pair count and chaos norm
    sum |pi2 - pi1 (x) pi1| of per-replica arrays of flat cells in [0, k).

    ``cells`` may be a generator: each replica's cells are then drawn only
    after the previous replica's pairs.  Any integer dtype holding [0, k)
    will do; pair cells are formed in ``intp``.  Counts are integers, so
    summing them in floats is exact.
    """
    f1_counts = np.zeros(k)
    pair_counts = np.zeros((k, k))
    n_pairs = 0
    for cell in cells:
        cell = cell.astype(np.intp, copy=False)
        f1_counts += np.bincount(cell, minlength=k)
        ii, jj = _ordered_pairs(len(cell), max_pairs, rng)
        pair_counts += np.bincount(cell[ii] * k + cell[jj],
                                   minlength=k * k).reshape(k, k)
        n_pairs += len(ii)
    pi1 = f1_counts / f1_counts.sum()
    pi2 = pair_counts / pair_counts.sum()
    return f1_counts, n_pairs, float(np.abs(pi2 - np.outer(pi1, pi1)).sum())


def empirical_marginals(snapshots, q_edges, p_edges,
                        max_pairs_per_replica: int, *,
                        rng: np.random.Generator):
    """One- and two-particle marginals from replica snapshots.

    F1 pools all particles; ordered pairs within each replica (subsampled
    beyond ``max_pairs_per_replica``) are histogrammed, and the chaos norm
    is the L1 distance between the pair probabilities and the outer product
    of the single-particle probabilities.
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise ConfigError("no snapshots given")
    if any(s.n < 2 for s in snapshots):
        raise ConfigError("pair marginal undefined for single-particle replicas")
    q_edges = np.asarray(q_edges, dtype=float)
    p_edges = np.asarray(p_edges, dtype=float)
    nq, npb = len(q_edges) - 1, len(p_edges) - 1
    f1_counts, n_pairs, g2 = _chaos_counts(
        (_cells(s, q_edges, p_edges) for s in snapshots), nq * npb,
        max_pairs_per_replica, rng)
    f1 = PhaseHistogram(q_edges, p_edges, f1_counts.reshape(nq, npb))
    return MarginalEstimate(f1, g2, n_pairs)


def g2_iid_floor(f1_probs, n_replicas: int, n_particles: int,
                 pairs_per_replica: int, rng: np.random.Generator) -> float:
    """Chaos-norm floor for truly independent particles at matched sizes:
    i.i.d. cells from ``f1_probs``, pairs chosen as empirical_marginals does,
    averaged over ``_FLOOR_TRIALS`` synthetic data sets."""
    k = f1_probs.size
    probs = f1_probs.ravel() / f1_probs.sum()
    return float(np.mean([
        _chaos_counts((rng.choice(k, size=n_particles, p=probs)
                       for _ in range(n_replicas)),
                      k, pairs_per_replica, rng)[2]
        for _ in range(_FLOOR_TRIALS)]))


def _d1_distance(per_replica_f1, ref_probs):
    """Pooled L1 distance to the reference plus a jackknife stderr, from
    the (replicas, cells) single-particle probabilities."""
    r = per_replica_f1.shape[0]
    pooled = per_replica_f1.mean(axis=0)
    d1 = float(np.abs(pooled - ref_probs).sum())
    if r < 2:
        return d1, np.inf
    rest = (pooled * r - per_replica_f1) / (r - 1)
    loo = np.abs(rest - ref_probs).sum(axis=1)
    stderr = float(np.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2)))
    return d1, stderr


def _replica(sigma, seed, *, n, sampler, eps, t, fine, coarse):
    """One rod replica, from its seed child to time t, as the record the
    study reads: the fine-grid single-particle probabilities of D1, the
    coarse-grid flat cells of G2 in the smallest unsigned dtype, the energy
    per particle and the engine counters."""
    rng = np.random.default_rng(seed)
    state = sample_chaotic_state(n, sampler, sigma, eps, sampler.length, rng)
    sim = Simulation(state, tc_threshold=_TC_THRESHOLD)
    sim.run(dt=t)
    s = sim.state()
    f1 = np.bincount(_cells(s, *fine), minlength=_Q_BINS * _P_BINS) / n
    cells = _cells(s, *coarse).astype(
        np.min_scalar_type(_PAIR_Q_BINS * _PAIR_P_BINS - 1))
    return (f1, cells, 0.5 * np.sum(s.p ** 2) / s.n,
            (sim.n_events, sim.n_stale_pops, sim.n_tc_elastic))


@contextmanager
def _mapped(fn, workers: int, *args):
    """``map(fn, *args)`` in order: in this process for one worker, else on
    a pool of worker processes that is given every task at once and, on
    leaving the block, cancels the pending ones and joins its workers.

    Workers are forked: they start as copies of this process, so none
    imports numpy again and each sees the module state of its parent.  The
    pool forks them all before it starts its own threads.
    """
    if workers == 1:
        yield map(fn, *args)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(min(workers, len(args[0])),
                               multiprocessing.get_context("fork"))
    try:
        yield pool.map(fn, *args)
    finally:
        pool.shutdown(cancel_futures=True)


def bg_study(config: dict, workers: int = 1) -> ChaosReport:
    """Scaling study: event-driven rod ensembles vs the limit equation.

    Reads the keys of the CLI's ``bgl-study`` config through
    :func:`~granulab.config.check_config`: a key left out takes its
    default, and an unknown key or a bad value raises ConfigError.  The
    number density n_particles / length is the diameter-free scale shared
    with the DSMC reference, so distances across sigma reflect only the
    particle system.

    With ``workers`` > 1 the replicas of every row run on that many worker
    processes (at most one per replica), while this process computes the
    DSMC reference; results are collected in spawn order, so the report is
    bitwise the same at any worker count.  A worker returns a compact record
    of its replica (see ``_replica``), not the snapshot: unpickled snapshots
    would stay resident in this process's heap.
    """
    cfg = check_config("bgl-study", config)
    sigma_list = sorted(cfg["sigma_list"], reverse=True)
    eps = Inelasticity(cfg["eps"])
    t, replicas, n = cfg["t"], cfg["replicas"], cfg["n_particles"]
    length, temp = cfg["length"], cfg["temperature"]

    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    density = n / length
    for sigma in sigma_list:
        if n * sigma / length >= 0.2:
            raise ConfigError(
                f"sigma {sigma} outside the dilute regime "
                f"(n*sigma/L = {n * sigma / length:.3f} >= 0.2)")

    p_lim = 6.0 * np.sqrt(temp)
    q_edges = np.linspace(0.0, length, _Q_BINS + 1)
    p_edges = np.linspace(-p_lim, p_lim, _P_BINS + 1)
    pq_edges = np.linspace(0.0, length, _PAIR_Q_BINS + 1)
    pp_edges = np.linspace(-p_lim, p_lim, _PAIR_P_BINS + 1)

    # per row, one child per replica, then the estimator's own
    seeds = [row.spawn(replicas + 1) for row in
             np.random.SeedSequence(cfg["seed"]).spawn(len(sigma_list))]
    task = partial(_replica, n=n,
                   sampler=UniformMaxwellian(length=length, temperature=temp),
                   eps=eps, t=t, fine=(q_edges, p_edges),
                   coarse=(pq_edges, pp_edges))
    report = ChaosReport()
    with _mapped(task, workers,
                 [sigma for sigma in sigma_list for _ in range(replicas)],
                 [rs for row in seeds for rs in row[:-1]]) as records:
        # diameter-free reference, computed once and reused for every sigma
        dsmc_sampler = UniformMaxwellian(length=1.0, temperature=temp)
        sol = solve_limit_equation(dsmc_sampler, t, eps, seed=cfg["seed"],
                                   n_samples=cfg["dsmc_samples"],
                                   n_cells=_DSMC_CELLS, density=density)
        ref_state = sol.final_state
        ref_p, _ = np.histogram(ref_state.p, bins=p_edges)
        ref_probs = np.outer(np.full(_Q_BINS, 1.0 / _Q_BINS),
                             ref_p / ref_p.sum()).ravel()
        ref_temperature = granular_temperature(ref_state)

        for sigma, row in zip(sigma_list, seeds):
            f1, cells, energies, counters = zip(
                *itertools.islice(records, replicas))
            d1, d1_err = _d1_distance(np.array(f1), ref_probs)
            est_rng = np.random.default_rng(row[-1])
            f1_counts, _, g2 = _chaos_counts(
                cells, _PAIR_Q_BINS * _PAIR_P_BINS, cfg["max_pairs"], est_rng)
            floor = g2_iid_floor(f1_counts, replicas, n, cfg["max_pairs"],
                                 est_rng)
            report.per_sigma.append({
                "sigma": sigma,
                "t": t,
                "D1": d1,
                "D1_err": d1_err,
                "G2": g2,
                "G2_floor": floor,
                "energy_particle": float(np.mean(energies)),
                "energy_dsmc": 0.5 * ref_temperature,
            })
            n_events, n_stale_pops, n_tc_elastic = map(sum, zip(*counters))
            report.engine_totals.append({
                "sigma": sigma, "n_events": n_events,
                "n_stale_pops": n_stale_pops, "n_tc_elastic": n_tc_elastic})

    rows = report.per_sigma
    report.verdicts["d1_nonincreasing"] = all(
        rows[i + 1]["D1"] <= rows[i]["D1"]
        + np.hypot(rows[i]["D1_err"], rows[i + 1]["D1_err"])
        for i in range(len(rows) - 1))
    smallest = rows[-1]
    report.verdicts["g2_within_2x_floor"] = bool(
        smallest["G2"] <= 2.0 * smallest["G2_floor"])
    report.verdicts["energy_within_5pct"] = bool(
        abs(smallest["energy_particle"] - smallest["energy_dsmc"])
        <= 0.05 * smallest["energy_dsmc"])
    return report
