import hashlib
import json
import multiprocessing
import threading

import numpy as np
import pytest

from granulab import bgl
from granulab.bgl import (
    ChaosReport,
    _d1_distance,
    bg_study,
    empirical_marginals,
    g2_iid_floor,
)
from granulab.core import Inelasticity, SystemState
from granulab.errors import ConfigError, EventStormError

from golden import digest, hex_floats


def synthetic_snapshots(rng, replicas, n, length=1.0, temp=1.0, sigma=0.0):
    out = []
    for _ in range(replicas):
        q = rng.uniform(0, length, size=(n, 1))
        p = rng.normal(0, np.sqrt(temp), size=(n, 1))
        out.append(SystemState(q, p, sigma=max(sigma, 1e-9),
                               eps=Inelasticity(0.0), box=length))
    return out


class TestEmpiricalMarginals:
    q_edges = np.linspace(0, 1, 5)
    p_edges = np.linspace(-4, 4, 17)

    def test_empty_error(self):
        with pytest.raises(ConfigError):
            empirical_marginals([], self.q_edges, self.p_edges, 20_000,
                                rng=np.random.default_rng(0))

    def test_single_particle_error(self):
        s = SystemState(np.array([[0.5]]), np.array([[0.0]]), sigma=0.01,
                        eps=Inelasticity(0.0), box=1.0)
        with pytest.raises(ConfigError):
            empirical_marginals([s], self.q_edges, self.p_edges, 20_000,
                                rng=np.random.default_rng(0))

    def test_f1_flat_positions(self):
        rng = np.random.default_rng(0)
        snaps = synthetic_snapshots(rng, 10, 2000)
        est = empirical_marginals(snaps, self.q_edges, self.p_edges,
                                  max_pairs_per_replica=20_000, rng=rng)
        spatial = est.F1.counts.sum(axis=1)
        expect = spatial.mean()
        chi2 = float(((spatial - expect) ** 2 / expect).sum())
        assert chi2 < 16.3  # 3 dof at the 1e-3 level

    def test_pair_count_bookkeeping(self):
        rng = np.random.default_rng(1)
        snaps = synthetic_snapshots(rng, 3, 40)
        est = empirical_marginals(snaps, self.q_edges, self.p_edges,
                                  max_pairs_per_replica=10_000, rng=rng)
        # every ordered pair of every replica is counted once
        assert est.n_pairs == sum(s.n * (s.n - 1) for s in snaps)
        assert est.n_pairs == 3 * 40 * 39
        assert est.F1.counts.sum() == 3 * 40

    def test_iid_data_sits_at_floor(self):
        rng = np.random.default_rng(2)
        replicas, n = 12, 500
        snaps = synthetic_snapshots(rng, replicas, n)
        q_edges = np.linspace(0, 1, 3)
        p_edges = np.linspace(-4, 4, 9)
        est = empirical_marginals(snaps, q_edges, p_edges,
                                  max_pairs_per_replica=4000, rng=rng)
        floor = g2_iid_floor(est.F1.counts, replicas, n, 4000, rng)
        assert 0.5 * floor < est.g2_norm < 1.6 * floor

    def test_iid_data_sits_at_floor_all_pairs(self):
        # n(n-1) = 1560 <= max_pairs, so the data side counts every ordered
        # pair and the floor must too.  One data set scatters over 0.7-1.6
        # of its floor, so the ratio is averaged over 16 sets: over seeds
        # 1000-1299 that mean lay in 0.90-1.15, and in 0.61-0.79 with a
        # floor that draws its pairs with replacement
        rng = np.random.default_rng(3)
        replicas, n = 12, 40
        q_edges = np.linspace(0, 1, 3)
        p_edges = np.linspace(-4, 4, 9)
        ratios = []
        for _ in range(16):
            snaps = synthetic_snapshots(rng, replicas, n)
            est = empirical_marginals(snaps, q_edges, p_edges,
                                      max_pairs_per_replica=10_000, rng=rng)
            floor = g2_iid_floor(est.F1.counts, replicas, n, 10_000, rng)
            ratios.append(est.g2_norm / floor)
        assert 0.82 < np.mean(ratios) < 1.3

    @pytest.mark.parametrize("n, max_pairs, pins", [
        (300, 20_000, (
            "aaff558893b7c184da0e3e7db583f0ce8f12a59a8e1a95b0c2757440d7f3defe",
            ("0x1.307d53d62666ep-5", "0x1.175e0fb4d5fbap-5"), 60_000)),
        (40, 10_000, (
            "fd2a92ab9babd6d36cd277fc51d50a1b5d5d8f459e14a9083207b121c94a5114",
            ("0x1.8bf258bf258bdp-5", "0x1.56d9b1df623a8p-4"), 4680)),
    ], ids=["subsampled", "all_pairs"])
    def test_marginals_and_floor_golden(self, n, max_pairs, pins):
        # bitwise pin of F1, the chaos norm, the pair count and the floor,
        # with the floor drawing from the stream the marginals left
        rng = np.random.default_rng(7)
        snaps = synthetic_snapshots(rng, 3, n)
        q_edges = np.linspace(0, 1, 3)
        p_edges = np.linspace(-4, 4, 9)
        est = empirical_marginals(snaps, q_edges, p_edges, max_pairs, rng=rng)
        floor = g2_iid_floor(est.F1.counts, 3, n, max_pairs, rng)
        assert (digest(est.F1.counts), hex_floats(est.g2_norm, floor),
                est.n_pairs) == pins


def test_d1_jackknife_matches_loop():
    # the vectorised leave-one-out sums are the per-replica loop's, bitwise
    rng = np.random.default_rng(11)
    for r in (2, 3, 32):
        per_replica = rng.dirichlet(np.ones(96), size=r)
        ref = rng.dirichlet(np.ones(96))
        pooled = per_replica.mean(axis=0)
        loo = np.array([float(np.abs((pooled * r - per_replica[i]) / (r - 1)
                                     - ref).sum()) for i in range(r)])
        stderr = float(np.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2)))
        assert _d1_distance(per_replica, ref) == (
            float(np.abs(pooled - ref).sum()), stderr)


class TestBgStudy:
    base = {
        "sigma_list": [0.04, 0.02],
        "eps": 0.25,
        "t": 0.5,
        "replicas": 6,
        "seed": 42,
        "n_particles": 400,
        "length": 400.0,
        "dsmc_samples": 20_000,
        "max_pairs": 4000,
    }

    def test_report_structure(self):
        report = bg_study(self.base)
        assert isinstance(report, ChaosReport)
        assert [row["sigma"] for row in report.per_sigma] == [0.04, 0.02]
        for row in report.per_sigma:
            assert row["D1"] >= 0 and row["D1_err"] > 0
            assert row["G2"] >= 0 and row["G2_floor"] > 0
        assert set(report.verdicts) == {"d1_nonincreasing",
                                        "g2_within_2x_floor",
                                        "energy_within_5pct"}

    def test_elastic_runs_sit_at_sampling_floor(self):
        cfg = dict(self.base, eps=0.0, n_particles=1000, length=1000.0,
                   replicas=4, sigma_list=[0.04, 0.01])
        report = bg_study(cfg)
        # free streaming keeps the uniform-Maxwellian marginal: only
        # multinomial noise remains on the 4 x 24 grid
        for row in report.per_sigma:
            assert row["D1"] < 0.3
        assert report.verdicts["energy_within_5pct"]

    def test_dilute_guard(self):
        cfg = dict(self.base, sigma_list=[0.5])
        with pytest.raises(ConfigError):
            bg_study(cfg)

    @pytest.mark.parametrize("key", ["replica", "q_bins", "tc_threshold"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            bg_study(dict(self.base, **{key: 4}))

    def test_deterministic(self):
        r1 = bg_study(self.base)
        r2 = bg_study(self.base)
        assert r1.per_sigma == r2.per_sigma

    def test_worker_count_invariance(self):
        reports = [bg_study(self.base, workers=w) for w in (1, 2, 3)]
        # no worker and no pool thread is left for the next fork to copy
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1
        for report in reports[1:]:
            assert (json.dumps(report.per_sigma)
                    == json.dumps(reports[0].per_sigma))
            assert report.engine_totals == reports[0].engine_totals
            assert report.verdicts == reports[0].verdicts

    def test_engine_totals_are_the_replicas_counters(self, monkeypatch):
        # the totals of each row are the sums of the counters its replicas'
        # engines hold after their runs
        runs = []

        class Recorded(bgl.Simulation):
            def run(self, *args, **kwargs):
                out = super().run(*args, **kwargs)
                runs.append((self.n_events, self.n_stale_pops,
                             self.n_tc_elastic))
                return out

        monkeypatch.setattr(bgl, "Simulation", Recorded)
        cfg = dict(self.base, replicas=3, n_particles=200, length=200.0)
        totals = bg_study(cfg).engine_totals
        assert [row["sigma"] for row in totals] == [0.04, 0.02]
        for row, counts in zip(totals, (runs[:3], runs[3:])):
            assert (row["n_events"], row["n_stale_pops"],
                    row["n_tc_elastic"]) == tuple(map(sum, zip(*counts)))
            assert 0 <= row["n_tc_elastic"] <= row["n_events"]
            assert row["n_events"] > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_reaches_caller(self, monkeypatch, workers):
        # forked workers inherit the patched engine; the pool cancels the
        # pending replicas and leaves no process behind
        class Failing(bgl.Simulation):
            def run(self, *args, **kwargs):
                raise EventStormError("replica aborted")

        monkeypatch.setattr(bgl, "Simulation", Failing)
        with pytest.raises(EventStormError, match="^replica aborted$"):
            bg_study(self.base, workers=workers)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", [{"replicas": 0}, {"n_particles": 1},
                                     {"sigma_list": []}])
    def test_empty_study_rejected(self, bad):
        with pytest.raises(ConfigError):
            bg_study(dict(self.base, **bad))

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            bg_study(self.base, workers=0)

    def test_per_sigma_golden(self):
        # bitwise pin of every row value (repr round-trips a float exactly)
        cfg = dict(self.base, replicas=4, n_particles=2000, length=2000.0)
        for workers in (1, 2):
            rows = bg_study(cfg, workers=workers).per_sigma
            blob = json.dumps(rows, sort_keys=True).encode()
            assert hashlib.sha256(blob).hexdigest() == (
                "32aab8d7041613f716f1e4bef6427b2100f3cf17b6cf248606ed2aa95c294616")

    def test_estimator_stream_is_its_own(self, monkeypatch):
        # the pair subsampling and the floor's synthetic data must not
        # re-read the words that drew a replica's initial state
        keys = {"replica": [], "estimator": []}

        def record(name, fn):
            def wrapper(*args, **kwargs):
                rng = kwargs["rng"] if "rng" in kwargs else args[-1]
                keys[name].append(rng.bit_generator.seed_seq.spawn_key)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bgl, "sample_chaotic_state",
                            record("replica", bgl.sample_chaotic_state))
        monkeypatch.setattr(bgl, "_chaos_counts",
                            record("estimator", bgl._chaos_counts))
        bg_study(self.base)
        assert len(keys["replica"]) == 2 * self.base["replicas"]
        assert not set(keys["estimator"]) & set(keys["replica"])
        # per row, one count of the replicas' pairs and one per floor trial
        assert len(keys["estimator"]) == 2 * (1 + bgl._FLOOR_TRIALS)

    def test_per_sigma_golden_without_g2(self):
        # bitwise pin of every row value that reads no estimator randomness
        cfg = dict(self.base, replicas=4, n_particles=2000, length=2000.0)
        for workers in (1, 2):
            rows = [{k: v for k, v in row.items()
                     if k not in ("G2", "G2_floor")}
                    for row in bg_study(cfg, workers=workers).per_sigma]
            blob = json.dumps(rows, sort_keys=True).encode()
            assert hashlib.sha256(blob).hexdigest() == (
                "77bb5605ca7c4bfb6197459f3775078ac46f1d7585456288efb3de38c82d063e")


def test_d1_single_replica_has_no_stderr():
    ref = np.full(4, 0.25)
    assert _d1_distance(np.array([[0.5, 0.5, 0.0, 0.0]]), ref) == (1.0, np.inf)
