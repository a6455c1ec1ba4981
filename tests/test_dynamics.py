import hashlib

import numpy as np
import pytest

from granulab.core import Inelasticity, SystemState, UniformMaxwellian, sample_chaotic_state
from granulab.dynamics import (
    Simulation,
    TrajectoryLog,
    advance,
    advance_inverse,
    evolve_rods_ensemble,
)
from granulab.errors import ConfigError, EventStormError


def two_rods(eps=0.0, sigma=0.1):
    return SystemState(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]),
                       sigma=sigma, eps=Inelasticity(eps))


def random_state_1d(rng, n, box, sigma, eps, temp=1.0):
    return sample_chaotic_state(
        n, UniformMaxwellian(length=box, temperature=temp), sigma,
        Inelasticity(eps), box=box, rng=rng)


def evolve(s, dt, log=None, **options):
    """The state after dt under ``Simulation(s, log=log, **options)``."""
    sim = Simulation(s, log=log, **options)
    sim.run(dt=dt)
    return sim.state()


def first_contact(s, engine="auto"):
    """Time of the first logged contact within t=1, or None."""
    log = TrajectoryLog()
    evolve(s, 1.0, log=log, engine=engine)
    return log.events[0].t if log.n_events else None


class TestPairCollisionTime:
    """First contact of a pair under free flight, on both 1D engines."""

    def test_1d_gap_closing(self):
        for engine in ("adjacent", "allpairs"):
            assert first_contact(two_rods(), engine) == pytest.approx(0.9)

    @staticmethod
    def _no_contact(p):
        s = SystemState(np.array([[0.0], [1.0]]), np.array(p)[:, None],
                        sigma=0.1, eps=Inelasticity(0.0))
        for engine in ("adjacent", "allpairs"):
            assert first_contact(s, engine) is None

    def test_parallel_motion(self):
        self._no_contact([0.5, 0.5])

    def test_receding(self):
        self._no_contact([-1.0, 1.0])

    def test_3d_head_on(self):
        sigma = 0.25
        q = np.array([[0.0, 0, 0], [2 * sigma, 0, 0]])
        p = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        s = SystemState(q, p, sigma=sigma, eps=Inelasticity(0.0))
        assert first_contact(s) == pytest.approx(sigma / 2)

    def test_periodic_wraparound_1d(self):
        # approach through the boundary is the earlier contact
        s = SystemState(np.array([[0.1], [0.9]]), np.array([[-1.0], [1.0]]),
                        sigma=0.05, eps=Inelasticity(0.0), box=1.0)
        # gap through the boundary: 0.2 - 0.05, closing at speed 2
        for engine in ("adjacent", "allpairs"):
            assert first_contact(s, engine) == pytest.approx(0.15 / 2)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3(a)")
    def test_periodic_wraparound_3d(self):
        # the pair recedes in the minimum image (1.5 apart) but meets across
        # the wrap: gap 4 - 1.5 - 0.2 closing at speed 2
        q = np.array([[1.0, 0, 0], [2.5, 0, 0]])
        p = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        s = SystemState(q, p, sigma=0.2, eps=Inelasticity(0.0), box=4.0)
        log = TrajectoryLog()
        advance(s, 2.0, log=log)
        assert log.n_events > 0 and log.events[0].t == pytest.approx(1.15)


class TestAdvance:
    def test_free_motion(self):
        s = SystemState(np.array([[0.0]]), np.array([[1.0]]), sigma=0.1,
                        eps=Inelasticity(0.0))
        out = advance(s, 2.0)
        assert out.q[0, 0] == pytest.approx(2.0)
        assert out.p[0, 0] == pytest.approx(1.0)

    def test_two_rod_elastic_event(self):
        log = TrajectoryLog()
        out = advance(two_rods(eps=0.0), 1.0, log=log)
        assert log.n_events == 1
        assert log.events[0].t == pytest.approx(0.9)
        np.testing.assert_allclose(out.q[:, 0], [0.9, 1.1], atol=1e-12)
        np.testing.assert_allclose(out.p[:, 0], [0.0, 1.0], atol=1e-12)

    def test_two_rod_inelastic_event(self):
        out = advance(two_rods(eps=0.25), 1.0)
        np.testing.assert_allclose(out.p[:, 0], [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(out.q[:, 0], [0.925, 1.075], atol=1e-12)

    def test_allpairs_oracle_matches_adjacent_1d(self):
        rng = np.random.default_rng(20)
        s = random_state_1d(rng, 12, box=1.0, sigma=0.01, eps=0.2)
        a = evolve(s, 0.5, engine="adjacent")
        b = evolve(s, 0.5, engine="allpairs")
        np.testing.assert_allclose(a.q, b.q, atol=1e-9)
        np.testing.assert_allclose(a.p, b.p, atol=1e-9)

    def test_semigroup_property(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            s = random_state_1d(rng, 8, box=1.0, sigma=0.02,
                                eps=float(rng.uniform(0, 0.4)))
            one = advance(s, 0.7)
            two = advance(advance(s, 0.3), 0.4)
            np.testing.assert_allclose(one.q, two.q, atol=1e-9)
            np.testing.assert_allclose(one.p, two.p, atol=1e-9)

    def test_allowed_configuration_preserved(self):
        rng = np.random.default_rng(22)
        s = random_state_1d(rng, 50, box=1.0, sigma=0.004, eps=0.25)
        out = evolve(s, 1.0, tc_threshold=1e-9)
        assert out.min_separation() >= s.sigma * (1 - 1e-9)

    def test_energy_ledger(self):
        rng = np.random.default_rng(23)
        s = random_state_1d(rng, 100, box=1.0, sigma=0.002, eps=0.25)
        log = TrajectoryLog()
        out = evolve(s, 2.0, log=log, tc_threshold=1e-9)
        e0, e1 = s.kinetic_energy(), out.kinetic_energy()
        assert log.n_events > 10
        assert abs(e0 - e1 + log.total_dissipation()) <= 1e-9 * e0

    def test_momentum_exact(self):
        rng = np.random.default_rng(24)
        s = random_state_1d(rng, 200, box=1.0, sigma=0.001, eps=0.3)
        out = evolve(s, 2.0, tc_threshold=1e-9)
        drift = abs(out.total_momentum()[0] - s.total_momentum()[0])
        assert drift <= 1e-12 * max(1.0, np.abs(s.p).sum())

    def test_elastic_momenta_multiset_invariant(self):
        rng = np.random.default_rng(25)
        s = random_state_1d(rng, 64, box=1.0, sigma=0.003, eps=0.0)
        out = advance(s, 3.0)
        np.testing.assert_allclose(np.sort(out.p[:, 0]), np.sort(s.p[:, 0]),
                                   atol=1e-12)

    def test_3d_two_body(self):
        sigma = 0.2
        q = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        p = np.array([[1.0, 0, 0], [0.0, 0, 0]])
        s = SystemState(q, p, sigma=sigma, eps=Inelasticity(0.25))
        log = TrajectoryLog()
        out = advance(s, 1.0, log=log)
        assert log.n_events == 1
        assert log.events[0].t == pytest.approx(1.0 - sigma)
        np.testing.assert_allclose(out.p[0], [0.25, 0, 0], atol=1e-12)
        np.testing.assert_allclose(out.p[1], [0.75, 0, 0], atol=1e-12)

    def test_event_storm_guard(self):
        # restitution 0.5 at this density collapses: the guard must fire
        rng = np.random.default_rng(22)
        s = random_state_1d(rng, 50, box=1.0, sigma=0.004, eps=0.25)
        with pytest.raises(EventStormError):
            evolve(s, 1.0, storm_limit=2000)

    def test_tc_regularization_avoids_storm(self):
        rng = np.random.default_rng(22)
        s = random_state_1d(rng, 50, box=1.0, sigma=0.004, eps=0.25)
        out = evolve(s, 1.0, storm_limit=2000, tc_threshold=1e-6)
        assert np.all(np.isfinite(out.p))
        assert out.min_separation() >= s.sigma * (1 - 1e-9)

    def test_event_budget_stops_clock_at_last_event(self):
        # contacts before t+dt are still pending when the budget runs out,
        # so the clock may not move past the last event processed
        rng = np.random.default_rng(0)
        s = random_state_1d(rng, 200, box=20.0, sigma=0.01, eps=0.25)
        log = TrajectoryLog()
        sim = Simulation(s, log=log, tc_threshold=1e-9)
        assert sim.run(dt=5.0, max_events=10) == 10
        assert sim.t == log.events[-1].t
        out = sim.state()
        assert out.min_separation() >= s.sigma * (1 - 1e-9)
        Simulation(out)  # accepts its own snapshot
        # the rest of the interval is still reachable
        sim.run(dt=5.0 - sim.t)
        assert sim.t == pytest.approx(5.0)


class TestInverseFlow:
    @pytest.mark.parametrize("eps", [0.0, 0.25])
    def test_round_trip_two_rods(self, eps):
        s = two_rods(eps=eps)
        fwd = advance(s, 1.0)
        back = advance_inverse(fwd, 1.0)
        np.testing.assert_allclose(back.q, s.q, atol=1e-10)
        np.testing.assert_allclose(back.p, s.p, atol=1e-10)
        assert back.time == pytest.approx(0.0)

    def test_round_trip_many(self):
        rng = np.random.default_rng(26)
        s = random_state_1d(rng, 10, box=1.0, sigma=0.02, eps=0.2)
        fwd = advance(s, 0.6)
        back = advance_inverse(fwd, 0.6)
        np.testing.assert_allclose(np.sort(back.q[:, 0]), np.sort(s.q[:, 0]),
                                   atol=1e-8)
        np.testing.assert_allclose(np.sort(back.p[:, 0]), np.sort(s.p[:, 0]),
                                   atol=1e-8)

    def test_inverse_amplifies_relative_speed(self):
        # a pair separating forward in time collides under the backward flow
        # and picks up its (faster) pre-collision momenta
        s = SystemState(np.array([[0.0], [0.11]]), np.array([[-0.5], [0.5]]),
                        sigma=0.1, eps=Inelasticity(0.25))
        back = advance_inverse(s, 1.0)
        assert back.kinetic_energy() > s.kinetic_energy() + 0.1

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    def test_refuses_tc_threshold(self, engine):
        # the inverse flow has no TC rule: a run with tc_threshold would
        # undo the cutoff's elastic collisions inelastically
        with pytest.raises(ConfigError, match="no TC rule"):
            Simulation(two_rods(eps=0.25), rule="inverse", engine=engine,
                       tc_threshold=1e-9)
        Simulation(two_rods(eps=0.25), engine=engine, tc_threshold=1e-9)


class TestEvolveObservable:
    def test_total_momentum_conserved(self):
        rng = np.random.default_rng(27)
        s = random_state_1d(rng, 20, box=1.0, sigma=0.01, eps=0.3)
        final = evolve(s, 1.5, tc_threshold=1e-9)
        assert float(final.p.sum()) == pytest.approx(float(s.p.sum()))

    def test_energy_strictly_dissipated(self):
        s = two_rods(eps=0.25)
        assert advance(s, 1.0).kinetic_energy() < s.kinetic_energy() - 1e-6


class TestEvolveRodsEnsemble:
    def test_matches_event_driven(self):
        rng = np.random.default_rng(28)
        m, n, sigma, eps = 200, 3, 0.05, 0.25
        q = np.sort(rng.uniform(0, 1, size=(m, n)), axis=1)
        ok = np.all(np.diff(q, axis=1) >= sigma, axis=1)
        q = q[ok]
        p = rng.normal(size=q.shape)
        qf, pf, ncol = evolve_rods_ensemble(q, p, 0.8, sigma, Inelasticity(eps))
        for r in range(min(40, q.shape[0])):
            s = SystemState(q[r][:, None], p[r][:, None], sigma,
                            Inelasticity(eps))
            out = advance(s, 0.8)
            np.testing.assert_allclose(out.q[:, 0], qf[r], atol=1e-9)
            np.testing.assert_allclose(out.p[:, 0], pf[r], atol=1e-9)
        assert ncol.max() >= 1  # some rows actually collided

    def test_free_when_separated(self):
        q = np.array([[0.0, 10.0]])
        p = np.array([[0.1, 0.2]])
        qf, pf, ncol = evolve_rods_ensemble(q, p, 1.0, 0.1, Inelasticity(0.2))
        np.testing.assert_allclose(qf, q + p)
        assert ncol[0] == 0


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(29)
        s = random_state_1d(rng, 64, box=1.0, sigma=0.003, eps=0.25)
        log1, log2 = TrajectoryLog(), TrajectoryLog()
        a = evolve(s, 1.0, log=log1, tc_threshold=1e-9)
        b = evolve(s, 1.0, log=log2, tc_threshold=1e-9)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)
        assert [e.t for e in log1.events] == [e.t for e in log2.events]


class TestTrajectoryLog:
    def test_events_view_reads_columns(self):
        rng = np.random.default_rng(30)
        s = random_state_1d(rng, 20, box=1.0, sigma=0.01, eps=0.25)
        log = TrajectoryLog()
        evolve(s, 1.0, log=log, tc_threshold=1e-9)
        events = log.events
        assert len(events) == log.n_events == len(log.t) > 3
        assert events[1].t == log.t[1] and events[-1].dE == log.dE[-1]
        assert [e.i for e in events] == list(log.i)
        assert [e.j for e in events[1:3]] == list(log.j[1:3])
        assert log.total_dissipation() == sum(e.dE for e in events)
        with pytest.raises(ValueError):
            events[0].eta[0] = 2.0  # the shared 1D normal is read-only


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _log_columns(log):
    ev = log.events
    return (np.array([e.t for e in ev], dtype=float),
            np.array([e.i for e in ev], dtype=np.int64),
            np.array([e.j for e in ev], dtype=np.int64),
            np.array([e.eta for e in ev], dtype=float),
            np.array([e.g_n for e in ev], dtype=float),
            np.array([e.dE for e in ev], dtype=float))


class TestGoldenTrajectories:
    """Bitwise pins of 1D trajectories.  The digests were recorded from the
    numpy-array form of the adjacency engine; a change that keeps every
    float operation and its order must reproduce them exactly."""

    def test_collapse_prone_ring(self):
        rng = np.random.default_rng(31)
        s = random_state_1d(rng, 100, box=1.0, sigma=0.002, eps=0.25)
        log = TrajectoryLog()
        sim = Simulation(s, log=log, tc_threshold=1e-9)
        assert sim.run(max_events=20_000) == 20_000
        out = sim.state()
        assert _digest(out.q) == (
            "36b43590368fff242ce3486c570a20976ba0ef31c90a0492c91589eda32e1ef8")
        assert _digest(out.p) == (
            "69e58863c859c54f7ad91fc270cbdf0f39d5ed8cb3c9401b14cb9075fa22ab37")
        assert _digest(*_log_columns(log)) == (
            "f2d3561e7b72b1e55ce96365e6467c5d6bf6b4dcac58614028cf6841adb1cd4f")
        assert log.total_dissipation() == float.fromhex("-0x1.848ada5edebd3p+5")

    @pytest.mark.parametrize("eps, digest", [
        (0.0, "90d0f0a62a2d69449d610727ac9bb23a6b9137e5204dc003285690b4fd0a6ff2"),
        (0.1, "2de872d5d82f9a1a20921af7eddded27a00ec25b5c906fd6d3262628b50c04dd"),
    ])
    def test_round_trip_unbounded_rods(self, eps, digest):
        rng = np.random.default_rng(32)
        sigma, n = 0.1, 7
        q = np.sort(rng.uniform(0.0, 2.0 - n * sigma, size=n)) + sigma * np.arange(n)
        p = rng.normal(size=n)
        s = SystemState(q[:, None], p[:, None], sigma, Inelasticity(eps))
        fwd_log, back_log = TrajectoryLog(), TrajectoryLog()
        fwd = advance(s, 1.0, log=fwd_log)
        back = advance_inverse(fwd, 1.0, log=back_log)
        assert fwd_log.n_events == back_log.n_events == 4
        assert _digest(fwd.q, fwd.p, back.q, back.p, *_log_columns(fwd_log),
                       *_log_columns(back_log)) == digest
