import itertools

import numpy as np
import pytest

from granulab import core
from granulab.core import (
    Inelasticity,
    SystemState,
    UniformMaxwellian,
    _gap_positions,
    sample_chaotic_state,
)
from granulab.dynamics import (
    _OVERLAP_SLACK,
    Simulation,
    TrajectoryLog,
    advance,
    advance_inverse,
    evolve_rods_ensemble,
)
from granulab.errors import ConfigError, EventStormError

from free_flight import elastic_line, elastic_ring
from golden import digest


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
    return log.t[0] if log.n_events else None


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

    def test_periodic_wraparound_3d(self):
        # the pair recedes in the minimum image (1.5 apart) but meets across
        # the wrap: gap 4 - 1.5 - 0.2 closing at speed 2
        q = np.array([[1.0, 0, 0], [2.5, 0, 0]])
        p = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        s = SystemState(q, p, sigma=0.2, eps=Inelasticity(0.0), box=4.0)
        log = TrajectoryLog()
        evolve(s, 2.0, log=log)
        assert log.n_events > 0 and log.t[0] == pytest.approx(1.15)

    def test_contact_beyond_nearest_images(self):
        # fast x motion with a slow y drift: the pair first meets some fifty
        # boxes away in x, far beyond the 27 nearest images, so it is found
        # only through the horizon re-checks
        q = np.array([[0.47, 0.25, 0.5], [0.1, 0.75, 0.5]])
        p = np.array([[2.5, 0.015, 0.0], [-2.5, -0.015, 0.0]])
        sigma, box = 0.2, 1.0
        s = SystemState(q, p, sigma=sigma, eps=Inelasticity(0.0), box=box)
        log = TrajectoryLog()
        evolve(s, 12.0, log=log)
        # direct scan of images: dq(t) = dq + m*box + dv*t touches sigma
        dq, dv = q[0] - q[1], p[0] - p[1]
        a, scan = dv @ dv, []
        for m in itertools.product(range(-70, 5), (-1, 0, 1), (-1, 0, 1)):
            dqm = dq + box * np.array(m)
            b, c = dqm @ dv, dqm @ dqm - sigma**2
            if b < 0 and b * b - a * c >= 0:
                scan.append((-b - np.sqrt(b * b - a * c)) / a)
        assert 10.0 < min(scan) < 12.0
        assert log.n_events > 0
        assert log.t[0] == pytest.approx(min(scan), rel=1e-12)


class TestAdvance:
    def test_free_motion(self):
        s = SystemState(np.array([[0.0]]), np.array([[1.0]]), sigma=0.1,
                        eps=Inelasticity(0.0))
        out = advance(s, 2.0)
        assert out.q[0, 0] == pytest.approx(2.0)
        assert out.p[0, 0] == pytest.approx(1.0)

    def test_two_rod_elastic_event(self):
        log = TrajectoryLog()
        out = evolve(two_rods(eps=0.0), 1.0, log=log)
        assert log.n_events == 1
        assert log.t[0] == pytest.approx(0.9)
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

    @pytest.mark.parametrize("box", [None, 1.0], ids=["line", "ring"])
    def test_allpairs_oracle_keeps_small_sigma(self, box):
        # sigma far below the rounding of |dq|^2 must survive the prediction
        for sigma in (1e-3, 1e-6, 1e-9, 1e-12):
            rng = np.random.default_rng(5)
            s = sample_chaotic_state(12, UniformMaxwellian(length=1.0), sigma,
                                     Inelasticity(0.2), box=box, rng=rng)
            a = Simulation(s, engine="adjacent")
            b = Simulation(s, engine="allpairs")
            a.run(dt=1.0)
            b.run(dt=1.0)
            assert a.n_events == b.n_events > 10
            np.testing.assert_allclose(a.state().q, b.state().q, atol=1e-9)
            np.testing.assert_allclose(a.state().p, b.state().p, atol=1e-9)

    def test_ring_positions_beyond_one_box(self):
        # minimum images make this state allowed: the rod at 1.9 sits at 0.9
        # on the ring and never reaches the rod at 0 within dt=0.5
        q = np.array([[0.0], [0.5], [1.9]])
        p = np.array([[0.0], [0.0], [0.1]])
        s = SystemState(q, p, 0.01, Inelasticity(0.0), box=1.0)
        assert s.is_allowed()
        for engine in ("adjacent", "allpairs"):
            sim = Simulation(s, engine=engine)
            sim.run(dt=0.5)
            assert sim.n_events == 0
            np.testing.assert_allclose(sim.state().q[:, 0], [0.0, 0.5, 0.95])
            np.testing.assert_array_equal(sim.state().p, p)

    def test_ring_positions_wrap_before_ordering(self):
        # shifting rods by whole boxes changes no contact: the run matches
        # the all-pairs oracle, and bitwise the run of the wrapped state
        rng = np.random.default_rng(8)
        s = random_state_1d(rng, 12, box=1.0, sigma=0.01, eps=0.2)
        q = s.q + rng.integers(-2, 3, size=s.q.shape)
        shifted = SystemState(q, s.p, s.sigma, s.eps, box=1.0)
        wrapped = SystemState(np.mod(q, 1.0), s.p, s.sigma, s.eps, box=1.0)
        log_a, log_b, log_c = TrajectoryLog(), TrajectoryLog(), TrajectoryLog()
        a = evolve(shifted, 0.5, log=log_a, engine="adjacent")
        b = evolve(wrapped, 0.5, log=log_b, engine="adjacent")
        c = evolve(shifted, 0.5, log=log_c, engine="allpairs")
        assert log_a.n_events == log_c.n_events > 5
        assert (log_a.i, log_a.j) == (log_b.i, log_b.j)
        assert digest(a.q, a.p) == digest(b.q, b.p)
        np.testing.assert_allclose(a.q, c.q, atol=1e-9)
        np.testing.assert_allclose(a.p, c.p, atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_periodic_3d_spheres_never_overlap(self, seed):
        rng = np.random.default_rng(seed)
        s = sample_chaotic_state(12, UniformMaxwellian(d=3, length=1.2), 0.2,
                                 Inelasticity(0.1), box=1.2, rng=rng)
        sim = Simulation(s, tc_threshold=1e-6)
        scale = np.abs(s.p).sum()
        for _ in range(1000):
            sim.run(dt=0.005)
            out = sim.state()
            assert out.min_separation() >= s.sigma * (1 - 1e-9)
            drift = np.abs(out.total_momentum() - s.total_momentum()).max()
            assert drift <= 1e-12 * scale
        assert sim.n_events > 20

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
        out = evolve(s, 1.0, log=log)
        assert log.n_events == 1
        assert log.t[0] == pytest.approx(1.0 - sigma)
        np.testing.assert_allclose(out.p[0], [0.25, 0, 0], atol=1e-12)
        np.testing.assert_allclose(out.p[1], [0.75, 0, 0], atol=1e-12)

    def test_event_storm_guard(self):
        # restitution 0.5 at this density collapses: the guard must fire
        rng = np.random.default_rng(22)
        s = random_state_1d(rng, 50, box=1.0, sigma=0.004, eps=0.25)
        with pytest.raises(EventStormError):
            evolve(s, 1.0, storm_limit=2000)

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    def test_event_storm_guard_on_right_particle(self, engine):
        # the middle rod collides with the right one at t=0.2, then the left
        # rod hits it at t=0.6: the middle rod, the right-hand one of the
        # second pair, has the second event.  Its label is 1 when the rods
        # are given in position order and 2 when they are not: the message
        # names the particle, not its slot in the sorted order
        for q, p, label in (([0.5, 1.0, 1.3], [1.0, 1.0, 0.0], 1),
                            ([1.3, 0.5, 1.0], [0.0, 1.0, 1.0], 2)):
            state = SystemState(np.array(q)[:, None], np.array(p)[:, None],
                                0.1, Inelasticity(0.0))
            sim = Simulation(state, engine=engine, storm_limit=1)
            with pytest.raises(EventStormError, match=f"particle {label}:"):
                sim.run(dt=1.0)
            assert sim.n_events == 1  # the refused event does not count

    def test_ring_of_two_predicts_its_pair_once(self):
        # on a ring of two the pair left of i is the pair right of j: the
        # loop pushes it once, so no duplicate entry is popped stale
        s = SystemState(np.array([[0.1], [0.6]]), np.array([[1.0], [-1.0]]),
                        0.05, Inelasticity(0.0), box=1.0)
        sim = Simulation(s)
        assert sim.run(dt=3.0) == 7
        assert sim.n_stale_pops == 0
        assert Simulation(s, engine="allpairs").run(dt=3.0) == 7

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    def test_refusal_applies_nothing(self, engine):
        # a collapsing ring: the refused collision is neither applied,
        # counted nor logged, the clock stops at the last event applied, and
        # the refused contact stays pending, so a second run refuses it again
        # and leaves the state bitwise as the first left it
        s = random_state_1d(np.random.default_rng(31), 100, box=1.0,
                            sigma=0.002, eps=0.25)
        log = TrajectoryLog()
        sim = Simulation(s, log=log, engine=engine, storm_limit=50)
        with pytest.raises(EventStormError, match="particle 52:") as first:
            sim.run(dt=1.0)
        out = sim.state()
        assert sim.n_events == log.n_events == 329
        assert sim.t == log.t[-1] - s.time
        assert out.is_allowed(tol=_OVERLAP_SLACK)
        counters = (sim.n_events, sim.n_stale_pops, sim.n_tc_elastic, sim.t)
        with pytest.raises(EventStormError) as second:
            sim.run(dt=1.0)
        assert str(second.value) == str(first.value)
        assert (sim.n_events, sim.n_stale_pops, sim.n_tc_elastic,
                sim.t) == counters
        again = sim.state()
        assert again.q.tobytes() == out.q.tobytes()
        assert again.p.tobytes() == out.p.tobytes()

    @pytest.mark.parametrize("engine, collision", [
        ("adjacent", "collide_rods"), ("allpairs", "_collision")])
    def test_interrupted_run_resumes(self, engine, collision, monkeypatch):
        # an exception out of the 50th collision-map call ends the run
        # before that event is applied; its contact stays pending, so the
        # resumed run reaches event 60 bitwise as an uninterrupted one does
        s = random_state_1d(np.random.default_rng(1), 20, box=1.0,
                            sigma=0.01, eps=0.25)
        ref = Simulation(s, engine=engine, tc_threshold=1e-9)
        assert ref.run(max_events=60) == 60

        class Interrupt(Exception):
            pass

        real, calls = getattr(core, collision), []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 50:
                raise Interrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(core, collision, failing)
        sim = Simulation(s, engine=engine, tc_threshold=1e-9)
        with pytest.raises(Interrupt):
            sim.run(dt=0.5)
        assert sim.n_events == 49
        monkeypatch.undo()
        assert sim.run(max_events=11) == 11
        out, want = sim.state(), ref.state()
        assert sim.n_events == ref.n_events
        assert out.q.tobytes() == want.q.tobytes()
        assert out.p.tobytes() == want.p.tobytes()
        assert out.is_allowed(tol=_OVERLAP_SLACK)

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    @pytest.mark.parametrize("limit, outcome", [
        (0, (0, 88)), (0.5, (0, 88)), (1, (17, 92)), (50, (329, 52)),
        (50.5, (329, 52)), (-1, (0, 88)), (-np.inf, (0, 88)),
        (np.inf, None), (np.nan, "refused")],
        ids=["0", "0.5", "1", "50", "50.5", "-1", "-inf", "inf", "nan"])
    def test_storm_limit_refusal_event(self, engine, limit, outcome):
        # the collapsing ring of test_refusal_applies_nothing: the number of
        # events applied before each storm_limit refuses, and the particle
        # named; an infinite limit never refuses, and the budget of 400
        # events ends the run; a NaN limit is refused at construction
        s = random_state_1d(np.random.default_rng(31), 100, box=1.0,
                            sigma=0.002, eps=0.25)
        if outcome == "refused":
            with pytest.raises(ValueError, match="must not be NaN"):
                Simulation(s, engine=engine, storm_limit=limit)
            return
        sim = Simulation(s, engine=engine, storm_limit=limit)
        if outcome is None:
            assert sim.run(dt=1.0, max_events=400) == 400
            return
        events, particle = outcome
        with pytest.raises(EventStormError, match=f"^particle {particle}: "):
            sim.run(dt=1.0, max_events=400)
        assert sim.n_events == events

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    def test_overlap_boundary(self, engine):
        # a line, and a ring of two whose smallest gap is the wrap gap, are
        # accepted at a smallest gap of exactly sigma (1 - slack) and refused
        # one ulp below; the positions make each gap's subtraction exact
        sigma = 0.3
        bound = sigma * (1.0 - _OVERLAP_SLACK)
        assert bound.hex() == "0x1.3333332e0bc94p-2"
        for gap, allowed in ((bound, True),
                             (float(np.nextafter(bound, 0.0)), False)):
            line = SystemState(np.array([[1.0], [0.0], [gap]]),
                               np.zeros((3, 1)), sigma, Inelasticity(0.0))
            ring = SystemState(np.array([[0.75 - gap], [0.0]]),
                               np.zeros((2, 1)), sigma, Inelasticity(0.0),
                               box=0.75)
            for s in (line, ring):
                assert s.min_separation().hex() == gap.hex()
                if allowed:
                    Simulation(s, engine=engine)
                else:
                    with pytest.raises(ValueError, match="overlapping"):
                        Simulation(s, engine=engine)

    def test_refuses_overlap_and_negative_dt(self):
        q, p = np.array([[0.0], [0.05]]), np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="overlapping"):
            Simulation(SystemState(q, p, 0.1, Inelasticity(0.0)))
        with pytest.raises(ValueError, match="nonnegative"):
            Simulation(two_rods()).run(dt=-1.0)

    def test_tc_regularization_avoids_storm(self):
        rng = np.random.default_rng(22)
        s = random_state_1d(rng, 50, box=1.0, sigma=0.004, eps=0.25)
        out = evolve(s, 1.0, storm_limit=2000, tc_threshold=1e-6)
        assert np.all(np.isfinite(out.p))
        assert out.min_separation() >= s.sigma * (1 - 1e-9)

    def test_periodic_run_needs_dt(self):
        # a pair moving along a lattice axis, offset by more than sigma,
        # never meets: its horizon re-checks would keep a budget-only run
        # going forever
        q = np.array([[0.1, 0.1, 0.1], [0.1, 0.6, 0.6]])
        p = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        sim = Simulation(SystemState(q, p, 0.2, Inelasticity(0.0), 1.0))
        with pytest.raises(ValueError, match="needs dt"):
            sim.run(max_events=1)
        assert sim.run(dt=100.0) == 0 and sim.t == 100.0

    def test_event_budget_stops_clock_at_last_event(self):
        # contacts before t+dt are still pending when the budget runs out,
        # so the clock may not move past the last event processed; both
        # engines, with fewer rods for the O(N)-per-event one
        for engine, n in (("adjacent", 200), ("allpairs", 20)):
            rng = np.random.default_rng(0)
            s = random_state_1d(rng, n, box=20.0, sigma=0.01, eps=0.25)
            log = TrajectoryLog()
            sim = Simulation(s, log=log, engine=engine, tc_threshold=1e-9)
            assert sim.run(dt=5.0, max_events=10) == 10
            assert sim.t == log.t[-1]
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

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    def test_storm_hint_fits_rule(self, engine):
        # only the forward flow has a TC rule to suggest
        fwd = two_rods(eps=0.25)
        back = SystemState(fwd.q, -fwd.p, fwd.sigma, fwd.eps)
        for s, rule in ((fwd, "forward"), (back, "inverse")):
            sim = Simulation(s, rule=rule, engine=engine, storm_limit=0)
            with pytest.raises(EventStormError, match="collapse") as err:
                sim.run(dt=1.0)
            assert ("tc_threshold" in str(err.value)) == (rule == "forward")


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

    def test_leaves_inputs_unchanged(self):
        # duality_residual passes the same blocks to every call, as
        # transposed views of per-particle rows
        rng = np.random.default_rng(32)
        q = _gap_positions(500, 3, 1.0, 0.02, rng).T.copy()
        p = rng.normal(size=q.shape)
        q0, p0 = q.copy(), p.copy()
        evolve_rods_ensemble(q.T, p.T, 2.0, 0.02, Inelasticity(0.25))
        assert np.array_equal(q, q0) and np.array_equal(p, p0)

    def test_no_rows(self):
        q = np.empty((0, 3))
        qf, pf, ncol = evolve_rods_ensemble(q, q, 1.0, 0.1, Inelasticity(0.25))
        assert qf.shape == pf.shape == (0, 3) and ncol.shape == (0,)

    def test_no_pair_approaches(self):
        # ascending momenta: every gap opens, so the block flies freely
        rng = np.random.default_rng(33)
        q = _gap_positions(1000, 3, 1.0, 0.02, rng)
        p = np.sort(rng.normal(size=q.shape), axis=1)
        qf, pf, ncol = evolve_rods_ensemble(q, p, 2.0, 0.02, Inelasticity(0.25))
        assert np.array_equal(qf, q + p * 2.0) and np.array_equal(pf, p)
        assert not ncol.any()

    def test_rows_end_as_they_end_alone(self):
        # rows that stop colliding in different rounds are written back to
        # their own rows, bitwise as when each row is evolved on its own
        rng = np.random.default_rng(34)
        q = _gap_positions(200, 5, 1.0, 0.02, rng)
        p = rng.normal(size=q.shape)
        qf, pf, ncol = evolve_rods_ensemble(q, p, 2.0, 0.02, Inelasticity(0.25))
        assert len(set(ncol.tolist())) >= 5
        for r in range(q.shape[0]):
            qr, pr, nr = evolve_rods_ensemble(q[r:r + 1], p[r:r + 1], 2.0,
                                              0.02, Inelasticity(0.25))
            assert np.array_equal(qr[0], qf[r]) and np.array_equal(pr[0], pf[r])
            assert nr[0] == ncol[r]


class TestSlowRods:
    """Every approaching pair is predicted, however slowly it approaches:
    the flow has no preferred units, so no relative speed is too small to
    collide."""

    # rods at 0 and 1 (sigma 0.1) touch at t = 0.9e15; by t = 2e15 the
    # struck rod has moved on by 1.1
    Q, P = np.array([[0.0, 1.0]]), np.array([[1e-15, 0.0]])

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    def test_slow_pair_collides(self, engine):
        log = TrajectoryLog()
        out = evolve(SystemState(self.Q.T, self.P.T, 0.1, Inelasticity(0.0)),
                     2e15, log=log, engine=engine)
        assert log.n_events == 1
        assert out.q[1, 0] - out.q[0, 0] == pytest.approx(1.2)

    def test_slow_pair_collides_in_ensemble(self):
        qf, _, ncol = evolve_rods_ensemble(self.Q, self.P, 2e15, 0.1,
                                           Inelasticity(0.0))
        assert ncol.tolist() == [1]
        assert qf[0, 1] - qf[0, 0] == pytest.approx(1.2)

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs", "ensemble"])
    def test_subnormal_speed_is_no_hit(self, engine):
        # the contact time overflows to inf, which is no hit, and no
        # overflow warning is raised
        p = np.array([[5e-324, 0.0]])
        if engine == "ensemble":
            qf, pf, ncol = evolve_rods_ensemble(self.Q, p, 1.0, 0.1,
                                                Inelasticity(0.0))
            assert not ncol.any() and np.array_equal(pf, p)
        else:
            log = TrajectoryLog()
            out = evolve(SystemState(self.Q.T, p.T, 0.1, Inelasticity(0.0)),
                         1.0, log=log, engine=engine)
            assert log.n_events == 0 and np.array_equal(out.p, p.T)

    def test_cold_ring_collides(self):
        # at temperature 1e-30 the relative speeds are about 1e-15
        rng = np.random.default_rng(0)
        s = random_state_1d(rng, 1000, box=10.0, sigma=0.001, eps=0.0,
                            temp=1e-30)
        sim = Simulation(s)
        sim.run(dt=1e15)
        assert sim.n_events == 62_812
        assert sim.state().is_allowed()

    def test_scaled_ring_runs_as_the_original(self):
        # p -> p / 2^50 with t and tc_threshold -> t * 2^50 scales every
        # float operation of the engine exactly
        rng = np.random.default_rng(0)
        s = random_state_1d(rng, 1000, box=10.0, sigma=0.001, eps=0.25)
        runs = []
        for scale in (1.0, 2.0 ** -50):
            sim = Simulation(SystemState(s.q, s.p * scale, 0.001, s.eps, 10.0),
                             tc_threshold=1e-9 / scale)
            sim.run(dt=0.25 / scale)
            out = sim.state()
            runs.append((sim.n_events, sim.n_tc_elastic, out.q.tobytes(),
                         (out.p / scale).tobytes()))
        assert runs[0] == runs[1]
        assert runs[0][:2] == (99_973, 15_565)


class TestTonksIdentity:
    """Contracting every gap of a 1D rod system: rods of diameter s1 at x_k
    (sorted) on a ring of length L and rods of diameter s2 at
    y_k = x_k - k(s1 - s2) on a ring of length L - N(s1 - s2) have equal
    gaps.  The contact times agree to rounding, so both runs apply the same
    collisions in the same order (the TC rule included) and the momenta
    stay bitwise equal."""

    @pytest.mark.parametrize("periodic, rule, eps, tc", [
        (True, "forward", 0.25, 0.01),
        (False, "forward", 0.25, 0.01),
        (True, "inverse", 0.02, None),
        (False, "inverse", 0.02, None),
    ])
    def test_contracted_gaps(self, periodic, rule, eps, tc):
        n, length, s1, s2, t = 1000, 1000.0, 0.04, 0.01, 2.0
        rng = np.random.default_rng(35)
        x = _gap_positions(1, n, length, s1, rng)[0]
        p = rng.normal(size=(n, 1))
        y = x - (s1 - s2) * np.arange(n)
        short = length - n * (s1 - s2)
        runs = []
        for q, sigma, box in ((x, s1, length), (y, s2, short)):
            s = SystemState(q[:, None], p, sigma, Inelasticity(eps),
                            box if periodic else None)
            log = TrajectoryLog()
            sim = Simulation(s, log=log, rule=rule, tc_threshold=tc)
            sim.run(dt=t)
            out = sim.state().q[:, 0] - q
            if periodic:
                out = np.mod(out + box / 2, box) - box / 2
            runs.append((sim.state().p, log, out, sim.n_tc_elastic))
        (p1, log1, dx1, tc1), (p2, log2, dx2, tc2) = runs
        assert log1.n_events > 100 and tc1 == tc2
        assert (tc1 > 0) == (tc is not None)
        assert np.array_equal(p1, p2)
        assert list(log1.i) == list(log2.i) and list(log1.j) == list(log2.j)
        np.testing.assert_allclose(log1.t, log2.t, rtol=0, atol=1e-9)
        np.testing.assert_allclose(dx1, dx2, rtol=0, atol=1e-9)


class TestElasticLineOracle:
    def test_engine_at_study_scale(self):
        # 10**4 elastic rods on a line: the engine's momenta are exactly the
        # re-sorted free flight's, with one event per crossing
        n, length, sigma, t = 10_000, 1.0e4, 0.02, 1.0
        rng = np.random.default_rng(36)
        q = _gap_positions(1, n, length, sigma, rng)
        p = rng.normal(size=q.shape)
        sim = Simulation(SystemState(q.T, p.T, sigma, Inelasticity(0.0)))
        sim.run(dt=t)
        q_t, p_t, crossings = elastic_line(q, p, t, sigma)
        out = sim.state()
        assert out.p[:, 0].tobytes() == p_t[0].tobytes()
        assert sim.n_events == crossings[0] > 1000
        np.testing.assert_allclose(out.q[:, 0], q_t[0], rtol=0, atol=1e-9)

    def test_inverse_at_study_scale(self):
        # the inverse flow at eps=0 is the forward flow of -p: the momenta
        # are the time-reversed free flight's negated back, bitwise
        n, length, sigma, t = 10_000, 1.0e4, 0.02, 1.0
        rng = np.random.default_rng(37)
        q = _gap_positions(1, n, length, sigma, rng)
        p = rng.normal(size=q.shape)
        log = TrajectoryLog()
        out = evolve(SystemState(q.T, p.T, sigma, Inelasticity(0.0)), t,
                     log=log, rule="inverse")
        q_t, p_t, crossings = elastic_line(q, -p, t, sigma)
        assert out.p[:, 0].tobytes() == (-p_t[0]).tobytes()
        assert log.n_events == crossings[0] > 1000
        np.testing.assert_allclose(out.q[:, 0], q_t[0], rtol=0, atol=1e-9)

    def test_inverse_keeps_momentum_multiset(self):
        # 2000 elastic rods: each contact exchanges, so no momentum changes
        # value in either direction (a kick p1 - (p1 - p2) rounds)
        rng = np.random.default_rng(3)
        q = _gap_positions(1, 2000, 2000.0, 0.02, rng)
        p = rng.normal(size=q.shape)
        s = SystemState(q.T, p.T, 0.02, Inelasticity(0.0))
        for rule in ("forward", "inverse"):
            log = TrajectoryLog()
            out = evolve(s, 1.0, log=log, rule=rule)
            assert log.n_events > 100
            assert np.sort(out.p[:, 0]).tobytes() == np.sort(p[0]).tobytes()


class TestElasticRingOracle:
    @pytest.mark.parametrize("n, length, sigma, t, drift", [
        (10_000, 1.0e4, 0.02, 1.0, 0.0),
        # the points wind 3 net laps here, which shift the ranks: re-expanding
        # from the origin instead of the tag puts the rods 3 sigma off
        (10_000, 1.0e4, 0.04, 4.0, 0.0),
        # a drifting gas: every rod winds about 2.5 times
        (100, 10.0, 0.02, 4.0, 5.0),
    ])
    def test_engine_on_a_ring(self, n, length, sigma, t, drift):
        # the engine's momenta are exactly the re-sorted free flight's, with
        # one event per crossing of two free trajectories, per winding
        rng = np.random.default_rng(38)
        q = np.sort(_gap_positions(1, n, length, sigma, rng, periodic=True),
                    axis=1)
        p = rng.normal(size=q.shape) + drift
        sim = Simulation(SystemState(q.T, p.T, sigma, Inelasticity(0.0),
                                     box=length))
        sim.run(dt=t)
        q_t, p_t, crossings = elastic_ring(q, p, t, sigma, length)
        out = sim.state()
        assert out.p[:, 0].tobytes() == p_t[0].tobytes()
        assert sim.n_events == crossings[0] > 1000
        dq = np.mod(out.q[:, 0] - q_t[0] + length / 2, length) - length / 2
        np.testing.assert_allclose(dq, 0.0, rtol=0, atol=1e-9)


EVOLVER_DIGESTS = [
    (2, 0.0, 0.5,
     "a649647b194881e28c4ae3477217ed24a83ae5fd976873c14a1e29f9e4cd715a"),
    (2, 0.0, 2.0,
     "272d6c624cce5e68ae63ccb65967818118ac3f0997ead76a7074ae576a3fc97f"),
    (2, 0.1, 0.5,
     "172d60fc2eaec4806fe708f0abb1cb21bf4ee10002fd52a478e8224366779815"),
    (2, 0.1, 2.0,
     "c958d7f4b44ef8cb07643320eafffd166574ae687bed26d8cae37450d7dff59c"),
    (2, 0.25, 0.5,
     "13f53c5ac34699ad068243fb9154334646829cedf11017bc7ac89e1e4354749e"),
    (2, 0.25, 2.0,
     "4f0346cb3e07d14148a4563f2e767701402f3ae198b15a99135c1a741f230ace"),
    (3, 0.0, 0.5,
     "d196aad53f5fee94863ad58a7a42961b1f8d7f2f17ddafc1d37cd7b217d36fd9"),
    (3, 0.0, 2.0,
     "a823c5547e790d5a6a62dfcecdb2bf1c7613422ac6c2683c76ea29815f950ca8"),
    (3, 0.1, 0.5,
     "5ecfe4c114bfe32a6a15827dca6ad524712b7962a42acdd6020652cf3a3c1f1c"),
    (3, 0.1, 2.0,
     "9d156b19ff44ef6fa3e3ba2e26250fca7996029417527a64d6b5862d9ace256d"),
    (3, 0.25, 0.5,
     "8103fa38c329bb9e81f3e5a79c02373dc0e2e8477d8ad7463e4ed5713e0d5c5d"),
    (3, 0.25, 2.0,
     "5f2dc432889e123357a23473bb48d20d38905f5ed658b6821d2f1cb27a5894f4"),
    (5, 0.0, 0.5,
     "cfd4f01e8143f43ca37e5bcda3601d7903150c7ac34e00bd994a7570c331216f"),
    (5, 0.0, 2.0,
     "f44ffe53183a6b7d430425c0f22d93d2b421855de985d7d2d0107babbf99f823"),
    (5, 0.1, 0.5,
     "e0eabebae03c3f3888d828df0d9ecedf5974f6fba8d4868e1d550bd34f051072"),
    (5, 0.1, 2.0,
     "f446f48d6d9443aa5294a277fe789e79452b5ebc73e58895dad29d4062eb22e9"),
    (5, 0.25, 0.5,
     "7cc9078545fb54fda1667756216b76298ac99ba5485f7ac95ddc995410274e7f"),
    (5, 0.25, 2.0,
     "4b986ccc238b7a57a4c4d3ad91f7cc000721024bcf8321c2297018561dd93bd8"),
]


class TestEvolveRodsEnsembleGolden:
    """Bitwise pins of ``evolve_rods_ensemble``: sha256 of (q, p, ncol) on
    10**4 rows drawn by gap insertion, recorded from the row-major form that
    gathered the active rows of every round.  At n=3 and eps>0 a row takes
    up to five rounds, at n=5 up to seventeen.  The eps=0 pins were
    re-recorded when the evolver took the exchange of ``collide_rods``;
    :meth:`test_elastic_is_free_flight_resorted` checks those runs against
    the exact oracle."""

    @staticmethod
    def inputs(n):
        rng = np.random.default_rng(60 + n)
        q = _gap_positions(10_000, n, 1.0, 0.02, rng)
        return q, rng.normal(size=q.shape)

    @pytest.mark.parametrize("n, eps, t, pin", EVOLVER_DIGESTS,
                             ids=[f"n{n}-eps{e}-t{t}"
                                  for n, e, t, _ in EVOLVER_DIGESTS])
    def test_digests(self, n, eps, t, pin):
        q, p = self.inputs(n)
        out = evolve_rods_ensemble(q, p, t, 0.02, Inelasticity(eps))
        assert digest(*out) == pin

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_elastic_is_free_flight_resorted(self, n):
        # at eps=0 every row is the free flight of its contracted gas,
        # re-sorted: momenta exact, one collision per crossing
        q, p = self.inputs(n)
        for t in (0.5, 2.0):
            qf, pf, ncol = evolve_rods_ensemble(q, p, t, 0.02,
                                                Inelasticity(0.0))
            q_t, p_t, crossings = elastic_line(q, p, t, 0.02)
            assert pf.tobytes() == p_t.tobytes()
            np.testing.assert_array_equal(ncol, crossings)
            np.testing.assert_allclose(qf, q_t, rtol=0, atol=1e-12)

    def test_non_contiguous_view(self):
        # every second row and every second rod of six
        q, p = self.inputs(6)
        out = evolve_rods_ensemble(q[::2, ::2], p[::2, ::2], 2.0, 0.02,
                                   Inelasticity(0.25))
        assert digest(*out) == (
            "301bdd3cd2d668cc732073bff7df1e53cec548d4a900cd4449b4cb5508ce9748")

    def test_tie_takes_first_gap(self):
        # both gaps close at t=0.9; the left pair collides first, then the
        # right, then the left again (every momentum is a binary fraction,
        # so the values are exact; the mirror order ends mirrored)
        q = np.array([[0.0, 1.0, 2.0]])
        p = np.array([[1.0, 0.0, -1.0]])
        _, pf, ncol = evolve_rods_ensemble(q, p, 1.0, 0.1, Inelasticity(0.25))
        assert pf[0].tolist() == [-0.359375, 0.046875, 0.3125]
        assert ncol[0] == 3

    def test_round_guard(self):
        # a strongly inelastic row of six whose collisions never run out
        q = 0.1 * np.arange(6.0)
        p = np.linspace(1.0, -1.0, 6)
        p[3] += 0.3
        with pytest.raises(EventStormError, match="1600 rounds"):
            evolve_rods_ensemble(q[None], p[None], 5.0, 0.01,
                                 Inelasticity(0.45))


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(29)
        s = random_state_1d(rng, 64, box=1.0, sigma=0.003, eps=0.25)
        log1, log2 = TrajectoryLog(), TrajectoryLog()
        a = evolve(s, 1.0, log=log1, tc_threshold=1e-9)
        b = evolve(s, 1.0, log=log2, tc_threshold=1e-9)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)
        assert log1.t == log2.t


class TestTrajectoryLog:
    def test_columns_agree(self):
        rng = np.random.default_rng(30)
        s = random_state_1d(rng, 20, box=1.0, sigma=0.01, eps=0.25)
        log = TrajectoryLog()
        evolve(s, 1.0, log=log, tc_threshold=1e-9)
        n = log.n_events
        assert n > 3 and len(log.events) == n
        assert all(len(c) == n for c in
                   (log.t, log.i, log.j, log.eta, log.g_n, log.dE))
        assert list(log.t) == sorted(log.t)
        assert log.total_dissipation() == sum(log.dE)
        with pytest.raises(ValueError):
            log.eta[0][0] = 2.0  # the shared 1D normal is read-only


def _log_columns(log):
    return (np.array(log.t, dtype=float),
            np.array(log.i, dtype=np.int64),
            np.array(log.j, dtype=np.int64),
            np.array(log.eta, dtype=float),
            np.array(log.g_n, dtype=float),
            np.array(log.dE, dtype=float))


def _tc_elastic_rows(log, tc):
    """Per logged collision, whether a participant had collided less than tc
    earlier: the ones the TC rule makes elastic."""
    last = {}
    rows = []
    for t, i, j in zip(log.t, log.i, log.j):
        rows.append(t - last.get(i, -np.inf) < tc
                    or t - last.get(j, -np.inf) < tc)
        last[i] = last[j] = t
    return rows


def test_elastic_collisions_log_zero_energy_change():
    rng = np.random.default_rng(30)
    log = TrajectoryLog()
    evolve(random_state_1d(rng, 20, box=1.0, sigma=0.01, eps=0.0), 1.0,
           log=log)
    assert log.n_events > 100
    nonzero = [np.count_nonzero(log.dE)]
    rng = np.random.default_rng(30)
    log = TrajectoryLog()
    evolve(random_state_1d(rng, 20, box=1.0, sigma=0.01, eps=0.25), 1.0,
           log=log, tc_threshold=1e-9)
    elastic = np.array(_tc_elastic_rows(log, 1e-9))
    assert elastic.sum() > 100
    nonzero.append(np.count_nonzero(np.array(log.dE)[elastic]))
    assert nonzero == [0, 0]


class TestGoldenTrajectories:
    """Bitwise pins of 1D trajectories.  The digests were recorded from the
    numpy-array form of the adjacency engine; a change that keeps every
    float operation and its order must reproduce them exactly.  The log
    digests were re-recorded when elastic collisions began to log dE = 0.0
    and the clock began to count from 0 (the round trip's inverse run
    starts at 1.0): same events, q within 2.3e-16, p bitwise."""

    def test_collapse_prone_ring(self):
        rng = np.random.default_rng(31)
        s = random_state_1d(rng, 100, box=1.0, sigma=0.002, eps=0.25)
        log = TrajectoryLog()
        sim = Simulation(s, log=log, tc_threshold=1e-9)
        assert sim.run(max_events=20_000) == 20_000
        out = sim.state()
        assert digest(out.q) == (
            "36b43590368fff242ce3486c570a20976ba0ef31c90a0492c91589eda32e1ef8")
        assert digest(out.p) == (
            "69e58863c859c54f7ad91fc270cbdf0f39d5ed8cb3c9401b14cb9075fa22ab37")
        assert digest(*_log_columns(log)) == (
            "5df34f6e05a96bb95839fb6cb4d1f0247ab3d83e08e3dbed9c2a254d3e2b8641")
        assert log.total_dissipation() == float.fromhex("-0x1.848ada5edebd3p+5")

    def test_collapse_prone_ring_counts(self):
        rng = np.random.default_rng(31)
        s = random_state_1d(rng, 100, box=1.0, sigma=0.002, eps=0.25)
        log = TrajectoryLog()
        sim = Simulation(s, log=log, tc_threshold=1e-9)
        sim.run(max_events=20_000)
        assert sim.n_events == len(log.t) == 20_000
        assert (sim.n_stale_pops, sim.n_tc_elastic) == (8853, 3385)
        assert sim.n_tc_elastic == sum(_tc_elastic_rows(log, 1e-9))

    @pytest.mark.parametrize("eps, pin", [
        (0.0, "4479cc321b6a31006b65c92527ed452ea80964c0546282182c7439a73e6775e0"),
        (0.1, "1bbbeedd7ccc2786e33af1645d62a435a0811744302414ba977bdcd853c01f08"),
    ], ids=["eps0.0", "eps0.1"])
    def test_round_trip_unbounded_rods(self, eps, pin):
        rng = np.random.default_rng(32)
        sigma, n = 0.1, 7
        q = np.sort(rng.uniform(0.0, 2.0 - n * sigma, size=n)) + sigma * np.arange(n)
        p = rng.normal(size=n)
        s = SystemState(q[:, None], p[:, None], sigma, Inelasticity(eps))
        fwd_log, back_log = TrajectoryLog(), TrajectoryLog()
        fwd = evolve(s, 1.0, log=fwd_log)
        back = evolve(fwd, 1.0, log=back_log, rule="inverse")
        assert fwd_log.n_events == back_log.n_events == 4
        if eps == 0.0:  # elastic contacts exchange momenta both ways
            assert back.p.tobytes() == s.p.tobytes()
        assert digest(fwd.q, fwd.p, back.q, back.p, *_log_columns(fwd_log),
                      *_log_columns(back_log)) == pin


# (n, box, eps, rule, tc_threshold, first 16 hex digits of the sha256 of the
# log columns, final q and p, clock and event count), recorded from the
# engine that called a prediction method per pair; the eps = 0 inverse pins
# were re-recorded when the inverse flow took the exact elastic exchange
# (same events and clock, q within 3.1e-15 and p within 4.4e-16), and all
# of them when the clock began to count the run's time from 0 (these runs
# start at 0.3) and elastic collisions began to log dE = 0.0: the same
# events, logged times within 1.1e-14, q within 4.7e-15 and p bitwise,
# except n9-boxNone-eps0.25-inverse, whose contacts the clock cannot place
# (momenta of 1e56, ROADMAP item 18): its sequence parts after event 803.
# Inverse rings at eps > 0 are left out: each contact multiplies the
# relative speed by 1/(1-2*eps) until the momenta overflow (see
# TestInverseOverflow).
TRAJECTORY_DIGESTS = [
    (2, None, 0.0, "forward", None, "43ed8476fd8f74f2"),
    (2, None, 0.0, "forward", 1e-09, "43ed8476fd8f74f2"),
    (2, None, 0.0, "inverse", None, "ce6c1ab4fa2724ee"),
    (2, None, 0.1, "forward", None, "43ed8476fd8f74f2"),
    (2, None, 0.1, "forward", 1e-09, "43ed8476fd8f74f2"),
    (2, None, 0.1, "inverse", None, "203b53d99a11b18b"),
    (2, None, 0.25, "forward", None, "43ed8476fd8f74f2"),
    (2, None, 0.25, "forward", 1e-09, "43ed8476fd8f74f2"),
    (2, None, 0.25, "inverse", None, "2351472b74fa7ab8"),
    (2, 1.0, 0.0, "forward", None, "6ccb93077e01eb30"),
    (2, 1.0, 0.0, "forward", 1e-09, "6ccb93077e01eb30"),
    (2, 1.0, 0.0, "inverse", None, "5c90631e72417d55"),
    (2, 1.0, 0.1, "forward", None, "2c7230a8e82a5dc9"),
    (2, 1.0, 0.1, "forward", 1e-09, "2c7230a8e82a5dc9"),
    (2, 1.0, 0.25, "forward", None, "d85d33d6f70230a0"),
    (2, 1.0, 0.25, "forward", 1e-09, "d85d33d6f70230a0"),
    (3, None, 0.0, "forward", None, "52e4941da778b960"),
    (3, None, 0.0, "forward", 1e-09, "52e4941da778b960"),
    (3, None, 0.0, "inverse", None, "ca2b91ef35885769"),
    (3, None, 0.1, "forward", None, "7154e5df877edfc0"),
    (3, None, 0.1, "forward", 1e-09, "7154e5df877edfc0"),
    (3, None, 0.1, "inverse", None, "e5007dd528dd33a1"),
    (3, None, 0.25, "forward", None, "a687198e407ea38b"),
    (3, None, 0.25, "forward", 1e-09, "a687198e407ea38b"),
    (3, None, 0.25, "inverse", None, "3cd851c1884a0aab"),
    (3, 1.0, 0.0, "forward", None, "4e30f15780b130ea"),
    (3, 1.0, 0.0, "forward", 1e-09, "4e30f15780b130ea"),
    (3, 1.0, 0.0, "inverse", None, "56e424204e7ec192"),
    (3, 1.0, 0.1, "forward", None, "06d905f1e624f732"),
    (3, 1.0, 0.1, "forward", 1e-09, "06d905f1e624f732"),
    (3, 1.0, 0.25, "forward", None, "a88d03809cc8a6d3"),
    (3, 1.0, 0.25, "forward", 1e-09, "a88d03809cc8a6d3"),
    (4, None, 0.0, "forward", None, "932397cc0a77b0fc"),
    (4, None, 0.0, "forward", 1e-09, "932397cc0a77b0fc"),
    (4, None, 0.0, "inverse", None, "11c3e1375f85d619"),
    (4, None, 0.1, "forward", None, "3d32ede85ea0ac0b"),
    (4, None, 0.1, "forward", 1e-09, "3d32ede85ea0ac0b"),
    (4, None, 0.1, "inverse", None, "7b82e14d67922d48"),
    (4, None, 0.25, "forward", None, "ba770a02cb846dfe"),
    (4, None, 0.25, "forward", 1e-09, "ba770a02cb846dfe"),
    (4, None, 0.25, "inverse", None, "d4daa32cb199c74d"),
    (4, 1.0, 0.0, "forward", None, "40642ad96844f894"),
    (4, 1.0, 0.0, "forward", 1e-09, "40642ad96844f894"),
    (4, 1.0, 0.0, "inverse", None, "4964c6962b9401c0"),
    (4, 1.0, 0.1, "forward", None, "2d73be8af3eecb73"),
    (4, 1.0, 0.1, "forward", 1e-09, "2d73be8af3eecb73"),
    (4, 1.0, 0.25, "forward", None, "020bf2b601d6cf7f"),
    (4, 1.0, 0.25, "forward", 1e-09, "020bf2b601d6cf7f"),
    (9, None, 0.0, "forward", None, "5f71e464071ddc3a"),
    (9, None, 0.0, "forward", 1e-09, "5f71e464071ddc3a"),
    (9, None, 0.0, "inverse", None, "54437101654aeba6"),
    (9, None, 0.1, "forward", None, "a8052097f7768081"),
    (9, None, 0.1, "forward", 1e-09, "a8052097f7768081"),
    (9, None, 0.1, "inverse", None, "b0bc39001ad9c8b9"),
    (9, None, 0.25, "forward", None, "a1921cad792126eb"),
    (9, None, 0.25, "forward", 1e-09, "a1921cad792126eb"),
    (9, None, 0.25, "inverse", None, "0e7ab1bfde146ed1"),
    (9, 1.0, 0.0, "forward", None, "6b7733971feb2c6e"),
    (9, 1.0, 0.0, "forward", 1e-09, "6b7733971feb2c6e"),
    (9, 1.0, 0.0, "inverse", None, "56751740daaba287"),
    (9, 1.0, 0.1, "forward", None, "c687a57e4ef5e606"),
    (9, 1.0, 0.1, "forward", 1e-09, "c687a57e4ef5e606"),
    (9, 1.0, 0.25, "forward", None, "e0a39041763623a2"),
    (9, 1.0, 0.25, "forward", 1e-09, "e0a39041763623a2"),
]
OVERFLOWING_CASES = [(n, 1.0, eps, "inverse", None)
                     for n in (2, 3, 4, 9) for eps in (0.1, 0.25)]


def _pinned_trajectory(n, box, eps, rule, tc):
    """Simulation and log after four budget-cut runs and one open run."""
    rng = np.random.default_rng(73)
    s = sample_chaotic_state(n, UniformMaxwellian(), 0.02, Inelasticity(eps),
                             1.0, rng)
    s = SystemState(s.q, s.p, 0.02, Inelasticity(eps), box, time=0.3)
    log = TrajectoryLog()
    sim = Simulation(s, log=log, rule=rule, tc_threshold=tc)
    for _ in range(4):
        sim.run(dt=0.7, max_events=37)
    sim.run(dt=1.0)
    return sim, log


class TestGoldenEventSequences:
    """Bitwise pins of short 1D runs on lines and rings of 2 to 9 rods,
    where the budget cuts runs short and the 2-rod ring re-predicts its one
    pair of neighbours on both sides."""

    @pytest.mark.parametrize("n, box, eps, rule, tc, pin",
                             TRAJECTORY_DIGESTS,
                             ids=[f"n{n}-box{b}-eps{e}-{r}-tc{tc}"
                                  for n, b, e, r, tc, _ in TRAJECTORY_DIGESTS])
    def test_digests(self, n, box, eps, rule, tc, pin):
        sim, log = _pinned_trajectory(n, box, eps, rule, tc)
        out = sim.state()
        assert sim.n_events == len(log.t)
        assert digest(*_log_columns(log), out.q, out.p, np.array([sim.t]),
                      np.array([sim.n_events]))[:16] == pin


# (box, rule, heap size, sha256 of the sorted initial heap's columns)
HEAP_DIGESTS = [
    (1e4, "forward", 5037,
     "e3c91d947506e4d5f8d15d4ac5c7f12951ad30264e26837e28e49d23cfa118cd"),
    (1e4, "inverse", 4963,
     "fe3ce9e812d1a0688586e9a9f4a5ccba83417c5df5e8d88fbfccdbf3262ac879"),
    (None, "forward", 5037,
     "e3c91d947506e4d5f8d15d4ac5c7f12951ad30264e26837e28e49d23cfa118cd"),
    (None, "inverse", 4962,
     "a35c045db90a711fc989324438570ba5b27bd9d3d4d5fb0b0e9d695161845eff"),
]


class TestGoldenInitialHeap:
    """The initial predictions of 10**4 rods, recorded from the engine that
    pushed one pair at a time.  Pop order depends only on the keys, so equal
    sorted heaps give equal event sequences.  The keys count from 0 since
    the clock does; 0.3 plus each is the key pinned before, bitwise."""

    @pytest.mark.parametrize("box, rule, size, pin", HEAP_DIGESTS,
                             ids=[f"box{b}-{r}" for b, r, _, _ in HEAP_DIGESTS])
    def test_digests(self, box, rule, size, pin):
        rng = np.random.default_rng(80)
        ring = sample_chaotic_state(10_000, UniformMaxwellian(length=1e4),
                                    0.01, Inelasticity(0.25), 1e4, rng)
        s = SystemState(ring.q, ring.p, 0.01, Inelasticity(0.25), box,
                        time=0.3)
        heap = sorted(Simulation(s, rule=rule).heap)
        t_ev, *ints = zip(*heap)
        assert len(heap) == size
        assert digest(np.array(t_ev, dtype=float),
                      np.array(ints, dtype=np.int64)) == pin


# (case, seed, n, d, box, sigma, eps, rule, tc_threshold, first 16 hex digits
# of the sha256 of the log columns, final q and p, clock and the three
# counters), recorded from the all-pairs engine that collided each pair in a
# method of its own
ALLPAIRS_DIGESTS = [
    ("3d-forward-tc", 0, 8, 3, 1.0, 0.2, 0.25, "forward", 0.2, "9cc7cf23048e2529"),
    ("3d-inverse", 1, 8, 3, 1.0, 0.2, 0.1, "inverse", None, "7561c473af7a5678"),
    ("3d-elastic", 0, 8, 3, 1.0, 0.2, 0.0, "forward", None, "106929cacf35167b"),
    ("ring-forward-tc", 2, 6, 1, 1.0, 0.02, 0.25, "forward", 0.05, "27ff09061a15d08d"),
    ("ring-inverse", 1, 6, 1, 1.0, 0.02, 0.1, "inverse", None, "462752da1e5e521f"),
    ("line-forward-tc", 1, 6, 1, None, 0.02, 0.25, "forward", 0.2, "14de8efa93a610f0"),
    ("line-inverse", 0, 6, 1, None, 0.02, 0.1, "inverse", None, "ca90d4bcb7a2487d"),
]


class TestGoldenAllPairs:
    """Bitwise pins of the all-pairs engine on periodic spheres and on 1D
    rings and lines, started at 0.3: four runs cut by the event budget, then
    an open one.  Every case has events, the TC cases make some collisions
    elastic, and the 3D cases pop horizon re-checks (each adds one to a
    particle's counter and no event)."""

    @staticmethod
    def simulation(seed, n, d, box, sigma, eps, rule, tc, storm_limit=1e5):
        rng = np.random.default_rng(seed)
        s = sample_chaotic_state(n, UniformMaxwellian(d=d), sigma,
                                 Inelasticity(eps), box, rng)
        s.time = 0.3
        log = TrajectoryLog()
        return Simulation(s, log=log, rule=rule, engine="allpairs",
                          tc_threshold=tc, storm_limit=storm_limit), log

    @staticmethod
    def run(sim):
        for _ in range(4):
            sim.run(dt=0.3, max_events=9)
        sim.run(dt=0.6)

    @pytest.mark.parametrize(
        "seed, n, d, box, sigma, eps, rule, tc, pin",
        [case[1:] for case in ALLPAIRS_DIGESTS],
        ids=[case[0] for case in ALLPAIRS_DIGESTS])
    def test_digests(self, seed, n, d, box, sigma, eps, rule, tc, pin):
        sim, log = self.simulation(seed, n, d, box, sigma, eps, rule, tc)
        self.run(sim)
        out = sim.state()
        assert sim.n_events == len(log.t) > 0
        assert (sim.n_tc_elastic > 0) == (tc is not None)
        assert (sum(sim.cnt) - 2 * sim.n_events > 0) == (d == 3)
        assert digest(*_log_columns(log), out.q, out.p, np.array([sim.t]),
                      np.array([sim.n_events, sim.n_stale_pops,
                                sim.n_tc_elastic]))[:16] == pin

    def test_storm_refusal(self):
        sim, log = self.simulation(0, 8, 3, 1.0, 0.2, 0.25, "forward", None,
                                   storm_limit=3)
        with pytest.raises(EventStormError) as refusal:
            self.run(sim)
        assert str(refusal.value) == (
            "particle 1: more than 3 events within unit time at t=1.46561; "
            "likely inelastic collapse (consider tc_threshold)")
        # the refused collision is neither applied, counted nor logged
        assert (sim.n_events, len(log.t)) == (12, 12)
        assert digest(*_log_columns(log), np.array(
            [sim.n_events, sim.n_stale_pops, sim.n_tc_elastic]))[:16] == (
            "b609e7246d591a9a")


class TestInverseOverflow:
    """Each inverse contact multiplies the normal relative speed by
    1/(1-2*eps); on a ring the contacts then come ever faster until the
    momenta or their energy overflow, and the run must stop there instead of
    running on with nan times."""

    def test_two_rod_ring(self):
        s = SystemState(np.array([[0.2], [0.6]]), np.array([[0.5], [-0.5]]),
                        0.02, Inelasticity(0.25), 1.0)
        for engine in ("adjacent", "allpairs"):
            log = TrajectoryLog()
            sim = Simulation(s, log=log, rule="inverse", engine=engine)
            with pytest.raises(EventStormError,
                               match=r"1/\(1-2\*eps\) = 2 "):
                sim.run(dt=3.0)
            assert 0 < sim.n_events == len(log.t) <= 1025
            assert all(np.isfinite(column).all()
                       for column in _log_columns(log))

    @pytest.mark.parametrize("n, box, eps, rule, tc", OVERFLOWING_CASES)
    def test_pinned_rings(self, n, box, eps, rule, tc):
        with pytest.raises(EventStormError, match="overflow"):
            _pinned_trajectory(n, box, eps, rule, tc)


class TestInverseRingOracle:
    """ROADMAP item 18's 2-rod ring under the inverse flow, in closed form.
    Each contact reverses the relative momentum g and scales it by
    1/(1-2*eps), and between contacts the pair covers a lap of L - 2*sigma,
    so the contacts accumulate at t* = d0/g0 + (L - 2 sigma)(1 - 2 eps) /
    (2 eps g0).  Below t* both engines must match the closed form.  Past t*
    both refuse at t*, with finite momenta: the adjacency loop when the
    momenta's energy overflows, the all-pairs loop when a contact overlaps
    without approaching.  Item 18's guard, which refuses a contact closer
    than the clock resolves, will refuse both earlier."""

    Q, P = (0.0679599, 0.1116856), (1.3033, -1.6197)
    SIGMA, BOX, EPS = 0.01, 0.148428, 0.1
    CONTACTS = [(0.05, 1), (0.1, 3), (0.15, 5), (0.2, 14), (0.205, 19),
                (0.208, 32), (0.20814, 46)]

    @classmethod
    def closed_form(cls, dt):
        """Contacts within dt and the final momenta."""
        r, g = 1.0 - 2.0 * cls.EPS, cls.P[0] - cls.P[1]
        lap = cls.BOX - 2.0 * cls.SIGMA
        # the inverse flow moves the rods by -p dt: they meet across the wrap
        t = (cls.BOX - (cls.Q[1] - cls.Q[0]) - cls.SIGMA) / g
        contacts = 0
        while t <= dt:
            contacts, g = contacts + 1, -g / r
            t += lap / abs(g)
        mean = 0.5 * (cls.P[0] + cls.P[1])
        return contacts, np.array([mean + 0.5 * g, mean - 0.5 * g])

    def test_accumulation_time(self):
        g0, r = self.P[0] - self.P[1], 1.0 - 2.0 * self.EPS
        d0 = self.BOX - (self.Q[1] - self.Q[0]) - self.SIGMA
        t_star = d0 / g0 + (self.BOX - 2.0 * self.SIGMA) * r / (
            2.0 * self.EPS * g0)
        assert t_star == pytest.approx(0.20814721176873077, rel=1e-15)
        assert max(dt for dt, _ in self.CONTACTS) < t_star

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    @pytest.mark.parametrize("dt, contacts", CONTACTS)
    def test_engine_below_t_star(self, engine, dt, contacts):
        s = SystemState(np.array(self.Q)[:, None], np.array(self.P)[:, None],
                        self.SIGMA, Inelasticity(self.EPS), self.BOX)
        sim = Simulation(s, rule="inverse", engine=engine)
        sim.run(dt=dt)
        expected, p = self.closed_form(dt)
        assert sim.n_events == expected == contacts
        np.testing.assert_allclose(sim.state().p[:, 0], p, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    def test_engine_refuses_past_t_star(self, engine):
        s = SystemState(np.array(self.Q)[:, None], np.array(self.P)[:, None],
                        self.SIGMA, Inelasticity(self.EPS), self.BOX)
        sim = Simulation(s, rule="inverse", engine=engine)
        with pytest.raises(EventStormError, match=r"at t=0\.2081"):
            sim.run(dt=0.3)
        assert sim.n_events > self.CONTACTS[-1][1]
        assert np.isfinite(sim.state().p).all()


class TestRunCounts:
    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    def test_no_tc_count_without_tc(self, engine):
        rng = np.random.default_rng(33)
        s = random_state_1d(rng, 12, box=1.0, sigma=0.01, eps=0.25)
        log = TrajectoryLog()
        sim = Simulation(s, log=log, engine=engine)
        sim.run(dt=1.0)
        assert sim.n_events == len(log.t) > 10
        assert sim.n_tc_elastic == 0
        assert sim.n_stale_pops > 0

    def test_counts_accumulate_over_runs(self):
        rng = np.random.default_rng(31)
        s = random_state_1d(rng, 100, box=1.0, sigma=0.002, eps=0.25)
        sim = Simulation(s, tc_threshold=1e-9)
        for _ in range(4):
            sim.run(max_events=5_000)
        assert sim.n_events == 20_000
        assert (sim.n_stale_pops, sim.n_tc_elastic) == (8853, 3385)


class TestEventOrder:
    """The facts the adjacency loop predicts from: no pending heap key is
    before the clock, and no local time is after it, so every pair can be
    predicted from the event time."""

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    @pytest.mark.parametrize("box", [None, 1.0], ids=["line", "ring"])
    @pytest.mark.parametrize("rule, tc", [
        ("forward", None), ("forward", 0.05), ("inverse", None),
    ], ids=["forward", "forward-tc", "inverse"])
    def test_clock_bounds_heap_and_local_times(self, engine, box, rule, tc):
        rng = np.random.default_rng(23)
        s = sample_chaotic_state(16, UniformMaxwellian(length=1.0), 0.01,
                                 Inelasticity(0.1), box=box, rng=rng)
        s.time = 0.3
        sim = Simulation(s, rule=rule, engine=engine, tc_threshold=tc)
        for _ in range(20):
            sim.run(max_events=7)
            assert not sim.heap or min(sim.heap)[0] >= sim.t
            assert sim.t >= max(sim.tl)
        assert sim.n_events >= 20


def _pair_3d(**options):
    s = SystemState(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                    np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 0.1,
                    Inelasticity(0.0))
    return Simulation(s, **options)


def _rods(q, p):
    return Simulation(SystemState(np.array(q)[:, None], np.array(p)[:, None],
                                  0.1, Inelasticity(0.0)))


def _overflowing_forward_pair(engine):
    # the relative speed 2e308 overflows in the all-pairs prediction and in
    # the adjacency loop's collision, under the forward rule
    s = SystemState(np.array([[0.0], [1.0]]), np.array([[1e308], [-1e308]]),
                    0.1, Inelasticity(0.25))
    Simulation(s, engine=engine).run(dt=1.0)


def _overflowing_inverse_pair():
    # the inverse kick is 25.5 times the relative speed 2e153, so the
    # pre-collision energy overflows and the collision is refused, with no
    # RuntimeWarning ahead of the guard
    s = SystemState(np.array([[0.0], [1.0]]), np.array([[-1e153], [1e153]]),
                    0.1, Inelasticity(0.49))
    sim = Simulation(s, rule="inverse", engine="allpairs")
    sim.run(dt=1.0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: _pair_3d(rule="backward"), ValueError, "unknown rule"),
    (lambda: _pair_3d(engine="adjacent"), ValueError, "requires d == 1"),
    (lambda: _pair_3d(engine="grid"), ValueError, "unknown engine"),
    (_overflowing_inverse_pair, EventStormError, "overflow"),
    (lambda: _overflowing_forward_pair("adjacent"), EventStormError,
     "overflow"),
    (lambda: _overflowing_forward_pair("allpairs"), EventStormError,
     "overflow"),
    (lambda: _rods([0.0, 1.0], [np.inf, 0.0]), ValueError, "finite"),
    (lambda: _rods([np.nan, 1.0], [1.0, 0.0]), ValueError, "finite"),
    (lambda: _rods([0.0, 1.0], [1.0, np.nan]), ValueError, "finite"),
    # a NaN cutoff compares False, so it would switch the TC rule off
    (lambda: Simulation(two_rods(), engine="adjacent", tc_threshold=np.nan),
     ValueError, "must not be NaN"),
    (lambda: Simulation(two_rods(), engine="allpairs", tc_threshold=np.nan),
     ValueError, "must not be NaN"),
], ids=["rule", "adjacent-3d", "engine", "allpairs-energy-overflow",
        "adjacent-forward-overflow", "allpairs-forward-overflow",
        "inf-momentum", "nan-position", "nan-momentum",
        "adjacent-nan-tc-threshold", "allpairs-nan-tc-threshold"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_allpairs_grazing_contact_is_skipped():
    # the pair touches at t=0.75 (every value exact) with g_n = -0.0: the
    # popped contact is a graze, not a collision
    s = SystemState(np.array([[0.0, 0.0, 0.0], [0.75, 1.0, 0.0]]),
                    np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1.0,
                    Inelasticity(0.0))
    sim = Simulation(s)
    assert sim.heap == [(0.75, 0, 1, 0, 0)]
    assert sim.run(dt=1.0) == 0
    assert not sim.heap and sim.state().p.tobytes() == s.p.tobytes()


@pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
def test_contact_late_on_the_clock(engine):
    # at 1e16 the spacing of doubles is 2, so only a clock that counts from
    # the start can place this contact, due 0.9 later
    s = SystemState(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]), 0.1,
                    Inelasticity(0.0), time=1e16)
    sim = Simulation(s, engine=engine)
    sim.run(dt=4.0)
    np.testing.assert_allclose(sim.state().q[:, 0], [0.9, 4.1], rtol=0,
                               atol=1e-9)


def test_inverse_run_times_agree():
    # an inverse run reports start - dt through Simulation and
    # advance_inverse alike, at any start
    for start, dt in itertools.product((0.3, 17.25, 1e16), (0.1, 3.0)):
        s = SystemState(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]),
                        0.1, Inelasticity(0.0), time=start)
        sim = Simulation(s, rule="inverse")
        sim.run(dt=dt)
        assert advance_inverse(s, dt).time == start - dt
        assert sim.state().time == start - dt


class TestStartTimeInvariance:
    """The clock counts the run's time from 0, so a state started at any
    time runs bitwise as it does from 0: the same contacts, counters,
    refusals, q and p, each logged time the start plus the time-0 one.  The
    runs cut by an event budget, the TC rule and the storm guard (which
    refuses the inverse rings at eps = 0.25) all read the clock.  At 1e16
    the spacing of doubles is 2, far above the time between contacts."""

    STARTS = (0.3, 17.25, 1e16)

    @staticmethod
    def run(seed, box, rule, engine, eps, start):
        rng = np.random.default_rng(seed)
        s = sample_chaotic_state(6, UniformMaxwellian(), 0.05,
                                 Inelasticity(eps), box, rng)
        s.time = start
        log = TrajectoryLog()
        sim = Simulation(s, log=log, rule=rule, engine=engine, storm_limit=15,
                         tc_threshold=0.05 if rule == "forward" else None)
        try:
            sim.run(dt=0.2, max_events=3)
            sim.run(dt=0.3)
        except EventStormError as exc:
            return sim, log, str(exc)
        return sim, log, None

    @pytest.mark.parametrize("engine", ["adjacent", "allpairs"])
    @pytest.mark.parametrize("rule", ["forward", "inverse"])
    @pytest.mark.parametrize("box", [None, 1.0], ids=["line", "ring"])
    def test_runs_match_start_zero(self, box, rule, engine):
        refusals = 0
        for seed, eps in itertools.product(range(6), (0.0, 0.25)):
            ref, ref_log, ref_error = self.run(seed, box, rule, engine, eps,
                                               0.0)
            ref_out = ref.state()
            refusals += ref_error is not None
            for start in self.STARTS:
                sim, log, error = self.run(seed, box, rule, engine, eps, start)
                out = sim.state()
                assert error == ref_error
                assert (list(log.i), list(log.j)) == (list(ref_log.i),
                                                      list(ref_log.j))
                assert (sim.n_events, sim.n_stale_pops, sim.n_tc_elastic) == (
                    ref.n_events, ref.n_stale_pops, ref.n_tc_elastic)
                assert out.q.tobytes() == ref_out.q.tobytes()
                assert out.p.tobytes() == ref_out.p.tobytes()
                assert sim.t == ref.t
                assert list(log.t) == [start + t for t in ref_log.t]
                assert out.time == (start + sim.t if rule == "forward"
                                    else start - sim.t)
        assert refusals == (5 if (box, rule) == (1.0, "inverse") else 0)
