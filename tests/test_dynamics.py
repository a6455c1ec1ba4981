import itertools

import numpy as np
import pytest

from granulab.core import (
    Inelasticity,
    SystemState,
    UniformMaxwellian,
    _gap_positions,
    sample_chaotic_state,
)
from granulab.dynamics import (
    Simulation,
    TrajectoryLog,
    advance,
    advance_inverse,
    evolve_rods_ensemble,
)
from granulab.errors import ConfigError, EventStormError

from free_flight import elastic_line
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

    def test_periodic_wraparound_3d(self):
        # the pair recedes in the minimum image (1.5 apart) but meets across
        # the wrap: gap 4 - 1.5 - 0.2 closing at speed 2
        q = np.array([[1.0, 0, 0], [2.5, 0, 0]])
        p = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        s = SystemState(q, p, sigma=0.2, eps=Inelasticity(0.0), box=4.0)
        log = TrajectoryLog()
        advance(s, 2.0, log=log)
        assert log.n_events > 0 and log.events[0].t == pytest.approx(1.15)

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
        assert log.events[0].t == pytest.approx(min(scan), rel=1e-12)


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
        assert [(e.i, e.j) for e in log_a.events] == \
            [(e.i, e.j) for e in log_b.events]
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
            assert sim.n_events == 2  # the event that tripped the guard counts

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


def _log_columns(log):
    ev = log.events
    return (np.array([e.t for e in ev], dtype=float),
            np.array([e.i for e in ev], dtype=np.int64),
            np.array([e.j for e in ev], dtype=np.int64),
            np.array([e.eta for e in ev], dtype=float),
            np.array([e.g_n for e in ev], dtype=float),
            np.array([e.dE for e in ev], dtype=float))


def _tc_elastic_in_log(log, tc):
    """Logged collisions in which a participant had collided less than tc
    earlier: the ones the TC rule makes elastic."""
    last = {}
    count = 0
    for t, i, j in zip(log.t, log.i, log.j):
        count += (t - last.get(i, -np.inf) < tc or t - last.get(j, -np.inf) < tc)
        last[i] = last[j] = t
    return count


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
        assert digest(out.q) == (
            "36b43590368fff242ce3486c570a20976ba0ef31c90a0492c91589eda32e1ef8")
        assert digest(out.p) == (
            "69e58863c859c54f7ad91fc270cbdf0f39d5ed8cb3c9401b14cb9075fa22ab37")
        assert digest(*_log_columns(log)) == (
            "f2d3561e7b72b1e55ce96365e6467c5d6bf6b4dcac58614028cf6841adb1cd4f")
        assert log.total_dissipation() == float.fromhex("-0x1.848ada5edebd3p+5")

    def test_collapse_prone_ring_counts(self):
        rng = np.random.default_rng(31)
        s = random_state_1d(rng, 100, box=1.0, sigma=0.002, eps=0.25)
        log = TrajectoryLog()
        sim = Simulation(s, log=log, tc_threshold=1e-9)
        sim.run(max_events=20_000)
        assert sim.n_events == len(log.t) == 20_000
        assert (sim.n_stale_pops, sim.n_tc_elastic) == (8853, 3385)
        assert sim.n_tc_elastic == _tc_elastic_in_log(log, 1e-9)

    @pytest.mark.parametrize("eps, pin", [
        (0.0, "90d0f0a62a2d69449d610727ac9bb23a6b9137e5204dc003285690b4fd0a6ff2"),
        (0.1, "2de872d5d82f9a1a20921af7eddded27a00ec25b5c906fd6d3262628b50c04dd"),
    ])
    def test_round_trip_unbounded_rods(self, eps, pin):
        rng = np.random.default_rng(32)
        sigma, n = 0.1, 7
        q = np.sort(rng.uniform(0.0, 2.0 - n * sigma, size=n)) + sigma * np.arange(n)
        p = rng.normal(size=n)
        s = SystemState(q[:, None], p[:, None], sigma, Inelasticity(eps))
        fwd_log, back_log = TrajectoryLog(), TrajectoryLog()
        fwd = advance(s, 1.0, log=fwd_log)
        back = advance_inverse(fwd, 1.0, log=back_log)
        assert fwd_log.n_events == back_log.n_events == 4
        assert digest(fwd.q, fwd.p, back.q, back.p, *_log_columns(fwd_log),
                      *_log_columns(back_log)) == pin


# (n, box, eps, rule, tc_threshold, first 16 hex digits of the sha256 of the
# log columns, final q and p, clock and event count), recorded from the
# engine that called a prediction method per pair.  Inverse rings at eps > 0
# are left out: each contact multiplies the relative speed by 1/(1-2*eps)
# until the momenta overflow (see TestInverseOverflow).
TRAJECTORY_DIGESTS = [
    (2, None, 0.0, "forward", None, "83e2d058a0a9e597"),
    (2, None, 0.0, "forward", 1e-09, "83e2d058a0a9e597"),
    (2, None, 0.0, "inverse", None, "c72b6beec30ac5ca"),
    (2, None, 0.1, "forward", None, "83e2d058a0a9e597"),
    (2, None, 0.1, "forward", 1e-09, "83e2d058a0a9e597"),
    (2, None, 0.1, "inverse", None, "8860cdf408bbca4d"),
    (2, None, 0.25, "forward", None, "83e2d058a0a9e597"),
    (2, None, 0.25, "forward", 1e-09, "83e2d058a0a9e597"),
    (2, None, 0.25, "inverse", None, "59d4d9a1d8cc1969"),
    (2, 1.0, 0.0, "forward", None, "3ea5f35bae799a90"),
    (2, 1.0, 0.0, "forward", 1e-09, "3ea5f35bae799a90"),
    (2, 1.0, 0.0, "inverse", None, "6ec6f2cff0b4eb72"),
    (2, 1.0, 0.1, "forward", None, "830a2b998bc5a164"),
    (2, 1.0, 0.1, "forward", 1e-09, "830a2b998bc5a164"),
    (2, 1.0, 0.25, "forward", None, "53f39150d4fa7262"),
    (2, 1.0, 0.25, "forward", 1e-09, "53f39150d4fa7262"),
    (3, None, 0.0, "forward", None, "3417856125d6caeb"),
    (3, None, 0.0, "forward", 1e-09, "3417856125d6caeb"),
    (3, None, 0.0, "inverse", None, "a8fe603fc4240cb3"),
    (3, None, 0.1, "forward", None, "d7a3ff8ec170931e"),
    (3, None, 0.1, "forward", 1e-09, "d7a3ff8ec170931e"),
    (3, None, 0.1, "inverse", None, "1cb6be4a485e432e"),
    (3, None, 0.25, "forward", None, "68fbe1ae3839813d"),
    (3, None, 0.25, "forward", 1e-09, "68fbe1ae3839813d"),
    (3, None, 0.25, "inverse", None, "fcf3c94197996654"),
    (3, 1.0, 0.0, "forward", None, "c087bd421ba89af3"),
    (3, 1.0, 0.0, "forward", 1e-09, "c087bd421ba89af3"),
    (3, 1.0, 0.0, "inverse", None, "da99a317a71b9e22"),
    (3, 1.0, 0.1, "forward", None, "a5f2e5f6bb62630d"),
    (3, 1.0, 0.1, "forward", 1e-09, "a5f2e5f6bb62630d"),
    (3, 1.0, 0.25, "forward", None, "ab16e62bfdfed2cc"),
    (3, 1.0, 0.25, "forward", 1e-09, "ab16e62bfdfed2cc"),
    (4, None, 0.0, "forward", None, "f6d1dbf026ae8ac5"),
    (4, None, 0.0, "forward", 1e-09, "f6d1dbf026ae8ac5"),
    (4, None, 0.0, "inverse", None, "d4be3e97c1eb8fad"),
    (4, None, 0.1, "forward", None, "cd384b6ab104be05"),
    (4, None, 0.1, "forward", 1e-09, "cd384b6ab104be05"),
    (4, None, 0.1, "inverse", None, "75e2b1029c78ced8"),
    (4, None, 0.25, "forward", None, "08a8c80c3d7554be"),
    (4, None, 0.25, "forward", 1e-09, "08a8c80c3d7554be"),
    (4, None, 0.25, "inverse", None, "eb72d55cea1cc450"),
    (4, 1.0, 0.0, "forward", None, "a9b1a77a9261491d"),
    (4, 1.0, 0.0, "forward", 1e-09, "a9b1a77a9261491d"),
    (4, 1.0, 0.0, "inverse", None, "64c0bd8dcf4e983e"),
    (4, 1.0, 0.1, "forward", None, "a2aab7f176161eb5"),
    (4, 1.0, 0.1, "forward", 1e-09, "a2aab7f176161eb5"),
    (4, 1.0, 0.25, "forward", None, "e8126b3cb1e942cf"),
    (4, 1.0, 0.25, "forward", 1e-09, "e8126b3cb1e942cf"),
    (9, None, 0.0, "forward", None, "9f224ee14f1de5c1"),
    (9, None, 0.0, "forward", 1e-09, "9f224ee14f1de5c1"),
    (9, None, 0.0, "inverse", None, "6a8ecef6110b6db9"),
    (9, None, 0.1, "forward", None, "28d8f87c04cbcf26"),
    (9, None, 0.1, "forward", 1e-09, "28d8f87c04cbcf26"),
    (9, None, 0.1, "inverse", None, "256524a29a915f48"),
    (9, None, 0.25, "forward", None, "5f72c23602b50845"),
    (9, None, 0.25, "forward", 1e-09, "5f72c23602b50845"),
    (9, None, 0.25, "inverse", None, "21c8f6a9437e673b"),
    (9, 1.0, 0.0, "forward", None, "433bc9e055cec57a"),
    (9, 1.0, 0.0, "forward", 1e-09, "433bc9e055cec57a"),
    (9, 1.0, 0.0, "inverse", None, "f3938e364645094e"),
    (9, 1.0, 0.1, "forward", None, "573d0e50d528aaf4"),
    (9, 1.0, 0.1, "forward", 1e-09, "573d0e50d528aaf4"),
    (9, 1.0, 0.25, "forward", None, "f0f60f03a0b1e7f5"),
    (9, 1.0, 0.25, "forward", 1e-09, "f0f60f03a0b1e7f5"),
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
     "e1098f9033441befa39f017867779261f7837bd6b2ceff3f727d3b1f25fcc30c"),
    (1e4, "inverse", 4963,
     "9d2fd85f1e780389df444f64c6f734fc0cfda2fa0c63ea47a8f528289553c89f"),
    (None, "forward", 5037,
     "e1098f9033441befa39f017867779261f7837bd6b2ceff3f727d3b1f25fcc30c"),
    (None, "inverse", 4962,
     "a93e3544476265f97b8492733c0a72b84153b8761fb06781410d807a85e67cbf"),
]


class TestGoldenInitialHeap:
    """The initial predictions of 10**4 rods, recorded from the engine that
    pushed one pair at a time.  Pop order depends only on the keys, so equal
    sorted heaps give equal event sequences."""

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
