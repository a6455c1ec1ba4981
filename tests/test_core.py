import numpy as np
import pytest

from granulab.core import (
    Inelasticity,
    SystemState,
    UniformMaxwellian,
    _gap_positions,
    collide,
    collide_rods,
    collision_jacobian,
    dissipation,
    precollide,
    sample_chaotic_state,
    unit_normal,
)
from granulab import core
from granulab.dynamics import Simulation, evolve_rods_ensemble
from granulab.errors import InvalidCollisionError, SamplingFailureError
from granulab.kinetic import _collide_in_rounds

from golden import digest


def random_collision_inputs(rng, n, d):
    p1 = rng.normal(size=(n, d))
    p2 = rng.normal(size=(n, d))
    eta = rng.normal(size=(n, d))
    eta /= np.linalg.norm(eta, axis=-1, keepdims=True)
    # orient eta so the approach condition holds
    g = np.sum(eta * (p1 - p2), axis=-1, keepdims=True)
    eta *= np.sign(np.where(g == 0, 1.0, g))
    return p1, p2, eta


class TestInelasticity:
    def test_valid_range(self):
        Inelasticity(0.0)
        Inelasticity(0.25)

    @pytest.mark.parametrize("eps", [-0.01, 0.5, 0.7])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            Inelasticity(eps)


class TestCollide:
    def test_elastic_1d_swaps(self):
        p1s, p2s = collide([1.0], [-1.0], [1.0], Inelasticity(0.0))
        assert p1s == pytest.approx([-1.0])
        assert p2s == pytest.approx([1.0])

    def test_inelastic_1d_example(self):
        p1s, p2s = collide([1.0], [-1.0], [1.0], Inelasticity(0.25))
        assert p1s == pytest.approx([-0.5])
        assert p2s == pytest.approx([0.5])

    def test_momentum_conserved(self):
        rng = np.random.default_rng(1)
        for d in (1, 3):
            p1, p2, eta = random_collision_inputs(rng, 500, d)
            p1s, p2s = collide(p1, p2, eta, Inelasticity(0.3))
            np.testing.assert_allclose(p1s + p2s, p1 + p2, rtol=0, atol=1e-14)

    def test_normal_restitution(self):
        rng = np.random.default_rng(2)
        for eps in (0.0, 0.1, 0.25, 0.49):
            p1, p2, eta = random_collision_inputs(rng, 200, 3)
            p1s, p2s = collide(p1, p2, eta, Inelasticity(eps))
            g = np.sum(eta * (p1 - p2), axis=-1)
            gs = np.sum(eta * (p1s - p2s), axis=-1)
            np.testing.assert_allclose(gs, -(1 - 2 * eps) * g, atol=1e-12)

    def test_tangential_invariance_3d(self):
        rng = np.random.default_rng(3)
        p1, p2, eta = random_collision_inputs(rng, 200, 3)
        p1s, p2s = collide(p1, p2, eta, Inelasticity(0.2))
        for before, after in ((p1, p1s), (p2, p2s)):
            tang_before = before - np.sum(eta * before, -1, keepdims=True) * eta
            tang_after = after - np.sum(eta * after, -1, keepdims=True) * eta
            np.testing.assert_allclose(tang_after, tang_before, atol=1e-14)

    def test_approach_condition_enforced(self):
        with pytest.raises(InvalidCollisionError):
            collide([-1.0], [1.0], [1.0], Inelasticity(0.1))


class TestPrecollide:
    def test_elastic_is_involution(self):
        rng = np.random.default_rng(4)
        p1, p2, eta = random_collision_inputs(rng, 100, 3)
        f1, f2 = collide(p1, p2, eta, Inelasticity(0.0))
        b1, b2 = precollide(p1, p2, eta, Inelasticity(0.0))
        np.testing.assert_allclose(b1, f1, atol=1e-14)
        np.testing.assert_allclose(b2, f2, atol=1e-14)

    def test_inverse_of_collide_example(self):
        p1p, p2p = precollide([-0.5], [0.5], [1.0], Inelasticity(0.25))
        assert p1p == pytest.approx([1.0])
        assert p2p == pytest.approx([-1.0])

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.49])
    def test_round_trip(self, eps):
        rng = np.random.default_rng(5)
        inel = Inelasticity(eps)
        for d in (1, 3):
            p1, p2, eta = random_collision_inputs(rng, 2500, d)
            f1, f2 = collide(p1, p2, eta, inel)
            b1, b2 = precollide(f1, f2, eta, inel)
            scale = np.maximum(np.abs(p1).max(), np.abs(p2).max())
            np.testing.assert_allclose(b1, p1, atol=1e-12 * scale)
            np.testing.assert_allclose(b2, p2, atol=1e-12 * scale)
            # and the other composition order
            g1, g2 = precollide(p1, p2, eta, inel)
            r1, r2 = collide(g1, g2, eta, inel, check=False)
            np.testing.assert_allclose(r1, p1, atol=1e-12 * scale)
            np.testing.assert_allclose(r2, p2, atol=1e-12 * scale)

    def test_kernel_scaling_of_normal_component(self):
        # <eta, p1_pre - p2_pre> = -<eta, p1 - p2>/(1 - 2 eps)
        rng = np.random.default_rng(6)
        eps = 0.25
        p1, p2, eta = random_collision_inputs(rng, 100, 3)
        b1, b2 = precollide(p1, p2, eta, Inelasticity(eps))
        g = np.sum(eta * (p1 - p2), -1)
        gb = np.sum(eta * (b1 - b2), -1)
        np.testing.assert_allclose(gb, -g / (1 - 2 * eps), atol=1e-12)



class TestCollideRods:
    def test_bitwise_equal_to_array_maps(self):
        # the rod map must be the array maps with eta = [1.0], operation
        # for operation, including the elastic exchange, on floats and on
        # arrays of pairs alike
        rng = np.random.default_rng(4)
        eta = np.array([1.0])
        epsilons = [0.0] * 200 + list(rng.uniform(0.0, 0.5, size=800))
        for eps in epsilons:
            v1, v2 = rng.normal(size=2) * 10.0 ** rng.uniform(-6, 3)
            p1, p2 = np.array([v1]), np.array([v2])
            for inverse in (False, True):
                if inverse:
                    a1, a2 = precollide(p1, p2, eta, Inelasticity(eps))
                else:
                    a1, a2 = collide(p1, p2, eta, Inelasticity(eps),
                                     check=False)
                expect = np.array([a1[0], a2[0]]).tobytes()
                w1, w2 = collide_rods(float(v1), float(v2), eps, inverse)
                assert np.array([w1, w2]).tobytes() == expect
                w1, w2 = collide_rods(p1, p2, eps, inverse)
                assert np.concatenate([w1, w2]).tobytes() == expect

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25])
    def test_one_map_on_every_path(self, eps):
        # one collision of two rods whose kick rounds: the event loop, the
        # ensemble evolver and the DSMC rounds give the same momenta, bitwise
        v = np.array([1.0, 1e-17])
        expect = np.array(collide_rods(v[0], v[1], eps))
        q = np.array([0.0, 1.0])
        sim = Simulation(SystemState(q[:, None], v[:, None], 0.1,
                                     Inelasticity(eps)))
        assert sim.run(dt=2.0) == 1
        assert sim.state().p[:, 0].tobytes() == expect.tobytes()
        _, p, ncol = evolve_rods_ensemble(q[None], v[None], 2.0, 0.1,
                                          Inelasticity(eps))
        assert ncol[0] == 1 and p[0].tobytes() == expect.tobytes()
        p = v.copy()
        _collide_in_rounds(p, np.array([0]), np.array([1]), np.array([0.0]),
                           np.array([1.0]), eps)
        assert p.tobytes() == expect.tobytes()
        if eps == 0.0:
            assert expect.tolist() == [1e-17, 1.0]


class TestDissipation:
    def test_elastic_is_zero(self):
        rng = np.random.default_rng(7)
        p1, p2, eta = random_collision_inputs(rng, 50, 3)
        np.testing.assert_allclose(
            dissipation(p1, p2, eta, Inelasticity(0.0)), 0.0, atol=1e-15)

    def test_1d_example(self):
        dE = dissipation([1.0], [-1.0], [1.0], Inelasticity(0.25))
        assert dE == pytest.approx(-0.75)

    def test_closed_form_vs_brute_force(self):
        rng = np.random.default_rng(8)
        inel = Inelasticity(0.33)
        for d in (1, 3):
            p1, p2, eta = random_collision_inputs(rng, 5000, d)
            p1s, p2s = collide(p1, p2, eta, inel)
            brute = 0.5 * (np.sum(p1s**2, -1) + np.sum(p2s**2, -1)
                           - np.sum(p1**2, -1) - np.sum(p2**2, -1))
            np.testing.assert_allclose(
                dissipation(p1, p2, eta, inel), brute, atol=1e-12)

    def test_sign(self):
        rng = np.random.default_rng(9)
        p1, p2, eta = random_collision_inputs(rng, 1000, 3)
        dE = dissipation(p1, p2, eta, Inelasticity(0.4))
        assert np.all(dE <= 0.0)


class TestCollisionJacobian:
    def test_elastic(self):
        assert collision_jacobian(Inelasticity(0.0)) == 1.0

    def test_quarter(self):
        assert collision_jacobian(Inelasticity(0.25)) == pytest.approx(0.5)

    def test_monte_carlo_change_of_variables(self):
        # P uniform on the square S => T(P) has density 1/(|S| |det T|) on
        # T(S); the hit probability of a small central box B inside T(S) is
        # |B| / (|S| |det T|).
        rng = np.random.default_rng(10)
        eps = Inelasticity(0.3)
        n = 400_000
        a = 3.0
        p1 = rng.uniform(-a, a, size=(n, 1))
        p2 = rng.uniform(-a, a, size=(n, 1))
        eta = np.where(p1 - p2 >= 0, 1.0, -1.0)
        p1s, p2s = collide(p1, p2, eta, eps)
        b = 0.4  # T^-1(B) stays inside S: |delta| <= 2b/(1-2eps) = 2, |sum| <= 2b
        hits = np.mean((np.abs(p1s[:, 0]) <= b) & (np.abs(p2s[:, 0]) <= b))
        p_exact = (2 * b) ** 2 / ((2 * a) ** 2 * collision_jacobian(eps))
        stderr = np.sqrt(p_exact * (1 - p_exact) / n)
        assert abs(hits - p_exact) < 3 * stderr


class TestSystemState:
    def test_allowed_configuration_1d(self):
        s = SystemState(np.array([[0.0], [1.0]]), np.zeros((2, 1)),
                        sigma=0.5, eps=Inelasticity(0.0))
        assert s.is_allowed()

    def test_overlap_detected(self):
        s = SystemState(np.array([[0.0], [0.3]]), np.zeros((2, 1)),
                        sigma=0.5, eps=Inelasticity(0.0))
        assert not s.is_allowed()

    def test_periodic_minimum_image(self):
        # particles at 0.05 and 0.95 on a unit circle are 0.1 apart
        s = SystemState(np.array([[0.05], [0.95]]), np.zeros((2, 1)),
                        sigma=0.2, eps=Inelasticity(0.0), box=1.0)
        assert s.min_separation() == pytest.approx(0.1)
        assert not s.is_allowed()

    def test_sigma_box_invariant(self):
        with pytest.raises(ValueError):
            SystemState(np.zeros((1, 1)), np.zeros((1, 1)),
                        sigma=0.6, eps=Inelasticity(0.0), box=1.0)


class Counting:
    """A one-particle sampler that is not a UniformMaxwellian, so
    sample_chaotic_state takes its rejection path; counts its draws."""

    def __init__(self, sampler):
        self.sampler, self.calls = sampler, 0

    def sample(self, n, rng):
        self.calls += 1
        return self.sampler.sample(n, rng)


class TestSampleChaoticState:
    def test_single_particle_never_rejected(self):
        rng = np.random.default_rng(11)
        sampler = Counting(UniformMaxwellian(length=1.0))
        s = sample_chaotic_state(1, sampler, 0.4, Inelasticity(0.0),
                                 box=1.0, rng=rng)
        assert s.n == 1 and sampler.calls == 1

    def test_geometric_infeasibility(self):
        # 2 * 0.6 > 1: the forbidden set covers the whole torus; both the
        # gap-insertion and the rejection path refuse before any draw
        rng = np.random.default_rng(12)
        sampler = UniformMaxwellian(length=1.0)
        for path, f1 in (("n\\*sigma", sampler), ("box/2", Counting(sampler))):
            with pytest.raises(SamplingFailureError, match=path):
                sample_chaotic_state(2, f1, 0.6, Inelasticity(0.0), box=1.0,
                                     rng=rng)

    def test_rejection_attempt_budget(self, monkeypatch):
        # thirty spheres of diameter 0.45 fill 1.43 times the volume of a
        # unit 3-torus, yet sigma < box/2, so only the attempt budget ends
        # the loop
        monkeypatch.setattr(core, "_MAX_ATTEMPTS", 50)
        sampler = Counting(UniformMaxwellian(d=3, length=1.0))
        with pytest.raises(SamplingFailureError, match="50 attempts"):
            sample_chaotic_state(30, sampler, 0.45, Inelasticity(0.0),
                                 box=1.0, rng=np.random.default_rng(17))
        assert sampler.calls == 50

    def test_rejection_refuses_overfull_ring_after_one_draw(self):
        # three rods of diameter 0.45 cannot fit on a unit circle although
        # sigma < box/2; the first draw shows the input is 1D
        sampler = Counting(UniformMaxwellian(length=1.0))
        with pytest.raises(SamplingFailureError, match="n\\*sigma"):
            sample_chaotic_state(3, sampler, 0.45, Inelasticity(0.0),
                                 box=1.0, rng=np.random.default_rng(17))
        assert sampler.calls <= 1

    def test_acceptance_probability_two_rods(self):
        # joint rejection acceptance on the circle: 1 - 2*sigma/L
        rng = np.random.default_rng(13)
        sampler = UniformMaxwellian(length=1.0)
        trials = 100_000
        q = rng.uniform(0, 1, size=(trials, 2))
        gap = np.abs(q[:, 0] - q[:, 1])
        gap = np.minimum(gap, 1.0 - gap)
        acc = np.mean(gap >= 0.1)
        p_exact = 1 - 2 * 0.1
        stderr = np.sqrt(p_exact * (1 - p_exact) / trials)
        assert abs(acc - p_exact) < 3 * stderr
        # and the sampler itself must return valid states
        s = sample_chaotic_state(2, Counting(sampler), 0.1, Inelasticity(0.1),
                                 box=1.0, rng=rng)
        assert s.is_allowed()

    def test_direct_matches_rejection_gap_law(self):
        # direct (gap-insertion) and rejection sampling target the same
        # measure; compare the minimum-gap distribution for 3 rods
        rng = np.random.default_rng(14)
        sampler = UniformMaxwellian(length=1.0)
        sig, n, m = 0.05, 3, 4000
        gaps_d, gaps_r = [], []
        for _ in range(m):
            sd = sample_chaotic_state(n, sampler, sig, Inelasticity(0.0),
                                      box=1.0, rng=rng)
            sr = sample_chaotic_state(n, Counting(sampler), sig,
                                      Inelasticity(0.0), box=1.0, rng=rng)
            gaps_d.append(sd.min_separation())
            gaps_r.append(sr.min_separation())
        assert np.mean(gaps_d) == pytest.approx(np.mean(gaps_r), abs=0.01)
        assert min(gaps_d) >= sig and min(gaps_r) >= sig

    def test_momentum_marginal_unbiased(self):
        # conditioning acts on positions only; momenta stay exactly i.i.d.
        rng = np.random.default_rng(15)
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        ps = []
        for _ in range(2000):
            s = sample_chaotic_state(4, Counting(sampler), 0.08,
                                     Inelasticity(0.0), box=1.0, rng=rng)
            ps.append(s.p[:, 0])
        ps = np.concatenate(ps)
        stderr = 1.0 / np.sqrt(ps.size)
        assert abs(ps.mean()) < 3 * stderr
        assert abs(ps.var() - 1.0) < 3 * np.sqrt(2.0) * stderr

    @pytest.mark.parametrize("seed, n, d, sigma, box, pin", [
        (21, 4, 1, 0.08, 1.0,
         "8266447b91561023f7af02031ea3427f0d913d4ff927e044b0b6fc23f868e923"),
        (22, 4, 1, 0.15, None,
         "15859258a9d60922b32128b3f80d7f5df8d9bbbdd2934c0e1cdf931ebe3ac406"),
        (22, 6, 3, 0.3, 1.0,
         "19a38b1693322f23e87be9c9d848b5186de0dcb99fab82855eccfba1d38654a3"),
    ])
    def test_rejection_path_golden(self, seed, n, d, sigma, box, pin):
        # bitwise pin of the accepted state and of the generator's next draw,
        # so the number of rejected attempts is pinned too
        rng = np.random.default_rng(seed)
        sampler = Counting(UniformMaxwellian(d=d, length=1.0))
        s = sample_chaotic_state(n, sampler, sigma, Inelasticity(0.1), box,
                                 rng)
        assert sampler.calls > 1
        assert digest(s.q, s.p, rng.random(4)) == pin

    @pytest.mark.parametrize("seed, n, sigma, box, pin", [
        (23, 64, 0.01, 1.0,
         "fad79626912010a769495b560c85b2c898d0eb1de9ae96111de96e17d0d16d92"),
        (24, 10_000, 0.01, 10_000.0,
         "bbcd61b33a5f0543dd7b1bfef4fad713417c415ec6ffeb60cebbe9a5959b026e"),
    ])
    def test_direct_path_golden(self, seed, n, sigma, box, pin):
        # bitwise pin of the gap-insertion state and the generator's next draw
        rng = np.random.default_rng(seed)
        s = sample_chaotic_state(n, UniformMaxwellian(length=box), sigma,
                                 Inelasticity(0.25), box, rng)
        assert digest(s.q, s.p, rng.random(4)) == pin


class TestGapPositions:
    def test_shapes_and_validity(self):
        # the non-periodic mode: sorted rows, every neighbour gap >= sigma
        rng = np.random.default_rng(16)
        q = _gap_positions(500, 3, 1.0, 0.05, rng)
        assert q.shape == (500, 3)
        assert np.diff(q, axis=1).min() >= 0.05
        assert q.min() >= 0.0 and q.max() < 1.0


def test_unit_normal_validation():
    with pytest.raises(ValueError):
        unit_normal([1.0, 1.0, 0.0])
    np.testing.assert_allclose(unit_normal([0.0, 1.0, 0.0]), [0, 1, 0])
