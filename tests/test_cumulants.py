import tracemalloc

import numpy as np
import pytest

import granulab.cumulants as cm
from granulab.core import Inelasticity, UniformMaxwellian, _gap_positions
from granulab.cumulants import (
    apply_cumulant,
    combine_terms,
    duality_residual,
    enumerate_cumulant_terms,
    generating_term_list,
    marginal_functional_F2,
    scattering_cumulant,
    scattering_term_list,
    set_partitions,
)
from granulab.dynamics import advance, evolve_rods_ensemble
from granulab.errors import ConfigError, EventStormError

from golden import hex_floats

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


def energy(q, p):
    return 0.5 * float(np.sum(np.asarray(p) ** 2))


class TestPartitionCombinatorics:
    def test_partition_counts(self):
        for n in range(1, 6):
            assert len(list(set_partitions(range(n)))) == BELL[n]

    def test_term_counts(self):
        for n in range(0, 6):
            assert len(enumerate_cumulant_terms(n)) == BELL[n + 1]

    def test_order_zero_single_term(self):
        terms = enumerate_cumulant_terms(0)
        assert len(terms) == 1 and terms[0].coefficient == 1

    def test_order_one_coefficients(self):
        coeffs = sorted(t.coefficient for t in enumerate_cumulant_terms(1))
        assert coeffs == [-1, 1]

    def test_order_two_structure(self):
        terms = enumerate_cumulant_terms(2)
        by_nblocks = {}
        for t in terms:
            by_nblocks.setdefault(len(t.blocks), []).append(t.coefficient)
        assert by_nblocks[1] == [1]
        assert by_nblocks[2] == [-1, -1, -1]
        assert by_nblocks[3] == [2]

    def test_coefficient_sums_vanish(self):
        # cumulant normalization: sums are exact integers
        for n in range(1, 6):
            assert sum(t.coefficient for t in enumerate_cumulant_terms(n)) == 0

    def test_order_guard(self):
        with pytest.raises(ConfigError):
            enumerate_cumulant_terms(7)


class TestApplyCumulant:
    eps = Inelasticity(0.25)

    def test_vanishes_at_t0(self):
        q = np.array([[0.0], [1.0], [2.0]])
        p = np.array([[1.0], [0.0], [-1.0]])
        for n in (1, 2):
            val = apply_cumulant(n, 0.0, energy, q, p, 0.1, self.eps)
            assert val == 0.0

    def test_noninteracting_pair_cancels(self):
        # too far apart to collide within t: S2 and S1 S1 agree exactly
        q = np.array([[0.0], [10.0]])
        p = np.array([[1.0], [-1.0]])
        val = apply_cumulant(1, 1.0, energy, q, p, 0.1, self.eps)
        assert abs(val) <= 1e-12

    def test_noninteracting_triple_cancels(self):
        q = np.array([[0.0], [10.0], [20.0]])
        p = np.array([[1.0], [0.0], [-1.0]])
        val = apply_cumulant(2, 1.0, energy, q, p, 0.1, self.eps)
        assert abs(val) <= 1e-12

    def test_two_rod_energy_oracle(self):
        # second-order cumulant of the energy = E_after - E_free; the single
        # event dissipates eps*(1-eps)*g^2 = 0.1875
        q = np.array([[0.0], [1.0]])
        p = np.array([[1.0], [0.0]])
        val = apply_cumulant(1, 1.0, energy, q, p, 0.1, self.eps)
        assert val == pytest.approx(-0.1875, abs=1e-12)

    def test_cluster_size_two_is_plain_evolution(self):
        q = np.array([[0.0], [1.0]])
        p = np.array([[1.0], [0.0]])
        val = apply_cumulant(0, 1.0, energy, q, p, 0.1, self.eps,
                             cluster_size=2)
        assert val == pytest.approx(0.3125, abs=1e-12)


class TestMarginalObservable:
    """Marginal observables of order s <= 2 through ``apply_cumulant``: s=1
    is the order-0 cumulant of b1(x1); s=2 is the order-1 cumulant of
    b1(x1) + b1(x2), plus the order-0 cumulant of b2 on a two-rod cluster."""
    eps = Inelasticity(0.25)
    b1 = staticmethod(lambda qi, pi: 0.5 * float(pi @ pi))

    def additive(self, qq, pp):
        return self.b1(qq[0], pp[0]) + self.b1(qq[1], pp[1])

    def test_additive_s2_matches_cumulant(self):
        q = np.array([[0.0], [1.0]])
        p = np.array([[1.0], [0.0]])
        val = apply_cumulant(1, 1.0, self.additive, q, p, 0.1, self.eps)
        assert val == pytest.approx(-0.1875, abs=1e-12)

    def test_initial_condition(self):
        q = np.array([[0.0], [0.5]])
        p = np.array([[1.0], [-1.0]])
        b2 = lambda qq, pp: float(pp[0] @ pp[1])
        val = (apply_cumulant(1, 0.0, self.additive, q, p, 0.1, self.eps)
               + apply_cumulant(0, 0.0, b2, q, p, 0.1, self.eps,
                                cluster_size=2))
        assert val == pytest.approx(b2(q, p), abs=1e-14)

    def test_s1_free_transport(self):
        q = np.array([[0.0]])
        p = np.array([[2.0]])
        b1 = lambda qq, pp: float(qq[0, 0])
        val = apply_cumulant(0, 1.5, b1, q, p, 0.1, self.eps)
        assert val == pytest.approx(3.0)


class TestScatteringCumulant:
    def test_identity_on_noninteracting(self):
        q = np.array([[0.0], [10.0]])
        p = np.array([[1.0], [-1.0]])
        terms = scattering_cumulant(0, 2.0, q, p, 0.1, Inelasticity(0.2),
                                    cluster_size=2)
        assert len(terms) == 1
        c, qq, pp, w = terms[0]
        assert c == 1 and w == pytest.approx(1.0)
        np.testing.assert_allclose(qq, q, atol=1e-12)
        np.testing.assert_allclose(pp, p, atol=1e-12)

    def test_identity_at_t0(self):
        q = np.array([[0.0], [0.5]])
        p = np.array([[1.0], [-1.0]])
        terms = scattering_cumulant(0, 0.0, q, p, 0.1, Inelasticity(0.2),
                                    cluster_size=2)
        c, qq, pp, w = terms[0]
        assert w == 1.0
        np.testing.assert_array_equal(qq, q)
        np.testing.assert_array_equal(pp, p)

    def test_forbidden_input_zero_weight(self):
        q = np.array([[0.0], [0.05]])
        p = np.array([[1.0], [-1.0]])
        terms = scattering_cumulant(0, 1.0, q, p, 0.1, Inelasticity(0.0),
                                    cluster_size=2)
        assert terms[0][3] == 0.0

    def test_elastic_two_rod_exchange(self):
        # forward interacting flow then backward free flight: momentum labels
        # swap and positions shift to the partner's contact offset
        sigma = 0.1
        q = np.array([[0.0], [1.0]])
        p = np.array([[1.0], [0.0]])
        terms = scattering_cumulant(0, 2.0, q, p, sigma, Inelasticity(0.0),
                                    cluster_size=2)
        c, qq, pp, w = terms[0]
        assert w == pytest.approx(1.0)
        np.testing.assert_allclose(pp[:, 0], [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(qq[:, 0], [1.0 - sigma, 0.0 + sigma],
                                   atol=1e-12)

    def test_inelastic_weight_counts_collisions(self):
        q = np.array([[0.0], [1.0]])
        p = np.array([[1.0], [0.0]])
        eps = Inelasticity(0.25)
        terms = scattering_cumulant(0, 2.0, q, p, 0.1, eps, cluster_size=2)
        assert terms[0][3] == pytest.approx(1.0 / (1.0 - 2 * eps.epsilon))


class TestGeneratingIdentity:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_recurrence_term_by_term(self, s):
        # second-order scattering cumulant = generating operator
        # + cluster scattering composed with one-extra-particle cumulants
        lhs = scattering_term_list(1, cluster_size=s)
        terms = list(generating_term_list(1, cluster_size=s))
        cluster_ops = scattering_term_list(0, cluster_size=s)
        for i in range(s):
            inner = [(1, (frozenset((i, s)),)), (-1, ())]
            for c1, ops1 in cluster_ops:
                for c2, ops2 in inner:
                    terms.append((c1 * c2, ops1 + ops2))
        assert combine_terms(terms) == lhs

    def test_generating_cluster_cancellation(self):
        # all terms cancel on dynamically independent configurations
        q = np.array([[0.0], [0.5], [30.0]])
        p = np.array([[1.0], [-1.0], [0.0]])
        eps = Inelasticity(0.25)
        total = 0.0
        f = lambda qq, pp: float(np.exp(-np.sum(pp ** 2)) + np.sum(qq))
        from granulab.cumulants import _apply_terms
        for coeff, qq, pp, w in _apply_terms(
                generating_term_list(1, cluster_size=2), q, p, 1.0, 0.1, eps,
                None, "state"):
            total += coeff * w * f(qq, pp)
        assert abs(total) <= 1e-10


class TestMarginalFunctionalF2:
    sampler = UniformMaxwellian(length=1.0, temperature=1.0)
    eps = Inelasticity(0.25)

    def x(self, q, p):
        return (np.array([q]), np.array([p]))

    def test_forbidden_zero(self):
        val, err = marginal_functional_F2(1.0, self.sampler,
                                          self.x(0.0, 1.0), self.x(0.05, -1.0),
                                          0.1, self.eps, box=1.0)
        assert val == 0.0

    def test_initial_product(self):
        x1, x2 = self.x(0.1, 0.3), self.x(0.6, -0.2)
        val, err = marginal_functional_F2(0.0, self.sampler, x1, x2,
                                          0.1, self.eps, box=1.0)
        f = lambda p: float(self.sampler.momentum_pdf(np.array([[p]]))[0])
        assert val == pytest.approx(f(0.3) * f(-0.2), rel=1e-12)

    def test_factorizes_when_disconnected(self):
        # opposite-moving, separating pair: no collision can connect them
        x1, x2 = self.x(0.3, -0.4), self.x(0.6, 0.4)
        val, err = marginal_functional_F2(0.2, self.sampler, x1, x2,
                                          0.05, self.eps, box=1.0)
        f = lambda p: float(self.sampler.momentum_pdf(np.array([[p]]))[0])
        assert val == pytest.approx(f(-0.4) * f(0.4), rel=1e-10)

    def test_order1_correction_is_a_small_shift(self):
        # the extra-particle term picks up collisions of a background
        # particle with either argument; at this dilution it is a percent-
        # level correction to the factorized value
        rng = np.random.default_rng(7)
        x1, x2 = self.x(0.3, -0.4), self.x(0.6, 0.4)
        v0, _ = marginal_functional_F2(0.2, self.sampler, x1, x2,
                                       0.05, self.eps, box=1.0)
        v1, err = marginal_functional_F2(0.2, self.sampler, x1, x2,
                                         0.05, self.eps, order=1,
                                         mc_samples=400, rng=rng, box=1.0)
        assert np.isfinite(v1) and err > 0.0
        assert abs(v1 - v0) <= 0.1 * v0

    def order1_at_t1(self, eps, box):
        x1, x2 = self.x(0.3, -0.4), self.x(0.6, 0.4)
        val, err = marginal_functional_F2(
            1.0, self.sampler, x1, x2, 0.05, Inelasticity(eps), order=1,
            mc_samples=200, rng=np.random.default_rng(0), box=box)
        assert np.isfinite(val) and err > 0.0

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "ROADMAP item 15: a composed scattering map meets an overlapping "
        "intermediate configuration"))
    def test_order1_composed_maps_on_a_line(self):
        self.order1_at_t1(0.0, None)

    @pytest.mark.xfail(strict=True, raises=EventStormError, reason=(
        "ROADMAP item 15: the inverse flow of a composed map blows up on "
        "the ring"))
    def test_order1_composed_maps_on_a_ring(self):
        self.order1_at_t1(0.25, 1.0)


class TestDualityResidual:
    sampler = UniformMaxwellian(length=1.0, temperature=1.0)

    def test_zero_at_t0(self):
        res, err = duality_residual(lambda q, p: p * p, self.sampler, 0.0,
                                    2, 2000, 0.02, Inelasticity(0.25), seed=1)
        assert abs(res) <= 1e-15

    def test_momentum_observable(self):
        res, err = duality_residual(lambda q, p: p, self.sampler, 1.0,
                                    3, 5000, 0.02, Inelasticity(0.25), seed=2)
        assert abs(res) < 3 * err

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.25])
    def test_energy_observable(self, n, eps):
        res, err = duality_residual(lambda q, p: 0.5 * p * p, self.sampler,
                                    1.0, n, 5000, 0.02, Inelasticity(eps),
                                    seed=3)
        assert abs(res) < 3 * err

    def test_reads_sampler_length(self):
        # two rods of diameter 0.02 do not fit on the sampler's [0, 0.03)
        with pytest.raises(ConfigError):
            duality_residual(lambda q, p: q, UniformMaxwellian(length=0.03),
                             0.5, 2, 100, 0.02, Inelasticity(0.25), seed=1)

    def test_sides_individually_move(self):
        # with dissipation the coupled estimator is exact even though the
        # time-t energy differs from the initial one
        rng = np.random.default_rng(4)
        q = _gap_positions(4000, 2, 1.0, 0.02, rng)
        p = rng.normal(size=(4000, 2))
        qf, pf, ncol = evolve_rods_ensemble(q, p, 1.0, 0.02,
                                            Inelasticity(0.25))
        e0 = 0.5 * np.sum(p ** 2, axis=1).mean()
        e1 = 0.5 * np.sum(pf ** 2, axis=1).mean()
        assert e1 < e0 - 1e-3 and ncol.sum() > 0


def _rods(seed, n, span, isolated=False, sigma=0.1):
    """``n`` rods with gaps >= sigma on [0, span), also across the wrap;
    with ``isolated`` the last rod is moved beyond any contact within t=1."""
    rng = np.random.default_rng(seed)
    q = np.sort(rng.uniform(0.0, span - n * sigma, size=n)) + sigma * np.arange(n)
    p = rng.normal(size=n)
    if isolated:
        q[-1] = q[-2] + sigma + 2.0 * np.abs(p).max() + 1.0
    return q[:, None], p[:, None]


def _labelled(q, p):
    # depends on which slot holds which particle, so a block result written
    # back to the wrong particles changes the value
    w = np.arange(1, len(q) + 1)[:, None]
    return float(np.sum(w * (q + 0.5 * p * p)))


PINS_cluster = [
    "0x1.9bfd01981ef87p-10", "0x0.0p+0", "0x1.6d5807ed0ecd8p-2",
    "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    "0x0.0p+0",
]
PINS_cluster_labelled = [
    "0x1.8092d312b095ap-1", "0x0.0p+0", "-0x1.1362594814640p-2",
    "0x0.0p+0", "-0x1.2efa9d6b94400p-1", "0x0.0p+0",
    "0x1.0000000000000p-37",
]
PINS_isolated_rod = [
    "0x1.be80b3682d7a5p-1", "0x0.0p+0", "0x0.0p+0",
    "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    "0x0.0p+0",
]
PINS_cluster_size_2 = [
    "0x1.60b4f918f1a20p+0", "0x1.a1ec26e655a80p-4", "-0x1.4ce513fe99300p-2",
    "0x1.070d8273ac180p-1", "0x0.0p+0", "0x0.0p+0",
    "-0x1.1609e526c0000p-2",
]
PINS_box = [
    "0x1.a588d3268d162p-1", "0x0.0p+0", "0x1.169b350da8260p+1",
    "-0x1.5e87cc3598070p+3", "0x1.3dc173253d320p+4", "-0x1.29680ea84e100p+4",
    "0x1.372ad235b5c00p+5",
]
PINS_t0 = [
    "0x1.4d85e11b299b6p-7", "0x0.0p+0", "0x0.0p+0",
    "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    "0x1.0000000000000p-38",
]
PINS_duality = [
    (2, 0.0, ("-0x1.058f5c28f5c29p-56", "0x1.607a30ede7aa0p-46")),
    (2, 0.25, ("-0x1.b25f92c5f92c6p-57", "0x1.450c78029174ap-46")),
    (3, 0.0, ("-0x1.1f92c5f92c5f9p-56", "0x1.ac9b3d521ddadp-46")),
    (3, 0.25, ("0x1.be06d3a06d3a0p-55", "0x1.646bc01619cc8p-46")),
    (4, 0.0, ("0x1.39b4e81b4e81bp-54", "0x1.14cca92c2aaebp-45")),
    (4, 0.25, ("0x1.a4962fc962fc9p-54", "0x1.965213faa4ceap-46")),
]

# (n, eps, t, float.hex of (residual, stderr)) at mc_samples=10**4, seed 7
PINS_duality_grid = [
    (2, 0.0, 0.5, ("-0x1.bbbbc01a36e2fp-60", "0x1.67ddd3453bfd5p-46")),
    (2, 0.0, 2.0, ("-0x1.e207ef9db22d1p-60", "0x1.67ddd3453bfd5p-46")),
    (2, 0.25, 0.5, ("-0x1.c53adab9f559bp-59", "0x1.479b47ec44609p-46")),
    (2, 0.25, 2.0, ("-0x1.5f29a6b50b0f2p-59", "0x1.45dfb623cbfb1p-46")),
    (3, 0.0, 0.5, ("0x1.0de3bcd35a858p-57", "0x1.c31b003b6ecf6p-46")),
    (3, 0.0, 2.0, ("0x1.806594af4f0d8p-58", "0x1.c31b003b6ecf6p-46")),
    (3, 0.25, 0.5, ("0x1.e686594af4f0ep-58", "0x1.7147e24e01c12p-46")),
    (3, 0.25, 2.0, ("0x1.9019652bd3c36p-57", "0x1.6d848937515cep-46")),
]

# (n, float.hex of (residual, stderr)) at mc_samples=3*8192+17, eps=0.25,
# t=2, seed 7: sample counts that span several row blocks of 8192
PINS_duality_blocks = [
    (3, ("-0x1.3428c372b9049p-60", "0x1.6bfc92968a107p-46")),
    (4, ("-0x1.2a1fdfb0636e6p-56", "0x1.8620b1f1b30dcp-46")),
]

GOLDEN_CUMULANTS = {
    # name: (_rods arguments, observable, apply_cumulant keywords,
    #        float.hex of the value at orders 0..6)
    "cluster": ((11, 7, 2.0), energy, {}, PINS_cluster),
    "cluster_labelled": ((14, 7, 1.0), _labelled, {}, PINS_cluster_labelled),
    "isolated_rod": ((12, 7, 2.0, True), energy, {}, PINS_isolated_rod),
    "cluster_size_2": ((13, 8, 1.2), _labelled, {"cluster_size": 2},
                       PINS_cluster_size_2),
    "box": ((14, 7, 1.2), _labelled, {"box": 1.2}, PINS_box),
    "t0": ((11, 7, 1.0), _labelled, {"t": 0.0}, PINS_t0),
}


class TestGoldenPartitionSums:
    """Bitwise pins of the partition-sum estimators.  The values were
    recorded when ``apply_cumulant`` re-evolved every block of every
    partition and ``duality_residual`` filled its per-subset table before
    summing; evaluating each distinct block once, with the same float
    operations summed in the same order, must reproduce them exactly.  The
    eps=0 duality residuals were re-recorded when the rod-ensemble evolver
    took the exchange of ``collide_rods``; their stderr did not move."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CUMULANTS))
    def test_apply_cumulant(self, name):
        rods, b, kwargs, pins = GOLDEN_CUMULANTS[name]
        q, p = _rods(*rods)
        kwargs = dict(kwargs)
        t = kwargs.pop("t", 1.0)
        size = kwargs.get("cluster_size", 1)
        got = [apply_cumulant(k, t, b, q[:size + k], p[:size + k], 0.1,
                              Inelasticity(0.25), **kwargs).hex()
               for k in range(7)]
        assert got == pins

    @pytest.mark.parametrize("n, eps, pins", PINS_duality)
    def test_duality_residual(self, n, eps, pins):
        res, err = duality_residual(lambda q, p: 0.5 * p * p,
                                    UniformMaxwellian(length=1.0), 1.0, n,
                                    300, 0.02, Inelasticity(eps), seed=5)
        assert (res.hex(), err.hex()) == pins

    @pytest.mark.parametrize("n, eps, t, pins", PINS_duality_grid,
                             ids=[f"n{n}-eps{e}-t{t}"
                                  for n, e, t, _ in PINS_duality_grid])
    def test_duality_residual_grid(self, n, eps, t, pins):
        # the residual is rounding residue, so it pins the order in which
        # the partition terms are summed as well as every evolved value
        res, err = duality_residual(lambda q, p: 0.5 * p * p,
                                    UniformMaxwellian(length=1.0), t, n,
                                    10_000, 0.02, Inelasticity(eps), seed=7)
        assert hex_floats(res, err) == pins

    @pytest.mark.parametrize("n, pins", PINS_duality_blocks)
    def test_duality_residual_blocks(self, n, pins):
        res, err = duality_residual(lambda q, p: 0.5 * p * p,
                                    UniformMaxwellian(length=1.0), 2.0, n,
                                    3 * 8192 + 17, 0.02, Inelasticity(0.25),
                                    seed=7)
        assert hex_floats(res, err) == pins

    def test_each_block_evolves_once(self, monkeypatch):
        # an order-6 cumulant on 7 rods sums Bell(7) = 877 partitions, but
        # they share only 2**7 - 1 = 127 distinct blocks
        import granulab.cumulants as cm
        calls = []

        def counting_advance(state, dt, **kwargs):
            calls.append(state.n)
            return advance(state, dt, **kwargs)

        monkeypatch.setattr(cm, "advance", counting_advance)
        q, p = _rods(11, 7, 2.0)
        apply_cumulant(6, 1.0, energy, q, p, 0.1, Inelasticity(0.25))
        assert len(calls) <= 127


class TestDualityRowBlocks:
    """``duality_residual`` evaluates its samples in blocks of
    ``_ROW_BLOCK`` rows.  Each sample's arithmetic is its own, so any block
    size gives the bits of one block holding every sample."""

    @staticmethod
    def residual(m, n=3):
        return duality_residual(lambda q, p: 0.5 * p * p,
                                UniformMaxwellian(length=1.0), 2.0, n, m,
                                0.02, Inelasticity(0.25), seed=11)

    @pytest.mark.parametrize("m", [8191, 8192, 8193, 3 * 8192 + 17])
    def test_block_boundaries(self, m, monkeypatch):
        assert cm._ROW_BLOCK == 8192
        blocked = self.residual(m)
        monkeypatch.setattr(cm, "_ROW_BLOCK", m)
        assert hex_floats(*blocked) == hex_floats(*self.residual(m))

    def test_working_set_is_bounded(self):
        # one block holding all 10**5 samples peaks at about 36 MB
        tracemalloc.start()
        try:
            self.residual(100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
