import numpy as np
import pytest

from granulab.core import Inelasticity, UniformMaxwellian
from granulab.errors import ConfigError, DtGuardError
from granulab.kinetic import (
    DsmcState,
    PhaseHistogram,
    dsmc_init,
    dsmc_moments,
    dsmc_step,
    energy_moment_quadrature,
    enskog_collision_integral,
    granular_temperature,
    maxwellian_product_f2,
    solve_limit_equation,
    _by_cell,
    _collide_in_rounds,
    suggest_dt,
)

from golden import digest, hex_floats


# (d, eps, budget, p1, seed offset, float.hex of (value, stderr, the
# generator's next uniform draw)) at q1 = 0.3, sigma = 0.05, a unit Maxwellian
ENSKOG_PINS = [
    (1, 0.0, 2, [0.0], 0,
     ("0x0.0p+0", "0x0.0p+0", "0x1.e24378b8e00b2p-1")),
    (1, 0.0, 2, [-0.7], 1,
     ("0x0.0p+0", "0x0.0p+0", "0x1.01fcf36daa090p-3")),
    (1, 0.0, 2, [1.3], 2,
     ("0x1.d19947ac514d9p-56", "0x1.d19947ac514d8p-56",
      "0x1.b79a2584ddb42p-1")),
    (1, 0.0, 200, [0.0], 0,
     ("0x0.0p+0", "0x0.0p+0", "0x1.58c59c3b50f0ap-1")),
    (1, 0.0, 200, [-0.7], 1,
     ("0x1.707d2b108f9b3p-56", "0x1.10df5ef10cf3cp-57",
      "0x1.b23554510bf5ap-2")),
    (1, 0.0, 200, [1.3], 2,
     ("-0x1.4e58d6cea622ep-58", "0x1.018857f42a26ap-57",
      "0x1.c8aa0df799840p-7")),
    (1, 0.25, 2, [0.0], 0,
     ("-0x1.02316d0892c5ap-2", "0x1.efa8c492e2997p-7",
      "0x1.e24378b8e00b2p-1")),
    (1, 0.25, 2, [-0.7], 1,
     ("0x1.f3b2de3ea69b6p-5", "0x1.0aa4d5e4b86f1p-3", "0x1.01fcf36daa090p-3")),
    (1, 0.25, 2, [1.3], 2,
     ("0x1.21d9d4aca3c92p-4", "0x1.327d53e497c1ap-2", "0x1.b79a2584ddb42p-1")),
    (1, 0.25, 200, [0.0], 0,
     ("0x1.642045e25096ep-3", "0x1.cc83904b021dap-6", "0x1.58c59c3b50f0ap-1")),
    (1, 0.25, 200, [-0.7], 1,
     ("0x1.6fa7c23c2654fp-4", "0x1.aa0787a34fd68p-6", "0x1.b23554510bf5ap-2")),
    (1, 0.25, 200, [1.3], 2,
     ("-0x1.2cd6e57e18a95p-4", "0x1.3d8476bdb323ep-6",
      "0x1.c8aa0df799840p-7")),
    (3, 0.0, 2, [0.0, 0.0, 0.0], 0,
     ("-0x1.fc95f88bacca7p-63", "0x1.7be46ba5c6bdfp-63",
      "0x1.5ac1c346154d0p-5")),
    (3, 0.0, 2, [0.3, -1.2, 0.5], 1,
     ("0x1.ad441c59502c9p-64", "0x1.3bff8545e1bf9p-64",
      "0x1.59eea341affe6p-2")),
    (3, 0.0, 2, [1.5, 0.2, -0.4], 2,
     ("-0x1.bdc8f2e74b250p-71", "0x1.bdc8f2e74b250p-71",
      "0x1.49a8b06390299p-1")),
    (3, 0.0, 200, [0.0, 0.0, 0.0], 0,
     ("0x1.f372a3292ef33p-65", "0x1.518e9ce5356c9p-65",
      "0x1.baca615f0cea7p-1")),
    (3, 0.0, 200, [0.3, -1.2, 0.5], 1,
     ("-0x1.0325725be1379p-64", "0x1.1a26e6d6c5fd6p-64",
      "0x1.91a845259dafap-1")),
    (3, 0.0, 200, [1.5, 0.2, -0.4], 2,
     ("-0x1.1d60db99d0a21p-67", "0x1.2fdf7a3091263p-64",
      "0x1.a7e7d5db51664p-3")),
    (3, 0.25, 2, [0.0, 0.0, 0.0], 0,
     ("-0x1.caa3bd0b4ef8ap-14", "0x1.9c6a397feab0cp-13",
      "0x1.5ac1c346154d0p-5")),
    (3, 0.25, 2, [0.3, -1.2, 0.5], 1,
     ("0x1.669a543c8700dp-13", "0x1.46c1d95db0006p-13",
      "0x1.59eea341affe6p-2")),
    (3, 0.25, 2, [1.5, 0.2, -0.4], 2,
     ("-0x1.413d1b6c73cc4p-14", "0x1.3e98ac9e5313dp-14",
      "0x1.49a8b06390299p-1")),
    (3, 0.25, 200, [0.0, 0.0, 0.0], 0,
     ("0x1.dee502eac95c0p-12", "0x1.99d3ba3624527p-14",
      "0x1.baca615f0cea7p-1")),
    (3, 0.25, 200, [0.3, -1.2, 0.5], 1,
     ("-0x1.5db2c64de0740p-17", "0x1.d3d94fdcce2d4p-15",
      "0x1.91a845259dafap-1")),
    (3, 0.25, 200, [1.5, 0.2, -0.4], 2,
     ("-0x1.7aedd97febb3dp-14", "0x1.885133269eb24p-15",
      "0x1.a7e7d5db51664p-3")),
]


class TestEnskogIntegral:
    def test_zero_density(self):
        f2 = lambda q1, p1, q2, p2: np.zeros(np.atleast_2d(p1).shape[0])
        val, err = enskog_collision_integral(
            f2, (np.array([0.0]), np.array([0.5])), 0.1, Inelasticity(0.25),
            mc_budget=500, rng=np.random.default_rng(0))
        assert val == 0.0 and err == 0.0

    def test_column_density_rejected(self):
        # an (m, 1) result would broadcast against the (m,) weights into an
        # (m, m) sum: 15.9 +- 16.3 here instead of about 0.119 +- 0.012
        f2 = maxwellian_product_f2(temperature=1.0, d=1)
        column = lambda q1, p1, q2, p2: f2(q1, p1, q2, p2)[:, None]
        with pytest.raises(ConfigError, match="shape"):
            enskog_collision_integral(
                column, (np.array([0.0]), np.array([0.5])), 0.1,
                Inelasticity(0.25), mc_budget=1000,
                rng=np.random.default_rng(0))

    def test_elastic_1d_uniform_vanishes_pointwise(self):
        # elastic 1D pre-collision momenta are the swapped pair, so for a
        # spatially uniform product density gain equals loss sample by sample
        f2 = maxwellian_product_f2(temperature=1.0, d=1)
        val, err = enskog_collision_integral(
            f2, (np.array([0.0]), np.array([0.7])), 0.05, Inelasticity(0.0),
            mc_budget=2000, rng=np.random.default_rng(1))
        assert abs(val) <= 1e-14

    def test_elastic_3d_maxwellian_within_noise(self):
        # elastic collisions conserve the pair energy, so the equilibrium
        # integrand cancels sample by sample up to rounding
        f2 = maxwellian_product_f2(temperature=1.0, d=3)
        val, err = enskog_collision_integral(
            f2, (np.zeros(3), np.array([0.3, 0.0, 0.0])), 0.05,
            Inelasticity(0.0), mc_budget=40_000, d=3,
            rng=np.random.default_rng(2))
        assert abs(val) <= max(3 * err, 1e-15)

    def test_offset_independence_uniform_1d(self):
        f2 = maxwellian_product_f2(temperature=1.0, d=1)
        x1 = (np.array([0.0]), np.array([0.9]))
        rng = np.random.default_rng(3)
        v1, e1 = enskog_collision_integral(f2, x1, 0.1, Inelasticity(0.25),
                                           mc_budget=40_000, rng=rng)
        v2, e2 = enskog_collision_integral(f2, x1, 0.05, Inelasticity(0.25),
                                           mc_budget=40_000, rng=rng)
        assert abs(v1 - v2) <= 3 * np.hypot(e1, e2)

    @pytest.mark.parametrize("d, eps, budget, p1, k, pins", ENSKOG_PINS,
                             ids=[f"d{d}-eps{e}-m{b}-{k}"
                                  for d, e, b, _, k, _ in ENSKOG_PINS])
    def test_golden(self, d, eps, budget, p1, k, pins):
        # bitwise pin of the estimate and of the draws it consumed
        rng = np.random.default_rng(40 + k)
        value, stderr = enskog_collision_integral(
            maxwellian_product_f2(temperature=1.0, d=d),
            (np.full(d, 0.3), np.array(p1)), 0.05, Inelasticity(eps),
            budget, d=d, rng=rng)
        assert hex_floats(value, stderr, rng.random()) == pins


class TestDsmc:
    def make_state(self, n=2000, seed=10, eps=0.25, temp=1.0, cells=8):
        rng = np.random.default_rng(seed)
        sampler = UniformMaxwellian(length=1.0, temperature=temp)
        return dsmc_init(sampler, n, cells, Inelasticity(eps), rng), rng

    def test_dt_zero_identity(self):
        state, rng = self.make_state()
        out = dsmc_step(state, 0.0, rng)
        np.testing.assert_array_equal(out.q, state.q)
        np.testing.assert_array_equal(out.p, state.p)

    def test_streaming_periodic(self):
        state = DsmcState(np.array([0.9]), np.array([1.0]), 1.0, 4,
                          Inelasticity(0.0), weight=1.0)
        out = dsmc_step(state, 0.2, np.random.default_rng(0))
        assert out.q[0] == pytest.approx(0.1)

    def test_mass_momentum_conserved(self):
        state, rng = self.make_state()
        dt = suggest_dt(state)
        out = state
        for _ in range(5):
            out = dsmc_step(out, dt, rng)
        m0 = dsmc_moments(state)
        m1 = dsmc_moments(out)
        assert m1[0] == m0[0]
        assert m1[1] == pytest.approx(m0[1], abs=1e-12 * state.n_samples)

    def test_elastic_momentum_multiset_invariant(self):
        # every accepted pair exchanges its momenta: a permutation, bitwise
        state, rng = self.make_state(eps=0.0)
        out = state
        for _ in range(5):
            out = dsmc_step(out, suggest_dt(out), rng)
        assert np.count_nonzero(out.p != state.p) > 100
        assert np.sort(out.p).tobytes() == np.sort(state.p).tobytes()

    def test_inelastic_cooling_monotone(self):
        state, rng = self.make_state(eps=0.25, cells=1, n=4000)
        temps = [granular_temperature(state)]
        for _ in range(8):
            state = dsmc_step(state, suggest_dt(state), rng)
            temps.append(granular_temperature(state))
        assert all(b < a for a, b in zip(temps, temps[1:]))

    def test_two_beam_pair_collides_to_half_momenta(self):
        # opposite unit beams: the accepted collision yields -0.5, +0.5 and
        # a quarter of the initial temperature
        state = DsmcState(np.array([0.25, 0.75]), np.array([1.0, -1.0]),
                          1.0, 1, Inelasticity(0.25), weight=0.05)
        rng = np.random.default_rng(11)
        t0 = granular_temperature(state)
        for _ in range(200):
            state = dsmc_step(state, 0.5, rng)
            if not np.allclose(np.abs(state.p), 1.0):
                break
        np.testing.assert_allclose(np.sort(state.p), [-0.5, 0.5], atol=1e-12)
        assert granular_temperature(state) == pytest.approx(0.25 * t0)

    def test_dt_guard(self):
        state, rng = self.make_state(n=2000, cells=1)
        with pytest.raises(DtGuardError):
            dsmc_step(state, 100.0 * suggest_dt(state), rng)

    def test_dt_guard_before_any_draw(self):
        # cell 0 is cold and would draw; cell 1 trips the guard
        rng = np.random.default_rng(14)
        q = np.concatenate([rng.uniform(0.2, 0.3, 100),
                            rng.uniform(0.7, 0.8, 100)])
        p = np.concatenate([rng.uniform(-0.01, 0.01, 100),
                            rng.uniform(-5.0, 5.0, 100)])
        state = DsmcState(q, p, 1.0, 2, Inelasticity(0.25), weight=0.01)
        before = rng.bit_generator.state
        with pytest.raises(DtGuardError, match="^cell 1: "):
            dsmc_step(state, 0.02, rng)
        assert rng.bit_generator.state == before
        assert state.time == 0.0
        np.testing.assert_array_equal(state.q, q)
        np.testing.assert_array_equal(state.p, p)

    def test_non_finite_dt_rejected(self):
        state, rng = self.make_state()
        for dt in (-1.0, np.inf, np.nan):
            with pytest.raises(ConfigError):
                dsmc_step(state, dt, rng)

    def test_collisions_stay_within_cell_span(self):
        # each post-collision momentum mixes the pair's two momenta, so no
        # cell's momentum span grows within a step: the majorant holds
        state, rng = self.make_state(n=3000, cells=16, eps=0.25)
        cell_len = state.length / state.n_cells
        for _ in range(20):
            dt = suggest_dt(state)
            streamed = np.mod(state.q + state.p * dt, state.length)
            out = dsmc_step(state, dt, rng)
            np.testing.assert_array_equal(out.q, streamed)
            cells = np.minimum((streamed / cell_len).astype(int),
                               state.n_cells - 1)
            for c in range(state.n_cells):
                pre, post = state.p[cells == c], out.p[cells == c]
                if pre.size > 1:
                    vmax = pre.max() - pre.min()
                    assert post.max() - post.min() <= vmax * (1 + 1e-12)
            state = out

    def test_rounds_match_pair_by_pair_loop(self):
        # 400 candidates on 12 samples: long dependency chains; the loop
        # kicks at eps > 0 and exchanges the momenta at eps = 0
        rng = np.random.default_rng(15)
        p0 = rng.normal(size=12)
        a = rng.integers(0, 12, size=400)
        b = (a + rng.integers(1, 12, size=400)) % 12
        u = rng.random(400)
        vmax = np.full(400, p0.max() - p0.min())
        for eps in (0.25, 0.0):
            expect = p0.copy()
            for ak, bk, uk, vk in zip(a, b, u, vmax):
                dp = expect[ak] - expect[bk]
                if uk >= abs(dp) / vk:
                    continue
                if eps == 0.0:
                    expect[ak], expect[bk] = expect[bk], expect[ak]
                else:
                    expect[ak] -= (1.0 - eps) * dp
                    expect[bk] += (1.0 - eps) * dp
            got = p0.copy()
            _collide_in_rounds(got, a, b, u, vmax, eps)
            np.testing.assert_array_equal(got, expect)
            if eps == 0.0:
                np.testing.assert_array_equal(np.sort(got), np.sort(p0))


    @pytest.mark.parametrize("q0, p0", [(np.nan, 0.3), (0.5, np.nan),
                                        (0.5, np.inf)],
                             ids=["nan_q", "nan_p", "inf_p"])
    def test_non_finite_samples_rejected(self, q0, p0):
        rng = np.random.default_rng(16)
        q, p = rng.random(50), rng.normal(size=50)
        q[7], p[7] = q0, p0
        state = DsmcState(q, p, 1.0, 4, Inelasticity(0.25), weight=0.02)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match="finite"):
            suggest_dt(state)
        with pytest.raises(ConfigError, match="finite"):
            dsmc_step(state, 0.01, rng)
        assert rng.bit_generator.state == before
        assert state.time == 0.0
        np.testing.assert_array_equal(state.q, q)
        np.testing.assert_array_equal(state.p, p)

    def test_temperature_degenerate(self):
        state = DsmcState(np.array([0.5]), np.array([0.0]), 1.0, 1,
                          Inelasticity(0.0), weight=1.0)
        with pytest.raises(ConfigError):
            granular_temperature(state)


def stable_argsort_by_cell(q, length, n_cells):
    """By-cell order, counts and starts from a stable argsort of the cells."""
    x = q / (length / n_cells)
    np.clip(x, 0, n_cells - 1, out=x)
    cells = x.astype(np.intp)
    counts = np.bincount(cells, minlength=n_cells)
    return (np.argsort(cells, kind="stable"), counts,
            np.cumsum(counts) - counts)


class TestByCell:
    """The one-sort by-cell order equals a stable argsort of the cells."""

    def check(self, q, length, n_cells):
        q = np.asarray(q, dtype=float)
        got = _by_cell(q, length, n_cells)
        expect = stable_argsort_by_cell(q, length, n_cells)
        for g, e in zip(got, expect):
            np.testing.assert_array_equal(g, e)
        return got

    def test_two_samples(self):
        self.check([0.7, 0.2], 1.0, 4)
        self.check([0.2, 0.2], 1.0, 4)

    def test_one_cell(self):
        self.check(np.random.default_rng(17).random(1001), 1.0, 1)

    def test_mostly_empty_cells(self):
        self.check(np.random.default_rng(18).random(5) * 3.0, 3.0, 1000)

    @pytest.mark.parametrize("length, n_cells", [(1.0, 4), (3.0, 7),
                                                 (0.1, 10)])
    def test_edge_positions(self, length, n_cells):
        ulp_below = np.nextafter(length, 0.0)
        q = [ulp_below, -0.0, 0.0, 0.5 * length, ulp_below, 0.0, -0.0]
        _, counts, _ = self.check(q, length, n_cells)
        assert counts[0] == 4 and counts[-1] == 2

    def test_outside_positions_clip_to_end_cells(self):
        q = [-0.5, 1.5, 0.3, 1e300, -1e300, 1.0, -1e-300, 0.99]
        state = DsmcState(q, np.zeros(8), 1.0, 5, Inelasticity(0.25),
                          weight=0.1)
        _, counts, _ = self.check(state.q, state.length, state.n_cells)
        np.testing.assert_array_equal(counts, [3, 1, 0, 0, 4])

    @pytest.mark.parametrize("n_cells", [16383, 16384])
    def test_key_width_around_2_pow_31(self, n_cells):
        # 2**17 samples: b = 17, so n_cells << b is 2**31 - 2**17 (int32
        # keys) or 2**31 (int64 keys)
        q = np.random.default_rng(19).random(2 ** 17)
        q[:3] = [0.0, np.nextafter(1.0, 0.0), 0.5]
        self.check(q, 1.0, n_cells)


class TestDsmcGolden:
    """Bitwise pins of DSMC runs: ``steps`` rounds of ``suggest_dt`` plus
    ``dsmc_step``.  The digests were recorded from the per-pair loop form of
    ``dsmc_step``; an implementation that makes the same draws and applies
    every collision with the same float operations in dependency order must
    reproduce them exactly.  The third digest covers the dt sequence and the
    generator's next four draws, so it pins the random stream.  The q and p
    digests of the elastic case were re-recorded when the rounds took the
    exchange of ``collide_rods`` at eps=0; its dt digest did not move."""

    @pytest.mark.parametrize(
        "seed, n, cells, eps, steps, safety, q_digest, p_digest, dt_digest", [
            (41, 20000, 64, 0.25, 20, 0.5,
             "bdd43ab40e29f5db1c4438ab71fdadbce5a1bc8c0d17b0c35f702f1808ac5067",
             "1e25454878f4ffbb20a3947778ffeb1e38be85e65efcce9dc101c27c5a12739c",
             "efe42ed04a28fe024df87a659b9e26515ff9e6a09feae34a16baa5a0e1e9e4b1"),
            (42, 20000, 8, 0.25, 20, 0.5,
             "efe4d94c02815ccf17242a8f8b9dae7a2154d52a9749977b03352aeec3c56872",
             "356d802186dda2b037441cf1024c2595055a617f5dde4ac1bf2df192373deb99",
             "cd5700c7a29b4eede536851a1ae8c6c18828966a8cff668520f41bf2b905283a"),
            (43, 20000, 1, 0.25, 10, 0.5,
             "8564df749a072f2461b643eb2be5136f46766f3a16da5fd2b17577936e85d296",
             "56b3497c152b2f007487ed15db92e789d409bd70fd4ebfb971dbc732b056d1a7",
             "7aa90d3299f409f17cb09673b775219854b35c1d3f3e946333fca4a7df6cb72a"),
            (44, 20000, 16, 0.0, 20, 0.5,
             "520b7d3c197e77fb230011df131b3c9dcf08c2f3d1743b7caac9787d454695ec",
             "7fb9049b5b3fcf81c951f27fe4a20c8ccf2ad44cfafb4e84bf4d7d1cfc3eb665",
             "4f56d8e9a48b3844333a8fe493d60541f065781eb29ce27e70212522131399d3"),
            (45, 5000, 3, 0.25, 20, 0.5,
             "7207caff78caf35c93838317e74032d81e70fff882bbaaa2d1e9fdeaaab9c1b5",
             "e77d0ea60bc235655a14130345ebc0656c8551f56d48b574dc744d4794bfbb30",
             "1036495b6cd564b550b72bf270acb9cb8f15ae624cbb2cd3098bb5181df79e19"),
            (46, 300, 64, 0.25, 20, 0.5,
             "32155d3a0a2e30e3e399ae2e5f8dd5275ba52201c1bb181ebb487929638ed75e",
             "e6283c7636c448b7f5ef3b121b10f8179c35f276ef80e164fb3984bd7045856c",
             "3c02a2782e0db085ddbde4edb51ee5f16b7987e25c167595a52c90171a480f6f"),
            (47, 2000, 1, 0.1, 20, 0.9,
             "460024e3b252925edda354dafa09fb23973ea7476efd6a5f2bcd106375fae670",
             "4ef6b0c4f1b90b0022e4c7581bcec4d67dff6f53c15ee2596df5b599a3c033de",
             "750ef4f310ce2db4ed3c5db59bb0c5d96fd5cfbe64e477f779f7361aa68d3472"),
            # n_cells << bit_length(n - 1) = 2**31: a by-cell key of the
            # cell and the sample index needs more than 32 bits
            (49, 131072, 16384, 0.25, 10, 0.5,
             "9ea138d3fbf7c460f6a763013eb5c10079116e5bdf21470ef9c95e46f0b95f77",
             "577bf5d62a5e123c164f9c8dd5c61020564a47696a2b500f39de180f8e0663f9",
             "e0c461cc198c12c5623cd4072ddb76b2b8f1880ce1438852b6989283fa97cd9b"),
            (50, 100003, 16384, 0.25, 5, 0.5,
             "6bbf41e16b53ef63b90bc2f648e57b9fbe64583e7b93f4b36ede2c7a78903047",
             "076371e552cf3e34b29414c49af634ad60b8a362768c1c51814fe4bacb1329d3",
             "e181f2b5e889208e5474406431e614cd6ddd2abdef219bb72448cf2204f508d7"),
            (51, 4097, 7, 0.25, 20, 0.5,
             "581852e3ee1c44d5594e69069de91be308aab8204a9a9b88e980c47507d5146f",
             "48a8c38c04bc87ac06a083d458a2eacd54e391d796b30360c7253df0d091de3d",
             "0840d1e9131dd41911a236d8e5efbb42fc922bf83a430946c3fa01c8883296c1"),
        ], ids=["cells64", "cells8", "one_cell", "elastic", "sparse",
                "few_per_cell", "near_guard", "wide_key", "wide_key_odd_n",
                "pow2_plus_one"])
    def test_digests(self, seed, n, cells, eps, steps, safety, q_digest,
                     p_digest, dt_digest):
        rng = np.random.default_rng(seed)
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        state = dsmc_init(sampler, n, cells, Inelasticity(eps), rng)
        dts = []
        for _ in range(steps):
            dts.append(suggest_dt(state, safety=safety))
            state = dsmc_step(state, dts[-1], rng)
        assert digest(state.q) == q_digest
        assert digest(state.p) == p_digest
        assert digest(np.array(dts), rng.random(4)) == dt_digest


class TestDsmcStepState:
    def test_streaming_matches_mod(self):
        # -0.0 (np.mod makes it +0.0), a tiny negative that np.mod maps to
        # exactly L, a landing on exactly L, flights beyond 2L either way,
        # and positions that stay inside
        q = np.array([-0.0, 0.0, 0.25, 0.1, 0.9, 0.3, 0.6, 0.999])
        p = np.array([-0.0, -1e-20, 0.75, 2.7, -3.3, 0.1, -0.2, 0.0])
        state = DsmcState(q, p, 1.0, 4, Inelasticity(0.25), weight=1e-9)
        out = dsmc_step(state, 1.0, np.random.default_rng(0))
        expect = np.mod(q + p * 1.0, 1.0)
        assert expect[1] == 1.0 and not np.signbit(expect[0])
        assert out.q.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("seed, n, cells, eps, steps, safety", [
        (41, 20000, 64, 0.25, 20, 0.5), (42, 20000, 8, 0.25, 20, 0.5),
        (43, 20000, 1, 0.25, 10, 0.5), (44, 20000, 16, 0.0, 20, 0.5),
        (45, 5000, 3, 0.25, 20, 0.5), (46, 300, 64, 0.25, 20, 0.5),
        (47, 2000, 1, 0.1, 20, 0.9)],
        ids=["cells64", "cells8", "one_cell", "elastic", "sparse",
             "few_per_cell", "near_guard"])
    def test_suggest_dt_reuses_step_cells(self, seed, n, cells, eps, steps,
                                          safety):
        # the by-cell order a step leaves on its state gives the dt a copy
        # or a fresh state gives, on the golden DSMC configurations
        rng = np.random.default_rng(seed)
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        state = dsmc_init(sampler, n, cells, Inelasticity(eps), rng)
        for _ in range(steps):
            state = dsmc_step(state, suggest_dt(state, safety=safety), rng)
            fresh = DsmcState(state.q.copy(), state.p.copy(), state.length,
                              state.n_cells, state.eps, state.weight)
            dt = suggest_dt(state, safety=safety)
            assert dt == suggest_dt(state.copy(), safety=safety)
            assert dt == suggest_dt(fresh, safety=safety)

    def test_step_positions_cannot_go_stale(self):
        rng = np.random.default_rng(48)
        state = dsmc_init(UniformMaxwellian(length=1.0), 2000, 8,
                          Inelasticity(0.25), rng)
        out = dsmc_step(state, suggest_dt(state), rng)
        with pytest.raises(ValueError):
            out.q[0] = 0.5
        copied = out.copy()
        copied.q[0] = 0.5  # a copy is writable
        # positions replaced wholesale: the step's cell order no longer applies
        out.q = np.mod(out.q + 0.37, 1.0)
        fresh = DsmcState(out.q.copy(), out.p.copy(), out.length,
                          out.n_cells, out.eps, out.weight)
        assert suggest_dt(out) == suggest_dt(fresh)


class TestSolveLimitEquation:
    def test_uniform_stays_uniform(self):
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        sol = solve_limit_equation(sampler, 0.3, Inelasticity(0.25), seed=5,
                                   n_samples=20_000, n_cells=16, q_bins=8)
        h = sol.histograms[-1]
        spatial = h.counts.sum(axis=1)
        expect = spatial.mean()
        chi2 = float(((spatial - expect) ** 2 / expect).sum()
                     / h.sample_weight)
        # 7 dof at the 1e-3 level
        assert chi2 < 24.3

    def test_elastic_momentum_marginal_invariant(self):
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        sol = solve_limit_equation(sampler, 0.3, Inelasticity(0.0), seed=6,
                                   n_samples=20_000, n_cells=16)
        m0 = sol.histograms[0].counts.sum(axis=0)
        m1 = sol.histograms[-1].counts.sum(axis=0)
        np.testing.assert_allclose(m0, m1, atol=1e-12)

    def test_halves_dt_when_streaming_trips_guard(self):
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        sol = solve_limit_equation(sampler, 1.0, Inelasticity(0.1), seed=1,
                                   n_samples=50, n_cells=16)
        assert sol.final_state.time == pytest.approx(1.0)
        assert sol.dt_halvings > 0
        mom = np.array([m[2] for m in sol.moments])
        assert np.max(np.abs(mom - mom[0])) <= 1e-12 * len(sol.moments)

    def test_total_momentum_constant(self):
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        sol = solve_limit_equation(sampler, 0.3, Inelasticity(0.25), seed=7,
                                   n_samples=10_000, n_cells=8)
        mom = np.array([m[2] for m in sol.moments])
        assert np.max(np.abs(mom - mom[0])) <= 1e-12 * len(sol.moments)


class TestEnergyMomentQuadrature:
    def test_gaussian_closed_form(self):
        rng = np.random.default_rng(12)
        temp = 0.7
        p = rng.normal(0.0, np.sqrt(temp), size=200_000)
        eps = Inelasticity(0.25)
        got = energy_moment_quadrature(p, eps, number_density=1.0)
        expect = (-eps.epsilon * (1 - eps.epsilon) * (2 * temp) ** 1.5
                  * 2.0 * np.sqrt(2.0 / np.pi))
        assert got == pytest.approx(expect, rel=0.02)

    def test_matches_dsmc_cooling_rate(self):
        rng = np.random.default_rng(13)
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        state = dsmc_init(sampler, 40_000, 1, Inelasticity(0.25), rng)
        t0 = granular_temperature(state)
        rate = energy_moment_quadrature(state.p, state.eps, 1.0)
        dt_total, steps = 0.0, 0
        while dt_total < 0.05:
            dt = min(suggest_dt(state), 0.05 - dt_total)
            state = dsmc_step(state, dt, rng)
            dt_total += dt
            steps += 1
        t1 = granular_temperature(state)
        measured = (t1 - t0) / dt_total
        assert measured == pytest.approx(rate, rel=0.1)


class TestPhaseHistogram:
    def test_total_weight(self):
        h = PhaseHistogram.from_samples([0.1, 0.2, 0.7], [0.0, 1.0, -1.0],
                                        np.linspace(0, 1, 5),
                                        np.linspace(-2, 2, 9),
                                        sample_weight=2.0)
        assert h.counts.sum() == pytest.approx(6.0)

    def test_bad_edges(self):
        with pytest.raises(ConfigError):
            PhaseHistogram(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0]),
                           np.zeros((2, 1)))
