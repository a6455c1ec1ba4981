"""End-to-end acceptance checks, one per structural claim.

Each test prints a single pass/fail line so a full run doubles as a
report.  Shared expensive runs (energy ledger, duality grid, scaling
study) are module fixtures reused by the determinism check.
"""
import numpy as np
import pytest

from granulab.bgl import bg_study
from granulab.cli import (
    DEFAULTS,
    _collision_report,
    _cumulant_report,
    _duality_report,
)
from granulab.core import Inelasticity, UniformMaxwellian, sample_chaotic_state
from granulab.dynamics import Simulation, TrajectoryLog
from granulab.kinetic import (
    dsmc_init,
    dsmc_step,
    energy_moment_quadrature,
    enskog_collision_integral,
    granular_temperature,
    maxwellian_product_f2,
    solve_limit_equation,
    suggest_dt,
)

DUALITY_CONFIG = dict(DEFAULTS["duality"], seed=99)

BG_CONFIG = {
    "sigma_list": [0.04, 0.02, 0.01],  # x mean free path (1/density = 1)
    "eps": 0.25,
    "t": 1.0,
    "replicas": 32,
    "seed": 2024,
    "n_particles": 10_000,
    "length": 10_000.0,
    "temperature": 1.0,
}


def verdict(label: str, ok: bool) -> bool:
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def run_energy_ledger(seed: int):
    """1D run, N=1000, eps=0.25, 1e5 events; returns (state, log, E0)."""
    rng = np.random.default_rng(seed)
    sampler = UniformMaxwellian(length=100.0, temperature=1.0)
    state = sample_chaotic_state(1000, sampler, 0.01, Inelasticity(0.25),
                                 100.0, rng)
    e0 = state.kinetic_energy()
    log = TrajectoryLog()
    sim = Simulation(state, log=log, tc_threshold=1e-9)
    sim.run(max_events=100_000)
    return sim.state(), log, e0


@pytest.fixture(scope="module")
def energy_ledger():
    return run_energy_ledger(seed=7)


@pytest.fixture(scope="module")
def duality_report():
    return _duality_report(DUALITY_CONFIG)


@pytest.fixture(scope="module")
def bg_report():
    return bg_study(BG_CONFIG)


def collision_moment(d, eps, n_outer, inner, seed):
    """MC moments of the collision integral against a unit Maxwellian.

    Outer samples p1 from the Maxwellian itself, so the importance weight
    is psi(p1) I(p1) / rho(p1); returns dicts of (value, stderr) for the
    mass, momentum (first component) and energy moments.
    """
    rng = np.random.default_rng(seed)
    f2 = maxwellian_product_f2(temperature=1.0, d=d)
    norm = (2.0 * np.pi) ** (d / 2.0)
    samples = {"mass": [], "momentum": [], "energy": []}
    for _ in range(n_outer):
        p1 = rng.normal(size=d)
        val, _ = enskog_collision_integral(
            f2, (np.zeros(d), p1), 0.05, eps, inner, d=d, rng=rng)
        rho = np.exp(-0.5 * p1 @ p1) / norm
        samples["mass"].append(val / rho)
        samples["momentum"].append(p1[0] * val / rho)
        samples["energy"].append(0.5 * (p1 @ p1) * val / rho)
    out = {}
    for key, vals in samples.items():
        vals = np.asarray(vals)
        out[key] = (float(vals.mean()),
                    float(vals.std(ddof=1) / np.sqrt(n_outer)))
    return out


class TestAcceptance:
    def test_1_collision_algebra(self):
        report = _collision_report({"cases": 10_000, "seed": 1})
        assert verdict("1 collision algebra", report["passed"]), \
            report["checks"]

    def test_2_energy_ledger(self, energy_ledger):
        state, log, e0 = energy_ledger
        assert log.n_events == 100_000
        drift = abs((e0 - state.kinetic_energy())
                    - (-log.total_dissipation()))
        ok = drift <= 1e-9 * e0
        assert verdict("2 energy ledger", ok), drift

    def test_3_elastic_degeneracy(self):
        # (a) event-driven elastic rods keep the momentum multiset exactly
        rng = np.random.default_rng(3)
        sampler = UniformMaxwellian(length=50.0, temperature=1.0)
        state = sample_chaotic_state(500, sampler, 0.01, Inelasticity(0.0),
                                     50.0, rng)
        p0 = np.sort(state.p[:, 0].copy())
        sim = Simulation(state)
        sim.run(dt=2.0)
        exact = np.array_equal(np.sort(sim.state().p[:, 0]), p0)

        # (b) DSMC elastic momentum marginal vs initial, chi-square at 1%
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        sol = solve_limit_equation(sampler, 0.5, Inelasticity(0.0), seed=3,
                                   n_samples=100_000, n_cells=16,
                                   p_bins=20)
        m0 = sol.histograms[0].counts.sum(axis=0)
        m1 = sol.histograms[-1].counts.sum(axis=0)
        keep = m0 >= 5
        chi2 = float((((m1 - m0) ** 2)[keep] / m0[keep]).sum())
        # 1% critical value for the available dof, conservative upper bound
        dof = int(keep.sum()) - 1
        critical = dof + 2.33 * np.sqrt(2 * dof) + 4.0
        ok = exact and chi2 < critical
        assert verdict("3 elastic 1D degeneracy", ok), (exact, chi2, dof)

    def test_4_cumulant_combinatorics(self):
        report = _cumulant_report({"max_order": 6, "seed": 0})
        assert verdict("4 cumulant combinatorics", report["passed"]), report

    def test_5_duality(self, duality_report):
        assert verdict("5 observable/state duality",
                       duality_report["passed"]), duality_report["cells"]

    def test_6_collision_integral_moments(self):
        ok = True
        for d, n_outer, inner in ((1, 2500, 200), (3, 1500, 150)):
            mom = collision_moment(d, Inelasticity(0.25), n_outer, inner,
                                   seed=60 + d)
            ok &= abs(mom["mass"][0]) <= 3 * mom["mass"][1]
            ok &= abs(mom["momentum"][0]) <= 3 * mom["momentum"][1]
            ok &= mom["energy"][0] < -3 * mom["energy"][1]

        # 3D elastic Maxwellian: the equilibrium integrand cancels
        f2 = maxwellian_product_f2(temperature=1.0, d=3)
        val, err = enskog_collision_integral(
            f2, (np.zeros(3), np.array([0.4, 0.0, 0.0])), 0.05,
            Inelasticity(0.0), 40_000, d=3, rng=np.random.default_rng(66))
        ok &= abs(val) <= max(3 * err, 1e-15)
        assert verdict("6 collision-integral moments", ok)

    def test_7_dsmc_vs_moment_oracle(self):
        rng = np.random.default_rng(70)
        sampler = UniformMaxwellian(length=1.0, temperature=1.0)
        state = dsmc_init(sampler, 200_000, 1, Inelasticity(0.25), rng)
        t0 = granular_temperature(state)
        worst = 0.0
        while granular_temperature(state) > 0.1 * t0:
            seg_t0 = granular_temperature(state)
            rate_a = energy_moment_quadrature(state.p, state.eps, 1.0)
            elapsed = 0.0
            while granular_temperature(state) > 0.9 * seg_t0:
                dt = suggest_dt(state)
                state = dsmc_step(state, dt, rng)
                elapsed += dt
            rate_b = energy_moment_quadrature(state.p, state.eps, 1.0)
            measured = (granular_temperature(state) - seg_t0) / elapsed
            expected = 0.5 * (rate_a + rate_b)
            worst = max(worst, abs(measured - expected) / abs(expected))
        ok = worst <= 0.05
        assert verdict("7 cooling rate vs quadrature", ok), worst

    def test_8_boltzmann_grad_trend(self, bg_report):
        v = bg_report.verdicts
        ok = v["d1_nonincreasing"] and v["g2_within_2x_floor"]
        assert verdict("8 Boltzmann-Grad trend", ok), bg_report.per_sigma

    def test_9_determinism(self, energy_ledger, duality_report, bg_report):
        state1, log1, _ = energy_ledger
        state2, log2, _ = run_energy_ledger(seed=7)
        ledger_ok = (state1.q.tobytes() == state2.q.tobytes()
                     and state1.p.tobytes() == state2.p.tobytes()
                     and log1.n_events == log2.n_events)
        one_cell = _duality_report(dict(DUALITY_CONFIG, eps_list=[0.25],
                                        t_list=[2.0], n_list=[3]))["cells"]
        duality_ok = one_cell[0] in duality_report["cells"]
        # the rerun runs its replicas on two worker processes
        bg_ok = (bg_study(BG_CONFIG, workers=2).per_sigma
                 == bg_report.per_sigma)
        ok = ledger_ok and duality_ok and bg_ok
        assert verdict("9 determinism", ok), (ledger_ok, duality_ok, bg_ok)
