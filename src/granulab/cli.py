"""Command-line orchestration: seeded runs, JSON configs, CSV/JSON artifacts.

Every subcommand reads a JSON config (defaults are built in, ``--set``
overrides individual keys), checks it against its table in
:mod:`granulab.config`, runs on the checked values, embeds the config as
given and its hash in every artifact, and writes machine-readable outputs
to the ``--out`` directory.  Exit codes: 0 success, 2 config violation, 3
runtime guard abort (with a diagnostic JSON).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import bgl, cumulants, kinetic
from .config import DEFAULTS, check_config
from .core import (
    Inelasticity,
    SystemState,
    UniformMaxwellian,
    _gap_positions,
    collide,
    collision_jacobian,
    dissipation,
    precollide,
    sample_chaotic_state,
)
from .dynamics import Simulation, TrajectoryLog
from .errors import ConfigError, GranulabError


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(subcommand: str, path: str | None, overrides, seed):
    cfg = dict(DEFAULTS[subcommand])
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        for key in user:
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} for "
                                  f"{subcommand!r}")
        cfg.update(user)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r} for {subcommand!r}")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    if seed is not None:
        cfg["seed"] = int(seed)
    # a caller that only parses still has an eps outside [0, 1/2) refused
    check_config(subcommand, {key: cfg[key] for key in ("eps", "eps_list")
                              if key in cfg})
    return cfg


def write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v
                        for v in row])


def _report(given, **extra):
    return {"config": given, "config_hash": config_hash(given),
            "seed": given.get("seed"), **extra}


# -- subcommands -----------------------------------------------------------

def run_simulate(cfg, given, out: Path):
    rng = np.random.default_rng(cfg["seed"])
    eps = Inelasticity(cfg["eps"])
    box = cfg["box"]
    if cfg["positions"] is not None:
        state = SystemState(cfg["positions"], cfg["momenta"], cfg["sigma"],
                            eps, box)
    else:
        sampler = UniformMaxwellian(d=cfg["d"], length=box or 1.0,
                                    temperature=cfg["temperature"])
        state = sample_chaotic_state(cfg["n"], sampler, cfg["sigma"], eps,
                                     box, rng)
    log = TrajectoryLog()
    sim = Simulation(state, log=log, tc_threshold=cfg["tc_threshold"],
                     storm_limit=cfg["storm_limit"])
    times = sorted(set(cfg["snapshot_times"] or [0.0, cfg["t"]]))
    if times[0] < state.time:
        raise ConfigError(f"snapshot times {times} precede the start")
    snaps = []
    for t_target in times:
        sim.run(dt=max(t_target - state.time - sim.t, 0.0))
        snaps.append(sim.state())

    d = state.d
    qcols = ["qx", "qy", "qz"][:d]
    pcols = ["px", "py", "pz"][:d]
    rows = []
    for s in snaps:
        for i in range(s.n):
            rows.append([s.time, i, *map(float, s.q[i]), *map(float, s.p[i])])
    write_csv(out / "snapshots.csv", ["t", "particle", *qcols, *pcols], rows)
    etacols = [f"eta{c}" for c in "xyz"[:d]]
    write_csv(out / "events.csv", ["t", "i", "j", *etacols, "g_n", "dE"],
              [[t, i, j, *map(float, eta), g_n, dE] for t, i, j, eta, g_n, dE
               in zip(log.t, log.i, log.j, log.eta, log.g_n, log.dE)])
    final = snaps[-1]
    write_json(out / "run.json", _report(
        given, n_events=log.n_events, n_stale_pops=sim.n_stale_pops,
        n_tc_elastic=sim.n_tc_elastic,
        total_dissipation=log.total_dissipation(),
        final_energy=final.kinetic_energy(),
        final_momentum=list(map(float, final.total_momentum()))))
    return 0


def run_dsmc(cfg, given, out: Path):
    sampler = UniformMaxwellian(length=1.0, temperature=cfg["temperature"])
    sol = kinetic.solve_limit_equation(
        sampler, cfg["t_end"], Inelasticity(cfg["eps"]), seed=cfg["seed"],
        n_samples=cfg["n_samples"], n_cells=cfg["n_cells"],
        density=cfg["density"],
        snapshot_times=cfg["snapshot_times"] or None,  # [] as in simulate
        q_bins=cfg["q_bins"], p_bins=cfg["p_bins"])
    rows = []
    for h in sol.histograms:
        for qi, pi in np.argwhere(h.counts):
            rows.append([h.time, qi, pi, h.counts[qi, pi], h.sample_weight])
    write_csv(out / "histograms.csv",
              ["t", "q_bin", "p_bin", "count", "weight"], rows)
    write_csv(out / "moments.csv",
              ["t", "mass", "momentum", "energy", "temperature"],
              [list(m) for m in sol.moments])
    write_json(out / "run.json", _report(
        given, final_temperature=sol.moments[-1][4],
        n_steps=len(sol.moments) - 1, dt_halvings=sol.dt_halvings))
    return 0


def _collision_report(cfg) -> dict:
    rng = np.random.default_rng(cfg["seed"])
    cases = cfg["cases"]
    worst = {"momentum": 0.0, "restitution": 0.0, "round_trip": 0.0,
             "dissipation": 0.0}
    for _ in range(cases):
        d = int(rng.choice([1, 3]))
        epsv = float(rng.choice([0.0, 0.1, 0.25, 0.49]))
        eps = Inelasticity(epsv)
        p1, p2 = rng.normal(size=d), rng.normal(size=d)
        eta = rng.normal(size=d)
        eta = eta / np.linalg.norm(eta)
        if eta @ (p1 - p2) < 0:
            eta = -eta
        s1, s2 = collide(p1, p2, eta, eps)
        worst["momentum"] = max(worst["momentum"], float(np.max(np.abs(
            (s1 + s2) - (p1 + p2)))) / max(1.0, float(np.max(np.abs(p1 + p2)))))
        worst["restitution"] = max(worst["restitution"], abs(
            float(eta @ (s1 - s2)) + (1 - 2 * epsv) * float(eta @ (p1 - p2))))
        b1, b2 = precollide(s1, s2, eta, eps)
        worst["round_trip"] = max(worst["round_trip"], float(
            max(np.max(np.abs(b1 - p1)), np.max(np.abs(b2 - p2)))))
        brute = 0.5 * float(s1 @ s1 + s2 @ s2 - p1 @ p1 - p2 @ p2)
        worst["dissipation"] = max(worst["dissipation"], abs(
            dissipation(p1, p2, eta, eps) - brute))
    passed = (worst["momentum"] <= 1e-14 and worst["restitution"] <= 1e-12
              and worst["round_trip"] <= 1e-12
              and worst["dissipation"] <= 1e-12)
    return dict(n_samples=cases, checks=worst, passed=bool(passed),
                jacobian_example=collision_jacobian(Inelasticity(0.25)))


def _generating_check(rng, eps) -> bool:
    """Apply the order-1 generating operator G to sampled rods.

    Its definition, G = S1 - sum_i S(C) (S({i, x}) - I) with S1 the
    scattering cumulant of the cluster C and the extra rod x, implies: no
    terms for a one-rod cluster; G vanishes when x cannot reach C within t;
    elsewhere G equals that difference and is not always zero.  Values are
    term-weighted energies, compared relative to the sum of |terms|.
    """
    t, sigma = 1.0, 0.1

    def value(terms, q, p):
        vals = [c * w * 0.5 * float(np.sum(pp * pp))
                for c, _, pp, w in cumulants._apply_terms(
                    terms, q, p, t, sigma, eps, None, "observable")]
        return sum(vals), sum(map(abs, vals))

    ok = not cumulants.generating_term_list(1, cluster_size=1)
    for s in (2, 3):
        gen = cumulants.generating_term_list(1, cluster_size=s)
        cluster = (frozenset(range(s)),)
        definition = cumulants.scattering_term_list(1, s) + tuple(
            (-c, cluster + ops) for i in range(s)
            for c, ops in ((1, (frozenset((i, s)),)), (-1, ())))
        nonzero = False
        for _ in range(30):
            q = _gap_positions(1, s + 1, 0.5, sigma, rng).reshape(s + 1, 1)
            p = rng.normal(size=(s + 1, 1))
            g, scale = value(gen, q, p)
            ok &= abs(g - value(definition, q, p)[0]) <= 1e-10 * scale
            nonzero |= abs(g) > 1e-10 * scale
            # forward maps keep momenta in the initial range, so C and x
            # each move less than 2*max|p|*t per map
            q[s] = q[s - 1] + sigma + 4.0 * np.abs(p).max() * t + 1.0
            g, scale = value(gen, q, p)
            ok &= abs(g) <= 1e-10 * scale
        ok &= nonzero
    return bool(ok)


def _cumulant_report(cfg) -> dict:
    sums = {}
    for n in range(1, cfg["max_order"]):
        sums[str(n + 1)] = sum(
            t.coefficient for t in cumulants.enumerate_cumulant_terms(n))
    eps = Inelasticity(0.25)
    q = np.array([[0.0], [10.0], [20.0]])
    p = np.array([[1.0], [0.0], [-1.0]])
    b = lambda qq, pp: 0.5 * float(np.sum(pp ** 2))
    vanish = {str(n): cumulants.apply_cumulant(n, 1.0, b, q[:n + 1],
                                               p[:n + 1], 0.1, eps)
              for n in (1, 2)}
    identity_ok = _generating_check(np.random.default_rng(cfg["seed"]), eps)
    passed = (all(v == 0 for v in sums.values())
              and all(abs(v) <= 1e-12 for v in vanish.values())
              and identity_ok)
    return dict(coefficient_sums=sums, vanishing_values=vanish,
                generating_identity=identity_ok, passed=bool(passed))


def _duality_report(cfg) -> dict:
    sampler = UniformMaxwellian(length=1.0, temperature=cfg["temperature"])
    b1 = lambda q, p: 0.5 * p * p
    cells = []
    ss = np.random.SeedSequence(cfg["seed"])
    for e in cfg["eps_list"]:
        for t in cfg["t_list"]:
            for n in cfg["n_list"]:
                sub = np.random.SeedSequence(
                    entropy=ss.entropy,
                    spawn_key=(int(1000 * e), int(1000 * t), n))
                res, err = cumulants.duality_residual(
                    b1, sampler, t, n, cfg["mc_samples"], cfg["sigma"],
                    Inelasticity(e), seed=sub.generate_state(1)[0])
                cells.append({"eps": e, "t": t, "n": n, "residual": res,
                              "stderr": err, "z": res / err})
    max_z = max(abs(c["z"]) for c in cells)
    return dict(n_samples=cfg["mc_samples"], cells=cells, max_abs_z=max_z,
                passed=bool(max_z < 3.0))


def _run_check(make_report, cfg, given, out: Path):
    """Write a check's report; exit 0 when it passed, else 1."""
    report = make_report(cfg)
    write_json(out / "report.json", _report(given, **report))
    return 0 if report["passed"] else 1


def run_enskog_integral(cfg, given, out: Path):
    d = cfg["d"]
    f2 = kinetic.maxwellian_product_f2(cfg["temperature"], d=d)
    x1 = (np.zeros(d), np.asarray(cfg["p1"]))
    value, stderr = kinetic.enskog_collision_integral(
        f2, x1, cfg["sigma"], Inelasticity(cfg["eps"]), cfg["mc_budget"],
        d=d, rng=np.random.default_rng(cfg["seed"]))
    write_json(out / "report.json", _report(
        given, estimate=value, stderr=stderr, n_samples=cfg["mc_budget"]))
    return 0


def run_bgl_study(cfg, given, out: Path, workers: int):
    report = bgl.bg_study(cfg, workers=workers)
    write_json(out / "report.json", _report(
        given, per_sigma=report.per_sigma, verdicts=report.verdicts,
        engine_totals=report.engine_totals))
    write_csv(out / "report.csv", list(report.per_sigma[0]),
              [list(r.values()) for r in report.per_sigma])
    return 0 if all(report.verdicts.values()) else 1


RUNNERS = {
    "simulate": run_simulate,
    "dsmc": run_dsmc,
    "collision-check": partial(_run_check, _collision_report),
    "cumulant-check": partial(_run_check, _cumulant_report),
    "duality": partial(_run_check, _duality_report),
    "enskog-integral": run_enskog_integral,
    "bgl-study": run_bgl_study,
}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="granulab",
        description="granular-gas kinetics laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides")
        sp.add_argument("--threads", type=int, default=_usable_cpus(),
                        help="worker processes for the replicas of "
                             "bgl-study (default: the usable CPUs); never "
                             "affects results")
        sp.add_argument("--verify", action="store_true",
                        help="recompute and print the config hash only")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        given = load_config(args.subcommand, args.config, args.overrides,
                            args.seed)
        cfg = check_config(args.subcommand, given)
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, "
                              f"got {args.threads}")
        if args.verify:
            print(config_hash(given))
            return 0
        out.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "bgl-study":
            return run_bgl_study(cfg, given, out, workers=args.threads)
        return RUNNERS[args.subcommand](cfg, given, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GranulabError as exc:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "abort.json",
                   {"error": type(exc).__name__, "message": str(exc)})
        print(f"runtime guard abort: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
