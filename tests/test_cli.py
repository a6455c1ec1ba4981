import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import granulab
from granulab import bgl, cumulants
from granulab.cli import build_parser, config_hash, load_config, main
from granulab.errors import ConfigError, EventStormError


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_and_override(self):
        cfg = load_config("dsmc", None, ["eps=0.1", "n_samples=500"], None)
        assert cfg["eps"] == 0.1
        assert cfg["n_samples"] == 500

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config("dsmc", None, ["bogus=1"], None)

    def test_eps_range_rejected(self):
        with pytest.raises(ValueError, match="0.5"):
            load_config("dsmc", None, ["eps=0.5"], None)

    def test_seed_flag_wins(self):
        cfg = load_config("dsmc", None, ["seed=1"], 7)
        assert cfg["seed"] == 7

    def test_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_samples": 500, "eps": 0.1}')
        cfg = load_config("dsmc", str(path), ["eps=0.2"], None)
        assert cfg["n_samples"] == 500 and cfg["eps"] == 0.2

    def test_config_file_must_hold_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config("dsmc", str(path), [], None)

    def test_set_needs_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config("dsmc", None, ["n_samples"], None)

    def test_set_keeps_non_json_as_text(self):
        cfg = load_config("simulate", None, ["box=none"], None)
        assert cfg["box"] == "none"

    def test_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestExitCodes:
    def test_config_violation_is_2(self, tmp_path, capsys):
        rc = main(["dsmc", "--out", str(tmp_path), "--set", "eps=0.5"])
        assert rc == 2
        assert "0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dsmc", "--set", "eps=abc"],
        ["duality", "--set", "eps_list=[0.1, 0.5]"],
        ["simulate", "--set", "sigma=0"],
        ["duality", "--set", "mc_samples=0"],
        ["dsmc", "--set", "snapshot_times=[0.5, 2.0]"],
        ["simulate", "--set", "snapshot_times=[-1.0, 0.5]"],
        ["simulate", "--set", "momenta=[[Infinity],[0.0]]"],
        ["simulate", "--set", "positions=[[NaN],[1.0]]"],
        ["simulate", "--set", "storm_limit=NaN"],
        ["simulate", "--set", "tc_threshold=NaN"],
    ], ids=["eps-text", "eps-list-range", "sigma", "duality-samples",
            "dsmc-snapshot-late", "simulate-snapshot-early",
            "simulate-inf-momentum", "simulate-nan-position",
            "simulate-nan-storm-limit", "simulate-nan-tc-threshold"])
    def test_refusals_are_2(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())

    def test_bad_config_file_is_2(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"not_a_key": 1}')
        rc = main(["simulate", "--config", str(bad),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_guard_abort_is_3_with_diagnostic(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path),
                   "--set", "positions=[[0.0],[0.2],[0.4]]",
                   "--set", "momenta=[[1.0],[0.0],[-1.0]]",
                   "--set", "eps=0.25", "--set", "sigma=0.01",
                   "--set", "storm_limit=1", "--set", "t=1.0"])
        assert rc == 3
        diag = read_json(tmp_path / "abort.json")
        assert diag["error"] == "EventStormError"

    def test_verify_prints_hash_only(self, tmp_path, capsys):
        rc = main(["simulate", "--verify", "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed == config_hash(load_config("simulate", None, [], None))
        assert not (tmp_path / "run.json").exists()


class TestSimulate:
    def test_two_rod_exchange(self, tmp_path):
        # rods at 0 and 1 with momenta 1 and 0 touch at t = 0.9
        rc = main(["simulate", "--out", str(tmp_path), "--set", "t=1.5"])
        assert rc == 0
        events = read_rows(tmp_path / "events.csv")
        assert len(events) == 1
        assert float(events[0]["t"]) == pytest.approx(0.9)
        assert float(events[0]["g_n"]) == pytest.approx(1.0)
        snaps = read_rows(tmp_path / "snapshots.csv")
        final = [r for r in snaps if float(r["t"]) == 1.5]
        assert len(final) == 2
        momenta = sorted(float(r["px"]) for r in final)
        assert momenta == pytest.approx([0.0, 1.0])
        run = read_json(tmp_path / "run.json")
        assert run["n_events"] == 1
        assert run["config_hash"] == config_hash(run["config"])

    def test_run_counts(self, tmp_path):
        # ten rods on a ring collide often enough for the TC rule to fire
        rc = main(["simulate", "--out", str(tmp_path), "--set", "n=10",
                   "--set", "box=1.0", "--set", "positions=null",
                   "--set", "sigma=0.01", "--set", "eps=0.4",
                   "--set", "tc_threshold=0.01", "--set", "t=2.0"])
        assert rc == 0
        run = read_json(tmp_path / "run.json")
        assert run["n_events"] == len(read_rows(tmp_path / "events.csv"))
        assert run["n_tc_elastic"] > 0 and run["n_stale_pops"] > 0

    def test_threads_flag_is_inert(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--out", str(out1), "--threads", "1"])
        main(["simulate", "--out", str(out2), "--threads", "8"])
        assert (out1 / "events.csv").read_bytes() == \
            (out2 / "events.csv").read_bytes()


class TestDsmc:
    def test_artifacts_and_determinism(self, tmp_path):
        args = ["dsmc", "--set", "n_samples=4000", "--set", "t_end=0.2",
                "--set", "n_cells=4", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("histograms.csv", "moments.csv", "run.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        moments = read_rows(out1 / "moments.csv")
        assert float(moments[0]["t"]) == 0.0
        assert float(moments[-1]["t"]) == pytest.approx(0.2)
        # inelastic runs cool
        assert (float(moments[-1]["temperature"])
                < float(moments[0]["temperature"]))
        hist = read_rows(out1 / "histograms.csv")
        t0_count = sum(float(r["count"]) for r in hist
                       if float(r["t"]) == 0.0)
        assert t0_count == 4000

    def test_sparse_cells_finish(self, tmp_path):
        # 50 samples in 16 cells: streaming within a step raises the
        # collision probability that suggest_dt measured before it
        rc = main(["dsmc", "--out", str(tmp_path), "--set", "n_samples=50",
                   "--set", "n_cells=16", "--set", "eps=0.1", "--seed", "1"])
        assert rc == 0
        moments = read_rows(tmp_path / "moments.csv")
        assert float(moments[-1]["t"]) == pytest.approx(1.0)
        assert read_json(tmp_path / "run.json")["dt_halvings"] > 0

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # a BLAS dot over 1e5 samples rounds by the BLAS thread count, so
        # no moment may come from one
        src = str(Path(granulab.__file__).parents[1])
        for k in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=k, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "granulab.cli", "dsmc",
                            "--set", "t_end=0.1", "--out", str(tmp_path / k)],
                           env=env, check=True)
        for name in ("histograms.csv", "moments.csv", "run.json"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())

    def test_counts_are_integers(self, tmp_path):
        # each sample weighs 1e-5 at the default n_samples, and the count
        # column holds samples, not weight
        assert main(["dsmc", "--set", "t_end=0.05", "--out",
                     str(tmp_path)]) == 0
        hist = read_rows(tmp_path / "histograms.csv")
        assert all(int(r["count"]) > 0 for r in hist)

    def test_empty_snapshot_times_are_the_default(self, tmp_path):
        # as in simulate, [] means the default snapshots at 0 and t_end
        args = ["dsmc", "--set", "n_samples=1000", "--set", "t_end=0.1"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--set", "snapshot_times=[]",
                            "--out", str(tmp_path / "b")]) == 0
        for name in ("histograms.csv", "moments.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        assert len(read_rows(tmp_path / "b" / "histograms.csv")) > 0

    def test_default_config_never_halves_dt(self, tmp_path):
        assert main(["dsmc", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "run.json")["dt_halvings"] == 0


class TestCheckCommands:
    def test_collision_check(self, tmp_path):
        rc = main(["collision-check", "--out", str(tmp_path),
                   "--set", "cases=500"])
        assert rc == 0
        rep = read_json(tmp_path / "report.json")
        assert rep["passed"] is True
        assert rep["n_samples"] == 500

    def test_cumulant_check(self, tmp_path):
        rc = main(["cumulant-check", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path / "report.json")
        assert rep["passed"] is True
        assert set(rep["coefficient_sums"]) == {"2", "3", "4", "5", "6"}
        assert rep["generating_identity"] is True

    @pytest.mark.parametrize("corrupt", [
        lambda terms: tuple((-c, ops) for c, ops in terms),
        lambda terms: tuple(t for t in terms
                            if t != (1, (frozenset({0, 1}),))),
    ], ids=["sign_flipped", "without_S01"])
    def test_cumulant_check_catches_wrong_generating_terms(
            self, tmp_path, monkeypatch, corrupt):
        original = cumulants.generating_term_list
        monkeypatch.setattr(
            cumulants, "generating_term_list",
            lambda n, cluster_size=1: corrupt(original(n, cluster_size)))
        rc = main(["cumulant-check", "--out", str(tmp_path)])
        rep = read_json(tmp_path / "report.json")
        assert rep["generating_identity"] is False
        assert rep["passed"] is False
        assert rc == 1

    def test_duality_small_grid(self, tmp_path):
        rc = main(["duality", "--out", str(tmp_path),
                   "--set", "eps_list=[0.25]", "--set", "t_list=[0.5]",
                   "--set", "n_list=[2]", "--set", "mc_samples=5000"])
        assert rc == 0
        rep = read_json(tmp_path / "report.json")
        assert len(rep["cells"]) == 1
        assert rep["max_abs_z"] < 3.0

    def test_enskog_report(self, tmp_path):
        rc = main(["enskog-integral", "--out", str(tmp_path),
                   "--set", "mc_budget=2000", "--set", "eps=0.0"])
        assert rc == 0
        rep = read_json(tmp_path / "report.json")
        # elastic 1D uniform Maxwellian integral cancels pointwise
        assert abs(rep["estimate"]) <= 1e-14
        assert rep["n_samples"] == 2000


class TestBglStudy:
    small = ["bgl-study", "--set", "sigma_list=[0.04,0.02]",
             "--set", "n_particles=300", "--set", "length=300.0",
             "--set", "replicas=4", "--set", "t=0.3",
             "--set", "dsmc_samples=10000", "--set", "max_pairs=3000"]

    def test_small_study(self, tmp_path):
        rc = main(self.small + ["--out", str(tmp_path)])
        rep = read_json(tmp_path / "report.json")
        assert rc in (0, 1)  # verdicts are statistical at this size
        assert [row["sigma"] for row in rep["per_sigma"]] == [0.04, 0.02]
        rows = read_rows(tmp_path / "report.csv")
        assert len(rows) == 2
        totals = rep["engine_totals"]
        assert [row["sigma"] for row in totals] == [0.04, 0.02]
        assert all(0 <= row["n_tc_elastic"] <= row["n_events"]
                   for row in totals)

    def test_threads_flag_is_inert(self, tmp_path):
        for threads in ("1", "2"):
            assert main(self.small + ["--out", str(tmp_path / threads),
                                      "--threads", threads]) in (0, 1)
        assert multiprocessing.active_children() == []
        for name in ("report.json", "report.csv"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())

    def test_threads_default_to_usable_cpus(self):
        args = build_parser().parse_args(["bgl-study"])
        assert args.threads == len(os.sched_getaffinity(0))

    def test_threads_default_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        args = build_parser().parse_args(["bgl-study"])
        assert args.threads == (os.cpu_count() or 1)

    @pytest.mark.parametrize("cmd", ["bgl-study", "simulate"])
    def test_threads_below_one_is_a_config_error(self, tmp_path, cmd):
        assert main([cmd, "--out", str(tmp_path), "--threads", "0"]) == 2
        assert not (tmp_path / "report.json").exists()

    def test_worker_abort(self, tmp_path, monkeypatch):
        class Failing(bgl.Simulation):
            def run(self, *args, **kwargs):
                raise EventStormError("replica aborted")

        monkeypatch.setattr(bgl, "Simulation", Failing)
        rc = main(self.small + ["--out", str(tmp_path), "--threads", "2"])
        assert rc == 3
        assert multiprocessing.active_children() == []
        assert read_json(tmp_path / "abort.json") == {
            "error": "EventStormError", "message": "replica aborted"}
