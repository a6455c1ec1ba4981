"""The config table: every value of every subcommand's config is checked in
one place, so that a bad value exits 2, names its key and writes nothing,
and a config that was accepted before keeps its hash."""
import pytest

from granulab.cli import DEFAULTS, config_hash, load_config, main
from granulab.config import check_config
from granulab.errors import ConfigError

# run sizes small enough that a value the table accepts runs in milliseconds
TINY = {
    "simulate": [],
    "dsmc": ["n_samples=200", "t_end=0.05", "n_cells=4"],
    "collision-check": ["cases=20"],
    "cumulant-check": ["max_order=3"],
    "duality": ["eps_list=[0.1]", "t_list=[0.5]", "n_list=[2]",
                "mc_samples=200"],
    "enskog-integral": ["mc_budget=200"],
    "bgl-study": ["sigma_list=[0.02]", "n_particles=20", "length=20.0",
                  "replicas=2", "t=0.1", "dsmc_samples=200", "max_pairs=50"],
}
BAD_VALUES = ['"abc"', "true", "[1]", "-1", "0", "1e400", "null"]
# the keys that take null, and those that hold a list
OPTIONAL = {("simulate", "box"), ("simulate", "tc_threshold"),
            ("simulate", "snapshot_times"), ("simulate", "positions"),
            ("dsmc", "snapshot_times")}
LISTS = {("simulate", "snapshot_times"), ("simulate", "positions"),
         ("simulate", "momenta"), ("dsmc", "snapshot_times"),
         ("duality", "eps_list"), ("duality", "t_list"),
         ("duality", "n_list"), ("enskog-integral", "p1"),
         ("bgl-study", "sigma_list")}
# subcommands that exit 1 when their check ran and did not pass
CHECKS = {"collision-check", "cumulant-check", "duality", "bgl-study"}


def must_refuse(sub, key, value):
    """Text, a boolean, a non-finite number and a negative value are never
    of any key's kind; null and a list are refused where not taken."""
    return (value in ('"abc"', "true", "1e400", "-1")
            or value == "null" and (sub, key) not in OPTIONAL
            or value == "[1]" and (sub, key) not in LISTS)


@pytest.mark.parametrize("sub", list(DEFAULTS))
def test_bad_value_grid(sub, tmp_path, capsys):
    # each key set to each bad value in-process: exit 0, 2 or 3 (or a
    # check's 1), never a traceback; exit 2, naming the key and writing
    # nothing, wherever the value is of the wrong kind or out of bounds
    wrong = []
    for key in DEFAULTS[sub]:
        for value in BAD_VALUES:
            out = tmp_path / f"{key}-{BAD_VALUES.index(value)}"
            argv = [sub, "--out", str(out), "--threads", "1"]
            for item in [*TINY[sub], f"{key}={value}"]:
                argv += ["--set", item]
            case = f"{key}={value}"
            try:
                rc = main(argv)
            except Exception as exc:  # a traceback on the command line
                wrong.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            if rc not in (0, 2, 3) and not (rc == 1 and sub in CHECKS):
                wrong.append(f"{case}: exit {rc}")
            if must_refuse(sub, key, value):
                written = out.exists() and any(out.iterdir())
                if rc != 2 or written or key not in err:
                    wrong.append(f"{case}: exit {rc}, wrote {written}, "
                                 f"stderr {err!r}")
    assert wrong == []


@pytest.mark.parametrize("sub, pin", [
    ("simulate", "5ea4dddb3896e951"),
    ("dsmc", "5370e19bd4a82640"),
    ("collision-check", "2cb28bcc408188d8"),
    ("cumulant-check", "bfa5f51b850b6f60"),
    ("duality", "680c22cfbfeb9cf8"),
    ("enskog-integral", "2c617cd06579e774"),
    ("bgl-study", "0b7e09a96b21845f"),
])
def test_default_config_hash(sub, pin):
    assert config_hash(load_config(sub, None, [], None)) == pin


@pytest.mark.parametrize("sub, overrides, pin", [
    ("simulate", ["t=2"], "940ab7e51d9fd860"),
    ("dsmc", ["t_end=1", "n_samples=1e4"], "580cbd7e96d22046"),
])
def test_numbers_keep_their_given_form(sub, overrides, pin):
    # an int given for a real and a float given for a count stay as given
    # in the config and its hash; the runners read a float and an int
    cfg = load_config(sub, None, overrides, None)
    assert config_hash(cfg) == pin
    typed = check_config(sub, cfg)
    assert all(type(typed[key]) is type(DEFAULTS[sub][key])
               for key in typed if DEFAULTS[sub][key] is not None)


def test_defaults_are_of_their_kinds():
    for sub, defaults in DEFAULTS.items():
        assert check_config(sub, {}) == defaults


@pytest.mark.parametrize("sub, config, match", [
    ("dsmc", {"n_samples": 2.5}, "n_samples=2.5"),
    ("dsmc", {"n_cells": True}, "n_cells=True"),
    ("simulate", {"tc_threshold": -1e-9}, "tc_threshold=-1e-09"),
    ("simulate", {"momenta": [[1.0], [float("inf")]]}, "momenta="),
    ("duality", {"eps_list": []}, "eps_list=\\[\\]"),
    ("enskog-integral", {"d": 4}, "d=4"),
    ("bgl-study", {"length": 10 ** 400}, "length="),
    ("bgl-study", {"sigma": 0.1}, "unknown .*'sigma'"),
])
def test_refusal_names_key_and_value(sub, config, match):
    with pytest.raises(ConfigError, match=match):
        check_config(sub, config)
