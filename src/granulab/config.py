"""The config table of the command line: each subcommand's keys with their
defaults and kinds, and the one check that reads a config through it.

No kind takes text, a boolean or a non-finite number.  A real is read as a
float; a count or a seed, an integral number (1e5 included), as an int.
:func:`check_config` returns the read values as a new dict, while the
config keeps its values as given: an int given for a real stays an int in
the artifacts that embed the config and in its hash.
"""
from __future__ import annotations

import math
from numbers import Real

from .core import Inelasticity
from .errors import ConfigError


class _Kind:
    """What a value must be (``what``), and ``read``, which returns the
    value as the runners read it, or raises TypeError, ValueError or
    OverflowError when the value is not of this kind."""

    def __init__(self, what: str, read):
        self.what, self.read = what, read


def _number(what, ok=lambda x: True, cast=float):
    def read(value):
        if isinstance(value, bool) or not isinstance(value, Real):
            raise TypeError(value)
        x = float(value)  # OverflowError for an int past the float range
        if not (math.isfinite(x) and ok(x)):
            raise ValueError(value)
        return cast(value)
    return _Kind(what, read)


def _count(lo, hi=math.inf):
    return _number(f"an integer >= {lo}" if hi == math.inf
                   else f"an integer in [{lo}, {hi}]",
                   lambda x: x.is_integer() and lo <= x <= hi, int)


def _eps(value):
    x = _REAL.read(value)
    Inelasticity(x)  # ValueError outside [0, 1/2)
    return x


def _optional(kind):
    return _Kind(f"null or {kind.what}",
                 lambda v: None if v is None else kind.read(v))


def _list(kind, nonempty=False):
    def read(value):
        if not isinstance(value, (list, tuple)) or nonempty and not value:
            raise TypeError(value)
        return [kind.read(v) for v in value]
    return _Kind(f"a {'non-empty ' * nonempty}list, each item {kind.what}",
                 read)


_REAL = _number("a finite real")
_POSITIVE = _number("a finite real > 0", lambda x: x > 0.0)
_NON_NEGATIVE = _number("a finite real >= 0", lambda x: x >= 0.0)
_SEED = _count(0)
_EPS = _Kind("a real eps in [0, 0.5), with 1 - eps not rounding to 0.5",
             _eps)

# per subcommand, each key's default and kind
TABLE = {
    "simulate": {
        "n": (2, _count(1)), "d": (1, _count(1, 3)),
        "sigma": (0.1, _POSITIVE), "eps": (0.0, _EPS),
        "box": (None, _optional(_POSITIVE)), "t": (1.0, _NON_NEGATIVE),
        "temperature": (1.0, _POSITIVE), "seed": (0, _SEED),
        "tc_threshold": (None, _optional(_NON_NEGATIVE)),
        "storm_limit": (1e5, _POSITIVE),
        "snapshot_times": (None, _optional(_list(_REAL))),
        "positions": ([[0.0], [1.0]], _optional(_list(_list(_REAL)))),
        "momenta": ([[1.0], [0.0]], _list(_list(_REAL))),
    },
    "dsmc": {
        "n_samples": (100_000, _count(1)), "n_cells": (64, _count(1)),
        "eps": (0.25, _EPS), "t_end": (1.0, _NON_NEGATIVE),
        "temperature": (1.0, _POSITIVE), "density": (1.0, _POSITIVE),
        "seed": (0, _SEED), "q_bins": (16, _count(1)),
        "p_bins": (48, _count(1)),
        "snapshot_times": (None, _optional(_list(_REAL))),
    },
    "collision-check": {"cases": (10_000, _count(0)), "seed": (0, _SEED)},
    "cumulant-check": {"max_order": (6, _count(0)), "seed": (0, _SEED)},
    "duality": {
        "eps_list": ([0.0, 0.1, 0.25], _list(_EPS, nonempty=True)),
        "t_list": ([0.5, 1.0, 2.0], _list(_NON_NEGATIVE, nonempty=True)),
        "n_list": ([2, 3], _list(_count(2), nonempty=True)),
        "mc_samples": (100_000, _count(1)), "sigma": (0.02, _POSITIVE),
        "temperature": (1.0, _POSITIVE), "seed": (0, _SEED),
    },
    "enskog-integral": {
        "d": (1, _count(1, 3)), "eps": (0.25, _EPS),
        "sigma": (0.05, _POSITIVE), "temperature": (1.0, _POSITIVE),
        "p1": ([0.5], _list(_REAL)), "mc_budget": (100_000, _count(2)),
        "seed": (0, _SEED),
    },
    "bgl-study": {
        "sigma_list": ([0.04, 0.02, 0.01], _list(_POSITIVE, nonempty=True)),
        "eps": (0.25, _EPS), "t": (1.0, _NON_NEGATIVE),
        "replicas": (32, _count(1)), "seed": (0, _SEED),
        "n_particles": (10_000, _count(2)),
        "length": (10_000.0, _POSITIVE), "temperature": (1.0, _POSITIVE),
        "dsmc_samples": (100_000, _count(1)),
        "max_pairs": (20_000, _count(1)),
    },
}
DEFAULTS = {sub: {key: default for key, (default, _) in keys.items()}
            for sub, keys in TABLE.items()}


def check_config(subcommand: str, config: dict) -> dict:
    """The values of ``config`` as the runners read them, with each key it
    leaves out at its default.  An unknown key, or a value not of its
    key's kind, raises ConfigError, which names the key and the value."""
    table = TABLE[subcommand]
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} for "
                          f"{subcommand!r}")
    values = {}
    for key, (default, kind) in table.items():
        value = config.get(key, default)
        try:
            values[key] = kind.read(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{key}={value!r} for {subcommand!r}: "
                              f"expected {kind.what}") from None
    return values
