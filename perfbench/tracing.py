"""Spans around granulab's public functions, recorded from outside the package.

Each traced function is replaced, for the duration of :func:`installed`, by a
wrapper at the module attribute its caller looks up (``dynamics`` calls
``core.collide``, ``bgl`` calls its own ``solve_limit_equation`` name, and so
on), so no source file changes.

Spans are aggregated as they close instead of being stored one record each:
every span name keeps a call count, a total duration and the time covered by
its direct child spans, and every (parent, name) edge keeps a count and a
total.  A per-event span such as ``core.collide`` therefore costs two clock
reads and a few dictionary updates, whatever the number of events.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import granulab.bgl
import granulab.cli
import granulab.core
import granulab.cumulants
import granulab.dynamics
import granulab.kinetic


class Tracer:
    """Aggregated spans and work counters of one traced job."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, child_s]
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, total_s]
        self.counts = defaultdict(int)
        self._stack = [[None, 0.0]]  # root frame: every span has a parent

    def wrap(self, name, fn):
        stack, edges = self._stack, self.edges
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]  # 0.0: time covered by direct child spans
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                del stack[-1]
                parent = stack[-1]
                parent[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[1]
                edge = edges[parent[0], name]
                edge[0] += 1
                edge[1] += elapsed

        return span


def _counting_run(tracer, run):
    """Simulation.run that also counts the events it processed and logged."""

    @functools.wraps(run)
    def counted(sim, *args, **kwargs):
        log = sim.log
        before = len(log.events) if log is not None else 0
        processed = run(sim, *args, **kwargs)
        tracer.counts["dynamics.events"] += processed
        if log is not None:
            tracer.counts["dynamics.log.events"] += len(log.events) - before
        return processed

    return counted


def _targets():
    """(owner, attribute, span name) for every wrapped function."""
    core, dynamics, cumulants = (granulab.core, granulab.dynamics,
                                 granulab.cumulants)
    kinetic, bgl, cli = granulab.kinetic, granulab.bgl, granulab.cli
    return [
        (core, "collide", "core.collide"),
        (core, "sample_chaotic_state", "core.sample_chaotic_state"),
        (bgl, "sample_chaotic_state", "core.sample_chaotic_state"),
        (dynamics.Simulation, "__init__", "dynamics.Simulation.init"),
        (dynamics.Simulation, "run", "dynamics.Simulation.run"),
        (cumulants, "advance", "dynamics.advance"),
        (cumulants, "evolve_rods_ensemble", "dynamics.evolve_rods_ensemble"),
        (cumulants, "apply_cumulant", "cumulants.apply_cumulant"),
        (cumulants, "duality_residual", "cumulants.duality_residual"),
        (kinetic, "dsmc_init", "kinetic.dsmc_init"),
        (kinetic, "dsmc_step", "kinetic.dsmc_step"),
        (kinetic, "suggest_dt", "kinetic.suggest_dt"),
        (kinetic, "energy_moment_quadrature",
         "kinetic.energy_moment_quadrature"),
        (kinetic, "enskog_collision_integral",
         "kinetic.enskog_collision_integral"),
        (bgl, "solve_limit_equation", "kinetic.solve_limit_equation"),
        (bgl, "empirical_marginals", "bgl.empirical_marginals"),
        (bgl, "g2_iid_floor", "bgl.g2_iid_floor"),
        (bgl, "bg_study", "bgl.bg_study"),
        (cli, "main", "cli.main"),
    ]


@contextmanager
def installed(tracer):
    """Wrap every target with ``tracer``'s spans; restore them on exit."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            fn = original
            if name == "dynamics.Simulation.run":
                fn = _counting_run(tracer, fn)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
