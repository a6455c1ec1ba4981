"""Exact event-driven dynamics of inelastic hard spheres.

Free flight between collisions, earliest-event scheduling with invalidation
counters, momentum updates through the single collision algebra in
:mod:`granulab.core`.  Two engines share the event loop:

* a 1D engine using sorted-order adjacency (rods never pass each other, so
  only neighbours can collide), with lazy per-particle times, run on Python
  floats and lists (every event is scalar work, which numpy scalars and
  1-element arrays only slow down) -- this is the fast path used for large
  runs;
* an all-pairs engine for any dimension, retained as the correctness oracle
  and used for 3D few-body work.

The inverse-collision flow (free flight backward in time, pre-collision
momenta at contacts) is exposed through :func:`advance_inverse`; it is the
pathwise realization of the adjoint evolution on states.
"""
from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Sequence

import numpy as np

from . import core
from .core import CollisionEvent, Inelasticity, SystemState
from .errors import EventStormError

_TINY = 1e-14
# relative overlap slack tolerated when validating post-event configurations
_OVERLAP_SLACK = 1e-9
# the normal of every 1D adjacency collision as passed to the algebra (slot i
# is always the left neighbour); one read-only array shared by the log rows
_ETA_1D = np.array([1.0])
_ETA_1D.flags.writeable = False


class TrajectoryLog:
    """Ordered collision events, stored as columns.

    ``t``, ``i``, ``j``, ``eta``, ``g_n`` and ``dE`` hold one entry per
    event, in event order, with the meaning of the
    :class:`~granulab.core.CollisionEvent` fields.  :attr:`events` is a
    read-only sequence view that builds each event when it is accessed.
    """

    def __init__(self):
        self.t = array("d")
        self.i = array("q")
        self.j = array("q")
        self.eta = []
        self.g_n = array("d")
        self.dE = array("d")

    def append(self, t, i, j, eta, g_n, dE):
        self.t.append(t)
        self.i.append(i)
        self.j.append(j)
        self.eta.append(eta)
        self.g_n.append(g_n)
        self.dE.append(dE)

    @property
    def events(self) -> "_EventView":
        return _EventView(self)

    @property
    def n_events(self) -> int:
        return len(self.t)

    def total_dissipation(self) -> float:
        return sum(self.dE)


class _EventView(Sequence):
    """The rows of a :class:`TrajectoryLog` as :class:`CollisionEvent`s."""

    def __init__(self, log: TrajectoryLog):
        self._log = log

    def __len__(self):
        return len(self._log.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[m] for m in range(len(self))[k]]
        log = self._log
        return CollisionEvent(log.t[k], log.i[k], log.j[k], log.eta[k],
                              log.g_n[k], log.dE[k])

    def __iter__(self):
        log = self._log
        return map(CollisionEvent, log.t, log.i, log.j, log.eta, log.g_n,
                   log.dE)


class Simulation:
    """Event-driven run of one hard-sphere system.

    ``rule`` selects the forward flow ("forward": collide at approaching
    contacts) or the inverse flow used internally by
    :func:`advance_inverse`.  ``tc_threshold`` optionally switches a
    collision to elastic when either participant collided less than
    ``tc_threshold`` time units earlier (the TC-model regularization of
    inelastic collapse: rapid event sequences stop dissipating, so a
    collapsing cluster sorts its velocities elastically and disperses);
    it is off by default.  ``storm_limit`` aborts the run when any particle
    exceeds that many events within one unit of time.
    """

    def __init__(self, state: SystemState, log: TrajectoryLog | None = None,
                 rule: str = "forward", engine: str = "auto",
                 tc_threshold: float | None = None,
                 storm_limit: float = 1e5):
        if rule not in ("forward", "inverse"):
            raise ValueError(f"unknown rule {rule!r}")
        if not state.is_allowed(tol=_OVERLAP_SLACK):
            raise ValueError("initial configuration has overlapping particles")
        if engine == "auto":
            engine = "adjacent" if state.d == 1 else "allpairs"
        self.engine = engine
        self.rule = rule
        self.log = log
        self.tc_threshold = tc_threshold
        self.storm_limit = storm_limit
        self.sigma = state.sigma
        self.eps = state.eps
        self.box = state.box
        self.d = state.d
        self.n = state.n
        self._template = state
        self.t = state.time
        self.n_events = 0

        p = -state.p if self.rule == "inverse" else state.p
        # lazy per-particle positions: x[i] is the position at local time tl[i]
        self.tl = [self.t] * self.n
        self.cnt = [0] * self.n
        self._storm_cnt = [0] * self.n
        # read only at the particle's own events: compact arrays, not lists
        self._last_event = array("d", [-math.inf]) * self.n
        self._storm_t0 = array("d", [self.t]) * self.n
        self.heap: list = []

        if self.engine == "adjacent":
            if self.d != 1:
                raise ValueError("adjacency engine requires d == 1")
            order = np.argsort(state.q[:, 0], kind="stable")
            self.order = array("q", order.tolist())  # sorted slot -> label
            self.x = state.q[order, 0].tolist()      # unwrapped, stays sorted
            self.v = p[order, 0].tolist()
            self._npairs = self.n if self.box is not None else self.n - 1
            for k in range(max(self._npairs, 0)):
                self._push_adjacent(k)
        elif self.engine == "allpairs":
            self.x = state.q.copy()
            self.v = p.copy()
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    self._push_pair(i, j)
        else:
            raise ValueError(f"unknown engine {self.engine!r}")

    # -- prediction -------------------------------------------------------

    def _push_adjacent(self, k: int):
        i = k
        j = (k + 1) % self.n
        if j == 0 and self.box is None:
            return
        x, v, tl = self.x, self.v, self.tl
        rel = v[i] - v[j]
        if rel <= _TINY:
            return
        off = self.box if j == 0 else 0.0
        ti, tj = tl[i], tl[j]
        # the conditionals are builtin max(ti, tj) and max(gap, 0.0), spelled
        # out because a call costs more than the arithmetic
        tau = tj if tj > ti else ti
        xi = x[i] + v[i] * (tau - ti)
        xj = x[j] + off + v[j] * (tau - tj)
        gap = xj - xi - self.sigma
        t_ev = tau + (0.0 if 0.0 > gap else gap) / rel
        heapq.heappush(self.heap, (t_ev, i, j, self.cnt[i], self.cnt[j]))

    def _push_pair(self, i: int, j: int):
        tau = max(self.tl[i], self.tl[j])
        qi = self.x[i] + self.v[i] * (tau - self.tl[i])
        qj = self.x[j] + self.v[j] * (tau - self.tl[j])
        dq = qi - qj
        dv = self.v[i] - self.v[j]
        candidates = [dq]
        if self.box is not None:
            dq = dq - self.box * np.round(dq / self.box)
            candidates = [dq]
            if self.d == 1 and dq[0] != 0.0:
                candidates.append(dq - np.sign(dq) * self.box)
        best = None
        a = float(dv @ dv)
        if a <= _TINY:
            return
        for dqc in candidates:
            b = 2.0 * float(dqc @ dv)
            if b >= 0.0:
                continue
            c = float(dqc @ dqc) - self.sigma**2
            disc = b * b - 4.0 * a * c
            if disc < 0.0:
                continue
            trel = 0.0 if c < 0.0 else (-b - np.sqrt(disc)) / (2.0 * a)
            if best is None or trel < best:
                best = trel
        if best is not None:
            heapq.heappush(self.heap, (tau + best, i, j,
                                       self.cnt[i], self.cnt[j]))

    def _repredict_adjacent(self, i, j):
        for k in {(i - 1) % self.n, i, j}:
            if k < self._npairs:
                self._push_adjacent(k)

    def _repredict_pairs(self, i, j):
        for a in range(self.n):
            if a != i:
                self._push_pair(*sorted((a, i)))
            if a != j and a != i:
                self._push_pair(*sorted((a, j)))

    # -- event processing -------------------------------------------------

    def _collide_adjacent(self, t_ev, i, j):
        x, v, tl = self.x, self.v, self.tl
        x[i] = x[i] + v[i] * (t_ev - tl[i])
        x[j] = x[j] + v[j] * (t_ev - tl[j])
        tl[i] = tl[j] = t_ev
        vi, vj = v[i], v[j]
        g_n = vi - vj
        if g_n <= 0.0:
            return False  # grazing or stale geometry: no collision
        v[i], v[j], dE = core.collide_rods(
            vi, vj, self._epsilon(t_ev, i, j), self.rule == "inverse")
        self._count(t_ev, i, j)
        if self.log is not None:
            self.log.append(t_ev, self.order[i], self.order[j], _ETA_1D,
                            g_n, dE)
        return True

    def _collide_pair(self, t_ev, i, j):
        # advance the two participants to the event time
        self.x[i] = self.x[i] + self.v[i] * (t_ev - self.tl[i])
        self.x[j] = self.x[j] + self.v[j] * (t_ev - self.tl[j])
        self.tl[i] = self.tl[j] = t_ev

        # unit normal from j's center to i's center at contact
        dq = self.x[i] - self.x[j]
        if self.box is not None:
            dq = dq - self.box * np.round(dq / self.box)
        eta_geom = dq / np.linalg.norm(dq)
        # with eta pointing j -> i an approaching pair has <eta, v_i - v_j> <= 0;
        # negate so the algebra's approach condition holds
        eta = -eta_geom
        vi = np.atleast_1d(self.v[i]).astype(float)
        vj = np.atleast_1d(self.v[j]).astype(float)
        g_n = float(eta @ (vi - vj))
        if g_n <= 0.0:
            return False  # grazing or stale geometry: no collision

        eps = Inelasticity(self._epsilon(t_ev, i, j))
        if self.rule == "forward":
            vi2, vj2 = core.collide(vi, vj, eta, eps, check=False)
        else:
            vi2, vj2 = core.precollide(vi, vj, eta, eps)
        dE = 0.5 * (vi2 @ vi2 + vj2 @ vj2 - vi @ vi - vj @ vj)
        self.v[i] = vi2
        self.v[j] = vj2
        self._count(t_ev, i, j)
        if self.log is not None:
            self.log.append(t_ev, i, j, eta, g_n, float(dE))
        return True

    def _epsilon(self, t_ev, i, j) -> float:
        """Inelasticity of a collision at t_ev: 0 under the TC rule."""
        last = self._last_event
        tc = self.tc_threshold
        elastic = tc is not None and (t_ev - last[i] < tc
                                      or t_ev - last[j] < tc)
        last[i] = last[j] = t_ev
        return 0.0 if elastic else self.eps.epsilon

    def _count(self, t_ev, i, j):
        """Count a collision of i and j; abort on an event storm."""
        self.cnt[i] += 1
        self.cnt[j] += 1
        self.n_events += 1
        storm_t0, storm_cnt = self._storm_t0, self._storm_cnt
        for k in (i, j):
            if t_ev - storm_t0[k] >= 1.0:
                storm_t0[k] = t_ev
                storm_cnt[k] = 0
            storm_cnt[k] += 1
            if storm_cnt[k] > self.storm_limit:
                raise EventStormError(
                    f"particle {k}: more than {self.storm_limit:g} events "
                    f"within unit time at t={t_ev:.6g}; likely inelastic "
                    "collapse (consider tc_threshold)"
                )

    def run(self, dt: float | None = None, max_events: int | None = None):
        """Process events until time t+dt (and/or an event budget) is reached.

        The clock moves to t+dt, except when the event budget ends the run
        with a contact before t+dt still pending (or when no dt is given):
        then it stops at the last event processed, so :meth:`state` is
        always a configuration the flow actually reaches.  Returns the
        number of collisions processed in this call.
        """
        if dt is None and max_events is None:
            raise ValueError("provide dt and/or max_events")
        t_end = math.inf if dt is None else self.t + dt
        if dt is not None and dt < 0:
            raise ValueError("dt must be nonnegative")
        budget = math.inf if max_events is None else max_events
        if self.engine == "adjacent":
            collide, repredict = self._collide_adjacent, self._repredict_adjacent
        else:
            collide, repredict = self._collide_pair, self._repredict_pairs
        heap, cnt = self.heap, self.cnt
        processed = 0
        t_last = None  # time of the last event popped and applied
        stopped = False
        while heap:
            t_ev, i, j, ci, cj = heap[0]
            if t_ev > t_end:
                break
            if cnt[i] != ci or cnt[j] != cj:
                heapq.heappop(heap)
                continue  # stale prediction
            if processed >= budget:
                stopped = True
                break
            heapq.heappop(heap)
            t_last = t_ev
            if collide(t_ev, i, j):
                processed += 1
                repredict(i, j)
        if stopped or t_end == math.inf:
            if t_last is not None:
                self.t = max(self.t, t_last)
        else:
            self.t = t_end
        return processed

    def state(self) -> SystemState:
        """Synchronized snapshot at the current simulation time."""
        tl = np.array(self.tl)
        if self.engine == "adjacent":
            x = np.array(self.x) + np.array(self.v) * (self.t - tl)
            q = np.empty((self.n, 1))
            p = np.empty((self.n, 1))
            q[self.order, 0] = x
            p[self.order, 0] = self.v
        else:
            q = self.x + self.v * (self.t - tl)[:, None]
            p = self.v.copy()
        if self.rule == "inverse":
            p = -p
        if self.box is not None:
            q = np.mod(q, self.box)
        out = SystemState(q, p, self.sigma, self.eps, self.box,
                          self.t if self.rule == "forward" else
                          self._template.time - (self.t - self._template.time))
        return out


def advance(state: SystemState, dt: float, log: TrajectoryLog | None = None,
            engine: str = "auto", tc_threshold: float | None = None,
            storm_limit: float = 1e5) -> SystemState:
    """Evolve a state forward by dt along the hard-sphere flow."""
    sim = Simulation(state, log=log, engine=engine,
                     tc_threshold=tc_threshold, storm_limit=storm_limit)
    sim.run(dt=dt)
    return sim.state()


def advance_inverse(state: SystemState, dt: float,
                    log: TrajectoryLog | None = None,
                    engine: str = "auto") -> SystemState:
    """Evolve a state backward by dt: free flight with -p, pre-collision
    momenta at contacts.  Inverse of :func:`advance` for the same dt.

    Each contact applies the inverse collision map (Jacobian 1/(1-2*eps)),
    so the flow amplifies normal relative velocities for eps > 0.
    """
    sim = Simulation(state, log=log, rule="inverse", engine=engine)
    sim.run(dt=dt)
    out = sim.state()
    out.time = state.time - dt
    return out


def evolve_observable(b, state0: SystemState, t: float, **kwargs) -> float:
    """Evaluate an observable at the time-t phase point of the trajectory.

    ``b`` is called as ``b(q, p)`` with the synchronized (N, d) arrays.
    """
    final = advance(state0, t, **kwargs)
    return float(b(final.q, final.p))


def evolve_rods_ensemble(q: np.ndarray, p: np.ndarray, t: float,
                         sigma: float, eps: Inelasticity,
                         max_rounds: int | None = None):
    """Vectorized exact evolution of M independent 1D rod systems (unbounded).

    ``q``/``p`` have shape (M, N) with positions sorted ascending per row and
    pairwise gaps >= sigma.  Rods never exchange order, so only adjacent
    pairs collide; each round resolves at most one collision per row.
    Returns (q_final, p_final, collisions_per_row).
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    m, n = q.shape
    ncol = np.zeros(m, dtype=np.int64)
    remaining = np.full(m, float(t))
    active = np.ones(m, dtype=bool)
    if n < 2 or t == 0.0:
        return q + p * t, p, ncol
    if max_rounds is None:
        max_rounds = 100 * n + 1000
    fac = 1.0 - eps.epsilon
    for _ in range(max_rounds):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            return q, p, ncol
        gaps = q[idx, 1:] - q[idx, :-1] - sigma
        rel = p[idx, :-1] - p[idx, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            tcol = np.where(rel > _TINY, np.maximum(gaps, 0.0) / rel, np.inf)
        k = np.argmin(tcol, axis=1)
        tmin = tcol[np.arange(idx.size), k]
        collide_rows = tmin <= remaining[idx]
        dt_step = np.where(collide_rows, tmin, remaining[idx])
        q[idx] += p[idx] * dt_step[:, None]
        remaining[idx] -= dt_step
        hit = idx[collide_rows]
        kh = k[collide_rows]
        if hit.size:
            pl = p[hit, kh]
            pr = p[hit, kh + 1]
            kick = fac * (pl - pr)
            p[hit, kh] = pl - kick
            p[hit, kh + 1] = pr + kick
            ncol[hit] += 1
        active[idx[~collide_rows]] = False
    raise EventStormError(
        f"evolve_rods_ensemble exceeded {max_rounds} rounds; "
        "likely inelastic collapse in some row"
    )
