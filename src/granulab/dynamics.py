"""Exact event-driven dynamics of inelastic hard spheres.

Free flight between collisions, earliest-event scheduling with invalidation
counters, momentum updates through the single collision algebra in
:mod:`granulab.core` (``collide_rods`` on the 1D fast paths, ``collide`` and
``precollide`` in the all-pairs engine).  There are two engines:

* a 1D engine using sorted-order adjacency (rods never pass each other, so
  only neighbours can collide), with lazy per-particle times -- the fast
  path used for large runs.  It builds its initial heap in one pass over the
  adjacent pairs and one heapify, and runs one fused event loop on Python
  floats and lists (every event is scalar work, which numpy scalars,
  1-element arrays and per-step calls only slow down) that collides, counts,
  logs and re-predicts the three neighbour pairs inline;
* an all-pairs engine for any dimension, the 1D oracle and the 3D engine,
  which predicts a particle against all its partners in one numpy call.

The inverse-collision flow (free flight backward in time, pre-collision
momenta at contacts) is exposed through :func:`advance_inverse`; it is the
pathwise realization of the adjoint evolution on states.
"""
from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Sequence
from itertools import product

import numpy as np

from . import core
from .core import CollisionEvent, Inelasticity, SystemState
from .errors import ConfigError, EventStormError

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
    exceeds that many events within one unit of time.  ``engine="allpairs"``
    runs the all-pairs engine in 1D, as the oracle of the adjacency engine.

    The all-pairs engine predicts a particle against all its partners in one
    numpy call, over the 3^d nearest periodic images, with the root
    t = c / (sqrt(disc/4) - dq.dv) of disc/4 = |dv|^2 sigma^2 - |dq^dv|^2 and
    c = (|dq| - sigma)(|dq| + sigma), which keeps sigma at any |dq|.  The
    images hold every contact before H = (1.5 box - sigma) / max_k |dv_k|;
    past it the particle is predicted afresh.  A contact that overlaps
    without approaching (the clock no longer resolves it) and a collision
    with a non-finite energy change raise :class:`EventStormError`.

    ``n_events`` counts the collisions applied, ``n_stale_pops`` the heap
    entries discarded because a participant collided after they were
    predicted, and ``n_tc_elastic`` the collisions the TC rule made elastic.
    """

    def __init__(self, state: SystemState, log: TrajectoryLog | None = None,
                 rule: str = "forward", engine: str = "auto",
                 tc_threshold: float | None = None,
                 storm_limit: float = 1e5):
        if rule not in ("forward", "inverse"):
            raise ValueError(f"unknown rule {rule!r}")
        if rule == "inverse" and tc_threshold is not None:
            raise ConfigError("the inverse flow has no TC rule; "
                              "tc_threshold applies to forward runs only")
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
        self.n_stale_pops = 0  # heap entries popped after their pair changed
        self.n_tc_elastic = 0  # collisions the TC rule made elastic

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
            x = state.q[:, 0] if self.box is None else np.mod(state.q[:, 0], self.box)
            order = np.argsort(x, kind="stable")  # a ring orders x in [0, box)
            self.order = array("q", order.tolist())  # sorted slot -> label
            self.x = x[order].tolist()               # unwrapped, stays sorted
            self.v = p[order, 0].tolist()
            self.heap = _initial_adjacent_heap(self.x, self.v, self.t,
                                               self.sigma, self.box)
        elif self.engine == "allpairs":
            self.x = state.q.copy()
            self.v = p.copy()
            shifts = (0.0,) if self.box is None else (-self.box, 0.0, self.box)
            self._images = np.array(list(product(shifts, repeat=self.d)))
            for i in range(self.n - 1):
                self._predict(i, np.arange(i + 1, self.n))
        else:
            raise ValueError(f"unknown engine {self.engine!r}")

    # -- prediction -------------------------------------------------------

    def _predict(self, i, partners):
        """Push the first contact of i with each of ``partners`` (an index
        array), from i's local time, which no partner's exceeds; the root,
        the images and the horizon are those of :class:`Simulation`."""
        tau, v, sigma, box = self.tl[i], self.v, self.sigma, self.box
        dv = v[i] - v[partners]
        lag = tau - np.take(self.tl, partners)  # partners' flight up to tau
        dq = self.x[i] - (self.x[partners] + v[partners] * lag[:, None])
        horizon = np.full(len(partners), np.inf)
        if box is not None:
            dq -= box * np.round(dq / box)
            vmax = np.abs(dv).max(axis=1)
            np.divide(1.5 * box - sigma, vmax, out=horizon, where=vmax > 0.0)
        dq = dq[:, None, :] + self._images  # (partner, image, axis)
        dv = dv[:, None, :]
        b = np.sum(dq * dv, axis=-1)
        w = dq[..., :, None] * dv[..., None, :]  # |dq^dv|^2 from components
        disc = (np.sum(dv * dv, axis=-1) * sigma**2
                - 0.5 * np.sum((w - np.swapaxes(w, -1, -2))**2, axis=(-2, -1)))
        r = np.sqrt(np.sum(dq * dq, axis=-1))
        t = np.full(b.shape, np.inf)
        np.divide((r - sigma) * (r + sigma), np.sqrt(np.maximum(disc, 0.0)) - b,
                  out=t, where=(b < 0.0) & (disc >= 0.0))
        t = np.maximum(t, 0.0).min(axis=1)  # an overlapping pair meets now
        hit, cnt = (t < np.inf) & (t <= horizon), self.cnt
        for k, tk in zip(partners[hit].tolist(), t[hit].tolist()):
            lo, hi = (i, k) if i < k else (k, i)
            heapq.heappush(self.heap, (tau + tk, lo, hi, cnt[lo], cnt[hi]))
        late = horizon[t > horizon]
        if late.size:
            heapq.heappush(self.heap, (tau + float(late.min()), i, i, cnt[i],
                                       cnt[i]))

    # -- event processing -------------------------------------------------

    def _collide_pair(self, t_ev, i, j):
        """Collide i and j at t_ev (TC rule, collision map, counters, storm
        guard, log row); False for a grazing contact."""
        x, v, tl, last = self.x, self.v, self.tl, self._last_event
        x[i] += v[i] * (t_ev - tl[i])
        x[j] += v[j] * (t_ev - tl[j])
        tl[i] = tl[j] = t_ev
        # unit normal from j's center to i's center at contact
        dq = x[i] - x[j]
        if self.box is not None:
            dq -= self.box * np.round(dq / self.box)
        r = np.linalg.norm(dq)
        # with the normal pointing j -> i an approaching pair has
        # <eta, v_i - v_j> <= 0; negate so the algebra's condition holds
        eta = -(dq / r)
        vi, vj = v[i], v[j]  # rows, read before they are overwritten
        g_n = float(eta @ (vi - vj))
        if g_n <= 0.0:  # grazing, or a contact the clock no longer resolves
            if r < self.sigma * (1.0 - _OVERLAP_SLACK):
                raise self._overflow_error(i, j, t_ev)
            return False
        tc = self.tc_threshold
        elastic = tc is not None and (t_ev - last[i] < tc
                                      or t_ev - last[j] < tc)
        last[i] = last[j] = t_ev
        self.n_tc_elastic += elastic
        eps = Inelasticity(0.0 if elastic else self.eps.epsilon)
        if self.rule == "forward":
            vi2, vj2 = core.collide(vi, vj, eta, eps, check=False)
        else:
            vi2, vj2 = core.precollide(vi, vj, eta, eps)
        dE = float(0.5 * (vi2 @ vi2 + vj2 @ vj2 - vi @ vi - vj @ vj))
        if not math.isfinite(dE):
            raise self._overflow_error(i, j, t_ev)
        v[i] = vi2
        v[j] = vj2
        self.n_events += 1
        for k in (i, j):
            self.cnt[k] += 1
            if t_ev - self._storm_t0[k] >= 1.0:
                self._storm_t0[k] = t_ev
                self._storm_cnt[k] = 0
            self._storm_cnt[k] += 1
            if self._storm_cnt[k] > self.storm_limit:
                raise self._storm_error(k, t_ev)
        if self.log is not None:
            self.log.append(t_ev, i, j, eta, g_n, dE)
        return True

    def _storm_error(self, k, t_ev) -> EventStormError:
        return EventStormError(
            f"particle {k}: more than {self.storm_limit:g} events within "
            f"unit time at t={t_ev:.6g}; likely inelastic collapse"
            + (" (consider tc_threshold)" if self.rule == "forward" else ""))

    def _overflow_error(self, i, j, t_ev) -> EventStormError:
        return EventStormError(
            f"particles {i} and {j}: momenta or kinetic energy overflow, or "
            f"contacts closer than the clock resolves, at t={t_ev:.6g}" + (
                "; the inverse flow multiplies the normal relative speed by "
                f"1/(1-2*eps) = {1.0 / (1.0 - 2.0 * self.eps.epsilon):g} at "
                "every contact" if self.rule == "inverse" else ""))

    def run(self, dt: float | None = None, max_events: int | None = None):
        """Process events until time t+dt (and/or an event budget) is reached.

        The clock moves to t+dt, except when the event budget ends the run
        with a contact before t+dt still pending (or when no dt is given):
        then it stops at the last event processed, so :meth:`state` is
        always a configuration the flow actually reaches.  Returns the
        number of collisions processed in this call.
        """
        if dt is None and (max_events is None
                           or self.d > 1 and self.box is not None):
            raise ValueError("provide dt and/or max_events; a periodic run "
                             "in d > 1 needs dt, as its re-checks never end")
        t_end = math.inf if dt is None else self.t + dt
        if dt is not None and dt < 0:
            raise ValueError("dt must be nonnegative")
        budget = math.inf if max_events is None else max_events
        if self.engine == "adjacent":
            processed, t_last, stopped = self._run_adjacent(t_end, budget)
        else:
            processed, t_last, stopped = self._run_pairs(t_end, budget)
        if stopped or t_end == math.inf:
            if t_last is not None:
                self.t = max(self.t, t_last)
        else:
            self.t = t_end
        return processed

    def _run_adjacent(self, t_end, budget):
        """The 1D event loop: returns (collisions, time of the last event
        popped and applied, whether the budget stopped it).

        Each event's free flight, TC rule, collision, counters, storm guard,
        log row and the re-prediction of its three neighbour pairs run
        inline on local names: a call per step costs more than the step's
        arithmetic.  The prediction is that of the initial heap, with the
        same float operations in the same order.  A popped entry whose
        counters match has g_n > _TINY: every push required it, and neither
        velocity has changed since.
        """
        heap, cnt, x, v, tl = self.heap, self.cnt, self.x, self.v, self.tl
        last, storm_t0, storm_cnt = (self._last_event, self._storm_t0,
                                     self._storm_cnt)
        n, box, sigma, log, order = (self.n, self.box, self.sigma, self.log,
                                     self.order)
        eps, tc, limit = self.eps.epsilon, self.tc_threshold, self.storm_limit
        inverse = self.rule == "inverse"
        pop, push = heapq.heappop, heapq.heappush
        collide_rods = core.collide_rods
        isfinite, tiny = math.isfinite, _TINY
        if log is not None:
            log_t, log_i, log_j, log_eta, log_g, log_de = (
                log.t.append, log.i.append, log.j.append, log.eta.append,
                log.g_n.append, log.dE.append)
        processed = stale = tc_elastic = 0
        t_last = None
        stopped = False
        try:
            while heap:
                t_ev, i, j, ci, cj = heap[0]
                if t_ev > t_end:
                    break
                if cnt[i] != ci or cnt[j] != cj:
                    pop(heap)
                    stale += 1
                    continue  # stale prediction
                if processed >= budget:
                    stopped = True
                    break
                pop(heap)
                t_last = t_ev
                x[i] = x[i] + v[i] * (t_ev - tl[i])
                x[j] = x[j] + v[j] * (t_ev - tl[j])
                tl[i] = tl[j] = t_ev
                vi, vj = v[i], v[j]
                g_n = vi - vj
                if tc is not None and (t_ev - last[i] < tc
                                       or t_ev - last[j] < tc):
                    e = 0.0
                    tc_elastic += 1
                else:
                    e = eps
                last[i] = last[j] = t_ev
                wi, wj = collide_rods(vi, vj, e, inverse)
                dE = 0.5 * (wi * wi + wj * wj - vi * vi - vj * vj)
                if inverse and not isfinite(dE):
                    raise self._overflow_error(order[i], order[j], t_ev)
                v[i] = vi = wi
                v[j] = vj = wj
                cnt[i] += 1
                cnt[j] += 1
                processed += 1
                if t_ev - storm_t0[i] >= 1.0:
                    storm_t0[i] = t_ev
                    storm_cnt[i] = 0
                storm_cnt[i] += 1
                if storm_cnt[i] > limit:
                    raise self._storm_error(order[i], t_ev)
                if t_ev - storm_t0[j] >= 1.0:
                    storm_t0[j] = t_ev
                    storm_cnt[j] = 0
                storm_cnt[j] += 1
                if storm_cnt[j] > limit:
                    raise self._storm_error(order[j], t_ev)
                if log is not None:
                    log_t(t_ev)
                    log_i(order[i])
                    log_j(order[j])
                    log_eta(_ETA_1D)
                    log_g(g_n)
                    log_de(dE)
                # re-predict (i, j), (j, right) and (left, i); on a ring of
                # two the left pair is the right one and is pushed once.
                # (i, j): both local times are t_ev, so tau - t is t_ev - t_ev
                rel = vi - vj
                if rel > tiny:
                    off = box if j == 0 else 0.0
                    gap = ((x[j] + off + vj * (t_ev - t_ev))
                           - (x[i] + vi * (t_ev - t_ev)) - sigma)
                    push(heap, (t_ev + (0.0 if 0.0 > gap else gap) / rel,
                                i, j, cnt[i], cnt[j]))
                b = j + 1
                if b < n:
                    off = 0.0
                elif box is not None:
                    b, off = 0, box
                else:
                    b = -1
                if b >= 0:
                    rel = vj - v[b]
                    if rel > tiny:
                        tb = tl[b]
                        tau = tb if tb > t_ev else t_ev
                        gap = ((x[b] + off + v[b] * (tau - tb))
                               - (x[j] + vj * (tau - t_ev)) - sigma)
                        push(heap, (tau + (0.0 if 0.0 > gap else gap) / rel,
                                    j, b, cnt[j], cnt[b]))
                if i:
                    a, off = i - 1, 0.0
                elif box is not None:
                    a, off = n - 1, box
                else:
                    a = -1
                if a >= 0 and a != j:
                    rel = v[a] - vi
                    if rel > tiny:
                        ta = tl[a]
                        tau = t_ev if t_ev > ta else ta
                        gap = ((x[i] + off + vi * (tau - t_ev))
                               - (x[a] + v[a] * (tau - ta)) - sigma)
                        push(heap, (tau + (0.0 if 0.0 > gap else gap) / rel,
                                    a, i, cnt[a], cnt[i]))
        finally:
            self.n_events += processed
            self.n_stale_pops += stale
            self.n_tc_elastic += tc_elastic
        return processed, t_last, stopped

    def _run_pairs(self, t_end, budget):
        """The all-pairs event loop; returns what :meth:`_run_adjacent`
        does."""
        heap, cnt, everyone = self.heap, self.cnt, np.arange(self.n)
        processed = 0
        t_last = None  # time of the last event popped and applied
        stopped = False
        while heap:
            t_ev, i, j, ci, cj = heap[0]
            if t_ev > t_end:
                break
            if cnt[i] != ci or cnt[j] != cj:
                heapq.heappop(heap)
                self.n_stale_pops += 1
                continue  # stale prediction
            if processed >= budget:
                stopped = True
                break
            heapq.heappop(heap)
            t_last = t_ev
            if i == j:  # horizon re-check: predict i afresh from t_ev
                self.x[i] += self.v[i] * (t_ev - self.tl[i])
                self.tl[i] = t_ev
                cnt[i] += 1
                self._predict(i, everyone[everyone != i])
            elif self._collide_pair(t_ev, i, j):
                processed += 1
                self._predict(i, everyone[everyone != i])
                self._predict(j, everyone[(everyone != i) & (everyone != j)])
        return processed, t_last, stopped

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


def advance(state: SystemState, dt: float,
            log: TrajectoryLog | None = None) -> SystemState:
    """Evolve a state forward by dt under a default :class:`Simulation`."""
    sim = Simulation(state, log=log)
    sim.run(dt=dt)
    return sim.state()


def advance_inverse(state: SystemState, dt: float,
                    log: TrajectoryLog | None = None) -> SystemState:
    """Evolve a state backward by dt: free flight with -p, pre-collision
    momenta at contacts.  Inverse of :func:`advance` for the same dt.

    Each contact applies the inverse collision map (Jacobian 1/(1-2*eps)),
    so the flow amplifies normal relative velocities for eps > 0.  It has
    no TC rule, so it cannot invert a forward run that used
    ``tc_threshold`` (whose elastic collisions it would undo inelastically).
    """
    sim = Simulation(state, log=log, rule="inverse")
    sim.run(dt=dt)
    out = sim.state()
    out.time = state.time - dt
    return out


def _initial_adjacent_heap(x, v, t, sigma, box):
    """The heap of first contacts of sorted rods whose local times are all t.

    One pass over the adjacent pairs with the float expressions of the event
    loop's re-prediction (tau = t), then one heapify: every key has the bits
    a pair-by-pair push gives it, and pop order depends only on the keys,
    which are unique.  The pass runs on the lists: a numpy pass costs about
    20 us whatever the size, which would triple the heap build of the
    many few-rod runs.
    """
    n = len(x)
    d = t - t  # tau - t_i of every pair
    heap = []
    for i in range(n if box is not None else n - 1):
        j, off = i + 1, 0.0
        if j == n:
            j, off = 0, box
        rel = v[i] - v[j]
        if rel > _TINY:
            gap = (x[j] + off + v[j] * d) - (x[i] + v[i] * d) - sigma
            heap.append((t + (0.0 if 0.0 > gap else gap) / rel, i, j, 0, 0))
    heapq.heapify(heap)
    return heap


def evolve_rods_ensemble(q: np.ndarray, p: np.ndarray, t: float,
                         sigma: float, eps: Inelasticity):
    """Vectorized exact evolution of M independent 1D rod systems (unbounded).

    ``q``/``p`` have shape (M, N) with positions sorted ascending per row and
    pairwise gaps >= sigma.  Rods never exchange order, so only adjacent
    pairs collide; each round resolves at most one collision per row: the
    earliest contact, the first gap on ties, with the event loop's map
    :func:`~granulab.core.collide_rods` (an exchange at eps = 0).

    Each rod's positions and momenta are held in one contiguous array of M
    entries; the caller's arrays are not modified.  The first round runs in
    place on every row.  Each later round runs on compact copies of the
    rows that collided in the round before, taken by row index (never by a
    boolean mask), and writes those rows back by the same index.
    Returns (q_final, p_final, collisions_per_row); the two (M, N) arrays
    are column views of the per-rod arrays.
    """
    qo = np.array(np.asarray(q, dtype=float).T, order="C")  # one row per rod
    po = np.array(np.asarray(p, dtype=float).T, order="C")
    n, m = qo.shape
    ncol = np.zeros(m, dtype=np.int64)
    if n < 2 or t == 0.0:
        return (qo + po * t).T, po.T, ncol
    max_rounds = 100 * n + 1000
    # the rows of the current round: every row (as views) in the first one
    qs, ps = list(qo), list(po)
    remaining = np.full(m, float(t))
    rows = None
    for _ in range(max_rounds):
        if remaining.size == 0:
            return qo.T, po.T, ncol
        tmin, k = _first_contact(qs, ps, sigma)
        hit = np.flatnonzero(tmin <= remaining)
        dt = np.minimum(tmin, remaining)  # tmin at a hit, else remaining
        for qj, pj in zip(qs, ps):
            qj += pj * dt
        kh = k.take(hit)
        for j in range(n - 1):
            r = hit.take(np.flatnonzero(kh == j))
            ps[j][r], ps[j + 1][r] = core.collide_rods(
                ps[j].take(r), ps[j + 1].take(r), eps.epsilon)
        if rows is None:
            rows = hit
        else:
            for j in range(n):
                qo[j][rows] = qs[j]
                po[j][rows] = ps[j]
            rows = rows.take(hit)
        ncol[rows] += 1
        remaining = remaining.take(hit) - tmin.take(hit)
        qs = [a.take(hit) for a in qs]
        ps = [a.take(hit) for a in ps]
    raise EventStormError(
        f"evolve_rods_ensemble exceeded {max_rounds} rounds; "
        "likely inelastic collapse in some row"
    )


def _first_contact(qs, ps, sigma):
    """Earliest contact time of each row over its N-1 adjacent gaps and the
    first gap reaching it (inf and 0 when no pair approaches); each gap's
    contact time is computed on its approaching rows only."""
    tmin = np.full(qs[0].size, np.inf)
    k = np.zeros(qs[0].size, dtype=np.intp)
    for j in range(len(qs) - 1):
        rel = ps[j] - ps[j + 1]
        a = np.flatnonzero(rel > _TINY)
        tj = qs[j + 1].take(a)
        tj -= qs[j].take(a)
        tj -= sigma
        np.maximum(tj, 0.0, out=tj)
        tj /= rel.take(a)
        if j == 0:
            tmin[a] = tj
        else:
            better = np.flatnonzero(tj < tmin.take(a))
            b = a.take(better)
            tmin[b] = tj.take(better)
            k[b] = j
    return tmin, k
