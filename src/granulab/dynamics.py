"""Exact event-driven dynamics of inelastic hard spheres.

Free flight between collisions, earliest-event scheduling with invalidation
counters (both engines pop an entry only when stale or applied, so an
interrupted run resumes with no contact lost), momentum updates through the
single collision algebra in :mod:`granulab.core` (``collide_rods`` on the 1D
fast paths, ``_collision`` in the all-pairs engine).  There are two engines:

* a 1D engine using sorted-order adjacency (rods never pass each other, so
  only neighbours can collide), with lazy per-particle times -- the fast
  path used for large runs.  One routine, ``_predict_adjacent``, predicts
  every adjacent pair: each pair of the initial heap at time 0 and the two
  new neighbour pairs after each event.  The event loop runs on Python
  floats and lists (every event is scalar work, which numpy scalars and
  1-element arrays only slow down) and collides, counts and logs inline,
  with two kinds of call per step: ``collide_rods`` and the predictor;
* an all-pairs engine for any dimension, the 1D oracle and the 3D engine,
  which predicts a particle against all its partners in one numpy call and
  runs each event inline, in the 1D loop's order.

The inverse-collision flow (free flight backward in time, pre-collision
momenta at contacts) is exposed through :func:`advance_inverse`; it is the
pathwise realization of the adjoint evolution on states.
"""
from __future__ import annotations

import heapq
import math
import sys
from array import array
from itertools import product

import numpy as np

from . import core
from .core import Inelasticity, SystemState, _min_gap
from .errors import ConfigError, EventStormError

# relative overlap slack tolerated when validating post-event configurations
_OVERLAP_SLACK = 1e-9
_OVERLAP_MESSAGE = "initial configuration has overlapping particles"
# the normal of every 1D adjacency collision as passed to the algebra (slot i
# is always the left neighbour); one read-only array shared by the log rows
_ETA_1D = np.array([1.0])
_ETA_1D.flags.writeable = False


class TrajectoryLog:
    """Ordered collision events, stored as columns.

    ``t``, ``i``, ``j``, ``eta``, ``g_n`` and ``dE`` hold one entry per
    event, in event order: the time, the pair, the normal passed to the
    collision algebra (approach condition met), the normal relative speed
    at impact and the kinetic-energy change.  ``t`` is the state's start
    time plus the time elapsed in the run, under the inverse rule too.
    ``dE`` is 0.0 exactly for an elastic collision (eps = 0, or made
    elastic by the TC rule) and never positive beyond round-off otherwise.
    """

    def __init__(self):
        self.t = array("d")
        self.i = array("q")
        self.j = array("q")
        self.eta = []
        self.g_n = array("d")
        self.dE = array("d")

    @property
    def events(self) -> range:
        """``range(n_events)``, read only by perfbench, for ``len``, until
        ROADMAP item 6 moves it to :attr:`n_events`."""
        return range(self.n_events)

    @property
    def n_events(self) -> int:
        return len(self.t)

    def total_dissipation(self) -> float:
        return sum(self.dE)


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
    exceeds that many events within one unit of time; a NaN storm_limit or
    tc_threshold is refused (``ValueError``).  ``engine="allpairs"``
    runs the all-pairs engine in 1D, as the oracle of the adjacency engine.

    ``t`` is the time elapsed in the run, from 0.0: the heap keys, local
    times and storm windows never see the state's start time, which only
    :meth:`state` (start + t forward, start - t inverse) and the log rows
    (start + t under both rules) add; the guards' messages give t.

    The all-pairs engine predicts a particle against all its partners in one
    numpy call, over the 3^d nearest periodic images, with the root
    t = c / (sqrt(disc/4) - dq.dv) of disc/4 = |dv|^2 sigma^2 - |dq^dv|^2 and
    c = (|dq| - sigma)(|dq| + sigma), which keeps sigma at any |dq|.  The
    images hold every contact before H = (1.5 box - sigma) / max_k |dv_k|;
    past it the particle is predicted afresh.  A contact that overlaps
    without approaching (the clock no longer resolves it) and a collision
    with a non-finite energy change raise :class:`EventStormError`, and so
    does a prediction whose relative velocity or root is not finite.

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
        if math.isnan(storm_limit) or math.isnan(tc_threshold or 0.0):
            raise ValueError("storm_limit and tc_threshold must not be NaN")
        if not (np.isfinite(state.q).all() and np.isfinite(state.p).all()):
            raise ValueError("positions and momenta must be finite")
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
        self._t0 = state.time
        self.t = 0.0
        self.n_events = 0
        self.n_stale_pops = 0  # heap entries popped after their pair changed
        self.n_tc_elastic = 0  # collisions the TC rule made elastic

        p = -state.p if self.rule == "inverse" else state.p
        # lazy per-particle positions: x[i] is the position at local time tl[i]
        self.tl = [0.0] * self.n
        self.cnt = [0] * self.n
        self._storm_cnt = [0] * self.n
        self._last_event = [-math.inf] * self.n  # TC rule: last collision
        self._storm_t0 = [0.0] * self.n  # start of the storm window
        self.heap: list = []

        if self.engine == "adjacent":
            if self.d != 1:
                raise ValueError("adjacency engine requires d == 1")
            x = state.q[:, 0] if self.box is None else np.mod(state.q[:, 0], self.box)
            order = np.argsort(x)  # a ring orders x in [0, box)
            x = x[order]
            if _min_gap(x, self.box) < self.sigma * (1.0 - _OVERLAP_SLACK):
                raise ValueError(_OVERLAP_MESSAGE)
            # sorted slot -> label, copied as bytes: no Python int per rod
            self.order = array("q", order.astype("q").tobytes())
            self.x = x.tolist()                      # unwrapped, stays sorted
            self.v = p[order, 0].tolist()
            for i in range(self.n - 1):
                self._predict_adjacent(i, i + 1, 0.0, 0.0)
            if self.box is not None and self.n:
                self._predict_adjacent(self.n - 1, 0, self.box, 0.0)
        elif self.engine == "allpairs":
            if not state.is_allowed(tol=_OVERLAP_SLACK):
                raise ValueError(_OVERLAP_MESSAGE)
            self.order = np.arange(self.n)  # slot -> label: the identity
            self.x = state.q.copy()
            self.v = p.copy()
            shifts = (0.0,) if self.box is None else (-self.box, 0.0, self.box)
            self._images = np.array(list(product(shifts, repeat=self.d)))
            for i in range(self.n - 1):
                self._predict(i, np.arange(i + 1, self.n))
        else:
            raise ValueError(f"unknown engine {self.engine!r}")

    # -- prediction -------------------------------------------------------

    def _predict_adjacent(self, a, b, off, t):
        """Push the first contact of the adjacent rods a and b, b on a's
        right (``off`` is the box when the pair wraps, 0.0 otherwise), as
        predicted at elapsed time t, which neither rod's local time
        exceeds; nothing when the pair does not approach."""
        v = self.v
        rel = v[a] - v[b]
        if rel > 0.0:
            x, tl = self.x, self.tl
            gap = ((x[b] + off + v[b] * (t - tl[b]))
                   - (x[a] + v[a] * (t - tl[a])) - self.sigma)
            heapq.heappush(self.heap, (t + (0.0 if 0.0 > gap else gap) / rel,
                                       a, b, self.cnt[a], self.cnt[b]))

    @np.errstate(over="ignore", invalid="ignore")  # overflow refused below
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
        bad = ~(np.isfinite(b) & np.isfinite(disc) & np.isfinite(r)).all(1)
        if bad.any():  # the relative velocity or the root overflowed
            raise self._overflow_error(i, int(partners[bad][0]), tau)
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
        always a configuration the flow actually reaches.  A refusal
        (:class:`EventStormError`) applies, counts and logs nothing of the
        refused event, whose contact stays pending, and stops the clock at
        the last event applied, too.  Returns the number of collisions
        processed in this call.
        """
        if dt is None and (max_events is None
                           or self.d > 1 and self.box is not None):
            raise ValueError("provide dt and/or max_events; a periodic run "
                             "in d > 1 needs dt, as its re-checks never end")
        t_end = math.inf if dt is None else self.t + dt
        if dt is not None and dt < 0:
            raise ValueError("dt must be nonnegative")
        # int bounds; a rod's event is refused at ``cap`` events in its window
        budget = sys.maxsize if max_events is None else max_events
        limit = self.storm_limit
        cap = math.floor(max(limit, 0.0)) if limit < math.inf else sys.maxsize
        if self.engine == "adjacent":
            processed, stopped = self._run_adjacent(t_end, budget, cap)
        else:
            processed, stopped = self._run_pairs(t_end, budget, cap)
        if not stopped and t_end < math.inf:
            self.t = t_end
        return processed

    def _run_adjacent(self, t_end, budget, cap):
        """The 1D event loop: returns (collisions, whether the budget
        stopped it), with the clock at the last event applied.

        Each event's free flight, TC rule, collision, counters, storm guard
        and log row run inline on local names; the only calls per step are
        ``collide_rods`` and :meth:`_predict_adjacent` on the two new
        neighbour pairs.  Every push is at or after its own event, so
        events pop in time order, no local time exceeds t_ev and each pair
        is predicted from t_ev.  A collision leaves its own pair receding
        (the relative speed becomes -(1-2 eps) g, -g/(1-2 eps) or -g, and
        rounding keeps the sign), so only (j, right) and (left, i) are
        re-predicted.  Entries are popped as in :meth:`_run_pairs`, when
        stale or applied, so an entry that a run stops or raises on stays
        pending; a refused event changes nothing but the rods' flight to it
        and storm windows.
        """
        heap, cnt, x, v, tl = self.heap, self.cnt, self.x, self.v, self.tl
        last, storm_t0, storm_cnt = (self._last_event, self._storm_t0,
                                     self._storm_cnt)
        n, box, log, order = self.n, self.box, self.log, self.order
        eps, tc = self.eps.epsilon, self.tc_threshold
        inverse, t0 = self.rule == "inverse", self._t0
        pop = heapq.heappop
        collide_rods, predict = core.collide_rods, self._predict_adjacent
        isfinite = math.isfinite
        if log is not None:
            log_t, log_i, log_j, log_eta, log_g, log_de = (
                log.t.append, log.i.append, log.j.append, log.eta.append,
                log.g_n.append, log.dE.append)
        processed = stale = tc_elastic = 0
        t_last = self.t
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
                x[i] = x[i] + v[i] * (t_ev - tl[i])
                x[j] = x[j] + v[j] * (t_ev - tl[j])
                tl[i] = tl[j] = t_ev
                vi, vj = v[i], v[j]
                g_n = vi - vj
                elastic = tc is not None and (t_ev - last[i] < tc
                                              or t_ev - last[j] < tc)
                e = 0.0 if elastic else eps
                wi, wj = collide_rods(vi, vj, e, inverse)
                dE = (0.5 * (wi * wi + wj * wj - vi * vi - vj * vj) if e
                      else 0.0)
                if not isfinite(dE):
                    raise self._overflow_error(order[i], order[j], t_ev)
                if t_ev - storm_t0[i] >= 1.0:
                    storm_t0[i] = t_ev
                    storm_cnt[i] = 0
                if storm_cnt[i] >= cap:
                    raise self._storm_error(order[i], t_ev)
                if t_ev - storm_t0[j] >= 1.0:
                    storm_t0[j] = t_ev
                    storm_cnt[j] = 0
                if storm_cnt[j] >= cap:
                    raise self._storm_error(order[j], t_ev)
                # no refusal past this point: apply the event
                pop(heap)
                t_last = t_ev
                storm_cnt[i] += 1
                storm_cnt[j] += 1
                last[i] = last[j] = t_ev
                if elastic:
                    tc_elastic += 1
                v[i] = wi
                v[j] = wj
                cnt[i] += 1
                cnt[j] += 1
                processed += 1
                if log is not None:
                    log_t(t0 + t_ev)
                    log_i(order[i])
                    log_j(order[j])
                    log_eta(_ETA_1D)
                    log_g(g_n)
                    log_de(dE)
                # re-predict (j, right) and (left, i); on a ring of two the
                # left pair is the right one and is pushed once
                if j + 1 < n:
                    predict(j, j + 1, 0.0, t_ev)
                elif box is not None:
                    predict(j, 0, box, t_ev)
                if i:
                    if i - 1 != j:
                        predict(i - 1, i, 0.0, t_ev)
                elif box is not None and n - 1 != j:
                    predict(n - 1, i, box, t_ev)
        finally:
            self.t = t_last
            self.n_events += processed
            self.n_stale_pops += stale
            self.n_tc_elastic += tc_elastic
        return processed, stopped

    def _run_pairs(self, t_end, budget, cap):
        """The all-pairs event loop; returns what :meth:`_run_adjacent`
        does.  Each event runs inline in that loop's order: flight, graze
        and overlap check, TC rule, collision map, dE guard, storm guard,
        counters, log row, then i and j are predicted afresh against
        everyone.  A stale entry is popped; any other is popped, and the
        clock moved to it, only once no guard refuses it.
        """
        heap, cnt, x, v, tl = self.heap, self.cnt, self.x, self.v, self.tl
        last, everyone, box, log = (self._last_event, self.order, self.box,
                                    self.log)
        storm_t0, storm_cnt = self._storm_t0, self._storm_cnt
        tc, t0, inverse = self.tc_threshold, self._t0, self.rule == "inverse"
        processed = 0
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
            x[i] += v[i] * (t_ev - tl[i])
            tl[i] = t_ev
            if i == j:  # horizon re-check: predict i afresh from t_ev
                heapq.heappop(heap)
                self.t = t_ev
                cnt[i] += 1
                self._predict(i, everyone[everyone != i])
                continue
            x[j] += v[j] * (t_ev - tl[j])
            tl[j] = t_ev
            # unit normal from j's center to i's center at contact
            dq = x[i] - x[j]
            if box is not None:
                dq -= box * np.round(dq / box)
            r = np.linalg.norm(dq)
            # with the normal pointing j -> i an approaching pair has
            # <eta, v_i - v_j> <= 0; negate so the algebra's condition holds
            eta = -(dq / r)
            vi, vj = v[i], v[j]  # rows, read before they are overwritten
            g_n = float(eta @ (vi - vj))
            if g_n <= 0.0:  # grazing, or a contact the clock cannot resolve
                if r < self.sigma * (1.0 - _OVERLAP_SLACK):
                    raise self._overflow_error(i, j, t_ev)
                heapq.heappop(heap)
                self.t = t_ev
                continue
            elastic = tc is not None and (t_ev - last[i] < tc
                                          or t_ev - last[j] < tc)
            e = 0.0 if elastic else self.eps.epsilon
            vi2, vj2 = core._collision(vi, vj, eta, e, inverse, check=False)
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                dE = float(0.5 * (vi2 @ vi2 + vj2 @ vj2 - vi @ vi - vj @ vj))
            if not math.isfinite(dE):
                raise self._overflow_error(i, j, t_ev)
            if not e:
                dE = 0.0
            for k in (i, j):
                if t_ev - storm_t0[k] >= 1.0:
                    storm_t0[k] = t_ev
                    storm_cnt[k] = 0
                if storm_cnt[k] >= cap:
                    raise self._storm_error(k, t_ev)
            heapq.heappop(heap)
            self.t = t_ev
            last[i] = last[j] = t_ev
            self.n_tc_elastic += elastic
            v[i] = vi2
            v[j] = vj2
            processed += 1
            self.n_events += 1
            for k in (i, j):
                cnt[k] += 1
                storm_cnt[k] += 1
            if log is not None:
                log.t.append(t0 + t_ev)
                log.i.append(i)
                log.j.append(j)
                log.eta.append(eta)
                log.g_n.append(g_n)
                log.dE.append(dE)
            self._predict(i, everyone[everyone != i])
            self._predict(j, everyone[(everyone != i) & (everyone != j)])
        return processed, stopped

    def state(self) -> SystemState:
        """Synchronized snapshot at the current simulation time."""
        x = np.asarray(self.x).reshape(self.n, self.d)
        v = np.asarray(self.v).reshape(self.n, self.d)
        q = np.empty((self.n, self.d))
        p = np.empty((self.n, self.d))
        q[self.order] = x + v * (self.t - np.array(self.tl))[:, None]
        p[self.order] = v
        if self.rule == "inverse":
            p = -p
        if self.box is not None:
            q = np.mod(q, self.box)
        return SystemState(q, p, self.sigma, self.eps, self.box,
                           self._t0 + self.t if self.rule == "forward"
                           else self._t0 - self.t)


def advance(state: SystemState, dt: float) -> SystemState:
    """Evolve a state forward by dt under a default :class:`Simulation`."""
    sim = Simulation(state)
    sim.run(dt=dt)
    return sim.state()


def advance_inverse(state: SystemState, dt: float) -> SystemState:
    """Evolve a state backward by dt: free flight with -p, pre-collision
    momenta at contacts.  Inverse of :func:`advance` for the same dt.

    Each contact applies the inverse collision map (Jacobian 1/(1-2*eps)),
    so the flow amplifies normal relative velocities for eps > 0.  It has
    no TC rule, so it cannot invert a forward run that used
    ``tc_threshold`` (whose elastic collisions it would undo inelastically).
    """
    sim = Simulation(state, rule="inverse")
    sim.run(dt=dt)
    return sim.state()


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
        a = np.flatnonzero(rel > 0.0)
        tj = qs[j + 1].take(a)
        tj -= qs[j].take(a)
        tj -= sigma
        np.maximum(tj, 0.0, out=tj)
        with np.errstate(over="ignore"):  # a subnormal rel: inf, no hit
            tj /= rel.take(a)
        if j == 0:
            tmin[a] = tj
        else:
            better = np.flatnonzero(tj < tmin.take(a))
            b = a.take(better)
            tmin[b] = tj.take(better)
            k[b] = j
    return tmin, k
