"""Collision-integral evaluation and a stochastic solver for the 1D limit.

Two pieces share the collision algebra of :mod:`granulab.core`:

* a Monte Carlo evaluator of the hard-sphere collision integral with
  finite-diameter gain/loss offsets, in one and three dimensions, acting on
  a caller-supplied two-particle density (``precollide``);
* a direct-simulation Monte Carlo (DSMC) solver for the one-dimensional
  kinetic equation of point particles: streaming plus per-cell randomized
  binary collisions with kernel |p - p1| under a per-cell majorant, applied
  by ``collide_rods``, the rod map of the event engine.

The gain term carries the pre-collision momenta and the 1/(1-2*eps)^2
weight (inverse-map Jacobian times the kernel scaling).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Inelasticity, collide_rods, precollide
from .errors import ConfigError, DtGuardError


def maxwellian_product_f2(temperature: float = 1.0, d: int = 1):
    """Spatially uniform product two-particle density with Gaussian momenta,
    at unit number density; the density takes (M, d) arrays."""
    norm = (2.0 * np.pi * temperature) ** (-0.5 * d)

    def f2(q1, p1, q2, p2):
        s1 = np.add.reduce(p1 * p1, axis=-1)
        s2 = np.add.reduce(p2 * p2, axis=-1)
        return (norm * np.exp(-0.5 * s1 / temperature)
                * (norm * np.exp(-0.5 * s2 / temperature)))

    return f2


def enskog_collision_integral(f2_eval, x1, sigma: float, eps: Inelasticity,
                              mc_budget: int, d: int = 1, *,
                              rng: np.random.Generator):
    """Monte Carlo gain-minus-loss collision integral at the phase point x1.

    ``f2_eval(q1, p1, q2, p2)`` takes (M, d) arrays and returns the M
    density values: an array of shape (M,), or of a shape that broadcasts
    to it, (1,) or (); any other shape, such as (M, 1), raises
    ConfigError.  The gain is
    evaluated at pre-collision momenta and offset position q1 - sigma*eta,
    the loss at q1 + sigma*eta; in 1D the contact normal is the sign of the
    relative momentum, in 3D it is drawn uniformly from the approach
    half-sphere (measure 2*pi) and the prefactor sigma^2 applies.
    Momentum nodes use a centered Gaussian proposal of scale 2.
    Returns (value, stderr).
    """
    if d not in (1, 3):
        raise ConfigError(f"dimension must be 1 or 3, got {d}")
    if mc_budget < 2:
        raise ConfigError("mc_budget must be at least 2")
    q1, p1 = (np.asarray(a, dtype=float).reshape(1, d) for a in x1)
    m = int(mc_budget)

    p_scale = 2.0
    p2 = rng.normal(0.0, p_scale, size=(m, d))
    rho = ((2.0 * np.pi * p_scale ** 2) ** (-0.5 * d)
           * np.exp(-0.5 * np.add.reduce(p2 * p2, axis=1) / p_scale ** 2))
    g = p1 - p2
    if d == 1:
        eta = np.where(g < 0.0, -1.0, 1.0)  # sign(g), with +1 at g == 0
        measure = 1.0
        prefac = 1.0
    else:
        eta = rng.normal(size=(m, 3))
        eta /= np.sqrt(np.add.reduce(eta * eta, axis=1, keepdims=True))
        eta[np.add.reduce(eta * g, axis=1) < 0.0] *= -1.0
        measure = 2.0 * np.pi
        prefac = sigma ** 2
    g_n = np.add.reduce(eta * g, axis=1)
    p1_pre, p2_pre = precollide(p1, p2, eta, eps)

    q1b = q1.repeat(m, axis=0)
    gain = np.asarray(f2_eval(q1b, p1_pre, q1 - sigma * eta, p2_pre),
                      dtype=float)
    loss = np.asarray(f2_eval(q1b, p1.repeat(m, axis=0), q1 + sigma * eta,
                              p2), dtype=float)
    if not {gain.shape, loss.shape} <= {(m,), (1,), ()}:
        raise ConfigError(f"two-particle density must return shape ({m},), "
                          f"got {gain.shape} and {loss.shape}")
    if not (np.isfinite(gain).all() and np.isfinite(loss).all()):
        raise ConfigError("two-particle density returned non-finite values")

    vals = prefac * measure * g_n * (
        gain / (1.0 - 2.0 * eps.epsilon) ** 2 - loss) / rho
    # vals.mean() and vals.std(ddof=1), with the same float operations
    mean = np.add.reduce(vals) / m
    dev = vals - mean
    dev *= dev
    value = float(mean)
    stderr = math.sqrt(np.add.reduce(dev) / (m - 1)) / math.sqrt(m)
    return value, stderr


# -- 1D DSMC ---------------------------------------------------------------

@dataclass
class DsmcState:
    """Stochastic representation of f1(t, q, p) on a periodic 1D interval.

    Each sample stands for ``weight`` physical particles; the number
    density is n_samples * weight / length.
    """

    q: np.ndarray
    p: np.ndarray
    length: float
    n_cells: int
    eps: Inelasticity
    weight: float
    time: float = 0.0
    # (q, length, n_cells, order, counts, starts) of the dsmc_step that made
    # this state; suggest_dt reuses the order while the first three still
    # match, and replace() and copy() drop it
    _by_cell: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.p = np.asarray(self.p, dtype=float).ravel()
        if self.q.shape != self.p.shape:
            raise ConfigError("position and momentum sample counts differ")
        if self.length <= 0 or self.n_cells < 1 or self.weight <= 0:
            raise ConfigError("length, n_cells and weight must be positive")

    @property
    def n_samples(self) -> int:
        return self.q.size

    def copy(self) -> "DsmcState":
        return replace(self, q=self.q.copy(), p=self.p.copy())


def dsmc_init(f1_sampler, n_samples: int, n_cells: int, eps: Inelasticity,
              rng: np.random.Generator, density: float = 1.0) -> DsmcState:
    """Draw an initial DSMC ensemble from a one-particle sampler."""
    q, p = f1_sampler.sample(n_samples, rng)
    length = float(f1_sampler.length)
    return DsmcState(np.asarray(q)[:, 0], np.asarray(p)[:, 0], length,
                     n_cells, eps, weight=density * length / n_samples)


def granular_temperature(state: DsmcState) -> float:
    """Variance of the momentum samples (1D granular temperature)."""
    if state.n_samples < 2:
        raise ConfigError("temperature needs at least two samples")
    return float(np.var(state.p))


def dsmc_moments(state: DsmcState):
    """(mass, momentum, energy, temperature) of the represented density.
    The energy sums with einsum, not a BLAS dot, whose rounding depends on
    the BLAS thread count."""
    w = state.weight
    return (w * state.n_samples, w * float(state.p.sum()),
            0.5 * w * float(np.einsum("i,i->", state.p, state.p)),
            granular_temperature(state))


def _by_cell(q, length: float, n_cells: int):
    """Stable by-cell order of the samples as intp (``take`` converts other
    index types), each cell's sample count and its start in that order;
    positions outside [0, length) fall in the nearest end cell.  One sort
    of the unique keys ``cell << b | index`` (b the bit length of n - 1)
    gives the order: int32 when ``n_cells << b`` fits, else int64."""
    b = max(q.size - 1, 0).bit_length()
    key_type = np.int32 if n_cells << b <= np.iinfo(np.int32).max else np.int64
    x = q / (length / n_cells)
    key = np.clip(x, 0, n_cells - 1, out=x).astype(key_type)
    key <<= b
    key |= np.arange(q.size, dtype=key_type)
    key.sort()
    starts = np.searchsorted(key, np.arange(n_cells + 1, dtype=key_type) << b)
    order = np.bitwise_and(key, (1 << b) - 1, dtype=np.intp)
    return order, np.diff(starts), starts[:-1]


def _spans(p, order, counts, starts):
    """Momentum span max p - min p of each cell from its run of the by-cell
    order; the span is 0 in cells with fewer than two samples."""
    filled = np.flatnonzero(counts)
    p_sorted = p.take(order)
    span = np.zeros(counts.size)
    span[filled] = (np.maximum.reduceat(p_sorted, starts[filled])
                    - np.minimum.reduceat(p_sorted, starts[filled]))
    return span


def dsmc_step(state: DsmcState, dt: float,
              rng: np.random.Generator) -> DsmcState:
    """One streaming + collision step of the 1D DSMC scheme.

    Streaming wraps only the samples that leave [0, length) (or land on
    -0.0) with ``np.mod``, which is the identity on every other position,
    so the positions equal ``np.mod(q + p*dt, length)`` bitwise.

    Candidate pairs per cell follow the majorant rate with
    v_max = max p - min p in the cell; acceptance is |dp| / v_max and
    accepted pairs get post-collision momenta from the inelastic collision
    rule.  The samples are ordered by cell, and by index within a cell,
    with one sort of integer keys (:func:`_by_cell`), and the spans are
    reduced over each cell's run of that order.  At dt > 0 a non-finite
    position or momentum raises :class:`ConfigError` before any draw.

    The dt guard is checked for every cell before any random number is
    drawn: if a per-particle collision probability reaches 0.2, the step
    raises :class:`DtGuardError` naming the first such cell, and neither
    ``state`` nor ``rng`` has changed.

    Draws are made cell by cell in cell order (one uniform for the
    candidate count, then the two index arrays, then the acceptance
    uniforms), and the candidates are applied in dependency-ordered rounds:
    a pair joins a round once no earlier pending pair touches either of its
    samples, so the pairs of one round are disjoint and each one sees the
    momenta a pair-by-pair loop in draw order would see.  The results are
    therefore bitwise identical to that loop.

    The returned state keeps the by-cell order of its positions for
    :func:`suggest_dt`, and its ``q`` is read-only so that order cannot go
    stale; ``copy()`` gives writable arrays without it.
    """
    if not 0.0 <= dt < np.inf:
        raise ConfigError("dt must be finite and nonnegative")
    if dt == 0.0:
        return replace(state.copy(), time=state.time + dt)
    q = state.p * dt
    q += state.q
    if not np.isfinite(q).all():
        raise ConfigError("positions and momenta must be finite")
    wrap = np.flatnonzero(np.signbit(q) | (q >= state.length))
    q[wrap] = np.mod(q[wrap], state.length)
    q.flags.writeable = False
    out = replace(state, q=q, p=state.p.copy(), time=state.time + dt)
    if state.n_samples < 2:
        return out

    order, counts, starts = _by_cell(out.q, out.length, out.n_cells)
    out._by_cell = (out.q, out.length, out.n_cells, order, counts, starts)
    vmax = _spans(out.p, order, counts, starts)
    rate = out.weight / (out.length / out.n_cells) * dt
    per_particle = rate * (counts - 1) * vmax
    bad = np.flatnonzero(per_particle >= 0.2)
    if bad.size:
        c = int(bad[0])
        raise DtGuardError(
            f"cell {c}: per-particle collision probability "
            f"{per_particle[c]:.3f} >= 0.2; reduce dt")

    mean_cand = rate * counts * (counts - 1) / 2.0 * vmax
    drawn, ii, jj, u = [], [], [], []
    active = np.flatnonzero(vmax > 0.0)
    for c, nc, mc in zip(active.tolist(), counts[active].tolist(),
                         mean_cand[active].tolist()):
        n_cand = int(mc) + (rng.random() < mc - int(mc))
        if n_cand == 0:
            continue
        drawn.append(c)
        ii.append(rng.integers(0, nc, size=n_cand))
        jj.append(rng.integers(0, nc - 1, size=n_cand))
        u.append(rng.random(n_cand))
    if not drawn:
        return out
    pair_cell = np.repeat(drawn, [x.size for x in ii])
    ii = np.concatenate(ii)
    jj = np.concatenate(jj)
    jj += jj >= ii
    # local indices -> positions in the by-cell order -> sample ids
    ids = order[np.concatenate([ii, jj]) + np.tile(starts[pair_cell], 2)]
    _collide_in_rounds(out.p, ids[:ii.size], ids[ii.size:],
                       np.concatenate(u), vmax[pair_cell], out.eps.epsilon)
    return out


def _collide_in_rounds(p, a, b, u, vmax, epsilon):
    """Apply candidate pairs (a[k], b[k]) to ``p`` in place, with the result
    of applying them one at a time in index order.

    Each round takes every pending pair whose two samples no earlier pending
    pair touches; those pairs are disjoint, so one ``collide_rods`` call on
    arrays applies them with the loop's float operations and operands.
    """
    slots = np.arange(2 * a.size)
    first = np.full(p.size, slots.size)  # first pending slot of each sample
    while a.size:
        ends = np.empty(2 * a.size, dtype=a.dtype)
        ends[0::2] = a
        ends[1::2] = b
        np.minimum.at(first, ends, slots[:ends.size])
        is_first = first[ends] == slots[:ends.size]
        first[ends] = slots.size
        ready = is_first[0::2] & is_first[1::2]
        ra, rb = a[ready], b[ready]
        dp = p[ra] - p[rb]
        hit = u[ready] < np.abs(dp) / vmax[ready]
        ra, rb = ra[hit], rb[hit]
        p[ra], p[rb] = collide_rods(p[ra], p[rb], epsilon)
        wait = ~ready
        a, b, u, vmax = a[wait], b[wait], u[wait], vmax[wait]


def suggest_dt(state: DsmcState, safety: float = 0.5) -> float:
    """Largest dt keeping per-particle collision probabilities under the
    guard, scaled by ``safety``.

    The probabilities are measured on the current (pre-streaming) cells;
    streaming within the step can raise them, which
    :func:`solve_limit_equation` absorbs by halving dt.  On a state made by
    :func:`dsmc_step` the cells come from that step's by-cell order and
    only the spans are recomputed, from the post-collision momenta; on any
    other state the same order is built here.
    """
    cell_len = state.length / state.n_cells
    c = state._by_cell
    if (c is not None and c[0] is state.q
            and c[1:3] == (state.length, state.n_cells)):
        order, counts, starts = c[3:]
    else:  # not made by a step, or its positions were replaced since
        if not (np.isfinite(state.q).all() and np.isfinite(state.p).all()):
            raise ConfigError("positions and momenta must be finite")
        order, counts, starts = _by_cell(state.q, state.length, state.n_cells)
    vmax = _spans(state.p, order, counts, starts)
    worst = float(np.max(state.weight / cell_len * (counts - 1) * vmax))
    if worst <= 0.0:
        return np.inf
    return safety * 0.2 / worst


@dataclass
class PhaseHistogram:
    """Gridded weighted estimate of a phase-space density."""

    q_edges: np.ndarray
    p_edges: np.ndarray
    counts: np.ndarray
    sample_weight: float = 1.0
    time: float = 0.0

    def __post_init__(self):
        self.q_edges = np.asarray(self.q_edges, dtype=float)
        self.p_edges = np.asarray(self.p_edges, dtype=float)
        if (np.any(np.diff(self.q_edges) <= 0)
                or np.any(np.diff(self.p_edges) <= 0)):
            raise ConfigError("histogram bin edges must be increasing")

    @classmethod
    def from_samples(cls, q, p, q_edges, p_edges, sample_weight: float = 1.0,
                     time: float = 0.0) -> "PhaseHistogram":
        counts, _, _ = np.histogram2d(np.ravel(q), np.ravel(p),
                                      bins=[q_edges, p_edges])
        return cls(q_edges, p_edges, counts * sample_weight,
                   sample_weight, time)


@dataclass
class LimitSolution:
    """DSMC trajectory snapshots plus moment time series."""

    histograms: list = field(default_factory=list)
    moments: list = field(default_factory=list)  # (t, mass, mom, E, T)
    final_state: DsmcState | None = None
    dt_halvings: int = 0  # times a step was retried with half the dt


_MAX_DT_HALVINGS = 10


def solve_limit_equation(f1_sampler, t_end: float, eps: Inelasticity,
                         seed: int, n_samples: int = 100_000,
                         n_cells: int = 64, density: float = 1.0,
                         snapshot_times=None, q_bins: int = 16,
                         p_bins: int = 48) -> LimitSolution:
    """DSMC solve of the 1D limit equation up to t_end.

    Snapshots are gridded into PhaseHistograms at the requested times
    (default: t=0 and t_end); moments are recorded at every step.  A step
    whose streaming trips the dt guard is retried from the same state with
    half the dt, up to ``_MAX_DT_HALVINGS`` times; a failed attempt draws no
    random numbers, so a run that never trips the guard is unaffected.  The
    solution counts the halvings in ``dt_halvings``.
    """
    rng = np.random.default_rng(seed)
    state = dsmc_init(f1_sampler, n_samples, n_cells, eps, rng,
                      density=density)
    q_edges = np.linspace(0.0, state.length, q_bins + 1)
    p_lim = 6.0 * np.sqrt(max(granular_temperature(state), 1e-12))
    p_edges = np.linspace(-p_lim, p_lim, p_bins + 1)
    if snapshot_times is None:
        snapshot_times = [0.0, t_end]
    pending = sorted(set(float(t) for t in snapshot_times))

    sol = LimitSolution()
    while True:
        sol.moments.append((state.time,) + dsmc_moments(state))
        while pending and pending[0] <= state.time + 1e-12:
            sol.histograms.append(PhaseHistogram.from_samples(
                state.q, state.p, q_edges, p_edges, state.weight,
                time=state.time))
            pending.pop(0)
        if not state.time < t_end - 1e-12:
            break
        dt = suggest_dt(state)
        target = pending[0] if pending else t_end
        dt = min(dt, target - state.time, t_end - state.time)
        for halvings in range(_MAX_DT_HALVINGS + 1):
            try:
                state = dsmc_step(state, dt, rng)
                break
            except DtGuardError:
                if halvings == _MAX_DT_HALVINGS:
                    raise
                dt *= 0.5
                sol.dt_halvings += 1
    sol.final_state = state
    return sol


_QUADRATURE_BINS = 256


def energy_moment_quadrature(p_samples, eps: Inelasticity,
                             number_density: float):
    """dT/dt of a homogeneous 1D gas by quadrature of the collision
    integral's energy moment at the empirical momentum distribution.

    Per collision of momenta (p, p1) the energy loss is
    eps*(1-eps)*(p-p1)^2 and the collision rate density carries the kernel
    |p-p1|; binning the samples reduces the pair sum to the histogram
    outer product on ``_QUADRATURE_BINS`` equal bins.
    """
    p = np.ravel(np.asarray(p_samples, dtype=float))
    if p.size < 2:
        raise ConfigError("need at least two samples")
    lo, hi = p.min(), p.max()
    if hi - lo <= 0:
        return 0.0
    edges = np.linspace(lo, hi, _QUADRATURE_BINS + 1)
    counts, _ = np.histogram(p, bins=edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    frac = counts / p.size
    diff3 = np.abs(mids[:, None] - mids[None, :]) ** 3
    s = float(frac @ diff3 @ frac)
    return -eps.epsilon * (1.0 - eps.epsilon) * number_density * s
