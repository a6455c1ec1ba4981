"""Cumulants of hard-sphere semigroups and the observable/state duality.

The machinery here evaluates alternating partition sums of evolution
operators pathwise: every operator is a composition of exact flows from
:mod:`granulab.dynamics`, applied to sampled phase points rather than to
gridded densities.  Covered pieces:

* set-partition enumeration with cumulant coefficients (-1)^{|P|-1}(|P|-1)!;
* cumulants of semigroups applied to observables, read off configurations
  assembled from isolated block evolutions; one partition-sum evaluator
  evolves each distinct block once (2^k - 1 blocks, Bell(k) partitions);
* scattering cumulants (interacting flow composed with inverse free flow)
  and the order-1 generating-operator identity;
* a truncated two-particle marginal functional of the state;
* a Monte Carlo duality harness comparing the observable picture against
  forward simulation with common random numbers.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Inelasticity, SystemState, _gap_positions, _mean_stderr
from .dynamics import Simulation, advance, evolve_rods_ensemble
from .errors import ConfigError, EventStormError

# element 0 of the index set stands for the distinguished cluster {Y\Z};
# elements 1..n are the adjoined singleton particles
CLUSTER = 0

_MAX_ORDER = 6
_ROW_BLOCK = 8192  # samples per duality block; malloc reuses their temporaries


@dataclass(frozen=True)
class PartitionTerm:
    """One partition of the cumulant index set with its coefficient.

    ``blocks`` partition {0, 1, ..., n} where 0 is the distinguished
    cluster treated as a single element; the coefficient is
    (-1)^{|P|-1} (|P|-1)!.
    """

    blocks: tuple
    coefficient: int


def set_partitions(items):
    """Yield all partitions of a sequence as tuples of tuples."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + ((first,) + sub[k],) + sub[k + 1:]
        yield ((first,),) + sub


@functools.cache
def enumerate_cumulant_terms(n: int):
    """All partition terms of the (1+n)th-order cumulant of semigroups, as a
    tuple built on the first call for each order."""
    if not 0 <= n <= _MAX_ORDER:
        raise ConfigError(f"cumulant order {n} outside [0, {_MAX_ORDER}]")
    return tuple(_cumulant_terms(range(n + 1)))


def _cumulant_terms(items):
    """Partition terms of ``items`` (sorted blocks) in set_partitions order."""
    for blocks in set_partitions(items):
        k = len(blocks)
        yield PartitionTerm(tuple(tuple(sorted(b)) for b in blocks),
                            (-1) ** (k - 1) * math.factorial(k - 1))


def _evolved_terms(terms, evolve, cache):
    """Yield (coefficient, block results) per term; evolve each block once."""
    for term in terms:
        for block in term.blocks:
            if block not in cache:
                cache[block] = evolve(block)
        yield term.coefficient, [cache[block] for block in term.blocks]


def _block_particles(block, cluster_size: int):
    return [j for el in block for j in (range(cluster_size) if el == CLUSTER
                                        else [cluster_size + el - 1])]


def apply_cumulant(n: int, t: float, b, q, p, sigma: float,
                   eps: Inelasticity, cluster_size: int = 1,
                   box: float | None = None) -> float:
    """Evaluate the (1+n)th-order cumulant of semigroups on an observable.

    ``q``/``p`` hold ``cluster_size + n`` particles: the distinguished
    cluster first, then the adjoined singletons.  Each distinct block
    evolves once, isolated, for time ``t``; one gather from the stack
    [q; block results...] assembles every term, and ``b`` reads its row.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)

    def evolve(idx):
        # a block reads only its own initial points: one result for all terms
        if t == 0.0:
            return q[idx], p[idx]
        out = advance(SystemState(q[idx], p[idx], sigma, eps, box), t)
        return out.q, out.p

    blocks, table = _term_table(n, cluster_size, len(q))
    qs, ps = zip((q, p), *map(evolve, blocks))
    qq, pp = np.concatenate(qs)[table], np.concatenate(ps)[table]
    total = 0.0
    for term, qk, pk in zip(enumerate_cumulant_terms(n), qq, pp):
        total += term.coefficient * float(b(qk, pk))
    return total


@functools.cache
def _term_table(n: int, cluster_size: int, rows: int):
    """The particles of the distinct blocks of the order-n terms in first-use
    order, and each term's row of every particle in [q; block results...]."""
    placed = {}  # block -> (its particles, their rows in the stack)

    def place(block):
        idx = np.array(_block_particles(block, cluster_size))
        top = rows + sum(len(i) for i, _ in placed.values())
        return idx, np.arange(top, top + len(idx))

    terms = enumerate_cumulant_terms(n)
    table = np.tile(np.arange(rows), (len(terms), 1))
    for k, (_, blocks) in enumerate(_evolved_terms(terms, place, placed)):
        for idx, at in blocks:
            table[k, idx] = at
    table.flags.writeable = False
    return [idx for idx, _ in placed.values()], table


# -- scattering cumulants --------------------------------------------------

def _scatter_map(q, p, idx, t, sigma, eps, box, orientation):
    """Scattering flow on the subset ``idx``: interacting evolution for t
    composed with the inverse free flow, with the adjoint Jacobian weight
    (1-2*eps)^(-collisions).

    ``orientation`` "observable": forward interacting flow, then free
    streaming backward.  "state": inverse interacting flow, then free
    streaming forward (the pullback used by the state functionals).
    """
    if t == 0.0 or len(idx) < 2:
        return q, p, 1.0
    forward = orientation == "observable"
    sim = Simulation(SystemState(q[idx], p[idx], sigma, eps, box),
                     rule="forward" if forward else "inverse")
    sim.run(dt=t)
    out = sim.state()
    qs = out.q - out.p * t if forward else out.q + out.p * t
    if box is not None:
        qs = np.mod(qs, box)
    weight = (1.0 - 2.0 * eps.epsilon) ** (-sim.n_events)
    q2, p2 = q.copy(), p.copy()
    q2[idx] = qs
    p2[idx] = out.p
    return q2, p2, weight


def _apply_terms(terms, q, p, t, sigma, eps, box, orientation):
    """Yield (coefficient, q, p, weight) per (coefficient, ops) term: the
    term's scattering maps applied left to right, their weights multiplied."""
    for coeff, ops in terms:
        qq, pp, weight = q, p, 1.0
        for subset in ops:
            qq, pp, w = _scatter_map(qq, pp, sorted(subset), t, sigma, eps,
                                     box, orientation)
            weight *= w
        yield coeff, qq, pp, weight


def scattering_term_list(n: int, cluster_size: int = 1):
    """Symbolic term list of the (1+n)th-order scattering cumulant.

    Each term is (coefficient, ops) where ops is a tuple of particle-index
    frozensets applied left to right; singleton scattering maps are
    identities and are dropped.
    """
    terms = []
    for pt in enumerate_cumulant_terms(n):
        ops = []
        for block in pt.blocks:
            idx = frozenset(_block_particles(block, cluster_size))
            if len(idx) >= 2:
                ops.append(idx)
        terms.append((pt.coefficient, tuple(sorted(ops, key=sorted))))
    return combine_terms(terms)


def generating_term_list(n: int, cluster_size: int = 1):
    """Symbolic term list of the (1+n)th-order generating operator.

    Order 0 is the scattering operator itself; order 1 subtracts the
    cluster scattering operator composed with the one-extra-particle
    scattering cumulants of each cluster member.
    """
    if n == 0:
        return scattering_term_list(0, cluster_size)
    if n != 1:
        raise ConfigError(f"generating operators implemented for n <= 1, got {n}")
    s = cluster_size
    terms = list(scattering_term_list(1, cluster_size))
    cluster_ops = scattering_term_list(0, cluster_size)
    for i in range(s):
        # second-order scattering cumulant on (i, s): S({i,s}) - I
        inner = [(1, (frozenset((i, s)),)), (-1, ())]
        for c1, ops1 in cluster_ops:
            for c2, ops2 in inner:
                terms.append((-c1 * c2, ops1 + ops2))
    return combine_terms(terms)


def combine_terms(terms):
    """Merge terms with identical op sequences; drop zero coefficients."""
    acc = {}
    for coeff, ops in terms:
        acc[ops] = acc.get(ops, 0) + coeff
    return tuple(sorted(((c, ops) for ops, c in acc.items() if c != 0),
                        key=lambda t: (len(t[1]), sorted(map(sorted, t[1])))))


def scattering_cumulant(n: int, t: float, q, p, sigma: float,
                        eps: Inelasticity, cluster_size: int = 1,
                        box: float | None = None,
                        orientation: str = "observable"):
    """Evaluate the (1+n)th-order scattering cumulant pathwise.

    Returns a list of (coefficient, q_mapped, p_mapped, weight) terms; the
    weight carries the adjoint Jacobian and the allowed-configuration
    indicator of the input.
    """
    if n not in (0, 1):
        raise ConfigError(f"scattering cumulants implemented for n <= 1, got {n}")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    allowed = SystemState(q, p, sigma, eps, box).is_allowed(tol=1e-12)
    terms = scattering_term_list(n, cluster_size)
    if not allowed:
        return [(coeff, q, p, 0.0) for coeff, _ in terms]
    return list(_apply_terms(terms, q, p, t, sigma, eps, box, orientation))


# -- marginal functionals of the state -------------------------------------

def _transported_density(f1_sampler, t, box):
    """Density of the free transport of the sampler's one-particle density."""
    def f1_t(qi, pi):
        q0 = qi - pi * t
        if box is not None:
            q0 = np.mod(q0, box)
        vol = f1_sampler.length
        if box is None and not np.all((0.0 <= q0) & (q0 < vol)):
            return 0.0
        return float(f1_sampler.momentum_pdf(pi[None, :])[0]) / vol
    return f1_t


def marginal_functional_F2(t: float, f1_sampler, x1, x2, sigma: float,
                           eps: Inelasticity, order: int = 0,
                           mc_samples: int = 0,
                           rng: np.random.Generator | None = None,
                           box: float | None = None):
    """Two-particle marginal functional of the state, truncated at ``order``.

    The one-particle input F1(t) is approximated by free transport of the
    sampler's density (exact when the sampler is spatially uniform on a
    periodic box).  Order 0 applies the leading generating operator as a
    pullback through the inverse interacting flow; order 1 adds a Monte
    Carlo estimate of the one-extra-particle correction.  Returns
    (value, stderr).  Order 1 is defined only while every composed
    scattering map meets allowed configurations: at moderate t (t=1,
    sigma=0.05, say) a map can meet overlapping rods and raise ``ValueError``,
    and on a ring the inverse flow can blow up and raise ``EventStormError``;
    the message names the Monte Carlo sample and the term.
    """
    q1, p1 = (np.asarray(a, dtype=float) for a in x1)
    q2, p2 = (np.asarray(a, dtype=float) for a in x2)
    q = np.stack([q1, q2])
    p = np.stack([p1, p2])
    if not SystemState(q, p, sigma, eps, box).is_allowed(tol=1e-12):
        return 0.0, 0.0
    f1_t = _transported_density(f1_sampler, t, box)
    terms = scattering_cumulant(0, t, q, p, sigma, eps, cluster_size=2,
                                box=box, orientation="state")
    value = sum(c * w * f1_t(qq[0], pp[0]) * f1_t(qq[1], pp[1])
                for c, qq, pp, w in terms)
    stderr = 0.0
    if order >= 1:
        if order > 1:
            raise ConfigError(f"marginal functionals implemented to order 1, got {order}")
        if mc_samples < 1 or rng is None:
            raise ConfigError("order 1 requires mc_samples >= 1 and an rng")
        term_list = generating_term_list(1, cluster_size=2)
        samples = np.zeros(mc_samples)
        for m in range(mc_samples):
            q3, p3 = f1_sampler.sample(1, rng)
            q3 = q3[0] + p3[0] * t  # propagate the proposal to time t
            if box is not None:
                q3 = np.mod(q3, box)
            qm = np.vstack([q, q3[None, :]])
            pm = np.vstack([p, p3])
            if not SystemState(qm, pm, sigma, eps, box).is_allowed(tol=1e-12):
                continue
            denom = f1_t(qm[2], pm[2])
            if denom <= 0.0:
                continue
            acc = 0.0
            for term in term_list:
                try:
                    coeff, qq, pp, w = next(_apply_terms(
                        (term,), qm, pm, t, sigma, eps, box, "state"))
                except (ValueError, EventStormError) as exc:
                    maps = " then ".join(str(sorted(op)) for op in term[1])
                    raise type(exc)(
                        f"order 1, Monte Carlo sample {m}, term with "
                        f"coefficient {term[0]} and maps {maps}: {exc}"
                    ) from exc
                acc += coeff * w * (f1_t(qq[0], pp[0]) * f1_t(qq[1], pp[1])
                                    * f1_t(qq[2], pp[2]))
            samples[m] = acc / denom
        mean, stderr = _mean_stderr(samples)
        value += mean
    return value, stderr


# -- duality harness -------------------------------------------------------

def duality_residual(b1, f1_sampler, t: float, n_particles: int,
                     mc_samples: int, sigma: float, eps: Inelasticity,
                     seed: int):
    """Monte Carlo residual of the observable/state duality.

    The state side evolves sampled configurations forward and evaluates the
    additive observable; the observable side sums cumulant expansions over
    all particle subsets of the same sampled configurations (common random
    numbers), which telescopes to the full-system evolution for a fixed
    particle number.  Each subset evolves once, however many partitions
    contain it as a block.  Positions are n disjoint rods [x, x + sigma)
    inside [0, ``f1_sampler.length``) (so x < length - sigma), drawn by
    ``core._gap_positions``, and momenta from a Gaussian of variance
    ``f1_sampler.temperature``.
    ``b1(q, p)`` must act elementwise on arrays of scalar 1D
    positions/momenta: the samples run in blocks of ``_ROW_BLOCK`` rows.
    Returns (residual, stderr), the stderr floored so the z-score is
    defined when the coupled estimator is exact to rounding.
    """
    if n_particles < 2:
        raise ConfigError("duality harness needs n_particles >= 2")
    if mc_samples < 1:
        raise ConfigError("duality harness needs mc_samples >= 1")
    m, n = mc_samples, n_particles
    length = f1_sampler.length
    if n * sigma >= length:
        raise ConfigError(f"no allowed configuration: n*sigma >= {length}")
    # every block draws the rows that one draw of all m*n positions and then
    # all m*n momenta would give it: a uniform takes one 64-bit word, so the
    # momenta start m*n words into the seed's stream, and normal draws
    # continue their stream
    rng = np.random.default_rng(seed)
    p_rng = np.random.default_rng(np.random.PCG64(seed).advance(m * n))
    p_sd = np.sqrt(f1_sampler.temperature)

    def evolve(block):
        # b1 of each particle of the block when the block evolves in isolation
        cols = list(block)
        qf, pf, _ = evolve_rods_ensemble(qb[cols].T, pb[cols].T, t, sigma, eps)
        return [b1(qf[:, k], pf[:, k]) for k in range(len(cols))]

    # every nonempty subset, in bitmask order, with its partition terms
    terms = [term for mask in range(1, 1 << n) for term in
             _cumulant_terms([j for j in range(n) if mask >> j & 1])]
    lhs, rhs = np.zeros(m), np.empty(m)
    for s in range(0, m, _ROW_BLOCK):
        k = min(m - s, _ROW_BLOCK)  # a row per particle in qb and pb
        qb = _gap_positions(k, n, length, sigma, rng).T.copy()
        pb = p_rng.normal(0.0, p_sd, size=(k, n)).T.copy()
        bvals, out, term = {}, lhs[s:s + k], np.empty(k)
        for coeff, blocks in _evolved_terms(terms, evolve, bvals):
            for vals in blocks:
                for v in vals:
                    out += np.multiply(coeff, v, out=term)
        rhs[s:s + k] = sum(bvals[tuple(range(n))])

    mean, stderr = _mean_stderr(np.subtract(lhs, rhs, out=lhs))
    # the mean |rhs| with numpy's float operations, in place on rhs
    scale = float(np.add.reduce(np.abs(rhs, out=rhs)) / m) + 1.0
    return mean, max(stderr, 1e-14 * scale)
