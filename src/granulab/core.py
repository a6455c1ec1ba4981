"""Domain types, inelastic collision algebra, and chaotic-state samplers.

Conventions used throughout the package:

* unit particle mass, so momentum and velocity coincide;
* the inelasticity ``epsilon`` lies in [0, 1/2); the restitution coefficient
  is ``e = 1 - 2*epsilon``;
* the collision normal ``eta`` is a unit vector and the forward collision map
  requires an approaching pair, ``<eta, p1 - p2> >= 0``;
* in the event-driven simulator ``eta`` points from the second particle's
  center to the first particle's center at contact, and is negated before
  calling :func:`collide` so that the approach condition holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCollisionError, SamplingFailureError

_MAX_ATTEMPTS = 100_000  # whole-configuration draws of the rejection path


@dataclass(frozen=True)
class Inelasticity:
    """Dissipation parameter of the collision algebra.

    The boundary value 1/2 (perfectly sticky) is rejected: the inverse
    collision map and the adjoint kernel weight 1/(1-2*epsilon)**2 are
    singular there.  So is the float below it, where 1 - epsilon rounds to
    1/2 and the forward map is the sticky one.
    """

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5 or 1.0 - self.epsilon == 0.5:
            raise ValueError(
                f"epsilon must lie in [0, 0.5), with 1 - epsilon not "
                f"rounding to 0.5; got {self.epsilon!r}"
            )


def _normal_component(p1, p2, eta):
    # <eta, p1 - p2> in floats, broadcasting over leading axes
    p1, p2, eta = (np.asarray(a, dtype=float) for a in (p1, p2, eta))
    return np.add.reduce(eta * (p1 - p2), axis=-1)


def collide(p1, p2, eta, eps: Inelasticity):
    """Forward inelastic collision map.

    p1* = p1 - (1-eps) * eta * <eta, p1-p2>, and symmetrically for p2*.
    Momentum sum and tangential components are preserved; the normal relative
    velocity is scaled by -(1 - 2*eps).

    Arrays broadcast over leading axes, so batches of collisions can be
    evaluated in one call.  A violated approach condition raises
    :class:`InvalidCollisionError`.
    """
    return _collision(p1, p2, eta, eps.epsilon, inverse=False, check=True)


def precollide(p1, p2, eta, eps: Inelasticity):
    """Inverse of :func:`collide`: the pre-collision momenta.

    p1_pre = p1 - (1-eps)/(1-2*eps) * eta * <eta, p1-p2>.  Applying
    :func:`collide` to the result recovers (p1, p2) exactly.  The normal
    relative velocity is scaled by -1/(1 - 2*eps), which is the origin of
    the 1/(1-2*eps)**2 weight in the adjoint collision kernel.
    """
    return _collision(p1, p2, eta, eps.epsilon, inverse=True, check=False)


def _collision(p1, p2, eta, epsilon, inverse, check):
    """The body of :func:`collide`, :func:`precollide` and the all-pairs
    engine's unchecked collision: rods (a last axis of length 1, where
    ``eta`` is +-1 and drops out exactly) go to :func:`collide_rods` and
    come back in the broadcast shape of ``p1`` and ``p2``; every other
    dimension takes the vector kick."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    eta = np.asarray(eta, dtype=float)
    g = _normal_component(p1, p2, eta)
    if check and np.any(g < 0.0):
        raise InvalidCollisionError(
            "approach condition <eta, p1-p2> >= 0 violated"
        )
    if p1.shape[-1] == 1:
        v1, v2 = collide_rods(p1, p2, epsilon, inverse)
        if epsilon == 0.0:  # the exchange hands back the inputs themselves
            v1, v2 = (a.copy() for a in np.broadcast_arrays(v1, v2))
        return v1, v2
    factor = ((1.0 - epsilon) / (1.0 - 2.0 * epsilon) if inverse
              else 1.0 - epsilon)
    kick = factor * eta * g[..., None]
    return p1 - kick, p2 + kick


def collide_rods(v1, v2, epsilon: float, inverse: bool = False):
    """The rod-pair collision map of every 1D path (``eta`` = +-1 drops out).

    Returns ``(v1*, v2*)`` of the forward map (or, with ``inverse``, of its
    inverse), on Python floats (the event loop, which computes the energy
    change itself) or on arrays of pairs (``evolve_rods_ensemble``, the DSMC
    rounds and :func:`collide` on rods).  At ``epsilon == 0`` both maps are
    the elastic exchange, done outright so the momentum multiset is kept
    bitwise (the kick form rounds v1 - (v1 - v2)).  The approach condition
    is not checked.
    """
    if epsilon == 0.0:
        return v2, v1
    kick = ((1.0 - epsilon) / (1.0 - 2.0 * epsilon) if inverse
            else 1.0 - epsilon) * (v1 - v2)
    return v1 - kick, v2 + kick


def dissipation(p1, p2, eta, eps: Inelasticity):
    """Kinetic-energy change of a collision, -eps*(1-eps)*<eta, p1-p2>**2."""
    g = _normal_component(p1, p2, eta)
    return -eps.epsilon * (1.0 - eps.epsilon) * g * g


def collision_jacobian(eps: Inelasticity) -> float:
    """|det| of the forward collision map on (p1, p2), in any dimension.

    Only the two normal components transform non-trivially; the 1D block
    [[eps, 1-eps], [1-eps, eps]] has determinant of magnitude 1 - 2*eps.
    """
    return 1.0 - 2.0 * eps.epsilon


def _min_gap(x, box) -> float:
    """Smallest gap of the sorted 1D positions x, with the wrap gap
    x[0] + box - x[-1] on a ring; inf for fewer than two positions."""
    gaps = np.diff(x) if box is None else np.diff(x, append=x[:1] + box)
    return float(gaps.min()) if len(x) > 1 else math.inf


def _gaussian(p, variance, d):
    """(2 pi variance)^(-d/2) exp(-|p|^2 / (2 variance)): the centred
    Gaussian density in d dimensions at p, summing over the last axis."""
    return ((2.0 * np.pi * variance) ** (-0.5 * d)
            * np.exp(-0.5 * np.add.reduce(p * p, axis=-1) / variance))


def _mean_stderr(x):
    """Mean and stderr of the samples x, bitwise numpy's ``x.mean()`` and
    ``x.std(ddof=1) / sqrt(n)`` (inf for one sample); overwrites x."""
    n = len(x)
    mean = float(np.add.reduce(x) / n)
    np.square(np.subtract(x, mean, out=x), out=x)
    return mean, (math.sqrt(np.add.reduce(x) / (n - 1)) / math.sqrt(n)
                  if n > 1 else math.inf)


@dataclass
class SystemState:
    """Microscopic configuration of N hard spheres (rods in 1D).

    ``box`` is the side of a periodic box, or None for unbounded space.
    Positions are stored as an (N, d) array, momenta likewise.
    """

    q: np.ndarray
    p: np.ndarray
    sigma: float
    eps: Inelasticity
    box: float | None = None
    time: float = 0.0

    def __post_init__(self):
        self.q = np.atleast_2d(np.asarray(self.q, dtype=float))
        self.p = np.atleast_2d(np.asarray(self.p, dtype=float))
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have matching shapes")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.box is not None and self.sigma >= self.box / 2.0:
            raise ValueError("sigma must be < box/2 under periodicity")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]

    def min_separation(self) -> float:
        """Smallest pair distance (minimum image); O(N log N) in 1D."""
        if self.d == 1:
            x = self.q[:, 0] if self.box is None else np.mod(self.q[:, 0],
                                                             self.box)
            return _min_gap(np.sort(x), self.box)
        dq = self.q[:, None, :] - self.q[None, :, :]
        if self.box is not None:
            dq -= self.box * np.round(dq / self.box)
        dist = np.linalg.norm(dq, axis=-1)
        iu = np.triu_indices(self.n, 1)
        return float(dist[iu].min(initial=np.inf))

    def is_allowed(self, tol: float = 0.0) -> bool:
        """True when no pair overlaps: all separations >= sigma*(1 - tol)."""
        return self.min_separation() >= self.sigma * (1.0 - tol)

    def kinetic_energy(self) -> float:
        return 0.5 * float(np.sum(self.p * self.p))

    def total_momentum(self) -> np.ndarray:
        return self.p.sum(axis=0)


@dataclass
class UniformMaxwellian:
    """Product one-particle density: uniform positions, Gaussian momenta.

    Positions are uniform on [0, length)^d, momenta are centered Gaussians
    with variance ``temperature`` per component (which keeps the momentum
    density under the Gaussian bound required of initial data).
    """

    d: int = 1
    length: float = 1.0
    temperature: float = 1.0

    def sample(self, n: int, rng: np.random.Generator):
        q = rng.uniform(0.0, self.length, size=(n, self.d))
        p = rng.normal(0.0, np.sqrt(self.temperature), size=(n, self.d))
        return q, p

    def momentum_pdf(self, p) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=float))
        return _gaussian(p, self.temperature, self.d)


def _gap_positions(m: int, n: int, length: float, sigma: float,
                   rng: np.random.Generator, periodic: bool = False):
    """Exact uniform draw of m rows of n disjoint rods [x, x + sigma) inside
    [0, length), so every x lies in [0, length - sigma): sample the free
    length length - n*sigma, sort, re-insert the excluded lengths.  Rows
    come out sorted (labels in position order).  With ``periodic`` the gap
    across the wrap counts too, and each row is rotated by a uniform offset,
    wrapped and relabelled to restore exchangeability.  Requires
    n*sigma < length.
    """
    u = np.sort(rng.uniform(0.0, length - n * sigma, size=(m, n)), axis=1)
    x = u + sigma * np.arange(n)
    if periodic:
        x = rng.permuted(np.mod(x + rng.uniform(0.0, length, size=(m, 1)),
                                length), axis=1)
    return x


def sample_chaotic_state(
    n: int,
    f1_sampler,
    sigma: float,
    eps: Inelasticity,
    box: float | None,
    rng: np.random.Generator,
) -> SystemState:
    """Draw an N-particle chaotic (product) state on allowed configurations.

    The target measure is the i.i.d. product of the one-particle density
    conditioned *jointly* on the non-overlap event.  A
    :class:`UniformMaxwellian` with ``d == 1`` and ``length == box`` takes
    the exact gap-insertion draw of :func:`_gap_positions`, at any n; every
    other input resamples whole configurations until one is allowed.

    Raises :class:`SamplingFailureError` when no allowed configuration
    exists (n*sigma >= box for gap insertion; for rejection, sigma >= box/2
    with two or more rods before any draw, and n*sigma >= box once the
    first draw shows a 1D periodic input) or the rejection attempt budget
    runs out.
    """
    if (isinstance(f1_sampler, UniformMaxwellian) and f1_sampler.d == 1
            and f1_sampler.length == box):
        if n * sigma >= box:
            raise SamplingFailureError(
                f"no allowed configuration: n*sigma = {n * sigma} >= L = {box}")
        q = _gap_positions(1, n, box, sigma, rng, periodic=True).reshape(n, 1)
        _, p = f1_sampler.sample(n, rng)
        return SystemState(q, p, sigma, eps, box)

    if n >= 2 and box is not None and sigma >= box / 2.0:
        raise SamplingFailureError(
            f"no allowed configuration: sigma = {sigma} >= box/2 = {box / 2.0}")
    for _ in range(_MAX_ATTEMPTS):
        q, p = f1_sampler.sample(n, rng)
        state = SystemState(q, p, sigma, eps, box)
        if n >= 2 and box is not None and state.d == 1 and n * sigma >= box:
            raise SamplingFailureError(
                f"no allowed configuration: n*sigma = {n * sigma} >= L = {box}")
        if state.min_separation() >= sigma:
            return state
    raise SamplingFailureError(
        f"no allowed configuration in {_MAX_ATTEMPTS} attempts "
        f"(n={n}, sigma={sigma})")
