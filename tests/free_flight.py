"""An exact, event-free oracle for elastic hard rods on a line or a ring.

At eps = 0 equal-mass rods exchange momenta at contact, so after the gaps
are contracted by sigma (the Tonks map) the set of (position, momentum)
pairs is that of free flight, and the rod of rank k keeps rank k.  The
collisions are the crossings of free trajectories: on a line, the
inversions of the free-flight order (Jepsen, J. Math. Phys. 6 (1965) 405;
Lebowitz, Percus & Sykes, Phys. Rev. 171 (1968) 224).  On a ring the ranks
count from a tagged rod and shift with the net winding of the gas.
"""
import numpy as np


def elastic_line(q, p, t, sigma):
    """(q_t, p_t, collisions) of M systems of N elastic rods on a line.

    ``q`` and ``p`` have shape (M, N), every row's positions ascending with
    gaps >= sigma.  ``q_t`` and ``p_t`` are in the same rank order, and
    ``collisions`` counts each row's inversions.
    """
    rank = sigma * np.arange(q.shape[1])
    y = q - rank + p * t  # contract the gaps, then fly freely
    order = np.argsort(y, axis=1, kind="stable")
    q_t = np.take_along_axis(y, order, axis=1) + rank
    p_t = np.take_along_axis(p, order, axis=1)
    collisions = np.zeros(q.shape[0], dtype=np.int64)
    for k in range(1, q.shape[1]):
        collisions += np.count_nonzero(y[:, :k] > y[:, k:k + 1], axis=1)
    return q_t, p_t, collisions


def elastic_ring(q, p, t, sigma, length):
    """(q_t, p_t, collisions) of M systems of N elastic rods on a ring.

    ``q`` and ``p`` have shape (M, N), every row's positions ascending in
    [0, length) with gaps >= sigma, the wrap included.  Rod 0 is the tag:
    the gaps contract from it (y_k = q_k - k sigma, on the ring
    length - N sigma), and rod k sits on sorted free-flight point k + s of
    the unwrapped contracted gas.  The shift s is fixed by the conserved sum
    of the rods' unwrapped positions: it is the sum of the points' laps.
    ``q_t`` (in [0, length)) and ``p_t`` are in the same rank order, and
    ``collisions`` counts each row's crossings, per pair and winding.
    """
    n = q.shape[1]
    ring = length - n * sigma
    rank = sigma * np.arange(n)
    y = q - rank
    w = y + p * t  # free flight, unwrapped
    laps, a = np.divmod(w, ring)
    order = np.argsort(a, axis=1, kind="stable")
    shift = np.arange(n) + laps.sum(axis=1, keepdims=True).astype(np.int64)
    winding, slot = np.divmod(shift, n)
    point = np.take_along_axis(order, slot, axis=1)
    q_t = np.mod(np.take_along_axis(a, point, axis=1) + winding * ring + rank,
                 length)
    p_t = np.take_along_axis(p, point, axis=1)
    collisions = np.zeros(q.shape[0], dtype=np.int64)
    for k in range(1, n):
        before = np.floor((y[:, :k] - y[:, k:k + 1]) / ring)
        after = np.floor((w[:, :k] - w[:, k:k + 1]) / ring)
        collisions += np.abs(after - before).sum(axis=1).astype(np.int64)
    return q_t, p_t, collisions
