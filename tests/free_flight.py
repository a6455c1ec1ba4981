"""An exact, event-free oracle for elastic hard rods on a line.

At eps = 0 equal-mass rods exchange momenta at contact, so after the gaps
are contracted by sigma (the Tonks map) the set of (position, momentum)
pairs is that of free flight, and the rod of rank k keeps rank k.  The
collisions are the crossings of free trajectories: on a line, the
inversions of the free-flight order (Jepsen, J. Math. Phys. 6 (1965) 405;
Lebowitz, Percus & Sykes, Phys. Rev. 171 (1968) 224).
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
