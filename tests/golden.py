"""Helpers for the bitwise pins of the test suite."""
import hashlib

import numpy as np


def digest(*arrays):
    """sha256 hex digest of the arrays' bytes in C order, one after another."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def hex_floats(*values):
    """The values as exact hex strings, for pins of scalar results."""
    return tuple(float(v).hex() for v in values)
