"""One snapshot of an object's whole state, for the tests that a raise moves nothing."""

import numpy as np


def state_bits(obj) -> bytes:
    """Every number and array of obj's state, its parts' included, as bytes.

    Its parts are the attributes that are tuples, lists or objects of the
    package; a tuple given as obj is taken entry by entry.
    """
    parts = vars(obj).values() if hasattr(obj, "__dict__") else obj
    out = []
    for v in parts:
        if isinstance(v, (int, float)):
            out.append(np.float64(v).tobytes())
        elif isinstance(v, np.ndarray):
            out.append(v.tobytes())
        elif isinstance(v, (tuple, list)) or type(v).__module__.startswith("robust_oco"):
            out.append(state_bits(v))
    return b"".join(out)
