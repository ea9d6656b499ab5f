"""Known-good kernel fixture: vectorized, silent under every rule."""

import numpy as np

_AXES = (0, 1, 2)
_CHUNK = 1024


def pairwise_d2(points):
    n = points.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for lo in range(0, n, _CHUNK):
        diff = points[lo : lo + _CHUNK, None, :] - points[None, :, :]
        out[lo : lo + _CHUNK] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def per_axis_minmax(points):
    out = np.empty((2, 3), dtype=np.float64)
    for axis in _AXES:
        out[0, axis] = points[:, axis].min()
        out[1, axis] = points[:, axis].max()
    return out
