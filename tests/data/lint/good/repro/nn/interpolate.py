"""Row-tiled model interpolation: silent under every rule."""

import numpy as np

_CHUNK = 1024


def three_nn_d2(fine_xyz, sampled_xyz, out):
    s_sq = np.sum(sampled_xyz**2, axis=2)[:, None, :]
    s_t = sampled_xyz.transpose(0, 2, 1)
    for lo in range(0, fine_xyz.shape[1], _CHUNK):
        block = fine_xyz[:, lo : lo + _CHUNK]
        d2 = (
            np.sum(block**2, axis=2)[:, :, None]
            - 2.0 * block @ s_t
            + s_sq
        )
        out[:, lo : lo + _CHUNK] = np.maximum(d2, 0.0)
    return out


def centered(fine_xyz, origins, sizes):
    # Per-cloud broadcasts over the batch axis are not pairwise.
    return (fine_xyz - origins[:, None, :]) / sizes[:, None, None]
