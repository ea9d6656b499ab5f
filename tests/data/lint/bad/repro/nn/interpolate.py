"""Known-bad model interpolation: PERF-105 must fire (twice)."""

import numpy as np


def three_nn_d2(fine_xyz, sampled_xyz):
    # The batched (B, N, n) expansion the FP decoder once built whole.
    d2 = (
        np.sum(fine_xyz**2, axis=2)[:, :, None]
        - 2.0 * fine_xyz @ sampled_xyz.transpose(0, 2, 1)
        + np.sum(sampled_xyz**2, axis=2)[:, None, :]
    )
    return np.maximum(d2, 0.0)


def offsets(fine_xyz, sampled_xyz):
    return fine_xyz[:, :, None, :] - sampled_xyz[:, None, :, :]
