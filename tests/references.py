"""Slow, plainly written references that more than one test module checks
``mbce`` against."""

import numpy as np


def interp_reference(est, placement, n_sc):
    """Per-entry ``np.interp`` of magnitude and unwrapped phase, one entry at a time."""
    flat = est.reshape(len(placement), -1)
    out = np.empty((n_sc, flat.shape[1]), dtype=np.complex128)
    for j, entry in enumerate(flat.T):
        mag = np.interp(np.arange(n_sc), placement, np.abs(entry))
        phase = np.interp(np.arange(n_sc), placement, np.unwrap(np.angle(entry)))
        out[:, j] = mag * np.exp(1j * phase)
    return out.reshape((n_sc,) + est.shape[1:])
