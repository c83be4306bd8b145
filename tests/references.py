"""Slow, plainly written references that more than one test module checks
``mbce`` against."""

import numpy as np

from mbce._checks import count
from mbce.channel_model import ChannelTensor


def interp_reference(est, placement, n_sc):
    """Per-entry ``np.interp`` of magnitude and unwrapped phase, one entry at a time."""
    flat = est.reshape(len(placement), -1)
    out = np.empty((n_sc, flat.shape[1]), dtype=np.complex128)
    for j, entry in enumerate(flat.T):
        mag = np.interp(np.arange(n_sc), placement, np.abs(entry))
        phase = np.interp(np.arange(n_sc), placement, np.unwrap(np.angle(entry)))
        out[:, j] = mag * np.exp(1j * phase)
    return out.reshape((n_sc,) + est.shape[1:])


def random_channel(rng, d=4, nr=2, nt=4) -> ChannelTensor:
    """``d`` taps of ``nr x nt`` complex Gaussian entries drawn from the generator
    ``rng``: the real parts, then the imaginary parts."""
    return ChannelTensor(rng.normal(size=(d, nr, nt)) + 1j * rng.normal(size=(d, nr, nt)))


def channel_frequency_response(h: ChannelTensor, n_sc: int) -> np.ndarray:
    """DFT across taps: subcarrier k holds ``sum_d H_d exp(-2j*pi*k*d/n_sc)``.

    Returns an ``n_sc x Nr x Nt`` complex array. Inverse of
    :func:`mbce.estimation.to_time_domain` on noise-free full-band data.
    ``n_sc`` is an integer no smaller than the tap count.
    """
    n_sc = count(n_sc, "subcarrier count")
    if n_sc < h.d:
        raise ValueError(f"subcarrier count {n_sc} must be >= tap count {h.d}")
    return np.fft.fft(h.taps, n=n_sc, axis=0)
