"""Frequency-selective MIMO channel synthesis from multipath parameters.

A channel is a D-tap complex tensor ``H[d] = sum_l alpha_l *
f_p(d*Ts - (t_l - t_off)) * outer(a_r(aoa), a_t(aod))`` where ``f_p`` is a
raised-cosine pulse and the array responses of uniform rectangular arrays
factor as Kronecker products of linear steering vectors.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "PathSet",
    "PulseConfig",
    "ChannelTensor",
    "PULSE_SUPPORT",
    "steering_vector",
    "ura_response",
    "ura_from_cosines",
    "rank_one_taps",
    "raised_cosine",
    "synth_channel",
    "channel_frequency_response",
]

PULSE_SUPPORT = 8.0  # pulse half-width in samples; beyond it, below 1e-4 for beta >= 0.1


def _index_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as the int that
    ``operator.index`` gives; ``ValueError`` if it is not an integer."""
    for name in names:
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, operator.index(value))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform rectangular array of ``nx`` x ``ny`` elements, half a wavelength apart."""

    nx: int
    ny: int

    def __post_init__(self):
        _index_fields(self, "nx", "ny")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"element counts must be >= 1, got {self.nx}x{self.ny}")

    @property
    def size(self) -> int:
        return self.nx * self.ny


_EL, _AZ = math.pi / 2 + 1e-12, math.pi + 1e-12
# column: (dtype, mask of valid entries, the rule a valid entry keeps)
_PATH_COLUMNS = {
    "alphas": (np.complex128, np.isfinite, "finite"),
    "toas": (np.float64, lambda v: (v >= 0) & (v < np.inf), "finite and >= 0"),
    "aoa_az": (np.float64, lambda v: (v > -_AZ) & (v <= _AZ), "in (-pi, pi]"),
    "aoa_el": (np.float64, lambda v: np.abs(v) <= _EL, "in [-pi/2, pi/2]"),
    "aod_az": (np.float64, lambda v: (v > -_AZ) & (v <= _AZ), "in (-pi, pi]"),
    "aod_el": (np.float64, lambda v: np.abs(v) <= _EL, "in [-pi/2, pi/2]"),
    "fields": (np.complex128, np.isfinite, "finite"),
}


@dataclass(eq=False)
class PathSet:
    """The multipath components of one link, one entry per path in every column.

    Seven equal-length 1-D columns: ``alphas``, the dimensionless complex
    channel gains; ``toas``, times of arrival in seconds; ``aoa_az``,
    ``aoa_el``, ``aod_az`` and ``aod_el``, arrival and departure angles in
    radians; ``fields``, the complex electric-field amplitudes in V/m at the
    receiver, zeros when not given. Columns are stored as float64 or
    complex128 arrays. ``alphas``, ``toas`` and ``fields`` must be finite,
    ``toas`` >= 0, elevations in [-pi/2, pi/2] and azimuths in (-pi, pi]
    (each with 1e-12 slack); a violation raises ``ValueError`` naming the
    column and the index of the first bad path.
    """

    alphas: np.ndarray
    toas: np.ndarray
    aoa_az: np.ndarray
    aoa_el: np.ndarray
    aod_az: np.ndarray
    aod_el: np.ndarray
    fields: np.ndarray | None = None

    def __post_init__(self):
        shape = np.shape(self.alphas)
        if len(shape) != 1:
            raise ValueError(f"path columns must be 1-D, got alphas of shape {shape}")
        if self.fields is None:
            self.fields = np.zeros(shape, dtype=np.complex128)
        for name, (dtype, valid, rule) in _PATH_COLUMNS.items():
            col = np.asarray(getattr(self, name), dtype=dtype)
            if col.shape != shape:
                raise ValueError(f"{name} has shape {col.shape}, not alphas' {shape}")
            ok = valid(col)
            if not ok.all():
                i = int(ok.argmin())
                raise ValueError(f"{name}[{i}]={col[i]} is not {rule}")
            setattr(self, name, col)

    def __len__(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class PulseConfig:
    """Raised-cosine pulse parameters.

    ``ts`` is the sampling interval in seconds, ``beta`` the roll-off in
    [0, 1], ``t_off`` the transmitter/receiver clock offset (0 means
    synchronized). :func:`synth_channel` drops pulse contributions farther
    than ``PULSE_SUPPORT * ts`` from a tap.
    """

    ts: float
    beta: float = 0.3
    t_off: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.ts) and self.ts > 0):
            raise ValueError(f"sampling interval must be finite and > 0, got {self.ts}")
        if not math.isfinite(self.t_off):
            raise ValueError(f"clock offset must be finite, got {self.t_off}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"roll-off must be in [0, 1], got {self.beta}")


@dataclass
class ChannelTensor:
    """Complex D x Nr x Nt tap-domain MIMO channel."""

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.complex128)
        if self.taps.ndim != 3:
            raise ValueError(f"channel tensor must be 3-D, got shape {self.taps.shape}")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("channel tensor contains non-finite entries")

    @property
    def d(self) -> int:
        return self.taps.shape[0]

    @property
    def nr(self) -> int:
        return self.taps.shape[1]

    @property
    def nt(self) -> int:
        return self.taps.shape[2]

    def energy(self) -> float:
        """Squared Frobenius norm summed over taps."""
        return float(np.sum(np.abs(self.taps) ** 2))


def steering_vector(theta, n: int) -> np.ndarray:
    """Linear-array steering vectors for direction cosines ``theta``.

    Element ``k`` (0-based) is ``exp(-1j * pi * k * theta)``; all entries have
    unit magnitude. ``theta`` is a scalar or an array; the result has shape
    ``shape(theta) + (n,)``.
    """
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    k = np.arange(n, dtype=np.float64)
    return np.exp(np.multiply.outer(theta, -1j * np.pi * k))


def ura_from_cosines(ux, uy, geom: ArrayGeometry) -> np.ndarray:
    """URA responses ``[..., nx*ny]``, the Kronecker products of the x-axis
    steering vector for cosine ``ux`` (the slow index) and the y-axis one for
    ``uy``. Accepts scalars or broadcastable arrays."""
    outer = steering_vector(ux, geom.nx)[..., :, None] * steering_vector(uy, geom.ny)[..., None, :]
    return outer.reshape(outer.shape[:-2] + (geom.size,))


def ura_response(az, el, geom: ArrayGeometry) -> np.ndarray:
    """:func:`ura_from_cosines` at the x-axis direction cosine ``cos(el) *
    sin(az)`` and the y-axis one ``sin(el)``. Accepts scalars or arrays."""
    return ura_from_cosines(np.cos(el) * np.sin(az), np.sin(el), geom)


def rank_one_taps(w: np.ndarray, a_r: np.ndarray, a_t: np.ndarray) -> ChannelTensor:
    """Taps ``H[d] = sum_l w[d, l] * outer(a_r[l], a_t[l])`` for weights
    ``w [D, L]`` and array responses ``a_r [L, Nr]``, ``a_t [L, Nt]``."""
    return ChannelTensor(np.einsum("dl,lr,lt->drt", w, a_r, a_t))


def raised_cosine(t, cfg: PulseConfig):
    """Time-domain raised-cosine pulse, normalized so f_p(0) = 1.

    Evaluates ``sinc(t/ts) * cos(pi*beta*t/ts) / (1 - (2*beta*t/ts)^2)`` with
    the removable singularity at ``t = ts/(2*beta)`` filled by its limit
    ``(pi/4) * sinc(1/(2*beta))``. Values at integer multiples of ``ts`` are
    snapped to their exact Nyquist values (1 at zero, 0 elsewhere).

    Accepts scalars or arrays.
    """
    x = np.asarray(t, dtype=np.float64) / cfg.ts
    beta = cfg.beta

    num = np.sinc(x) * np.cos(np.pi * beta * x)
    den = 1.0 - (2.0 * beta * x) ** 2
    singular = np.abs(den) < 1e-10
    safe_den = np.where(singular, 1.0, den)
    out = num / safe_den
    if np.any(singular) and beta > 0:  # a subnormal beta has no singular point
        out = np.where(singular, (np.pi / 4.0) * np.sinc(1.0 / (2.0 * beta)), out)

    # Exact zeros on the sample grid keep one-tap channels exactly isolated.
    k = np.round(x)
    on_grid = np.abs(x - k) < 1e-9
    out = np.where(on_grid, np.where(k == 0, 1.0, 0.0), out)
    return out if out.ndim else float(out)


def synth_channel(
    paths: PathSet,
    d: int,
    cfg: PulseConfig,
    rx: ArrayGeometry,
    tx: ArrayGeometry,
) -> ChannelTensor:
    """Accumulate multipath components into a D x Nr x Nt channel tensor.

    Tap ``d`` receives ``alpha_l * f_p(d*ts - (toa_l - t_off))`` times the
    outer product of the receive and transmit array responses. Pulse
    contributions farther than ``PULSE_SUPPORT * ts`` from a tap are dropped.
    """
    if d <= 0:
        raise ValueError(f"tap count must be >= 1, got {d}")
    if len(paths) == 0:
        raise ValueError("no paths: cannot synthesize a channel from an empty PathSet")

    arg = np.arange(d)[:, None] * cfg.ts - (paths.toas - cfg.t_off)  # [D, L]
    pulse = np.where(np.abs(arg) <= PULSE_SUPPORT * cfg.ts, raised_cosine(arg, cfg), 0.0)
    a_r = ura_response(paths.aoa_az, paths.aoa_el, rx)
    return rank_one_taps(pulse * paths.alphas, a_r, ura_response(paths.aod_az, paths.aod_el, tx))


def channel_frequency_response(h: ChannelTensor, n_sc: int) -> np.ndarray:
    """DFT across taps: subcarrier k holds ``sum_d H_d exp(-2j*pi*k*d/n_sc)``.

    Returns an ``n_sc x Nr x Nt`` complex array. Inverse of
    :func:`mbce.estimation.to_time_domain` on noise-free full-band data.
    """
    if n_sc < h.d:
        raise ValueError(f"subcarrier count {n_sc} must be >= tap count {h.d}")
    return np.fft.fft(h.taps, n=n_sc, axis=0)
