"""Frequency-selective MIMO channel synthesis from multipath parameters.

A channel is a D-tap complex tensor ``H[d] = sum_l alpha_l *
f_p(d*Ts - (t_l - t_off)) * outer(a_r(aoa), a_t(aod))`` where ``f_p`` is a
raised-cosine pulse and the array responses of uniform rectangular arrays
factor as Kronecker products of linear steering vectors.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArrayGeometry",
    "Path",
    "PathSet",
    "PulseConfig",
    "ChannelTensor",
    "steering_vector",
    "ura_response",
    "raised_cosine",
    "synth_channel",
    "channel_frequency_response",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform rectangular array; spacing is fixed at half a wavelength."""

    nx: int
    ny: int
    spacing: float = 0.5

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"element counts must be >= 1, got {self.nx}x{self.ny}")
        if self.spacing != 0.5:
            raise ValueError("only half-wavelength element spacing is supported")

    @property
    def size(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class Path:
    """One multipath component.

    ``alpha`` is the dimensionless complex channel gain, ``field`` the complex
    electric-field amplitude in V/m at the receiver. Angles are radians;
    elevations lie in [-pi/2, pi/2], azimuths in (-pi, pi].
    """

    alpha: complex
    toa: float
    aoa_az: float
    aoa_el: float
    aod_az: float
    aod_el: float
    field: complex = 0j

    def __post_init__(self):
        if self.toa < 0:
            raise ValueError(f"time of arrival must be >= 0, got {self.toa}")
        for name in ("aoa_el", "aod_el"):
            v = getattr(self, name)
            if not -math.pi / 2 - 1e-12 <= v <= math.pi / 2 + 1e-12:
                raise ValueError(f"{name}={v} outside [-pi/2, pi/2]")
        for name in ("aoa_az", "aod_az"):
            v = getattr(self, name)
            if not -math.pi - 1e-12 < v <= math.pi + 1e-12:
                raise ValueError(f"{name}={v} outside (-pi, pi]")


@dataclass
class PathSet:
    """Ordered collection of multipath components for one link."""

    paths: list[Path] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, i) -> Path:
        return self.paths[i]

    @property
    def fields(self) -> np.ndarray:
        return np.array([p.field for p in self.paths], dtype=np.complex128)

    @property
    def toas(self) -> np.ndarray:
        return np.array([p.toa for p in self.paths], dtype=np.float64)

    def concat(self, other: "PathSet") -> "PathSet":
        return PathSet(self.paths + other.paths)


@dataclass(frozen=True)
class PulseConfig:
    """Raised-cosine pulse parameters.

    ``ts`` is the sampling interval in seconds, ``beta`` the roll-off in
    [0, 1], ``t_off`` the transmitter/receiver clock offset (0 means
    synchronized). ``support`` bounds the pulse when accumulating taps:
    contributions beyond ``support * ts`` from the peak are dropped (below
    1e-4 for beta >= 0.1).
    """

    ts: float
    beta: float = 0.3
    t_off: float = 0.0
    support: float = 8.0

    def __post_init__(self):
        if self.ts <= 0:
            raise ValueError(f"sampling interval must be > 0, got {self.ts}")
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


def steering_vector(theta: float, n: int) -> np.ndarray:
    """Linear-array steering vector for direction cosine ``theta``.

    Element ``k`` (0-based) is ``exp(-1j * pi * k * theta)``; all entries have
    unit magnitude.
    """
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    k = np.arange(n, dtype=np.float64)
    return np.exp(-1j * np.pi * k * theta)


def ura_response(az: float, el: float, geom: ArrayGeometry) -> np.ndarray:
    """URA response as the Kronecker product of two steering vectors.

    The x-axis factor uses the direction cosine ``cos(el) * sin(az)``, the
    y-axis factor ``sin(el)``; the x factor is the slow (first) Kronecker
    index.
    """
    t_par = math.cos(el) * math.sin(az)
    t_perp = math.sin(el)
    return np.kron(steering_vector(t_par, geom.nx), steering_vector(t_perp, geom.ny))


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
    if beta > 0:
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
    contributions farther than ``cfg.support * ts`` from a tap are dropped.
    """
    if d <= 0:
        raise ValueError(f"tap count must be >= 1, got {d}")
    if len(paths) == 0:
        raise ValueError("no paths: cannot synthesize a channel from an empty PathSet")

    taps = np.zeros((d, rx.size, tx.size), dtype=np.complex128)
    grid = np.arange(d, dtype=np.float64) * cfg.ts
    for p in paths.paths:
        delay = p.toa - cfg.t_off
        arg = grid - delay
        mask = np.abs(arg) <= cfg.support * cfg.ts
        if not np.any(mask):
            continue
        w = np.zeros(d, dtype=np.float64)
        w[mask] = raised_cosine(arg[mask], cfg)
        a_r = ura_response(p.aoa_az, p.aoa_el, rx)
        a_t = ura_response(p.aod_az, p.aod_el, tx)
        taps += (p.alpha * w)[:, None, None] * np.outer(a_r, a_t)[None, :, :]
    return ChannelTensor(taps)


def channel_frequency_response(h: ChannelTensor, n_sc: int) -> np.ndarray:
    """DFT across taps: subcarrier k holds ``sum_d H_d exp(-2j*pi*k*d/n_sc)``.

    Returns an ``n_sc x Nr x Nt`` complex array. Inverse of
    :func:`mbce.estimation.to_time_domain` on noise-free full-band data.
    """
    if n_sc < h.d:
        raise ValueError(f"subcarrier count {n_sc} must be >= tap count {h.d}")
    return np.fft.fft(h.taps, n=n_sc, axis=0)
