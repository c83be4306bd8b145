"""Frequency-selective MIMO channel synthesis from multipath parameters.

A channel is a D-tap complex tensor ``H[d] = sum_l alpha_l *
f_p(d*Ts - (t_l - t_off)) * outer(a_r(aoa), a_t(aod))`` where ``f_p`` is a
raised-cosine pulse and the array responses of uniform rectangular arrays
factor as Kronecker products of linear steering vectors.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import count, count_fields, finite_array, real

__all__ = [
    "ArrayGeometry",
    "PathSet",
    "PulseConfig",
    "ChannelTensor",
    "PULSE_SUPPORT",
    "steering_vector",
    "ura_response",
    "ura_from_cosines",
    "raised_cosine",
    "synth_channel",
]

PULSE_SUPPORT = 8.0  # pulse half-width in samples; beyond it, below 1e-4 for beta >= 0.1


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform rectangular array of ``nx`` x ``ny`` elements, half a wavelength apart."""

    nx: int
    ny: int

    def __post_init__(self):
        count_fields(self, "nx", "ny", low=1)

    @property
    def size(self) -> int:
        return self.nx * self.ny


_EL, _AZ = math.pi / 2 + 1e-12, math.pi + 1e-12
# column: (dtype, mask of the entries in range or None for no range, the range)
_PATH_COLUMNS = {
    "alphas": (np.complex128, None, None),
    "toas": (np.float64, lambda v: v >= 0, ">= 0"),
    "aoa_az": (np.float64, lambda v: (v > -_AZ) & (v <= _AZ), "in (-pi, pi]"),
    "aoa_el": (np.float64, lambda v: np.abs(v) <= _EL, "in [-pi/2, pi/2]"),
    "aod_az": (np.float64, lambda v: (v > -_AZ) & (v <= _AZ), "in (-pi, pi]"),
    "aod_el": (np.float64, lambda v: np.abs(v) <= _EL, "in [-pi/2, pi/2]"),
    "fields": (np.complex128, None, None),
}


@dataclass(eq=False)
class PathSet:
    """The multipath components of one link, one entry per path in every column.

    Seven equal-length 1-D columns: ``alphas``, the dimensionless complex
    channel gains; ``toas``, times of arrival in seconds; ``aoa_az``,
    ``aoa_el``, ``aod_az`` and ``aod_el``, arrival and departure angles in
    radians; ``fields``, the complex electric-field amplitudes in V/m at the
    receiver, zeros when not given. A traced path's ``alphas`` are
    ``lambda * fields / sqrt(8*pi*eta0)``, its per-element gain (see
    :func:`mbce.propagation.trace_paths`). Columns are stored as float64 or
    complex128 arrays. Every column must hold finite numbers, not text;
    ``toas`` must be >= 0, elevations in [-pi/2, pi/2] and azimuths in
    (-pi, pi] (each with 1e-12 slack). A violation raises ``ValueError``
    naming the column and, for a bad value, the index of the first bad path.
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
            col = finite_array(getattr(self, name), name, dtype)
            if col.shape != shape:
                raise ValueError(f"{name} has shape {col.shape}, not alphas' {shape}")
            if valid is not None and not (ok := valid(col)).all():
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
        real(self.ts, "ts", positive=True)
        real(self.t_off, "t_off")
        if not 0.0 <= real(self.beta, "beta") <= 1.0:
            raise ValueError(f"roll-off must be in [0, 1], got {self.beta}")


@dataclass
class ChannelTensor:
    """Complex D x Nr x Nt tap-domain MIMO channel."""

    taps: np.ndarray

    def __post_init__(self):
        self.taps = finite_array(self.taps, "channel taps", np.complex128)
        if self.taps.ndim != 3:
            raise ValueError(f"channel tensor must be 3-D, got shape {self.taps.shape}")

    @property
    def d(self) -> int:
        return self.taps.shape[0]

    @property
    def nt(self) -> int:
        return self.taps.shape[2]

    def energy(self) -> float:
        """Squared Frobenius norm summed over taps."""
        return float(np.sum(np.abs(self.taps) ** 2))


def steering_vector(theta, n: int) -> np.ndarray:
    """Linear-array steering vectors for direction cosines ``theta``.

    Element ``k`` (0-based) is ``exp(-1j * pi * k * theta)``; all entries have
    unit magnitude. ``theta`` is a finite real scalar or array; the result has
    shape ``shape(theta) + (n,)``. The element count ``n`` is an integer ``>= 1``.
    """
    n = count(n, "element count", 1)
    return _steer(finite_array(theta, "theta"), n)


def ura_from_cosines(ux, uy, geom: ArrayGeometry) -> np.ndarray:
    """URA responses ``[..., nx*ny]``, the Kronecker products of the x-axis
    steering vector for cosine ``ux`` (the slow index) and the y-axis one for
    ``uy``. Accepts finite real scalars or broadcastable arrays."""
    return _ura(finite_array(ux, "ux"), finite_array(uy, "uy"), geom)


def ura_response(az, el, geom: ArrayGeometry) -> np.ndarray:
    """:func:`ura_from_cosines` at the x-axis direction cosine ``cos(el) *
    sin(az)`` and the y-axis one ``sin(el)``. Accepts finite real scalars or
    arrays."""
    return _ura_at(finite_array(az, "az"), finite_array(el, "el"), geom)


# The unchecked cores of the three functions above, for float64 arrays of
# finite cosines or angles; synth_channel and the OMP dictionary call them.
def _steer(theta: np.ndarray, n: int) -> np.ndarray:
    return np.exp(np.multiply.outer(theta, -1j * np.pi * np.arange(n, dtype=np.float64)))


def _ura(ux: np.ndarray, uy: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    outer = _steer(ux, geom.nx)[..., :, None] * _steer(uy, geom.ny)[..., None, :]
    return outer.reshape(outer.shape[:-2] + (geom.size,))


def _ura_at(az: np.ndarray, el: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    return _ura(np.cos(el) * np.sin(az), np.sin(el), geom)


def _rank_one_taps(w: np.ndarray, a_r: np.ndarray, a_t: np.ndarray) -> ChannelTensor:
    """Taps ``H[d] = sum_l w[d, l] * outer(a_r[l], a_t[l])`` for weights
    ``w [D, L]`` and array responses ``a_r [L, Nr]``, ``a_t [L, Nt]``: the
    unchecked tap sum of synth_channel and the OMP dictionary."""
    # D small [Nr, L] @ [L, Nt] GEMMs, one per tap: each stays below OpenBLAS's
    # threading threshold, unlike one big GEMM, and none runs einsum's naive
    # D*L*Nr*Nt loop.
    return ChannelTensor((w[:, None, :] * a_r.T) @ a_t)


def raised_cosine(t, cfg: PulseConfig):
    """Time-domain raised-cosine pulse, normalized so f_p(0) = 1.

    Evaluates ``sinc(t/ts) * cos(pi*beta*t/ts) / (1 - (2*beta*t/ts)^2)`` with
    the removable singularity at ``t = ts/(2*beta)`` filled by its limit
    ``(pi/4) * sinc(1/(2*beta))``. Values at integer multiples of ``ts`` are
    snapped to their exact Nyquist values (1 at zero, 0 elsewhere).

    Accepts finite real scalars or arrays.
    """
    x = finite_array(t, "t") / cfg.ts
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
    The tap count ``d`` is an integer ``>= 1``.
    """
    d = count(d, "tap count", 1)
    if len(paths) == 0:
        raise ValueError("no paths: cannot synthesize a channel from an empty PathSet")

    arg = np.arange(d)[:, None] * cfg.ts - (paths.toas - cfg.t_off)  # [D, L]
    pulse = np.where(np.abs(arg) <= PULSE_SUPPORT * cfg.ts, raised_cosine(arg, cfg), 0.0)
    a_r = _ura_at(paths.aoa_az, paths.aoa_el, rx)
    return _rank_one_taps(pulse * paths.alphas, a_r, _ura_at(paths.aod_az, paths.aod_el, tx))
