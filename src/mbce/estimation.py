"""OFDM pilot transmission, coarse LS channel estimation, and an OMP baseline.

Pilot structure: at each pilot subcarrier the transmitter sends Nt successive
pilot symbols forming the unitary DFT matrix across transmit antennas, so
per-subcarrier least squares is its conjugate transpose. Noise is set by the
SNR alone, so the transmit power cancels and is not a parameter. The
coarse estimate interpolates magnitude and unwrapped phase across the band
and transforms back to the tap domain with an inverse FFT, truncated to the
taps it keeps. Both band steps tile the channel entries (columns of the
``[n_sc, Nr*Nt]`` band) into blocks of ``_COLUMN_BLOCK``, the last one
shorter, and write each block into its columns of the one array they return.
Each entry's arithmetic is independent of the other entries' and runs in the
same order whatever its block, so the results do not depend on the tiling,
and no step holds a band-sized temporary beside the band the interpolation
returns. Such a temporary on every link would lift the heap over glibc's trim
threshold, so its pages would go back to the OS and be faulted in again on
the next link. One rule gives every DFT row, the pilot model's and
the OMP operator's. OMP pursues the same LS estimate, so the pilot matrix
appears only in the pilot model. It correlates that estimate with the whole
dictionary once and then works from the inverse of the refit's Cholesky
factor (Batch-OMP): neither the residual nor its norm is formed by applying
the operator.

Everything is a pure function of (inputs, seed); Monte-Carlo trials can be
parallelized across seeds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._checks import count, count_fields, finite_array, real
from .channel_model import ArrayGeometry, ChannelTensor, _rank_one_taps, _ura

__all__ = [
    "PilotConfig",
    "PilotObservation",
    "transmit_pilots",
    "ls_estimate",
    "interpolate_full_band",
    "to_time_domain",
    "OmpDictionary",
    "OmpResult",
    "omp_estimate",
    "nmse",
    "nmse_db",
]


def _comb_indices(n_sc: int, n_pilot: int) -> tuple[int, ...]:
    return tuple(int(i * n_sc // n_pilot) for i in range(n_pilot))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PilotConfig:
    """Pilot allocation and noise level for one OFDM sounding round.

    ``placement`` is a strictly increasing sequence of subcarrier indices,
    stored as a tuple of ints; empty means an equispaced comb. ``snr_db`` is
    the one noise level: the noise variance is derived per call as the mean
    received pilot power over 10^(snr/10) per receive antenna; ``None``
    means noiseless. Counts are integers >= 1, ``n_pilot <= n_sc``, and
    ``snr_db`` is finite.

    :attr:`pilot_matrix` is derived, not set: the Nt x Nt unitary DFT
    ``fft(eye(Nt)) / sqrt(Nt)``, transmitted (column per symbol slot) at every
    pilot subcarrier. It is read-only and takes no part in ``==`` or ``hash``.
    """

    n_sc: int
    n_pilot: int
    nt: int
    snr_db: float | None = None
    placement: tuple[int, ...] = ()

    def __post_init__(self):
        count_fields(self, "n_sc", "n_pilot", "nt", low=1)
        if self.n_pilot > self.n_sc:
            raise ValueError(f"need n_pilot <= n_sc, got {self.n_pilot}/{self.n_sc}")
        if self.snr_db is not None:
            real(self.snr_db, "snr_db")
        try:
            ndim = np.ndim(self.placement)
        except ValueError:  # a ragged sequence, of which numpy makes no array
            ndim = None
        if ndim != 1:
            raise ValueError(f"pilot placement must be a sequence, got {self.placement!r}")
        placement = tuple(count(k, "pilot placement") for k in self.placement)
        object.__setattr__(self, "placement", placement or _comb_indices(self.n_sc, self.n_pilot))
        if len(self.placement) != self.n_pilot or any(
            b <= a for a, b in zip(self.placement, self.placement[1:])
        ):
            raise ValueError("pilot placement must be strictly increasing, one per pilot")
        if self.placement[0] < 0 or self.placement[-1] >= self.n_sc:
            raise ValueError("pilot placement outside subcarrier range")

    @functools.cached_property
    def pilot_matrix(self) -> np.ndarray:
        """Unitary ``[Nt, Nt]`` DFT pilot matrix, one column per symbol slot."""
        return _read_only(np.fft.fft(np.eye(self.nt)) / np.sqrt(self.nt))


@dataclass
class PilotObservation:
    """Received Nr x Nt matrices, one per pilot subcarrier: ``y`` is finite
    and ``[len(placement), Nr, Nt]``."""

    y: np.ndarray                 # [n_pilot, Nr, Nt]
    placement: tuple[int, ...]

    def __post_init__(self):
        self.y = finite_array(self.y, "observation", np.complex128)
        if self.y.ndim != 3 or len(self.y) != len(self.placement):
            raise ValueError(
                f"observation must be [{len(self.placement)}, Nr, Nt], one matrix per "
                f"pilot, got shape {self.y.shape}"
            )


def _dft_rows(subcarriers, taps, n_sc: int) -> np.ndarray:
    """``[len(subcarriers), len(taps)]`` rows ``exp(-2j*pi*k*d/n_sc)``: subcarriers
    ``k``, taps ``d``. ``k*d`` is reduced mod ``n_sc`` first, so every phase is
    in ``[0, 2*pi)`` and carries one rounding, however large the product."""
    return np.exp(-2j * np.pi * (np.multiply.outer(subcarriers, taps) % n_sc) / n_sc)


def _pilot_response(h: ChannelTensor, cfg: PilotConfig) -> np.ndarray:
    """Noise-free pilot model ``Y_k = H_k S`` at every pilot subcarrier."""
    if cfg.n_sc < h.d:
        raise ValueError(f"subcarriers {cfg.n_sc} < tap count {h.d}")
    if cfg.nt != h.nt:
        raise ValueError(f"pilot config is for Nt={cfg.nt}, channel has Nt={h.nt}")
    f = _dft_rows(cfg.placement, np.arange(h.d), cfg.n_sc)
    h_k = f @ h.taps.reshape(h.d, -1)  # [P, Nr*Nt]
    return (h_k.reshape(-1, h.nt) @ cfg.pilot_matrix).reshape((-1,) + h.taps.shape[1:])


def transmit_pilots(h: ChannelTensor, cfg: PilotConfig, rng_seed) -> PilotObservation:
    """Simulate pilot reception: ``Y_k = H_k S + V_k`` at each pilot subcarrier.

    Deterministic given ``rng_seed``, an integer ``>= 0``, checked whether or
    not ``cfg`` adds noise.
    """
    rng_seed = count(rng_seed, "rng_seed", 0)
    y = _pilot_response(h, cfg)

    sigma2 = 0.0
    if cfg.snr_db is not None:
        p_sig = float(np.mean(np.abs(y) ** 2))
        sigma2 = p_sig / 10.0 ** (cfg.snr_db / 10.0)
    if sigma2 > 0:
        rng = np.random.default_rng(rng_seed)
        scale = np.sqrt(sigma2 / 2.0)
        y.real += scale * rng.standard_normal(y.shape)
        y.imag += scale * rng.standard_normal(y.shape)
    return PilotObservation(y=y, placement=cfg.placement)


def _check_placement(obs: PilotObservation, cfg: PilotConfig) -> None:
    if tuple(obs.placement) != cfg.placement:
        raise ValueError("observation pilot placement differs from the pilot config's")


def ls_estimate(obs: PilotObservation, cfg: PilotConfig) -> np.ndarray:
    """Per-pilot-subcarrier least squares: ``H_hat_k = Y_k S^{-1} = Y_k S^H``.

    The observation must come from ``cfg``'s pilot placement and have
    ``cfg.nt`` transmit antennas.
    """
    _check_placement(obs, cfg)
    nt = obs.y.shape[-1]
    if cfg.nt != nt:
        raise ValueError(f"pilot config is for Nt={cfg.nt}, observation has Nt={nt}")
    return (obs.y.reshape(-1, nt) @ cfg.pilot_matrix.conj().T).reshape(obs.y.shape)


# Longest run of subcarriers stepped by complex multiplication from one exact
# anchor inside a pilot interval. Each step adds a few ulps of rounding, so the
# stride bounds the drift whatever the gap: against a per-entry np.interp
# reference the error stays ~1e-15 relative at gaps of 4095 and 65535, where
# stepping without anchors drifts to ~1e-13 and ~2e-12. A 32-pilot comb over
# 256 subcarriers (gap 8) needs no anchor beyond its pilots.
_ANCHOR_STRIDE = 16

# Channel entries per block of the band steps (see the module docstring). At
# bench size (32 pilots, 256 subcarriers, 512 entries) each temporary of a
# block is at most 64 KB in the interpolation, and 512 KB (one block's full
# inverse FFT) in the transform, against the 2 MB band.
_COLUMN_BLOCK = 128


def _cis(phase: np.ndarray) -> np.ndarray:
    """``exp(1j * phase)`` from one ``cos`` and one ``sin`` pass."""
    out = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def interpolate_full_band(pilot_estimates: np.ndarray, cfg: PilotConfig) -> np.ndarray:
    """Linear magnitude/unwrapped-phase interpolation across all subcarriers.

    Edges are held at the nearest pilot value. A single pilot extrapolates as
    a constant.

    Inside a pilot interval of ``L`` subcarriers the lerped phase advances by
    the constant ``dphi / L``, where ``dphi`` is the pilots' angle difference
    moved into ``[-pi, pi]`` as :func:`numpy.unwrap` moves it. So the phasor
    ``exp(1j * phase)`` is ``est / |est|`` at a pilot (1 where ``est`` is 0,
    whose angle is 0). ``cos``/``sin`` are taken once per interval, for the
    rotation ``exp(1j * dphi / L)``, and at an anchor every
    ``_ANCHOR_STRIDE`` subcarriers past a pilot. Every other subcarrier is the
    previous one's phasor times the rotation. A phasor is at most
    ``_ANCHOR_STRIDE - 1`` products from an anchor, so it is within a few
    times that many ulps (under 1e-14 relative) of ``exp(1j * phase)``,
    whatever the gap. The magnitude lerp is evaluated per subcarrier. At 32
    comb pilots over 256 subcarriers this is 31 ``cos``/``sin`` pairs per
    channel entry, not 256.

    ``pilot_estimates`` is a finite array with one row per pilot of ``cfg``.
    The placement alone fixes the breakpoints, lerp weights and runs, so they
    are worked out once, over the subcarriers from the first pilot up to the
    last, the only ones the runs write. The values are then computed block by
    block (see the module docstring).
    """
    est = finite_array(pilot_estimates, "pilot estimates", np.complex128)
    n_p = len(cfg.placement)
    if est.ndim == 0 or len(est) != n_p:
        raise ValueError(f"pilot estimates must have {n_p} rows, one per pilot, got {est.shape}")
    shape = (cfg.n_sc,) + est.shape[1:]
    est = est.reshape(n_p, -1)
    pl = np.asarray(cfg.placement)
    xs = pl.astype(np.float64)
    gaps = np.diff(xs)[:, None]
    q = np.arange(pl[0], pl[-1])

    # Shared breakpoints: one searchsorted, then a lerp per subcarrier.
    idx = np.searchsorted(xs, q, side="right") - 1
    x0, x1 = xs[idx], xs[idx + 1]
    w = ((q - x0) / (x1 - x0))[:, None]

    # Runs of at most _ANCHOR_STRIDE subcarriers tile the pilot intervals,
    # each from an anchor. Longest first, so the runs still live at offset t
    # are a leading slice.
    off = q - pl[idx]
    start = np.flatnonzero(off % _ANCHOR_STRIDE == 0)
    run_len = np.diff(start, append=len(q))
    order = np.argsort(-run_len, kind="stable")
    start, run_len = start[order], run_len[order]
    iv, past = idx[start], off[start]
    mid = np.flatnonzero(past)
    lerps = []  # per offset t: live runs, their subcarriers and lerp weights
    for t in range(run_len.max(initial=0)):
        live = np.count_nonzero(run_len > t)
        rows = start[:live] + t
        lerps.append((live, pl[0] + rows, 1.0 - w[rows], w[rows]))

    out = np.empty((cfg.n_sc, est.shape[1]), dtype=np.complex128)
    for c in range(0, est.shape[1], _COLUMN_BLOCK):
        blk = est[:, c : c + _COLUMN_BLOCK]
        band = out[:, c : c + _COLUMN_BLOCK]
        mag = np.abs(blk)
        phasor = np.divide(blk, mag, out=np.ones(blk.shape, np.complex128), where=mag > 0)
        dphi = np.diff(np.angle(blk), axis=0)
        dphi -= np.where(dphi > np.pi, 2.0 * np.pi, np.where(dphi < -np.pi, -2.0 * np.pi, 0.0))
        step = dphi / gaps  # phase advance per subcarrier, per interval
        m0, m1 = mag[iv], mag[iv + 1]
        z = phasor[iv]
        # Phasor products out of place: numpy multiplies a one-element complex
        # array in place without its vector loop's fused multiply-add, so a
        # single entry would round unlike the same entry in a wider band.
        z[mid] = z[mid] * _cis(past[mid, None] * step[iv[mid]])
        rot = _cis(step)[iv]
        for t, (live, rows, w0, w1) in enumerate(lerps):
            if t:
                z[:live] = z[:live] * rot[:live]
            band[rows] = z[:live] * (m0[:live] * w0 + m1[:live] * w1)
        band[pl[-1] :] = phasor[-1] * mag[-1]
        band[: pl[0]] = band[pl[0]]
    return out.reshape(shape)


def to_time_domain(h_freq: np.ndarray, d: int) -> ChannelTensor:
    """Inverse DFT over subcarriers of a ``[n_sc, Nr, Nt]`` band, truncated to
    the first ``d`` taps, ``1 <= d <= n_sc``.

    The transform is the single-threaded FFT, block by block (see the module
    docstring). The first ``d`` rows of each block's transform are copied into
    the returned taps, which own their data.

    A ``[d, n_sc]`` inverse-DFT GEMM would compute only the kept taps, but
    OpenBLAS already runs a complex GEMM of M*N*K = 65,536 on several
    threads, and its time then depends on what else the machine runs. Beside
    one busy-looping process on a 2-core Haswell box, a transform made of
    GEMMs that size took 5.5-6.1 ms at p90 against 1.2-2.4 ms single-threaded.
    At 32,768 the GEMMs stay on one thread but are slower than the FFT.
    """
    h_freq = np.asarray(h_freq)
    if h_freq.ndim != 3 or h_freq.dtype.kind not in "iufc":
        raise ValueError(
            f"frequency response must be a numeric [n_sc, Nr, Nt] array, got "
            f"{h_freq.dtype} of shape {h_freq.shape}"
        )
    n_sc = h_freq.shape[0]
    d = count(d, "tap count")
    if not 1 <= d <= n_sc:
        raise ValueError(f"need 1 <= tap count <= {n_sc} subcarriers, got {d}")
    freq = h_freq.reshape(n_sc, -1)
    taps = np.empty((d,) + h_freq.shape[1:], dtype=np.complex128)
    flat = taps.reshape(d, -1)
    for c in range(0, freq.shape[1], _COLUMN_BLOCK):
        flat[:, c : c + _COLUMN_BLOCK] = np.fft.ifft(freq[:, c : c + _COLUMN_BLOCK], axis=0)[:d]
    return ChannelTensor(taps)


def nmse(h_hat: ChannelTensor, h: ChannelTensor) -> float:
    """Normalized mean-squared error ``||H - H_hat||^2 / ||H||^2`` of two
    channels of the same shape."""
    if h_hat.taps.shape != h.taps.shape:
        raise ValueError(f"estimate shape {h_hat.taps.shape} differs from reference {h.taps.shape}")
    num = float(np.sum(np.abs(h.taps - h_hat.taps) ** 2))
    den = h.energy()
    if den == 0:
        raise ValueError("reference channel has zero norm")
    return num / den


def nmse_db(h_hat: ChannelTensor, h: ChannelTensor) -> float:
    return 10.0 * np.log10(max(nmse(h_hat, h), 1e-30))


# ---------------------------------------------------------------------------
# OMP sparse-recovery baseline
# ---------------------------------------------------------------------------


def _direction_grid(geom: ArrayGeometry, oversample: int) -> np.ndarray:
    """Read-only ``[G, 2]`` cosine grid of ``geom``, as :class:`OmpDictionary`
    describes it."""

    def axis_grid(n):
        g = oversample * n if n > 1 else 1
        return np.arange(g) * (2.0 / g) - 1.0

    return _read_only(np.array([(a, b) for a in axis_grid(geom.nx) for b in axis_grid(geom.ny)]))


@dataclass(frozen=True)
class OmpDictionary:
    """Separable angle/delay dictionary for greedy sparse recovery, and the
    linear operator it defines.

    The dictionary is its grid, fixed by four fields: the tap count ``d``,
    the receive and transmit arrays, and ``oversample``, the cosine points
    per array element per axis (``d`` and ``oversample`` are integers
    ``>= 1``, the arrays :class:`ArrayGeometry`). It is frozen and compares
    and hashes by these fields.
    Atom ``(t, r, s)`` of the grid :attr:`shape` ``(d, Gr, Gt)`` has flat
    index ``(t*Gr + r)*Gt + s`` and is the tap tensor ``delta(tap=t) x
    outer(a_r[r], a_t[s]) / sqrt(Nr*Nt)``, of unit Frobenius norm, where
    ``a_r[r]`` is the receive array's response at :attr:`rx_dirs` row ``r``
    and ``a_t[s]`` the transmit array's at :attr:`tx_dirs` row ``s``.

    :attr:`rx_dirs` and :attr:`tx_dirs` are derived, not set: read-only
    ``[G, 2]`` grids of direction-cosine pairs ``(ux, uy)``, ``ux`` the slow
    index, with ``oversample`` points per element on each axis spread evenly
    over ``[-1, 1)``. An axis of one element gets the one cosine -1 whatever
    ``oversample``: its steering vector is 1 at every cosine, so more points
    would only repeat each atom. The derived arrays take no part in ``==`` or
    ``hash``.

    :meth:`synthesize` maps atom indices and gains to taps (one-hot tap
    weights in the rank-one tap sum of ``synth_channel``), :meth:`forward`
    gives their channel at the pilots, the noise-free :func:`ls_estimate`
    (pilot DFT weights in the same tap sum), and :meth:`adjoint` correlates
    an LS-domain residual with every atom through the pilot DFT rows,
    conjugate-transposed. The two are adjoint:
    ``vdot(forward(x), r) == vdot(x, adjoint(r))`` for every sparse ``x`` and
    residual ``r``. Their Gram matrix ``adjoint(forward(.))`` is separable in
    tap, rx direction and tx direction; :meth:`gram_factors` gives its three
    factors.
    """

    d: int
    rx_geom: ArrayGeometry
    tx_geom: ArrayGeometry
    oversample: int = 2

    def __post_init__(self):
        count_fields(self, "d", "oversample", low=1)
        for name in ("rx_geom", "tx_geom"):
            if not isinstance(getattr(self, name), ArrayGeometry):
                raise ValueError(f"{name} must be an ArrayGeometry, got {getattr(self, name)!r}")

    @classmethod
    def build(cls, d: int, rx_geom: ArrayGeometry, tx_geom: ArrayGeometry,
              oversample: int = 2) -> "OmpDictionary":
        """The dictionary of these fields; the same as calling the class."""
        return cls(d, rx_geom, tx_geom, oversample)

    @functools.cached_property
    def rx_dirs(self) -> np.ndarray:
        """Read-only ``[Gr, 2]`` receive direction-cosine grid."""
        return _direction_grid(self.rx_geom, self.oversample)

    @functools.cached_property
    def tx_dirs(self) -> np.ndarray:
        """Read-only ``[Gt, 2]`` transmit direction-cosine grid."""
        return _direction_grid(self.tx_geom, self.oversample)

    @functools.cached_property
    def _a_r(self) -> np.ndarray:
        return _read_only(_ura(*self.rx_dirs.T, self.rx_geom))  # [Gr, Nr]

    @functools.cached_property
    def _a_t(self) -> np.ndarray:
        return _read_only(_ura(*self.tx_dirs.T, self.tx_geom))  # [Gt, Nt]

    @functools.cached_property
    def _norm(self) -> float:
        return np.sqrt(self.rx_geom.size * self.tx_geom.size)

    @property
    def shape(self) -> tuple[int, int, int]:
        """Atom grid ``(d, Gr, Gt)``; flat atom indices run over it in C order."""
        return (self.d, len(self.rx_dirs), len(self.tx_dirs))

    @property
    def n_atoms(self) -> int:
        return int(np.prod(self.shape))

    def _atoms(self, atoms, gains):
        """Grid indices ``(t, r, s)`` of ``atoms``, a 1-D sequence of integer
        flat indices below :attr:`n_atoms`, and ``gains`` as complex, one
        finite number per atom."""
        try:
            idx = np.asarray(atoms)
        except ValueError:  # a ragged sequence, of which numpy makes no array
            idx = None
        if idx is None or idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise ValueError(f"atoms must be a 1-D sequence of integer indices, got {atoms!r}")
        if idx.size and not (0 <= idx.min() and idx.max() < self.n_atoms):
            raise ValueError(
                f"atoms must be indices in [0, {self.n_atoms}), got {idx.min()}..{idx.max()}")
        gains = finite_array(gains, "gains", np.complex128, idx.shape)
        return np.unravel_index(idx.astype(np.int64), self.shape), gains

    def synthesize(self, atoms, gains) -> ChannelTensor:
        """Taps ``sum_j gains[j] * atom[atoms[j]]``, ``d`` of them."""
        (ti, ri, si), gains = self._atoms(atoms, gains)
        w = np.zeros((self.d, ti.size), dtype=np.complex128)
        w[ti, np.arange(ti.size)] = gains / self._norm
        return _rank_one_taps(w, self._a_r[ri], self._a_t[si])

    def forward(self, atoms, gains, cfg: PilotConfig) -> np.ndarray:
        """``[P, Nr, Nt]`` channel of :meth:`synthesize` at ``cfg``'s pilot
        subcarriers: the noise-free LS estimate.

        Each atom's pilot DFT row at its tap weighs its rank-one term, so the
        tap tensor is never formed.
        """
        (ti, ri, si), gains = self._atoms(atoms, gains)
        w = _dft_rows(cfg.placement, ti, cfg.n_sc) * (gains / self._norm)
        return _rank_one_taps(w, self._a_r[ri], self._a_t[si]).taps

    def adjoint(self, residual: np.ndarray, cfg: PilotConfig) -> np.ndarray:
        """Correlation ``[d, Gr, Gt]`` of a finite ``[P, Nr, Nt]`` LS-domain
        residual with every atom.

        The small axes are contracted first: the pilot axis,
        ``F^H [d, P] @ R [P, Nr*Nt]`` with ``F`` the pilot DFT rows at taps
        ``0..d-1``, then the rx axis, ``conj(A_r) Z_t`` per tap. One
        ``[d*Gr, Nt] @ [Nt, Gt]`` GEMM against ``A_t^H / sqrt(Nr*Nt)`` then
        writes the grid, so the returned array is the only one of the full
        grid's size and no other pass touches it.
        """
        shape = (len(cfg.placement), self.rx_geom.size, self.tx_geom.size)
        residual = finite_array(residual, "residual", np.complex128, shape)
        f = _dft_rows(cfg.placement, np.arange(self.d), cfg.n_sc)
        z = f.conj().T @ residual.reshape(len(residual), -1)  # [d, Nr*Nt]
        z = np.conj(self._a_r) @ z.reshape(len(z), *residual.shape[1:])  # [d, Gr, Nt]
        a_t = np.conj(self._a_t).T / self._norm  # [Nt, Gt]
        return (z.reshape(-1, shape[2]) @ a_t).reshape(self.shape)

    def gram_factors(self, cfg: PilotConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Factors ``kd [d, d]``, ``kr [Gr, Gr]``, ``kt [Gt, Gt]`` of the Gram
        matrix: for atom ``j = (t_j, r_j, s_j)``,
        ``adjoint(forward([j], [1]))[t, r, s] == kd[t, t_j] * kr[r, r_j] * kt[s, s_j]``.

        ``kd = F^H F / (Nr*Nt)`` with ``F`` the pilot DFT rows at taps
        ``0..d-1``, ``kr = conj(A_r) A_r^T`` and ``kt = conj(A_t) A_t^T``.
        """
        f = _dft_rows(cfg.placement, np.arange(self.d), cfg.n_sc)
        kd = f.conj().T @ f / self._norm**2
        kr = np.conj(self._a_r) @ self._a_r.T
        kt = np.conj(self._a_t) @ self._a_t.T
        return kd, kr, kt


# Relative excess of the refit's projected energy ||w||^2 over ||y||^2 that
# omp_estimate takes for rounding rather than a breakdown of the refit.
_BREAKDOWN_TOL = 1e-9


def _slab_bounds(slab_max, weight, gains, seen):
    """Upper bounds per delay slab ``d`` on ``|alpha0[d] - (G[:, I] g)[d]|``,
    over the slab's atoms not yet selected, as :func:`omp_estimate` computes
    it. Returns ``(bound, full)``.

    ``slab_max[d] = max|alpha0[d]|`` and ``weight[d, i] = |kd[d, d_i]|
    kr_max[r_i] kt_max[t_i]`` for the selected atom ``i = (d_i, r_i, t_i)``
    with gain ``g_i``, where ``kr_max``/``kt_max`` are the column maxima of
    ``|kr|``/``|kt|``: no atom of slab ``d`` is moved by more than
    ``weight[d, i]`` per unit of ``g_i``. The full bound is
    ``slab_max[d] + sum_i |g_i| weight[d, i]``. ``seen = (v, b, h)`` holds,
    per slab, the best value found at its last visit (``inf`` for a slab not
    visited), the full bound then, and the gains then, zero-padded to ``k``.
    The lazy bound ``v[d] + sum_i |g_i - h[d, i]| weight[d, i]`` charges the
    slab only for the gain change since that visit. ``bound`` is the smaller
    of the two.

    For ``k`` selected atoms and ``eps`` the float64 machine epsilon, each
    evaluation is charged ``16 (k + 4) eps`` times its full bound: several
    times the worst-case relative rounding of a ``k``-term complex dot
    product and the few products, sums and moduli on either side, so the
    bounds also hold for the rounded values. The lazy bound is charged for
    both evaluations it spans, each at the current ``k``, which is at least
    the earlier one's.
    """
    v, b, h = seen
    tol = 16 * (len(gains) + 4) * np.finfo(np.float64).eps
    full = (slab_max + weight @ np.abs(gains)) * (1.0 + tol)
    lazy = v + (np.abs(gains - h) * weight).sum(axis=1) + tol * (b + full)
    return np.minimum(full, lazy), full


@dataclass
class OmpResult:
    estimate: ChannelTensor
    selected: list[int]
    gains: np.ndarray
    residual_norms: list[float]


def omp_estimate(
    obs: PilotObservation,
    cfg: PilotConfig,
    dictionary: OmpDictionary,
    k_max: int,
    return_info: bool = False,
):
    """Greedy matching pursuit over the angle/delay dictionary (Batch-OMP).

    The pursuit runs on the LS estimate ``y = ls_estimate(obs, cfg)``. Each
    iteration selects the atom with maximal residual correlation, then refits
    all selected gains by least squares. ``y`` is correlated with every atom
    once, ``alpha0 = A^H y``; after that the residual's
    correlation is ``alpha0 - G[:, I] g`` for the selected atoms ``I`` and
    gains ``g``, with the Gram columns ``G[:, I]`` formed from
    :meth:`OmpDictionary.gram_factors` one factor at a time, never stored
    whole. The refit keeps the inverse ``L^-1`` of the Cholesky factor ``L``
    of ``G[I, I]``, lower triangular, and grows it by one row per pick: with
    ``b = G[I, p]`` for the pick ``p``, the new row of ``L`` is
    ``[row^H, delta]`` with ``row = L^-1 b`` and
    ``delta = sqrt(G[p, p] - ||row||^2)``, so ``L^-1`` gains
    ``[-(row^H L^-1) / delta, 1 / delta]``. ``w = L^-1 alpha0[I]`` gains one
    entry ``w_k``, and the gains ``g = L^-H w`` gain ``w_k`` times the new
    column of ``L^-H``. Each step is a small product summed by numpy, not a
    BLAS matrix-vector product, which OpenBLAS splits over threads at larger
    ``k``; nothing is factorised or solved. A pick whose new squared pivot
    ``delta^2`` is at most ``1e-10`` times its own Gram entry lies in the
    span of the atoms already selected: the refit is rank-deficient, so that
    atom is dropped and the pursuit stops.

    The residual norm is read off the same factor, as in Batch-OMP: the
    projection of ``y`` onto the selected atoms has energy ``||w||^2``, summed
    as the entries of ``w`` arrive, so the residual
    ``y - forward(selected, gains)`` has norm ``sqrt(||y||^2 - ||w||^2)``,
    clamped at 0, and is never formed. The norms agree with the explicit
    residual's to rounding in ``||y||^2``: ~1e-15 ``||y||`` on bench-size
    links, and up to ~``sqrt(eps) ||y||`` where the residual itself is at
    rounding level. They never grow, by construction.

    The pick is searched one delay slab ``[Gr, Gt]`` at a time, in descending
    order of an upper bound on the slab's residual correlation (see
    :func:`_slab_bounds`), the smaller of two. The full bound is the slab's
    ``max|alpha0|`` plus what the selected atoms can subtract through the
    delay Gram factor ``kd``. The lazy bound applies to a slab visited
    before: the best value found at its last visit plus what the gains'
    change since then can move, so a slab the refit has barely touched is
    not evaluated again. The search stops once no unvisited slab's bound
    reaches the best value found. With comb pilots ``kd`` is diagonal up to
    rounding, so a pick moves only its own slab's atoms much, and about two
    slabs are visited per pick at any ``k``. A slab is evaluated with the
    same arithmetic as the full grid would be, and on an exact tie the lower
    flat index wins, so the picks are those of a full-grid search. ``alpha0``
    is the only grid-sized array a call holds.

    Stops after ``k_max`` atoms, an integer ``>= 1``, once the residual norm
    is zero (``||w||^2`` reached ``||y||^2``), or at a rank-deficient refit.
    A projection cannot hold more energy than ``y``: a ``||w||^2`` above
    ``||y||^2`` by more than a relative ``_BREAKDOWN_TOL`` means the refit broke
    down and raises ``FloatingPointError``. The observation must come from
    ``cfg``'s pilot placement and have the dictionary's ``(Nr, Nt)``, and
    ``cfg.nt`` must be that Nt.
    """
    k_max = count(k_max, "k_max", 1)
    dc = dictionary
    arrays = (dc.rx_geom.size, dc.tx_geom.size)
    if obs.y.shape[1:] != arrays:
        raise ValueError(f"observation is for {obs.y.shape[1:]} arrays, dictionary for {arrays}")
    y = ls_estimate(obs, cfg)
    # numpy's pairwise sum, not a BLAS dot whose split follows the thread count
    y_norm2 = float(np.sum(y.real**2 + y.imag**2))
    resid_norms = [math.sqrt(y_norm2)]
    alpha0 = dc.adjoint(y, cfg)
    kd, kr, kt = dc.gram_factors(cfg)
    nd, gr, gt = dc.shape
    slab = gr * gt
    resid = np.empty((gr, gt), dtype=np.complex128)  # alpha0[s] - (G[:, I] g)[s], one slab
    mag = np.empty((gr, gt))  # |resid|
    slab_max = np.array([np.abs(a, out=mag).max() for a in alpha0])
    kr_max, kt_max = np.abs(kr).max(axis=0), np.abs(kt).max(axis=0)
    # per selected atom i: its grid indices, rx and tx Gram columns and bound weight
    sel_d, sel_r, sel_t = (np.zeros(k_max, dtype=np.int64) for _ in range(3))
    kr_sel = np.zeros((gr, k_max), dtype=np.complex128)
    kt_sel = np.zeros((gt, k_max), dtype=np.complex128)
    weight = np.zeros((nd, k_max))
    # per slab: best value, full bound and gains at its last visit
    seen_v, seen_b = np.full(nd, np.inf), np.zeros(nd)
    seen_g = np.zeros((nd, k_max), dtype=np.complex128)
    linv = np.zeros((k_max, k_max), dtype=np.complex128)  # L^-1, lower, G[I, I] = L L^H
    w = np.zeros(k_max, dtype=np.complex128)  # L^-1 alpha0[I]
    g = np.zeros(k_max, dtype=np.complex128)  # L^-H w
    selected: list[int] = []
    gains = g[:0]
    proj2 = 0.0

    while len(selected) < k_max and resid_norms[-1] > 0.0:
        k = len(selected)
        d, r, t = sel_d[:k], sel_r[:k], sel_t[:k]
        bound, full = _slab_bounds(
            slab_max, weight[:, :k], gains, (seen_v, seen_b, seen_g[:, :k]))
        bound = bound.tolist()
        best, pick = -1.0, -1
        for s in np.argsort(bound)[::-1].tolist():
            if bound[s] < best:
                break
            np.matmul(kd[s, d] * gains * kr_sel[:, :k], kt_sel[:, :k].T, out=resid)
            np.subtract(alpha0[s], resid, out=resid)
            np.abs(resid, out=mag)
            mag[r[d == s], t[d == s]] = 0.0
            j = int(np.argmax(mag))
            v, j = float(mag.flat[j]), s * slab + j
            seen_v[s], seen_b[s], seen_g[s, :k] = v, full[s], gains
            if v > best or (v == best and j < pick):
                best, pick = v, j

        dp, rp = divmod(pick, slab)
        rp, tp = divmod(rp, gt)
        row = (linv[:k, :k] * (kd[d, dp] * kr[r, rp] * kt[t, tp])).sum(axis=1)  # L^-1 G[I, p]
        g_pp = float((kd[dp, dp] * kr[rp, rp] * kt[tp, tp]).real)
        pivot2 = g_pp - float(np.vdot(row, row).real)
        if pivot2 <= 1e-10 * g_pp:
            break
        # L gains the row [row^H, delta], so L^-1 gains [-(row^H L^-1) / delta, 1 / delta]
        delta = math.sqrt(pivot2)
        linv[k, :k] = (row.conj()[:, None] * linv[:k, :k]).sum(axis=0) / -delta
        linv[k, k] = 1.0 / delta
        w[k] = (alpha0[dp, rp, tp] - np.vdot(row, w[:k])) / delta
        # g = L^-H w gains column k of L^-H, the new row of L^-1 conjugated, times w[k]
        g[: k + 1] += linv[k, : k + 1].conj() * w[k]
        gains = g[: k + 1]
        selected.append(pick)
        sel_d[k], sel_r[k], sel_t[k] = dp, rp, tp
        kr_sel[:, k], kt_sel[:, k] = kr[:, rp], kt[:, tp]
        weight[:, k] = np.abs(kd[:, dp]) * (kr_max[rp] * kt_max[tp])

        proj2 += abs(w[k]) ** 2  # ||w||^2, the energy of y's projection on the atoms
        if proj2 > y_norm2 * (1.0 + _BREAKDOWN_TOL):
            raise FloatingPointError("OMP refit holds more energy than the LS estimate")
        resid_norms.append(math.sqrt(max(y_norm2 - proj2, 0.0)))

    result = OmpResult(dc.synthesize(selected, gains), selected, gains, resid_norms)
    return result if return_info else result.estimate
