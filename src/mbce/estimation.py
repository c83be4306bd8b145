"""OFDM pilot transmission, coarse LS channel estimation, and an OMP baseline.

Pilot structure: at each pilot subcarrier the transmitter sends Nt successive
pilot symbols forming a scaled unitary DFT matrix across transmit antennas,
so per-subcarrier least squares is a well-conditioned right inverse. The
coarse estimate interpolates magnitude and unwrapped phase across the band
and transforms back to the tap domain with an inverse DFT.

Everything is a pure function of (inputs, seed); Monte-Carlo trials can be
parallelized across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_model import ArrayGeometry, ChannelTensor, rank_one_taps, ura_from_cosines

__all__ = [
    "PilotConfig",
    "PilotObservation",
    "transmit_pilots",
    "ls_estimate",
    "interpolate_full_band",
    "to_time_domain",
    "coarse_estimate",
    "OmpDictionary",
    "OmpResult",
    "omp_estimate",
    "nmse",
    "nmse_db",
]


def _comb_indices(n_sc: int, n_pilot: int) -> tuple[int, ...]:
    return tuple(int(i * n_sc // n_pilot) for i in range(n_pilot))


@dataclass(frozen=True)
class PilotConfig:
    """Pilot allocation and noise level for one OFDM sounding round.

    ``placement`` defaults to an equispaced comb. ``pilot_matrix`` is the
    Nt x Nt unitary matrix transmitted (column per symbol slot) at every
    pilot subcarrier. Noise: if ``snr_db`` is set, the noise variance is
    derived per call as mean received pilot power over 10^(snr/10) per
    receive antenna; otherwise ``noise_var`` is used directly (0/None means
    noiseless). At most one of the two may be set; ``snr_db`` must be finite,
    ``noise_var`` finite and >= 0, ``p_t`` finite and > 0.
    """

    n_sc: int
    n_pilot: int
    nt: int
    snr_db: float | None = None
    noise_var: float | None = None
    p_t: float = 1.0
    placement: tuple[int, ...] = ()
    pilot_matrix: np.ndarray | None = None

    def __post_init__(self):
        if not 1 <= self.n_pilot <= self.n_sc:
            raise ValueError(f"need 1 <= n_pilot <= n_sc, got {self.n_pilot}/{self.n_sc}")
        if not (math.isfinite(self.p_t) and self.p_t > 0):
            raise ValueError(f"transmit power must be finite and > 0, got {self.p_t}")
        if self.snr_db is not None and self.noise_var is not None:
            raise ValueError("set at most one of snr_db and noise_var")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if self.noise_var is not None and not (
            math.isfinite(self.noise_var) and self.noise_var >= 0
        ):
            raise ValueError(f"noise_var must be finite and >= 0, got {self.noise_var}")
        if not self.placement:
            object.__setattr__(self, "placement", _comb_indices(self.n_sc, self.n_pilot))
        if len(self.placement) != self.n_pilot or any(
            b <= a for a, b in zip(self.placement, self.placement[1:])
        ):
            raise ValueError("pilot placement must be strictly increasing, one per pilot")
        if self.placement[0] < 0 or self.placement[-1] >= self.n_sc:
            raise ValueError("pilot placement outside subcarrier range")
        if self.pilot_matrix is None:
            dft = np.fft.fft(np.eye(self.nt)) / np.sqrt(self.nt)
            object.__setattr__(self, "pilot_matrix", dft)
        u = self.pilot_matrix
        if u.shape != (self.nt, self.nt):
            raise ValueError("pilot matrix must be Nt x Nt")
        if np.max(np.abs(u.conj().T @ u - np.eye(self.nt))) > 1e-10:
            raise ValueError("pilot matrix must be unitary within 1e-10")

    @property
    def scaled_matrix(self) -> np.ndarray:
        """Pilot matrix scaled to transmit power."""
        return np.sqrt(self.p_t) * self.pilot_matrix


@dataclass
class PilotObservation:
    """Received Nr x Nt matrices, one per pilot subcarrier."""

    y: np.ndarray                 # [n_pilot, Nr, Nt]
    placement: tuple[int, ...]

    def __post_init__(self):
        if not np.all(np.isfinite(self.y)):
            raise ValueError("observation contains non-finite entries")


def _pilot_dft(cfg: PilotConfig, taps) -> np.ndarray:
    """``[P, len(taps)]`` rows ``exp(-2j*pi*k*d/n_sc)``: pilot subcarriers ``k``, taps ``d``."""
    return np.exp(-2j * np.pi * np.multiply.outer(cfg.placement, taps) / cfg.n_sc)


def _pilot_response(h: ChannelTensor, cfg: PilotConfig) -> np.ndarray:
    """Noise-free pilot model ``Y_k = H_k S`` at every pilot subcarrier."""
    if cfg.n_sc < h.d:
        raise ValueError(f"subcarriers {cfg.n_sc} < tap count {h.d}")
    if cfg.nt != h.nt:
        raise ValueError(f"pilot config is for Nt={cfg.nt}, channel has Nt={h.nt}")
    # einsum, not one [P, D] x [D, Nr*Nt] matmul: at benchmark sizes that gemm
    # goes multithreaded in OpenBLAS, and waking its threads costs more than it saves.
    h_k = np.einsum("pd,drt->prt", _pilot_dft(cfg, np.arange(h.d)), h.taps)
    return h_k @ cfg.scaled_matrix


def transmit_pilots(h: ChannelTensor, cfg: PilotConfig, rng_seed) -> PilotObservation:
    """Simulate pilot reception: ``Y_k = H_k S + V_k`` at each pilot subcarrier.

    Deterministic given ``rng_seed``.
    """
    y = _pilot_response(h, cfg)

    if cfg.snr_db is not None:
        p_sig = float(np.mean(np.abs(y) ** 2))
        sigma2 = p_sig / 10.0 ** (cfg.snr_db / 10.0)
    else:
        sigma2 = float(cfg.noise_var or 0.0)
    if sigma2 > 0:
        rng = np.random.default_rng(rng_seed)
        scale = np.sqrt(sigma2 / 2.0)
        noise = scale * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
        y = y + noise
    return PilotObservation(y=y, placement=cfg.placement)


def _check_placement(obs: PilotObservation, cfg: PilotConfig) -> None:
    if tuple(obs.placement) != cfg.placement:
        raise ValueError("observation pilot placement differs from the pilot config's")


def ls_estimate(obs: PilotObservation, cfg: PilotConfig) -> np.ndarray:
    """Per-pilot-subcarrier least squares: ``H_hat_k = Y_k S^{-1}``.

    The observation must come from ``cfg``'s pilot placement.
    """
    _check_placement(obs, cfg)
    s_inv = cfg.pilot_matrix.conj().T / np.sqrt(cfg.p_t)
    return obs.y @ s_inv


def interpolate_full_band(pilot_estimates: np.ndarray, cfg: PilotConfig) -> np.ndarray:
    """Linear magnitude/unwrapped-phase interpolation across all subcarriers.

    Edges are held at the nearest pilot value. A single pilot extrapolates as
    a constant.
    """
    est = np.asarray(pilot_estimates)
    n_p = est.shape[0]
    if n_p != len(cfg.placement):
        raise ValueError("estimate count does not match pilot placement")
    if n_p == 1:
        return np.broadcast_to(est[0], (cfg.n_sc,) + est.shape[1:]).copy()

    xs = np.asarray(cfg.placement, dtype=np.float64)
    xq = np.arange(cfg.n_sc, dtype=np.float64)
    mag = np.abs(est)
    phase = np.unwrap(np.angle(est), axis=0)

    # Shared breakpoints: one searchsorted, then a broadcast lerp per pair.
    idx = np.clip(np.searchsorted(xs, xq, side="right") - 1, 0, n_p - 2)
    x0, x1 = xs[idx], xs[idx + 1]
    w = np.clip((xq - x0) / (x1 - x0), 0.0, 1.0)  # clip gives edge hold
    w = w.reshape((-1,) + (1,) * (est.ndim - 1))
    mag_q = mag[idx] * (1.0 - w) + mag[idx + 1] * w
    ph_q = phase[idx] * (1.0 - w) + phase[idx + 1] * w
    return mag_q * np.exp(1j * ph_q)


def to_time_domain(h_freq: np.ndarray, d: int) -> ChannelTensor:
    """Inverse DFT over subcarriers, truncated to the first ``d`` taps."""
    n_sc = h_freq.shape[0]
    if d > n_sc:
        raise ValueError(f"tap count {d} exceeds subcarrier count {n_sc}")
    taps = np.fft.ifft(h_freq, axis=0)[:d]
    return ChannelTensor(taps)


def coarse_estimate(h: ChannelTensor, cfg: PilotConfig, seed) -> ChannelTensor:
    """Full coarse pipeline: pilots -> LS -> band interpolation -> taps."""
    obs = transmit_pilots(h, cfg, seed)
    pilot_est = ls_estimate(obs, cfg)
    full_band = interpolate_full_band(pilot_est, cfg)
    return to_time_domain(full_band, h.d)


def nmse(h_hat: ChannelTensor, h: ChannelTensor) -> float:
    """Normalized mean-squared error ``||H - H_hat||^2 / ||H||^2``."""
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


@dataclass
class OmpDictionary:
    """Separable angle/delay dictionary for greedy sparse recovery, and the
    linear operator it defines.

    Atom ``(d, r, t)`` of the grid :attr:`shape` ``(Nd, Gr, Gt)`` has flat
    index ``(d*Gr + r)*Gt + t`` and is the tap tensor ``delta(tap=delays[d])
    x outer(a_r[r], a_t[t]) / sqrt(Nr*Nt)``, of unit Frobenius norm.
    Direction grids are direction-cosine pairs, one row per atom direction,
    steered by :func:`~mbce.channel_model.ura_from_cosines`.

    :meth:`synthesize` maps atom indices and gains to taps (one-hot delay
    weights in :func:`~mbce.channel_model.rank_one_taps`), :meth:`forward`
    applies the pilot DFT rows to them, and :meth:`adjoint` correlates a pilot
    residual with every atom through the same rows, conjugate-transposed.
    The two are adjoint: ``vdot(forward(x), r) == vdot(x, adjoint(r))`` for
    every sparse ``x`` and residual ``r``.
    """

    delays: np.ndarray            # [Nd] integer taps
    rx_dirs: np.ndarray           # [Gr, 2] (cos-x, cos-y)
    tx_dirs: np.ndarray           # [Gt, 2]
    rx_geom: ArrayGeometry
    tx_geom: ArrayGeometry

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=np.int64)
        self.rx_dirs = np.atleast_2d(np.asarray(self.rx_dirs, dtype=np.float64))
        self.tx_dirs = np.atleast_2d(np.asarray(self.tx_dirs, dtype=np.float64))
        if self.delays.size == 0 or self.rx_dirs.size == 0 or self.tx_dirs.size == 0:
            raise ValueError("empty dictionary")
        self._a_r = ura_from_cosines(*self.rx_dirs.T, self.rx_geom)  # [Gr, Nr]
        self._a_t = ura_from_cosines(*self.tx_dirs.T, self.tx_geom)  # [Gt, Nt]
        self._norm = np.sqrt(self.rx_geom.size * self.tx_geom.size)

    @property
    def shape(self) -> tuple[int, int, int]:
        """Atom grid ``(Nd, Gr, Gt)``; flat atom indices run over it in C order."""
        return (self.delays.size, self.rx_dirs.shape[0], self.tx_dirs.shape[0])

    @property
    def n_atoms(self) -> int:
        return int(np.prod(self.shape))

    @classmethod
    def build(
        cls,
        d: int,
        rx_geom: ArrayGeometry,
        tx_geom: ArrayGeometry,
        oversample: int = 2,
    ) -> "OmpDictionary":
        """Default grid: delays at tap resolution, cosine grids of
        ``oversample`` points per array element per axis."""

        def axis_grid(n):
            g = oversample * n
            return np.arange(g) * (2.0 / g) - 1.0

        def dir_pairs(geom):
            gx, gy = axis_grid(geom.nx), axis_grid(geom.ny)
            return np.array([(a, b) for a in gx for b in gy])

        return cls(
            delays=np.arange(d),
            rx_dirs=dir_pairs(rx_geom),
            tx_dirs=dir_pairs(tx_geom),
            rx_geom=rx_geom,
            tx_geom=tx_geom,
        )

    def synthesize(self, atoms, gains) -> ChannelTensor:
        """Taps ``sum_j gains[j] * atom[atoms[j]]``, ``max(delays) + 1`` of them."""
        di, ri, ti = np.unravel_index(np.asarray(atoms, dtype=np.int64), self.shape)
        w = np.zeros((int(self.delays.max()) + 1, di.size), dtype=np.complex128)
        w[self.delays[di], np.arange(di.size)] = np.asarray(gains) / self._norm
        return rank_one_taps(w, self._a_r[ri], self._a_t[ti])

    def forward(self, atoms, gains, cfg: PilotConfig) -> np.ndarray:
        """Noise-free ``[P, Nr, Nt]`` pilot observation of :meth:`synthesize`."""
        return _pilot_response(self.synthesize(atoms, gains), cfg)

    def adjoint(self, residual: np.ndarray, cfg: PilotConfig) -> np.ndarray:
        """Correlation ``[Nd, Gr, Gt]`` of a ``[P, Nr, Nt]`` residual with every atom.

        Per pilot, ``conj(A_r) (R_k S^H) A_t^H`` correlates with every spatial
        atom; the conjugate transpose of the pilot DFT rows at :attr:`delays`
        then sums over pilots.
        """
        r_s = residual @ cfg.scaled_matrix.conj().T
        spatial = np.conj(self._a_r) @ (r_s @ np.conj(self._a_t).T)  # [P, Gr, Gt]
        corr = _pilot_dft(cfg, self.delays).conj().T @ spatial.reshape(len(spatial), -1)
        return corr.reshape(self.shape) / self._norm


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
    resid_tol: float = 0.0,
    return_info: bool = False,
):
    """Greedy matching pursuit over the angle/delay dictionary.

    Each iteration selects the atom with maximal residual correlation, then
    refits all selected gains by least squares. Stops after ``k_max`` atoms
    or once the residual norm drops to ``resid_tol`` times the observation
    norm. A rank-deficient refit drops the newest atom and stops. A residual
    that grows across an iteration raises ``FloatingPointError``. The
    observation must come from ``cfg``'s pilot placement.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_placement(obs, cfg)
    dc = dictionary
    y = obs.y.ravel()
    y_norm = float(np.linalg.norm(y))
    resid_norms = [y_norm]
    selected: list[int] = []
    cols: list[np.ndarray] = []
    gains = np.zeros(0, dtype=np.complex128)
    residual = obs.y

    while len(selected) < k_max and resid_norms[-1] > resid_tol * y_norm:
        corr = np.abs(dc.adjoint(residual, cfg)).ravel()
        corr[selected] = 0.0
        pick = int(np.argmax(corr))
        cols.append(dc.forward([pick], [1.0], cfg).ravel())

        phi = np.stack(cols, axis=1)
        sol, _, rank, _ = np.linalg.lstsq(phi, y, rcond=None)
        if rank < len(cols):
            break
        selected.append(pick)
        gains = sol
        r_vec = y - phi @ gains
        residual = r_vec.reshape(obs.y.shape)
        r_norm = float(np.linalg.norm(r_vec))
        if r_norm > resid_norms[-1] + 1e-9 * y_norm:
            raise FloatingPointError("OMP residual increased across an iteration")
        resid_norms.append(r_norm)

    result = OmpResult(dc.synthesize(selected, gains), selected, gains, resid_norms)
    return result if return_info else result.estimate
