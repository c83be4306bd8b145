"""OFDM pilot transmission, coarse LS channel estimation, and an OMP baseline.

Pilot structure: at each pilot subcarrier the transmitter sends Nt successive
pilot symbols forming the unitary DFT matrix across transmit antennas, so
per-subcarrier least squares is its conjugate transpose. Noise is set by the
SNR alone, so the transmit power cancels and is not a parameter. The
coarse estimate interpolates magnitude and unwrapped phase across the band
and transforms back to the tap domain with an inverse DFT.

Everything is a pure function of (inputs, seed); Monte-Carlo trials can be
parallelized across seeds.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel_model import ArrayGeometry, ChannelTensor, rank_one_taps, ura_from_cosines
from .channel_model import _index_fields

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

    ``placement`` is a strictly increasing sequence of subcarrier indices,
    stored as a tuple of ints; empty means an equispaced comb. ``snr_db`` is
    the one noise level: the noise variance is derived per call as the mean
    received pilot power over 10^(snr/10) per receive antenna; ``None``
    means noiseless. Counts are integers, ``nt`` at least 1, and ``snr_db`` finite.

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
        _index_fields(self, "n_sc", "n_pilot", "nt")
        if not 1 <= self.n_pilot <= self.n_sc:
            raise ValueError(f"need 1 <= n_pilot <= n_sc, got {self.n_pilot}/{self.n_sc}")
        if self.nt < 1:
            raise ValueError(f"need nt >= 1 transmit antennas, got {self.nt}")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        try:
            placement = tuple(operator.index(k) for k in self.placement)
        except TypeError:
            raise ValueError(f"pilot placement must be integers, got {self.placement!r}") from None
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
        dft = np.fft.fft(np.eye(self.nt)) / np.sqrt(self.nt)
        dft.flags.writeable = False
        return dft


@dataclass
class PilotObservation:
    """Received Nr x Nt matrices, one per pilot subcarrier: ``y`` is finite
    and ``[len(placement), Nr, Nt]``."""

    y: np.ndarray                 # [n_pilot, Nr, Nt]
    placement: tuple[int, ...]

    def __post_init__(self):
        if np.ndim(self.y) != 3 or len(self.y) != len(self.placement):
            raise ValueError(
                f"observation must be [{len(self.placement)}, Nr, Nt], one matrix per "
                f"pilot, got shape {np.shape(self.y)}"
            )
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
    return h_k @ cfg.pilot_matrix


def transmit_pilots(h: ChannelTensor, cfg: PilotConfig, rng_seed) -> PilotObservation:
    """Simulate pilot reception: ``Y_k = H_k S + V_k`` at each pilot subcarrier.

    Deterministic given ``rng_seed``.
    """
    y = _pilot_response(h, cfg)

    sigma2 = 0.0
    if cfg.snr_db is not None:
        p_sig = float(np.mean(np.abs(y) ** 2))
        sigma2 = p_sig / 10.0 ** (cfg.snr_db / 10.0)
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
    return obs.y @ cfg.pilot_matrix.conj().T


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
    out = np.empty(ph_q.shape, dtype=np.complex128)  # mag_q * exp(1j * ph_q)
    np.cos(ph_q, out=out.real)
    np.sin(ph_q, out=out.imag)
    out *= mag_q
    return out


def to_time_domain(h_freq: np.ndarray, d: int) -> ChannelTensor:
    """Inverse DFT over subcarriers, truncated to the first ``d`` taps,
    ``1 <= d <= n_sc``."""
    n_sc = h_freq.shape[0]
    if not 1 <= d <= n_sc:
        raise ValueError(f"need 1 <= tap count <= {n_sc} subcarriers, got {d}")
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
    Delays are a 1-D integer array of taps ``>= 0``. Direction grids are
    ``[G, 2]`` arrays of finite direction-cosine pairs, one row per atom
    direction, steered by :func:`~mbce.channel_model.ura_from_cosines`.

    :meth:`synthesize` maps atom indices and gains to taps (one-hot delay
    weights in :func:`~mbce.channel_model.rank_one_taps`), :meth:`forward`
    observes them at the pilots (pilot DFT weights in the same tap sum), and
    :meth:`adjoint` correlates a pilot residual with every atom through the
    pilot DFT rows, conjugate-transposed. The two are adjoint:
    ``vdot(forward(x), r) == vdot(x, adjoint(r))`` for every sparse ``x`` and
    residual ``r``. Their Gram matrix ``adjoint(forward(.))`` is separable in
    delay, rx direction and tx direction; :meth:`gram_factors` gives its three
    factors.
    """

    delays: np.ndarray            # [Nd] integer taps
    rx_dirs: np.ndarray           # [Gr, 2] (cos-x, cos-y)
    tx_dirs: np.ndarray           # [Gt, 2]
    rx_geom: ArrayGeometry
    tx_geom: ArrayGeometry

    def __post_init__(self):
        delays = np.asarray(self.delays)
        if delays.ndim != 1 or not np.issubdtype(delays.dtype, np.integer):
            raise ValueError(f"dictionary delays must be a 1-D integer array, got {self.delays!r}")
        self.delays = delays.astype(np.int64)
        self.rx_dirs = np.atleast_2d(np.asarray(self.rx_dirs, dtype=np.float64))
        self.tx_dirs = np.atleast_2d(np.asarray(self.tx_dirs, dtype=np.float64))
        for name, dirs in (("rx_dirs", self.rx_dirs), ("tx_dirs", self.tx_dirs)):
            if dirs.ndim != 2 or dirs.shape[1] != 2:
                raise ValueError(f"{name} must be [G, 2] direction-cosine pairs, got {dirs.shape}")
        if self.delays.size == 0 or self.rx_dirs.size == 0 or self.tx_dirs.size == 0:
            raise ValueError("empty dictionary")
        if np.any(self.delays < 0):
            raise ValueError(f"dictionary delays must be >= 0, got {self.delays.min()}")
        if not (np.all(np.isfinite(self.rx_dirs)) and np.all(np.isfinite(self.tx_dirs))):
            raise ValueError("dictionary direction cosines must be finite")
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

    def _pilot_matrix(self, cfg: PilotConfig) -> np.ndarray:
        """``cfg.pilot_matrix``, once ``cfg`` is known to be for this tx array."""
        if cfg.nt != self.tx_geom.size:
            raise ValueError(
                f"pilot config is for Nt={cfg.nt}, dictionary has Nt={self.tx_geom.size}"
            )
        return cfg.pilot_matrix

    def synthesize(self, atoms, gains) -> ChannelTensor:
        """Taps ``sum_j gains[j] * atom[atoms[j]]``, ``max(delays) + 1`` of them."""
        di, ri, ti = np.unravel_index(np.asarray(atoms, dtype=np.int64), self.shape)
        w = np.zeros((int(self.delays.max()) + 1, di.size), dtype=np.complex128)
        w[self.delays[di], np.arange(di.size)] = np.asarray(gains) / self._norm
        return rank_one_taps(w, self._a_r[ri], self._a_t[ti])

    def forward(self, atoms, gains, cfg: PilotConfig) -> np.ndarray:
        """Noise-free ``[P, Nr, Nt]`` pilot observation of :meth:`synthesize`.

        Each atom's pilot DFT row at its delay weighs its rank-one term, so the
        tap tensor is never formed; then ``S`` is applied.
        """
        s = self._pilot_matrix(cfg)
        di, ri, ti = np.unravel_index(np.asarray(atoms, dtype=np.int64), self.shape)
        w = _pilot_dft(cfg, self.delays[di]) * (np.asarray(gains) / self._norm)
        return rank_one_taps(w, self._a_r[ri], self._a_t[ti]).taps @ s

    def adjoint(self, residual: np.ndarray, cfg: PilotConfig) -> np.ndarray:
        """Correlation ``[Nd, Gr, Gt]`` of a ``[P, Nr, Nt]`` residual with every atom.

        The pilot axis is contracted first, on the small residual:
        ``F^H [Nd, P] @ (R S^H) [P, Nr*Nt]``, with ``F`` the pilot DFT rows at
        :attr:`delays`. Per delay, ``conj(A_r) Z_d A_t^H`` then correlates with
        every spatial atom, tx first. The returned array is the only one of
        the full grid's size.
        """
        r_s = residual @ self._pilot_matrix(cfg).conj().T
        z = _pilot_dft(cfg, self.delays).conj().T @ r_s.reshape(len(r_s), -1)  # [Nd, Nr*Nt]
        z = z.reshape(len(z), *r_s.shape[1:]) @ np.conj(self._a_t).T  # [Nd, Nr, Gt]
        corr = np.conj(self._a_r) @ z  # [Nd, Gr, Gt]
        corr /= self._norm
        return corr

    def gram_factors(self, cfg: PilotConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Factors ``kd [Nd, Nd]``, ``kr [Gr, Gr]``, ``kt [Gt, Gt]`` of the Gram
        matrix: for atom ``j = (d_j, r_j, t_j)``,
        ``adjoint(forward([j], [1]))[d, r, t] == kd[d, d_j] * kr[r, r_j] * kt[t, t_j]``.

        ``kd = F^H F / (Nr*Nt)`` with ``F`` the pilot DFT rows at :attr:`delays`,
        ``kr = conj(A_r) A_r^T`` and ``kt = conj(A_t) (S S^H)^T A_t^T``. The DFT
        pilot matrix is unitary, but ``S S^H`` is computed rather than taken as
        ``I``: it differs from ``I`` by rounding, and dropping it would move
        Batch-OMP's picks by that rounding.
        """
        s = self._pilot_matrix(cfg)
        f = _pilot_dft(cfg, self.delays)
        kd = f.conj().T @ f / self._norm**2
        kr = np.conj(self._a_r) @ self._a_r.T
        kt = np.conj(self._a_t) @ (s @ s.conj().T).T @ self._a_t.T
        return kd, kr, kt


# Atoms per evaluated run of delay slabs in omp_estimate. Timed per call on
# bench-size links (2-core Haswell box): with random 8- and 16-pilot
# placements, where little prunes, 2**15 and 2**16 take ~55-58 ms against ~63
# ms for a full-grid search and 2**14 ~59-65 ms; with comb pilots all take
# ~30 ms. 2**15 (4 slabs at bench size) keeps the run buffers at 0.75 MB.
_RUN_ATOMS = 2**15


def _slab_bounds(slab_max, kd, kr_max, kt_max, selected, gains):
    """Upper bound per delay slab ``d`` on ``|alpha0[d] - (G[:, I] g)[d]|``
    as :func:`omp_estimate` computes it.

    ``slab_max[d] = max|alpha0[d]|``, ``kr_max``/``kt_max`` are the column
    maxima of ``|kr|``/``|kt|``, and ``selected`` the flat indices ``I`` of
    atoms ``(d_i, r_i, t_i)`` with gains ``g``. The bound is
    ``slab_max[d] + sum_i |g_i| |kd[d, d_i]| kr_max[r_i] kt_max[t_i]``, scaled
    by ``1 + 16 (k + 4) eps`` for ``k`` selected atoms and ``eps`` the float64
    machine epsilon: several times the worst-case relative rounding of a
    ``k``-term complex dot product and the few products, sums and moduli on
    either side, so the bound also holds for the rounded values.
    """
    d, r, t = selected
    k = len(gains)
    bound = slab_max + np.abs(kd[:, d]) @ (np.abs(gains) * kr_max[r] * kt_max[t])
    bound *= 1.0 + 16 * (k + 4) * np.finfo(np.float64).eps
    return bound


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
    """Greedy matching pursuit over the angle/delay dictionary (Batch-OMP).

    Each iteration selects the atom with maximal residual correlation, then
    refits all selected gains by least squares. The observation is correlated
    with every atom once, ``alpha0 = A^H y``; after that the residual's
    correlation is ``alpha0 - G[:, I] g`` for the selected atoms ``I`` and
    gains ``g``, with the Gram columns ``G[:, I]`` formed from
    :meth:`OmpDictionary.gram_factors` one factor at a time, never stored
    whole. The refit grows the Cholesky factor of ``G[I, I]`` by one row per
    pick and solves two triangular systems against ``alpha0[I]``. A pick whose
    new squared pivot is at most ``1e-10`` times its own Gram entry lies in
    the span of the atoms already selected: the refit is rank-deficient, so
    that atom is dropped and the pursuit stops.

    The pick is searched one delay slab ``[Gr, Gt]`` at a time, in descending
    order of an upper bound on the slab's residual correlation: its
    ``max|alpha0|`` plus what the selected atoms can subtract through the
    delay Gram factor ``kd`` (see :func:`_slab_bounds`). The search stops once
    no unvisited slab's bound reaches the best value found. With comb pilots
    ``kd`` is diagonal up to rounding, so only the slabs at the selected
    delays and the strongest unselected ones are visited; with other
    placements it is dense and little is pruned. After the first slab, a visit
    takes in neighbouring slabs that can still win, up to ``_RUN_ATOMS``
    atoms, as one run. A run is evaluated with the same arithmetic, in the
    same order, as the full grid would be, and on an exact tie the lower flat
    index wins, so the picks are those of a full-grid search. ``alpha0`` is
    the only grid-sized array a call holds.

    Stops after ``k_max`` atoms or once the residual norm, of
    ``y - forward(selected, gains)``, drops to ``resid_tol`` times the
    observation norm. ``k_max`` is an integer ``>= 1`` and ``resid_tol`` finite
    and ``>= 0``. A residual that grows across an iteration raises
    ``FloatingPointError``. The observation must come from ``cfg``'s pilot
    placement and have the dictionary's ``(Nr, Nt)``.
    """
    try:
        k_max = operator.index(k_max)
    except TypeError:
        raise ValueError(f"k_max must be an integer, got {k_max!r}") from None
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not (math.isfinite(resid_tol) and resid_tol >= 0):
        raise ValueError(f"resid_tol must be finite and >= 0, got {resid_tol}")
    _check_placement(obs, cfg)
    dc = dictionary
    arrays = (dc.rx_geom.size, dc.tx_geom.size)
    if obs.y.shape[1:] != arrays:
        raise ValueError(f"observation is for {obs.y.shape[1:]} arrays, dictionary for {arrays}")
    y_norm = float(np.linalg.norm(obs.y))
    resid_norms = [y_norm]
    alpha0 = dc.adjoint(obs.y, cfg)
    kd, kr, kt = dc.gram_factors(cfg)
    nd, gr, gt = dc.shape
    slab = gr * gt
    run_max = max(1, _RUN_ATOMS // slab)
    alpha0_2d = alpha0.reshape(nd * gr, gt)
    slab_max = np.array([np.abs(a).max() for a in alpha0])  # one slab's |.| at a time
    kr_max, kt_max = np.abs(kr).max(axis=0), np.abs(kt).max(axis=0)
    resid_corr = np.empty((run_max * gr, gt), dtype=np.complex128)  # alpha0 - G[:, I] g, one run
    corr = np.empty(run_max * slab)  # |resid_corr|, flat atom order within the run
    chol = np.zeros((k_max, k_max), dtype=np.complex128)  # lower, G[I, I] = L L^H
    selected: list[int] = []
    gains = np.zeros(0, dtype=np.complex128)

    while len(selected) < k_max and resid_norms[-1] > resid_tol * y_norm:
        k = len(selected)
        d, r, t = np.unravel_index(np.asarray(selected, dtype=np.int64), dc.shape)
        kd_g, kr_sel, kt_sel = kd[:, d] * gains, kr[None, :, r], kt[:, t].T
        bound = _slab_bounds(slab_max, kd, kr_max, kt_max, (d, r, t), gains).tolist()
        seen = [False] * nd
        best, pick = -1.0, -1
        for s in np.argsort(bound)[::-1].tolist():
            if bound[s] < best:
                break
            if seen[s]:
                continue
            lo, hi = s, s + 1
            if pick >= 0:  # a best value is known: grow the run over slabs that can reach it
                while hi < nd and hi - lo < run_max and not seen[hi] and bound[hi] >= best:
                    hi += 1
                while lo > 0 and hi - lo < run_max and not seen[lo - 1] and bound[lo - 1] >= best:
                    lo -= 1
            seen[lo:hi] = [True] * (hi - lo)
            base = lo * slab  # flat index of the run's first atom
            rows = resid_corr[: (hi - lo) * gr]
            np.matmul((kd_g[lo:hi, None, :] * kr_sel).reshape(len(rows), k), kt_sel, out=rows)
            np.subtract(alpha0_2d[lo * gr : hi * gr], rows, out=rows)
            mag = corr[: (hi - lo) * slab]
            np.abs(rows, out=mag.reshape(rows.shape))
            mag[[j - base for j in selected if base <= j < hi * slab]] = 0.0
            j = int(np.argmax(mag))
            if mag[j] > best or (mag[j] == best and base + j < pick):
                best, pick = float(mag[j]), base + j

        dp, rp, tp = np.unravel_index(pick, dc.shape)
        row = np.linalg.solve(chol[:k, :k], kd[d, dp] * kr[r, rp] * kt[t, tp])
        g_pp = float((kd[dp, dp] * kr[rp, rp] * kt[tp, tp]).real)
        pivot2 = g_pp - float(np.vdot(row, row).real)
        if pivot2 <= 1e-10 * g_pp:
            break
        chol[k, :k] = row.conj()
        chol[k, k] = np.sqrt(pivot2)
        selected.append(pick)
        low = chol[: k + 1, : k + 1]
        gains = np.linalg.solve(low.conj().T, np.linalg.solve(low, alpha0.ravel()[selected]))

        r_norm = float(np.linalg.norm(obs.y - dc.forward(selected, gains, cfg)))
        if r_norm > resid_norms[-1] + 1e-9 * y_norm:
            raise FloatingPointError("OMP residual increased across an iteration")
        resid_norms.append(r_norm)

    result = OmpResult(dc.synthesize(selected, gains), selected, gains, resid_norms)
    return result if return_info else result.estimate
