"""Property tests of the pilot model, the OMP operator, channel synthesis, the
convolution adjoint and the two binary file formats."""

import math
import tempfile
from pathlib import Path as FsPath

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mbce.autodiff import Tensor, conv2d, conv_transpose2d, load_params, save_params
from mbce.channel_model import (
    PULSE_SUPPORT,
    ArrayGeometry,
    ChannelTensor,
    PathSet,
    PulseConfig,
    channel_frequency_response,
    raised_cosine,
    synth_channel,
    ura_response,
)
from mbce.estimation import (
    OmpDictionary,
    PilotConfig,
    interpolate_full_band,
    omp_estimate,
    transmit_pilots,
)
from mbce.propagation import RssMap, load_rss_map, save_rss_map

PROPS = settings(max_examples=40, deadline=None)


@st.composite
def pilot_grids(draw, max_sc=48):
    """``(n_sc, d, placement)``: a strictly increasing placement of any size
    and a tap count ``d <= n_sc``."""
    n_sc = draw(st.integers(1, max_sc))
    d = draw(st.integers(1, n_sc))
    placement = sorted(draw(st.sets(st.integers(0, n_sc - 1), min_size=1)))
    return n_sc, d, tuple(placement)


def random_channel(seed, d, nr, nt):
    rng = np.random.default_rng(seed)
    return ChannelTensor(rng.normal(size=(d, nr, nt)) + 1j * rng.normal(size=(d, nr, nt)))


@PROPS
@given(
    grid=pilot_grids(), nr=st.integers(1, 3), nt=st.integers(1, 4), seed=st.integers(0, 2**32)
)
def test_noiseless_pilots_are_band_response_rows(grid, nr, nt, seed):
    n_sc, d, placement = grid
    h = random_channel(seed, d, nr, nt)
    cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=nt, placement=placement)
    expect = channel_frequency_response(h, n_sc)[list(placement)] @ cfg.pilot_matrix
    np.testing.assert_allclose(transmit_pilots(h, cfg, 0).y, expect, rtol=0, atol=1e-12 * d)


@PROPS
@given(
    grid=pilot_grids(), dims=st.tuples(*[st.integers(1, 3)] * 2), seed=st.integers(0, 2**32)
)
def test_interpolation_is_per_entry_interp_of_magnitude_and_phase(grid, dims, seed):
    n_sc, _, placement = grid
    rng = np.random.default_rng(seed)
    shape = (len(placement),) + dims
    est = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=1, placement=placement)
    expect = np.empty((n_sc,) + dims, dtype=np.complex128)
    for i, j in np.ndindex(dims):
        entry = est[:, i, j]
        mag = np.interp(np.arange(n_sc), placement, np.abs(entry))
        phase = np.interp(np.arange(n_sc), placement, np.unwrap(np.angle(entry)))
        expect[:, i, j] = mag * np.exp(1j * phase)
    got = interpolate_full_band(est, cfg)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(est).max())


@PROPS
@given(
    grid=pilot_grids(max_sc=24),
    dims=st.tuples(*[st.integers(1, 2)] * 4),
    oversample=st.integers(1, 2),
    seed=st.integers(0, 2**32),
)
def test_omp_adjoint_identity_on_any_placement(grid, dims, oversample, seed):
    n_sc, d, placement = grid
    rx, tx = ArrayGeometry(*dims[:2]), ArrayGeometry(*dims[2:])
    comb = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=tx.size).placement
    assume(placement != comb)
    cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=tx.size, placement=placement)
    dc = OmpDictionary.build(d, rx, tx, oversample=oversample)
    rng = np.random.default_rng(seed)
    picks = rng.choice(dc.n_atoms, size=min(3, dc.n_atoms), replace=False)
    x = rng.normal(size=picks.size) + 1j * rng.normal(size=picks.size)
    shape = (len(placement), rx.size, tx.size)
    r = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    lhs = np.vdot(dc.forward(picks, x, cfg), r)
    rhs = np.vdot(x, dc.adjoint(r, cfg).ravel()[picks])
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


@PROPS
@given(
    grid=pilot_grids(max_sc=24),
    dims=st.tuples(*[st.integers(1, 3)] * 4),
    oversample=st.integers(1, 2),
    seed=st.integers(0, 2**32),
)
def test_gram_factors_give_adjoint_of_forward(grid, dims, oversample, seed):
    n_sc, d, placement = grid
    rx, tx = ArrayGeometry(*dims[:2]), ArrayGeometry(*dims[2:])
    comb = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=tx.size).placement
    assume(placement != comb)
    rng = np.random.default_rng(seed)
    cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=tx.size, placement=placement)
    dc = OmpDictionary.build(d, rx, tx, oversample=oversample)
    kd, kr, kt = dc.gram_factors(cfg)
    for j in rng.choice(dc.n_atoms, size=min(4, dc.n_atoms), replace=False):
        dj, rj, tj = np.unravel_index(j, dc.shape)
        expect = dc.adjoint(dc.forward([j], [1.0], cfg), cfg)
        got = kd[:, dj, None, None] * kr[None, :, rj, None] * kt[None, None, :, tj]
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())


def reference_omp(obs, cfg, dc, k_max):
    """Textbook OMP: correlate the residual with every atom, refit by lstsq."""
    y = obs.y.ravel()
    selected, cols, r = [], [], y
    while len(selected) < k_max:
        corr = np.abs(dc.adjoint(r.reshape(obs.y.shape), cfg)).ravel()
        corr[selected] = 0.0
        pick = int(np.argmax(corr))
        phi = np.stack(cols + [dc.forward([pick], [1.0], cfg).ravel()], axis=1)
        gains, _, rank, _ = np.linalg.lstsq(phi, y, rcond=None)
        if rank < phi.shape[1]:
            break
        selected.append(pick)
        cols.append(phi[:, -1])
        r = y - phi @ gains
    return selected


@PROPS
@given(
    n_sc=st.integers(8, 32),
    data=st.data(),
    dims=st.tuples(*[st.integers(1, 2)] * 4),
    oversample=st.integers(1, 2),
    sparsity=st.integers(1, 3),
    k_max=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
def test_omp_picks_the_atoms_of_reference_omp(n_sc, data, dims, oversample, sparsity, k_max,
                                              seed):
    # on an axis of one element every oversampled direction is the same atom
    assume(oversample == 1 or min(dims) > 1)
    # several delay slabs, so the pick search prunes some of them
    d = data.draw(st.integers(1, min(12, n_sc)))
    # at least d pilots: the pilot DFT rows then tell every delay apart
    placement = tuple(sorted(data.draw(st.sets(st.integers(0, n_sc - 1), min_size=d))))
    rx, tx = ArrayGeometry(*dims[:2]), ArrayGeometry(*dims[2:])
    assume(k_max < len(placement) * rx.size * tx.size)
    cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=tx.size, snr_db=15.0,
                      placement=placement)
    dc = OmpDictionary.build(d, rx, tx, oversample=oversample)
    rng = np.random.default_rng(seed)
    picks = rng.choice(dc.n_atoms, size=min(sparsity, dc.n_atoms), replace=False)
    h = dc.synthesize(picks, rng.normal(size=picks.size) + 1j * rng.normal(size=picks.size))
    obs = transmit_pilots(h, cfg, seed)
    res = omp_estimate(obs, cfg, dc, k_max, return_info=True)
    assert res.selected == reference_omp(obs, cfg, dc, k_max)


angles = st.tuples(
    st.floats(-math.pi + 1e-6, math.pi),
    st.floats(-math.pi / 2, math.pi / 2),
    st.floats(-math.pi + 1e-6, math.pi),
    st.floats(-math.pi / 2, math.pi / 2),
)


@PROPS
@given(
    d=st.integers(1, 12),
    # delays in sampling intervals: below -PULSE_SUPPORT or above d - 1 +
    # PULSE_SUPPORT the whole pulse lies outside the tap window
    rays=st.lists(
        st.tuples(st.floats(-12.0, 24.0), st.complex_numbers(max_magnitude=5.0), angles),
        min_size=1,
        max_size=6,
    ),
    beta=st.floats(0.0, 1.0),
)
def test_synth_channel_matches_per_path_oracle(d, rays, beta):
    ts = 1e-9
    cfg = PulseConfig(ts=ts, beta=beta, t_off=12 * ts)
    rx, tx = ArrayGeometry(2, 1), ArrayGeometry(1, 3)
    ps = PathSet(*zip(*[(a, (delay + 12) * ts, *ang) for delay, a, ang in rays]))
    h = synth_channel(ps, d, cfg, rx, tx)

    expect = np.zeros((d, rx.size, tx.size), dtype=np.complex128)
    for p in range(len(ps)):
        a_r = ura_response(ps.aoa_az[p], ps.aoa_el[p], rx)
        spatial = np.outer(a_r, ura_response(ps.aod_az[p], ps.aod_el[p], tx))
        for di in range(d):
            arg = di * ts - (ps.toas[p] - cfg.t_off)
            if abs(arg) <= PULSE_SUPPORT * ts:
                expect[di] += ps.alphas[p] * raised_cosine(arg, cfg) * spatial
    np.testing.assert_allclose(h.taps, expect, rtol=1e-12, atol=1e-13)


@PROPS
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
                   st.integers(1, 12), st.integers(1, 12)),
    kernel=st.tuples(st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5])),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    seed=st.integers(0, 2**32),
)
def test_conv_transpose_is_adjoint_of_conv(dims, kernel, stride, pad, seed):
    # <conv2d(x, k), y> == <x, conv_transpose2d(y, k)> for any geometry.
    b, ci, co, h, w = dims
    assume(all(n + 2 * p >= kn for n, p, kn in zip((h, w), pad, kernel)))
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(b, ci, h, w)))
    k = Tensor(rng.normal(size=(co, ci, *kernel)))
    fx = conv2d(x, k, stride, pad).data
    y = Tensor(rng.normal(size=fx.shape))
    back = conv_transpose2d(y, k, stride, pad, out_hw=(h, w)).data
    scale = np.linalg.norm(fx) * np.linalg.norm(y.data)
    np.testing.assert_allclose(np.sum(fx * y.data), np.sum(x.data * back),
                               rtol=1e-10, atol=1e-12 * scale)


finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@PROPS
@given(
    params=st.dictionaries(
        st.text(max_size=8),
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                   elements=finite32),
        max_size=4,
    )
)
def test_params_round_trip(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = FsPath(tmp) / "params.mbwt"
        save_params({k: Tensor(v) for k, v in params.items()}, path)
        loaded = load_params(path)
    assert set(loaded) == set(params)
    for name, value in params.items():
        assert loaded[name].data.dtype == np.float32
        np.testing.assert_array_equal(loaded[name].data, value)


finite64 = st.floats(-1e6, 1e6)


@PROPS
@given(
    values=hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=2, max_dims=2),
        elements=st.floats(0.0, float(np.finfo(np.float32).max), width=32),
    ),
    origin=st.tuples(finite64, finite64),
    spacing=st.floats(1e-3, 1e3),
    rx_height=finite64,
)
def test_rss_map_round_trip(values, origin, spacing, rx_height):
    m = RssMap(origin=origin, spacing=spacing, values=values, rx_height=rx_height)
    with tempfile.TemporaryDirectory() as tmp:
        path = FsPath(tmp) / "map.rssm"
        save_rss_map(m, path)
        loaded = load_rss_map(path)
    np.testing.assert_array_equal(loaded.values, m.values)
    np.testing.assert_array_equal(loaded.origin, m.origin)
    assert (loaded.spacing, loaded.rx_height) == (m.spacing, m.rx_height)

