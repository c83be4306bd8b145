"""Property tests of the pilot model, the OMP operator, channel synthesis, the
convolution adjoint and the two file formats."""

import math
import tempfile
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mbce.autodiff import Tensor, conv2d, conv_transpose2d, load_params, save_params
from mbce.channel_model import (
    PULSE_SUPPORT,
    ArrayGeometry,
    ChannelTensor,
    PathSet,
    PulseConfig,
    raised_cosine,
    synth_channel,
    ura_response,
)
from mbce.estimation import (
    _COLUMN_BLOCK,
    OmpDictionary,
    PilotConfig,
    PilotObservation,
    interpolate_full_band,
    ls_estimate,
    omp_estimate,
    to_time_domain,
    transmit_pilots,
)
from mbce.propagation import RssMap, load_rss_map, save_rss_map

from references import channel_frequency_response, interp_reference

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
    got = interpolate_full_band(est, cfg)
    expect = interp_reference(est, placement, n_sc)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(est).max())


@PROPS
@given(
    grid=pilot_grids(),
    comb=st.booleans(),
    entries=st.sampled_from([1, _COLUMN_BLOCK - 1, _COLUMN_BLOCK + 1, 3 * _COLUMN_BLOCK + 5])
    | st.integers(1, 3 * _COLUMN_BLOCK + 5),
    seed=st.integers(0, 2**32),
)
def test_band_steps_are_per_entry_across_column_blocks(grid, comb, entries, seed):
    # The band steps work on column blocks of the [n_sc, entries] band; every
    # entry must come out as its own per-entry reference, whatever block it is
    # in, and a single entry alone must round as it does inside the wide band.
    n_sc, d, placement = grid
    if comb:
        placement = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=1).placement
    rng = np.random.default_rng(seed)
    shape = (len(placement), 1, entries)
    est = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=1, placement=placement)
    band = interpolate_full_band(est, cfg)
    expect = interp_reference(est, placement, n_sc)
    np.testing.assert_allclose(band, expect, rtol=0, atol=1e-12 * np.abs(est).max())
    np.testing.assert_array_equal(interpolate_full_band(est[..., :1], cfg), band[..., :1])
    taps = to_time_domain(band, d).taps
    np.testing.assert_allclose(taps, np.fft.ifft(band, axis=0)[:d], rtol=1e-13)


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


def reference_omp(obs, cfg, dc, k_max, ties=()):
    """Textbook OMP on the LS estimate: correlate the residual with every
    atom, refit by lstsq. Returns ``(selected, residual_norms)``, the norms
    of ``y`` and of each refit's explicit residual.

    Two atoms can tie exactly, and then rounding picks one. At step ``i``
    the reference takes ``ties[i]`` where that atom's correlation is the
    largest to within ``1e-12`` of the largest first correlation, and its
    own argmax otherwise."""
    y_ls = ls_estimate(obs, cfg)
    y = y_ls.ravel()
    selected, cols, r = [], [], y
    norms = [float(np.linalg.norm(y))]
    slack = 1e-12 * np.abs(dc.adjoint(y_ls, cfg)).max()
    while len(selected) < k_max:
        corr = np.abs(dc.adjoint(r.reshape(y_ls.shape), cfg)).ravel()
        corr[selected] = 0.0
        pick = int(np.argmax(corr))
        if len(selected) < len(ties) and corr[ties[len(selected)]] >= corr[pick] - slack:
            pick = ties[len(selected)]
        phi = np.stack(cols + [dc.forward([pick], [1.0], cfg).ravel()], axis=1)
        gains, _, rank, _ = np.linalg.lstsq(phi, y, rcond=None)
        if rank < phi.shape[1]:
            break
        selected.append(pick)
        cols.append(phi[:, -1])
        r = y - phi @ gains
        norms.append(float(np.linalg.norm(r)))
    return selected, norms


@st.composite
def omp_links(draw):
    """``(obs, cfg, dictionary, k_max)``: a sparse channel of dictionary atoms
    observed at 15 dB SNR through a random placement of at least ``d`` pilots."""
    n_sc = draw(st.integers(8, 32))
    dims = draw(st.tuples(*[st.integers(1, 2)] * 4))
    oversample = draw(st.integers(1, 2))
    sparsity, k_max = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32))
    # several delay slabs, so the pick search prunes some of them
    d = draw(st.integers(1, min(12, n_sc)))
    # at least d pilots: the pilot DFT rows then tell every delay apart
    placement = tuple(sorted(draw(st.sets(st.integers(0, n_sc - 1), min_size=d))))
    rx, tx = ArrayGeometry(*dims[:2]), ArrayGeometry(*dims[2:])
    assume(k_max < len(placement) * rx.size * tx.size)
    cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=tx.size, snr_db=15.0,
                      placement=placement)
    dc = OmpDictionary.build(d, rx, tx, oversample=oversample)
    rng = np.random.default_rng(seed)
    picks = rng.choice(dc.n_atoms, size=min(sparsity, dc.n_atoms), replace=False)
    h = dc.synthesize(picks, rng.normal(size=picks.size) + 1j * rng.normal(size=picks.size))
    return transmit_pilots(h, cfg, seed), cfg, dc, k_max


# atoms 8 and 13 tie at the sixth pick: omp_estimate takes 13 and the
# textbook argmax 8, their correlations 4 ulp apart
TIED_LINK = (
    PilotObservation(
        np.array([[-2.15654078 + 0.52106356j, -0.19672611 + 1.4213825j,
                   -0.88395451 + 0.72739793j, -0.07620376 - 0.09618716j],
                  [-1.71654666 + 0.8697925j, -0.69628964 + 0.08634772j,
                   -0.32822552 + 0.01414404j, 0.04229502 + 0.07490893j]])[:, None],
        placement=(1, 5),
    ),
    PilotConfig(n_sc=11, n_pilot=2, nt=4, snr_db=15.0, placement=(1, 5)),
    OmpDictionary.build(2, ArrayGeometry(1, 1), ArrayGeometry(2, 2), oversample=2),
    6,
)


@PROPS
@given(case=omp_links())
@example(case=TIED_LINK)
def test_omp_picks_the_atoms_of_reference_omp(case):
    res = omp_estimate(*case, return_info=True)
    assert res.selected == reference_omp(*case, ties=res.selected)[0]


@PROPS
@given(case=omp_links())
@example(case=TIED_LINK)
def test_omp_residual_norms_are_those_of_the_lstsq_refit(case):
    # omp_estimate reads ||y - P_I y|| off its Cholesky factor as
    # sqrt(||y||^2 - ||w||^2); the reference forms the residual explicitly.
    res = omp_estimate(*case, return_info=True)
    norms = reference_omp(*case, ties=res.selected)[1]
    np.testing.assert_allclose(res.residual_norms, norms, rtol=0, atol=1e-9 * norms[0])


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


ONE = np.ones(2, np.float32)


@PROPS
@given(
    params=st.dictionaries(
        st.text(max_size=8),
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                   elements=finite32),
        max_size=4,
    )
)
# np.savez keywords, a name whose entry NpzFile also finds under another, and a
# NUL, at which zipfile cuts an entry name
@example(params={"": ONE, "file": 2 * ONE, "allow_pickle": 3 * ONE})
@example(params={"x": ONE, "x.npy": 2 * ONE})
@example(params={"a\0b": ONE})
def test_params_round_trip(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = FsPath(tmp) / "params.mbwt"
        if any("\0" in name for name in params):
            with pytest.raises(ValueError, match="NUL"):
                save_params({k: Tensor(v) for k, v in params.items()}, path)
            assert not path.exists()
            return
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

