"""Regression tests of OMP at benchmark size, against a recorded file and
against the full-grid Batch-OMP search, and the bound that prunes that search.

``data/omp_selected.json`` holds, for six seeded links (random multipath
channels over 4x4 rx and 8x4 tx arrays, 32 taps, 32 comb pilots of 256
subcarriers, SNR 10 dB), the atoms that ``omp_estimate`` selected with
``k_max=16`` over the 262,144-atom default dictionary, and the residual
norms it reported, when the file was recorded. ``PYTHONPATH=src python
tests/test_omp.py`` records it if it is missing and refuses to overwrite it:
delete it on purpose to re-record it.
"""

import json
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbce.channel_model import ArrayGeometry, PathSet, PulseConfig, synth_channel
from mbce.estimation import (
    OmpDictionary,
    PilotConfig,
    _slab_bounds,
    omp_estimate,
    transmit_pilots,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "omp_selected.json"
RX, TX = ArrayGeometry(4, 4), ArrayGeometry(8, 4)
TAPS, TS, K_MAX = 32, 10e-9, 16
CFG = PilotConfig(n_sc=256, n_pilot=32, nt=TX.size, snr_db=10.0)
DICTIONARY = OmpDictionary.build(TAPS, RX, TX)


def link(seed: int, cfg: PilotConfig = CFG):
    """2-8 paths with gains over a 20 dB range, delays inside the tap window."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(int(rng.integers(2, 9))):
        gain = complex(rng.normal(), rng.normal()) * 10.0 ** -rng.uniform(0.0, 1.0)
        az = rng.uniform(-math.pi, math.pi, 2)
        el = rng.uniform(-math.pi / 4, math.pi / 4, 2)
        rows.append((gain, rng.uniform(2.0, 20.0) * TS, az[0], el[0], az[1], el[1]))
    h = synth_channel(PathSet(*zip(*rows)), TAPS, PulseConfig(ts=TS), RX, TX)
    return transmit_pilots(h, cfg, seed)


def pilots(n_pilot: int, placement_seed=None) -> PilotConfig:
    """``n_pilot`` of 256 subcarriers: the comb, or a random placement."""
    placement = ()
    if placement_seed is not None:
        rng = np.random.default_rng(placement_seed)
        placement = tuple(sorted(rng.choice(256, n_pilot, replace=False).tolist()))
    return PilotConfig(n_sc=256, n_pilot=n_pilot, nt=TX.size, snr_db=10.0, placement=placement)


def record() -> list[dict]:
    cases = []
    for seed in range(6):
        res = omp_estimate(link(seed), CFG, DICTIONARY, K_MAX, return_info=True)
        cases.append(
            {"seed": seed, "selected": res.selected, "residual_norms": res.residual_norms}
        )
    return cases


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_six_full_links():
    assert DICTIONARY.n_atoms == 262_144
    assert len(GOLDEN_CASES) == 6
    assert all(len(c["selected"]) == K_MAX for c in GOLDEN_CASES)


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: f"seed{c['seed']}")
def test_selected_atoms_match_recorded(case):
    res = omp_estimate(link(case["seed"]), CFG, DICTIONARY, K_MAX, return_info=True)
    assert res.selected == case["selected"]
    np.testing.assert_allclose(res.residual_norms, case["residual_norms"], rtol=1e-9, atol=0)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes traced by ``tracemalloc`` during one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adjoint_makes_no_grid_sized_temporary():
    # The 262,144-atom correlation itself is 4 MiB of complex128.
    obs = link(0)
    assert traced_peak(DICTIONARY.adjoint, obs.y, CFG) <= 6 * 2**20


def test_omp_holds_no_grid_sized_array_besides_the_correlation():
    # alpha0 (4 MiB), one run of slabs' residual correlation and its magnitude
    # (0.75 MiB), the Gram factors and the per-pick forward residual.
    obs = link(0)
    assert traced_peak(omp_estimate, obs, CFG, DICTIONARY, K_MAX) <= 6 * 2**20


def residual_corr(alpha0, gram, selected, gains):
    """``|alpha0 - G[:, I] g|`` over the whole grid, flat, in the arithmetic
    and order of the full-grid search."""
    kd, kr, kt = gram
    nd, gr, gt = alpha0.shape
    d, r, t = np.unravel_index(np.asarray(selected, dtype=np.int64), alpha0.shape)
    left = ((kd[:, d] * gains)[:, None, :] * kr[None, :, r]).reshape(nd * gr, len(gains))
    return np.abs(alpha0.reshape(nd * gr, gt) - left @ kt[:, t].T).ravel()


def full_grid_omp(obs, cfg, dc, k_max):
    """Batch-OMP that scans every atom at every pick: the search that slab
    pruning must reproduce exactly. Returns ``(selected, residual_norms)``."""
    alpha0 = dc.adjoint(obs.y, cfg)
    kd, kr, kt = gram = dc.gram_factors(cfg)
    chol = np.zeros((k_max, k_max), dtype=np.complex128)
    selected, gains, norms = [], np.zeros(0, dtype=np.complex128), [float(np.linalg.norm(obs.y))]
    while len(selected) < k_max and norms[-1] > 0:
        k = len(selected)
        corr = residual_corr(alpha0, gram, selected, gains)
        corr[selected] = 0.0
        pick = int(np.argmax(corr))
        d, r, t = np.unravel_index(np.asarray(selected, dtype=np.int64), dc.shape)
        dp, rp, tp = np.unravel_index(pick, dc.shape)
        row = np.linalg.solve(chol[:k, :k], kd[d, dp] * kr[r, rp] * kt[t, tp])
        g_pp = float((kd[dp, dp] * kr[rp, rp] * kt[tp, tp]).real)
        pivot2 = g_pp - float(np.vdot(row, row).real)
        if pivot2 <= 1e-10 * g_pp:
            break
        chol[k, :k], chol[k, k] = row.conj(), np.sqrt(pivot2)
        selected.append(pick)
        low = chol[: k + 1, : k + 1]
        gains = np.linalg.solve(low.conj().T, np.linalg.solve(low, alpha0.ravel()[selected]))
        norms.append(float(np.linalg.norm(obs.y - dc.forward(selected, gains, cfg))))
    return selected, norms


def assert_matches_full_grid(cfg, seeds):
    for seed in seeds:
        obs = link(seed, cfg)
        res = omp_estimate(obs, cfg, DICTIONARY, K_MAX, return_info=True)
        assert (res.selected, res.residual_norms) == full_grid_omp(obs, cfg, DICTIONARY, K_MAX)


@pytest.mark.parametrize(
    "n_pilot, placement_seed", [(32, None), (16, 7)], ids=["comb32", "random16"]
)
def test_pruned_search_matches_full_grid(n_pilot, placement_seed):
    # comb pilots prune to a few slabs per pick; a random placement prunes little
    assert_matches_full_grid(pilots(n_pilot, placement_seed), seeds=(6, 7))


@pytest.mark.slow
@pytest.mark.parametrize(
    "n_pilot, placement_seed",
    [(8, None), (16, None), (32, None), (8, 11), (16, 12)],
    ids=["comb8", "comb16", "comb32", "random8", "random16"],
)
def test_pruned_search_matches_full_grid_on_many_links(n_pilot, placement_seed):
    assert_matches_full_grid(pilots(n_pilot, placement_seed), seeds=range(100, 108))


@settings(max_examples=40, deadline=None)
@given(
    n_sc=st.integers(4, 24),
    data=st.data(),
    dims=st.tuples(*[st.integers(1, 3)] * 4),
    oversample=st.integers(1, 2),
    seed=st.integers(0, 2**32),
)
def test_slab_bound_covers_every_slab(n_sc, data, dims, oversample, seed):
    placement = sorted(data.draw(st.sets(st.integers(0, n_sc - 1), min_size=1)))
    rx, tx = ArrayGeometry(*dims[:2]), ArrayGeometry(*dims[2:])
    cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=tx.size, placement=placement)
    dc = OmpDictionary.build(data.draw(st.integers(1, n_sc)), rx, tx, oversample=oversample)
    selected = data.draw(st.lists(st.integers(0, dc.n_atoms - 1), max_size=6, unique=True))
    gains = np.array(
        data.draw(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False),
                           min_size=len(selected), max_size=len(selected))),
        dtype=np.complex128,
    )
    rng = np.random.default_rng(seed)
    shape = (len(placement), rx.size, tx.size)
    alpha0 = dc.adjoint(rng.normal(size=shape) + 1j * rng.normal(size=shape), cfg)
    kd, kr, kt = gram = dc.gram_factors(cfg)
    exact = residual_corr(alpha0, gram, selected, gains).reshape(dc.shape).max(axis=(1, 2))
    bound = _slab_bounds(
        np.abs(alpha0).max(axis=(1, 2)), kd, np.abs(kr).max(axis=0), np.abs(kt).max(axis=0),
        np.unravel_index(np.asarray(selected, dtype=np.int64), dc.shape), gains,
    )
    assert np.all(bound >= exact)


if __name__ == "__main__":
    if GOLDEN.exists():
        sys.exit(f"{GOLDEN} exists; delete it to re-record it")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in record()) + "\n]\n")
