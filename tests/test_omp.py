"""Regression tests of OMP at benchmark size, against a recorded file,
against the full-grid Batch-OMP search and against a dense least-squares
refit, and on one BLAS thread; and the bounds that prune that search.

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
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbce.channel_model import ArrayGeometry, PathSet, PulseConfig, synth_channel
from mbce.estimation import (
    OmpDictionary,
    PilotConfig,
    _slab_bounds,
    ls_estimate,
    omp_estimate,
    transmit_pilots,
)

from memory import traced_peak

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


def test_adjoint_makes_no_grid_sized_temporary():
    # The 262,144-atom correlation itself is 4 MiB of complex128.
    obs = link(0)
    assert traced_peak(DICTIONARY.adjoint, obs.y, CFG)[1] <= 6 * 2**20


def test_omp_holds_no_grid_sized_array_besides_the_correlation():
    # alpha0 (4 MiB), one slab's residual correlation and its magnitude
    # (192 KiB), the Gram factors and the refit's inverse Cholesky factor.
    obs = link(0)
    assert traced_peak(omp_estimate, obs, CFG, DICTIONARY, K_MAX)[1] <= 6 * 2**20


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
    pruning must reproduce exactly, pursuing the LS estimate as
    ``omp_estimate`` does. Returns ``(selected, residual_norms)``, each norm
    that of the explicit residual ``y - forward(selected, gains)``."""
    y = ls_estimate(obs, cfg)
    alpha0 = dc.adjoint(y, cfg)
    kd, kr, kt = gram = dc.gram_factors(cfg)
    chol = np.zeros((k_max, k_max), dtype=np.complex128)
    selected, gains, norms = [], np.zeros(0, dtype=np.complex128), [float(np.linalg.norm(y))]
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
        norms.append(float(np.linalg.norm(y - dc.forward(selected, gains, cfg))))
    return selected, norms


def assert_matches_full_grid(cfg, seeds, k_max=K_MAX):
    # The picks are exact. omp_estimate reads its residual norms off the
    # Cholesky factor, the oracle takes them from the explicit residual, so
    # the norms agree to rounding.
    for seed in seeds:
        obs = link(seed, cfg)
        res = omp_estimate(obs, cfg, DICTIONARY, k_max, return_info=True)
        selected, norms = full_grid_omp(obs, cfg, DICTIONARY, k_max)
        assert res.selected == selected
        np.testing.assert_allclose(res.residual_norms, norms, rtol=0, atol=1e-12 * norms[0])


@pytest.mark.parametrize(
    "n_pilot, placement_seed", [(32, None), (16, 7)], ids=["comb32", "random16"]
)
def test_pruned_search_matches_full_grid(n_pilot, placement_seed):
    # comb pilots prune to a few slabs per pick; a random placement prunes little
    assert_matches_full_grid(pilots(n_pilot, placement_seed), seeds=(6, 7))


def test_comb_search_evaluates_few_slabs_per_pick(monkeypatch):
    # Each slab evaluation is one product into the [Gr, Gt] slab buffer. On
    # comb-32 links at k = 16 the bounds leave ~2 per pick; a bound that stopped
    # pruning would evaluate all 32, and every other test would still pass.
    _, gr, gt = DICTIONARY.shape
    matmul, evaluations = np.matmul, [0]

    def counting_matmul(*args, out=None, **kwargs):
        evaluations[0] += out is not None and out.shape == (gr, gt)
        return matmul(*args, out=out, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    picks = [len(omp_estimate(link(seed), CFG, DICTIONARY, K_MAX, return_info=True).selected)
             for seed in range(6)]
    assert sum(picks) == 6 * K_MAX
    assert evaluations[0] <= 6 * sum(picks)


@pytest.mark.slow
@pytest.mark.parametrize(
    "n_pilot, placement_seed, k_max",
    [(8, None, K_MAX), (16, None, K_MAX), (32, None, K_MAX), (8, 11, K_MAX), (16, 12, K_MAX),
     (32, None, 64), (16, 12, 64)],
    ids=["comb8", "comb16", "comb32", "random8", "random16", "comb32-k64", "random16-k64"],
)
def test_pruned_search_matches_full_grid_on_many_links(n_pilot, placement_seed, k_max):
    # at k = 64 the lazy slab bounds skip the most slabs
    assert_matches_full_grid(pilots(n_pilot, placement_seed), range(100, 108), k_max)


@pytest.mark.parametrize("k_max", [K_MAX, 64])
def test_refit_gains_are_the_least_squares_fit(k_max):
    # the gains grown through L^-1 are those of a dense least-squares solve
    for seed in (0, 1):
        obs = link(seed)
        res = omp_estimate(obs, CFG, DICTIONARY, k_max, return_info=True)
        a = np.stack([DICTIONARY.forward([j], [1.0], CFG).ravel() for j in res.selected], axis=1)
        expect = np.linalg.lstsq(a, ls_estimate(obs, CFG).ravel(), rcond=None)[0]
        np.testing.assert_allclose(res.gains, expect, rtol=1e-9, atol=0)


CHILD = """
import json, sys
sys.path.insert(0, {tests!r})
from test_omp import CFG, DICTIONARY, link
from mbce.estimation import omp_estimate
out = []
for seed, k_max in ((0, 16), (1, 16), (2, 16), (0, 64)):
    res = omp_estimate(link(seed), CFG, DICTIONARY, k_max, return_info=True)
    out.append([res.selected, [x.hex() for x in res.residual_norms], res.gains.tobytes().hex()])
print(json.dumps(out))
"""


def run_child(**env) -> list:
    here = pathlib.Path(__file__).parent
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in threads} | env
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", CHILD.format(tests=str(here))], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_results_do_not_depend_on_the_blas_thread_count():
    # every bit of the picks, residual norms and gains, on the default threads and on one
    assert run_child() == run_child(OPENBLAS_NUM_THREADS="1")


def bound_case(n_sc, data, dims, oversample, seed):
    """A drawn placement and dictionary, ``alpha0`` of a random residual,
    up to six selected atoms and their weights, as :func:`_slab_bounds` takes them."""
    placement = sorted(data.draw(st.sets(st.integers(0, n_sc - 1), min_size=1)))
    rx, tx = ArrayGeometry(*dims[:2]), ArrayGeometry(*dims[2:])
    cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=tx.size, placement=placement)
    dc = OmpDictionary.build(data.draw(st.integers(1, n_sc)), rx, tx, oversample=oversample)
    selected = data.draw(st.lists(st.integers(0, dc.n_atoms - 1), max_size=6, unique=True))
    rng = np.random.default_rng(seed)
    shape = (len(placement), rx.size, tx.size)
    alpha0 = dc.adjoint(rng.normal(size=shape) + 1j * rng.normal(size=shape), cfg)
    kd, kr, kt = gram = dc.gram_factors(cfg)
    d, r, t = np.unravel_index(np.asarray(selected, dtype=np.int64), dc.shape)
    weight = np.abs(kd[:, d]) * (np.abs(kr).max(axis=0)[r] * np.abs(kt).max(axis=0)[t])
    return alpha0, gram, selected, weight


def draw_gains(data, n, max_magnitude=1e3) -> np.ndarray:
    return np.array(
        data.draw(st.lists(st.complex_numbers(max_magnitude=max_magnitude, allow_nan=False),
                           min_size=n, max_size=n)),
        dtype=np.complex128,
    )


def unvisited(nd: int, k: int):
    return np.full(nd, np.inf), np.zeros(nd), np.zeros((nd, k), dtype=np.complex128)


def slab_corr_max(alpha0, gram, selected, gains):
    return residual_corr(alpha0, gram, selected, gains).reshape(alpha0.shape).max(axis=(1, 2))


BOUND_CASE = dict(
    n_sc=st.integers(4, 24),
    data=st.data(),
    dims=st.tuples(*[st.integers(1, 3)] * 4),
    oversample=st.integers(1, 2),
    seed=st.integers(0, 2**32),
)


@settings(max_examples=40, deadline=None)
@given(**BOUND_CASE)
def test_slab_bound_covers_every_slab(n_sc, data, dims, oversample, seed):
    alpha0, gram, selected, weight = bound_case(n_sc, data, dims, oversample, seed)
    gains = draw_gains(data, len(selected))
    slab_max = np.abs(alpha0).max(axis=(1, 2))
    bound, full = _slab_bounds(slab_max, weight, gains, unvisited(len(alpha0), len(gains)))
    np.testing.assert_array_equal(bound, full)
    assert np.all(bound >= slab_corr_max(alpha0, gram, selected, gains))


@settings(max_examples=200, deadline=None)
@given(**BOUND_CASE, step=st.sampled_from([0.0, 1e-14, 1e-13, 1e-12, 1e-6, 1.0, 1e3]))
def test_lazy_slab_bound_covers_every_slab(n_sc, data, dims, oversample, seed, step):
    # A slab last visited with the first k_s atoms at gains g_s, bounded
    # now that all atoms are selected with gains g = g_s + step * delta.
    # Steps near one ulp of the gains move the slab by less than rounding,
    # so only the rounding charge keeps the bound above it.
    alpha0, gram, selected, weight = bound_case(n_sc, data, dims, oversample, seed)
    k, k_s = len(selected), data.draw(st.integers(0, len(selected)))
    old = np.zeros(k, dtype=np.complex128)
    old[:k_s] = draw_gains(data, k_s)
    gains = old + step * draw_gains(data, k, max_magnitude=1.0)
    slab_max = np.abs(alpha0).max(axis=(1, 2))
    _, full_then = _slab_bounds(slab_max, weight[:, :k_s], old[:k_s], unvisited(len(alpha0), k_s))
    then = slab_corr_max(alpha0, gram, selected, old)
    bound, full = _slab_bounds(slab_max, weight, gains, (then, full_then, old[None, :]))
    assert np.all(bound <= full)
    assert np.all(bound >= slab_corr_max(alpha0, gram, selected, gains))


if __name__ == "__main__":
    if GOLDEN.exists():
        sys.exit(f"{GOLDEN} exists; delete it to re-record it")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in record()) + "\n]\n")
