"""Regression test of OMP at benchmark size.

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

from mbce.channel_model import ArrayGeometry, PathSet, PulseConfig, synth_channel
from mbce.estimation import OmpDictionary, PilotConfig, omp_estimate, transmit_pilots

GOLDEN = pathlib.Path(__file__).parent / "data" / "omp_selected.json"
RX, TX = ArrayGeometry(4, 4), ArrayGeometry(8, 4)
TAPS, TS, K_MAX = 32, 10e-9, 16
CFG = PilotConfig(n_sc=256, n_pilot=32, nt=TX.size, snr_db=10.0)
DICTIONARY = OmpDictionary.build(TAPS, RX, TX)


def link(seed: int):
    """2-8 paths with gains over a 20 dB range, delays inside the tap window."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(int(rng.integers(2, 9))):
        gain = complex(rng.normal(), rng.normal()) * 10.0 ** -rng.uniform(0.0, 1.0)
        az = rng.uniform(-math.pi, math.pi, 2)
        el = rng.uniform(-math.pi / 4, math.pi / 4, 2)
        rows.append((gain, rng.uniform(2.0, 20.0) * TS, az[0], el[0], az[1], el[1]))
    h = synth_channel(PathSet(*zip(*rows)), TAPS, PulseConfig(ts=TS), RX, TX)
    return transmit_pilots(h, CFG, seed)


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


def test_omp_holds_two_grid_buffers_besides_the_correlation():
    # alpha0 (4 MiB), the residual correlation (4 MiB) and its magnitude (2 MiB).
    obs = link(0)
    assert traced_peak(omp_estimate, obs, CFG, DICTIONARY, K_MAX) <= 12 * 2**20


if __name__ == "__main__":
    if GOLDEN.exists():
        sys.exit(f"{GOLDEN} exists; delete it to re-record it")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in record()) + "\n]\n")
