"""Regression and property tests of the image-method tracer.

``data/tracer_paths.json`` holds, for three seeded 6-box, 2-bounce scenes
with ten outdoor receivers each, the path count and the sorted times of
arrival that the tracer returned when the file was recorded. Re-record it
only on purpose, with ``PYTHONPATH=src python tests/test_tracer.py``.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mbce.propagation import Box, Scene, generate_rss_map, rss_from_fields, trace_paths

GOLDEN = pathlib.Path(__file__).parent / "data" / "tracer_paths.json"
CARRIER = 15e9
TX = (0.0, 0.0, 25.0)
RX_HEIGHT = 1.5
HALF_SIDE = 80.0


def city(seed: int, n_boxes: int = 6, max_bounces: int = 2) -> Scene:
    """``n_boxes`` 20 m x 20 m buildings that keep 4 m streets and clear the mast."""
    rng = np.random.default_rng(seed)
    boxes: list[Box] = []
    while len(boxes) < n_boxes:
        x0, y0 = rng.uniform(-HALF_SIDE, HALF_SIDE - 20.0, 2)
        box = Box(x0, x0 + 20.0, y0, y0 + 20.0, 0.0, rng.uniform(10.0, 40.0))
        near_mast = box.xmin - 5 < 0 < box.xmax + 5 and box.ymin - 5 < 0 < box.ymax + 5
        crowded = any(
            box.xmin - 4 < o.xmax and o.xmin - 4 < box.xmax
            and box.ymin - 4 < o.ymax and o.ymin - 4 < box.ymax
            for o in boxes
        )
        if not (near_mast or crowded):
            boxes.append(box)
    return Scene(tuple(boxes), TX, CARRIER, max_bounces=max_bounces)


def outdoor_receivers(scene: Scene, seed: int, n: int) -> list[tuple[float, float, float]]:
    rng = np.random.default_rng(1000 + seed)
    out = []
    while len(out) < n:
        x, y = rng.uniform(-HALF_SIDE, HALF_SIDE, 2)
        rx = (float(x), float(y), RX_HEIGHT)
        if not any(b.contains(rx) for b in scene.buildings):
            out.append(rx)
    return out


def record() -> list[dict]:
    cases = []
    for seed in range(3):
        scene = city(seed)
        for rx in outdoor_receivers(scene, seed, 10):
            toas = np.sort(trace_paths(scene, rx).toas).tolist()
            cases.append({"seed": seed, "rx": list(rx), "count": len(toas), "toas": toas})
    return cases


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_thirty_receivers():
    assert len(GOLDEN_CASES) == 30
    assert sum(c["count"] for c in GOLDEN_CASES) > 30  # reflections, not only LOS


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: f"s{c['seed']}-{c['rx'][0]:.1f}")
def test_path_set_matches_recorded(case):
    ps = trace_paths(city(case["seed"]), tuple(case["rx"]))
    assert len(ps) == case["count"]
    np.testing.assert_allclose(np.sort(ps.toas), case["toas"], rtol=1e-12, atol=0)


def _box(x0, y0, w, d, h):
    return Box(x0, x0 + w, y0, y0 + d, 0.0, h)


boxes = st.builds(
    _box,
    st.floats(-40.0, 30.0),
    st.floats(-40.0, 30.0),
    st.floats(2.0, 15.0),
    st.floats(2.0, 15.0),
    st.floats(3.0, 40.0),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    buildings=st.lists(boxes, min_size=1, max_size=3),
    max_bounces=st.sampled_from([0, 1, 2]),
    origin=st.tuples(st.floats(-50.0, 0.0), st.floats(-50.0, 0.0)),
    spacing=st.floats(1.0, 12.0),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
)
def test_map_cell_is_coherent_sum_of_traced_fields(buildings, max_bounces, origin, spacing, shape):
    tx = (0.0, 0.0, 30.0)
    assume(not any(b.contains(tx) for b in buildings))
    scene = Scene(tuple(buildings), tx, CARRIER, max_bounces=max_bounces)
    m = generate_rss_map(scene, origin, spacing, shape, RX_HEIGHT)
    for r in range(shape[0]):
        for c in range(shape[1]):
            rx = (origin[0] + c * spacing, origin[1] + r * spacing, RX_HEIGHT)
            if any(b.contains(rx) for b in scene.buildings):
                assert m.values[r, c] == 0.0
                continue
            expect = rss_from_fields(trace_paths(scene, rx).fields, scene.wavelength)
            assert m.values[r, c] == pytest.approx(expect, rel=1e-12, abs=0.0)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in record()) + "\n]\n")
