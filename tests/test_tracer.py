"""Regression and property tests of the image-method tracer.

``data/tracer_paths.json`` holds, for three seeded 6-box, 2-bounce scenes
with ten outdoor receivers each, the path count and the sorted times of
arrival that the tracer returned when the file was recorded.
``data/tracer_scenes.json`` holds 18 scenes of 1-6 boxes of varied size,
every bounce order, the tx below or above the highest roof, and eight
receivers each at 0.5-30 m (six at random, one a micrometre outside a wall,
one on a wall's plane): the scene, and per receiver the path count, the
sorted times of arrival and the sum of the fields.

``PYTHONPATH=src python tests/test_tracer.py`` records a missing file and
refuses to overwrite an existing one: delete a file on purpose to re-record it.
"""

import json
import pathlib
import sys
from dataclasses import astuple, fields
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mbce import propagation
from mbce.propagation import (
    _LANE_BUDGET,
    Box,
    Scene,
    _candidates,
    _geometry,
    _inside,
    _leaves,
    _live,
    _trace,
    generate_rss_map,
    rss_from_fields,
    trace_paths,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "tracer_paths.json"
SCENES = pathlib.Path(__file__).parent / "data" / "tracer_scenes.json"
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


def varied_scene(seed: int) -> Scene:
    """``1 + (seed // 3) % 6`` boxes of 2-25 m sides and 3-40 m heights (they may
    overlap), ``max_bounces = seed % 3``, and the tx outdoors, below the
    highest roof for even seeds and above it for odd ones."""
    rng = np.random.default_rng([7, seed])
    boxes = []
    for _ in range(1 + (seed // 3) % 6):
        (x0, y0), (w, d) = rng.uniform(-35.0, 20.0, 2), rng.uniform(2.0, 25.0, 2)
        boxes.append(Box(x0, x0 + w, y0, y0 + d, 0.0, rng.uniform(3.0, 40.0)))
    roof = max(b.zmax for b in boxes)
    z_range = (1.0, roof - 0.5) if seed % 2 == 0 else (roof + 0.5, 45.0)
    while True:
        tx = (*rng.uniform(-35.0, 35.0, 2), rng.uniform(*z_range))
        if not any(b.contains(tx) for b in boxes):
            break
    return Scene(tuple(boxes), tuple(map(float, tx)), CARRIER, max_bounces=seed % 3)


def varied_receivers(scene: Scene, seed: int) -> list[tuple[float, float, float]]:
    """Six outdoor receivers at random, one 1 um outside a wall and one on a
    wall's plane, inside its extent; all at 0.5-30 m."""
    rng = np.random.default_rng([8, seed])
    out = []
    while len(out) < 8:
        rx = [*rng.uniform(-40.0, 40.0, 2), rng.uniform(0.5, 30.0)]
        if len(out) >= 6:
            box = scene.buildings[rng.integers(len(scene.buildings))]
            axis, side = rng.integers(2), rng.integers(2)
            plane = box.bounds[side, axis]
            lo, hi = box.bounds[0, 1 - axis], box.bounds[1, 1 - axis]
            rx[1 - axis] = rng.uniform(lo, hi)
            rx[axis] = plane + (2 * side - 1) * 1e-6 if len(out) == 6 else plane
            rx[2] = rng.uniform(0.5, min(30.0, box.zmax))
        rx = tuple(map(float, rx))
        if not any(b.contains(rx) for b in scene.buildings):
            out.append(rx)
    return out


def record_scenes() -> list[dict]:
    cases = []
    for seed in range(18):
        scene = varied_scene(seed)
        receivers = []
        for rx in varied_receivers(scene, seed):
            ps = trace_paths(scene, rx)
            total = complex(ps.fields.sum())
            receivers.append({"rx": list(rx), "count": len(ps),
                              "toas": np.sort(ps.toas).tolist(),
                              "field_sum": [total.real, total.imag]})
        cases.append({"seed": seed, "boxes": [list(astuple(b)) for b in scene.buildings],
                      "tx": list(scene.tx_position), "max_bounces": scene.max_bounces,
                      "receivers": receivers})
    return cases


SCENE_CASES = json.loads(SCENES.read_text()) if SCENES.exists() else []


def test_scene_fixture_covers_its_ranges():
    assert len(SCENE_CASES) == 18
    assert {len(c["boxes"]) for c in SCENE_CASES} == set(range(1, 7))
    assert {c["max_bounces"] for c in SCENE_CASES} == {0, 1, 2}
    above = [c["tx"][2] > max(b[5] for b in c["boxes"]) for c in SCENE_CASES]
    assert 0 < sum(above) < len(above)
    counts = [r["count"] for c in SCENE_CASES for r in c["receivers"]]
    assert sum(counts) > len(counts) and max(counts) > 4  # reflections, not only LOS


@pytest.mark.parametrize("case", SCENE_CASES, ids=lambda c: f"seed{c['seed']}")
def test_varied_scene_matches_recorded(case):
    scene = Scene(tuple(Box(*b) for b in case["boxes"]), tuple(case["tx"]), CARRIER,
                  max_bounces=case["max_bounces"])
    for want in case["receivers"]:
        ps = trace_paths(scene, tuple(want["rx"]))
        assert len(ps) == want["count"]
        np.testing.assert_allclose(np.sort(ps.toas), want["toas"], rtol=1e-12, atol=0)
        np.testing.assert_allclose(ps.fields.sum(), complex(*want["field_sum"]),
                                   rtol=1e-12, atol=0)


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


def assert_cells_are_traced_sums(scene, origin, spacing, shape):
    """The map's indoor cells hold 0 and each other cell the coherent RSS of
    ``trace_paths`` at its centre."""
    m = generate_rss_map(scene, origin, spacing, shape, RX_HEIGHT)
    for r in range(shape[0]):
        for c in range(shape[1]):
            rx = (origin[0] + c * spacing, origin[1] + r * spacing, RX_HEIGHT)
            if any(b.contains(rx) for b in scene.buildings):
                assert m.values[r, c] == 0.0
                continue
            expect = rss_from_fields(trace_paths(scene, rx).fields, scene.wavelength)
            assert m.values[r, c] == pytest.approx(expect, rel=1e-12, abs=0.0)
    return m


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
    assert_cells_are_traced_sums(scene, origin, spacing, shape)


def test_map_spanning_several_chunks_matches_per_cell_traces():
    scene = city(1)
    m = assert_cells_are_traced_sums(scene, (-78.0, -78.0), 4.0, (40, 40))
    lanes = sum(len(facets) for facets, _ in _geometry(scene).chains)
    assert np.count_nonzero(m.values) * lanes > 3 * _LANE_BUDGET


def test_map_without_buildings_matches_per_cell_traces():
    # no walls, so the 2-bounce order has no chain at all
    scene = Scene((), TX, CARRIER, max_bounces=2)
    assert_cells_are_traced_sums(scene, (-40.0, -40.0), 10.0, (9, 9))


def test_all_indoor_map_is_zero():
    scene = Scene((Box(-50.0, 50.0, 20.0, 60.0, 0.0, 30.0),), TX, CARRIER, max_bounces=2)
    m = generate_rss_map(scene, (-40.0, 25.0), 5.0, (6, 9), RX_HEIGHT)
    assert not m.values.any()


def test_cell_on_a_wall_plane_is_traced():
    # column 0 lies on the x-min wall, so not strictly inside; columns 1-2 are indoors
    scene = Scene((Box(10.0, 20.0, -5.0, 5.0, 0.0, 15.0),), TX, CARRIER, max_bounces=2)
    m = assert_cells_are_traced_sums(scene, (10.0, -2.0), 1.0, (5, 3))
    assert np.all(m.values[:, 0] > 0) and not m.values[:, 1:].any()


@st.composite
def near_wall(draw, buildings):
    """A point on, or just off, a wall of one of ``buildings``, inside its extent."""
    box = draw(st.sampled_from(buildings))
    axis, side = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    p = [draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)), draw(st.floats(0.5, 30.0))]
    lo, hi = box.bounds[:, 1 - axis]
    p[1 - axis] = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    off = draw(st.sampled_from([0.0, 1e-12, 1e-9, 2e-9, 1e-6, 1e-3, 0.5]))
    p[axis] = box.bounds[side, axis] + draw(st.sampled_from([-1.0, 1.0])) * off
    return tuple(p)


# walls on a 1 m grid, nudged by nothing or by about the tracer's 1e-9 m tolerance,
# so that facets often touch, align, or cross each other's planes by a hair
NUDGES = st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9, 1e-6, -1e-6])
GRID = st.builds(lambda k, e: k + e, st.integers(-30, 25).map(float), NUDGES)
aligned_boxes = st.builds(_box, GRID, GRID, st.integers(1, 15).map(float),
                          st.integers(1, 15).map(float), st.floats(3.0, 40.0))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), buildings=st.lists(st.one_of(boxes, aligned_boxes), min_size=1,
                                          max_size=5),
       max_bounces=st.sampled_from([1, 2]))
def test_pruned_chains_trace_as_every_candidate(data, buildings, max_bounces):
    """Pruning only drops chains that _trace would reject for every receiver:
    the pruned geometry gives the record of the full candidate set, column for
    column, for tx below or above the roofs and receivers on or next to walls
    or at tx. The two geometries chunk the receivers differently, so each record
    is compared in receiver order, each receiver's paths in their traced order."""
    anywhere = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(0.5, 45.0))
    points = st.one_of(anywhere, near_wall(buildings))
    tx = data.draw(points, label="tx")
    assume(not any(b.contains(tx) for b in buildings))
    rx = np.array(data.draw(st.lists(st.one_of(points, st.just(tx)), min_size=1, max_size=40),
                            label="rx"))
    scene = Scene(tuple(buildings), tx, CARRIER, max_bounces=max_bounces)
    full, pruned = _trace(_candidates(scene), rx), _trace(_geometry(scene), rx)
    want_order = np.argsort(full[0], kind="stable")
    got_order = np.argsort(pruned[0], kind="stable")
    for want, got in zip(full, pruned, strict=True):
        np.testing.assert_array_equal(got[got_order], want[want_order])


@pytest.mark.parametrize("reach, x", [(1e-6, 5e-7), (2e-7, 1e-7)], ids=["1um", "0.2um"])
def test_pair_reflecting_just_past_a_plane_is_kept(reach, x):
    # A's x-max wall (x = 0) and B's y-max wall (y = 0) form a corner reflector.
    # B's wall reaches ``reach`` past A's plane, and the receiver is placed so that
    # the second reflection point lands in that strip, at ``x``.
    a = Box(-10.0, 0.0, 0.0, 10.0, 0.0, 20.0)
    b = Box(-10.0, reach, -10.0, 0.0, 0.0, 20.0)
    scene = Scene((a, b), (5.0, 5.0, 10.0), CARRIER, max_bounces=2)
    rx = np.array([[5.0 + 2.0 * x, 5.0, 10.0]])
    want, got = _trace(_candidates(scene), rx), _trace(_geometry(scene), rx)
    idx, last = want[0], want[-1]
    points = rx[idx] - last  # each path's last reflection point (tx for the line of sight)
    corner = [p for p in points if abs(p[0]) < 2e-6 and abs(p[1]) < 1e-12]
    assert len(corner) == 1 and corner[0][0] == pytest.approx(x, rel=1e-3)
    for w, g in zip(want, got, strict=True):
        np.testing.assert_array_equal(g, w)


def assert_traced_alone(scene, rx, budget):
    """_trace of all of ``rx``, with ``budget`` lanes at once, split by receiver in
    traced order, equals _trace of each receiver alone, column for column."""
    g = scene._tracer
    with patch.object(propagation, "_LANE_BUDGET", budget):
        got = _trace(g, rx)
    for i in range(len(rx)):
        alone, mine = _trace(g, rx[i : i + 1]), got[0] == i
        for want, col in zip(alone[1:], got[1:], strict=True):
            np.testing.assert_array_equal(col[mine], want)


# receiver heights on and below the ground as well as above it, so that a leaf's
# box may lie on the ground's plane or straddle it
HEIGHTS = st.one_of(st.floats(0.5, 45.0), st.sampled_from([0.0, -1e-12, -1e-9, -2e-9, -0.5]),
                    st.floats(-20.0, 0.0))


@st.composite
def culled_traces(draw):
    """A scene of 1-5 boxes, 1 or 2 bounces and tx anywhere outdoors; 1-60 receivers
    at mixed heights, many of them within 3 m of one point, others anywhere, next to
    walls or at tx; and a lane budget that gives leaves of one receiver, of a few, or
    of up to ``_LANE_BUDGET`` lanes."""
    buildings = draw(st.lists(st.one_of(boxes, aligned_boxes), min_size=1, max_size=5))
    xy = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    tx = draw(st.one_of(st.builds(lambda p, z: (*p, z), xy, st.floats(0.5, 45.0)),
                        near_wall(buildings)), label="tx")
    assume(not any(b.contains(tx) for b in buildings))
    scene = Scene(tuple(buildings), tx, CARRIER, max_bounces=draw(st.sampled_from([1, 2])))
    cx, cy = draw(xy, label="cluster")
    near = st.builds(lambda dx, dy, z: (cx + dx, cy + dy, z), st.floats(-3.0, 3.0),
                     st.floats(-3.0, 3.0), HEIGHTS)
    points = st.one_of(st.builds(lambda p, z: (*p, z), xy, HEIGHTS), near, near,
                       near_wall(buildings), st.just(tx))
    rx = np.array(draw(st.lists(points, min_size=1, max_size=60), label="rx"))
    chains = sum(len(facets) for facets, _ in scene._tracer.chains)
    budget = draw(st.sampled_from([_LANE_BUDGET, 2 * chains, 7 * chains, chains]), label="budget")
    return scene, rx, budget


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=culled_traces())
def test_culled_leaves_trace_as_each_receiver_alone(case):
    """The leaves' cull drops no lane that _hit accepts, and the record keeps each
    receiver's paths in bounce order, then chain: a receiver traced among others
    gives the columns it gives alone, for receivers on, below or above the ground."""
    assert_traced_alone(*case)


# the same property searched deeper (~1,000 examples)
@pytest.mark.slow
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=culled_traces())
def test_culled_leaves_trace_as_each_receiver_alone_deep(case):
    assert_traced_alone(*case)


def test_receivers_straddling_the_ground_keep_every_path():
    # One leaf holds receivers above, on and below the ground, so its box straddles
    # the ground's plane, and the box of its last reflection points, on the ground,
    # is not finite: the (wall, ground) pairs must be kept, not dropped.
    wall = Box(10.0, 20.0, -10.0, 10.0, 0.0, 30.0)
    scene = Scene((wall,), (0.0, 0.0, 12.0), CARRIER, max_bounces=2)
    rx = np.array([[-5.0, 3.0, 2.0], [-6.0, 2.0, -3.0], [-4.0, 4.0, 0.0], [-7.0, 1.0, 1.0]])
    _, _, gamma, _, first, last = _trace(scene._tracer, rx)
    assert np.any((gamma == (-0.7) ** 2) & (first[:, 0] > 0) & (last[:, 2] > 0))
    assert_traced_alone(scene, rx, _LANE_BUDGET)


def test_leaf_reflecting_within_eps_of_a_facet_edge_keeps_the_pair():
    # tx and the first receiver sit at the wall's top, 30 m, so the receiver's
    # reflection point lands 0.5e-9 m above it, where _hit still accepts it; the
    # other receiver's lands 5 m above. The cull must widen the wall's bounds by _EPS.
    wall = Box(10.0, 20.0, -10.0, 10.0, 0.0, 30.0)
    scene = Scene((wall,), (0.0, 0.0, 30.0), CARRIER, max_bounces=1)
    rx = np.array([[0.0, 0.0, 30.0 + 1e-9], [0.0, 5.0, 40.0]])
    _, _, gamma, _, first, _ = _trace(scene._tracer, rx[:1])
    assert np.any((gamma == -0.7) & (first[:, 0] > 0))  # the wall's reflection
    assert_traced_alone(scene, rx, _LANE_BUDGET)


def test_leaf_straddling_a_wall_plane_keeps_the_pair():
    # The leaf's box spans the wall's plane (x = 10), from 0.1 m before it to 25 m
    # beyond tx's image. Only the receiver 1 mm before the plane reflects within
    # the wall's extent (y <= -5.95), outside the hull of the box's projected
    # corners, which holds no point of a straddling box's crossings.
    wall = Box(10.0, 20.0, -20.0, -5.95, 0.0, 30.0)
    scene = Scene((wall,), (0.0, 0.0, 10.0), CARRIER, max_bounces=1)
    rx = np.array([[9.9, -6.0, 10.0], [35.0, -3.0, 10.0], [9.999, -6.0, 10.0]])
    _, _, gamma, _, first, _ = _trace(scene._tracer, rx[2:])
    assert np.any((gamma == -0.7) & (first[:, 0] > 0))  # the wall's reflection
    assert_traced_alone(scene, rx, _LANE_BUDGET)


def test_cull_drops_most_two_bounce_pairs():
    # city(0)'s 40 x 40 map at 4 m: the pair stage keeps under a third of the
    # (leaf, chain) pairs of its 2-bounce order (about 8% when recorded)
    scene = city(0)
    g = scene._tracer
    r, c = np.indices((40, 40)).reshape(2, -1)
    cells = np.stack([-78.0 + 4.0 * c, -78.0 + 4.0 * r, np.full(r.size, RX_HEIGHT)], axis=1)
    cells = cells[~_inside(g, cells)]
    facets, images = g.chains[2]
    leaves = _leaves(cells, _LANE_BUDGET // sum(len(f) for f, _ in g.chains))
    assert len(leaves) > 10 and all(len(leaf) > 1 for leaf in leaves)
    live = _live(g, facets, images, cells, leaves)
    pairs = sum(len(chains) for chains in live)
    assert pairs < len(leaves) * len(facets) / 3


def test_pruning_drops_most_candidate_chains():
    scene = city(0)
    full = [len(facets) for facets, _ in _candidates(scene).chains]
    pruned = [len(facets) for facets, _ in _geometry(scene).chains]
    assert full == [1, 25, 600]
    assert pruned[0] == 1 and pruned[1] < 25 and pruned[2] < 600 // 3


def test_scene_geometry_is_read_only():
    # every trace of a scene shares its geometry, so no caller may write into it
    g = city(0)._tracer
    arrays = [getattr(g, f.name) for f in fields(g) if f.name != "chains"]
    arrays += [a for chain in g.chains for a in chain]
    assert len(arrays) == 8 + 2 * 3
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def write_new(path: pathlib.Path, record) -> bool:
    """Write ``record()`` as one JSON case per line, unless ``path`` exists."""
    if path.exists():
        print(f"{path} exists; delete it to re-record it", file=sys.stderr)
        return False
    path.parent.mkdir(exist_ok=True)
    path.write_text("[\n" + ",\n".join(json.dumps(c) for c in record()) + "\n]\n")
    return True


if __name__ == "__main__":
    written = [write_new(GOLDEN, record), write_new(SCENES, record_scenes)]
    sys.exit(0 if all(written) else 1)
