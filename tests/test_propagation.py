import csv
import io
import math
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mbce import propagation
from mbce.channel_model import ArrayGeometry, ChannelTensor, PathSet, PulseConfig, synth_channel
from mbce.propagation import (
    C0,
    ETA0,
    Box,
    GainCalibration,
    PathImportError,
    RssMap,
    Scene,
    calibrate_alphas,
    generate_rss_map,
    import_paths,
    load_rss_map,
    rss_from_channel,
    rss_from_fields,
    rss_patch_at,
    save_rss_map,
    trace_paths,
)

CARRIER = 15e9


def free_space(max_bounces=1, **kw):
    return Scene(
        buildings=(),
        tx_position=(0.0, 0.0, 20.0),
        carrier_freq=CARRIER,
        max_bounces=max_bounces,
        **kw,
    )


def unit_vectors(az, el):
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1)


BOXES = st.builds(
    lambda x0, y0, w, d, h: Box(x0, x0 + w, y0, y0 + d, 0.0, h),
    st.floats(-40.0, 30.0),
    st.floats(-40.0, 30.0),
    st.floats(2.0, 15.0),
    st.floats(2.0, 15.0),
    st.floats(3.0, 40.0),
)
ENDPOINTS = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(0.5, 40.0))


class TestInputChecks:
    @pytest.mark.parametrize(
        "name,bad,match",
        [
            ("tx_position", (np.nan, 0.0, 25.0), "tx_position"),
            ("tx_position", (0.0, 0.0, np.inf), "tx_position"),
            ("tx_position", (0.0, 0.0), "tx_position"),
            ("tx_position", (0.0, 0.0, 25.0, 1.0), "tx_position"),
            ("carrier_freq", np.nan, "carrier"),
            ("carrier_freq", np.inf, "carrier"),
            ("reflection_coeff", complex(np.nan, 0.0), "reflection"),
            ("reflection_coeff", complex(0.0, np.inf), "reflection"),
        ],
    )
    def test_scene_rejects(self, name, bad, match):
        good = dict(buildings=(), tx_position=(0.0, 0.0, 25.0), carrier_freq=CARRIER)
        with pytest.raises(ValueError, match=match):
            Scene(**{**good, name: bad})

    @pytest.mark.parametrize(
        "rx", [(np.nan, 0.0, 1.5), (10.0, -np.inf, 1.5), (10.0, 0.0), (10.0, 0.0, 1.5, 0.0)]
    )
    def test_trace_paths_rejects_receiver(self, rx):
        with pytest.raises(ValueError, match="rx_position"):
            trace_paths(free_space(), rx)

    @pytest.mark.parametrize(
        "name,bad",
        [
            ("origin", (np.nan, 0.0)),
            ("origin", (0.0, 0.0, 0.0)),
            ("spacing", np.nan),
            ("spacing", np.inf),
            ("spacing", 0.0),
            ("spacing", -1.0),
            ("rx_height", np.nan),
            ("rx_height", np.inf),
        ],
    )
    def test_rss_map_grid_checked_before_tracing(self, monkeypatch, name, bad):
        def no_trace(*args):
            raise AssertionError("traced a cell of an invalid grid")

        monkeypatch.setattr(propagation, "_trace", no_trace)
        good = dict(origin=(10.0, 0.0), spacing=1.0, shape=(2, 2), rx_height=1.5)
        with pytest.raises(ValueError, match="origin|spacing|rx_height"):
            generate_rss_map(free_space(), **{**good, name: bad})

    @pytest.mark.parametrize(
        "call,match",
        [
            (lambda m: rss_patch_at(m, (np.inf, 0.0), 3), "position"),
            (lambda m: rss_patch_at(m, (0.0, -np.inf, 1.5), 3), "position"),
            (lambda m: rss_patch_at(m, (np.nan, 0.0), 3), "position"),
            (lambda m: rss_from_fields([1e-3], np.nan), "wavelength"),
            (lambda m: rss_from_fields([1e-3], np.inf), "wavelength"),
            (lambda m: rss_from_channel(ChannelTensor(np.ones((1, 1, 1))), np.nan), "power"),
            (lambda m: rss_from_channel(ChannelTensor(np.ones((1, 1, 1))), np.inf), "power"),
            (lambda m: rss_from_fields([1e-3, np.nan], 0.02), "fields"),
        ],
        ids=["patch-inf", "patch-minus-inf", "patch-nan", "fields-nan", "fields-inf",
             "channel-nan", "channel-inf", "field-value-nan"],
    )
    def test_non_finite_scalar_rejected(self, call, match):
        m = RssMap(origin=(0.0, 0.0), spacing=1.0, values=np.ones((4, 4)), rx_height=1.5)
        with pytest.raises(ValueError, match=match):
            call(m)

    def test_rss_from_channel_takes_only_a_channel_tensor(self):
        with pytest.raises(TypeError, match="ChannelTensor"):
            rss_from_channel(np.full((1, 1, 1), np.inf), 1.0)


class TestGainCalibrationChecks:
    @pytest.mark.parametrize(
        "kw,match",
        [
            (dict(p_t=0.0), "p_t"),
            (dict(p_t=-1.0), "p_t"),
            (dict(p_t=np.nan), "p_t"),
            (dict(p_t=np.inf), "p_t"),
            (dict(nr=0), "nr"),
            (dict(nt=0), "nt"),
            (dict(nr=-2, nt=-2), "nr"),
            (dict(nr=2.5), "nr"),
            (dict(nt="16"), "nt"),
        ],
        ids=["power-zero", "power-negative", "power-nan", "power-inf", "nr-zero", "nt-zero",
             "both-negative", "nr-float", "nt-string"],
    )
    def test_rejects(self, kw, match):
        with pytest.raises(ValueError, match=match):
            GainCalibration(**kw)

    def test_calibrate_alphas_rejects_zero_power(self):
        ps = PathSet([1.0], [1e-8], [0.0], [0.0], [0.0], [0.0], fields=[0.01])
        with pytest.raises(ValueError, match="p_t"):
            calibrate_alphas(ps, 0.02, GainCalibration(p_t=0.0, nr=4, nt=16))


class TestTracePaths:
    def test_free_space_yields_los_and_ground_bounce(self):
        scene = free_space()
        rx = (100.0, 0.0, 20.0)
        ps = trace_paths(scene, rx)
        assert len(ps) == 2
        assert ps.toas.min() == pytest.approx(100.0 / C0, rel=1e-12)  # line of sight
        # ground bounce unfolds to the image-source distance
        d_img = math.hypot(100.0, 40.0)
        assert ps.toas.max() == pytest.approx(d_img / C0, rel=1e-12)

    def test_occluded_receiver_gives_empty_pathset(self):
        wall = Box(45.0, 55.0, -50.0, 50.0, 0.0, 60.0)
        scene = Scene(
            buildings=(wall,),
            tx_position=(0.0, 0.0, 20.0),
            carrier_freq=CARRIER,
            max_bounces=0,
        )
        # Ground bounce disabled by max_bounces=0; the wall blocks LOS.
        ps = trace_paths(scene, (100.0, 0.0, 1.5))
        assert len(ps) == 0

    def test_reflected_length_matches_mirror_oracle(self):
        # Single wall at x=30 facing the transmitter, receiver on the same side.
        wall = Box(30.0, 40.0, -60.0, 60.0, 0.0, 50.0)
        scene = Scene(
            buildings=(wall,),
            tx_position=(0.0, -20.0, 10.0),
            carrier_freq=CARRIER,
            max_bounces=1,
        )
        rx = (0.0, 20.0, 10.0)
        ps = trace_paths(scene, rx)
        # LOS + ground + wall reflection
        assert len(ps) == 3
        # Mirror-geometry oracle: image of tx across the x=30 plane.
        img = np.array([60.0, -20.0, 10.0])
        d_expect = float(np.linalg.norm(img - np.asarray(rx)))
        dists = ps.toas * C0
        assert any(abs(d - d_expect) < 1e-9 for d in dists)

    @settings(max_examples=60, deadline=None)
    @given(
        buildings=st.lists(BOXES, min_size=1, max_size=2),
        a=ENDPOINTS,
        b=ENDPOINTS,
    )
    @example(buildings=[Box(30.0, 40.0, -60.0, 60.0, 0.0, 50.0)], a=(0.0, -20.0, 10.0),
             b=(5.0, 25.0, 3.0))
    # An endpoint a hair off a wall: its reflected paths' end segments are ~1e-7 m long.
    @example(buildings=[Box(0.0, 2.0, 0.0, 2.0, 0.0, 3.0)], a=(-3.0, 0.0, 1.0),
             b=(-5.960464477539063e-08, 0.0, 2.0))
    def test_reciprocity_of_geometry(self, buildings, a, b):
        assume(math.dist(a[:2], b[:2]) > 1.0)
        assume(not any(box.contains(p) for box in buildings for p in (a, b)))
        kwargs = dict(buildings=tuple(buildings), carrier_freq=CARRIER, max_bounces=2)
        fwd = trace_paths(Scene(tx_position=a, **kwargs), b)
        rev = trace_paths(Scene(tx_position=b, **kwargs), a)
        assert len(fwd) == len(rev)
        np.testing.assert_allclose(np.sort(fwd.toas), np.sort(rev.toas), rtol=1e-12)
        # Departure and arrival swap when the endpoints swap. Angles are
        # compared as unit vectors, which have no azimuth wrap at +-pi.
        f_dep, f_arr = unit_vectors(fwd.aod_az, fwd.aod_el), unit_vectors(fwd.aoa_az, fwd.aoa_el)
        r_dep, r_arr = unit_vectors(rev.aod_az, rev.aod_el), unit_vectors(rev.aoa_az, rev.aoa_el)
        for i in range(len(fwd)):
            same_length = np.isclose(rev.toas, fwd.toas[i], rtol=1e-12, atol=0.0)
            swapped = np.all(np.abs(r_arr - f_dep[i]) < 1e-9, axis=1)
            swapped &= np.all(np.abs(r_dep - f_arr[i]) < 1e-9, axis=1)
            assert np.any(same_length & swapped)

    def test_rejects_receiver_inside_building(self):
        wall = Box(30.0, 40.0, -60.0, 60.0, 0.0, 50.0)
        scene = Scene(buildings=(wall,), tx_position=(0, 0, 20), carrier_freq=CARRIER)
        with pytest.raises(ValueError, match="inside a building"):
            trace_paths(scene, (35.0, 0.0, 5.0))

    def test_two_bounce_paths_appear(self):
        left = Box(-20.0, -10.0, -50.0, 50.0, 0.0, 30.0)
        right = Box(10.0, 20.0, -50.0, 50.0, 0.0, 30.0)
        scene = Scene(
            buildings=(left, right),
            tx_position=(0.0, -40.0, 10.0),
            carrier_freq=CARRIER,
            max_bounces=2,
        )
        one = trace_paths(
            Scene(
                buildings=(left, right),
                tx_position=(0.0, -40.0, 10.0),
                carrier_freq=CARRIER,
                max_bounces=1,
            ),
            (0.0, 40.0, 1.5),
        )
        two = trace_paths(scene, (0.0, 40.0, 1.5))
        assert len(two) > len(one)


class TestRss:
    def test_destructive_cancellation(self):
        assert rss_from_fields([1 + 1j, -1 - 1j], 0.02) == 0.0

    def test_single_unit_field_closed_form(self):
        lam = 0.02
        expect = lam**2 / (8 * math.pi * ETA0)
        assert rss_from_fields([1.0], lam) == pytest.approx(expect, rel=1e-15)

    def test_empty_fields(self):
        assert rss_from_fields([], 0.02) == 0.0

    def test_channel_side_all_ones_tap(self):
        taps = np.zeros((1, 2, 2), dtype=np.complex128)
        taps[0] = 1.0
        from mbce.channel_model import ChannelTensor

        assert rss_from_channel(ChannelTensor(taps), 1.0) == pytest.approx(4.0)

    def test_channel_side_zero(self):
        from mbce.channel_model import ChannelTensor

        assert rss_from_channel(ChannelTensor(np.zeros((2, 2, 2))), 2.0) == 0.0

    def test_channel_side_matches_elementwise_oracle(self):
        rng = np.random.default_rng(9)
        taps = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
        from mbce.channel_model import ChannelTensor

        expect = 0.0
        for v in taps.ravel():
            expect += abs(v) ** 2
        expect *= 1.7
        assert rss_from_channel(ChannelTensor(taps), 1.7) == pytest.approx(
            expect, rel=1e-12
        )


class TestCalibrationIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        p_t=st.floats(1e-3, 1e3),
        dims=st.tuples(*[st.integers(1, 4)] * 4),
        rx=st.tuples(st.floats(1.0, 300.0), st.floats(-300.0, 300.0), st.floats(0.5, 40.0)),
    )
    def test_single_on_grid_path_field_channel_identity(self, p_t, dims, rx):
        # One line-of-sight path, put on the tap grid by the clock offset: the
        # channel-side RSS equals the field-side RSS for any transmit power,
        # array sizes and receiver, and calibrating the fields afterwards gives
        # the gains the tracer gives.
        scene = free_space(max_bounces=0)
        rx_geom, tx_geom = ArrayGeometry(*dims[:2]), ArrayGeometry(*dims[2:])
        calib = GainCalibration(p_t=p_t, nr=rx_geom.size, nt=tx_geom.size)
        ps = trace_paths(scene, rx, calib)
        assert len(ps) == 1
        cal = calibrate_alphas(trace_paths(scene, rx), scene.wavelength, calib)
        assert all(map(np.array_equal, astuple(cal), astuple(ps)))
        cfg = PulseConfig(ts=1e-8, beta=0.3, t_off=ps.toas[0])
        h = synth_channel(ps, 4, cfg, rx_geom, tx_geom)
        lhs = rss_from_channel(h, p_t)
        rhs = rss_from_fields(ps.fields, scene.wavelength)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_phase_averaged_multipath_identity(self):
        # Eq-4-side expectation realized over uniform path phases; on-grid
        # delays so sampled pulse energy is exactly 1 per path.
        rng = np.random.default_rng(42)
        rx_geom, tx_geom = ArrayGeometry(2, 1), ArrayGeometry(2, 2)
        p_t = 1.0
        calib = GainCalibration(p_t=p_t, nr=rx_geom.size, nt=tx_geom.size)
        lam = C0 / CARRIER
        ts = 1e-8
        n_paths, n_draws = 4, 2000
        mags = rng.uniform(0.001, 0.01, size=n_paths)
        taps = rng.integers(0, 4, size=n_paths)
        angs = rng.uniform(-1.2, 1.2, size=(n_paths, 4))

        def build(phases):
            ps = PathSet(np.zeros(n_paths), taps * ts, angs[:, 0], angs[:, 1] / 2, angs[:, 2],
                         angs[:, 3] / 2, fields=mags * np.exp(1j * phases))
            return calibrate_alphas(ps, lam, calib)

        # Channel side: expectation over phases, estimated from the same draws.
        draws = rng.uniform(0, 2 * np.pi, size=(n_draws, n_paths))
        rss_field = np.array(
            [rss_from_fields(build(ph).fields, lam) for ph in draws]
        )
        cfg = PulseConfig(ts=ts, beta=0.3)
        chan_vals = np.array(
            [
                rss_from_channel(synth_channel(build(ph), 4, cfg, rx_geom, tx_geom), p_t)
                for ph in draws[:200]
            ]
        )
        mc_mean = rss_field.mean()
        mc_se = rss_field.std(ddof=1) / math.sqrt(n_draws)
        # Analytic channel-side expectation: per-path powers add.
        expect = sum(
            rss_from_fields([m], lam) for m in mags
        )
        assert abs(mc_mean - expect) <= 3 * mc_se
        # The channel-side phase average converges to the same value.
        chan_se = chan_vals.std(ddof=1) / math.sqrt(len(chan_vals))
        assert abs(chan_vals.mean() - expect) <= 3 * chan_se


class TestRssMap:
    def test_free_space_monotone_along_ray(self):
        scene = free_space(max_bounces=0)
        m = generate_rss_map(scene, origin=(10.0, 0.0), spacing=5.0, shape=(1, 8), rx_height=20.0)
        vals = m.values[0]
        assert np.all(np.diff(vals) < 0)

    def test_single_cell_equals_composition(self):
        scene = free_space()
        m = generate_rss_map(scene, origin=(40.0, 7.0), spacing=2.0, shape=(1, 1), rx_height=1.5)
        ps = trace_paths(scene, (40.0, 7.0, 1.5))
        assert m.values[0, 0] == pytest.approx(
            rss_from_fields(ps.fields, scene.wavelength), rel=1e-12
        )

    def test_two_ray_cell_matches_coherent_sum_oracle(self):
        scene = free_space()
        x, y, zh = 60.0, 0.0, 1.5
        m = generate_rss_map(scene, origin=(x, y), spacing=1.0, shape=(1, 1), rx_height=zh)
        lam = scene.wavelength
        d0 = math.sqrt(x**2 + (20.0 - zh) ** 2)
        d1 = math.sqrt(x**2 + (20.0 + zh) ** 2)
        e = (
            np.exp(-2j * np.pi * d0 / lam) / d0
            + scene.reflection_coeff * np.exp(-2j * np.pi * d1 / lam) / d1
        )
        expect = lam**2 / (8 * math.pi * ETA0) * abs(e) ** 2
        assert m.values[0, 0] == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_non_finite_or_negative_values(self, bad):
        vals = np.zeros((3, 3))
        vals[1, 2] = bad
        with pytest.raises(ValueError, match="RSS values"):
            RssMap(origin=np.array([0.0, 0.0]), spacing=1.0, values=vals, rx_height=1.5)

    @pytest.mark.parametrize(
        "name,bad",
        [
            ("origin", [np.nan, 0.0]),
            ("origin", [0.0, np.inf]),
            ("origin", [0.0, 0.0, 0.0]),
            ("origin", [1.0]),
            ("spacing", np.nan),
            ("spacing", np.inf),
            ("rx_height", np.inf),
            ("rx_height", np.nan),
        ],
    )
    def test_rejects_bad_geometry(self, name, bad):
        good = dict(origin=[0.0, 0.0], spacing=1.0, values=np.zeros((2, 2)), rx_height=1.5)
        with pytest.raises(ValueError, match="origin|spacing|rx_height"):
            RssMap(**{**good, name: bad})

    def test_map_values_non_negative(self):
        wall = Box(10.0, 14.0, -20.0, 20.0, 0.0, 30.0)
        scene = Scene(buildings=(wall,), tx_position=(0, 0, 25), carrier_freq=CARRIER)
        m = generate_rss_map(scene, origin=(-6.0, -6.0), spacing=4.0, shape=(5, 7), rx_height=1.5)
        assert np.all(m.values >= 0)


class TestRssPatch:
    def setup_method(self):
        vals = np.arange(64, dtype=np.float64).reshape(8, 8)
        self.map = RssMap(origin=np.array([0.0, 0.0]), spacing=1.0, values=vals, rx_height=1.5)

    def test_single_cell_patch(self):
        p = rss_patch_at(self.map, (3.2, 4.9), 1)
        assert p.values[0, 0] == self.map.values[5, 3]

    def test_corner_patch_zero_padded(self):
        p = rss_patch_at(self.map, (0.0, 0.0), 3)
        assert p.values[0, 0] == 0.0  # off-map
        assert p.values[1, 1] == self.map.values[0, 0]
        assert p.values[2, 2] == self.map.values[1, 1]

    def test_interior_patch_matches_window_copy(self):
        # Index-arithmetic oracle: direct slice of the value grid.
        bigger = RssMap(
            origin=np.array([0.0, 0.0]),
            spacing=1.0,
            values=np.arange(400, dtype=np.float64).reshape(20, 20),
            rx_height=1.5,
        )
        p = rss_patch_at(bigger, (10.0, 9.0), 9)
        np.testing.assert_array_equal(p.values, bigger.values[5:14, 6:15])

    def test_out_of_bounds_errors(self):
        with pytest.raises(ValueError, match="outside"):
            rss_patch_at(self.map, (50.0, 0.0), 3)

    def test_even_patch_side_rejected(self):
        with pytest.raises(ValueError):
            rss_patch_at(self.map, (3.0, 3.0), 4)


HEADER = "sample_id,path_id,e_real,e_imag,toa_s,aoa_az_rad,aoa_el_rad,aod_az_rad,aod_el_rad"
AZIMUTHS, ELEVATIONS = st.floats(-math.pi, math.pi), st.floats(-math.pi / 2, math.pi / 2)
# (sample_id, path_id, field, toa, aoa_az, aoa_el, aod_az, aod_el) of a valid row
VALID_PATHS = st.tuples(
    st.integers(0, 3),
    st.integers(0, 99),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.floats(0.0, allow_infinity=False),
    AZIMUTHS,
    ELEVATIONS,
    AZIMUTHS,
    ELEVATIONS,
)


def csv_row(path):
    sid, pid, e, *reals = path
    return [str(sid), str(pid), repr(e.real), repr(e.imag), *map(repr, reals)]


def csv_text(rows):
    return "".join(",".join(row) + "\n" for row in [HEADER.split(",")] + rows)


VALID_ROWS = VALID_PATHS.map(csv_row)
# valid rows of one file: no (sample_id, path_id) twice
UNIQUE_PATHS = st.lists(VALID_PATHS, max_size=12, unique_by=lambda p: (p[0], p[1]))


def unique_rows(max_size):
    return st.lists(VALID_ROWS, max_size=max_size, unique_by=lambda r: (r[0], r[1]))
# no decimal digit, comma, quote or line break: never a number and still one field
NON_NUMERIC = st.text(
    st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters=',"\r\n'), max_size=6
)


@st.composite
def malformed_rows(draw):
    """A valid row with one defect: a non-numeric field, a field past the csv
    module's size limit, a non-finite value, a non-integer id, a value outside
    its column's range, or a wrong field count."""
    row = draw(VALID_ROWS)
    kind = draw(st.sampled_from(["text", "oversized", "non-finite", "id", "range", "count"]))
    if kind == "text":
        row[draw(st.integers(0, 8))] = draw(NON_NUMERIC)
    elif kind == "oversized":
        row[draw(st.integers(0, 8))] = "1" * (csv.field_size_limit() + 1)
    elif kind == "non-finite":
        row[draw(st.integers(2, 8))] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    elif kind == "id":
        row[draw(st.integers(0, 1))] = repr(draw(st.floats()))
    elif kind == "range":
        # toa_s below 0; angles beyond their bound plus the 1e-12 slack
        column, bound = draw(st.sampled_from(
            [(4, 0.0), (5, math.pi), (6, math.pi / 2), (7, math.pi), (8, math.pi / 2)]
        ))
        excess = draw(st.floats(1e-9, 1e300))
        sign = -1.0 if column == 4 else draw(st.sampled_from([-1.0, 1.0]))
        row[column] = repr(sign * (bound + excess))
    else:
        n = draw(st.integers(1, 12).filter(lambda n: n != 9))
        row = (row + row)[:n]
    return row


class TestImportPaths:
    def test_header_only(self):
        assert import_paths(io.StringIO(HEADER + "\n")) == []

    def test_single_row_verbatim(self):
        text = HEADER + "\n1,0,0.5,-0.25,3.3e-7,0.1,-0.2,1.0,0.05\n"
        out = import_paths(io.StringIO(text))
        assert len(out) == 1
        sid, ps = out[0]
        assert sid == 1 and len(ps) == 1
        assert ps.fields[0] == 0.5 - 0.25j
        assert ps.toas[0] == 3.3e-7
        assert (ps.aoa_az[0], ps.aoa_el[0], ps.aod_az[0], ps.aod_el[0]) == (0.1, -0.2, 1.0, 0.05)
        assert ps.alphas[0] == 0j

    def test_exponential_and_fixed_notation_agree(self):
        row_exp = "2,0,1.5e-1,0.0,2.5e-8,0.0,0.0,0.0,0.0"
        row_fix = "2,0,0.15,0.0,0.000000025,0.0,0.0,0.0,0.0"
        a = import_paths(io.StringIO(HEADER + "\n" + row_exp + "\n"))
        b = import_paths(io.StringIO(HEADER + "\n" + row_fix + "\n"))
        assert all(map(np.array_equal, astuple(a[0][1]), astuple(b[0][1])))

    def test_groups_preserve_row_order(self):
        text = HEADER + "\n"
        text += "7,0,1,0,1e-8,0,0,0,0\n"
        text += "3,0,2,0,1e-8,0,0,0,0\n"
        text += "7,1,3,0,2e-8,0,0,0,0\n"
        out = import_paths(io.StringIO(text))
        assert [sid for sid, _ in out] == [7, 3]
        assert out[0][1].fields.real.tolist() == [1.0, 3.0]

    def test_malformed_row_names_line_and_field(self):
        text = HEADER + "\n1,0,abc,0,1e-8,0,0,0,0\n"
        with pytest.raises(PathImportError, match="line 2.*e_real"):
            import_paths(io.StringIO(text))

    @pytest.mark.parametrize("column", [2, 3, 4], ids=["e_real", "e_imag", "toa_s"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, column, bad):
        row = "1,0,0.5,0,1e-8,0,0,0,0".split(",")
        row[column] = bad
        text = HEADER + "\n0,0,1,0,1e-8,0,0,0,0\n" + ",".join(row) + "\n"
        with pytest.raises(PathImportError, match="line 3.*not finite"):
            import_paths(io.StringIO(text))

    def test_repeated_path_id_names_both_lines(self):
        text = HEADER + "\n4,1,1,0,1e-8,0,0,0,0\n5,1,1,0,1e-8,0,0,0,0\n4,1,2,0,2e-8,0,0,0,0\n"
        with pytest.raises(PathImportError, match="^line 4: .*path_id 1 repeats line 2$"):
            import_paths(io.StringIO(text))

    def test_unknown_column_rejected(self):
        text = HEADER + ",extra\n"
        with pytest.raises(PathImportError, match="unknown column"):
            import_paths(io.StringIO(text))

    def test_calibrate_alphas_applies_gain_formula(self):
        text = HEADER + "\n0,0,0.01,0.0,1e-8,0,0,0,0\n"
        (_, ps), = import_paths(io.StringIO(text))
        lam, p_t, nr, nt = 0.02, 2.0, 4, 16
        cal = calibrate_alphas(ps, lam, GainCalibration(p_t, nr, nt))
        expect = lam * 0.01 / math.sqrt(8 * math.pi * ETA0 * p_t * nr * nt)
        assert cal.alphas[0] == pytest.approx(expect, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(paths=UNIQUE_PATHS)
    def test_repr_written_columns_parse_back_exactly(self, paths):
        out = import_paths(io.StringIO(csv_text([csv_row(p) for p in paths])))
        expect = {}
        for sid, _, e, *reals in paths:
            expect.setdefault(sid, []).append((0j, *reals, e))
        assert [sid for sid, _ in out] == list(expect)
        for (_, ps), want in zip(out, expect.values()):
            assert [c.tobytes() for c in astuple(ps)] == [
                c.tobytes() for c in astuple(PathSet(*zip(*want)))
            ]

    @settings(max_examples=300, deadline=None)
    @given(before=unique_rows(3), bad=malformed_rows(), after=unique_rows(2))
    def test_malformed_row_raises_only_path_import_error(self, before, bad, after):
        with pytest.raises(PathImportError, match=rf"^line {len(before) + 2}: "):
            import_paths(io.StringIO(csv_text(before + [bad] + after)))


class TestRssMapIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 1e-9, size=(6, 9)).astype(np.float32).astype(np.float64)
        m = RssMap(origin=np.array([-4.0, 3.0]), spacing=2.0, values=vals, rx_height=1.5)
        path = tmp_path / "map.rssm"
        save_rss_map(m, path)
        loaded = load_rss_map(path)
        np.testing.assert_array_equal(loaded.values, vals)
        np.testing.assert_array_equal(loaded.origin, m.origin)
        assert loaded.spacing == m.spacing and loaded.rx_height == m.rx_height

    # Header field offsets in "<4sIIIdddd": origin x, origin y, spacing, rx height.
    @pytest.mark.parametrize("offset", [16, 24, 32, 40], ids=["ox", "oy", "spacing", "rx_h"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_header_rejected(self, tmp_path, offset, bad):
        path = tmp_path / "map.rssm"
        save_rss_map(RssMap(np.zeros(2), 1.0, np.ones((2, 3)), 1.5), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, offset, bad)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="finite"):
            load_rss_map(path)

    def test_values_beyond_float32_rejected(self, tmp_path):
        path = tmp_path / "big.rssm"
        with pytest.raises(ValueError, match="float32"):
            save_rss_map(RssMap(np.zeros(2), 1.0, np.full((2, 2), 1e39), 1.5), path)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rssm"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_rss_map(path)
