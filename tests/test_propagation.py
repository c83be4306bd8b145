import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mbce import propagation
from mbce.channel_model import (
    ArrayGeometry,
    ChannelTensor,
    PathSet,
    PulseConfig,
    steering_vector,
    synth_channel,
)
from mbce.estimation import to_time_domain
from mbce.propagation import (
    C0,
    ETA0,
    Box,
    GainCalibration,
    RssMap,
    RssPatch,
    Scene,
    calibrate_alphas,
    generate_rss_map,
    load_rss_map,
    rss_from_channel,
    rss_from_fields,
    rss_patch_at,
    save_rss_map,
    trace_paths,
)

from archives import npy_bytes, npz_bytes
from references import channel_frequency_response

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
            ("max_bounces", 2.0, "max_bounces"),
            ("carrier_freq", "15e9", "carrier"),
            ("carrier_freq", None, "carrier"),
            ("tx_position", ("x", 0.0, 25.0), "tx_position"),
            ("tx_position", ("1", "0", "25"), "tx_position"),
            ("tx_position", (b"1", 0.0, 25.0), "tx_position"),
            ("buildings", ("x",), "buildings"),
            ("buildings", (Box(0.0, 1.0, 0.0, 1.0, 0.0, 1.0), None), "buildings"),
            ("buildings", None, "buildings"),
        ],
    )
    def test_scene_rejects(self, name, bad, match):
        good = dict(buildings=(), tx_position=(0.0, 0.0, 25.0), carrier_freq=CARRIER)
        with pytest.raises(ValueError, match=match):
            Scene(**{**good, name: bad})

    def test_scene_from_a_list_of_boxes_is_hashable(self):
        wall = Box(10.0, 14.0, -20.0, 20.0, 0.0, 30.0)
        scene = Scene([wall], (0.0, 0.0, 25.0), CARRIER)
        assert scene.buildings == (wall,)
        assert hash(scene) == hash(Scene((wall,), (0.0, 0.0, 25.0), CARRIER))

    def test_scene_position_compares_by_value(self):
        # a list is unhashable and ndarrays compare elementwise unless stored as a tuple
        scenes = [Scene((), tx, CARRIER)
                  for tx in ([0.0, 0.0, 25.0], np.array([0.0, 0.0, 25.0]), (0, 0, 25.0))]
        assert all(scene == scenes[0] for scene in scenes)
        assert len({hash(scene) for scene in scenes}) == 1
        assert scenes[0].tx_position == (0.0, 0.0, 25.0)

    @pytest.mark.parametrize(
        "bounds",
        [(10.0, np.inf, 10.0, 20.0, 0.0, 10.0), (10.0, 20.0, -np.inf, 20.0, 0.0, 10.0),
         ("0", 20.0, 10.0, 20.0, 0.0, 10.0), (10.0, None, 10.0, 20.0, 0.0, 10.0)],
    )
    def test_box_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            Box(*bounds)

    @pytest.mark.parametrize(
        "rx",
        [(np.nan, 0.0, 1.5), (10.0, -np.inf, 1.5), (10.0, 0.0), (10.0, 0.0, 1.5, 0.0),
         ("x", 0.0, 1.5)],
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
            (lambda m: rss_from_fields([1e-3], "1"), "wavelength"),
            (lambda m: rss_from_fields([1e-3], None), "wavelength"),
            (lambda m: rss_from_fields([1e-3, "x"], 0.02), "fields"),
            (lambda m: rss_from_channel(ChannelTensor(np.ones((1, 1, 1))), None), "power"),
            (lambda m: rss_from_channel(ChannelTensor(np.ones((1, 1, 1))), "x"), "power"),
            (lambda m: m.nearest_cell((None, 1.0)), "position"),
            (lambda m: m.nearest_cell(("x", 1.0)), "position"),
            (lambda m: m.nearest_cell(("1", 2.0)), "position"),
            (lambda m: ChannelTensor([[["1"]]]), "channel taps"),
            (lambda m: m.nearest_cell(1.0), "position"),
            (lambda m: m.nearest_cell(None), "position"),
            (lambda m: m.nearest_cell(np.float64(1.0)), "position"),
            (lambda m: rss_patch_at(m, 1.0, 3), "position"),
            (lambda m: rss_patch_at(m, None, 3), "position"),
        ],
        ids=["patch-inf", "patch-minus-inf", "patch-nan", "fields-nan", "fields-inf",
             "channel-nan", "channel-inf", "field-value-nan", "wavelength-string",
             "wavelength-none", "field-value-string", "channel-none", "channel-string",
             "cell-none", "cell-string", "cell-numeric-string", "taps-numeric-string",
             "cell-scalar", "cell-bare-none", "cell-numpy-scalar", "patch-scalar",
             "patch-bare-none"],
    )
    def test_non_finite_scalar_rejected(self, call, match):
        m = RssMap(origin=(0.0, 0.0), spacing=1.0, values=np.ones((4, 4)), rx_height=1.5)
        with pytest.raises(ValueError, match=match):
            call(m)

    @pytest.mark.parametrize(
        "call,match",
        [
            (lambda m: synth_channel(PathSet([1.0], [0.0], [0.0], [0.0], [0.0], [0.0]), 2.5,
                                     PulseConfig(ts=1e-8), ArrayGeometry(1, 1),
                                     ArrayGeometry(1, 1)), "tap count"),
            (lambda m: to_time_domain(np.ones((4, 1, 1), dtype=complex), 2.5), "tap count"),
            (lambda m: to_time_domain(np.ones((4, 1, 1), dtype=complex), "2"), "tap count"),
            (lambda m: generate_rss_map(free_space(), (10.0, 0.0), 1.0, (2.5, 2), 1.5),
             "grid shape"),
            (lambda m: rss_patch_at(m, (1.0, 1.0), -1), "patch side"),
            (lambda m: rss_patch_at(m, (1.0, 1.0), 2.5), "patch side"),
            (lambda m: steering_vector(0.0, 2.5), "element count"),
            (lambda m: channel_frequency_response(ChannelTensor(np.ones((2, 1, 1))), 2.5),
             "subcarrier count"),
        ],
        ids=["synth-float-taps", "idft-float-taps", "idft-str-taps", "map-float-shape",
             "patch-negative", "patch-float", "steering-float", "dft-float"],
    )
    def test_counts_must_be_integers(self, call, match):
        m = RssMap(origin=(0.0, 0.0), spacing=1.0, values=np.ones((4, 4)), rx_height=1.5)
        with pytest.raises(ValueError, match=match):
            call(m)

    @pytest.mark.parametrize("shape", [2, (2, 2, 2), (2,), None], ids=["int", "three", "one", "none"])
    def test_grid_shape_must_be_two_counts(self, shape):
        with pytest.raises(ValueError, match="grid shape"):
            generate_rss_map(free_space(), (10.0, 0.0), 1.0, shape, 1.5)

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
            (dict(p_t=None), "p_t"),
            (dict(p_t="x"), "p_t"),
        ],
        ids=["power-zero", "power-negative", "power-nan", "power-inf", "nr-zero", "nt-zero",
             "both-negative", "nr-float", "nt-string", "power-none", "power-string"],
    )
    def test_rejects(self, kw, match):
        with pytest.raises(ValueError, match=match):
            GainCalibration(**kw)

    def test_calibrate_alphas_rejects_zero_power(self):
        ps = PathSet([1.0], [1e-8], [0.0], [0.0], [0.0], [0.0], fields=[0.01])
        with pytest.raises(ValueError, match="p_t"):
            calibrate_alphas(ps, 0.02, GainCalibration(p_t=0.0, nr=4, nt=16))

    @pytest.mark.parametrize("wavelength", [-0.02, 0.0, np.nan, "x"])
    def test_calibrate_alphas_rejects_wavelength(self, wavelength):
        ps = PathSet([1.0], [1e-8], [0.0], [0.0], [0.0], [0.0], fields=[0.01])
        with pytest.raises(ValueError, match="wavelength"):
            calibrate_alphas(ps, wavelength, GainCalibration())

    def test_calibrate_alphas_applies_gain_formula(self):
        ps = PathSet([0j], [1e-8], [0.0], [0.0], [0.0], [0.0], fields=[0.01])
        lam, p_t, nr, nt = 0.02, 2.0, 4, 16
        cal = calibrate_alphas(ps, lam, GainCalibration(p_t, nr, nt))
        expect = lam * 0.01 / math.sqrt(8 * math.pi * ETA0 * p_t * nr * nt)
        assert cal.alphas[0] == pytest.approx(expect, rel=1e-12)


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
        # channel-side RSS, with the gains calibrated for that transmit power and
        # those array sizes, equals the field-side RSS for any receiver.
        scene = free_space(max_bounces=0)
        rx_geom, tx_geom = ArrayGeometry(*dims[:2]), ArrayGeometry(*dims[2:])
        calib = GainCalibration(p_t=p_t, nr=rx_geom.size, nt=tx_geom.size)
        ps = calibrate_alphas(trace_paths(scene, rx), scene.wavelength, calib)
        assert len(ps) == 1
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
            - 0.7 * np.exp(-2j * np.pi * d1 / lam) / d1
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
            ("spacing", "1"),
            ("spacing", None),
            ("origin", ["x", 0.0]),
            ("rx_height", "x"),
            ("rx_height", None),
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

    @pytest.mark.parametrize("xy", [(50.0, 0.0), (0.0, -0.6)])
    def test_nearest_cell_off_the_map_errors(self, xy):
        with pytest.raises(ValueError, match="outside the RSS map bounds"):
            self.map.nearest_cell(xy)

    def test_point_far_off_a_fine_grid_is_outside_not_an_overflow(self):
        fine = RssMap(origin=(0.0, 0.0), spacing=1e-300, values=np.ones((4, 4)), rx_height=1.5)
        with pytest.raises(ValueError, match="outside the RSS map bounds"):
            fine.nearest_cell((1e10, 0.0))
        with pytest.raises(ValueError, match="outside the RSS map bounds"):
            rss_patch_at(fine, (0.0, -1e10), 3)

    def test_even_patch_side_rejected(self):
        with pytest.raises(ValueError):
            rss_patch_at(self.map, (3.0, 3.0), 4)

    @pytest.mark.parametrize(
        "values", [5.0, [[np.nan]], np.zeros((2, 3))], ids=["scalar", "nan", "oblong"]
    )
    def test_patch_values_must_be_finite_and_square(self, values):
        with pytest.raises(ValueError, match="patch values"):
            RssPatch(values=values, center=(0, 0))


VALUES, GRID = np.ones((2, 3), np.float32), np.array([0.0, 0.0, 1.0, 1.5])


def map_npz(**entries) -> bytes:
    """A map file of ``VALUES`` and ``GRID`` with ``entries`` replacing (``None``
    dropping) or adding entries."""
    arrays = {"values": VALUES, "grid": GRID} | entries
    return npz_bytes(*[(f"{k}.npy", v) for k, v in arrays.items() if v is not None])


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

    @pytest.mark.parametrize("field", [0, 1, 2, 3], ids=["ox", "oy", "spacing", "rx_h"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_header_rejected(self, tmp_path, field, bad):
        grid = GRID.copy()
        grid[field] = bad
        path = tmp_path / "map.rssm"
        path.write_bytes(map_npz(grid=grid))
        with pytest.raises(ValueError, match="finite"):
            load_rss_map(path)

    def test_values_beyond_float32_rejected(self, tmp_path):
        path = tmp_path / "big.rssm"
        with pytest.raises(ValueError, match="float32"):
            save_rss_map(RssMap(np.zeros(2), 1.0, np.full((2, 2), 1e39), 1.5), path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw[:10],
            lambda raw: raw[:-1],
            lambda raw: raw + b"\x00",
            lambda raw: map_npz(values=-VALUES),
            lambda raw: map_npz(values=VALUES.astype(np.float64)),
            lambda raw: map_npz(grid=np.zeros(4, np.float32)),
            lambda raw: map_npz(grid=np.zeros(3)),
            lambda raw: map_npz(values=np.ones(3, np.float32)),
            lambda raw: map_npz(values=np.array([[None]], object)),
            lambda raw: map_npz(grid=None),
            lambda raw: map_npz(mask=np.ones((2, 3), np.float32)),
            lambda raw: map_npz(values=b"RSSM"),
            lambda raw: npz_bytes(("grid.npy", GRID), *[("values.npy", VALUES)] * 2),
            lambda raw: npz_bytes(("grid.npy", GRID), ("values", VALUES)),
        ],
        ids=["cut-header", "cut-values", "trailing-byte", "negative-value", "float64-values",
             "float32-grid", "grid-of-3", "1-d-values", "object-values", "missing-grid",
             "extra-entry", "not-an-array", "duplicate-entry", "not-npy"],
    )
    def test_malformed_file_raises_value_error(self, tmp_path, edit):
        path = tmp_path / "map.rssm"
        save_rss_map(RssMap(np.zeros(2), 1.0, np.ones((2, 3)), 1.5), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError):
            load_rss_map(path)

    def test_every_cut_raises_value_error(self, tmp_path):
        path = tmp_path / "map.rssm"
        save_rss_map(RssMap(np.zeros(2), 1.0, np.ones((2, 3)), 1.5), path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="malformed RSS map"):
                load_rss_map(path)

    def test_file_is_an_npz_at_exactly_the_path(self, tmp_path):
        m = RssMap(np.array([-4.0, 3.0]), 2.0, np.arange(6.0).reshape(2, 3), 1.5)
        path = tmp_path / "rss_map-123.bin"
        save_rss_map(m, path)
        assert [p.name for p in tmp_path.iterdir()] == ["rss_map-123.bin"]
        with np.load(path) as npz:
            assert npz.files == ["values", "grid"]
            assert (npz["values"].dtype, npz["grid"].dtype) == (np.float32, np.float64)
            np.testing.assert_array_equal(npz["values"], m.values)
            np.testing.assert_array_equal(npz["grid"], [-4.0, 3.0, 2.0, 1.5])

    @pytest.mark.parametrize(
        "field,bad,match",
        [("values", np.nan, r"RSS values\[1, 2\]=nan is not finite"),
         ("values", np.inf, r"RSS values\[1, 2\]=inf is not finite"),
         ("values", -1.0, r"RSS values\[1, 2\]=-1.0 is negative"),
         ("spacing", 0.0, "spacing"),
         ("rx_height", np.nan, "rx_height")],
        ids=["nan-value", "inf-value", "negative-value", "zero-spacing", "nan-rx-height"],
    )
    def test_map_changed_after_construction_is_not_saved(self, tmp_path, field, bad, match):
        m = RssMap(np.zeros(2), 1.0, np.ones((2, 3)), 1.5)
        if field == "values":
            m.values[1, 2] = bad
        else:
            setattr(m, field, bad)
        path = tmp_path / "map.rssm"
        with pytest.raises(ValueError, match=match):
            save_rss_map(m, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "rss_map", [None, np.ones((2, 2)), "map"], ids=["none", "array", "str"])
    def test_save_rejects_a_non_map_and_writes_nothing(self, tmp_path, rss_map):
        path = tmp_path / "map.rssm"
        with pytest.raises(ValueError, match="must be an RssMap"):
            save_rss_map(rss_map, path)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rssm"
        for raw in (b"XXXX" + b"\x00" * 64, npy_bytes(np.ones((2, 3), np.float32))):
            path.write_bytes(raw)
            with pytest.raises(ValueError, match="malformed RSS map"):
                load_rss_map(path)
