import io
import math
import struct

import numpy as np
import pytest

from mbce import propagation
from mbce.channel_model import ArrayGeometry, Path, PathSet, PulseConfig, synth_channel
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


class TestTracePaths:
    def test_free_space_yields_los_and_ground_bounce(self):
        scene = free_space()
        rx = (100.0, 0.0, 20.0)
        ps = trace_paths(scene, rx)
        assert len(ps) == 2
        los = min(ps, key=lambda p: p.toa)
        assert los.toa == pytest.approx(100.0 / C0, rel=1e-12)
        # ground bounce unfolds to the image-source distance
        ground = max(ps, key=lambda p: p.toa)
        d_img = math.hypot(100.0, 40.0)
        assert ground.toa == pytest.approx(d_img / C0, rel=1e-12)

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
        dists = sorted(p.toa * C0 for p in ps)
        assert any(abs(d - d_expect) < 1e-9 for d in dists)

    def test_reciprocity_of_geometry(self):
        wall = Box(30.0, 40.0, -60.0, 60.0, 0.0, 50.0)
        kwargs = dict(buildings=(wall,), carrier_freq=CARRIER, max_bounces=2)
        a, b = (0.0, -20.0, 10.0), (5.0, 25.0, 3.0)
        fwd = trace_paths(Scene(tx_position=a, **kwargs), b)
        rev = trace_paths(Scene(tx_position=b, **kwargs), a)
        assert len(fwd) == len(rev)
        np.testing.assert_allclose(
            sorted(p.toa for p in fwd), sorted(p.toa for p in rev), rtol=1e-12
        )
        for pf in fwd:
            pr = min(rev, key=lambda p: abs(p.toa - pf.toa))
            # departure/arrival roles swap when endpoints swap
            assert pf.aod_az == pytest.approx(pr.aoa_az, abs=1e-9)
            assert pf.aod_el == pytest.approx(pr.aoa_el, abs=1e-9)

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
    def test_single_on_grid_path_field_channel_identity(self):
        scene = free_space(max_bounces=0)
        rx_geom, tx_geom = ArrayGeometry(2, 2), ArrayGeometry(4, 2)
        p_t = 2.5
        calib = GainCalibration(p_t=p_t, nr=rx_geom.size, nt=tx_geom.size)
        ps = trace_paths(scene, (80.0, 10.0, 1.5), calib)
        assert len(ps) == 1
        path = ps[0]
        # Put the path on the tap grid via the clock offset.
        cfg = PulseConfig(ts=1e-8, beta=0.3, t_off=path.toa)
        h = synth_channel(ps, 4, cfg, rx_geom, tx_geom)
        lhs = rss_from_channel(h, p_t)
        rhs = rss_from_fields([path.field], scene.wavelength)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_phase_averaged_multipath_identity(self):
        # Eq-4-side expectation realized over uniform path phases; on-grid
        # delays so sampled pulse energy is exactly 1 per path.
        rng = np.random.default_rng(42)
        rx_geom, tx_geom = ArrayGeometry(2, 1), ArrayGeometry(2, 2)
        p_t = 1.0
        lam = C0 / CARRIER
        ts = 1e-8
        n_paths, n_draws = 4, 2000
        mags = rng.uniform(0.001, 0.01, size=n_paths)
        taps = rng.integers(0, 4, size=n_paths)
        angs = rng.uniform(-1.2, 1.2, size=(n_paths, 4))

        def build(phases):
            paths = []
            for m, tap, a, ph in zip(mags, taps, angs, phases):
                e = m * np.exp(1j * ph)
                paths.append(
                    Path(
                        alpha=0j,
                        toa=tap * ts,
                        aoa_az=a[0],
                        aoa_el=a[1] / 2,
                        aod_az=a[2],
                        aod_el=a[3] / 2,
                        field=e,
                    )
                )
            return calibrate_alphas(PathSet(paths), lam, p_t, rx_geom.size, tx_geom.size)

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


class TestImportPaths:
    def test_header_only(self):
        assert import_paths(io.StringIO(HEADER + "\n")) == []

    def test_single_row_verbatim(self):
        text = HEADER + "\n1,0,0.5,-0.25,3.3e-7,0.1,-0.2,1.0,0.05\n"
        out = import_paths(io.StringIO(text))
        assert len(out) == 1
        sid, ps = out[0]
        assert sid == 1 and len(ps) == 1
        p = ps[0]
        assert p.field == 0.5 - 0.25j
        assert p.toa == 3.3e-7
        assert (p.aoa_az, p.aoa_el, p.aod_az, p.aod_el) == (0.1, -0.2, 1.0, 0.05)
        assert p.alpha == 0j

    def test_exponential_and_fixed_notation_agree(self):
        row_exp = "2,0,1.5e-1,0.0,2.5e-8,0.0,0.0,0.0,0.0"
        row_fix = "2,0,0.15,0.0,0.000000025,0.0,0.0,0.0,0.0"
        a = import_paths(io.StringIO(HEADER + "\n" + row_exp + "\n"))
        b = import_paths(io.StringIO(HEADER + "\n" + row_fix + "\n"))
        assert a[0][1][0] == b[0][1][0]

    def test_groups_preserve_row_order(self):
        text = HEADER + "\n"
        text += "7,0,1,0,1e-8,0,0,0,0\n"
        text += "3,0,2,0,1e-8,0,0,0,0\n"
        text += "7,1,3,0,2e-8,0,0,0,0\n"
        out = import_paths(io.StringIO(text))
        assert [sid for sid, _ in out] == [7, 3]
        assert [p.field.real for p in out[0][1]] == [1.0, 3.0]

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

    def test_unknown_column_rejected(self):
        text = HEADER + ",extra\n"
        with pytest.raises(PathImportError, match="unknown column"):
            import_paths(io.StringIO(text))

    def test_calibrate_alphas_applies_gain_formula(self):
        text = HEADER + "\n0,0,0.01,0.0,1e-8,0,0,0,0\n"
        (_, ps), = import_paths(io.StringIO(text))
        lam, p_t, nr, nt = 0.02, 2.0, 4, 16
        cal = calibrate_alphas(ps, lam, p_t, nr, nt)
        expect = lam * 0.01 / math.sqrt(8 * math.pi * ETA0 * p_t * nr * nt)
        assert cal[0].alpha == pytest.approx(expect, rel=1e-12)


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
