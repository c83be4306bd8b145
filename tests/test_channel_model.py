import math
from dataclasses import astuple

import numpy as np
import pytest

from mbce import _checks, channel_model, estimation
from mbce.channel_model import (
    ArrayGeometry,
    ChannelTensor,
    PathSet,
    PulseConfig,
    raised_cosine,
    rank_one_taps,
    steering_vector,
    synth_channel,
    ura_from_cosines,
    ura_response,
)

from references import channel_frequency_response


def broadside_path(alpha=1.0 + 0j, toa=0.0):
    return PathSet([alpha], [toa], [0.0], [0.0], [0.0], [0.0])


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(steering_vector(0.0, 4), np.ones(4))

    def test_endfire_two_elements(self):
        np.testing.assert_allclose(steering_vector(1.0, 2), [1.0, -1.0], atol=1e-15)

    def test_half_cosine_four_elements(self):
        np.testing.assert_allclose(
            steering_vector(0.5, 4), [1.0, -1j, -1.0, 1j], atol=1e-15
        )

    def test_unit_magnitude_everywhere(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-1, 1, size=20):
            v = steering_vector(theta, 16)
            np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            steering_vector(0.0, 0)


@pytest.mark.parametrize(
    "call,name",
    [(lambda: steering_vector("0.5", 2), "theta"),
     (lambda: steering_vector(np.nan, 2), "theta"),
     (lambda: ura_from_cosines([0.1, np.inf], 0.0, ArrayGeometry(2, 1)), "ux"),
     (lambda: ura_from_cosines(0.0, "0", ArrayGeometry(2, 1)), "uy"),
     (lambda: ura_response(["0.1"], 0.0, ArrayGeometry(2, 1)), "az"),
     (lambda: ura_response(0.0, np.nan, ArrayGeometry(2, 1)), "el"),
     (lambda: raised_cosine("1", PulseConfig(ts=1e-9)), "t"),
     (lambda: raised_cosine([0.0, -np.inf], PulseConfig(ts=1e-9)), "t")],
    ids=["steering-text", "steering-nan", "ura-cosine-inf", "ura-cosine-text", "ura-angle-text",
         "ura-angle-nan", "pulse-text", "pulse-inf"],
)
def test_array_arguments_must_be_finite_numbers(call, name):
    with pytest.raises(ValueError, match=rf"^{name}[ \[=]"):
        call()


def test_synthesis_and_dictionary_check_their_arrays_once(monkeypatch):
    # the public entry points check; the URA cores they share check nothing
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _checks.finite_array(*args, **kwargs)

    for module in (channel_model, estimation):
        monkeypatch.setattr(module, "finite_array", counted)
    geom = ArrayGeometry(4, 2)
    paths = PathSet([1.0, 0.5j], [0.0, 2e-9], [0.1, -0.4], [0.2, 0.0], [0.3, 1.0], [-0.1, 0.5])
    calls.clear()
    synth_channel(paths, 8, PulseConfig(ts=1e-9), geom, geom)
    assert len(calls) <= 4, calls
    calls.clear()
    estimation.OmpDictionary.build(8, geom, geom)
    assert len(calls) <= 2, calls


class TestUraResponse:
    def test_broadside_all_ones(self):
        geom = ArrayGeometry(2, 2)
        np.testing.assert_allclose(ura_response(0.0, 0.0, geom), np.ones(4))

    def test_endfire_reduces_to_linear_array(self):
        geom = ArrayGeometry(2, 1)
        np.testing.assert_allclose(
            ura_response(math.pi / 2, 0.0, geom), steering_vector(1.0, 2), atol=1e-15
        )

    def test_matches_per_element_phase_oracle(self):
        # Oracle: the planar phase accumulated element by element.
        geom = ArrayGeometry(2, 2)
        az, el = math.pi / 4, math.pi / 6
        t_par = math.cos(el) * math.sin(az)
        t_perp = math.sin(el)
        expect = np.array(
            [
                np.exp(-1j * np.pi * (ix * t_par + iy * t_perp))
                for ix in range(2)
                for iy in range(2)
            ]
        )
        np.testing.assert_allclose(ura_response(az, el, geom), expect, atol=1e-12)

    def test_kronecker_consistency_random_draws(self):
        rng = np.random.default_rng(7)
        geom = ArrayGeometry(3, 4)
        for _ in range(100):
            az = rng.uniform(-math.pi, math.pi)
            el = rng.uniform(-math.pi / 2, math.pi / 2)
            t_par = math.cos(el) * math.sin(az)
            t_perp = math.sin(el)
            expect = np.array(
                [
                    np.exp(-1j * np.pi * (ix * t_par + iy * t_perp))
                    for ix in range(3)
                    for iy in range(4)
                ]
            )
            np.testing.assert_allclose(ura_response(az, el, geom), expect, atol=1e-12)


class TestPathAndPulseChecks:
    @pytest.mark.parametrize(
        "name,bad",
        [
            ("alpha", complex(np.nan, 0.0)),
            ("alpha", complex(0.0, np.inf)),
            ("toa", np.nan),
            ("toa", np.inf),
            ("field", complex(np.inf, 0.0)),
        ],
    )
    def test_path_rejects_non_finite(self, name, bad):
        # ``name`` is the singular of the column it corrupts: alpha -> alphas
        good = dict(alphas=[1.0, 2.0], toas=[0.0, 1e-9], aoa_az=[0.0, 0.0], aoa_el=[0.0, 0.0],
                    aod_az=[0.0, 0.0], aod_el=[0.0, 0.0])
        with pytest.raises(ValueError, match=rf"{name}s\[1\]=.*not finite"):
            PathSet(**{**good, name + "s": [1.0, bad]})

    @pytest.mark.parametrize(
        "name,bad,match",
        [
            ("toas", [0.0, -1e-12], r"toas\[1\]=.* >= 0"),
            ("aoa_el", [0.0, math.pi / 2 + 1e-9], r"aoa_el\[1\]=.*\[-pi/2, pi/2\]"),
            ("aod_el", [-math.pi / 2 - 1e-9, 0.0], r"aod_el\[0\]=.*\[-pi/2, pi/2\]"),
            ("aoa_az", [0.0, math.pi + 1e-9], r"aoa_az\[1\]=.*\(-pi, pi\]"),
            ("aod_az", [0.0, -math.pi - 1e-9], r"aod_az\[1\]=.*\(-pi, pi\]"),
            ("aoa_el", [np.nan, 0.0], r"aoa_el\[0\]=nan"),
            ("aod_az", [0.0, np.nan], r"aod_az\[1\]=nan"),
            ("aoa_az", [0.0], r"aoa_az has shape \(1,\)"),
            ("fields", [0j, 0j, 0j], r"fields has shape \(3,\)"),
            ("alphas", [[1.0, 2.0]], "1-D"),
            ("alphas", ["1", "2"], "alphas must be numeric"),
            ("toas", ["0", "1e-9"], "toas must be numeric"),
            ("fields", [b"0", 0j], "fields must be numeric"),
            ("toas", np.array(["0", 1e-9], dtype=object), "toas must be numeric"),
        ],
        ids=["toa-negative", "aoa-el-above", "aod-el-below", "aoa-az-above", "aod-az-below",
             "aoa-el-nan", "aod-az-nan", "short-column", "long-fields", "2-d", "alphas-string",
             "toas-string", "fields-bytes", "toas-object-string"],
    )
    def test_path_set_rejects_out_of_range(self, name, bad, match):
        good = dict(alphas=[1.0, 2.0], toas=[0.0, 1e-9], aoa_az=[math.pi, 0.0],
                    aoa_el=[0.0, -math.pi / 2], aod_az=[0.0, 0.0], aod_el=[math.pi / 2, 0.0])
        PathSet(**good)
        with pytest.raises(ValueError, match=match):
            PathSet(**{**good, name: bad})

    def test_path_set_columns_and_default_fields(self):
        ps = PathSet([1, 2j], [0, 1e-9], [0, 0], [0, 0], [0, 0], [0, 0])
        assert len(ps) == 2
        assert ps.alphas.dtype == ps.fields.dtype == np.complex128
        assert all(getattr(ps, c).dtype == np.float64
                   for c in ("toas", "aoa_az", "aoa_el", "aod_az", "aod_el"))
        np.testing.assert_array_equal(ps.fields, [0j, 0j])

    @pytest.mark.parametrize(
        "dims,match",
        [((0, 2), "nx"), ((2, -1), "ny"), ((2.5, 2), "nx"),
         ((2, "2"), "ny"), ((2, None), "ny")],
    )
    def test_array_geometry_rejects(self, dims, match):
        with pytest.raises(ValueError, match=match):
            ArrayGeometry(*dims)

    def test_array_geometry_counts_are_ints(self):
        geom = ArrayGeometry(np.int64(3), np.int32(2))
        assert (type(geom.nx), type(geom.ny), geom.size) == (int, int, 6)

    @pytest.mark.parametrize(
        "kw",
        [dict(ts=np.nan), dict(ts=np.inf), dict(ts=1e-9, t_off=np.nan), dict(ts="1"),
         dict(ts=None), dict(ts=1e-9, beta="0.3"), dict(ts=1e-9, beta=None),
         dict(ts=1e-9, t_off="0"), dict(ts=1e-9, t_off=None)],
    )
    def test_pulse_rejects_non_finite(self, kw):
        with pytest.raises(ValueError, match="finite"):
            PulseConfig(**kw)


class TestRaisedCosine:
    def test_peak_is_one(self):
        cfg = PulseConfig(ts=1e-9, beta=0.3)
        assert raised_cosine(0.0, cfg) == 1.0

    def test_nyquist_zero_crossing(self):
        cfg = PulseConfig(ts=1e-9, beta=0.0)
        assert raised_cosine(1e-9, cfg) == 0.0

    def test_half_sample_closed_form(self):
        # Independent closed-form evaluation at t = ts/2, beta = 0.3.
        ts, beta = 2e-9, 0.3
        cfg = PulseConfig(ts=ts, beta=beta)
        x = 0.5
        expect = (
            math.sin(math.pi * x)
            / (math.pi * x)
            * math.cos(math.pi * beta * x)
            / (1 - (2 * beta * x) ** 2)
        )
        assert raised_cosine(0.5 * ts, cfg) == pytest.approx(expect, rel=1e-14)

    def test_singularity_uses_analytic_limit(self):
        beta = 0.3
        cfg = PulseConfig(ts=1.0, beta=beta)
        t_sing = 1.0 / (2 * beta)
        expect = (math.pi / 4) * np.sinc(1.0 / (2 * beta))
        assert raised_cosine(t_sing, cfg) == pytest.approx(expect, rel=1e-10)
        # continuity across the singular point
        assert raised_cosine(t_sing * (1 + 1e-7), cfg) == pytest.approx(expect, rel=1e-4)

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.3, 0.5, 1.0])
    def test_nyquist_property_on_grid(self, beta):
        cfg = PulseConfig(ts=1e-9, beta=beta)
        for k in range(-6, 7):
            expect = 1.0 if k == 0 else 0.0
            assert raised_cosine(k * 1e-9, cfg) == expect


class TestSynthChannel:
    def setup_method(self):
        self.rx = ArrayGeometry(2, 1)
        self.tx = ArrayGeometry(2, 1)
        self.cfg = PulseConfig(ts=1e-9, beta=0.3)

    def test_single_on_grid_path_isolated_tap(self):
        ps = broadside_path(toa=3e-9)
        h = synth_channel(ps, 8, self.cfg, self.rx, self.tx)
        np.testing.assert_array_equal(h.taps[3], np.ones((2, 2)))
        mask = np.ones(8, dtype=bool)
        mask[3] = False
        assert np.all(h.taps[mask] == 0)

    def test_linear_in_gain(self):
        ps = broadside_path(alpha=2j, toa=3e-9)
        h = synth_channel(ps, 8, self.cfg, self.rx, self.tx)
        np.testing.assert_array_equal(h.taps[3], 2j * np.ones((2, 2)))

    def test_matches_triple_loop_oracle_off_grid(self):
        rng = np.random.default_rng(3)
        rows = [
            (
                complex(rng.normal(), rng.normal()),
                float(rng.uniform(0, 5e-9)),
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(-math.pi / 2, math.pi / 2)),
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(-math.pi / 2, math.pi / 2)),
            )
            for _ in range(2)
        ]
        ps = PathSet(*zip(*rows))
        d = 8
        h = synth_channel(ps, d, self.cfg, self.rx, self.tx)

        # Brute-force per-element accumulation.
        expect = np.zeros((d, 2, 2), dtype=np.complex128)
        for p in range(len(ps)):
            a_r = ura_response(ps.aoa_az[p], ps.aoa_el[p], self.rx)
            a_t = ura_response(ps.aod_az[p], ps.aod_el[p], self.tx)
            for di in range(d):
                w = raised_cosine(di * self.cfg.ts - ps.toas[p], self.cfg)
                for i in range(2):
                    for j in range(2):
                        expect[di, i, j] += ps.alphas[p] * w * a_r[i] * a_t[j]
        np.testing.assert_allclose(h.taps, expect, rtol=1e-12, atol=1e-15)

    def test_linearity_over_pathset_concat(self):
        rng = np.random.default_rng(11)
        mk = lambda: (
            complex(rng.normal(), rng.normal()),
            float(rng.uniform(0, 6e-9)),
            float(rng.uniform(-3, 3)),
            float(rng.uniform(-1.5, 1.5)),
            float(rng.uniform(-3, 3)),
            float(rng.uniform(-1.5, 1.5)),
        )
        a, b = PathSet(*zip(mk(), mk())), PathSet(*zip(mk()))
        ab = PathSet(*map(np.concatenate, zip(astuple(a), astuple(b))))
        h_ab = synth_channel(ab, 8, self.cfg, self.rx, self.tx)
        h_a = synth_channel(a, 8, self.cfg, self.rx, self.tx)
        h_b = synth_channel(b, 8, self.cfg, self.rx, self.tx)
        np.testing.assert_allclose(h_ab.taps, h_a.taps + h_b.taps, rtol=1e-13)

    def test_clock_offset_shifts_taps(self):
        cfg = PulseConfig(ts=1e-9, beta=0.3, t_off=2e-9)
        ps = broadside_path(toa=5e-9)
        h = synth_channel(ps, 8, cfg, self.rx, self.tx)
        assert np.all(h.taps[3] == 1.0)

    def test_rejects_bad_inputs(self):
        ps = broadside_path()
        with pytest.raises(ValueError):
            synth_channel(ps, 0, self.cfg, self.rx, self.tx)
        with pytest.raises(ValueError, match="no paths"):
            synth_channel(PathSet(*[[]] * 6), 4, self.cfg, self.rx, self.tx)


class TestFrequencyResponse:
    def test_delay_zero_is_flat(self):
        taps = np.zeros((4, 2, 2), dtype=np.complex128)
        taps[0] = np.array([[1, 2j], [3, 4]])
        h = ChannelTensor(taps)
        fr = channel_frequency_response(h, 8)
        for k in range(8):
            np.testing.assert_allclose(fr[k], taps[0])

    def test_zero_channel(self):
        h = ChannelTensor(np.zeros((4, 2, 2)))
        assert np.all(channel_frequency_response(h, 8) == 0)

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(5)
        taps = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
        h = ChannelTensor(taps)
        n_sc = 16
        fr = channel_frequency_response(h, n_sc)
        expect = np.zeros((n_sc, 2, 3), dtype=np.complex128)
        for k in range(n_sc):
            for d in range(4):
                expect[k] += taps[d] * np.exp(-2j * np.pi * k * d / n_sc)
        np.testing.assert_allclose(fr, expect, rtol=1e-12, atol=1e-14)

    def test_rejects_too_few_subcarriers(self):
        h = ChannelTensor(np.zeros((4, 2, 2)))
        with pytest.raises(ValueError):
            channel_frequency_response(h, 3)


@pytest.mark.parametrize("n_terms", [0, 1, 7])
def test_rank_one_taps_matches_per_term_sum(n_terms):
    rng = np.random.default_rng(n_terms)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    w, a_r, a_t = cplx(5, n_terms), cplx(n_terms, 3), cplx(n_terms, 4)
    expect = np.zeros((5, 3, 4), dtype=np.complex128)
    for d in range(5):
        for l in range(n_terms):
            expect[d] += w[d, l] * np.outer(a_r[l], a_t[l])
    np.testing.assert_allclose(rank_one_taps(w, a_r, a_t).taps, expect, rtol=1e-12, atol=1e-12)


def test_channel_tensor_validates_finiteness():
    bad = np.zeros((2, 2, 2), dtype=np.complex128)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ChannelTensor(bad)
