import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mbce.channel_model import (
    ArrayGeometry,
    ChannelTensor,
    PathSet,
    PulseConfig,
    steering_vector,
    synth_channel,
)
from mbce.estimation import (
    OmpDictionary,
    PilotConfig,
    PilotObservation,
    interpolate_full_band,
    ls_estimate,
    nmse,
    nmse_db,
    omp_estimate,
    to_time_domain,
    transmit_pilots,
)

from references import channel_frequency_response, interp_reference


def random_channel(rng, d=4, nr=2, nt=4):
    taps = rng.normal(size=(d, nr, nt)) + 1j * rng.normal(size=(d, nr, nt))
    return ChannelTensor(taps)


def coarse_chain(h, cfg, seed):
    """Pilots -> LS -> band interpolation -> taps: the coarse estimate of ``h``."""
    est = ls_estimate(transmit_pilots(h, cfg, seed), cfg)
    return to_time_domain(interpolate_full_band(est, cfg), h.d)


class TestTransmitPilots:
    def test_noiseless_is_exact_product(self):
        rng = np.random.default_rng(0)
        h = random_channel(rng)
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=4)
        obs = transmit_pilots(h, cfg, 1)
        hk = channel_frequency_response(h, 16)[list(cfg.placement)]
        np.testing.assert_allclose(obs.y, hk @ cfg.pilot_matrix, rtol=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        h = random_channel(rng)
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=4, snr_db=0.0)
        a = transmit_pilots(h, cfg, 77)
        b = transmit_pilots(h, cfg, 77)
        np.testing.assert_array_equal(a.y, b.y)

    def test_rejects_too_many_taps(self):
        h = ChannelTensor(np.zeros((8, 2, 2)))
        with pytest.raises(ValueError):
            transmit_pilots(h, PilotConfig(n_sc=4, n_pilot=2, nt=2), 0)

    def test_snr_sets_noise_level(self):
        rng = np.random.default_rng(3)
        h = random_channel(rng, d=2, nr=2, nt=2)
        cfg = PilotConfig(n_sc=8, n_pilot=8, nt=2, snr_db=10.0)
        clean = transmit_pilots(h, PilotConfig(n_sc=8, n_pilot=8, nt=2), 0)
        p_sig = np.mean(np.abs(clean.y) ** 2)
        noise_pow = []
        for seed in range(200):
            obs = transmit_pilots(h, cfg, seed)
            noise_pow.append(np.mean(np.abs(obs.y - clean.y) ** 2))
        assert np.mean(noise_pow) == pytest.approx(p_sig / 10.0, rel=0.05)


class TestPilotConfigChecks:
    @pytest.mark.parametrize(
        "kw,match",
        [
            (dict(snr_db=np.nan), "snr_db"),
            (dict(snr_db=np.inf), "snr_db"),
            (dict(nt=0), "nt"),
            (dict(nt=-1), "nt"),
            (dict(n_sc=16.5), "n_sc"),
            (dict(n_pilot=4.0), "n_pilot"),
            (dict(nt=2.5), "nt"),
            (dict(nt="2"), "nt"),
            (dict(snr_db="10"), "snr_db"),
            (dict(snr_db="x"), "snr_db"),
        ],
        ids=["snr-nan", "snr-inf", "nt-zero", "nt-negative", "n_sc-float", "n_pilot-float",
             "nt-float", "nt-string", "snr-numeric-string", "snr-string"],
    )
    def test_rejects(self, kw, match):
        with pytest.raises(ValueError, match=match):
            PilotConfig(**{**dict(n_sc=16, n_pilot=4, nt=2), **kw})

    @pytest.mark.parametrize(
        "placement",
        [(0.5, 4, 8, 12), "abcd", 3, np.array(0), np.zeros((4, 1), dtype=int)],
        ids=["float", "string", "scalar", "0-d", "2-d"],
    )
    def test_rejects_non_integer_placement(self, placement):
        with pytest.raises(ValueError, match="placement"):
            PilotConfig(n_sc=16, n_pilot=4, nt=2, placement=placement)

    @pytest.mark.parametrize(
        "placement", [[0, 4, 8, 12], np.array([0, 4, 8, 12])], ids=["list", "ndarray"]
    )
    def test_placement_sequence_is_a_tuple_the_estimators_accept(self, placement):
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=2, snr_db=20.0, placement=placement)
        assert cfg.placement == (0, 4, 8, 12)
        assert all(type(k) is int for k in cfg.placement)
        obs = transmit_pilots(random_channel(np.random.default_rng(0), nt=2), cfg, 0)
        dictionary = OmpDictionary.build(4, ArrayGeometry(2, 1), ArrayGeometry(2, 1))
        assert ls_estimate(obs, cfg).shape == (4, 2, 2)
        assert omp_estimate(obs, cfg, dictionary, k_max=2).taps.shape == (4, 2, 2)

    def test_equal_configs_compare_equal_and_hash_alike(self):
        a = PilotConfig(n_sc=16, n_pilot=4, nt=2, snr_db=10.0)
        b = PilotConfig(n_sc=16, n_pilot=4, nt=2, snr_db=10.0, placement=[0, 4, 8, 12])
        _ = a.pilot_matrix  # a derived attribute, cached on one side only
        assert a == b and hash(a) == hash(b)
        assert a != PilotConfig(n_sc=16, n_pilot=4, nt=2, snr_db=20.0)

    def test_pilot_matrix_is_the_read_only_unitary_dft(self):
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=4)
        s = cfg.pilot_matrix
        assert cfg.pilot_matrix is s
        np.testing.assert_array_equal(s, np.fft.fft(np.eye(4)) / np.sqrt(4))
        np.testing.assert_allclose(s.conj().T @ s, np.eye(4), atol=1e-15)
        with pytest.raises(ValueError):
            s[0, 0] = 0.0

    def test_estimators_reject_mismatched_placement(self):
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=2)
        other = PilotConfig(n_sc=16, n_pilot=4, nt=2, placement=(1, 5, 9, 13))
        obs = transmit_pilots(random_channel(np.random.default_rng(0), nt=2), other, 0)
        dictionary = OmpDictionary.build(4, ArrayGeometry(2, 1), ArrayGeometry(2, 1))
        with pytest.raises(ValueError, match="placement"):
            ls_estimate(obs, cfg)
        with pytest.raises(ValueError, match="placement"):
            omp_estimate(obs, cfg, dictionary, k_max=1)


class TestObservationChecks:
    @pytest.mark.parametrize(
        "shape", [(5, 2, 2), (3, 2, 2), (4, 2), (4, 2, 2, 1)],
        ids=["extra-row", "missing-row", "2-d", "4-d"],
    )
    def test_observation_rejects_shape(self, shape):
        with pytest.raises(ValueError, match="observation"):
            PilotObservation(y=np.ones(shape, dtype=complex), placement=(0, 4, 8, 12))

    @pytest.mark.parametrize("shape", [(4, 3, 2), (4, 2, 1)], ids=["nr", "nt"])
    def test_omp_rejects_other_array_sizes(self, shape):
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=shape[2])
        dictionary = OmpDictionary.build(4, ArrayGeometry(2, 1), ArrayGeometry(2, 1))
        obs = PilotObservation(y=np.ones(shape, dtype=complex), placement=cfg.placement)
        with pytest.raises(ValueError, match="array"):
            omp_estimate(obs, cfg, dictionary, k_max=1)

    def test_omp_rejects_pilot_config_for_other_tx_array(self):
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=4)
        dictionary = OmpDictionary.build(4, ArrayGeometry(2, 1), ArrayGeometry(2, 1))
        obs = PilotObservation(y=np.ones((4, 2, 2), dtype=complex), placement=cfg.placement)
        with pytest.raises(ValueError, match="Nt"):
            omp_estimate(obs, cfg, dictionary, k_max=1)


class TestLsEstimate:
    def test_noiseless_recovers_subcarrier_response(self):
        rng = np.random.default_rng(4)
        h = random_channel(rng)
        cfg = PilotConfig(n_sc=16, n_pilot=16, nt=4)
        obs = transmit_pilots(h, cfg, 0)
        est = ls_estimate(obs, cfg)
        np.testing.assert_allclose(est, channel_frequency_response(h, 16), atol=1e-10)

    def test_rejects_config_for_other_tx_array(self):
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=4)
        obs = PilotObservation(y=np.ones((4, 2, 2), dtype=complex), placement=cfg.placement)
        with pytest.raises(ValueError, match="Nt"):
            ls_estimate(obs, cfg)

    def test_scalar_case(self):
        h = ChannelTensor(np.array([[[0.7 - 0.2j]]]))
        cfg = PilotConfig(n_sc=1, n_pilot=1, nt=1, snr_db=10.0)
        obs = transmit_pilots(h, cfg, 5)
        est = ls_estimate(obs, cfg)
        v = obs.y[0, 0, 0]  # s = 1 for the 1x1 DFT
        assert est[0, 0, 0] == pytest.approx(v)

    def test_error_scales_inverse_snr(self):
        # Monte-Carlo LS-error oracle: NMSE ~= 1/snr at the pilot subcarriers.
        rng = np.random.default_rng(6)
        snr_lin = 10.0
        ratios = []
        for trial in range(400):
            h = random_channel(rng, d=2, nr=2, nt=2)
            cfg = PilotConfig(
                n_sc=8, n_pilot=8, nt=2, snr_db=10 * math.log10(snr_lin)
            )
            obs = transmit_pilots(h, cfg, trial)
            est = ls_estimate(obs, cfg)
            hk = channel_frequency_response(h, 8)
            ratios.append(
                np.sum(np.abs(est - hk) ** 2) / np.sum(np.abs(hk) ** 2)
            )
        # 400 trials x 8 subcarriers x 4 entries > 1e4 draws
        assert np.mean(ratios) == pytest.approx(1.0 / snr_lin, rel=0.10)


class TestInterpolation:
    def test_flat_channel_exact(self):
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=2)
        flat = np.full((4, 2, 2), 0.3 - 0.8j)
        out = interpolate_full_band(flat, cfg)
        np.testing.assert_allclose(out, np.full((16, 2, 2), 0.3 - 0.8j), rtol=1e-12)

    def test_full_comb_is_identity(self):
        rng = np.random.default_rng(8)
        cfg = PilotConfig(n_sc=8, n_pilot=8, nt=2)
        est = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
        np.testing.assert_allclose(interpolate_full_band(est, cfg), est, rtol=1e-12)

    def test_linear_phase_ramp_reconstructed(self):
        # Single path at integer delay: constant magnitude, linear phase.
        # Interior subcarriers interpolate exactly; the only error is the
        # held band edge, 4 * sum_j sin^2(pi*3*j/512) / 512 ~ -44 dB.
        rx, tx = ArrayGeometry(1, 1), ArrayGeometry(2, 1)
        pulse = PulseConfig(ts=1e-9, beta=0.3)
        ps = PathSet(alphas=[1.0], toas=[3e-9], aoa_az=[0], aoa_el=[0], aod_az=[0.4], aod_el=[0.1])
        h = synth_channel(ps, 8, pulse, rx, tx)
        cfg = PilotConfig(n_sc=512, n_pilot=128, nt=2)
        est = coarse_chain(h, cfg, 0)
        assert nmse_db(est, h) < -40.0

        # Frequency-domain error equals the closed-form edge-hold loss.
        obs = transmit_pilots(h, cfg, 0)
        full = interpolate_full_band(ls_estimate(obs, cfg), cfg)
        hf = channel_frequency_response(h, 512)
        freq_nmse = np.sum(np.abs(full - hf) ** 2) / np.sum(np.abs(hf) ** 2)
        edge_err = 4 * sum(math.sin(math.pi * 3 * j / 512) ** 2 for j in (1, 2, 3))
        assert freq_nmse == pytest.approx(edge_err / 512, rel=1e-9)

    @pytest.mark.parametrize(
        "n_sc, placement, dims",
        [
            (4096, (0, 4095), (2, 3)),
            (65536, (0, 65535), (2, 3)),
            (256, tuple(np.sort(np.random.default_rng(21).choice(256, 8, replace=False))), (16, 32)),
        ],
        ids=["gap4095", "gap65535", "random8of256"],
    )
    def test_long_gaps_match_per_entry_reference(self, n_sc, placement, dims):
        rng = np.random.default_rng(n_sc)
        shape = (len(placement),) + dims
        est = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        cfg = PilotConfig(n_sc=n_sc, n_pilot=len(placement), nt=1, placement=placement)
        np.testing.assert_allclose(
            interpolate_full_band(est, cfg),
            interp_reference(est, placement, n_sc),
            rtol=0,
            atol=1e-12 * np.abs(est).max(),
        )

    @pytest.mark.parametrize(
        "est",
        [
            np.full((4, 1, 1), np.nan + 0j),
            np.full((4, 1, 1), np.inf + 0j),
            np.array(1.0 + 0j),
            np.full((4, 1, 1), "1"),
            np.ones((3, 1, 1), dtype=complex),
        ],
        ids=["nan", "inf", "0-d", "text", "rows"],
    )
    def test_rejects_malformed_estimates(self, est):
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=1)
        with pytest.raises(ValueError, match="pilot estimates"):
            interpolate_full_band(est, cfg)

    def test_single_pilot_constant_extrapolation(self):
        cfg = PilotConfig(n_sc=8, n_pilot=1, nt=1)
        est = np.array([[[2.0 + 1j]]])
        out = interpolate_full_band(est, cfg)
        np.testing.assert_allclose(out, np.full((8, 1, 1), 2.0 + 1j))


class TestBenchSizeChain:
    """The coarse chain at the benchmark's sizes: 32 comb pilots over 256
    subcarriers, 4x4 rx and 8x4 tx arrays, 32 taps."""

    def test_pilots_are_band_response_rows(self):
        h = random_channel(np.random.default_rng(5), d=32, nr=16, nt=32)
        cfg = PilotConfig(n_sc=256, n_pilot=32, nt=32)
        hk = channel_frequency_response(h, 256)[list(cfg.placement)]
        np.testing.assert_allclose(transmit_pilots(h, cfg, 0).y, hk @ cfg.pilot_matrix, rtol=1e-12)

    def test_interpolation_and_idft_match_reference(self):
        h = random_channel(np.random.default_rng(6), d=32, nr=16, nt=32)
        cfg = PilotConfig(n_sc=256, n_pilot=32, nt=32, snr_db=10.0)
        est = ls_estimate(transmit_pilots(h, cfg, 0), cfg)
        want = np.fft.ifft(interp_reference(est, cfg.placement, 256), axis=0)[:32]
        got = to_time_domain(interpolate_full_band(est, cfg), 32).taps
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestBandMemory:
    """Peak memory of the band steps at the benchmark's sizes: a ``[32, 16, 32]``
    pilot estimate, 256 subcarriers, 32 taps. numpy reports its buffers to
    ``tracemalloc``; the peak is read on the second call, after a warm-up."""

    CFG = PilotConfig(n_sc=256, n_pilot=32, nt=32)

    @staticmethod
    def peak_of(fn, *args):
        fn(*args)
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_interpolation_holds_no_second_band(self):
        rng = np.random.default_rng(12)
        est = rng.normal(size=(32, 16, 32)) + 1j * rng.normal(size=(32, 16, 32))
        band, peak = self.peak_of(interpolate_full_band, est, self.CFG)
        assert peak <= 1.5 * band.nbytes

    def test_idft_holds_less_than_half_the_band(self):
        rng = np.random.default_rng(13)
        band = rng.normal(size=(256, 16, 32)) + 1j * rng.normal(size=(256, 16, 32))
        h, peak = self.peak_of(to_time_domain, band, 32)
        assert h.taps.shape == (32, 16, 32)
        assert peak <= 0.5 * band.nbytes


class TestToTimeDomain:
    def test_flat_response_is_single_tap(self):
        flat = np.full((8, 2, 2), 1.5 + 0.5j)
        h = to_time_domain(flat, 4)
        np.testing.assert_allclose(h.taps[0], np.full((2, 2), 1.5 + 0.5j), rtol=1e-12)
        np.testing.assert_allclose(h.taps[1:], 0, atol=1e-12)

    def test_taps_do_not_hold_the_full_transform(self):
        h = to_time_domain(np.ones((256, 2, 2), dtype=np.complex128), 4)
        assert h.taps.base is None

    def test_inverse_pair(self):
        rng = np.random.default_rng(10)
        h = random_channel(rng, d=4)
        back = to_time_domain(channel_frequency_response(h, 16), 4)
        np.testing.assert_allclose(back.taps, h.taps, atol=1e-10)

    def test_truncation_energy_partition(self):
        # Dropping taps removes exactly the dropped taps' energy relative to
        # the full-length inverse transform.
        rng = np.random.default_rng(11)
        h = random_channel(rng, d=6, nr=1, nt=1)
        freq = channel_frequency_response(h, 12)
        full = np.fft.ifft(freq, axis=0)
        trunc = to_time_domain(freq, 3)
        kept = np.sum(np.abs(trunc.taps) ** 2)
        dropped = np.sum(np.abs(full[3:]) ** 2)
        total = np.sum(np.abs(full) ** 2)
        assert kept + dropped == pytest.approx(total, rel=1e-12)

    def test_takes_a_nested_list(self):
        rng = np.random.default_rng(14)
        band = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
        np.testing.assert_array_equal(
            to_time_domain(band.tolist(), 4).taps, to_time_domain(band, 4).taps
        )

    @pytest.mark.parametrize(
        "band",
        [np.array(1.0 + 0j), np.ones((8, 4), dtype=complex), np.full((8, 1, 1), "1")],
        ids=["0-d", "2-d", "text"],
    )
    def test_rejects_malformed_band(self, band):
        with pytest.raises(ValueError, match="frequency response"):
            to_time_domain(band, 1)

    def test_rejects_overlong_truncation(self):
        with pytest.raises(ValueError):
            to_time_domain(np.zeros((4, 1, 1), dtype=complex), 5)

    @pytest.mark.parametrize("d", [0, -1, -4])
    def test_rejects_tap_count_below_one(self, d):
        with pytest.raises(ValueError, match="tap count"):
            to_time_domain(np.zeros((4, 1, 1), dtype=complex), d)


class TestNmse:
    def test_identical_channels_floor_at_minus_300_db(self):
        h = random_channel(np.random.default_rng(3))
        assert nmse(h, h) == 0.0 and nmse_db(h, h) == -300.0

    @pytest.mark.parametrize("est_shape", [(1, 2, 2), (32, 2, 1), (32, 1, 2)])
    def test_rejects_mismatched_shapes(self, est_shape):
        est, ref = ChannelTensor(np.ones(est_shape)), ChannelTensor(np.ones((32, 2, 2)))
        with pytest.raises(ValueError, match=r"\(32, 2, 2\)") as info:
            nmse(est, ref)
        assert str(est_shape) in str(info.value)


class TestCoarsePipeline:
    def test_noiseless_full_pilots_lossless(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            h = random_channel(rng, d=4, nr=2, nt=4)
            cfg = PilotConfig(n_sc=16, n_pilot=16, nt=4)
            est = coarse_chain(h, cfg, 0)
            assert nmse_db(est, h) < -60.0

    def test_zero_channel_returns_finite(self):
        # The noise level is relative to the received power, so a zero
        # channel is observed without noise and estimated as zero.
        h = ChannelTensor(np.zeros((4, 2, 2)))
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=2, snr_db=10.0)
        est = coarse_chain(h, cfg, 3)
        assert np.all(np.isfinite(est.taps))
        assert est.energy() == 0.0

    def test_nmse_monotone_in_pilot_count(self):
        rng = np.random.default_rng(13)
        budgets = [2, 4, 8, 16, 32]
        sums = {b: 0.0 for b in budgets}
        n_chan = 200
        for i in range(n_chan):
            h = random_channel(rng, d=4, nr=1, nt=2)
            for b in budgets:
                cfg = PilotConfig(n_sc=32, n_pilot=b, nt=2, snr_db=10.0)
                est = coarse_chain(h, cfg, 1000 + i)
                sums[b] += nmse(est, h)
        curve = [10 * math.log10(sums[b] / n_chan) for b in budgets]
        for a, b in zip(curve, curve[1:]):
            assert b <= a + 0.2  # 0.2 dB slack


class TestOmpDictionaryChecks:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(delays=[0, -1]),
            dict(rx_dirs=[[0.0, np.nan]]),
            dict(tx_dirs=[[np.inf, 0.0]]),
            dict(tx_dirs=[[0.0, 0.0], [-np.inf, 0.0]]),
            dict(delays=[0.5, 1.7]),
            dict(delays=[[0, 1]]),
            dict(rx_dirs=np.zeros((2, 3))),
            dict(tx_dirs=np.zeros((2, 1))),
            dict(rx_dirs=[["x", 0.0]]),
        ],
        ids=["negative-delay", "rx-nan", "tx-inf", "tx-minus-inf", "float-delays",
             "2d-delays", "rx-triples", "tx-singles", "rx-string"],
    )
    def test_rejects(self, kw):
        geom = ArrayGeometry(2, 1)
        good = dict(delays=[0, 1], rx_dirs=[[0.0, 0.0]], tx_dirs=[[0.0, 0.0]])
        with pytest.raises(ValueError, match="delays|cosine"):
            OmpDictionary(**{**good, **kw}, rx_geom=geom, tx_geom=geom)

    @pytest.mark.parametrize("oversample", [0, -1, 1.5])
    def test_build_rejects_bad_oversample(self, oversample):
        geom = ArrayGeometry(2, 1)
        with pytest.raises(ValueError, match="oversample"):
            OmpDictionary.build(2, geom, geom, oversample=oversample)

    def test_build_gives_a_one_element_axis_one_cosine(self):
        dc = OmpDictionary.build(2, ArrayGeometry(1, 2), ArrayGeometry(1, 1), oversample=2)
        assert dc.shape == (2, 4, 1)
        np.testing.assert_array_equal(
            dc.rx_dirs, [[-1.0, -1.0], [-1.0, -0.5], [-1.0, 0.0], [-1.0, 0.5]]
        )
        np.testing.assert_array_equal(dc.tx_dirs, [[-1.0, -1.0]])

    @pytest.mark.parametrize("shape", [(4, 2, 3), (5, 2, 2)], ids=["wrong-nt", "wrong-pilots"])
    def test_adjoint_rejects_misshapen_residual(self, shape):
        geom = ArrayGeometry(2, 1)
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=2)
        with pytest.raises(ValueError, match="residual"):
            OmpDictionary.build(2, geom, geom).adjoint(np.ones(shape, dtype=complex), cfg)

    @pytest.mark.parametrize(
        "entry, shape",
        [(np.nan, (4, 2, 2)), (np.inf, (4, 2, 2)), ("1", (4, 2, 2)), (1.0, (4, 2, 3))],
        ids=["nan", "inf", "text", "wrong-shape"],
    )
    def test_adjoint_rejects_a_bad_residual_list(self, entry, shape):
        geom = ArrayGeometry(2, 1)
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=2)
        residual = np.ones(shape, dtype=object)
        residual[1, 0, 1] = entry
        with pytest.raises(ValueError, match="residual"):
            OmpDictionary.build(2, geom, geom).adjoint(residual.tolist(), cfg)

    def test_adjoint_of_a_residual_list_equals_that_of_its_array(self):
        geom = ArrayGeometry(2, 1)
        cfg = PilotConfig(n_sc=16, n_pilot=4, nt=2)
        dc = OmpDictionary.build(2, geom, geom)
        r = np.random.default_rng(0).normal(size=(4, 2, 2)) * (1 - 2j)
        np.testing.assert_array_equal(dc.adjoint(r.tolist(), cfg), dc.adjoint(r, cfg))


class TestOmp:
    def setup_method(self):
        self.rx = ArrayGeometry(2, 1)
        self.tx = ArrayGeometry(2, 2)
        self.cfg = PilotConfig(n_sc=16, n_pilot=8, nt=4)
        self.dict = OmpDictionary.build(4, self.rx, self.tx, oversample=1)

    def test_single_atom_exact_recovery(self):
        h = self.dict.synthesize([5], [1.3 - 0.4j])
        obs = transmit_pilots(h, self.cfg, 0)
        est = omp_estimate(obs, self.cfg, self.dict, k_max=1)
        assert nmse_db(est, h) < -40.0

    def test_three_atoms_match_exhaustive_subset_oracle(self):
        rng = np.random.default_rng(21)
        atoms = self.dict.n_atoms
        phi = np.stack(
            [self.dict.forward([i], [1.0], self.cfg).ravel() for i in range(atoms)], axis=1
        )
        picks = sorted(rng.choice(atoms, size=3, replace=False).tolist())
        gains = rng.normal(size=3) + 1j * rng.normal(size=3)
        h = self.dict.synthesize(picks, gains)
        obs = transmit_pilots(h, self.cfg, 0)
        res = omp_estimate(obs, self.cfg, self.dict, k_max=3, return_info=True)

        y = ls_estimate(obs, self.cfg).ravel()
        best, best_err = None, np.inf
        for combo in itertools.combinations(range(atoms), 3):
            sub = phi[:, combo]
            sol, _, _, _ = np.linalg.lstsq(sub, y, rcond=None)
            err = np.linalg.norm(y - sub @ sol)
            if err < best_err:
                best, best_err = combo, err
        assert sorted(res.selected) == sorted(best)

    @pytest.mark.parametrize("random_placement", [False, True], ids=["comb", "random"])
    def test_forward_is_the_noiseless_ls_estimate(self, random_placement):
        # forward works in the LS domain: it equals the pilot chain followed by LS
        rng = np.random.default_rng(42)
        placement = tuple(sorted(rng.choice(16, 6, replace=False).tolist()))
        cfg = PilotConfig(n_sc=16, n_pilot=6, nt=4, placement=placement if random_placement else ())
        picks = rng.choice(self.dict.n_atoms, size=3, replace=False)
        gains = rng.normal(size=3) + 1j * rng.normal(size=3)
        got = self.dict.forward(picks, gains, cfg)
        expect = ls_estimate(transmit_pilots(self.dict.synthesize(picks, gains), cfg, 0), cfg)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_forward_adjoint_identity(self):
        # <A x, r> == <x, A^H r> for sparse x and arbitrary pilot residuals r
        rng = np.random.default_rng(40)
        for trial in range(5):
            picks = rng.choice(self.dict.n_atoms, size=trial + 1, replace=False)
            x = rng.normal(size=picks.size) + 1j * rng.normal(size=picks.size)
            r = rng.normal(size=(8, 2, 4)) + 1j * rng.normal(size=(8, 2, 4))
            lhs = np.vdot(self.dict.forward(picks, x, self.cfg), r)
            rhs = np.vdot(x, self.dict.adjoint(r, self.cfg).ravel()[picks])
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_adjoint_is_the_dense_conjugate_transpose(self):
        # Every atom's forward image is a column of the dense operator A;
        # adjoint(r) must equal A^H r for a full residual, not only at a few picks.
        rng = np.random.default_rng(41)
        cfg = PilotConfig(n_sc=16, n_pilot=5, nt=4, placement=(0, 2, 3, 9, 14))
        dc = OmpDictionary(
            delays=[3, 0, 5],
            rx_dirs=rng.uniform(-1, 1, size=(3, 2)),
            tx_dirs=rng.uniform(-1, 1, size=(5, 2)),
            rx_geom=self.rx,
            tx_geom=self.tx,
        )
        a = np.stack([dc.forward([j], [1.0], cfg).ravel() for j in range(dc.n_atoms)], axis=1)
        r = rng.normal(size=(5, 2, 4)) + 1j * rng.normal(size=(5, 2, 4))
        expect = (a.conj().T @ r.ravel()).reshape(dc.shape)
        got = dc.adjoint(r, cfg)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())

    def test_synthesis_matches_atom_convention(self):
        # atom (d, r, t) = delta(tap=delays[d]) x outer(a_r[r], a_t[t]) / sqrt(Nr*Nt)
        def steer(dirs, geom):
            return np.kron(steering_vector(dirs[0], geom.nx), steering_vector(dirs[1], geom.ny))

        for flat in (0, 5, self.dict.n_atoms - 1):
            di, ri, ti = np.unravel_index(flat, self.dict.shape)
            expect = np.zeros((4, 2, 4), dtype=np.complex128)
            expect[self.dict.delays[di]] = np.outer(
                steer(self.dict.rx_dirs[ri], self.rx), steer(self.dict.tx_dirs[ti], self.tx)
            ) / np.sqrt(8.0)
            taps = self.dict.synthesize([flat], [1.0]).taps
            np.testing.assert_allclose(taps, expect, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k_max", [2.5, "3", None])
    def test_rejects_non_integer_k_max(self, k_max):
        obs = transmit_pilots(self.dict.synthesize([5], [1.0]), self.cfg, 0)
        with pytest.raises(ValueError, match="k_max"):
            omp_estimate(obs, self.cfg, self.dict, k_max=k_max)

    def test_zero_observation_selects_nothing(self):
        obs = PilotObservation(y=np.zeros((8, 2, 4), dtype=complex), placement=self.cfg.placement)
        res = omp_estimate(obs, self.cfg, self.dict, k_max=4, return_info=True)
        assert res.selected == [] and res.residual_norms == [0.0]
        assert res.estimate.energy() == 0.0

    def test_rank_deficient_refit_drops_newest_atom_and_stops(self):
        # Comb pilots 0 and 4 of 8 subcarriers see taps d and d + 2 alike, so
        # once taps 0 and 1 are fitted every other atom repeats a selected one.
        # One rx direction over two rx antennas spans half the observation
        # space, so the residual stays nonzero and the rank test stops the pursuit.
        cfg = PilotConfig(n_sc=8, n_pilot=2, nt=1)
        dc = OmpDictionary(delays=np.arange(4), rx_dirs=[[0.0, 0.0]], tx_dirs=[[0.0, 0.0]],
                           rx_geom=ArrayGeometry(2, 1), tx_geom=ArrayGeometry(1, 1))
        rng = np.random.default_rng(0)
        y = rng.normal(size=(2, 2, 1)) + 1j * rng.normal(size=(2, 2, 1))
        obs = PilotObservation(y=y, placement=cfg.placement)
        res = omp_estimate(obs, cfg, dc, k_max=4, return_info=True)
        assert sorted(res.selected) == [0, 1]
        assert len(res.gains) == 2
        assert len(res.residual_norms) == 3
        assert res.residual_norms[-1] > 1e-3 * res.residual_norms[0]

    def test_repeated_delay_ties_go_to_the_lower_index(self):
        # Delays [1, 1] make slab 1 a copy of slab 0, so every pick ties an atom
        # with its twin; once both directions are fitted, only twins remain and
        # the next pick is rank-deficient.
        cfg = PilotConfig(n_sc=8, n_pilot=4, nt=1)
        dc = OmpDictionary(delays=[1, 1], rx_dirs=[[-1.0, 0.0], [0.0, 0.0]],
                           tx_dirs=[[0.0, 0.0]], rx_geom=ArrayGeometry(2, 1),
                           tx_geom=ArrayGeometry(1, 1))
        # noise outside the atoms' span keeps the residual nonzero to the end
        noise = 0.1 * np.random.default_rng(1).normal(size=(4, 2, 1))
        obs = PilotObservation(y=dc.forward([0, 1], [2.0, 1.0], cfg) + noise,
                               placement=cfg.placement)
        res = omp_estimate(obs, cfg, dc, k_max=4, return_info=True)
        assert res.selected == [0, 1]
        assert len(res.residual_norms) == 3
        assert res.residual_norms[-1] > 0.0

    def test_refit_holding_more_energy_than_y_raises(self):
        # An adjoint twice too large gives the one-atom projection of an exact
        # atom four times the energy of y: only a broken refit does that.
        class Doubled(OmpDictionary):
            def adjoint(self, residual, cfg):
                return 2.0 * super().adjoint(residual, cfg)

        dc = Doubled(self.dict.delays, self.dict.rx_dirs, self.dict.tx_dirs, self.rx, self.tx)
        obs = transmit_pilots(dc.synthesize([5], [1.0]), self.cfg, 0)
        with pytest.raises(FloatingPointError, match="more energy"):
            omp_estimate(obs, self.cfg, dc, k_max=1)

    def test_residual_norms_non_increasing(self):
        rng = np.random.default_rng(30)
        h = self.dict.synthesize(
            rng.choice(self.dict.n_atoms, 4, replace=False), rng.normal(size=4)
        )
        cfg = PilotConfig(n_sc=16, n_pilot=8, nt=4, snr_db=5.0)
        obs = transmit_pilots(h, cfg, 1)
        res = omp_estimate(obs, cfg, self.dict, k_max=6, return_info=True)
        diffs = np.diff(res.residual_norms)
        assert np.all(diffs <= 1e-9)
