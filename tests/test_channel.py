import numpy as np
import pytest

from simd2nn.channel import (
    ChannelConfig,
    add_awgn,
    dbm_to_amplitude,
    fspl_db,
    path_loss_db,
    realize_channel,
    sample_rician,
    sample_small_scale,
)
from simd2nn.errors import ConfigurationError, DomainError
from simd2nn.seeding import CHANNEL, stream


def test_fspl_reference_point():
    assert fspl_db(1.0, 1.0) == -147.55


def test_fspl_downlink_example():
    assert fspl_db(1000.0, 12e9) == pytest.approx(114.03, abs=0.01)


def test_fspl_distance_doubling():
    delta = fspl_db(2.0, 5e9) - fspl_db(1.0, 5e9)
    assert delta == pytest.approx(6.0206, abs=1e-4)


def test_fspl_rejects_nonpositive():
    with pytest.raises(DomainError):
        fspl_db(0.0, 1e9)
    with pytest.raises(DomainError):
        fspl_db(10.0, -1.0)


def test_path_loss_is_additive():
    base = ChannelConfig(atmospheric_loss_db=0.0, environment_loss_db=0.0)
    assert path_loss_db(base) == fspl_db(base.distance, base.carrier_freq)
    lossy = ChannelConfig(carrier_freq=12e9, distance=1000.0, atmospheric_loss_db=2.0, environment_loss_db=3.0)
    assert path_loss_db(lossy) == pytest.approx(fspl_db(1000.0, 12e9) + 5.0)
    trivial = ChannelConfig(carrier_freq=1.0, distance=1.0)
    assert path_loss_db(trivial) == -147.55


def test_noise_sigma_convention():
    real = sample_rician(ChannelConfig(), 4, stream(0, CHANNEL))
    assert real.noise_sigma == pytest.approx(10 ** ((-104.0 - 30.0) / 20.0))
    assert dbm_to_amplitude(30.0) == pytest.approx(1.0)


def test_pure_los_limit_is_all_ones():
    h_ss = sample_small_scale(300.0, (2, 50), stream(1, CHANNEL))
    np.testing.assert_allclose(h_ss, np.ones((2, 50)), atol=1e-12)


@pytest.mark.parametrize("k_db", [-300.0, 0.0, 20.0])
def test_unit_mean_small_scale_power(k_db):
    h_ss = sample_small_scale(k_db, (100, 1000), stream(2, CHANNEL))
    assert np.mean(np.abs(h_ss) ** 2) == pytest.approx(1.0, abs=0.02)


def test_rician_determinism():
    cfg = ChannelConfig()
    a = sample_rician(cfg, 16, stream(7, CHANNEL))
    b = sample_rician(cfg, 16, stream(7, CHANNEL))
    np.testing.assert_array_equal(a.h_matrix, b.h_matrix)
    assert a.noise_sigma == b.noise_sigma


def test_path_loss_scaling_doubles_amplitudes():
    cfg = ChannelConfig(atmospheric_loss_db=6.0206)
    lighter = ChannelConfig(atmospheric_loss_db=0.0)
    h_heavy = sample_rician(cfg, 8, stream(3, CHANNEL)).h_matrix
    h_light = sample_rician(lighter, 8, stream(3, CHANNEL)).h_matrix
    np.testing.assert_allclose(np.abs(h_light), 2.0 * np.abs(h_heavy), rtol=1e-4)


def test_awgn_zero_sigma_is_identity():
    signal = np.array([1 + 2j, -0.5 + 0.25j])
    out = add_awgn(signal, 0.0, stream(4, CHANNEL))
    np.testing.assert_array_equal(out, signal)
    assert out is not signal


def test_awgn_power():
    rng = stream(5, CHANNEL)
    draws = add_awgn(np.zeros(100_000, dtype=complex), 1.0, rng)
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)


def test_awgn_cross_antenna_independence():
    rng = stream(6, CHANNEL)
    draws = add_awgn(np.zeros((2, 100_000), dtype=complex), 1.0, rng)
    corr = np.mean(draws[0] * np.conj(draws[1]))
    assert abs(corr) == pytest.approx(0.0, abs=0.02)


def test_awgn_rejects_negative_sigma():
    with pytest.raises(DomainError):
        add_awgn(np.zeros(2, dtype=complex), -1.0, stream(0, CHANNEL))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ChannelConfig(num_rx_antennas=1).validate()
    with pytest.raises(ConfigurationError):
        ChannelConfig(rician_k_db=float("nan")).validate()
    with pytest.raises(ConfigurationError):
        ChannelConfig(distance=-5.0).validate()


@pytest.mark.parametrize(
    "field",
    ["carrier_freq", "distance", "atmospheric_loss_db", "environment_loss_db",
     "noise_power_dbm", "tx_power_dbm"],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_nonfinite_floats(field, value):
    with pytest.raises(ConfigurationError, match=field):
        ChannelConfig(**{field: value}).validate()


def test_realize_channel_bundles_tx_amplitude():
    state = realize_channel(ChannelConfig(tx_power_dbm=20.0), 4, stream(0, CHANNEL))
    assert state.tx_amplitude == pytest.approx(10 ** ((20.0 - 30.0) / 20.0))
    assert state.realization.h_matrix.shape == (2, 4)
