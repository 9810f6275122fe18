import numpy as np
import pytest

from simd2nn.channel import ChannelRealization
from simd2nn.errors import EncodingError, FormatError, ShapeError
from simd2nn.geometry import GeometryConfig, build_geometry
from simd2nn.network import (
    DigitalParams,
    PhaseParams,
    classify,
    classify_batch,
    encode_input,
    forward,
    forward_batch,
    init_params,
    load_params,
    save_params,
)
from simd2nn.propagation import Propagation
from simd2nn.seeding import PARAM_INIT, stream


def random_instance(rng, m, n_layers, k=2):
    """Random dense system with order-1 entries."""
    w0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    feats = rng.uniform(0.1, 1.0, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    theta = rng.uniform(0, 2 * np.pi, (n_layers, m))
    prop = Propagation(w0=w0, w_matrix=w)
    real = ChannelRealization(h_matrix=h, noise_sigma=0.0)
    return prop, real, feats, theta


def dense_oracle(theta_or_weights, feats, prop, h, tx_amplitude, digital=False):
    """Explicit single-product evaluation H (Phi_L W ... Phi_1 W Phi_0) w0 A."""
    g = np.diag(feats)
    for row in theta_or_weights:
        layer = row if digital else np.exp(1j * row)
        g = np.diag(layer) @ prop.w_matrix @ g
    return h @ g @ prop.w0 * tx_amplitude


# --- encode_input -----------------------------------------------------------


def test_encode_identity():
    feats = np.ones(4, dtype=complex)
    np.testing.assert_array_equal(encode_input(feats).phi0_diag, feats)
    mixed = np.array([1.0, 1j, -1.0, 0.5 - 0.2j])
    np.testing.assert_array_equal(encode_input(mixed).phi0_diag, mixed)


def test_encode_rejects_overunit_modulus():
    with pytest.raises(EncodingError):
        encode_input(np.array([1.5 + 0j, 0.1]))


def test_encode_rejects_wrong_length():
    with pytest.raises(ShapeError):
        encode_input(np.ones(3, dtype=complex), m_atoms=4)


# --- forward ----------------------------------------------------------------


def test_forward_identity_chain():
    prop = Propagation(w0=np.ones(1, dtype=complex), w_matrix=np.ones((1, 1), dtype=complex))
    real = ChannelRealization(h_matrix=np.ones((1, 1), dtype=complex), noise_sigma=0.0)
    params = PhaseParams(theta=np.zeros((1, 1)))
    y, cache = forward(params, encode_input(np.ones(1, dtype=complex)), prop, real, 1.0)
    assert y[0] == pytest.approx(1.0 + 0.0j)
    params.theta[0, 0] = np.pi
    y, _ = forward(params, encode_input(np.ones(1, dtype=complex)), prop, real, 1.0)
    assert y[0] == pytest.approx(-1.0 + 0.0j, abs=1e-15)


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        n_layers = int(rng.integers(1, 4))
        prop, real, feats, theta = random_instance(rng, m, n_layers)
        y, cache = forward(PhaseParams(theta), encode_input(feats), prop, real, 0.8)
        expected = dense_oracle(theta, feats, prop, real.h_matrix, 0.8)
        np.testing.assert_allclose(y, expected, rtol=1e-12)
        assert cache.t.shape == (n_layers, m)


def test_forward_digital_matches_oracle():
    rng = np.random.default_rng(43)
    prop, real, feats, theta = random_instance(rng, 5, 2)
    weights = (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
    y, _ = forward(DigitalParams(weights), encode_input(feats), prop, real, 1.3)
    expected = dense_oracle(weights, feats, prop, real.h_matrix, 1.3, digital=True)
    np.testing.assert_allclose(y, expected, rtol=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(44)
    prop, real, _, theta = random_instance(rng, 6, 2)
    params = PhaseParams(theta)
    feats = rng.uniform(0.1, 1.0, (6, 5)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 5)))
    y_batch, _ = forward_batch(params, feats, prop, real, 0.5)
    for b in range(5):
        y_one, _ = forward(params, encode_input(feats[:, b]), prop, real, 0.5)
        np.testing.assert_allclose(y_batch[:, b], y_one, rtol=1e-13)


def test_forward_shape_errors():
    rng = np.random.default_rng(45)
    prop, real, feats, theta = random_instance(rng, 4, 1)
    with pytest.raises(ShapeError):
        forward(PhaseParams(theta), encode_input(np.ones(3, dtype=complex)), prop, real, 1.0)


def test_noise_rng_determinism():
    rng = np.random.default_rng(46)
    prop, real, feats, theta = random_instance(rng, 4, 1)
    real = ChannelRealization(h_matrix=real.h_matrix, noise_sigma=0.1)
    params = PhaseParams(theta)
    y1, _ = forward(params, encode_input(feats), prop, real, 1.0, noise_rng=np.random.default_rng(7))
    y2, _ = forward(params, encode_input(feats), prop, real, 1.0, noise_rng=np.random.default_rng(7))
    np.testing.assert_array_equal(y1, y2)


# --- classify ---------------------------------------------------------------


def test_classify_examples():
    assert classify(np.array([1 + 0j, 0.5 + 0j])) == 0
    assert classify(np.array([0.1j, 2 - 1j])) == 1
    # powers tie at 25; lowest index wins
    assert classify(np.array([3 + 4j, 5 + 0j])) == 0


def test_classify_empty_rejected():
    with pytest.raises(ShapeError):
        classify(np.array([], dtype=complex))
    with pytest.raises(ShapeError):
        classify_batch(np.zeros((0, 3), dtype=complex))


# --- invariances ------------------------------------------------------------


def test_global_phase_covariance():
    rng = np.random.default_rng(47)
    prop, real, feats, theta = random_instance(rng, 5, 3)
    y0, _ = forward(PhaseParams(theta), encode_input(feats), prop, real, 1.0)
    phi = 0.7321
    shifted = theta.copy()
    shifted[1] += phi
    y1, _ = forward(PhaseParams(shifted), encode_input(feats), prop, real, 1.0)
    np.testing.assert_allclose(y1, np.exp(1j * phi) * y0, rtol=1e-12)
    assert classify(y1) == classify(y0)


def test_power_scale_covariance():
    rng = np.random.default_rng(48)
    prop, real, feats, theta = random_instance(rng, 5, 2)
    y0, _ = forward(PhaseParams(theta), encode_input(feats), prop, real, 1.0)
    y1, _ = forward(PhaseParams(theta), encode_input(feats), prop, real, 3.0)
    np.testing.assert_allclose(np.abs(y1) ** 2, 9.0 * np.abs(y0) ** 2, rtol=1e-12)
    assert classify(y1) == classify(y0)


def test_sim_responses_have_unit_modulus():
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=2, num_layers=3))
    params = init_params(geom, "sim", stream(0, PARAM_INIT))
    np.testing.assert_allclose(np.abs(params.layer_responses()), 1.0, rtol=1e-15)


# --- init -------------------------------------------------------------------


def test_init_determinism():
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=2))
    a = init_params(geom, "sim", stream(5, PARAM_INIT))
    b = init_params(geom, "sim", stream(5, PARAM_INIT))
    np.testing.assert_array_equal(a.theta, b.theta)


def test_init_uniform_mean():
    geom = build_geometry(GeometryConfig(atoms_rows=100, atoms_cols=100, num_layers=10))
    params = init_params(geom, "sim", stream(6, PARAM_INIT))
    assert params.theta.mean() == pytest.approx(np.pi, abs=0.02)
    assert params.theta.min() >= 0.0 and params.theta.max() < 2 * np.pi


def test_digital_init_matches_sim_start():
    geom = build_geometry(GeometryConfig(atoms_rows=3, atoms_cols=3, num_layers=2))
    sim = init_params(geom, "sim", stream(7, PARAM_INIT))
    dig = init_params(geom, "digital", stream(7, PARAM_INIT))
    np.testing.assert_allclose(np.abs(dig.weights), 1.0, rtol=1e-15)
    np.testing.assert_allclose(dig.weights, np.exp(1j * sim.theta), rtol=1e-15)


# --- parameter files --------------------------------------------------------


def test_params_round_trip_sim(tmp_path):
    params = PhaseParams(theta=np.random.default_rng(1).uniform(0, 2 * np.pi, (3, 7)))
    path = tmp_path / "p.simth1"
    save_params(str(path), params)
    loaded = load_params(str(path))
    assert loaded.kind == "sim"
    np.testing.assert_array_equal(loaded.theta, params.theta)


def test_params_round_trip_digital(tmp_path):
    rng = np.random.default_rng(2)
    params = DigitalParams(weights=rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
    path = tmp_path / "p.simth1"
    save_params(str(path), params)
    loaded = load_params(str(path))
    assert loaded.kind == "digital"
    np.testing.assert_array_equal(loaded.weights, params.weights)


def test_params_header_layout(tmp_path):
    params = PhaseParams(theta=np.zeros((2, 3)))
    path = tmp_path / "p.simth1"
    save_params(str(path), params)
    blob = path.read_bytes()
    assert blob[:6] == b"SIMTH1"
    assert int.from_bytes(blob[6:10], "little") == 2
    assert int.from_bytes(blob[10:14], "little") == 3
    assert blob[14] == 0
    assert len(blob) == 15 + 2 * 3 * 8


def test_params_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "p.simth1"
    path.write_bytes(b"WRONG!" + b"\x00" * 9)
    with pytest.raises(FormatError, match="magic"):
        load_params(str(path))
    params = PhaseParams(theta=np.zeros((2, 3)))
    save_params(str(path), params)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError, match="truncated"):
        load_params(str(path))
    path.write_bytes(b"SIMTH1" + b"\x00" * 5)
    with pytest.raises(FormatError, match="header needs 15 bytes at byte offset 0"):
        load_params(str(path))


def test_params_unknown_kind_checked_before_payload(tmp_path):
    path = tmp_path / "p.simth1"
    save_params(str(path), PhaseParams(theta=np.zeros((2, 3))))
    blob = bytearray(path.read_bytes())
    blob[14] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="unknown parameter kind byte 7 at byte offset 14"):
        load_params(str(path))
