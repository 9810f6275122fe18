import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

import simd2nn.training as training
from simd2nn import kernels
from simd2nn.channel import ChannelConfig, realize_channel
from simd2nn.data import EncodedDataset
from simd2nn.errors import DomainError, ShapeError
from simd2nn.geometry import (
    TX_ANTENNA,
    GeometryConfig,
    build_geometry,
    layer_positions,
    pair_distance_angle,
)
from simd2nn.network import PhaseParams, forward_batch, init_params
from simd2nn.propagation import (
    FFT_MIN_ATOMS,
    Propagation,
    ToeplitzPropagation,
    build_input_vector,
    build_propagation,
    build_transmission_matrix,
    coupling_kernel,
    diffraction_coefficient,
    dump_matrix_text,
    toeplitz_matrix,
)
from simd2nn.seeding import CHANNEL, EVAL_NOISE, TRAIN_NOISE, stream
from simd2nn.training import TrainConfig

AXIAL = dict(distance=0.0125, cos_angle=1.0, pitch_x=0.0125, pitch_y=0.0125, wavelength=0.025)


def test_axial_coefficient_value():
    w = diffraction_coefficient(**AXIAL)
    assert w == pytest.approx(-0.1591549 + 0.5j, abs=1e-6)


def test_zero_cos_angle_annihilates():
    w = diffraction_coefficient(0.01, 0.0, 0.0125, 0.0125, 0.025)
    assert w == 0.0 + 0.0j


def test_phase_factor_is_unit_modulus():
    # |w| must follow the analytic modulus regardless of the phase exponent
    for d, lam in [(0.0125, 0.025), (0.025, 0.05), (0.0375, 0.025), (0.0125, 0.0125)]:
        w = diffraction_coefficient(d, 1.0, 0.0125, 0.0125, lam)
        expected = (0.0125 * 0.0125 / d) * np.hypot(1.0 / (2 * np.pi * d), 1.0 / lam)
        assert abs(w) == pytest.approx(expected, rel=1e-12)


def test_nonpositive_distance_rejected():
    with pytest.raises(DomainError):
        diffraction_coefficient(0.0, 1.0, 0.0125, 0.0125, 0.025)
    with pytest.raises(DomainError):
        diffraction_coefficient(-0.01, 1.0, 0.0125, 0.0125, 0.025)


def test_single_atom_matrix_is_axial_coefficient():
    geom = build_geometry(GeometryConfig(atoms_rows=1, atoms_cols=1))
    matrix = build_transmission_matrix(geom)
    assert matrix.shape == (1, 1)
    expected = diffraction_coefficient(
        geom.layer_spacing, 1.0, geom.atom_pitch_x, geom.atom_pitch_y, geom.wavelength
    )
    assert matrix[0, 0] == pytest.approx(expected, rel=1e-12)


def test_matrix_is_symmetric_for_identical_layouts():
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=2))
    entries = build_transmission_matrix(geom)
    np.testing.assert_allclose(entries, entries.T, rtol=1e-13)


def test_diagonal_entries_all_equal():
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=3))
    entries = build_transmission_matrix(geom)
    diag = np.diag(entries)
    np.testing.assert_allclose(diag, diag[0], rtol=1e-13)


def _pairwise_matrix(geom, to_layer):
    """The direct M^2 build: every source/destination atom pair evaluated."""
    return kernels.coupling_matrix(
        layer_positions(geom, to_layer - 1),
        layer_positions(geom, to_layer),
        geom.atom_pitch_x,
        geom.atom_pitch_y,
        geom.wavelength,
    )


@pytest.mark.parametrize(
    "rows, cols, pitches, n_layers, to_layer",
    [
        (1, 1, {}, 4, 1),
        (1, 7, {}, 4, 1),
        (7, 1, {}, 4, 1),
        (2, 3, {}, 4, 1),
        (8, 16, {}, 4, 1),
        (8, 16, dict(atom_pitch_x=0.01, atom_pitch_y=0.015), 4, 1),
        (2, 3, {}, 3, 3),
    ],
)
def test_kernel_built_matrix_matches_pairwise_build(rows, cols, pitches, n_layers, to_layer):
    # the one W couples every adjacent pair, so it must match the pairwise
    # build into any layer, not only layer 1
    geom = build_geometry(
        GeometryConfig(atoms_rows=rows, atoms_cols=cols, num_layers=n_layers, **pitches)
    )
    kernel = coupling_kernel(geom)
    assert kernel.shape == (2 * rows - 1, 2 * cols - 1)
    w = build_transmission_matrix(geom)
    assert w.shape == (rows * cols, rows * cols) and w.flags.c_contiguous
    np.testing.assert_allclose(w, _pairwise_matrix(geom, to_layer), rtol=1e-13, atol=0)
    assert np.array_equal(w, w.T)


def test_build_propagation_peaks_near_one_matrix():
    # besides W the build holds only O(R*C) arrays: the offset kernel and
    # the feed vector, so no (M, M) intermediate may appear
    geom = build_geometry(GeometryConfig(atoms_rows=16, atoms_cols=32))
    tracemalloc.start()
    try:
        prop = build_propagation(geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * prop.w_matrix.nbytes


def test_magnitude_decays_with_axial_distance():
    mags = [
        abs(diffraction_coefficient(d, 1.0, 0.0125, 0.0125, 0.025))
        for d in np.linspace(0.01, 0.2, 25)
    ]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_matrix_entries_finite():
    geom = build_geometry(GeometryConfig(atoms_rows=4, atoms_cols=4))
    entries = build_transmission_matrix(geom)
    assert np.all(np.isfinite(entries.view(np.float64)))


def test_input_vector_single_atom():
    geom = build_geometry(GeometryConfig(atoms_rows=1, atoms_cols=1))
    w0 = build_input_vector(geom)
    expected = diffraction_coefficient(
        geom.tx_antenna_distance, 1.0, geom.atom_pitch_x, geom.atom_pitch_y, geom.wavelength
    )
    assert w0.shape == (1,)
    assert w0[0] == pytest.approx(expected, rel=1e-12)


def test_input_vector_equidistant_atoms_match():
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=2))
    w0 = build_input_vector(geom)
    # all four atoms are equidistant from the on-axis antenna
    np.testing.assert_allclose(w0, w0[0], rtol=1e-13)


def test_propagation_bundle_consistency():
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=3))
    prop = build_propagation(geom)
    np.testing.assert_array_equal(prop.w_matrix, build_transmission_matrix(geom))
    np.testing.assert_array_equal(prop.w0, build_input_vector(geom))


def test_coupling_matches_pair_oracle():
    # every entry against the scalar coefficient at the per-pair geometry
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=3))
    prop = build_propagation(geom)
    args = (geom.atom_pitch_x, geom.atom_pitch_y, geom.wavelength)
    m = geom.atoms_per_layer
    for src in range(m):
        for dst in range(m):
            d, cos = pair_distance_angle(geom, 0, src, dst)
            expected = diffraction_coefficient(d, cos, *args)
            assert prop.w_matrix[dst, src] == pytest.approx(expected, rel=1e-13)
    for dst in range(m):
        d, cos = pair_distance_angle(geom, TX_ANTENNA, 0, dst)
        assert prop.w0[dst] == pytest.approx(diffraction_coefficient(d, cos, *args), rel=1e-13)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dense(geom):
    return Propagation(w0=build_input_vector(geom), w_matrix=build_transmission_matrix(geom))


@pytest.mark.parametrize("source", ["2x3", "32x64", "random"])
def test_apply_and_adjoint_match_dense_products(source):
    # the dense operator, built explicitly; the FFT operator that
    # build_propagation returns at 32x64 is checked in the parity test below
    rng = np.random.default_rng(11)
    if source == "random":
        w = _complex_normal(rng, (40, 40))
        assert not np.array_equal(w, w.T)
        prop = Propagation(w0=np.ones(40, dtype=complex), w_matrix=w)
    else:
        rows, cols = map(int, source.split("x"))
        prop = _dense(build_geometry(GeometryConfig(atoms_rows=rows, atoms_cols=cols)))
    m = prop.w_matrix.shape[0]
    # 2 is the antenna count the backward pass pulls back; 29 is the epoch
    # tail batch of the default run (221 training patches)
    for width in (1, 2, 29, 64):
        v = _complex_normal(rng, (m, width))
        x = _complex_normal(rng, (m, width))
        assert np.array_equal(prop.apply(v), prop.w_matrix @ v)
        # (v^H W)^H sums in another order than W^H v, so agreement is to rounding
        np.testing.assert_allclose(
            prop.apply_adjoint(v), prop.w_matrix.conj().T @ v, rtol=1e-13, atol=0
        )
        lhs = np.vdot(prop.apply(x), v)
        rhs = np.vdot(x, prop.apply_adjoint(v))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_dense_operator_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        Propagation(w0=np.ones(3, dtype=complex), w_matrix=np.ones((4, 4), dtype=complex))
    with pytest.raises(ShapeError):
        Propagation(w0=np.ones(4, dtype=complex), w_matrix=np.ones((4, 3), dtype=complex))
    with pytest.raises(ShapeError):
        ToeplitzPropagation(np.ones(6, dtype=complex), np.ones((3, 4), dtype=complex))
    with pytest.raises(ShapeError):
        ToeplitzPropagation(np.ones(5, dtype=complex), np.ones((3, 5), dtype=complex))


def test_build_propagation_picks_the_operator_by_atom_count():
    small = build_geometry(GeometryConfig(atoms_rows=8, atoms_cols=16))
    assert type(build_propagation(small)) is Propagation
    large = build_geometry(GeometryConfig(atoms_rows=32, atoms_cols=64))
    assert large.atoms_per_layer >= FFT_MIN_ATOMS
    assert type(build_propagation(large)) is ToeplitzPropagation


GRIDS = [
    (1, 7, {}),
    (2, 3, {}),
    (8, 16, {}),
    (8, 16, dict(atom_pitch_x=0.01, atom_pitch_y=0.015)),
    (7, 11, {}),  # 2R-1 = 13 and 2C-1 = 21 are not 2*3*5-smooth
    (32, 64, {}),
]


@pytest.mark.parametrize("rows, cols, pitches", GRIDS)
def test_fft_operator_matches_dense_w(rows, cols, pitches):
    geom = build_geometry(GeometryConfig(atoms_rows=rows, atoms_cols=cols, **pitches))
    w = build_transmission_matrix(geom)
    prop = ToeplitzPropagation(build_input_vector(geom), coupling_kernel(geom))
    np.testing.assert_array_equal(prop.w_matrix, w)
    rng = np.random.default_rng(rows * cols)
    m = geom.atoms_per_layer
    # a 1-D field, then the widths the passes use: one patch, K = 2 antennas,
    # the default run's epoch tail batch (29) and a training batch (64)
    for shape in ((m,), (m, 1), (m, 2), (m, 29), (m, 64)):
        v = _complex_normal(rng, shape)
        x = _complex_normal(rng, shape)
        for got, want in ((prop.apply(v), w @ v), (prop.apply_adjoint(v), w.conj().T @ v)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        lhs = np.vdot(prop.apply(x), v)
        rhs = np.vdot(x, prop.apply_adjoint(v))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_fft_operator_needs_no_symmetry():
    # a random kernel gives a W that is not its own transpose, which tells
    # W^H from conj(W); the physical kernel (even in both offsets) cannot
    rng = np.random.default_rng(5)
    kernel = _complex_normal(rng, (5, 7))
    w = toeplitz_matrix(kernel)
    assert not np.allclose(w, w.T)
    prop = ToeplitzPropagation(np.ones(12, dtype=complex), kernel)
    v = _complex_normal(rng, (12, 3))
    assert np.abs(prop.apply(v) - w @ v).max() <= 1e-13 * np.abs(w @ v).max()
    want = w.conj().T @ v
    assert np.abs(prop.apply_adjoint(v) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["sim", "digital"])
@pytest.mark.parametrize("rows, cols, pitches", GRIDS)
def test_fft_operator_train_step_matches_dense(rows, cols, pitches, kind):
    geom = build_geometry(GeometryConfig(atoms_rows=rows, atoms_cols=cols, **pitches))
    m, batch = geom.atoms_per_layer, 29
    dense = _dense(geom)
    fft = ToeplitzPropagation(dense.w0, coupling_kernel(geom))
    channel = realize_channel(ChannelConfig(), m, stream(3, CHANNEL))
    rng = np.random.default_rng(m)
    params = init_params(geom, kind, rng)
    feats = rng.uniform(0.1, 1.0, (m, batch)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (m, batch)))
    labels = np.arange(batch) % 2

    def step(prop):
        noise = [stream(3, TRAIN_NOISE, j) for j in range(batch)]
        return training.batch_gradient(params, feats, labels, prop, channel, noise)

    for got, want in zip(step(fft), step(dense)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fft_forward_does_not_depend_on_the_batch():
    # each column is transformed and read out on its own, so a patch's y is
    # the same bits whether it rides in a batch of 1, 7 or 256
    geom = build_geometry(GeometryConfig(atoms_rows=32, atoms_cols=64, num_layers=2))
    m, width = geom.atoms_per_layer, 256
    prop = build_propagation(geom)
    assert isinstance(prop, ToeplitzPropagation)
    channel = realize_channel(ChannelConfig(), m, stream(4, CHANNEL))
    rng = np.random.default_rng(4)
    params = init_params(geom, "sim", rng)
    feats = rng.uniform(0.1, 1.0, (m, width)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (m, width)))

    def y_of(cols):
        noise = [stream(4, EVAL_NOISE, int(j)) for j in cols]
        y, _ = forward_batch(
            params, feats[:, cols], prop, channel.realization, channel.tx_amplitude, noise
        )
        return y

    full = y_of(np.arange(width))
    for start, batch in ((0, 1), (5, 1), (255, 1), (0, 7), (3, 7), (249, 7)):
        cols = np.arange(start, start + batch)
        assert np.array_equal(y_of(cols), full[:, cols])


def test_fft_train_and_predict_never_gather_w(monkeypatch):
    # a train step and a predict at 32x64 run on the FFT operator alone: the
    # dense W is never gathered, and the peak stays far below one (M, M) array
    def gathered(self):
        raise AssertionError("w_matrix read")

    monkeypatch.setattr(ToeplitzPropagation, "w_matrix", property(gathered))
    geom = build_geometry(GeometryConfig(atoms_rows=32, atoms_cols=64))
    m, batch = geom.atoms_per_layer, 16
    channel = realize_channel(ChannelConfig(), m, stream(6, CHANNEL))
    rng = np.random.default_rng(6)
    feats = rng.uniform(0.1, 1.0, (batch, m)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (batch, m)))
    ds = EncodedDataset(
        features=feats,
        labels=np.arange(batch) % 2,
        origins=np.stack([np.zeros(batch, dtype=np.int64), np.arange(batch)], axis=1),
    )
    cfg = TrainConfig(epochs=1, batch_size=batch, sample_rate=1.0, master_seed=0)
    tracemalloc.start()
    try:
        params, _ = training.train(ds, geom, channel, cfg)
        preds = training.predict(params, ds, geom, channel, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert preds.shape == (batch,)
    assert peak < 16 * m * m / 4


@dataclass(frozen=True)
class CountingPropagation(Propagation):
    calls: dict = field(default_factory=lambda: {"apply": 0, "apply_adjoint": 0})
    widths: dict = field(default_factory=lambda: {"apply": [], "apply_adjoint": []})

    def apply(self, fields):
        self.calls["apply"] += 1
        self.widths["apply"].append(fields.shape[1])
        return super().apply(fields)

    def apply_adjoint(self, fields):
        self.calls["apply_adjoint"] += 1
        self.widths["apply_adjoint"].append(fields.shape[1])
        return super().apply_adjoint(fields)


def test_one_step_uses_one_product_per_layer_each_way(monkeypatch):
    # one train step: L adjoint products form the readout adjoints and L
    # forward products carry the K contracted columns, so every product with
    # W is K columns wide and none is as wide as the batch
    n_layers, batch, k = 3, 7, 3
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=3, num_layers=n_layers))
    base = build_propagation(geom)
    prop = CountingPropagation(w0=base.w0, w_matrix=base.w_matrix)
    monkeypatch.setattr(training, "build_propagation", lambda geometry: prop)
    rng = np.random.default_rng(12)
    m = geom.atoms_per_layer
    channel = realize_channel(ChannelConfig(num_rx_antennas=k), m, stream(12, CHANNEL))
    dataset = EncodedDataset(
        features=_complex_normal(rng, (batch, m)) / 3.0,
        labels=np.arange(batch) % k,
        origins=np.stack([np.zeros(batch, dtype=np.int64), np.arange(batch)], axis=1),
    )
    cfg = TrainConfig(epochs=1, batch_size=batch, sample_rate=1.0, master_seed=0)
    training.train(dataset, geom, channel, cfg)
    assert prop.calls == {"apply": n_layers, "apply_adjoint": n_layers}
    assert prop.widths == {"apply": [k] * n_layers, "apply_adjoint": [k] * n_layers}


def test_backward_pulls_back_at_antenna_width():
    # the batch is read through the K-row readout, and the readout adjoints
    # and the contracted columns are K wide, so no product with W is as wide
    # as the batch
    n_layers, batch, k = 4, 7, 2
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=3, num_layers=n_layers))
    base = build_propagation(geom)
    prop = CountingPropagation(w0=base.w0, w_matrix=base.w_matrix)
    rng = np.random.default_rng(13)
    m = geom.atoms_per_layer
    channel = realize_channel(ChannelConfig(num_rx_antennas=k), m, stream(13, CHANNEL))
    params = PhaseParams(theta=rng.uniform(0, 2 * np.pi, (n_layers, m)))
    features = _complex_normal(rng, (m, batch))
    y, losses, _ = training.batch_gradient(params, features, np.arange(batch) % k, prop, channel)
    assert y.shape == (k, batch) and losses.shape == (batch,)
    assert prop.widths == {"apply": [k] * n_layers, "apply_adjoint": [k] * n_layers}


def _dump_per_element(entries, path):
    """The element-by-element writer that ``dump_matrix_text`` replaced."""
    with open(path, "w") as fh:
        for r in range(entries.shape[0]):
            for c in range(entries.shape[1]):
                v = entries[r, c]
                fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")


@pytest.mark.parametrize("rows, cols", [(2, 3), (8, 16)])
def test_dump_matrix_text_matches_per_element_writer(tmp_path, rows, cols):
    geom = build_geometry(GeometryConfig(atoms_rows=rows, atoms_cols=cols))
    entries = build_transmission_matrix(geom)
    dump_matrix_text(entries, str(tmp_path / "rows.txt"))
    _dump_per_element(entries, str(tmp_path / "elements.txt"))
    assert (tmp_path / "rows.txt").read_bytes() == (tmp_path / "elements.txt").read_bytes()


def test_dump_matrix_text(tmp_path):
    geom = build_geometry(GeometryConfig(atoms_rows=1, atoms_cols=2))
    entries = build_transmission_matrix(geom)
    path = tmp_path / "w.txt"
    dump_matrix_text(entries, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    r, c, re, im = lines[3].split()
    assert (int(r), int(c)) == (1, 1)
    assert complex(float(re), float(im)) == entries[1, 1]
