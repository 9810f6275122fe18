import numpy as np
import pytest

from simd2nn.errors import BoundsError, DomainError
from simd2nn.geometry import TX_ANTENNA, GeometryConfig, build_geometry, pair_distance_angle
from simd2nn.propagation import (
    build_input_vector,
    build_propagation,
    build_transmission_matrix,
    diffraction_coefficient,
    dump_matrix_text,
)

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
    matrix = build_transmission_matrix(geom, 1)
    assert matrix.shape == (1, 1)
    expected = diffraction_coefficient(
        geom.layer_spacing, 1.0, geom.atom_pitch_x, geom.atom_pitch_y, geom.wavelength
    )
    assert matrix[0, 0] == pytest.approx(expected, rel=1e-12)


def test_matrix_is_symmetric_for_identical_layouts():
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=2))
    entries = build_transmission_matrix(geom, 1)
    np.testing.assert_allclose(entries, entries.T, rtol=1e-13)


def test_diagonal_entries_all_equal():
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=3))
    entries = build_transmission_matrix(geom, 1)
    diag = np.diag(entries)
    np.testing.assert_allclose(diag, diag[0], rtol=1e-13)


def test_layer_independence():
    # identical up to coordinate rounding; the propagation bundle reuses one
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=2, num_layers=3))
    w1 = build_transmission_matrix(geom, 1)
    w3 = build_transmission_matrix(geom, 3)
    np.testing.assert_allclose(w1, w3, rtol=1e-13)


def test_matrix_layer_bounds():
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=2, num_layers=2))
    with pytest.raises(BoundsError):
        build_transmission_matrix(geom, 0)
    with pytest.raises(BoundsError):
        build_transmission_matrix(geom, 3)


def test_magnitude_decays_with_axial_distance():
    mags = [
        abs(diffraction_coefficient(d, 1.0, 0.0125, 0.0125, 0.025))
        for d in np.linspace(0.01, 0.2, 25)
    ]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_matrix_entries_finite():
    geom = build_geometry(GeometryConfig(atoms_rows=4, atoms_cols=4))
    entries = build_transmission_matrix(geom, 1)
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
    np.testing.assert_array_equal(prop.w_matrix, build_transmission_matrix(geom, 1))
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


def test_dump_matrix_text(tmp_path):
    geom = build_geometry(GeometryConfig(atoms_rows=1, atoms_cols=2))
    entries = build_transmission_matrix(geom, 1)
    path = tmp_path / "w.txt"
    dump_matrix_text(entries, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    r, c, re, im = lines[3].split()
    assert (int(r), int(c)) == (1, 1)
    assert complex(float(re), float(im)) == entries[1, 1]
