import io
import logging
import math
import struct

import numpy as np
import pytest

import simd2nn.data as data
import simd2nn.network as network
from simd2nn.data import (
    EncodedDataset,
    IqPatch,
    IqScene,
    derive_downsample_factor,
    downsample,
    encode_patches,
    extract_patches,
    label_patch,
    load_dataset,
    load_scene,
    normalize,
    phase_rotate_augment,
    save_dataset,
    save_scene,
    synthesize_scene,
)
from simd2nn.errors import (
    ConfigurationError,
    DegeneratePatchError,
    FormatError,
    LabelingError,
)
from simd2nn.network import PhaseParams, load_params, save_params
from simd2nn.seeding import SYNTH, stream


def _scene(h, w, seed=0, **kwargs):
    return synthesize_scene(h, w, rng=stream(seed, SYNTH), **kwargs)


# --- patch extraction -------------------------------------------------------


def test_single_window():
    patches = extract_patches(_scene(128, 128), side=128, stride=32)
    assert len(patches) == 1
    assert patches[0].origin == (0, 0)


def test_four_windows():
    patches = extract_patches(_scene(160, 160), side=128, stride=32)
    assert len(patches) == 4
    assert [p.origin for p in patches] == [(0, 0), (0, 32), (32, 0), (32, 32)]


def test_window_never_fits(caplog):
    with caplog.at_level(logging.WARNING):
        patches = extract_patches(_scene(127, 200), side=128, stride=32)
    assert patches == []
    assert any("no patches" in rec.message for rec in caplog.records)


def test_patch_count_formula_random_sizes():
    rng = np.random.default_rng(5)
    for _ in range(25):
        h = int(rng.integers(8, 90))
        w = int(rng.integers(8, 90))
        side = int(rng.integers(4, 20))
        stride = int(rng.integers(1, 12))
        scene = IqScene(samples=np.zeros((h, w), dtype=np.complex64))
        count = len(extract_patches(scene, side=side, stride=stride))
        if side > h or side > w:
            assert count == 0
        else:
            assert count == ((h - side) // stride + 1) * ((w - side) // stride + 1)


# --- downsample -------------------------------------------------------------


def test_downsample_constant_patch():
    block = np.full((8, 8), 0.3 - 0.4j, dtype=np.complex64)
    np.testing.assert_allclose(downsample(block, 4), np.full(4, 0.3 - 0.4j), rtol=1e-6)


def test_downsample_symmetric_cancellation():
    patch = np.array([[1, 1j], [-1, -1j]])
    np.testing.assert_allclose(downsample(patch, 2), [0.0])


def test_downsample_row_index_blocks():
    patch = np.arange(4).reshape(4, 1).repeat(4, axis=1).astype(complex)
    np.testing.assert_allclose(downsample(patch, 2), [0.5, 0.5, 2.5, 2.5])


def test_downsample_linearity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    lhs = downsample(2.0 * x + (1 - 2j) * y, 2)
    rhs = 2.0 * downsample(x, 2) + (1 - 2j) * downsample(y, 2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_downsample_bad_factor():
    with pytest.raises(ConfigurationError):
        downsample(np.zeros((8, 8), dtype=complex), 3)


# --- normalize / augment ----------------------------------------------------


def test_normalize_examples():
    np.testing.assert_allclose(normalize(np.array([2.0, 2j])), [1.0, 1j])
    np.testing.assert_allclose(normalize(np.array([3 + 4j, 1.0])), [0.6 + 0.8j, 0.2])


def test_normalize_idempotent():
    rng = np.random.default_rng(2)
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    once = normalize(vec)
    np.testing.assert_array_equal(normalize(once), once)


def test_normalize_all_zero_rejected():
    with pytest.raises(DegeneratePatchError):
        normalize(np.zeros(4, dtype=complex))


def test_augment_identity_rotation():
    vec = np.array([1.0, -2j, 0.5])
    np.testing.assert_array_equal(phase_rotate_augment(vec, 0.0), np.concatenate([vec, vec]))


def test_augment_quarter_turn():
    out = phase_rotate_augment(np.array([1.0 + 0j]), math.pi / 2)
    np.testing.assert_allclose(out, [1.0, 1j], atol=1e-15)


def test_augment_preserves_moduli():
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    for angle in (0.1, 1.0, math.pi / 2, 2.5):
        out = phase_rotate_augment(vec, angle)
        np.testing.assert_allclose(np.abs(out[9:]), np.abs(out[:9]), rtol=1e-12)


# --- labeling ---------------------------------------------------------------


def test_label_unanimous_and_majority():
    mask = np.zeros((10, 10), dtype=np.uint8)
    assert label_patch((0, 0), 10, mask) == 0
    mask[:, :] = 1
    assert label_patch((0, 0), 10, mask) == 1
    mask[:6, :] = 0  # 60% ocean
    assert label_patch((0, 0), 10, mask) == 0


def test_label_tie_goes_to_ocean():
    mask = np.zeros((10, 10), dtype=np.uint8)
    mask[5:, :] = 1  # exact 50/50
    assert label_patch((0, 0), 10, mask) == 0


def test_label_requires_mask():
    with pytest.raises(LabelingError):
        label_patch((0, 0), 4, None)


# --- synthetic scenes -------------------------------------------------------


def test_scene_mean_modulus_ratio():
    for texture in (True, False):
        scene = _scene(256, 256, seed=9, ocean_sigma=0.3, land_sigma=1.0, land_phase_texture=texture)
        land = np.abs(scene.samples[scene.label_mask == 1]).mean()
        ocean = np.abs(scene.samples[scene.label_mask == 0]).mean()
        assert land / ocean == pytest.approx(10.0 / 3.0, rel=0.05)


def test_equal_sigma_no_texture_matches_statistics():
    scene = _scene(256, 256, seed=4, ocean_sigma=0.5, land_sigma=0.5, land_phase_texture=False)
    land = scene.samples[scene.label_mask == 1]
    ocean = scene.samples[scene.label_mask == 0]
    assert np.abs(land).mean() == pytest.approx(np.abs(ocean).mean(), rel=0.02)
    assert np.abs(land).std() == pytest.approx(np.abs(ocean).std(), rel=0.05)


def test_scene_determinism():
    a = _scene(64, 64, seed=11)
    b = _scene(64, 64, seed=11)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.label_mask, b.label_mask)


def test_blob_layout_contains_both_classes():
    scene = _scene(128, 128, seed=12, class_layout="blobs")
    assert set(np.unique(scene.label_mask)) == {0, 1}


def test_half_split_mask():
    scene = _scene(64, 64, seed=1)
    assert scene.label_mask[:32].max() == 0
    assert scene.label_mask[32:].min() == 1


# --- encoding ---------------------------------------------------------------


def test_derive_downsample_factor():
    assert derive_downsample_factor(128, 2048) == 4
    assert derive_downsample_factor(128, 128) == 16
    with pytest.raises(ConfigurationError):
        derive_downsample_factor(128, 130)


def test_encode_patches_shapes_and_unit_ceiling():
    patches = extract_patches(_scene(160, 160), side=128, stride=32)
    ds = encode_patches(patches, m_atoms=128)
    assert ds.features.shape == (4, 128)
    assert np.abs(ds.features).max() <= 1.0 + 1e-12
    assert ds.grid_shape() == (2, 2)


@pytest.mark.parametrize(
    "origins, shape",
    [
        pytest.param([(0, 0), (0, 32), (32, 0), (32, 32)], (2, 2), id="full-grid"),
        pytest.param([(0, 0), (0, 32), (32, 0), (0, 0)], None, id="duplicate"),
        pytest.param([(32, 32), (32, 0), (0, 32), (0, 0)], None, id="reversed"),
        pytest.param([(0, 0), (0, 32), (32, 0)], None, id="missing-corner"),
    ],
)
def test_grid_shape_only_for_a_row_major_full_grid(origins, shape):
    ds = EncodedDataset(
        features=np.zeros((len(origins), 8), dtype=np.complex128),
        labels=np.zeros(len(origins), dtype=np.int64),
        origins=np.asarray(origins, dtype=np.int64),
    )
    assert ds.grid_shape() == shape


def test_encode_skips_degenerate_patch(caplog):
    good = IqPatch(samples=np.ones((8, 8), dtype=np.complex64), origin=(0, 0), label=1)
    dead = IqPatch(samples=np.zeros((8, 8), dtype=np.complex64), origin=(0, 8), label=0)
    with caplog.at_level(logging.WARNING):
        ds = encode_patches([good, dead], m_atoms=8)
    assert len(ds) == 1
    assert any("all-zero" in rec.message for rec in caplog.records)


def test_encode_rotation_off_duplicates_halves():
    patches = extract_patches(_scene(128, 128), side=128, stride=32)
    ds = encode_patches(patches, m_atoms=128, phase_rotation=False)
    np.testing.assert_array_equal(ds.features[0, :64], ds.features[0, 64:])


def test_default_pipeline_fills_2048_atoms():
    # 128x128 patch, factor-4 block means (1024 features), doubled to 2048
    patches = extract_patches(_scene(128, 128), side=128, stride=32)
    ds = encode_patches(patches, m_atoms=2048)
    assert ds.features.shape == (1, 2048)


# --- file formats -----------------------------------------------------------


def test_dataset_round_trip(tmp_path):
    patches = extract_patches(_scene(160, 160), side=128, stride=32)
    path = tmp_path / "d.simiq1"
    save_dataset(str(path), patches)
    loaded = load_dataset(str(path))
    assert len(loaded) == len(patches)
    for a, b in zip(patches, loaded):
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.origin == b.origin and a.label == b.label
        assert b.samples.dtype == np.complex64
        assert b.samples.flags.owndata and b.samples.flags.writeable
        assert b.samples.flags.aligned and b.samples.flags.c_contiguous


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.simiq1"
    save_dataset(str(path), [])
    assert load_dataset(str(path)) == []


def test_dataset_truncation_reports_offset(tmp_path):
    patches = extract_patches(_scene(128, 128), side=128, stride=32)
    path = tmp_path / "d.simiq1"
    save_dataset(str(path), patches)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match="byte offset"):
        load_dataset(str(path))


def _dataset_with_count(tmp_path, count):
    patches = extract_patches(_scene(128, 128), side=64, stride=32)
    path = tmp_path / "d.simiq1"
    save_dataset(str(path), patches)
    blob = bytearray(path.read_bytes())
    blob[6:10] = struct.pack("<I", count)
    path.write_bytes(bytes(blob))
    return path, len(patches), len(blob)


def test_dataset_count_one_too_high_fails_before_patches(tmp_path):
    path, n, size = _dataset_with_count(tmp_path, count=10)
    assert n == 9  # the header claims one patch more than the file holds
    with pytest.raises(FormatError, match=f"10 patches of side 64.*file has {size} bytes"):
        load_dataset(str(path))


def _count_reads(monkeypatch) -> list[int]:
    """From here on the loaders open files through one that tallies the bytes read."""
    tally = [0]

    class CountingFile(io.FileIO):
        def read(self, size=-1):
            buf = super().read(size)
            tally[0] += len(buf)
            return buf

    for module in (data, network):
        monkeypatch.setattr(module, "open", lambda path, mode: CountingFile(path), raising=False)
    return tally


def test_dataset_huge_count_fails_without_reading_a_patch(tmp_path, monkeypatch):
    path, _, _ = _dataset_with_count(tmp_path, count=2**32 - 1)
    tally = _count_reads(monkeypatch)
    with pytest.raises(FormatError, match=f"{2**32 - 1} patches.*byte offset 14"):
        load_dataset(str(path))
    assert tally[0] == 14  # the header only


def _saved_file(tmp_path, fmt):
    """A small valid file of each binary format, and its loader."""
    path = tmp_path / f"f.{fmt}"
    if fmt == "dataset":
        save_dataset(str(path), extract_patches(_scene(128, 128), side=64, stride=32))
        return path, load_dataset
    if fmt == "scene":
        save_scene(str(path), _scene(16, 24))
        return path, load_scene
    save_params(str(path), PhaseParams(theta=np.zeros((2, 3))))
    return path, load_params


# case -> (edit of a valid file, the start of the error it must raise)
CORRUPTIONS = {
    "huge-header": (lambda b: b[:6] + b"\xff" * 8 + b[14:], "truncated file"),
    "one-byte-short": (lambda b: b[:-1], "truncated file"),
    "trailing-byte": (lambda b: b + b"\x00", "trailing bytes"),
    "bad-magic": (lambda b: b"NOTMAG" + b[6:], "bad magic"),
    # the second header field: the patch side, or the scene width
    "zero-side": (lambda b: b[:10] + bytes(4) + b[14:], "zero side"),
}
CORRUPT_FILES = [
    (fmt, case)
    for case in CORRUPTIONS
    for fmt in ("dataset", "scene", "params")
    if case != "zero-side" or fmt != "params"
]


@pytest.mark.parametrize("fmt, case", CORRUPT_FILES)
def test_corrupt_file_fails_naming_byte_offset(tmp_path, fmt, case):
    path, loader = _saved_file(tmp_path, fmt)
    corrupt, problem = CORRUPTIONS[case]
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError, match=f"^{problem}.*byte offset"):
        loader(str(path))


@pytest.mark.parametrize(
    "fmt, fields",
    [
        pytest.param("scene", (400_000, 400_000), id="scene-400000x400000"),
        pytest.param("scene", (2**32 - 1, 2**32 - 1), id="scene-4294967295x4294967295"),
        pytest.param("params", (100_000, 100_000), id="params-100000x100000"),
        pytest.param("params", (2**32 - 1, 3), id="params-4294967295-layers"),
    ],
)
def test_oversized_header_fails_before_reading_payload(tmp_path, monkeypatch, fmt, fields):
    path, loader = _saved_file(tmp_path, fmt)
    blob = path.read_bytes()
    path.write_bytes(blob[:6] + struct.pack("<II", *fields) + blob[14:])
    header_size = 15 if fmt == "params" else 14
    tally = _count_reads(monkeypatch)
    with pytest.raises(FormatError, match=f"truncated file.*byte offset {header_size}"):
        loader(str(path))
    assert tally[0] == header_size


def test_short_read_fails_naming_byte_offset():
    fh = io.BytesIO(b"abc")
    fh.seek(1)
    with pytest.raises(FormatError, match="^truncated file: reading a header needs 9 bytes after byte offset 1, but only 2 follow$"):
        data._read_into(fh, bytearray(9), "a header")


def test_scene_rejects_unknown_mask_flag(tmp_path):
    path = tmp_path / "s.simsc1"
    save_scene(str(path), _scene(16, 24))
    blob = bytearray(path.read_bytes())
    flag_at = 14 + 8 * 16 * 24
    assert blob[flag_at] == 1
    blob[flag_at] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"unknown mask flag 7 at byte offset {flag_at}"):
        load_scene(str(path))


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "d.simiq1"
    path.write_bytes(b"NOTIQ1" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_dataset(str(path))


def test_scene_round_trip(tmp_path):
    scene = _scene(48, 64, seed=13)
    path = tmp_path / "s.simsc1"
    save_scene(str(path), scene)
    loaded = load_scene(str(path))
    np.testing.assert_array_equal(loaded.samples, scene.samples)
    np.testing.assert_array_equal(loaded.label_mask, scene.label_mask)
    for array in (loaded.samples, loaded.label_mask):
        assert array.flags.owndata and array.flags.writeable


def test_scene_round_trip_without_mask(tmp_path):
    scene = IqScene(samples=_scene(16, 16, seed=2).samples, label_mask=None)
    path = tmp_path / "s.simsc1"
    save_scene(str(path), scene)
    assert load_scene(str(path)).label_mask is None
