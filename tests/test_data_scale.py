"""Scene-scale data preparation against its per-patch oracles and pinned bytes.

The SHA-256 digests below were computed with the per-patch implementation
that the scene-scale one replaced (full-scene synthesis temporaries, one
``bincount`` per patch label, one ``downsample`` per patch). Any change to
a synthesized sample, a mask value or an encoded feature bit fails them.
"""

import hashlib
import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from simd2nn import experiment
from simd2nn.config import ExperimentConfig
from simd2nn.data import (
    IqPatch,
    IqScene,
    derive_downsample_factor,
    downsample,
    encode_patches,
    extract_patches,
    label_patch,
    normalize,
    phase_rotate_augment,
    synthesize_scene,
)
from simd2nn.errors import DegeneratePatchError, EncodingError, ShapeError
from simd2nn.seeding import SYNTH, stream


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# (layout, phase texture, (height, width), seed) -> (samples digest, mask digest)
SCENE_DIGESTS = {
    ("half-split", True, (512, 512), 0): ("d441adb685035463c0db855101fb060dbc129a20ee654a26f6fa568bc3c6b424", "d68c2f05f6b2e25170902bddeb91d1d6c8881011d0fb5f57fe1e2518b3a2bcb3"),
    ("half-split", True, (512, 512), 3): ("72b7d6ee26c50cc0e61cafef295f0e14ccaf056a7c547bce4e4393e87f14e702", "d68c2f05f6b2e25170902bddeb91d1d6c8881011d0fb5f57fe1e2518b3a2bcb3"),
    ("half-split", True, (97, 130), 0): ("6d232080ec3fd0ba1f69b4e3bc7545448d569d10acd3fa9d7150d20fe7661f48", "b512268fb7174d4e410a23fc67bce70b30116cc9b9de684cad5521cd39a51a6e"),
    ("half-split", True, (97, 130), 3): ("60985af696698e21abb00e94064a2a190777cd45e91f426e3e4cdf75b6e51036", "b512268fb7174d4e410a23fc67bce70b30116cc9b9de684cad5521cd39a51a6e"),
    ("half-split", False, (512, 512), 0): ("8fa2ef1772c08fb9a9c4e6c72cbdc6bc926a7b666f5fc2b79cc7a365a125ca88", "d68c2f05f6b2e25170902bddeb91d1d6c8881011d0fb5f57fe1e2518b3a2bcb3"),
    ("half-split", False, (512, 512), 3): ("659d3f046b1c2e5754e6ca4c2ef780d66f2aedd4aeec7516196536421900a7af", "d68c2f05f6b2e25170902bddeb91d1d6c8881011d0fb5f57fe1e2518b3a2bcb3"),
    ("half-split", False, (97, 130), 0): ("7a208fe2f3d104fd83cb4e6d55e0eb8d661005f8cd0081353cc13f55e6876c9e", "b512268fb7174d4e410a23fc67bce70b30116cc9b9de684cad5521cd39a51a6e"),
    ("half-split", False, (97, 130), 3): ("986fab28dc850bf97cb5ddc526372b2c6288c25e4d62b047acd0cc6b85b3bd5e", "b512268fb7174d4e410a23fc67bce70b30116cc9b9de684cad5521cd39a51a6e"),
    ("blobs", True, (512, 512), 0): ("3134309fe2b36caebd51e404c123e542338bbb4b24782e0e738af3947622ac00", "85f167c31271ec232a9288ad5a9fdf5dde38aeff588e346a831e2b5b9c31db11"),
    ("blobs", True, (512, 512), 3): ("60da97b818187843e807a0a1f00111c96eee80c17b107a787bce7c0f1051e6bd", "94457f5d1ef736a9f885e09fc85706670a945ea8bff310c5d1676ccaa701cf2d"),
    ("blobs", True, (97, 130), 0): ("f1f47d6bb47418b3447dce7f700c37b31451e7e9fbc5b408c1bd9d3d8245c473", "6bf27c35b268454daa2eaa4f3dbe3b49ef721a50fc1277b2c34bfc149a668046"),
    ("blobs", True, (97, 130), 3): ("fab8b91758582c877feeb33c12d67de2c2b14d881bfc8aada7cfb8dc138f5f27", "c3159475b7caf23e4acd969e710993801083e2b150bd78633ff0211f776e4657"),
    ("blobs", False, (512, 512), 0): ("7c1ac2dac6c86be7f7b55a233fe38b72ed8f4bd39b5a580ac62921095410f7b5", "85f167c31271ec232a9288ad5a9fdf5dde38aeff588e346a831e2b5b9c31db11"),
    ("blobs", False, (512, 512), 3): ("c2e0e6096d6ec8d6689b312fee338a54970e00295b2366c23a6893044a829733", "94457f5d1ef736a9f885e09fc85706670a945ea8bff310c5d1676ccaa701cf2d"),
    ("blobs", False, (97, 130), 0): ("c0d8cee0719966a7d5311d92b7d3bfa405d1aadc61824ee86cd3888cf0074595", "6bf27c35b268454daa2eaa4f3dbe3b49ef721a50fc1277b2c34bfc149a668046"),
    ("blobs", False, (97, 130), 3): ("e010444d27516abbd4afbe3b4725dd779029635cafc0fac031363ac21537249e", "c3159475b7caf23e4acd969e710993801083e2b150bd78633ff0211f776e4657"),
}


@pytest.mark.parametrize(
    "layout, texture, shape, seed",
    list(SCENE_DIGESTS),
    ids=[f"{l}-{'tex' if t else 'flat'}-{h}x{w}-seed{s}" for l, t, (h, w), s in SCENE_DIGESTS],
)
def test_synthesized_scene_bytes_are_pinned(layout, texture, shape, seed):
    scene = synthesize_scene(
        *shape, class_layout=layout, land_phase_texture=texture, rng=stream(seed, SYNTH)
    )
    assert scene.samples.dtype == np.complex64 and scene.label_mask.dtype == np.uint8
    assert (_sha(scene.samples), _sha(scene.label_mask)) == SCENE_DIGESTS[layout, texture, shape, seed]


def test_default_encoding_bytes_are_pinned():
    cfg = ExperimentConfig()
    cfg = replace(cfg, data=replace(cfg.data, synth=replace(cfg.data.synth, height=512, width=512)))
    enc = experiment.encode_for_config(cfg, experiment.obtain_patches(cfg))
    assert enc.features.shape == (169, 2048) and enc.features.dtype == np.complex128
    assert _sha(enc.features) == "95a452d5a915cf4dbd1e51b460dd2115ff9e8a4987ba5064f58a7ee6d35101d5"
    assert _sha(enc.labels) == "b2a888614f48fa5f9c58ebe12d9259e824041f00a95d39404ed8f1d68a6c42bd"
    assert _sha(enc.origins) == "76d57b4f995bfe448ce250c616643beb6bd13506e0709fc1797a6d23a88aebc7"


# --- encoding against the per-patch oracle ----------------------------------


def _scene(h, w, seed=0):
    return synthesize_scene(h, w, rng=stream(seed, SYNTH))


def _oracle(patches, m_atoms, angle=math.pi / 2):
    """The per-patch path: downsample, normalize, augment each patch alone."""
    factor = derive_downsample_factor(patches[0].samples.shape[0], m_atoms)
    feats, labels, origins = [], [], []
    for patch in patches:
        try:
            vec = normalize(downsample(patch.samples, factor))
        except DegeneratePatchError:
            continue
        feats.append(phase_rotate_augment(vec, angle))
        labels.append(patch.label)
        origins.append(patch.origin)
    return np.asarray(feats), np.asarray(labels, dtype=np.int64), np.asarray(origins, dtype=np.int64)


def _assert_matches_oracle(patches, m_atoms, **kwargs):
    ds = encode_patches(patches, m_atoms, **kwargs)
    angle = kwargs.get("rotation_angle", math.pi / 2) if kwargs.get("phase_rotation", True) else 0.0
    feats, labels, origins = _oracle(patches, m_atoms, angle)
    assert ds.features.dtype == np.complex128 and ds.features.shape == feats.shape
    assert ds.features.tobytes() == feats.tobytes()
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_array_equal(ds.origins, origins)
    return ds


def _patch_cases():
    a, b = _scene(224, 200, seed=1), _scene(160, 192, seed=2)
    cut = extract_patches(a, side=128, stride=32)
    moved = replace(cut[0], origin=cut[5].origin)
    return {
        # origins 0, 30, 60, 90: the windows at 30 and 90 are off the block grid
        "stride-not-multiple-of-factor": (extract_patches(a, side=128, stride=30), 2048),
        "two-scenes": (cut + extract_patches(b, side=128, stride=32), 2048),
        "copied-samples": ([replace(p, samples=p.samples.copy()) for p in cut], 2048),
        "origin-replaced": ([moved] + cut[1:], 2048),
        "strided-view": ([IqPatch(samples=a.samples[::2, ::2][:96, :96], origin=(0, 0))]
                         + [IqPatch(samples=a.samples[i : i + 96, :96], origin=(i, 0)) for i in (0, 8)], 1152),
        "factor-16": (cut + [replace(p, samples=p.samples.copy()) for p in cut[::3]], 128),
    }


@pytest.mark.parametrize("case", list(_patch_cases()))
def test_encode_matches_the_per_patch_oracle(case):
    patches, m_atoms = _patch_cases()[case]
    _assert_matches_oracle(patches, m_atoms)
    _assert_matches_oracle(patches, m_atoms, phase_rotation=False)
    _assert_matches_oracle(patches, m_atoms, rotation_angle=1.234)


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16])
def test_encode_matches_the_oracle_at_every_factor(factor):
    """Summed across the band up to factor 8, by numpy's mean above it.

    Up to 256 complex64 values with moduli within a factor 2**21 sum exactly
    in complex128 in any order, so the samples span 30 decades: only then do
    the order of the additions and the signed zeros show in the bytes.
    """
    rng = np.random.default_rng(factor)
    side = 3 * factor
    h, w = 5 * factor, 4 * factor + 3
    scale = 10.0 ** rng.integers(-15, 16, (h, w))
    samples = ((rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))) * scale).astype(np.complex64)
    zeros = rng.random((h, w)) < 0.3
    samples[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0) * (1 + 1j)
    samples[:factor, :factor] = complex(-0.0, -0.0)
    cut = extract_patches(IqScene(samples=samples), side=side, stride=factor)
    patches = cut + [replace(p, samples=p.samples.copy()) for p in cut]
    _assert_matches_oracle(patches, 18)


def test_replaced_origin_encodes_its_own_samples():
    cut = extract_patches(_scene(224, 200, seed=1), side=128, stride=32)
    moved = replace(cut[0], origin=cut[5].origin)
    ds = encode_patches([moved, cut[5]], 2048)
    assert ds.features[0].tobytes() != ds.features[1].tobytes()
    assert ds.features[0].tobytes() == encode_patches([cut[0]], 2048).features[0].tobytes()


def test_encode_skips_an_all_zero_window_as_before(caplog):
    scene = _scene(192, 192, seed=3)
    scene.samples[:128, 32:160] = 0
    patches = extract_patches(scene, side=128, stride=32)
    assert not patches[1].samples.any()
    with caplog.at_level(logging.WARNING, logger="simd2nn.data"):
        ds = _assert_matches_oracle(patches, 2048)
    assert [r.getMessage() for r in caplog.records] == ["skipping all-zero patch 1 at origin (0, 32)"]
    assert len(ds) == len(patches) - 1 and (0, 32) not in map(tuple, ds.origins.tolist())


def test_encode_names_the_first_patch_with_a_nan_sample():
    scene = _scene(192, 192, seed=3)
    scene.samples[10, 150] = np.nan  # inside the windows at (0, 32) and (0, 64)
    patches = extract_patches(scene, side=128, stride=32)
    with pytest.raises(EncodingError, match=r"^patch 1 at origin \(0, 32\) has non-finite block means$"):
        encode_patches(patches, 2048)


def test_encode_rejects_a_patch_of_another_shape():
    cut = extract_patches(_scene(160, 160), side=128, stride=32)
    odd = IqPatch(samples=cut[1].samples[:64, :64], origin=(0, 32))
    with pytest.raises(ShapeError, match=r"^patch 1 at origin \(0, 32\) has shape \(64, 64\), expected \(128, 128\)$"):
        encode_patches([cut[0], odd], 2048)


# --- labels against label_patch ----------------------------------------------


@pytest.mark.parametrize("side, stride", [(4, 2), (6, 4), (5, 3), (13, 7), (8, 8), (3, 5), (10, 1)])
def test_block_count_labels_match_label_patch(side, stride):
    rng = np.random.default_rng(side * 100 + stride)
    # 3 classes in 2x2 runs, so that many windows tie exactly
    mask = rng.integers(0, 3, size=(24, 27)).repeat(2, axis=0).repeat(2, axis=1).astype(np.uint8)
    scene = IqScene(samples=np.zeros(mask.shape, dtype=np.complex64), label_mask=mask)
    patches = extract_patches(scene, side=side, stride=stride)
    assert [p.label for p in patches] == [label_patch(p.origin, side, mask) for p in patches]
    ties = [np.sort(np.bincount(mask[r : r + side, c : c + side].ravel()))[-2:] for r, c in
            (p.origin for p in patches)]
    if side % 2 == 0:
        assert sum(t.size == 2 and t[0] == t[1] for t in ties) > 0


@pytest.mark.parametrize("layout", ["half-split", "blobs"])
def test_scene_labels_match_label_patch(layout):
    scene = synthesize_scene(400, 336, class_layout=layout, rng=stream(5, SYNTH))
    patches = extract_patches(scene, side=128, stride=32)
    assert [p.label for p in patches] == [label_patch(p.origin, 128, scene.label_mask) for p in patches]


# --- memory -------------------------------------------------------------------


def test_scene_scale_preparation_stays_in_bounded_memory():
    """The default 1600x1600 scene cut and encoded for 2048 atoms, traced.

    Synthesis may hold its two float64 normal arrays and the scene; encoding
    the scene and the features. Each gets 16 MiB more for its bands, less
    than one full-scene complex128 array (39 MiB) or a second feature copy.
    """
    cfg = ExperimentConfig()
    tracemalloc.start()
    try:
        scene = experiment.synthesize_for_config(cfg)
        synth_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        patches = extract_patches(scene, side=cfg.data.patch_side, stride=cfg.data.stride)
        enc = experiment.encode_for_config(cfg, patches)
        encode_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mib = 2**20
    scene_bytes = scene.samples.nbytes + scene.label_mask.nbytes
    assert enc.features.shape == (2209, 2048)
    assert max(synth_peak, encode_peak) < enc.features.nbytes + scene_bytes + 64 * mib
    assert synth_peak < 2 * 8 * scene.samples.size + scene_bytes + 16 * mib
    assert encode_peak < enc.features.nbytes + scene_bytes + 16 * mib
