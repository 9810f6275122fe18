"""IQ scenes, patch extraction, feature encoding, and dataset files.

A raw complex scene is cut into overlapping square patches, each patch is
block-mean downsampled, scaled to max modulus 1, and doubled up with a
phase-rotated copy so the feature vector fills the M-atom input layer.

The synthetic generator stands in for real decoded IQ scenes: ocean is
pure speckle (i.i.d. circular complex Gaussian); land carries the same
speckle power plus, when phase texture is enabled, a coherent component
whose phase follows a smooth spatial ramp. The coherent part is what makes
land patches separable after per-patch normalization (their block means
have near-constant modulus and structured phase, versus Rayleigh-spread
moduli on ocean) and gives the phase-rotation augmentation something to
bite on.
"""

import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .binio import check_size, read_header
from .errors import (
    ConfigurationError,
    DegeneratePatchError,
    EncodingError,
    FormatError,
    LabelingError,
    ShapeError,
)

logger = logging.getLogger("simd2nn.data")

# Land texture internals: fraction of land power in the coherent component
# and the spatial period of its phase ramp, in pixels. The coherent fraction
# stays <= 0.6 so the per-class mean-modulus ratio tracks sigma within ~1%.
LAND_COHERENT_FRACTION = 0.6
TEXTURE_PERIOD_PX = 256.0

SYNTH_LAYOUTS = ("half-split", "blobs")


@dataclass
class IqScene:
    samples: np.ndarray                 # (H, W) complex64
    label_mask: np.ndarray | None = None  # (H, W) uint8 class indices

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] < 1 or self.samples.shape[1] < 1:
            raise ShapeError(f"scene must be a non-empty 2-D array, got {self.samples.shape}")
        if self.label_mask is not None and self.label_mask.shape != self.samples.shape:
            raise ShapeError(
                f"label mask shape {self.label_mask.shape} != scene shape {self.samples.shape}"
            )


@dataclass
class IqPatch:
    samples: np.ndarray      # (side, side) complex64
    origin: tuple[int, int]  # (row, col) in the source scene
    label: int = -1          # class index, -1 when unlabeled


def extract_patches(scene: IqScene, side: int = 128, stride: int = 32) -> list[IqPatch]:
    """Sliding-window patches in row-major origin order.

    Origins are (r*stride, c*stride) for every window fully inside the
    scene; patches are labeled by majority vote when the scene has a mask.
    """
    if side < 1 or stride < 1:
        raise ConfigurationError(f"side and stride must be positive, got {side}, {stride}")
    h, w = scene.samples.shape
    if side > h or side > w:
        logger.warning("patch side %d exceeds scene size %dx%d; no patches extracted", side, h, w)
        return []
    patches = []
    for r in range(0, h - side + 1, stride):
        for c in range(0, w - side + 1, stride):
            label = -1
            if scene.label_mask is not None:
                label = label_patch((r, c), side, scene.label_mask)
            patches.append(IqPatch(samples=scene.samples[r : r + side, c : c + side], origin=(r, c), label=label))
    return patches


def label_patch(origin: tuple[int, int], side: int, label_mask: np.ndarray | None) -> int:
    """Majority class under the window; ties resolve to the lowest index."""
    if label_mask is None:
        raise LabelingError("scene has no label mask")
    r, c = origin
    window = label_mask[r : r + side, c : c + side]
    counts = np.bincount(window.ravel())
    return int(np.argmax(counts))


def downsample(samples: np.ndarray, factor: int = 4) -> np.ndarray:
    """Non-overlapping factor x factor complex block means, flattened row-major."""
    h, w = samples.shape
    if factor < 1 or h % factor or w % factor:
        raise ConfigurationError(f"factor {factor} does not divide patch shape {h}x{w}")
    blocks = samples.astype(np.complex128).reshape(h // factor, factor, w // factor, factor)
    return blocks.mean(axis=(1, 3)).ravel()


def normalize(features: np.ndarray) -> np.ndarray:
    """Scale to max modulus 1, preserving phases and relative amplitudes."""
    peak = np.abs(features).max() if features.size else 0.0
    if peak == 0.0:
        raise DegeneratePatchError("all-zero feature vector cannot be normalized")
    return features / peak


def phase_rotate_augment(features: np.ndarray, angle: float = math.pi / 2) -> np.ndarray:
    """Concatenate the features with a phase-rotated copy (original half first)."""
    return np.concatenate([features, np.exp(1j * angle) * features])


def synthesize_scene(
    height: int,
    width: int,
    class_layout: str = "half-split",
    ocean_sigma: float = 0.3,
    land_sigma: float = 1.0,
    land_phase_texture: bool = True,
    rng: np.random.Generator | None = None,
) -> IqScene:
    """Seeded synthetic land/ocean IQ scene with a ground-truth mask.

    Per-component speckle std is ocean_sigma / land_sigma; with texture on,
    land keeps the same total power but moves LAND_COHERENT_FRACTION of it
    into a smooth-phase coherent term.
    """
    if ocean_sigma <= 0 or land_sigma <= 0:
        raise ConfigurationError("sigmas must be positive")
    if rng is None:
        raise ConfigurationError("synthesize_scene requires a seeded rng")
    if class_layout == "half-split":
        mask = np.zeros((height, width), dtype=np.uint8)
        mask[height // 2 :, :] = 1
    elif class_layout == "blobs":
        mask = _blob_mask(height, width, rng)
    else:
        raise ConfigurationError(f"unknown class_layout {class_layout!r}")

    g = rng.standard_normal((height, width)) + 1j * rng.standard_normal((height, width))
    if land_phase_texture:
        rho = LAND_COHERENT_FRACTION
        rr, cc = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
        ramp = np.exp(1j * (2.0 * np.pi / TEXTURE_PERIOD_PX) * (rr + cc))
        land = land_sigma * (math.sqrt(1.0 - rho * rho) * g + rho * math.sqrt(2.0) * ramp)
        samples = np.where(mask == 1, land, ocean_sigma * g)
    else:
        samples = np.where(mask == 1, land_sigma, ocean_sigma) * g
    return IqScene(samples=samples.astype(np.complex64), label_mask=mask)


def _blob_mask(height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """A few elliptical land blobs on an ocean background."""
    mask = np.zeros((height, width), dtype=np.uint8)
    n_blobs = max(3, (height * width) // (512 * 512))
    rr, cc = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    for _ in range(n_blobs):
        cy = rng.uniform(0, height)
        cx = rng.uniform(0, width)
        ay = rng.uniform(height / 12, height / 4)
        ax = rng.uniform(width / 12, width / 4)
        mask[((rr - cy) / ay) ** 2 + ((cc - cx) / ax) ** 2 <= 1.0] = 1
    return mask


@dataclass
class EncodedDataset:
    """Layer-0-ready feature vectors with labels and patch-grid bookkeeping."""

    features: np.ndarray  # (J, M) complex128, max modulus 1 per row
    labels: np.ndarray    # (J,) int64, -1 for unlabeled
    origins: np.ndarray   # (J, 2) int64 patch origins

    def __len__(self) -> int:
        return self.features.shape[0]

    def grid_shape(self) -> tuple[int, int] | None:
        """(rows, cols) of the patch grid when the origins are exactly the
        row-major product of their unique rows and columns, else None."""
        if len(self) == 0:
            return None
        rows = np.unique(self.origins[:, 0])
        cols = np.unique(self.origins[:, 1])
        if rows.size * cols.size != len(self):
            return None
        # R*C origins taken from R rows and C columns, in strictly increasing
        # row-major order, hold no duplicate, so they are the whole grid
        d_row, d_col = np.diff(self.origins[:, 0]), np.diff(self.origins[:, 1])
        if not ((d_row > 0) | ((d_row == 0) & (d_col > 0))).all():
            return None
        return rows.size, cols.size


def derive_downsample_factor(side: int, m_atoms: int) -> int:
    """Factor making side^2 pixels collapse to M/2 features before doubling."""
    if m_atoms % 2:
        raise ConfigurationError(f"atom count must be even to hold two feature halves, got {m_atoms}")
    half = m_atoms // 2
    root = math.isqrt(half)
    if root * root != half or side % root:
        raise ConfigurationError(
            f"no integer block size turns a {side}x{side} patch into {half} features"
        )
    return side // root


def encode_patches(
    patches: list[IqPatch],
    m_atoms: int,
    phase_rotation: bool = True,
    rotation_angle: float = math.pi / 2,
) -> EncodedDataset:
    """Downsample, normalize, and augment patches into layer-0 vectors.

    With phase_rotation off both halves carry the same data (rotation angle
    0), keeping the layout and M fixed so ablations change exactly one
    factor. All-zero patches are excluded with a warning; a patch whose
    block means are not finite (a NaN or infinite sample) raises
    ``EncodingError`` naming its index and origin.
    """
    if not patches:
        raise ConfigurationError("no patches to encode")
    side = patches[0].samples.shape[0]
    factor = derive_downsample_factor(side, m_atoms)
    angle = rotation_angle if phase_rotation else 0.0
    feats, labels, origins = [], [], []
    for i, patch in enumerate(patches):
        vec = downsample(patch.samples, factor)
        if not np.isfinite(vec).all():
            raise EncodingError(
                f"patch {i} at origin {patch.origin} has non-finite block means"
            )
        try:
            vec = normalize(vec)
        except DegeneratePatchError:
            logger.warning("skipping all-zero patch %d at origin %s", i, patch.origin)
            continue
        full = phase_rotate_augment(vec, angle)
        if full.shape[0] != m_atoms:
            raise ShapeError(f"encoded length {full.shape[0]} != atom count {m_atoms}")
        feats.append(full)
        labels.append(patch.label)
        origins.append(patch.origin)
    if not feats:
        raise ConfigurationError("every patch was degenerate; nothing to encode")
    return EncodedDataset(
        features=np.asarray(feats, dtype=np.complex128),
        labels=np.asarray(labels, dtype=np.int64),
        origins=np.asarray(origins, dtype=np.int64),
    )


# --- binary formats -------------------------------------------------------
#
# SIMIQ1 patch dataset: magic "SIMIQ1", u32 count, u32 side, then per patch
# u8 label, u32 origin_row, u32 origin_col, side^2 float32 (I, Q) pairs.
# SIMSC1 raw scene: magic "SIMSC1", u32 H, u32 W, H*W float32 (I, Q) pairs,
# u8 mask flag (0 or 1), then H*W u8 mask values when the flag is 1.
# All integers and floats little-endian. The loaders check each size against
# the file (``binio``) before reading it, and reject trailing bytes.

DATASET_MAGIC = b"SIMIQ1"
SCENE_MAGIC = b"SIMSC1"


def save_dataset(path: str, patches: list[IqPatch]) -> None:
    if patches:
        side = patches[0].samples.shape[0]
        for p in patches:
            if p.samples.shape != (side, side):
                raise ShapeError(f"mixed patch shapes: {p.samples.shape} vs ({side}, {side})")
            if not 0 <= p.label <= 255:
                raise ConfigurationError(f"patch label {p.label} does not fit in a byte")
    else:
        side = 0
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<II", len(patches), side))
        for p in patches:
            fh.write(struct.pack("<BII", p.label, p.origin[0], p.origin[1]))
            fh.write(np.ascontiguousarray(p.samples, dtype="<c8").tobytes())


def load_dataset(path: str) -> list[IqPatch]:
    with open(path, "rb") as fh:
        count, side = read_header(fh, DATASET_MAGIC, "<II")
        if count and not side:
            raise FormatError(f"zero side in the header at byte offset 6: {count} patches of side 0")
        record = 9 + 8 * side * side  # label, origin row/col, samples
        check_size(fh, count * record, f"{count} patches of side {side}")
        patches = []
        for _ in range(count):
            raw = fh.read(record)
            label, row, col = struct.unpack_from("<BII", raw)
            samples = np.frombuffer(raw, dtype="<c8", offset=9).reshape(side, side).copy()
            patches.append(IqPatch(samples=samples, origin=(row, col), label=label))
        return patches


def save_scene(path: str, scene: IqScene) -> None:
    h, w = scene.samples.shape
    with open(path, "wb") as fh:
        fh.write(SCENE_MAGIC)
        fh.write(struct.pack("<II", h, w))
        fh.write(np.ascontiguousarray(scene.samples, dtype="<c8").tobytes())
        if scene.label_mask is not None:
            fh.write(struct.pack("<B", 1))
            fh.write(np.ascontiguousarray(scene.label_mask, dtype=np.uint8).tobytes())
        else:
            fh.write(struct.pack("<B", 0))


def load_scene(path: str) -> IqScene:
    with open(path, "rb") as fh:
        h, w = read_header(fh, SCENE_MAGIC, "<II")
        if not (h and w):
            raise FormatError(f"zero side in the header at byte offset 6: a {h}x{w} scene")
        check_size(fh, 8 * h * w + 1, f"{h}x{w} samples and a mask flag", exact=False)
        samples = np.frombuffer(fh.read(8 * h * w), dtype="<c8").reshape(h, w).copy()
        flag_at = fh.tell()
        flag = fh.read(1)[0]
        if flag > 1:
            raise FormatError(f"unknown mask flag {flag} at byte offset {flag_at}, expected 0 or 1")
        check_size(fh, flag * h * w, f"{flag * h * w} mask bytes after mask flag {flag}")
        mask = None
        if flag:
            mask = np.frombuffer(fh.read(h * w), dtype=np.uint8).reshape(h, w).copy()
        return IqScene(samples=samples, label_mask=mask)
