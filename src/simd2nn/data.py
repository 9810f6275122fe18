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

Preparation works at scene scale in bounded memory. Synthesis draws the
two full normal arrays, then builds the scene in bands of ``BAND_ROWS``
rows. ``extract_patches`` labels every window from per-block class counts
(blocks of gcd(side, stride) pixels, one summed-area table per class; Crow,
SIGGRAPH 1984). ``encode_patches`` takes a patch's block means from the
block-mean map of the array the patch views: a patch that
``extract_patches`` cut, with its origin a multiple of the factor, views its
scene, whose map is computed once over the rows the windows cover; any
other patch (a dataset record, a copy, an unaligned or strided view) is
its own source. The position comes from the view itself, never from
``origin``. Each block mean is made from the same f×f complex128 samples
by the same additions in the same order as numpy's ``mean`` in
``downsample``, and each label from the same counts as ``label_patch``, so
the bytes are those of the per-patch oracles (``downsample``,
``normalize``, ``phase_rotate_augment``, ``label_patch``), which stay
public for the tests that check this.
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

# Bounds on the temporaries that preparation holds at once: synthesis works
# on bands of BAND_ROWS scene rows, encoding on bands of about
# ENCODE_BAND_PIXELS complex128 values (2 MiB), at least one block row high.
BAND_ROWS = 64
ENCODE_BAND_PIXELS = 1 << 17

# Largest downsample factor whose block means are summed across a band
# (``_lane_sums``) instead of by numpy's ``mean``: measured on a 128x1600
# band, 2.6x faster at factor 4, level at 8, 1.7x slower at 16.
LANE_SUM_FACTOR = 8


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
    Each patch's samples are a view of the scene's.
    """
    if side < 1 or stride < 1:
        raise ConfigurationError(f"side and stride must be positive, got {side}, {stride}")
    h, w = scene.samples.shape
    if side > h or side > w:
        logger.warning("patch side %d exceeds scene size %dx%d; no patches extracted", side, h, w)
        return []
    rows = range(0, h - side + 1, stride)
    cols = range(0, w - side + 1, stride)
    labels = np.full((len(rows), len(cols)), -1)
    if scene.label_mask is not None:
        labels = _window_labels(scene.label_mask, side, stride, labels.shape)
    return [
        IqPatch(samples=scene.samples[r : r + side, c : c + side], origin=(r, c), label=int(labels[i, j]))
        for i, r in enumerate(rows)
        for j, c in enumerate(cols)
    ]


def _window_labels(mask: np.ndarray, side: int, stride: int, grid: tuple[int, int]) -> np.ndarray:
    """``label_patch`` of every window on the (rows, cols) grid, from block counts.

    Windows start on multiples of ``stride`` and span ``side`` pixels, so
    each is a whole number of g×g blocks, g = gcd(side, stride). Each class
    is counted once per block, the counts are summed into a table with a
    zero first row and column, and a window's count is four corners of it.
    """
    g = math.gcd(side, stride)
    s, t = side // g, stride // g
    rows, cols = (grid[0] - 1) * t + s, (grid[1] - 1) * t + s
    blocks = mask[: rows * g, : cols * g]
    # window counts never exceed side^2 and block counts never exceed the scene
    dtype = np.int32 if blocks.size < 2**31 else np.int64
    top, left = np.arange(grid[0]) * t, np.arange(grid[1]) * t
    counts = []
    for k in range(int(blocks.max()) + 1):
        table = np.zeros((rows + 1, cols + 1), dtype=dtype)
        (blocks == k).reshape(rows, g, cols, g).sum(axis=(1, 3), dtype=dtype, out=table[1:, 1:])
        np.cumsum(table, axis=0, out=table)
        np.cumsum(table, axis=1, out=table)
        counts.append(
            table[np.ix_(top + s, left + s)] - table[np.ix_(top, left + s)]
            - table[np.ix_(top + s, left)] + table[np.ix_(top, left)]
        )
    # argmax takes the first maximum: ties go to the lowest class, as in label_patch
    return np.argmax(counts, axis=0)


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

    # all real parts, then all imaginary parts: the draw order is the seed contract
    real = rng.standard_normal((height, width))
    imag = rng.standard_normal((height, width))
    samples = np.empty((height, width), dtype=np.complex64)
    if land_phase_texture:
        rho = LAND_COHERENT_FRACTION
        # the ramp's phase depends only on r + c: row r is diagonals r .. r + width - 1
        ramp = np.exp(1j * (2.0 * np.pi / TEXTURE_PERIOD_PX) * np.arange(height + width - 1))
        ramp_rows = np.lib.stride_tricks.sliding_window_view(ramp, width)
    for r0 in range(0, height, BAND_ROWS):
        band = slice(r0, r0 + BAND_ROWS)
        g = real[band] + 1j * imag[band]
        if land_phase_texture:
            land = land_sigma * (math.sqrt(1.0 - rho * rho) * g + rho * math.sqrt(2.0) * ramp_rows[band])
            samples[band] = np.where(mask[band] == 1, land, ocean_sigma * g)
        else:
            samples[band] = np.where(mask[band] == 1, land_sigma, ocean_sigma) * g
    return IqScene(samples=samples, label_mask=mask)


def _blob_mask(height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """A few elliptical land blobs on an ocean background.

    Each ellipse is tested only inside its bounding box, padded by a pixel so
    that rounding at the rim cannot drop a pixel the full-grid test keeps.
    """
    mask = np.zeros((height, width), dtype=np.uint8)
    n_blobs = max(3, (height * width) // (512 * 512))
    for _ in range(n_blobs):
        cy = rng.uniform(0, height)
        cx = rng.uniform(0, width)
        ay = rng.uniform(height / 12, height / 4)
        ax = rng.uniform(width / 12, width / 4)
        rr = np.arange(max(0, math.floor(cy - ay) - 1), min(height, math.ceil(cy + ay) + 2))
        cc = np.arange(max(0, math.floor(cx - ax) - 1), min(width, math.ceil(cx + ax) + 2))
        inside = ((rr[:, None] - cy) / ay) ** 2 + ((cc - cx) / ax) ** 2 <= 1.0
        mask[rr[0] : rr[-1] + 1, cc[0] : cc[-1] + 1][inside] = 1
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

    The result is byte for byte the per-patch ``downsample``, ``normalize``
    and ``phase_rotate_augment`` path, written into one (N, M) array: the
    block means of patches that view one array come from one map of it.
    """
    if not patches:
        raise ConfigurationError("no patches to encode")
    side = patches[0].samples.shape[0]
    factor = derive_downsample_factor(side, m_atoms)
    n, half = side // factor, m_atoms // 2
    features = np.empty((len(patches), m_atoms), dtype=np.complex128)
    means = features[:, :half].reshape(len(patches), n, n)
    windows = {}  # id(source) -> (source, [(patch index, row, col)])
    for i, patch in enumerate(patches):
        if patch.samples.shape != (side, side):
            raise ShapeError(
                f"patch {i} at origin {patch.origin} has shape {patch.samples.shape}, expected ({side}, {side})"
            )
        source, row, col = _view_position(patch.samples, factor)
        if source is patch.samples:
            _block_means(source, factor, out=means[i])
        else:
            windows.setdefault(id(source), (source, []))[1].append((i, row, col))
    for source, wins in windows.values():
        _gather_windows(source, wins, side, factor, means)

    head = features[:, :half]
    step = max(1, ENCODE_BAND_PIXELS // half)
    peaks = np.concatenate([np.abs(head[i : i + step]).max(axis=1) for i in range(0, len(patches), step)])
    # a NaN or infinite block mean makes its row's peak modulus non-finite
    bad = np.flatnonzero(~np.isfinite(peaks))
    stop = int(bad[0]) if bad.size else len(patches)
    for i in np.flatnonzero(peaks[:stop] == 0.0):
        logger.warning("skipping all-zero patch %d at origin %s", i, patches[i].origin)
    if bad.size:
        raise EncodingError(f"patch {stop} at origin {patches[stop].origin} has non-finite block means")
    kept = np.flatnonzero(peaks != 0.0)
    if not kept.size:
        raise ConfigurationError("every patch was degenerate; nothing to encode")
    if kept.size < len(patches):
        for dst, src in enumerate(kept):
            features[dst] = features[src]
        features, head = features[: kept.size], head[: kept.size]
    np.divide(head, peaks[kept, None], out=head)
    angle = rotation_angle if phase_rotation else 0.0
    np.multiply(np.exp(1j * angle), head, out=features[:, half:])
    return EncodedDataset(
        features=features,
        labels=np.array([patches[i].label for i in kept], dtype=np.int64),
        origins=np.array([patches[i].origin for i in kept], dtype=np.int64),
    )


def _view_position(samples: np.ndarray, factor: int) -> tuple[np.ndarray, int, int]:
    """(source, row, col): the array whose block-mean map holds these samples'
    block means, and their offset in it.

    That is the C-contiguous 2-D array that ``samples`` is a window of, with
    the same strides, at a row and column that are multiples of ``factor``
    (found from the data pointers); otherwise ``samples`` itself, at (0, 0).
    """
    base = samples.base
    if (
        isinstance(base, np.ndarray)
        and base.ndim == 2
        and base.dtype == samples.dtype
        and base.strides == samples.strides
        and base.flags.c_contiguous
    ):
        offset = samples.__array_interface__["data"][0] - base.__array_interface__["data"][0]
        row, rest = divmod(offset, base.strides[0])
        col, rest = divmod(rest, base.itemsize)
        h, w = samples.shape
        if (
            not rest
            and row >= 0
            and row % factor == 0
            and col % factor == 0
            and row + h <= base.shape[0]
            and col + w <= base.shape[1]
        ):
            return base, row, col
    return samples, 0, 0


def _block_means(samples: np.ndarray, factor: int, out: np.ndarray) -> None:
    """Write ``downsample``'s block means of ``samples`` into ``out``, reshaped
    to the block grid, converting one band of rows to complex128 at a time.

    numpy's ``mean`` over the two block axes adds each block row's ``factor``
    samples with one pairwise-summation call per row. Up to LANE_SUM_FACTOR
    that call does little work, so the same additions are made across the
    whole band instead (``_lane_sums``), then the rows in order from zero and
    the same division: the bytes do not change.
    """
    h, w = samples.shape
    step = factor * max(1, ENCODE_BAND_PIXELS // (factor * w))
    for r0 in range(0, h, step):
        band = samples[r0 : r0 + step].astype(np.complex128)
        blocks = band.reshape(band.shape[0] // factor, factor, w // factor, factor)
        dest = out[r0 // factor : (r0 + band.shape[0]) // factor]
        if factor <= LANE_SUM_FACTOR:
            np.add.reduce(_lane_sums(blocks), axis=1, out=dest)
            np.true_divide(dest, factor * factor, out=dest, casting="unsafe")
        else:
            np.mean(blocks, axis=(1, 3), out=dest)


def _lane_sums(x: np.ndarray) -> np.ndarray:
    """Sum of complex ``x`` over its last axis (at most 8 long), term for term
    as numpy's pairwise summation makes it: in order below 4 terms, else as
    (r0 + r1) + (r2 + r3) of 4 interleaved partial sums, then the rest."""
    f = x.shape[-1]
    if f < 4:
        s = x[..., 0].copy()
        for k in range(1, f):
            s += x[..., k]
        return s
    r = [x[..., k] + x[..., k + 4] if f == 8 else x[..., k] for k in range(4)]
    s = (r[0] + r[1]) + (r[2] + r[3])
    for k in range(4 * (f // 4), f):
        s += x[..., k]
    return s


def _gather_windows(source, wins, side, factor, means) -> None:
    """Copy each window's block means out of the map of ``source`` over the
    rows and columns that the windows cover."""
    r0 = min(r for _, r, _ in wins)
    c0 = min(c for _, _, c in wins)
    r1 = max(r for _, r, _ in wins) + side
    c1 = max(c for _, _, c in wins) + side
    block_map = np.empty(((r1 - r0) // factor, (c1 - c0) // factor), dtype=np.complex128)
    _block_means(source[r0:r1, c0:c1], factor, out=block_map)
    n = side // factor
    for i, r, c in wins:
        br, bc = (r - r0) // factor, (c - c0) // factor
        means[i] = block_map[br : br + n, bc : bc + n]


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
        head = bytearray(9)
        patches = []
        for _ in range(count):
            _read_into(fh, head, "a patch header")
            label, row, col = struct.unpack("<BII", head)
            samples = np.empty((side, side), dtype="<c8")
            _read_into(fh, samples, f"{side}x{side} patch samples")
            patches.append(IqPatch(samples=samples, origin=(row, col), label=label))
        return patches


def _read_into(fh, buffer, what: str) -> None:
    """Fill ``buffer`` (a bytearray or a C-contiguous array) from the file."""
    need = memoryview(buffer).nbytes
    got = fh.readinto(buffer)
    if got != need:
        raise FormatError(
            f"truncated file: reading {what} needs {need} bytes after byte offset {fh.tell() - got}, "
            f"but only {got} follow"
        )


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
        samples = np.empty((h, w), dtype="<c8")
        _read_into(fh, samples, f"{h}x{w} samples")
        flag_at = fh.tell()
        flag = fh.read(1)[0]
        if flag > 1:
            raise FormatError(f"unknown mask flag {flag} at byte offset {flag_at}, expected 0 or 1")
        check_size(fh, flag * h * w, f"{flag * h * w} mask bytes after mask flag {flag}")
        mask = None
        if flag:
            mask = np.empty((h, w), dtype=np.uint8)
            _read_into(fh, mask, f"{h * w} mask bytes")
        return IqScene(samples=samples, label_mask=mask)
