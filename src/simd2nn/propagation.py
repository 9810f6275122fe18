"""Fixed free-space coupling between adjacent layers and from the feed.

All couplings depend only on geometry and are constants during training.
The R x C atom grids are identical and uniformly spaced, so every
inter-layer matrix is the same W, and W[m, m'] depends only on the row and
column offset between the two atoms: ``coupling_kernel`` evaluates the
coupling once per offset, (2R-1)(2C-1) coefficients. W is therefore a
block-Toeplitz matrix, and a product with it is a 2-D convolution of each
column's R x C field with that kernel.

The forward and backward passes never multiply by W themselves; they call
``apply`` and ``apply_adjoint`` on the operator ``build_propagation``
returns. From ``FFT_MIN_ATOMS`` atoms on that is a ``ToeplitzPropagation``,
which convolves through the FFT of the zero-padded kernel and never holds
W. Below it, where the (M, M) product is cheaper than the transforms, it is
the dense ``Propagation``, which also carries any explicit W (the tests'
random-W oracles). ``build_transmission_matrix`` gathers the dense W from
the kernel with one strided copy, for ``dump-matrix`` and the oracles. The
per-pair coefficient is ``kernels.diffraction_coefficient``, re-exported
here.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .errors import ShapeError
from .geometry import SimGeometry, layer_positions, tx_position
from .kernels import diffraction_coefficient  # noqa: F401  (re-export)

# Atom count from which ``build_propagation`` returns the FFT operator. At
# 256 columns, one evaluation chunk, the FFT convolution is about level
# with the dense product at this size and faster above it; at a train
# step's 2 columns it is over 10x faster. On smaller grids the dense
# product wins at 256 columns (measurements in CHANGES.md).
FFT_MIN_ATOMS = 2048

# Bytes of padded spectrum the FFT operator transforms at a time: about 8
# columns at 32x64 atoms, 5 at 40x80. Its working set then stays within a
# core's L2 cache; blocks of twice that were 10-40% slower at width 256.
FFT_BLOCK_BYTES = 1 << 20


def coupling_kernel(geometry: SimGeometry) -> np.ndarray:
    """Coupling to the next layer per grid offset, shape (2R-1, 2C-1).

    kernel[dr + R-1, dc + C-1] couples an atom to the atom dr rows and dc
    columns away on the next layer, one ``layer_spacing`` downstream.
    """
    rows, cols = geometry.atoms_rows, geometry.atoms_cols
    dy, dx = np.meshgrid(
        np.arange(1 - rows, rows) * geometry.atom_pitch_y,
        np.arange(1 - cols, cols) * geometry.atom_pitch_x,
        indexing="ij",
    )
    dst = np.stack([dx.ravel(), dy.ravel(), np.full(dx.size, geometry.layer_spacing)], axis=1)
    return kernels.coupling_matrix(
        np.zeros((1, 3)), dst, geometry.atom_pitch_x, geometry.atom_pitch_y, geometry.wavelength
    ).reshape(dx.shape)


def toeplitz_matrix(kernel: np.ndarray) -> np.ndarray:
    """The (M, M) block-Toeplitz matrix of a (2R-1, 2C-1) offset kernel.

    Entry ((r, c), (r', c')) is kernel[r - r' + R-1, c - c' + C-1].
    """
    rows, cols = (kernel.shape[0] + 1) // 2, (kernel.shape[1] + 1) // 2
    # a strided view of the kernel; the copy below is the only (M, M) array
    windows = sliding_window_view(kernel[::-1, ::-1], (rows, cols))[::-1, ::-1]
    return np.ascontiguousarray(windows).reshape(rows * cols, rows * cols)


def build_transmission_matrix(geometry: SimGeometry) -> np.ndarray:
    """Coupling from one layer to the next, shape (M, M).

    entries[m, m'] couples source atom m' to destination atom m, so the
    forward pass is entries @ field. Every adjacent pair of layers gives this
    same matrix.
    """
    return toeplitz_matrix(coupling_kernel(geometry))


def build_input_vector(geometry: SimGeometry) -> np.ndarray:
    """Coupling from the transmit antenna to every layer-0 atom, shape (M,)."""
    src = tx_position(geometry)[None, :]
    dst = layer_positions(geometry, 0)
    return kernels.coupling_matrix(
        src, dst, geometry.atom_pitch_x, geometry.atom_pitch_y, geometry.wavelength
    )[:, 0]


@dataclass(frozen=True)
class Propagation:
    """All fixed couplings of one forward pass, with W held as a dense matrix."""

    w0: np.ndarray        # (M,) antenna -> layer 0
    w_matrix: np.ndarray  # (M, M) layer l-1 -> layer l, shared across l

    def __post_init__(self):
        m = self.w0.shape[0] if self.w0.ndim == 1 else -1
        if self.w_matrix.shape != (m, m):
            raise ShapeError(
                f"coupling matrix {self.w_matrix.shape} does not fit feed vector {self.w0.shape}"
            )

    def apply(self, fields: np.ndarray) -> np.ndarray:
        """W @ fields: carry (M,) or (M, B) fields from one layer to the next."""
        return self.w_matrix @ fields

    def apply_adjoint(self, fields: np.ndarray) -> np.ndarray:
        """W^H @ fields, computed as (fields^H W)^H.

        ``network.readout_adjoints`` calls this at the antenna count K (a few
        columns). Putting the narrow operand on the row side makes one gemm
        that reads W in its stored order and never materialises W^H. It
        assumes no symmetry of W; the tests check it against
        ``w_matrix.conj().T @ fields`` to rounding and the exact adjoint
        identity with ``apply``.
        """
        return np.conj(np.conj(fields).T @ self.w_matrix).T


def _smooth_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a length numpy.fft transforms quickly."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


class ToeplitzPropagation:
    """All fixed couplings of one forward pass, with W applied through the FFT.

    The kernel sits in a zero-padded P x Q grid, P >= 2R-1 and Q >= 2C-1
    both 2*3*5-smooth, with offset (dr, dc) at index (dr mod P, dc mod Q).
    ``apply`` zero-pads each column's R x C field to P x Q, multiplies its
    2-D DFT by the kernel's and keeps the top-left R x C of the inverse DFT:
    no offset wraps round, so that is exactly W @ fields. ``apply_adjoint``
    does the same with the conjugate spectrum, which is the exact adjoint of
    that padded circular convolution, so it needs no symmetry of W. Each
    column is transformed on its own, so a column's result does not depend
    on the other columns of the call.
    """

    def __init__(self, w0: np.ndarray, kernel: np.ndarray):
        if kernel.ndim != 2 or kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
            raise ShapeError(f"offset kernel must be (2R-1, 2C-1), got {kernel.shape}")
        rows, cols = (kernel.shape[0] + 1) // 2, (kernel.shape[1] + 1) // 2
        if w0.shape != (rows * cols,):
            raise ShapeError(f"feed vector {w0.shape} does not fit a {rows}x{cols} kernel")
        pr, pc = _smooth_size(2 * rows - 1), _smooth_size(2 * cols - 1)
        padded = np.zeros((pr, pc), dtype=np.complex128)
        padded[np.ix_(np.arange(1 - rows, rows) % pr, np.arange(1 - cols, cols) % pc)] = kernel
        self.w0 = w0
        self.kernel = kernel
        self.rows, self.cols = rows, cols
        self.spectrum = np.fft.fft2(padded)
        self.block = max(1, FFT_BLOCK_BYTES // self.spectrum.nbytes)

    @property
    def w_matrix(self) -> np.ndarray:
        """The dense (M, M) W, gathered from the kernel on each access."""
        return toeplitz_matrix(self.kernel)

    def apply(self, fields: np.ndarray) -> np.ndarray:
        """W @ fields for (M,) or (M, B) fields."""
        return self._convolve(fields, self.spectrum)

    def apply_adjoint(self, fields: np.ndarray) -> np.ndarray:
        """W^H @ fields for (M,) or (M, B) fields."""
        return self._convolve(fields, np.conj(self.spectrum))

    def _convolve(self, fields: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        rows, cols = self.rows, self.cols
        m = rows * cols
        if fields.shape[:1] != (m,) or fields.ndim > 2:
            raise ShapeError(f"fields must be ({m},) or ({m}, B), got {fields.shape}")
        columns = fields.reshape(m, -1)
        out = np.empty(columns.shape, dtype=np.complex128)
        for start in range(0, columns.shape[1], self.block):
            block = columns[:, start : start + self.block].T.reshape(-1, rows, cols)
            f = np.fft.fft2(block, s=spectrum.shape)
            f *= spectrum
            # invert along the rows first, so that the transforms down the
            # columns run on the C kept columns only
            g = np.fft.ifft(np.fft.ifft(f, axis=-1)[:, :, :cols], axis=-2)[:, :rows]
            out[:, start : start + len(block)] = g.reshape(len(block), m).T
        return out.reshape(fields.shape)


# Either operator: the passes use only ``w0``, ``apply`` and ``apply_adjoint``.
Operator = Propagation | ToeplitzPropagation


def build_propagation(geometry: SimGeometry) -> Operator:
    """Build the feed vector and the (shared) inter-layer operator once."""
    w0 = build_input_vector(geometry)
    kernel = coupling_kernel(geometry)
    if geometry.atoms_per_layer >= FFT_MIN_ATOMS:
        return ToeplitzPropagation(w0, kernel)
    return Propagation(w0=w0, w_matrix=toeplitz_matrix(kernel))


def dump_matrix_text(entries: np.ndarray, path: str) -> None:
    """Write a matrix as ``row col re im`` lines for inspection, one write per row."""
    with open(path, "w") as fh:
        for r, row in enumerate(entries):
            values = row.tolist()
            fh.write("".join(f"{r} {c} {v.real!r} {v.imag!r}\n" for c, v in enumerate(values)))
