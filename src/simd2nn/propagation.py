"""Fixed free-space coupling between adjacent layers and from the feed.

All matrices depend only on geometry and are constants during training. The
R x C atom grids are identical and uniformly spaced, so every inter-layer
matrix is the same W, built once and shared, and W[m, m'] depends only on the
row and column offset between the two atoms: ``coupling_kernel`` evaluates
the coupling once per offset, (2R-1)(2C-1) coefficients, and
``build_transmission_matrix`` gathers the block-Toeplitz W from that kernel
with one strided copy. ``Propagation`` owns the products with W: the forward
and backward passes call ``apply`` and ``apply_adjoint`` and never multiply
by W themselves. The per-pair coefficient is
``kernels.diffraction_coefficient``, re-exported here.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .geometry import SimGeometry, layer_positions, tx_position
from .kernels import diffraction_coefficient  # noqa: F401  (re-export)


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


def build_transmission_matrix(geometry: SimGeometry) -> np.ndarray:
    """Coupling from one layer to the next, shape (M, M).

    entries[m, m'] couples source atom m' to destination atom m, so the
    forward pass is entries @ field. Every adjacent pair of layers gives this
    same matrix: entry ((r, c), (r', c')) is kernel[r - r' + R-1, c - c' + C-1].
    """
    rows, cols = geometry.atoms_rows, geometry.atoms_cols
    kernel = coupling_kernel(geometry)
    # a strided view of the kernel; the copy below is the only (M, M) array
    windows = sliding_window_view(kernel[::-1, ::-1], (rows, cols))[::-1, ::-1]
    m = geometry.atoms_per_layer
    return np.ascontiguousarray(windows).reshape(m, m)


def build_input_vector(geometry: SimGeometry) -> np.ndarray:
    """Coupling from the transmit antenna to every layer-0 atom, shape (M,)."""
    src = tx_position(geometry)[None, :]
    dst = layer_positions(geometry, 0)
    return kernels.coupling_matrix(
        src, dst, geometry.atom_pitch_x, geometry.atom_pitch_y, geometry.wavelength
    )[:, 0]


@dataclass(frozen=True)
class Propagation:
    """All fixed couplings one forward pass needs."""

    w0: np.ndarray        # (M,) antenna -> layer 0
    w_matrix: np.ndarray  # (M, M) layer l-1 -> layer l, shared across l

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


def build_propagation(geometry: SimGeometry) -> Propagation:
    """Build the feed vector and the (shared) inter-layer matrix once."""
    return Propagation(
        w0=build_input_vector(geometry),
        w_matrix=build_transmission_matrix(geometry),
    )


def dump_matrix_text(entries: np.ndarray, path: str) -> None:
    """Write a matrix as ``row col re im`` lines for inspection."""
    with open(path, "w") as fh:
        for r in range(entries.shape[0]):
            for c in range(entries.shape[1]):
                v = entries[r, c]
                fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")
