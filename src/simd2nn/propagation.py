"""Fixed free-space coupling between adjacent layers and from the feed.

All matrices depend only on geometry and are constants during training; with
uniform spacing every inter-layer matrix is identical, so it is built once
and shared. The per-pair coefficient is ``kernels.diffraction_coefficient``,
re-exported here.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BoundsError
from .geometry import SimGeometry, layer_positions, tx_position
from .kernels import diffraction_coefficient  # noqa: F401  (re-export)


def build_transmission_matrix(geometry: SimGeometry, to_layer: int) -> np.ndarray:
    """Coupling from layer ``to_layer - 1`` to layer ``to_layer``, shape (M, M).

    entries[m, m'] couples source atom m' to destination atom m, so the
    forward pass is entries @ field.
    """
    if not 1 <= to_layer <= geometry.num_layers:
        raise BoundsError(f"to_layer {to_layer} outside [1, {geometry.num_layers}]")
    src = layer_positions(geometry, to_layer - 1)
    dst = layer_positions(geometry, to_layer)
    return kernels.coupling_matrix(
        src, dst, geometry.atom_pitch_x, geometry.atom_pitch_y, geometry.wavelength
    )


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


def build_propagation(geometry: SimGeometry) -> Propagation:
    """Build the feed vector and the (shared) inter-layer matrix once."""
    return Propagation(
        w0=build_input_vector(geometry),
        w_matrix=build_transmission_matrix(geometry, 1),
    )


def dump_matrix_text(entries: np.ndarray, path: str) -> None:
    """Write a matrix as ``row col re im`` lines for inspection."""
    with open(path, "w") as fh:
        for r in range(entries.shape[0]):
            for c in range(entries.shape[1]):
                v = entries[r, c]
                fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")
