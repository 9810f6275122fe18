"""Forward model of the stacked-metasurface classifier.

A patch's feature vector sits on the diagonal of layer 0; the wave then
alternates fixed free-space coupling with element-wise trainable layer
responses (unit-modulus phasors for the metasurface, unconstrained complex
weights for the digital baseline), crosses the downlink channel, and is
classified by the receive antenna with the highest power.

Everything here is linear in the input field, so the whole pass is one
K x M readout A = H D_L W ... D_1 W diag(tx w0). ``readout_adjoints`` forms
its adjoints layer by layer at antenna width K and ``receive`` reads a batch
through A; training uses both. ``forward_batch`` carries the fields layer by
layer, which ``predict`` and the gradient (at width K) use. Products with
the coupling matrix go through the propagation operator's ``apply`` and
``apply_adjoint``, and the receiver noise of both paths through
``add_noise``.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .binio import check_size, read_header
from .channel import ChannelRealization, add_awgn
from .errors import EncodingError, FormatError, ShapeError
from .geometry import SimGeometry
from .propagation import Operator

SIM = "sim"
DIGITAL = "digital"

PARAMS_MAGIC = b"SIMTH1"


@dataclass
class PhaseParams:
    """Trainable per-layer, per-atom phase shifts, radians, shape (L, M)."""

    theta: np.ndarray

    kind = SIM

    def layer_responses(self) -> np.ndarray:
        return np.exp(1j * self.theta)


@dataclass
class DigitalParams:
    """Unconstrained complex diagonal layer weights, shape (L, M)."""

    weights: np.ndarray

    kind = DIGITAL

    def layer_responses(self) -> np.ndarray:
        return self.weights


@dataclass(frozen=True)
class EncodedInput:
    """Diagonal of the layer-0 response: the augmented normalized features."""

    phi0_diag: np.ndarray


def encode_input(features: np.ndarray, m_atoms: int | None = None) -> EncodedInput:
    features = np.asarray(features, dtype=np.complex128)
    if features.ndim != 1:
        raise ShapeError(f"features must be 1-D, got shape {features.shape}")
    if m_atoms is not None and features.shape[0] != m_atoms:
        raise ShapeError(f"feature length {features.shape[0]} != atom count {m_atoms}")
    peak = np.abs(features).max(initial=0.0)
    if peak > 1.0 + 1e-9:
        raise EncodingError(f"feature modulus {peak} exceeds the unit transmission ceiling")
    return EncodedInput(phi0_diag=features)


@dataclass
class ForwardCache:
    """Fields of one pass that the backward pass consumes.

    t[l-1] = W u[l-1] is the field arriving at layer l before its response,
    where u[l-1] is the field leaving the layer below (u[0] is the encoded
    input times the feed). The layer-by-layer cache exists because the
    gradient with respect to layer l's responses reads the field arriving
    there; training caches it for the K contracted columns X a_y^H, not for
    the batch. The fields leaving each layer are not kept. Batched caches
    carry a trailing column axis.
    """

    t: np.ndarray  # (L, M) or (L, M, B)


def forward_batch(
    params: PhaseParams | DigitalParams,
    features: np.ndarray,
    propagation: Operator,
    realization: ChannelRealization,
    tx_amplitude: float,
    noise_rngs: list[np.random.Generator] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run a (M, B) batch of encoded columns; noise_rngs gives one stream per column."""
    resp = params.layer_responses()
    n_layers, m = resp.shape
    if features.ndim != 2 or features.shape[0] != m:
        raise ShapeError(f"batch features must be ({m}, B), got {features.shape}")
    if propagation.w0.shape != (m,):
        raise ShapeError(f"propagation has {propagation.w0.shape[0]} atoms, model has {m}")
    if realization.h_matrix.shape[1] != m:
        raise ShapeError(
            f"channel expects {realization.h_matrix.shape[1]} atoms, model has {m}"
        )
    t = np.empty((n_layers, m, features.shape[1]), dtype=np.complex128)
    u = features * (tx_amplitude * propagation.w0)[:, None]
    for l in range(n_layers):
        t[l] = propagation.apply(u)
        u = resp[l][:, None] * t[l]
    # einsum sums each column over the atoms in index order, so a column's y
    # does not depend on the batch it rides in (a gemm's order does)
    y = np.einsum("km,mb->kb", realization.h_matrix, u)
    y = add_noise(y, realization.noise_sigma, noise_rngs)
    return y, ForwardCache(t=t)


def add_noise(
    y: np.ndarray, noise_sigma: float, noise_rngs: list[np.random.Generator] | None
) -> np.ndarray:
    """Add one AWGN draw per (K, B) column from its own stream, in place."""
    if noise_rngs is None:
        return y
    if len(noise_rngs) != y.shape[1]:
        raise ShapeError(f"need {y.shape[1]} noise streams, got {len(noise_rngs)}")
    for b, rng in enumerate(noise_rngs):
        y[:, b] = add_awgn(y[:, b], noise_sigma, rng)
    return y


def readout_adjoints(
    params: PhaseParams | DigitalParams, propagation: Operator, h_matrix: np.ndarray
) -> np.ndarray:
    """Adjoints of the maps from each layer's output to the antennas, (L+1, M, K).

    r[l] = R_l^H, where R_l carries the field leaving layer l (the fed input
    for l = 0) to the K antennas: r[L] = H^H and r[l-1] = W^H conj(resp_l) r[l],
    one width-K ``apply_adjoint`` per layer.
    """
    resp = params.layer_responses()
    n_layers, m = resp.shape
    if h_matrix.shape[1] != m:
        raise ShapeError(f"channel expects {h_matrix.shape[1]} atoms, model has {m}")
    r = np.empty((n_layers + 1, m, h_matrix.shape[0]), dtype=np.complex128)
    r[n_layers] = h_matrix.conj().T
    for l in range(n_layers, 0, -1):
        r[l - 1] = propagation.apply_adjoint(np.conj(resp[l - 1])[:, None] * r[l])
    return r


def receive(
    adjoints: np.ndarray,
    features: np.ndarray,
    propagation: Operator,
    realization: ChannelRealization,
    tx_amplitude: float,
    noise_rngs: list[np.random.Generator] | None = None,
) -> np.ndarray:
    """Received (K, B) fields of a (M, B) batch, read through A = R_0 diag(tx w0).

    ``adjoints`` comes from ``readout_adjoints``; noise is added as in
    ``forward_batch``, one stream per column.
    """
    m = adjoints.shape[1]
    if features.ndim != 2 or features.shape[0] != m:
        raise ShapeError(f"batch features must be ({m}, B), got {features.shape}")
    readout = (tx_amplitude * propagation.w0) * adjoints[0].conj().T
    return add_noise(readout @ features, realization.noise_sigma, noise_rngs)


def forward(
    params: PhaseParams | DigitalParams,
    encoded: EncodedInput,
    propagation: Operator,
    realization: ChannelRealization,
    tx_amplitude: float,
    noise_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Single-patch forward pass; noise_rng None disables the AWGN term."""
    rngs = [noise_rng] if noise_rng is not None else None
    y, cache = forward_batch(
        params, encoded.phi0_diag[:, None], propagation, realization, tx_amplitude, rngs
    )
    return y[:, 0], ForwardCache(t=cache.t[:, :, 0])


def classify(y: np.ndarray) -> int:
    """Index of the antenna with the highest power; ties go to the lowest index."""
    if y.size == 0:
        raise ShapeError("cannot classify an empty received vector")
    return int(classify_batch(y[:, None])[0])


def classify_batch(y: np.ndarray) -> np.ndarray:
    if y.ndim != 2 or y.shape[0] == 0:
        raise ShapeError(f"batched receive vector must be (K, B) with K >= 1, got {y.shape}")
    return np.argmax(np.abs(y) ** 2, axis=0)


def init_params(
    geometry: SimGeometry, kind: str, rng: np.random.Generator
) -> PhaseParams | DigitalParams:
    """Uniform random phases; the digital model starts at the same phasors."""
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(geometry.num_layers, geometry.atoms_per_layer))
    if kind == SIM:
        return PhaseParams(theta=theta)
    if kind == DIGITAL:
        return DigitalParams(weights=np.exp(1j * theta))
    raise ShapeError(f"unknown parameter kind {kind!r}")


def save_params(path: str, params: PhaseParams | DigitalParams) -> None:
    if params.kind == SIM:
        values, kind_byte = params.theta, 0
    else:
        values, kind_byte = params.weights, 1
    n_layers, m = values.shape
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write(struct.pack("<IIB", n_layers, m, kind_byte))
        if kind_byte == 0:
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
        else:
            fh.write(np.ascontiguousarray(values, dtype="<c16").tobytes())


def load_params(path: str) -> PhaseParams | DigitalParams:
    with open(path, "rb") as fh:
        n_layers, m, kind_byte = read_header(fh, PARAMS_MAGIC, "<IIB")
        if kind_byte > 1:
            raise FormatError(f"unknown parameter kind byte {kind_byte} at byte offset 14")
        dtype, what = ("<c16", "weights") if kind_byte else ("<f8", "phases")
        check_size(fh, n_layers * m * np.dtype(dtype).itemsize, f"{n_layers} layers of {m} {what}")
        values = np.frombuffer(fh.read(), dtype=dtype).reshape(n_layers, m).copy()
        return DigitalParams(weights=values) if kind_byte else PhaseParams(theta=values)
