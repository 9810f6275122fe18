"""Loss, exact gradients, AdamW, and the two-stage train/deploy loop.

Loss is a cross-entropy over normalized received powers,

    p_k = (|y_k|^2 + eps) / sum_i (|y_i|^2 + eps),   loss = -ln p_label,

which is invariant to uniform power scaling, matching the argmax readout.

Adjoint convention: for every complex intermediate v we carry a_v defined
by d(loss) = 2 Re{ a_v^H dv }. From d|y_k|^2 = 2 Re{ conj(y_k) dy_k }:

    a_y,k   = (dloss/d|y_k|^2) y_k,  dloss/d|y_k|^2 = 1/S - 1{k=label}/(|y_label|^2+eps)

The stack is linear, so R_l, the map from the output of layer l to the K
antennas, does not depend on the batch. Its adjoint r_l = R_l^H
(``network.readout_adjoints``) is

    r_L     = H^H,   r_{l-1} = W^H conj(resp_l) r_l      (M, K)

Layer l's output is resp_l * t_l, so the batch-mean Wirtinger gradient with
respect to its responses is

    G_l = (2/B) sum_b conj(t_l,b) (r_l a_y,b) = (2/B) rowsum(r_l * conj(T_l)),
    T_l = t_l a_y^H.

The field t_l arriving at layer l is linear in the input X, so T_l is the
field that the K contracted columns X a_y^H bring to layer l. A train step
(``batch_gradient``) is therefore 2L products with W, each K columns wide:
L ``apply_adjoint`` calls form r_L..r_0; the batch is read through the
readout A = R_0 diag(tx w0), y = A X plus noise; and one ``forward_batch``
of X a_y^H caches T_l with L ``apply`` calls. ``backward_batch`` then forms
G from r_l and T_l with no product with W. Both models share G:

    digital:  (d/dRe + j d/dIm) w_m = G_m
    theta:    dloss/dtheta_m = Re{ j e^{j theta_m} conj(G_m) }   (resp = e^{j theta})

The sampled noise is treated as an additive constant. Every formula below
is gate-checked against central finite differences in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .data import EncodedDataset
from .errors import ConfigurationError, ShapeError, SimError
from .geometry import SimGeometry
from .network import (
    SIM,
    DigitalParams,
    ForwardCache,
    PhaseParams,
    classify_batch,
    forward_batch,
    init_params,
    readout_adjoints,
    receive,
)
from .propagation import Operator, build_propagation
from . import seeding


# Columns per evaluation forward pass; it bounds the memory of the cached fields.
PREDICT_BATCH = 256


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 0.01
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    sample_rate: float = 0.10
    master_seed: int = 0
    train_noise: bool = True
    softmax_epsilon: float = 1e-12

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ConfigurationError(f"sample_rate must be in (0, 1], got {self.sample_rate}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("learning_rate", "eps", "softmax_epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ConfigurationError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {value}")


def loss(y: np.ndarray, label: int, eps: float = TrainConfig.softmax_epsilon) -> float:
    """Normalized-power cross-entropy of one received vector."""
    if not 0 <= label < y.shape[0]:
        raise ShapeError(f"label {label} outside the {y.shape[0]} receive antennas")
    losses, _ = _power_grad(y[:, None], [label], eps)
    return float(losses[0])


def _power_grad(y: np.ndarray, labels: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and dloss/d|y_k|^2 for a (K, B) batch."""
    q = np.abs(y) ** 2 + eps
    s = q.sum(axis=0)
    cols = np.arange(y.shape[1])
    losses = -np.log(q[labels, cols] / s)
    g = np.full_like(q, 1.0) / s
    g[labels, cols] -= 1.0 / q[labels, cols]
    return losses, g


def _contraction(y: np.ndarray, labels: np.ndarray, eps: float) -> np.ndarray:
    """a_y^H, shape (B, K): X a_y^H contracts a batch X into K columns."""
    _, g = _power_grad(y, labels, eps)
    return np.conj(g * y).T


def backward_batch(
    cache: ForwardCache,
    params: PhaseParams | DigitalParams,
    adjoints: np.ndarray,
    labels: np.ndarray,
    y: np.ndarray,
    eps: float = TrainConfig.softmax_epsilon,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses of the (K, B) fields y and the batch-mean parameter gradient.

    ``cache`` is the pass of the contracted columns X a_y^H, so cache.t[l-1]
    is T_l, and ``adjoints`` is r_0..r_L from ``network.readout_adjoints``.
    Returns (losses (B,), grad) with grad shaped like theta for the
    metasurface model and like the complex weights for the digital one.
    """
    resp = params.layer_responses()
    n_layers, m = resp.shape
    if adjoints.shape[:2] != (n_layers + 1, m) or cache.t.shape != adjoints[1:].shape:
        raise ShapeError(
            f"cache {cache.t.shape} and adjoints {adjoints.shape} do not fit "
            f"{n_layers} layers of {m} atoms"
        )
    losses, _ = _power_grad(y, labels, eps)
    grad = 2.0 * (adjoints[1:] * np.conj(cache.t)).sum(axis=2) / y.shape[1]
    if params.kind == SIM:  # chain rule through resp = e^{j theta}
        grad = np.real(1j * resp * np.conj(grad))
    return losses, grad


def batch_gradient(
    params: PhaseParams | DigitalParams,
    features: np.ndarray,
    labels: np.ndarray,
    propagation: Operator,
    channel: ChannelState,
    noise_rngs: list[np.random.Generator] | None = None,
    eps: float = TrainConfig.softmax_epsilon,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One train step on a (M, B) batch: (y (K, B), per-sample losses, gradient).

    No product with W is as wide as the batch; see the module docstring.
    """
    real = channel.realization
    adjoints = readout_adjoints(params, propagation, real.h_matrix)
    y = receive(adjoints, features, propagation, real, channel.tx_amplitude, noise_rngs)
    _, cache = forward_batch(
        params, features @ _contraction(y, labels, eps), propagation, real, channel.tx_amplitude
    )
    losses, grad = backward_batch(cache, params, adjoints, labels, y, eps)
    return y, losses, grad


def backward(
    cache: ForwardCache,
    params: PhaseParams | DigitalParams,
    propagation: Operator,
    h_matrix: np.ndarray,
    y: np.ndarray,
    label: int,
    eps: float = TrainConfig.softmax_epsilon,
) -> np.ndarray:
    """Single-patch gradient of the loss with respect to the parameters.

    ``cache`` holds the patch's own fields t_l (``network.forward``); they are
    contracted here into T_l = t_l a_y^H.
    """
    y, labels = y[:, None], np.array([label])
    contracted = ForwardCache(t=cache.t[:, :, None] * _contraction(y, labels, eps))
    adjoints = readout_adjoints(params, propagation, h_matrix)
    return backward_batch(contracted, params, adjoints, labels, y, eps)[1]


@dataclass
class OptimizerState:
    """AdamW first/second moment accumulators over the real parameter view."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: PhaseParams | DigitalParams) -> "OptimizerState":
        values = _real_view(params)
        return cls(m=np.zeros_like(values), v=np.zeros_like(values))


def _real_view(params: PhaseParams | DigitalParams) -> np.ndarray:
    """Writable float64 view: theta directly, or interleaved re/im pairs."""
    if params.kind == SIM:
        return params.theta
    return params.weights.view(np.float64)


def _grad_real_view(grad: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(grad):
        return grad.view(np.float64)
    return grad


def adamw_step(
    params: PhaseParams | DigitalParams,
    grad: np.ndarray,
    state: OptimizerState,
    cfg: TrainConfig,
) -> OptimizerState:
    """One decoupled-weight-decay Adam update, in place on the parameters."""
    values = _real_view(params)
    g = _grad_real_view(grad)
    if g.shape != values.shape:
        raise ShapeError(f"gradient shape {g.shape} != parameter shape {values.shape}")
    state.step += 1
    state.m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    m_hat = state.m / (1.0 - cfg.beta1 ** state.step)
    v_hat = state.v / (1.0 - cfg.beta2 ** state.step)
    values -= cfg.learning_rate * (m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * values)
    return state


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def _noise_streams(cfg: TrainConfig, purpose: int, indices, *path) -> list[np.random.Generator]:
    return [seeding.stream(cfg.master_seed, purpose, *path, int(j)) for j in indices]


def _require_finite(values: np.ndarray, message: str) -> None:
    if not np.isfinite(values).all():
        raise SimError(message)


def train(
    dataset: EncodedDataset,
    geometry: SimGeometry,
    channel: ChannelState,
    cfg: TrainConfig,
    kind: str = SIM,
) -> tuple[PhaseParams | DigitalParams, list[EpochStats]]:
    """Stage 1: sample a training split and fit the layer parameters.

    Deterministic given cfg.master_seed: the split, epoch shuffles, noise
    draws, and init all come from derived streams keyed by stable patch
    indices, so batch-level parallelism cannot change the result. A
    non-finite loss, gradient or parameter raises ``SimError`` naming the
    epoch and the batch (both counted from 1).
    """
    cfg.validate()
    n_total = len(dataset)
    if n_total == 0:
        raise ConfigurationError("dataset is empty")
    n_train = math.ceil(cfg.sample_rate * n_total)
    picker = seeding.stream(cfg.master_seed, seeding.SAMPLE)
    train_idx = np.sort(picker.choice(n_total, size=n_train, replace=False))
    train_labels = dataset.labels[train_idx]
    if (train_labels < 0).any():
        raise ConfigurationError("training split contains unlabeled patches")
    if np.unique(train_labels).size < 2:
        raise ConfigurationError(
            "training split covers fewer than two classes; enlarge the sample or reseed"
        )

    params = init_params(geometry, kind, seeding.stream(cfg.master_seed, seeding.PARAM_INIT))
    state = OptimizerState.for_params(params)
    prop = build_propagation(geometry)
    history: list[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        order = seeding.stream(cfg.master_seed, seeding.SHUFFLE, epoch).permutation(n_train)
        epoch_loss = 0.0
        epoch_correct = 0
        for batch_no, start in enumerate(range(0, n_train, cfg.batch_size), 1):
            batch_idx = train_idx[order[start : start + cfg.batch_size]]
            feats = dataset.features[batch_idx].T
            labels = dataset.labels[batch_idx]
            rngs = None
            if cfg.train_noise:
                rngs = _noise_streams(cfg, seeding.TRAIN_NOISE, batch_idx, epoch)
            y, losses, grad = batch_gradient(
                params, feats, labels, prop, channel, rngs, cfg.softmax_epsilon
            )
            where = f"epoch {epoch} batch {batch_no}"
            _require_finite(losses, f"{where}: non-finite loss")
            _require_finite(grad, f"{where}: non-finite gradient")
            epoch_loss += float(losses.sum())
            epoch_correct += int((classify_batch(y) == labels).sum())
            state = adamw_step(params, grad, state, cfg)
            _require_finite(_real_view(params), f"{where}: non-finite parameters")
        history.append(
            EpochStats(epoch=epoch, loss=epoch_loss / n_train, accuracy=epoch_correct / n_train)
        )
    return params, history


def predict(
    params: PhaseParams | DigitalParams,
    dataset: EncodedDataset,
    geometry: SimGeometry,
    channel: ChannelState,
    cfg: TrainConfig,
) -> np.ndarray:
    """Stage 2: classify every patch with fresh evaluation-noise draws."""
    prop = build_propagation(geometry)
    preds = np.empty(len(dataset), dtype=np.int64)
    for start in range(0, len(dataset), PREDICT_BATCH):
        idx = np.arange(start, min(start + PREDICT_BATCH, len(dataset)))
        rngs = _noise_streams(cfg, seeding.EVAL_NOISE, idx)
        y, _ = forward_batch(
            params, dataset.features[idx].T, prop, channel.realization, channel.tx_amplitude, rngs
        )
        preds[idx] = classify_batch(y)
    return preds


def evaluate(
    params: PhaseParams | DigitalParams,
    dataset: EncodedDataset,
    geometry: SimGeometry,
    channel: ChannelState,
    cfg: TrainConfig,
):
    """Predictions plus the metrics bundle over a labeled dataset."""
    from .metrics import compute_metrics

    preds = predict(params, dataset, geometry, channel, cfg)
    return preds, compute_metrics(preds, dataset.labels, num_classes=channel.cfg.num_rx_antennas)


def save_history(path: str, history: list[EpochStats]) -> None:
    with open(path, "w") as fh:
        for row in history:
            fh.write(f"{row.epoch} {row.loss:.10f} {row.accuracy:.6f}\n")
