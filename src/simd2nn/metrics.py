"""Confusion-matrix statistics and class-map image export.

The positive class for precision/recall is land (class 1) unless overridden.
Metrics with an empty denominator come back as None and print as "n/a";
NaN never propagates.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError


@dataclass(frozen=True)
class MetricsBundle:
    confusion: np.ndarray  # (K, K), rows = true label, cols = prediction
    precision: float | None
    recall: float | None
    f1: float | None
    overall_accuracy: float

    def summary(self) -> list[tuple[str, float | None]]:
        """The four headline metrics as (name, value) pairs, in report order."""
        return [
            ("precision", self.precision),
            ("recall", self.recall),
            ("f1", self.f1),
            ("overall accuracy", self.overall_accuracy),
        ]


def compute_metrics(
    predictions, labels, positive_class: int = 1, num_classes: int | None = None
) -> MetricsBundle:
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1 or predictions.size == 0:
        raise ShapeError(
            f"predictions {predictions.shape} and labels {labels.shape} must be equal-length 1-D"
        )
    if predictions.min() < 0 or labels.min() < 0:
        raise ShapeError("class indices must be non-negative (unlabeled patches excluded)")
    k = int(max(predictions.max(), labels.max())) + 1
    if num_classes is not None:
        k = max(k, num_classes)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)

    tp = int(confusion[positive_class, positive_class])
    fp = int(confusion[:, positive_class].sum()) - tp
    fn = int(confusion[positive_class, :].sum()) - tp
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    elif precision is not None and recall is not None:
        f1 = 0.0
    else:
        f1 = None
    return MetricsBundle(
        confusion=confusion,
        precision=precision,
        recall=recall,
        f1=f1,
        overall_accuracy=float(np.trace(confusion) / confusion.sum()),
    )


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def format_report(bundle: MetricsBundle) -> str:
    """One line per metric, fractions with four decimals."""
    return "".join(f"{name.replace(' ', '_')} {_fmt(v)}\n" for name, v in bundle.summary())


def format_percent(value: float | None) -> str:
    """Percentage with four significant digits for CLI summaries."""
    return "n/a" if value is None else f"{100.0 * value:.4g}%"


def export_class_map(predictions_grid: np.ndarray, num_classes: int, path: str) -> None:
    """Write a binary PGM, one pixel per patch, class k -> round(255 k / (K-1))."""
    grid = np.asarray(predictions_grid)
    if grid.ndim != 2:
        raise ShapeError(f"prediction grid must be 2-D, got shape {grid.shape}")
    if num_classes < 2:
        raise ShapeError("class maps need at least two classes")
    gray = np.rint(255.0 * grid / (num_classes - 1)).astype(np.uint8)
    rows, cols = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def read_class_map(path: str, num_classes: int) -> np.ndarray:
    """Recover the class grid from a PGM written by export_class_map."""
    with open(path, "rb") as fh:
        blob = fh.read()
    m = re.match(rb"P5\n(\d+) (\d+)\n255\n", blob)
    if m is None:
        raise FormatError("not a class-map PGM: bad header at byte offset 0")
    cols, rows = int(m.group(1)), int(m.group(2))
    payload = blob[m.end() :]
    if len(payload) != rows * cols:
        raise FormatError(
            f"truncated PGM: needed {rows * cols} pixel bytes at byte offset {m.end()}"
        )
    gray = np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols)
    return np.rint(gray.astype(np.float64) * (num_classes - 1) / 255.0).astype(np.int64)
