"""End-to-end experiment runner and the ablation suite.

One experiment: build geometry, obtain patches (synthetic, scene file, or
dataset file), encode, draw the block-fading channel once, train on a
sampled split, evaluate every patch, and write the four artifacts (trained
parameters, training history, metrics report, class map). Everything is
keyed off the master seed, so a rerun is byte-identical. The CLI's
``train`` and ``eval`` commands run the same stages: ``prepare_experiment``
and the artifact writers.
"""

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .channel import ChannelState, realize_channel
from .config import ExperimentConfig
from .data import (
    EncodedDataset,
    IqPatch,
    encode_patches,
    extract_patches,
    load_dataset,
    load_scene,
    synthesize_scene,
)
from .errors import ConfigurationError, SimError
from .geometry import SimGeometry, build_geometry
from .metrics import MetricsBundle, export_class_map, format_percent, format_report
from .network import DigitalParams, PhaseParams, save_params
from .training import EpochStats, evaluate, save_history, train

logger = logging.getLogger("simd2nn.experiment")


@dataclass
class ExperimentResult:
    metrics: MetricsBundle
    params_path: str
    history_path: str
    report_path: str
    class_map_path: str | None


@contextmanager
def stage(name: str):
    """Prefix errors with the pipeline stage that raised them."""
    try:
        yield
    except (SimError, OSError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def obtain_patches(config: ExperimentConfig) -> list[IqPatch]:
    """Patches from the configured source: dataset file, scene file, or synth."""
    d = config.data
    if d.dataset_path is not None:
        return load_dataset(d.dataset_path)
    if d.scene_path is not None:
        scene = load_scene(d.scene_path)
    else:
        scene = synthesize_scene(
            d.synth.height,
            d.synth.width,
            class_layout=d.synth.layout,
            ocean_sigma=d.synth.ocean_sigma,
            land_sigma=d.synth.land_sigma,
            land_phase_texture=d.synth.phase_texture,
            rng=seeding.stream(config.master_seed, seeding.SYNTH),
        )
    return extract_patches(scene, side=d.patch_side, stride=d.stride)


def encode_for_config(config: ExperimentConfig, patches: list[IqPatch]) -> EncodedDataset:
    return encode_patches(
        patches,
        m_atoms=config.geometry.atoms_rows * config.geometry.atoms_cols,
        phase_rotation=config.data.phase_rotation,
        rotation_angle=config.data.rotation_angle_rad,
    )


def channel_for_config(config: ExperimentConfig) -> ChannelState:
    seed = config.channel_seed if config.channel_seed is not None else config.master_seed
    m = config.geometry.atoms_rows * config.geometry.atoms_cols
    return realize_channel(config.channel, m, seeding.stream(seed, seeding.CHANNEL))


@dataclass
class PreparedExperiment:
    """What the train and evaluate stages consume, built by ``prepare_experiment``."""

    geometry: SimGeometry
    dataset: EncodedDataset
    channel: ChannelState


def prepare_experiment(
    config: ExperimentConfig, patches: list[IqPatch] | None = None
) -> PreparedExperiment:
    """Validate the config, then obtain patches, encode them and draw the channel.

    Validation runs before any data work. Errors carry the failing stage name
    (configure, data, encode, channel).
    """
    with stage("configure"):
        geometry = build_geometry(config.geometry)
        config.channel.validate()
        config.training.validate()
    with stage("data"):
        if patches is None:
            patches = obtain_patches(config)
        if not patches:
            raise ConfigurationError("patch source produced no patches")
    with stage("encode"):
        dataset = encode_for_config(config, patches)
    with stage("channel"):
        channel = channel_for_config(config)
    return PreparedExperiment(geometry=geometry, dataset=dataset, channel=channel)


def write_training_artifacts(
    config: ExperimentConfig, params: PhaseParams | DigitalParams, history: list[EpochStats]
) -> tuple[str, str]:
    """Write ``params.simth1`` and ``history.txt``; returns their paths."""
    os.makedirs(config.output_dir, exist_ok=True)
    params_path = os.path.join(config.output_dir, "params.simth1")
    history_path = os.path.join(config.output_dir, "history.txt")
    save_params(params_path, params)
    save_history(history_path, history)
    return params_path, history_path


def write_evaluation_artifacts(
    config: ExperimentConfig,
    predictions: np.ndarray,
    bundle: MetricsBundle,
    dataset: EncodedDataset,
) -> tuple[str, str | None]:
    """Write ``report.txt`` and, for a full patch grid, ``class_map.pgm``.

    Returns the report path and the class-map path (None when skipped).
    """
    os.makedirs(config.output_dir, exist_ok=True)
    report_path = os.path.join(config.output_dir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(format_report(bundle))
    grid = dataset.grid_shape()
    if grid is None:
        logger.warning("patch origins do not form a full grid; skipping class-map export")
        return report_path, None
    class_map_path = os.path.join(config.output_dir, "class_map.pgm")
    export_class_map(predictions.reshape(grid), config.channel.num_rx_antennas, class_map_path)
    return report_path, class_map_path


def run_experiment(
    config: ExperimentConfig, patches: list[IqPatch] | None = None
) -> ExperimentResult:
    """Run one full train/deploy cycle and write artifacts to the output dir.

    Errors carry the failing stage name (configure, data, encode, channel,
    train, evaluate, write-artifacts).
    """
    prep = prepare_experiment(config, patches)
    with stage("train"):
        params, history = train(
            prep.dataset, prep.geometry, prep.channel, config.training, kind=config.model_kind
        )
    with stage("evaluate"):
        predictions, bundle = evaluate(
            params, prep.dataset, prep.geometry, prep.channel, config.training
        )
    with stage("write-artifacts"):
        params_path, history_path = write_training_artifacts(config, params, history)
        report_path, class_map_path = write_evaluation_artifacts(
            config, predictions, bundle, prep.dataset
        )
    return ExperimentResult(
        metrics=bundle,
        params_path=params_path,
        history_path=history_path,
        report_path=report_path,
        class_map_path=class_map_path,
    )


# Table-style ablation rows: name -> config transform. Each row differs from
# the baseline in exactly one factor; the digital baseline swaps the model.
def _ablation_rows():
    return [
        ("SIM-D2NN (L=1)", lambda c: replace(c, geometry=replace(c.geometry, num_layers=1))),
        ("SIM-D2NN (L=6)", lambda c: replace(c, geometry=replace(c.geometry, num_layers=6))),
        ("SIM-D2NN (S=5%)", lambda c: replace(c, training=replace(c.training, sample_rate=0.05))),
        ("SIM-D2NN (S=20%)", lambda c: replace(c, training=replace(c.training, sample_rate=0.20))),
        ("SIM-D2NN (Pt=5dBm)", lambda c: replace(c, channel=replace(c.channel, tx_power_dbm=5.0))),
        (
            "SIM-D2NN (no phase rotation)",
            lambda c: replace(c, data=replace(c.data, phase_rotation=False)),
        ),
        ("SIM-D2NN (baseline)", lambda c: c),
        ("Digital DNN", lambda c: replace(c, model_kind="digital")),
    ]


@dataclass
class AblationRow:
    name: str
    metrics: MetricsBundle | None
    error: str | None = None


def run_ablation_suite(base: ExperimentConfig) -> list[AblationRow]:
    """Run the scenario grid off one shared patch set; failures don't stop the suite."""
    patches = obtain_patches(base)
    rows: list[AblationRow] = []
    for name, transform in _ablation_rows():
        slug = name.lower().replace(" ", "-").replace("(", "").replace(")", "").replace("%", "pct")
        cfg = transform(base)
        cfg = replace(cfg, output_dir=os.path.join(base.output_dir, slug))
        try:
            result = run_experiment(cfg, patches=patches)
            rows.append(AblationRow(name=name, metrics=result.metrics))
        except SimError as exc:
            logger.error("ablation row %r failed: %s", name, exc)
            rows.append(AblationRow(name=name, metrics=None, error=str(exc)))
    return rows


def format_ablation_table(rows: list[AblationRow]) -> str:
    headers = ["Scenario", "Precision (%)", "Recall (%)", "F1 (%)", "OA (%)"]
    table = [headers]
    for row in rows:
        if row.metrics is None:
            table.append([row.name, "failed", "failed", "failed", "failed"])
            continue
        b = row.metrics
        table.append(
            [row.name]
            + [format_percent(v).rstrip("%") for v in (b.precision, b.recall, b.f1, b.overall_accuracy)]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, r in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(r)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(headers))))
    return "\n".join(lines) + "\n"
