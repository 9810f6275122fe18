"""What each command runs, as named stages, and the ablation suite.

``run_experiment`` is ``prepare_experiment`` (configure, data, encode,
channel), ``fit`` (train, then write the parameters and history) and
``deploy`` (evaluate, then write the report and class map); the CLI's
``train`` and ``eval`` call the same functions. Errors carry the name of the
stage that raised them. Everything is keyed off the master seed, so a rerun
is byte-identical.
"""

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

from . import seeding
from .channel import ChannelState, realize_channel
from .config import ExperimentConfig
from .data import (
    EncodedDataset,
    IqPatch,
    IqScene,
    derive_downsample_factor,
    encode_patches,
    extract_patches,
    load_dataset,
    load_scene,
    save_dataset,
    save_scene,
    synthesize_scene,
)
from .errors import ConfigurationError, SimError
from .geometry import SimGeometry, build_geometry
from .metrics import MetricsBundle, export_class_map, format_percent, format_report
from .network import DIGITAL, DigitalParams, PhaseParams, load_params, save_params
from .training import EpochStats, evaluate, save_history, train

logger = logging.getLogger("simd2nn.experiment")


@contextmanager
def stage(name: str):
    """Prefix errors with the pipeline stage that raised them."""
    try:
        yield
    except (SimError, OSError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def artifact_path(config: ExperimentConfig, name: str) -> str:
    """Path of an artifact in the output directory, which is made if missing."""
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


def synthesize_for_config(config: ExperimentConfig) -> IqScene:
    s = config.data.synth
    return synthesize_scene(
        s.height,
        s.width,
        class_layout=s.layout,
        ocean_sigma=s.ocean_sigma,
        land_sigma=s.land_sigma,
        land_phase_texture=s.phase_texture,
        rng=seeding.stream(config.master_seed, seeding.SYNTH),
    )


def obtain_patches(config: ExperimentConfig) -> list[IqPatch]:
    """Patches from the configured source: dataset file, scene file, or synth."""
    d = config.data
    if d.dataset_path is not None:
        return load_dataset(d.dataset_path)
    scene = load_scene(d.scene_path) if d.scene_path is not None else synthesize_for_config(config)
    return extract_patches(scene, side=d.patch_side, stride=d.stride)


def write_scene(config: ExperimentConfig, path: str) -> IqScene:
    """The ``synth`` command: validate, then synthesize and save a scene."""
    configure(config, cuts_patches=False)
    with stage("data"):
        scene = synthesize_for_config(config)
        save_scene(path, scene)
    return scene


def write_patches(config: ExperimentConfig, path: str) -> list[IqPatch]:
    """The ``patch`` command: validate, then cut and save the patches."""
    configure(config, cuts_patches=False)
    with stage("data"):
        patches = obtain_patches(config)
        save_dataset(path, patches)
    return patches


def encode_for_config(config: ExperimentConfig, patches: list[IqPatch]) -> EncodedDataset:
    k = config.channel.num_rx_antennas
    for i, patch in enumerate(patches):
        if patch.label >= k:
            raise ConfigurationError(
                f"patch {i} at origin {patch.origin} has label {patch.label}, but rx_antennas = {k}"
            )
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


def configure(config: ExperimentConfig, cuts_patches: bool) -> SimGeometry:
    """The configure stage: validate every setting before any data work.

    When patches are cut (``cuts_patches`` and no ``dataset_path``), it also
    checks the pairing of patch side and atom count.
    """
    with stage("configure"):
        geometry = build_geometry(config.geometry)
        config.channel.validate()
        config.training.validate()
        config.data.validate()
        if cuts_patches and config.data.dataset_path is None:
            derive_downsample_factor(config.data.patch_side, geometry.atoms_per_layer)
    return geometry


def prepare_experiment(
    config: ExperimentConfig, patches: list[IqPatch] | None = None
) -> PreparedExperiment:
    """Validate the config, then obtain patches, encode them and draw the channel.

    Errors carry the failing stage name (configure, data, encode, channel).
    """
    geometry = configure(config, cuts_patches=patches is None)
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


def load_trained(config: ExperimentConfig, path: str) -> PhaseParams | DigitalParams:
    """The params stage: load trained parameters that fit the configured geometry."""
    with stage("params"):
        params = load_params(path)
        found = (params.weights if params.kind == DIGITAL else params.theta).shape
        g = config.geometry
        wanted = (g.num_layers, g.atoms_rows * g.atoms_cols)
        if found != wanted:
            raise ConfigurationError(
                f"{path} holds (layers, atoms) = {found}, but the config gives {wanted}"
            )
    return params


def fit(
    config: ExperimentConfig, prep: PreparedExperiment
) -> tuple[PhaseParams | DigitalParams, list[EpochStats], list[str]]:
    """Train, then write ``params.simth1`` and ``history.txt``; returns the
    parameters, the per-epoch history and the paths written."""
    with stage("train"):
        params, history = train(
            prep.dataset, prep.geometry, prep.channel, config.training, kind=config.model_kind
        )
    with stage("write-artifacts"):
        params_path = artifact_path(config, "params.simth1")
        history_path = artifact_path(config, "history.txt")
        save_params(params_path, params)
        save_history(history_path, history)
    return params, history, [params_path, history_path]


def deploy(
    config: ExperimentConfig, prep: PreparedExperiment, params: PhaseParams | DigitalParams
) -> tuple[MetricsBundle, list[str]]:
    """Evaluate every patch, then write ``report.txt`` and, for a full patch
    grid, ``class_map.pgm``; returns the metrics and the paths written."""
    with stage("evaluate"):
        predictions, bundle = evaluate(
            params, prep.dataset, prep.geometry, prep.channel, config.training
        )
    with stage("write-artifacts"):
        report_path = artifact_path(config, "report.txt")
        with open(report_path, "w") as fh:
            fh.write(format_report(bundle))
        grid = prep.dataset.grid_shape()
        if grid is None:
            logger.warning("patch origins do not form a full grid; skipping class-map export")
            return bundle, [report_path]
        map_path = artifact_path(config, "class_map.pgm")
        export_class_map(predictions.reshape(grid), config.channel.num_rx_antennas, map_path)
    return bundle, [report_path, map_path]


def run_experiment(
    config: ExperimentConfig, patches: list[IqPatch] | None = None
) -> MetricsBundle:
    """Run one full train/deploy cycle, writing artifacts to the output dir.

    Errors carry the failing stage name (configure, data, encode, channel,
    train, evaluate, write-artifacts).
    """
    prep = prepare_experiment(config, patches)
    params, _, _ = fit(config, prep)
    return deploy(config, prep, params)[0]


# Table-style ablation rows: name -> config transform. Each row differs from
# the baseline in exactly one factor; the digital baseline swaps the model.
def _ablation_rows():
    def change(part, **fields):
        return lambda c: replace(c, **{part: replace(getattr(c, part), **fields)})

    return [
        ("SIM-D2NN (L=1)", change("geometry", num_layers=1)),
        ("SIM-D2NN (L=6)", change("geometry", num_layers=6)),
        ("SIM-D2NN (S=5%)", change("training", sample_rate=0.05)),
        ("SIM-D2NN (S=20%)", change("training", sample_rate=0.20)),
        ("SIM-D2NN (Pt=5dBm)", change("channel", tx_power_dbm=5.0)),
        ("SIM-D2NN (no phase rotation)", change("data", phase_rotation=False)),
        ("SIM-D2NN (baseline)", lambda c: c),
        ("Digital DNN", lambda c: replace(c, model_kind="digital")),
    ]


@dataclass
class AblationRow:
    name: str
    metrics: MetricsBundle | None
    error: str | None = None


def run_ablation_suite(base: ExperimentConfig) -> list[AblationRow]:
    """Run the scenario grid off one shared patch set; failures don't stop the suite.

    No row changes the atom count, the patch side, the antenna count or the
    channel seed, so the base config's configure stage runs before the shared
    patches are made, the patches are encoded once per phase-rotation setting
    and the channel is drawn once: the draw does not read the transmit power,
    the one channel setting a row changes.
    """
    configure(base, cuts_patches=True)
    with stage("data"):
        patches = obtain_patches(base)
        if not patches:
            raise ConfigurationError("patch source produced no patches")
    with stage("channel"):
        realization = channel_for_config(base).realization
    encodings: dict[tuple, EncodedDataset] = {}
    rows: list[AblationRow] = []
    for name, transform in _ablation_rows():
        slug = name.lower().replace(" ", "-").replace("(", "").replace(")", "").replace("%", "pct")
        cfg = transform(base)
        cfg = replace(cfg, output_dir=os.path.join(base.output_dir, slug))
        try:
            geometry = configure(cfg, cuts_patches=False)
            key = (cfg.data.phase_rotation, cfg.data.rotation_angle_rad)
            if key not in encodings:
                with stage("encode"):
                    encodings[key] = encode_for_config(cfg, patches)
            channel = ChannelState(cfg=cfg.channel, realization=realization)
            prep = PreparedExperiment(geometry=geometry, dataset=encodings[key], channel=channel)
            params, _, _ = fit(cfg, prep)
            rows.append(AblationRow(name=name, metrics=deploy(cfg, prep, params)[0]))
        except SimError as exc:
            logger.error("ablation row %r failed: %s", name, exc)
            rows.append(AblationRow(name=name, metrics=None, error=str(exc)))
    return rows


def format_ablation_table(rows: list[AblationRow]) -> str:
    table = [["Scenario", "Precision (%)", "Recall (%)", "F1 (%)", "OA (%)"]]
    for row in rows:
        if row.metrics is None:
            cells = ["failed"] * 4
        else:
            cells = [format_percent(v).rstrip("%") for _, v in row.metrics.summary()]
        table.append([row.name, *cells])
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
