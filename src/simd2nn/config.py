"""Experiment configuration: defaults, config-file parsing, and overrides.

Config files are flat ``key = value`` lines under ``[section]`` headers
('#' starts a comment). Resolution order is built-in defaults, then the
file, then command-line overrides; unknown sections or keys are rejected
with the offending line number. ``_SCHEMA`` ties each key to the field it
sets and the parser of its value; nothing else names a key's field.
"""

import math
from dataclasses import dataclass, field, replace

from .channel import ChannelConfig
from .data import SYNTH_LAYOUTS
from .errors import ConfigurationError
from .geometry import GeometryConfig
from .training import TrainConfig


@dataclass(frozen=True)
class SynthConfig:
    height: int = 1600
    width: int = 1600
    layout: str = "half-split"
    ocean_sigma: float = 0.3
    land_sigma: float = 1.0
    phase_texture: bool = True


@dataclass(frozen=True)
class DataConfig:
    scene_path: str | None = None
    dataset_path: str | None = None
    synth: SynthConfig = field(default_factory=SynthConfig)
    patch_side: int = 128
    stride: int = 32
    phase_rotation: bool = True
    rotation_angle_deg: float = 90.0

    @property
    def rotation_angle_rad(self) -> float:
        return math.radians(self.rotation_angle_deg)

    def validate(self) -> None:
        s, angle = self.synth, self.rotation_angle_deg
        for key, value, rule, ok in (
            ("synth_height", s.height, ">= 1", s.height >= 1),
            ("synth_width", s.width, ">= 1", s.width >= 1),
            ("synth_layout", s.layout, f"one of {', '.join(SYNTH_LAYOUTS)}", s.layout in SYNTH_LAYOUTS),
            ("ocean_sigma", s.ocean_sigma, "finite and > 0", 0 < s.ocean_sigma < math.inf),
            ("land_sigma", s.land_sigma, "finite and > 0", 0 < s.land_sigma < math.inf),
            ("patch_side", self.patch_side, ">= 1", self.patch_side >= 1),
            ("stride", self.stride, ">= 1", self.stride >= 1),
            ("rotation_angle_deg", angle, "finite", math.isfinite(angle)),
        ):
            if not ok:
                raise ConfigurationError(f"{key} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    model_kind: str = "sim"
    output_dir: str = "out"
    master_seed: int = 0
    channel_seed: int | None = None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


# (section, key) -> (dotted ExperimentConfig field path, parser). The key
# names are the file-format contract.
_SCHEMA = {
    ("geometry", "lambda_m"): ("geometry.wavelength", float),
    ("geometry", "t_sim_m"): ("geometry.sim_thickness", float),
    ("geometry", "layers"): ("geometry.num_layers", int),
    ("geometry", "atoms_rows"): ("geometry.atoms_rows", int),
    ("geometry", "atoms_cols"): ("geometry.atoms_cols", int),
    ("geometry", "tx_distance_m"): ("geometry.tx_antenna_distance", float),
    ("channel", "freq_hz"): ("channel.carrier_freq", float),
    ("channel", "link_distance_m"): ("channel.distance", float),
    ("channel", "rician_k_db"): ("channel.rician_k_db", float),
    ("channel", "la_db"): ("channel.atmospheric_loss_db", float),
    ("channel", "le_db"): ("channel.environment_loss_db", float),
    ("channel", "noise_dbm"): ("channel.noise_power_dbm", float),
    ("channel", "tx_power_dbm"): ("channel.tx_power_dbm", float),
    ("channel", "rx_antennas"): ("channel.num_rx_antennas", int),
    ("channel", "channel_seed"): ("channel_seed", int),
    ("training", "epochs"): ("training.epochs", int),
    ("training", "batch"): ("training.batch_size", int),
    ("training", "lr"): ("training.learning_rate", float),
    ("training", "weight_decay"): ("training.weight_decay", float),
    ("training", "sample_rate"): ("training.sample_rate", float),
    ("training", "train_noise"): ("training.train_noise", _parse_bool),
    ("data", "scene"): ("data.scene_path", str),
    ("data", "dataset"): ("data.dataset_path", str),
    ("data", "synth_height"): ("data.synth.height", int),
    ("data", "synth_width"): ("data.synth.width", int),
    ("data", "synth_layout"): ("data.synth.layout", str),
    ("data", "ocean_sigma"): ("data.synth.ocean_sigma", float),
    ("data", "land_sigma"): ("data.synth.land_sigma", float),
    ("data", "phase_texture"): ("data.synth.phase_texture", _parse_bool),
    ("data", "patch_side"): ("data.patch_side", int),
    ("data", "stride"): ("data.stride", int),
    ("data", "phase_rotation"): ("data.phase_rotation", _parse_bool),
    ("data", "rotation_angle_deg"): ("data.rotation_angle_deg", float),
    ("experiment", "seed"): ("master_seed", int),
    ("experiment", "out_dir"): ("output_dir", str),
    ("experiment", "model"): ("model_kind", str),
}


def parser_for(section_key: tuple[str, str]):
    """The parser that turns a value's text into the setting for (section, key)."""
    return _SCHEMA[section_key][1]


def parse_config_file(path: str) -> dict:
    """Read a config file into {(section, key): value} with full validation."""
    values: dict = {}
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if not any(s == section for s, _ in _SCHEMA):
                    raise ConfigurationError(f"{path}:{lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            if section is None:
                raise ConfigurationError(f"{path}:{lineno}: key outside any [section]")
            key, text = (part.strip() for part in line.split("=", 1))
            if (section, key) not in _SCHEMA:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r} in section [{section}]")
            try:
                values[(section, key)] = parser_for((section, key))(text)
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


def _replace_at(obj, path: list[str], value):
    """Copy of a nested frozen dataclass with the field at path set to value."""
    head, *rest = path
    if rest:
        value = _replace_at(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def apply_values(base: ExperimentConfig, values: dict) -> ExperimentConfig:
    """Overlay {(section, key): value} entries onto a config."""
    cfg = base
    for (section, key), value in values.items():
        if (section, key) not in _SCHEMA:
            raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
        cfg = _replace_at(cfg, _SCHEMA[(section, key)][0].split("."), value)
    if cfg.model_kind not in ("sim", "digital"):
        raise ConfigurationError(f"model must be sim or digital, got {cfg.model_kind!r}")
    # the experiment seed is also the training seed
    return _replace_at(cfg, ["training", "master_seed"], cfg.master_seed)


def resolve_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults <- config file <- explicit overrides, in that order."""
    cfg = ExperimentConfig()
    if path is not None:
        cfg = apply_values(cfg, parse_config_file(path))
    if overrides:
        cfg = apply_values(cfg, overrides)
    return cfg
