import dataclasses
from pathlib import Path

import numpy as np
import pytest

from simd2nn.cli import COMMANDS, _overrides_from_args, build_parser
from simd2nn.config import (
    _SCHEMA,
    ExperimentConfig,
    apply_values,
    parse_config_file,
    resolve_config,
)
from simd2nn.errors import ConfigurationError

FULL = """
# experiment configuration
[geometry]
lambda_m = 0.025
t_sim_m = 0.05
layers = 6
atoms_rows = 8
atoms_cols = 16
tx_distance_m = 0.01

[channel]
freq_hz = 12e9
link_distance_m = 500
rician_k_db = 10
la_db = 1.5
le_db = 0.5
noise_dbm = -100
tx_power_dbm = 15
rx_antennas = 2
channel_seed = 77

[training]
epochs = 5
batch = 8
lr = 0.02
weight_decay = 0.0
sample_rate = 0.5
train_noise = off

[data]
synth_height = 256
synth_width = 256
synth_layout = blobs
ocean_sigma = 0.4
land_sigma = 0.9
phase_texture = on
patch_side = 64
stride = 16
phase_rotation = off
rotation_angle_deg = 45

[experiment]
seed = 123
out_dir = results
model = digital
"""


def test_empty_file_yields_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = resolve_config(str(path))
    assert cfg.geometry.num_layers == 4
    assert cfg.geometry.atoms_rows * cfg.geometry.atoms_cols == 2048
    assert cfg.geometry.wavelength == 0.025
    assert cfg.geometry.sim_thickness == 0.05
    assert cfg.channel.num_rx_antennas == 2
    assert cfg.channel.noise_power_dbm == -104.0
    assert cfg.channel.tx_power_dbm == 20.0
    assert cfg.channel.rician_k_db == 20.0
    assert cfg.training.epochs == 60
    assert cfg.training.batch_size == 64
    assert cfg.training.learning_rate == 0.01
    assert cfg.training.sample_rate == 0.10
    assert cfg.data.patch_side == 128
    assert cfg.data.stride == 32
    assert cfg.model_kind == "sim"


def test_full_file_parses(tmp_path):
    path = tmp_path / "full.cfg"
    path.write_text(FULL)
    cfg = resolve_config(str(path))
    assert cfg.geometry.num_layers == 6
    assert cfg.geometry.tx_antenna_distance == 0.01
    assert cfg.channel.carrier_freq == 12e9
    assert cfg.channel.distance == 500
    assert cfg.channel_seed == 77
    assert cfg.training.epochs == 5
    assert cfg.training.train_noise is False
    assert cfg.training.master_seed == 123
    assert cfg.data.synth.layout == "blobs"
    assert cfg.data.phase_rotation is False
    assert cfg.data.rotation_angle_rad == pytest.approx(np.pi / 4)
    assert cfg.model_kind == "digital"
    assert cfg.output_dir == "results"


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[geometry]\nlayers = 4\n")
    cfg = resolve_config(str(path), {("geometry", "layers"): 6})
    assert cfg.geometry.num_layers == 6


def test_unknown_key_names_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[geometry]\nlayers = 4\nbogus = 1\n")
    with pytest.raises(ConfigurationError, match=r":3: unknown key 'bogus'"):
        resolve_config(str(path))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigurationError, match=r"unknown section"):
        resolve_config(str(path))


def test_bad_value_names_key_and_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[geometry]\nlayers = zero\n")
    with pytest.raises(ConfigurationError, match=r":2: bad value for 'layers'"):
        resolve_config(str(path))


def test_key_outside_section_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("layers = 4\n")
    with pytest.raises(ConfigurationError, match="outside"):
        resolve_config(str(path))


def test_bad_model_rejected():
    with pytest.raises(ConfigurationError, match="model"):
        apply_values(ExperimentConfig(), {("experiment", "model"): "quantum"})


def test_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# header\n\n[training]\nepochs = 7  # trailing comment\n")
    assert resolve_config(str(path)).training.epochs == 7


def test_precedence_over_random_subsets(tmp_path):
    # file sets one group of values, overrides replace a random subset
    rng = np.random.default_rng(9)
    file_vals = {
        ("geometry", "layers"): 3,
        ("training", "epochs"): 11,
        ("channel", "tx_power_dbm"): 17.0,
        ("experiment", "seed"): 5,
    }
    path = tmp_path / "c.cfg"
    path.write_text(
        "[geometry]\nlayers = 3\n[training]\nepochs = 11\n"
        "[channel]\ntx_power_dbm = 17\n[experiment]\nseed = 5\n"
    )
    override_pool = {
        ("geometry", "layers"): 5,
        ("training", "epochs"): 21,
        ("channel", "tx_power_dbm"): -3.0,
        ("experiment", "seed"): 99,
    }
    keys = list(override_pool)
    for _ in range(12):
        chosen = {k: override_pool[k] for k in keys if rng.random() < 0.5}
        cfg = resolve_config(str(path), chosen)
        expected = dict(file_vals)
        expected.update(chosen)
        assert cfg.geometry.num_layers == expected[("geometry", "layers")]
        assert cfg.training.epochs == expected[("training", "epochs")]
        assert cfg.channel.tx_power_dbm == expected[("channel", "tx_power_dbm")]
        assert cfg.master_seed == expected[("experiment", "seed")]
        assert cfg.training.master_seed == cfg.master_seed


def test_parse_config_file_returns_typed_values(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[channel]\nfreq_hz = 12e9\nrx_antennas = 3\n[data]\nphase_texture = off\n")
    values = parse_config_file(str(path))
    assert values[("channel", "freq_hz")] == 12e9
    assert values[("channel", "rx_antennas")] == 3
    assert values[("data", "phase_texture")] is False


def _flatten(obj, prefix=""):
    """{dotted field path: value} over a nested dataclass."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_flatten(value, f"{prefix}{f.name}."))
        else:
            out[f"{prefix}{f.name}"] = value
    return out


def _other_value(key, default):
    """A value the schema's parser accepts for key that differs from default."""
    parse = _SCHEMA[key][1]
    if key == ("experiment", "model"):
        return "digital"
    if parse is int:
        return 7 if default is None else default + 7
    if parse is float:
        return 0.5 if default is None else default + 0.5
    if parse is str:
        return "elsewhere" if default is None else default + "-other"
    return not default


def test_schema_paths_name_existing_fields():
    fields = _flatten(ExperimentConfig())
    for key, (path, _) in _SCHEMA.items():
        assert path in fields, f"{key} -> {path!r} is not an ExperimentConfig field"
    paths = [path for path, _ in _SCHEMA.values()]
    assert len(set(paths)) == len(paths)


@pytest.mark.parametrize("key", list(_SCHEMA), ids=lambda k: f"{k[0]}.{k[1]}")
def test_each_key_sets_exactly_its_field(key):
    base = ExperimentConfig()
    path = _SCHEMA[key][0]
    before = _flatten(base)
    value = _other_value(key, before[path])
    after = _flatten(apply_values(base, {key: value}))
    changed = {p for p in before if before[p] != after[p]}
    expected = {path, "training.master_seed"} if key == ("experiment", "seed") else {path}
    assert changed == expected
    assert after[path] == value


# the arguments each command needs before its flags parse
REQUIRED_ARGS = {
    "synth": ["--out", "o"],
    "patch": ["--in", "s", "--out", "o"],
    "eval": ["--params", "p"],
    "dump-matrix": ["--out", "o"],
}
COMMAND_FLAGS = {command: flags for command, (_, _, flags) in COMMANDS.items()}
OVERRIDE_FLAGS = {flag: spec for flags in COMMAND_FLAGS.values() for flag, spec in flags.items()}


@pytest.mark.parametrize("flag", list(OVERRIDE_FLAGS))
def test_every_cli_override_flag_sets_a_schema_key(flag):
    key, _, words = OVERRIDE_FLAGS[flag]
    assert key in _SCHEMA
    text = words[-1] if words else "3"
    owners = [command for command, flags in COMMAND_FLAGS.items() if flag in flags]
    for command in owners:
        assert COMMAND_FLAGS[command][flag] == OVERRIDE_FLAGS[flag]
        required = REQUIRED_ARGS.get(command, [])
        base = _overrides_from_args(build_parser().parse_args([command, *required]))
        args = build_parser().parse_args([command, *required, flag, text])
        assert _overrides_from_args(args) == {**base, key: _SCHEMA[key][1](text)}, command


def test_cli_on_off_flags_give_booleans():
    args = build_parser().parse_args(["run", "--train-noise", "off", "--phase-rotation", "off"])
    cfg = resolve_config(None, _overrides_from_args(args))
    assert cfg.training.train_noise is False and cfg.data.phase_rotation is False


def test_readme_example_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(example)
    assert set(parse_config_file(str(path))) == set(_SCHEMA)
