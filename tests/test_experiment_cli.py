import hashlib
import os
import shlex
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from simd2nn import seeding
from simd2nn.cli import COMMANDS, build_parser, main
from simd2nn.config import DataConfig, ExperimentConfig, SynthConfig
from simd2nn.data import extract_patches, load_dataset, load_scene, save_dataset, synthesize_scene
from simd2nn.errors import ConfigurationError, ShapeError
from simd2nn.experiment import (
    channel_for_config,
    encode_for_config,
    format_ablation_table,
    obtain_patches,
    run_ablation_suite,
    run_experiment,
)
from simd2nn.geometry import GeometryConfig, build_geometry
from simd2nn.metrics import read_class_map
from simd2nn.network import PhaseParams, save_params
from simd2nn.propagation import build_propagation
from simd2nn.training import TrainConfig


def tiny_config(out_dir, scene=192, **data_kwargs):
    """Small, fast experiment: M=32 atoms, 25 patches, 3 epochs."""
    return ExperimentConfig(
        geometry=GeometryConfig(num_layers=2, atoms_rows=4, atoms_cols=8),
        training=TrainConfig(epochs=3, batch_size=8, sample_rate=0.5, master_seed=3),
        data=DataConfig(
            synth=SynthConfig(height=scene, width=scene),
            patch_side=64,
            stride=32,
            **data_kwargs,
        ),
        output_dir=str(out_dir),
        master_seed=3,
    )


ARTIFACTS = ("params.simth1", "history.txt", "report.txt", "class_map.pgm")


def test_run_experiment_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    bundle = run_experiment(tiny_config(out))
    assert sorted(os.listdir(out)) == sorted(ARTIFACTS)
    history = (out / "history.txt").read_text().splitlines()
    assert len(history) == 3
    report = (out / "report.txt").read_text().splitlines()
    assert len(report) == 4 and report[0].startswith("precision")
    assert report[3] == f"overall_accuracy {bundle.overall_accuracy:.4f}"
    grid = read_class_map(str(out / "class_map.pgm"), 2)
    assert grid.shape == (5, 5)


def test_run_experiment_validates_before_compute(tmp_path):
    config = tiny_config(tmp_path / "bad")
    config = replace(config, geometry=replace(config.geometry, num_layers=0))
    with pytest.raises(ConfigurationError, match="configure:"):
        run_experiment(config)
    assert not os.path.exists(tmp_path / "bad")


def test_run_experiment_names_failing_stage(tmp_path):
    config = tiny_config(tmp_path / "bad")
    config = replace(config, data=replace(config.data, dataset_path=str(tmp_path / "nope.simiq1")))
    with pytest.raises(OSError, match="data:"):
        run_experiment(config)
    # a patch side incompatible with the atom count fails before any data work
    config = tiny_config(tmp_path / "bad2")
    config = replace(config, data=replace(config.data, patch_side=66, stride=32))
    with pytest.raises(ConfigurationError, match="configure: no integer block size"):
        run_experiment(config)
    # patches handed in are checked when they are encoded
    config = tiny_config(tmp_path / "bad3")
    patches = obtain_patches(config)
    config = replace(config, geometry=replace(config.geometry, atoms_rows=6, atoms_cols=6))
    with pytest.raises(ConfigurationError, match="encode:"):
        run_experiment(config, patches=patches)


def test_run_experiment_deterministic(tmp_path):
    run_experiment(tiny_config(tmp_path / "a"))
    run_experiment(tiny_config(tmp_path / "b"))
    for name in ARTIFACTS:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_ablation_suite_rows(tmp_path):
    rows = run_ablation_suite(tiny_config(tmp_path / "suite", scene=320))
    assert len(rows) == 8
    names = [r.name for r in rows]
    assert names[-2] == "SIM-D2NN (baseline)"
    assert names[-1] == "Digital DNN"
    assert all(r.metrics is not None for r in rows), [r.error for r in rows]
    table = format_ablation_table(rows)
    assert table.count("\n") == 10  # header + rule + 8 rows
    assert "Precision" in table and "OA" in table


def test_ablation_continues_after_row_failure(tmp_path, monkeypatch):
    import simd2nn.experiment as experiment

    original = experiment._ablation_rows

    def broken_rows():
        rows = original()
        rows[0] = (rows[0][0], lambda c: replace(c, geometry=replace(c.geometry, num_layers=0)))
        return rows

    monkeypatch.setattr(experiment, "_ablation_rows", broken_rows)
    rows = run_ablation_suite(tiny_config(tmp_path / "suite", scene=320))
    assert rows[0].error is not None and rows[0].metrics is None
    assert all(r.metrics is not None for r in rows[1:])
    assert "failed" in format_ablation_table(rows)


def test_ablation_encodes_once_per_setting_and_draws_one_channel(tmp_path, monkeypatch):
    import simd2nn.experiment as experiment

    calls = {"encode": 0, "channel": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(experiment, "encode_for_config", counted("encode", encode_for_config))
    monkeypatch.setattr(experiment, "channel_for_config", counted("channel", channel_for_config))
    base = tiny_config(tmp_path / "suite", scene=320)
    rows = run_ablation_suite(base)
    assert all(r.metrics is not None for r in rows), [r.error for r in rows]
    # one encode with phase rotation and one without; the transmit power row
    # shares the realization, which does not depend on the transmit power
    assert calls == {"encode": 2, "channel": 1}
    # the rows that share work still write what a standalone run of them writes
    transforms = dict(experiment._ablation_rows())
    for name, slug in (
        ("SIM-D2NN (Pt=5dBm)", "sim-d2nn-pt=5dbm"),
        ("SIM-D2NN (no phase rotation)", "sim-d2nn-no-phase-rotation"),
    ):
        alone = tmp_path / slug
        run_experiment(replace(transforms[name](base), output_dir=str(alone)))
        for artifact in ARTIFACTS:
            shared = tmp_path / "suite" / slug / artifact
            assert shared.read_bytes() == (alone / artifact).read_bytes(), (name, artifact)


def _run_digests(tmp_path, entry, threads):
    """SHA-256 of each artifact of one 16x32-atom ``run`` per BLAS thread count."""
    import simd2nn

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[geometry]\natoms_rows = 16\natoms_cols = 32\n[training]\nepochs = 3\n")
    src = os.path.dirname(os.path.dirname(simd2nn.__file__))
    digests = []
    for run, count in enumerate(threads):
        out_dir = tmp_path / f"run-{run}-threads-{count}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, *entry, "run", "--config", str(cfg_path),
             "--seed", "4", "--out-dir", str(out_dir)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        digests.append(
            [hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS]
        )
    return digests


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # 16x32 atoms: build_propagation returns the dense operator
    digests = _run_digests(tmp_path, ["-m", "simd2nn.cli"], ("1", "2"))
    assert digests[0] == digests[1]


# Runs the CLI with the FFT operator forced at every atom count.
FORCE_FFT = (
    "import sys; import simd2nn.propagation as p; p.FFT_MIN_ATOMS = 1; "
    "from simd2nn.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_fft_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # the same run on the FFT operator, under 1 and 2 BLAS threads and run to run
    digests = _run_digests(tmp_path, ["-c", FORCE_FFT], ("1", "2", "2"))
    assert digests[0] == digests[1] == digests[2]


# --- CLI --------------------------------------------------------------------


def test_cli_synth_patch_train_eval(tmp_path, capsys):
    scene_path = tmp_path / "scene.simsc1"
    data_path = tmp_path / "data.simiq1"
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    assert main([
        "synth", "--out", str(scene_path), "--seed", "5",
        "--height", "192", "--width", "192",
    ]) == 0
    assert load_scene(str(scene_path)).samples.shape == (192, 192)

    assert main([
        "patch", "--in", str(scene_path), "--out", str(data_path),
        "--side", "64", "--stride", "32",
    ]) == 0
    assert len(load_dataset(str(data_path))) == 25

    cfg_path.write_text(
        "[geometry]\nlayers = 2\natoms_rows = 4\natoms_cols = 8\n"
        f"[data]\ndataset = {data_path}\npatch_side = 64\n"
        "[training]\nepochs = 2\nbatch = 8\nsample_rate = 0.5\n"
        f"[experiment]\nseed = 5\nout_dir = {out_dir}\n"
    )
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (out_dir / "params.simth1").exists()
    assert (out_dir / "history.txt").exists()

    assert main([
        "eval", "--config", str(cfg_path), "--params", str(out_dir / "params.simth1"),
    ]) == 0
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "class_map.pgm").exists()
    out = capsys.readouterr().out
    assert "overall accuracy" in out and "%" in out


def test_cli_run_subcommand(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg_path.write_text(
        "[geometry]\nlayers = 1\natoms_rows = 4\natoms_cols = 8\n"
        "[data]\nsynth_height = 192\nsynth_width = 192\npatch_side = 64\n"
        "[training]\nepochs = 2\nbatch = 8\nsample_rate = 0.5\n"
        f"[experiment]\nseed = 2\nout_dir = {out_dir}\n"
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (out_dir / "report.txt").exists()


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[geometry]\nlayers = zero\n")
    assert main(["train", "--config", str(bad_cfg)]) == 1
    assert main(["eval", "--params", str(tmp_path / "missing.simth1")]) == 2
    assert main(["patch", "--in", str(tmp_path / "missing.simsc1"), "--out", "x"]) == 2


def test_cli_corrupt_scene_header_is_data_config_error(tmp_path, capsys):
    scene_path = tmp_path / "scene.simsc1"
    assert main(["synth", "--out", str(scene_path), "--height", "64", "--width", "64"]) == 0
    blob = scene_path.read_bytes()
    scene_path.write_bytes(blob[:6] + struct.pack("<II", 400_000, 400_000) + blob[14:])
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(f"[data]\nscene = {scene_path}\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error: data: truncated file" in err and "Traceback" not in err


def test_cli_corrupt_params_header_is_params_config_error(tmp_path, capsys):
    params_path = tmp_path / "p.simth1"
    params_path.write_bytes(b"SIMTH1" + struct.pack("<IIB", 2**32 - 1, 32, 0))
    assert main(["eval", "--params", str(params_path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error: params:" in err and "Traceback" not in err


def test_cli_train_validates_before_data(tmp_path, capsys, monkeypatch):
    import simd2nn.experiment as experiment

    def no_data(config):
        raise AssertionError("obtain_patches called before validation")

    monkeypatch.setattr(experiment, "obtain_patches", no_data)
    assert main(["train", "--lr", "-1", "--out-dir", str(tmp_path / "out")]) == 1
    assert "config error: configure: learning_rate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--lr", "nan"], "learning_rate"),
        (["--tx-power", "nan"], "tx_power_dbm"),
        (["--tx-power", "inf"], "tx_power_dbm"),
        (["--link-distance", "nan"], "distance"),
        (["--config", "{cfg}"], "weight_decay"),
        (["--atoms-rows", "6", "--atoms-cols", "6"], "no integer block size"),
    ],
)
def test_cli_run_rejects_nonfinite_settings_before_data(tmp_path, capsys, monkeypatch, flags, name):
    import simd2nn.experiment as experiment

    def no_data(config):
        raise AssertionError("obtain_patches called before validation")

    monkeypatch.setattr(experiment, "obtain_patches", no_data)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[training]\nweight_decay = -5\n")
    flags = [f.format(cfg=cfg_path) for f in flags]
    assert main(["run", *flags, "--out-dir", str(tmp_path / "out")]) == 1
    assert f"config error: configure: {name}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_ablate_checks_pairing_before_data(tmp_path, capsys, monkeypatch):
    import simd2nn.experiment as experiment

    def no_data(config):
        raise AssertionError("obtain_patches called before validation")

    monkeypatch.setattr(experiment, "obtain_patches", no_data)
    out_dir = tmp_path / "out"
    assert main(["ablate", "--atoms-rows", "6", "--atoms-cols", "6", "--out-dir", str(out_dir)]) == 1
    assert "config error: configure: no integer block size" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_run_fails_fast_on_nonfinite_gradient(tmp_path, capsys, monkeypatch):
    import simd2nn.training as training

    original = training.backward_batch

    def nan_gradient(*args, **kwargs):
        losses, grad = original(*args, **kwargs)
        return losses, np.full_like(grad, np.nan)

    monkeypatch.setattr(training, "backward_batch", nan_gradient)
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg_path.write_text(
        "[geometry]\nlayers = 1\natoms_rows = 4\natoms_cols = 8\n"
        "[data]\nsynth_height = 192\nsynth_width = 192\npatch_side = 64\n"
        "[training]\nepochs = 2\nbatch = 8\nsample_rate = 0.5\n"
        f"[experiment]\nout_dir = {out_dir}\n"
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "error: train: epoch 1 batch 1: non-finite gradient" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_train_fails_on_nonfinite_sample(tmp_path, capsys):
    scene_path = tmp_path / "scene.simsc1"
    data_path = tmp_path / "data.simiq1"
    assert main(["synth", "--out", str(scene_path), "--height", "192", "--width", "192"]) == 0
    assert main([
        "patch", "--in", str(scene_path), "--out", str(data_path),
        "--side", "64", "--stride", "32",
    ]) == 0
    patches = load_dataset(str(data_path))
    assert len(patches) == 25
    patches[7].samples[3, 5] = np.nan
    save_dataset(str(data_path), patches)
    capsys.readouterr()
    assert main([
        "train", "--data", str(data_path), "--atoms-rows", "4", "--atoms-cols", "8",
        "--layers", "1", "--epochs", "1", "--out-dir", str(tmp_path / "out"),
    ]) == 2
    err = capsys.readouterr().err
    assert "encode:" in err and f"origin {patches[7].origin}" in err
    assert not (tmp_path / "out").exists()


def test_cli_bad_usage_is_config_error(capsys):
    assert main(["synth"]) == 1  # missing required --out
    assert "config error" in capsys.readouterr().err


def test_cli_dump_matrix(tmp_path):
    out = tmp_path / "w.txt"
    assert main([
        "dump-matrix", "--out", str(out),
        "--atoms-rows", "2", "--atoms-cols", "2", "--layers", "2",
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 16
    # the dump is the W that every adjacent layer pair of the stack uses
    geom = build_geometry(GeometryConfig(atoms_rows=2, atoms_cols=2, num_layers=2))
    w = build_propagation(geom).w_matrix
    for line in lines:
        r, c, re, im = line.split()
        assert complex(float(re), float(im)) == w[int(r), int(c)]


def test_cli_train_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg_path.write_text(
        "[geometry]\nlayers = 2\natoms_rows = 4\natoms_cols = 8\n"
        "[data]\nsynth_height = 192\nsynth_width = 192\npatch_side = 64\n"
        "[training]\nepochs = 9\nbatch = 8\nsample_rate = 0.5\n"
        f"[experiment]\nseed = 2\nout_dir = {out_dir}\n"
    )
    assert main(["train", "--config", str(cfg_path), "--epochs", "2"]) == 0
    history = (out_dir / "history.txt").read_text().splitlines()
    assert len(history) == 2  # flag beat the config file's 9


def test_cli_synth_patch_matches_internal_pipeline(tmp_path):
    # the file-based path (synth + patch) must produce exactly the patches
    # run_experiment synthesizes in-process for the same master seed
    scene_path = tmp_path / "scene.simsc1"
    data_path = tmp_path / "data.simiq1"
    assert main([
        "synth", "--out", str(scene_path), "--seed", "7",
        "--height", "192", "--width", "192",
    ]) == 0
    assert main([
        "patch", "--in", str(scene_path), "--out", str(data_path),
        "--side", "64", "--stride", "32",
    ]) == 0
    from simd2nn.experiment import obtain_patches

    config = tiny_config(tmp_path / "unused")
    config = replace(config, master_seed=7)
    internal = obtain_patches(config)
    from_files = load_dataset(str(data_path))
    assert len(internal) == len(from_files)
    for a, b in zip(internal, from_files):
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.origin == b.origin and a.label == b.label


def test_cli_train_model_flag(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg_path.write_text(
        "[geometry]\nlayers = 1\natoms_rows = 4\natoms_cols = 8\n"
        "[data]\nsynth_height = 192\nsynth_width = 192\npatch_side = 64\n"
        "[training]\nepochs = 1\nbatch = 8\nsample_rate = 0.5\n"
        f"[experiment]\nseed = 2\nout_dir = {out_dir}\n"
    )
    assert main(["train", "--config", str(cfg_path), "--model", "digital"]) == 0
    from simd2nn.network import load_params

    assert load_params(str(out_dir / "params.simth1")).kind == "digital"


def _no_data(monkeypatch):
    """From here on, any patch or scene work fails the test."""
    import simd2nn.experiment as experiment

    def no_data(*args, **kwargs):
        raise AssertionError("data work started before validation")

    monkeypatch.setattr(experiment, "obtain_patches", no_data)
    monkeypatch.setattr(experiment, "synthesize_scene", no_data)


@pytest.mark.parametrize(
    "command, flags, config, setting",
    [
        pytest.param("synth", ["--height", "-3"], None, "synth_height", id="synth-height-negative"),
        pytest.param("synth", ["--height", "0"], None, "synth_height", id="synth-height-zero"),
        pytest.param("synth", ["--land-sigma", "nan"], None, "land_sigma", id="synth-land-sigma-nan"),
        pytest.param("patch", ["--stride", "0"], None, "stride", id="patch-stride-zero"),
        pytest.param("run", [], "synth_height = -5", "synth_height", id="config-synth-height"),
        pytest.param("run", [], "ocean_sigma = nan", "ocean_sigma", id="config-ocean-sigma-nan"),
        pytest.param("run", [], "synth_layout = rings", "synth_layout", id="config-layout"),
        pytest.param("train", [], "stride = 0", "stride", id="config-stride-zero"),
        pytest.param(
            "run", [], "rotation_angle_deg = nan", "rotation_angle_deg", id="config-rotation-nan"
        ),
    ],
)
def test_cli_rejects_bad_data_settings_in_configure(
    tmp_path, capsys, monkeypatch, command, flags, config, setting
):
    _no_data(monkeypatch)
    args = [command, *flags]
    if command == "synth":
        args += ["--out", str(tmp_path / "scene.simsc1")]
    elif command == "patch":
        args += ["--in", str(tmp_path / "scene.simsc1"), "--out", str(tmp_path / "d.simiq1")]
    else:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"[data]\n{config}\n")
        args += ["--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"config error: configure: {setting} must be" in err and "Traceback" not in err
    assert os.listdir(tmp_path) in ([], ["run.cfg"])


def _write_scene_header(path, height, width):
    path.write_bytes(b"SIMSC1" + struct.pack("<II", height, width) + bytes(9))


# case -> (arguments, exit code, start of the error line); {tmp} is the test's directory
STAGE_ERRORS = {
    "synth-height-zero": (
        ["synth", "--out", "{tmp}/s.simsc1", "--height", "0"], 1, "config error: configure:"
    ),
    "patch-missing-scene": (
        ["patch", "--in", "{tmp}/missing.simsc1", "--out", "{tmp}/d.simiq1"], 2, "error: data:"
    ),
    "patch-huge-scene": (
        ["patch", "--in", "{tmp}/huge.simsc1", "--out", "{tmp}/d.simiq1"],
        1,
        "config error: data: truncated file",
    ),
    "ablate-missing-scene": (
        ["ablate", "--config", "{tmp}/missing-scene.cfg", "--out-dir", "{tmp}/out"], 2, "error: data:"
    ),
    "dump-matrix-no-rows": (
        ["dump-matrix", "--out", "{tmp}/w.txt", "--atoms-rows", "0"], 1, "config error: configure:"
    ),
    "train-bad-config-line": (["train", "--config", "{tmp}/bad.cfg"], 1, "config error: configure:"),
    "run-missing-config": (["run", "--config", "{tmp}/absent.cfg"], 2, "error: configure:"),
}


@pytest.mark.parametrize("case", STAGE_ERRORS)
def test_cli_errors_name_their_stage(tmp_path, capsys, case):
    _write_scene_header(tmp_path / "huge.simsc1", 400_000, 400_000)
    (tmp_path / "missing-scene.cfg").write_text(f"[data]\nscene = {tmp_path}/missing.simsc1\n")
    (tmp_path / "bad.cfg").write_text("[geometry]\nlayers = zero\n")
    argv, code, start = STAGE_ERRORS[case]
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(start) and "Traceback" not in err


def test_cli_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("simd2nn ")]
    assert {argv[1] for argv in commands} == set(COMMANDS)
    for argv in commands:
        build_parser().parse_args(argv[1:])


@pytest.mark.parametrize(
    "flags, found, wanted",
    [
        (["--layers", "4"], "(2, 32)", "(4, 32)"),
        (["--layers", "2", "--atoms-cols", "16"], "(2, 32)", "(2, 64)"),
    ],
    ids=["layers", "atoms"],
)
def test_cli_eval_rejects_params_of_another_geometry(tmp_path, capsys, monkeypatch, flags, found, wanted):
    params_path = tmp_path / "p.simth1"
    save_params(str(params_path), PhaseParams(theta=np.zeros((2, 32))))
    _no_data(monkeypatch)
    argv = ["eval", "--params", str(params_path), "--atoms-rows", "4", "--atoms-cols", "8", *flags]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: params:") and found in err and wanted in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval", "run"])
def test_cli_label_at_or_above_antenna_count_fails_in_encode(tmp_path, capsys, command):
    scene = synthesize_scene(192, 192, rng=seeding.stream(0, seeding.SYNTH))
    patches = extract_patches(scene, side=64, stride=32)
    patches[3].label = 5
    data_path = tmp_path / "data.simiq1"
    save_dataset(str(data_path), patches)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[geometry]\nlayers = 1\natoms_rows = 4\natoms_cols = 8\n"
        f"[data]\ndataset = {data_path}\npatch_side = 64\n[training]\nepochs = 1\n"
    )
    params_path = tmp_path / "p.simth1"
    save_params(str(params_path), PhaseParams(theta=np.zeros((1, 32))))
    extra = ["--params", str(params_path)] if command == "eval" else []
    assert main([command, "--config", str(cfg_path), *extra, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: encode: patch 3")
    assert f"origin {patches[3].origin}" in err and "label 5" in err and "rx_antennas = 2" in err
    assert not (tmp_path / "out").exists()


def test_run_writes_params_and_history_before_it_evaluates(tmp_path, capsys, monkeypatch):
    import simd2nn.experiment as experiment

    def broken_evaluate(*args, **kwargs):
        raise ShapeError("evaluation broke")

    monkeypatch.setattr(experiment, "evaluate", broken_evaluate)
    out_dir = tmp_path / "out"
    argv = ["run", "--layers", "1", "--atoms-rows", "4", "--atoms-cols", "8", "--epochs", "1"]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[data]\nsynth_height = 192\nsynth_width = 192\npatch_side = 64\n")
    assert main([*argv, "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: evaluate: evaluation broke")
    assert sorted(os.listdir(out_dir)) == ["history.txt", "params.simth1"]
