import os
from dataclasses import replace

import numpy as np
import pytest

from simd2nn.cli import main
from simd2nn.config import DataConfig, ExperimentConfig, SynthConfig
from simd2nn.data import load_dataset, load_scene
from simd2nn.errors import ConfigurationError
from simd2nn.experiment import format_ablation_table, run_ablation_suite, run_experiment
from simd2nn.geometry import GeometryConfig
from simd2nn.metrics import read_class_map
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


def test_run_experiment_writes_all_artifacts(tmp_path):
    result = run_experiment(tiny_config(tmp_path / "run"))
    assert os.path.exists(result.params_path)
    assert os.path.exists(result.history_path)
    assert os.path.exists(result.report_path)
    assert result.class_map_path and os.path.exists(result.class_map_path)
    history = open(result.history_path).read().splitlines()
    assert len(history) == 3
    report = open(result.report_path).read().splitlines()
    assert len(report) == 4 and report[0].startswith("precision")
    grid = read_class_map(result.class_map_path, 2)
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
    # patch side incompatible with the atom count fails in the encode stage
    config = tiny_config(tmp_path / "bad2")
    config = replace(config, data=replace(config.data, patch_side=66, stride=32))
    with pytest.raises(ConfigurationError, match="encode:"):
        run_experiment(config)


def test_run_experiment_deterministic(tmp_path):
    r1 = run_experiment(tiny_config(tmp_path / "a"))
    r2 = run_experiment(tiny_config(tmp_path / "b"))
    for a, b in [
        (r1.params_path, r2.params_path),
        (r1.history_path, r2.history_path),
        (r1.report_path, r2.report_path),
        (r1.class_map_path, r2.class_map_path),
    ]:
        assert open(a, "rb").read() == open(b, "rb").read()


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


def test_cli_train_validates_before_data(tmp_path, capsys, monkeypatch):
    import simd2nn.experiment as experiment

    def no_data(config):
        raise AssertionError("obtain_patches called before validation")

    monkeypatch.setattr(experiment, "obtain_patches", no_data)
    assert main(["train", "--lr", "-1", "--out-dir", str(tmp_path / "out")]) == 1
    assert "config error: configure: learning_rate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_bad_usage_is_config_error(capsys):
    assert main(["synth"]) == 1  # missing required --out
    assert "config error" in capsys.readouterr().err


def test_cli_dump_matrix(tmp_path):
    out = tmp_path / "w.txt"
    assert main([
        "dump-matrix", "--out", str(out), "--layer", "1",
        "--atoms-rows", "2", "--atoms-cols", "2", "--layers", "2",
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 16


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
