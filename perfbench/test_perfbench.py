"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import catalog  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from spans import Tracer, duration, self_times  # noqa: E402

# 8x16 atoms, one epoch, a 256^2 scene: 25 patches of 128 px.
TINY = catalog.Workload((8, 16), 128, 256, 256, epochs=1, sample_rate=0.5, io_reps=2)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workload.WORKLOADS, "tiny", TINY)
    return "tiny"


def _child(tiny, tmp_path, trace):
    out = tmp_path / f"result-{trace}.json"
    args = ["--workload", tiny, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert workload.main(args + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_smoke_emits_every_metric_with_its_unit(tiny, tmp_path):
    base = _child(tiny, tmp_path, 0)
    traced = _child(tiny, tmp_path, 1)
    assert base["attempted"] > 0 and base["failed"] == 0

    for names, values in (run.metrics_of(base, None), run.metrics_of(base, traced)):
        result = run.result_of([base], names, values)
        assert result["correct"] is True
        assert list(result["metrics"]) == [name for name, _, _ in names]
        for name, unit, _ in names:
            value = result["metrics"][name]["value"]
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(value, (int, float)) and np.isfinite(value), name
    for name, _, _ in catalog.END_TO_END:
        assert base["end_to_end"][name] > 0, name
    layer = traced["per_layer"]
    assert layer["training.steps"] == 1 and layer["propagation.builds"] == 2
    assert layer["network.forward_batch_calls"] == 2  # one train batch, one eval batch
    assert layer["data.patches_skipped"] == 0


def test_span_self_times_add_up_to_the_root(tiny, tmp_path):
    _child(tiny, tmp_path, 1)
    (trace_file,) = tmp_path.glob("trace-*.json")
    spans = json.loads(trace_file.read_text())["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) == 1 and len(spans) > 100
    assert sum(self_times(spans).values()) == pytest.approx(duration(roots[0]), rel=1e-9)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            sum(range(10000))
        sum(range(10000))
    root, child = tracer.spans
    own = self_times(tracer.spans)
    assert own[child["id"]] == pytest.approx(duration(child))
    assert own[root["id"]] == pytest.approx(duration(root) - duration(child))


def test_wrap_records_and_restore_puts_originals_back():
    import simd2nn.seeding as seeding

    original = seeding.stream
    tracer = Tracer()
    tracer.wrap(seeding, "stream")
    seeding.stream(1, 2)
    with tracer.pause():
        seeding.stream(1, 2)
    tracer.restore()
    assert seeding.stream is original
    assert [s["name"] for s in tracer.spans] == ["seeding.stream"]


def _tiny_state(tiny, tmp_path):
    run_ = workload.Run(tiny, 3, str(tmp_path), Tracer())
    return run_, run_.setup()


def test_corrupted_prediction_trips_the_oracle(tiny, tmp_path):
    run_, (geom, dataset, channel, params) = _tiny_state(tiny, tmp_path)
    tcfg = run_.cfg.training
    preds, _ = workload.training.evaluate(params, dataset, geom, channel, tcfg)
    assert all(workload.check_predictions(params, dataset, geom, channel, tcfg, preds))
    bad = preds.copy()
    j = workload.oracle_indices(len(dataset))[-1]
    bad[j] = 1 - bad[j]
    assert workload.check_predictions(params, dataset, geom, channel, tcfg, bad).count(False) == 1


def test_corrupted_round_trip_trips_its_check(tiny, tmp_path):
    run_, _ = _tiny_state(tiny, tmp_path)
    scene, loaded_scene, path = run_.write()
    loaded, encoded = run_.read(path)
    d = run_.cfg.data
    ref = workload.data.extract_patches(scene, side=d.patch_side, stride=d.stride)
    ref_enc = workload.experiment.encode_for_config(run_.cfg, ref)
    assert all(workload.check_round_trip(scene, loaded_scene, ref, loaded, ref_enc, encoded))

    flipped = loaded[:]
    samples = flipped[4].samples.copy()
    samples[0, 0] += 1e-3
    flipped[4] = replace(flipped[4], samples=samples)
    moved = loaded[:]
    moved[2] = replace(moved[2], origin=(1, 1), label=1 - moved[2].label)
    for case in (flipped, moved, loaded[:-1]):
        assert not all(workload.check_round_trip(scene, loaded_scene, ref, case, ref_enc, encoded))
    bent = replace(encoded, features=encoded.features * (1 + 1e-15j))
    assert not all(workload.check_round_trip(scene, loaded_scene, ref, loaded, ref_enc, bent))


def test_nonfinite_loss_trips_its_check():
    rows = [workload.training.EpochStats(1, 0.7, 0.5), workload.training.EpochStats(2, float("nan"), 0.5)]
    assert workload.check_losses(rows, 2) == [True, True, False]
    assert workload.check_losses(rows[:1], 2)[0] is False


def test_benchmark_json_mirrors_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == catalog.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == catalog.PER_LAYER
    assert next(m for m in spec["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in spec["end_to_end"]
    )


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
