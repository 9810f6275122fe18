"""What the benchmark runs and reports: workloads and metric names.

Kept free of ``simd2nn`` and numpy imports so that ``run.py`` can validate
its arguments before any child process starts. BENCHMARK.json mirrors the
workload names and the two metric lists.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload. ``io_scene_px`` is the scene the write phase
    synthesizes and writes, ``io_reps`` how often a round writes and reads it;
    ``eval_init`` classifies with the untrained ``init_params`` phases instead
    of the trained ones."""

    atoms: tuple[int, int]
    patch_side: int
    scene_px: int
    io_scene_px: int
    epochs: int
    sample_rate: float
    io_reps: int = 1
    eval_init: bool = False


WORKLOADS = {
    # The default config (2048 atoms, L=4, 60 epochs, 10% of 2209 patches):
    # the paper's headline run, where train steps are over 90% of the time.
    "train-default": Workload((32, 64), 128, 1600, 512, epochs=60, sample_rate=0.10, io_reps=15),
    # Deployment at 3200 atoms: forward-only evaluation of 2116 160-px patches
    # with untrained phases dominates; the short fit (two steps) prices
    # training at this M. 40x80 atoms keeps the dense-W build near 1.2 GiB.
    "deploy-wide": Workload(
        (40, 80), 160, 1600, 512, epochs=1, sample_rate=0.06, io_reps=5, eval_init=True
    ),
    # The synth -> patch -> train --data file path on a full 1600^2 scene
    # (276 MiB dataset), with a 128-atom model so the data layer dominates.
    "ingest-roundtrip": Workload((8, 16), 128, 1600, 1600, epochs=10, sample_rate=0.10),
}

# (name, unit, better): the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("eval_patches_per_s", "1/s", "higher"),
    ("write_patches_per_s", "1/s", "higher"),
    ("read_patches_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("oa", "fraction", "higher"),
]


# (name, unit, better): the traced run's metrics, in BENCHMARK.json order.
PER_LAYER = [
    ("network.forward_batch_ms_p50", "ms", "lower"),
    ("network.forward_batch_ms_p95", "ms", "lower"),
    ("network.forward_batch_calls", "count", "lower"),
    ("network.forward_b64_ms_p50", "ms", "lower"),
    ("network.forward_b64_calls", "count", "lower"),
    ("network.forward_b256_ms_p50", "ms", "lower"),
    ("network.forward_b256_calls", "count", "lower"),
    ("network.forward_other_width_calls", "count", "lower"),
    ("network.forward_gflops", "GFLOP/s", "higher"),
    ("network.forward_b64_computed_mflop", "MFLOP", "lower"),
    ("network.forward_b64_computed_mib", "MiB", "lower"),
    ("training.step_ms_p50", "ms", "lower"),
    ("training.step_ms_p95", "ms", "lower"),
    ("training.steps", "count", "lower"),
    ("training.backward_batch_ms_p50", "ms", "lower"),
    ("training.backward_batch_ms_p95", "ms", "lower"),
    ("training.backward_gflops", "GFLOP/s", "higher"),
    ("training.backward_b64_computed_mflop", "MFLOP", "lower"),
    ("training.backward_b64_computed_mib", "MiB", "lower"),
    ("training.adamw_step_ms_p50", "ms", "lower"),
    ("propagation.build_propagation_s", "s", "lower"),
    ("propagation.builds", "count", "lower"),
    ("propagation.w_mib", "MiB", "lower"),
    ("kernels.coupling_pairs", "count", "lower"),
    ("kernels.coupling_matrix_s", "s", "lower"),
    ("seeding.stream_calls", "count", "lower"),
    ("seeding.stream_s", "s", "lower"),
    ("channel.add_awgn_calls", "count", "lower"),
    ("channel.add_awgn_s", "s", "lower"),
    ("data.synthesize_scene_s", "s", "lower"),
    ("data.extract_patches_s", "s", "lower"),
    ("data.save_dataset_mb_per_s", "MB/s", "higher"),
    ("data.load_dataset_mb_per_s", "MB/s", "higher"),
    ("data.save_scene_mb_per_s", "MB/s", "higher"),
    ("data.load_scene_mb_per_s", "MB/s", "higher"),
    ("data.encode_patches_per_s", "1/s", "higher"),
    ("data.patches_skipped", "count", "lower"),
    ("experiment.obtain_patches_s", "s", "lower"),
    ("experiment.encode_for_config_s", "s", "lower"),
    ("experiment.channel_for_config_s", "s", "lower"),
    ("metrics.compute_metrics_s", "s", "lower"),
    ("metrics.export_class_map_s", "s", "lower"),
    ("blas.matmul_b64_gflops", "GFLOP/s", "higher"),
    ("blas.matmul_b256_gflops", "GFLOP/s", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]
