"""Per-layer metrics for the traced run: what is wrapped, and what is derived.

``install`` wraps the public functions of each ``simd2nn`` layer at the
names their callers look up; ``layer_metrics`` turns the recorded spans into
the per-layer metrics listed in ``catalog.PER_LAYER``.

FLOP and byte figures are computed from array shapes, not measured by
hardware counters: bytes are the minimum traffic of each operand read or
written once, ignoring cache reuse and misses.
"""

import os
import statistics
import time

import numpy as np

from spans import by_name, duration

# --- computed work per call --------------------------------------------------
# A complex multiply-add is 8 real FLOPs, an element-wise complex multiply 6,
# and a complex128 value 16 bytes. L layers, M atoms, K antennas, B columns.


def forward_flops(l, m, k, b):
    return l * (8 * m * m * b + 6 * m * b) + 6 * m * b + 8 * k * m * b


def forward_bytes(l, m, k, b):
    # per layer: W once, u in, t out, then t in and u out; plus input, H, y
    return l * (16 * m * m + 64 * m * b) + 32 * m * b + 16 * k * m + 16 * k * b


def backward_flops(l, m, k, b):
    return l * (8 * m * m * b + 19 * m * b) + 8 * k * m * b + 6 * k * b


def backward_bytes(l, m, k, b):
    # per layer: W read, its conjugate copy written and read, six M x B passes
    return l * (48 * m * m + 96 * m * b) + 16 * k * m + 32 * k * b


# --- wrapping ---------------------------------------------------------------


def _forward_shape(args, kwargs, result):
    y, cache = result
    return {"L": cache.t.shape[0], "M": cache.t.shape[1], "K": y.shape[0], "B": y.shape[1]}


def _backward_shape(args, kwargs, result):
    cache, y = args[0], args[4]
    return {"L": cache.t.shape[0], "M": cache.t.shape[1], "K": y.shape[0], "B": y.shape[1]}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _encode_counts(args, kwargs, result):
    return {"patches_in": len(args[0]), "patches_out": len(result)}


def install(tracer) -> None:
    """Wrap every layer function at the name its caller looks it up by."""
    import simd2nn.data as data
    import simd2nn.experiment as experiment
    import simd2nn.geometry as geometry
    import simd2nn.kernels as kernels
    import simd2nn.metrics as metrics
    import simd2nn.network as network
    import simd2nn.seeding as seeding
    import simd2nn.training as training

    wrap = tracer.wrap
    # called by the benchmark through the module
    for attr in ("obtain_patches", "encode_for_config", "channel_for_config"):
        wrap(experiment, attr)
    wrap(geometry, "build_geometry")
    wrap(network, "init_params")
    wrap(network, "save_params")
    wrap(metrics, "export_class_map")
    wrap(data, "synthesize_scene")
    wrap(data, "save_scene", describe=_file_bytes)
    wrap(data, "load_scene", describe=_file_bytes)
    wrap(data, "extract_patches")
    wrap(data, "save_dataset", describe=_file_bytes)
    wrap(data, "load_dataset", describe=_file_bytes)
    wrap(data, "encode_patches", describe=_encode_counts)
    wrap(training, "train")
    wrap(training, "evaluate")
    # looked up inside experiment
    wrap(experiment, "synthesize_scene", "data.synthesize_scene")
    wrap(experiment, "extract_patches", "data.extract_patches")
    wrap(experiment, "encode_patches", "data.encode_patches", _encode_counts)
    wrap(experiment, "realize_channel", "channel.realize_channel")
    # looked up inside training
    wrap(training, "predict")
    wrap(training, "init_params", "network.init_params")
    wrap(training, "build_propagation", "propagation.build_propagation",
         lambda a, k, r: {"w_bytes": r.w_matrix.nbytes})
    wrap(training, "forward_batch", "network.forward_batch", _forward_shape)
    wrap(training, "backward_batch", "training.backward_batch", _backward_shape)
    wrap(training, "classify_batch", "network.classify_batch")
    wrap(training, "adamw_step")
    # looked up inside network, as module attributes, and inside evaluate
    wrap(network, "add_awgn", "channel.add_awgn")
    wrap(seeding, "stream")
    wrap(kernels, "coupling_matrix",
         describe=lambda a, k, r: {"pairs": int(r.shape[0]) * int(r.shape[1])})
    wrap(metrics, "compute_metrics")


# --- derivation -------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _median(values):
    return statistics.median(values) if values else 0.0


def _step_times(spans):
    """Wall time of each train step: previous update's end to this update's end.

    The first step of a ``training.train`` call starts when its propagation
    build ends; a step covers gathering the batch, its noise streams, forward,
    backward, readout and the AdamW update.
    """
    out = []
    for train in by_name(spans, "training.train"):
        mark = None
        for s in spans:
            if s["parent"] != train["id"]:
                continue
            if s["name"] == "propagation.build_propagation":
                mark = s["end"]
            elif s["name"] == "training.adamw_step" and mark is not None:
                out.append(s["end"] - mark)
                mark = s["end"]
    return out


def _shape(span):
    a = span["attrs"]
    return a["L"], a["M"], a["K"], a["B"]


def reference_matmul_gflops(m: int, width: int, reps: int = 5) -> float:
    """Rate of a plain complex (M, M) @ (M, width) product on this machine."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    x = rng.standard_normal((m, width)) + 1j * rng.standard_normal((m, width))
    w @ x
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        w @ x
        times.append(time.perf_counter() - t0)
    return 8.0 * m * m * width / statistics.median(times) / 1e9


def layer_metrics(spans, reference: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    A ``_s`` metric is the seconds summed over all of that function's calls in
    the run; the matching calls are a fixed number per workload (three setups
    and one round). ``_ms_p50``/``_ms_p95`` are per-call percentiles.
    """

    def busy(name):
        return sum(duration(s) for s in by_name(spans, name))

    def ms(seq):
        return [1e3 * duration(s) for s in seq]

    def per_second(seq, amount):
        """Sum of ``amount(span)`` over the spans' summed duration."""
        total = sum(duration(s) for s in seq)
        return sum(amount(s) for s in seq) / total if total > 0 else 0.0

    out = {}
    fwd = by_name(spans, "network.forward_batch")
    bwd = by_name(spans, "training.backward_batch")
    fwd64 = [s for s in fwd if s["attrs"]["B"] == 64]
    fwd256 = [s for s in fwd if s["attrs"]["B"] == 256]
    shape = _shape((fwd or bwd)[0]) if fwd or bwd else None
    out["network.forward_batch_ms_p50"] = _median(ms(fwd))
    out["network.forward_batch_ms_p95"] = percentile(ms(fwd), 95)
    out["network.forward_batch_calls"] = len(fwd)
    out["network.forward_b64_ms_p50"] = _median(ms(fwd64))
    out["network.forward_b64_calls"] = len(fwd64)
    out["network.forward_b256_ms_p50"] = _median(ms(fwd256))
    out["network.forward_b256_calls"] = len(fwd256)
    out["network.forward_other_width_calls"] = len(fwd) - len(fwd64) - len(fwd256)
    out["network.forward_gflops"] = per_second(fwd, lambda s: forward_flops(*_shape(s))) / 1e9
    out["network.forward_b64_computed_mflop"] = (
        forward_flops(*shape[:3], 64) / 1e6 if shape else 0.0
    )
    out["network.forward_b64_computed_mib"] = forward_bytes(*shape[:3], 64) / 2**20 if shape else 0.0

    steps = [1e3 * t for t in _step_times(spans)]
    out["training.step_ms_p50"] = _median(steps)
    out["training.step_ms_p95"] = percentile(steps, 95)
    out["training.steps"] = len(steps)
    out["training.backward_batch_ms_p50"] = _median(ms(bwd))
    out["training.backward_batch_ms_p95"] = percentile(ms(bwd), 95)
    out["training.backward_gflops"] = per_second(bwd, lambda s: backward_flops(*_shape(s))) / 1e9
    out["training.backward_b64_computed_mflop"] = (
        backward_flops(*shape[:3], 64) / 1e6 if shape else 0.0
    )
    out["training.backward_b64_computed_mib"] = (
        backward_bytes(*shape[:3], 64) / 2**20 if shape else 0.0
    )
    out["training.adamw_step_ms_p50"] = _median(ms(by_name(spans, "training.adamw_step")))

    builds = by_name(spans, "propagation.build_propagation")
    out["propagation.build_propagation_s"] = busy("propagation.build_propagation")
    out["propagation.builds"] = len(builds)
    out["propagation.w_mib"] = builds[-1]["attrs"]["w_bytes"] / 2**20 if builds else 0.0
    coupling = by_name(spans, "kernels.coupling_matrix")
    out["kernels.coupling_pairs"] = sum(s["attrs"]["pairs"] for s in coupling)
    out["kernels.coupling_matrix_s"] = busy("kernels.coupling_matrix")

    out["seeding.stream_calls"] = len(by_name(spans, "seeding.stream"))
    out["seeding.stream_s"] = busy("seeding.stream")
    out["channel.add_awgn_calls"] = len(by_name(spans, "channel.add_awgn"))
    out["channel.add_awgn_s"] = busy("channel.add_awgn")

    out["data.synthesize_scene_s"] = busy("data.synthesize_scene")
    out["data.extract_patches_s"] = busy("data.extract_patches")
    for io in ("save_dataset", "load_dataset", "save_scene", "load_scene"):
        seq = by_name(spans, f"data.{io}")
        out[f"data.{io}_mb_per_s"] = per_second(seq, lambda s: s["attrs"]["bytes"]) / 1e6
    encodes = by_name(spans, "data.encode_patches")
    out["data.encode_patches_per_s"] = per_second(encodes, lambda s: s["attrs"]["patches_in"])
    out["data.patches_skipped"] = sum(
        s["attrs"]["patches_in"] - s["attrs"]["patches_out"] for s in encodes
    )

    for name in ("obtain_patches", "encode_for_config", "channel_for_config"):
        out[f"experiment.{name}_s"] = busy(f"experiment.{name}")
    out["metrics.compute_metrics_s"] = busy("metrics.compute_metrics")
    out["metrics.export_class_map_s"] = busy("metrics.export_class_map")

    out["blas.matmul_b64_gflops"] = reference.get(64, 0.0)
    out["blas.matmul_b256_gflops"] = reference.get(256, 0.0)
    out["trace.spans"] = len(spans)
    return out
