"""One workload run in one process: set up, repeat rounds, check, report.

Run by ``run.py`` as a fresh child process with ``PYTHONPATH=src``:

    python perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULT.json

Every workload runs the same phases the command line runs, at its own sizes:

    setup  build_geometry, obtain_patches, encode_for_config,
           channel_for_config, init_params          (``run``/``train`` start)
    write  synthesize_scene, save_scene, load_scene,
           extract_patches, save_dataset             (``synth`` + ``patch``)
    read   load_dataset, encode_patches              (``train --data`` start)
    train  train                                     (``train``)
    eval   evaluate                                  (``eval``)
    save   save_params, export_class_map             (artifacts)

Setup runs three times and reports its median. Rounds of write and read
(``io_reps`` times), train, eval and save then repeat while the next one fits
in ``--seconds``
(at least one). A traced run makes one untraced warm-up write and read, then
records exactly one round. Correctness checks run after each phase with tracing paused
and are not part of any timed phase.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

import simd2nn
from simd2nn import data, experiment, geometry, metrics, network, propagation, seeding, training
from simd2nn.config import ExperimentConfig

import layers
from catalog import WORKLOADS, Workload
from spans import Tracer, by_name, duration

SETUP_REPS = 3
ORACLE_PATCHES = 8


def config_for(w: Workload, seed: int) -> ExperimentConfig:
    base = ExperimentConfig()
    return replace(
        base,
        geometry=replace(base.geometry, atoms_rows=w.atoms[0], atoms_cols=w.atoms[1]),
        training=replace(
            base.training, epochs=w.epochs, sample_rate=w.sample_rate, master_seed=seed
        ),
        data=replace(
            base.data,
            patch_side=w.patch_side,
            synth=replace(base.data.synth, height=w.scene_px, width=w.scene_px),
        ),
        master_seed=seed,
    )


# --- correctness checks: each returns one bool per check made ---------------


def check_losses(history, epochs: int) -> list[bool]:
    """One epoch record per epoch, each with a finite loss."""
    return [len(history) == epochs] + [math.isfinite(row.loss) for row in history]


def check_round_trip(scene, loaded_scene, ref_patches, loaded_patches, ref_enc, loaded_enc):
    """Scene, patches and their encodings must come back bit-identical."""

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    n = len(ref_patches) == len(loaded_patches)
    pairs = list(zip(ref_patches, loaded_patches))
    return [
        same(scene.samples, loaded_scene.samples),
        same(scene.label_mask, loaded_scene.label_mask),
        n and all(same(a.samples, b.samples) for a, b in pairs),
        n and all(a.label == b.label for a, b in pairs),
        n and all(tuple(a.origin) == tuple(b.origin) for a, b in pairs),
        same(ref_enc.features, loaded_enc.features),
        same(ref_enc.labels, loaded_enc.labels),
        same(ref_enc.origins, loaded_enc.origins),
    ]


def near_tie(y: np.ndarray, rel: float = 1e-9) -> bool:
    """True when the top two antenna powers differ by less than rounding can move."""
    p = np.sort(np.abs(y) ** 2)
    return p[-1] - p[-2] <= rel * (p[-1] + p[-2])


def oracle_indices(n: int) -> np.ndarray:
    """Evenly spread patch indices, first and last included (the last is in the tail batch)."""
    return np.unique(np.linspace(0, n - 1, ORACLE_PATCHES).round().astype(np.int64))


def check_predictions(params, dataset, geom, channel, tcfg, preds) -> list[bool]:
    """Batched predictions must match the single-patch forward + classify oracle
    under the same evaluation-noise streams."""
    prop = propagation.build_propagation(geom)
    out = []
    for j in oracle_indices(len(dataset)):
        y, _ = network.forward(
            params,
            network.EncodedInput(dataset.features[j]),
            prop,
            channel.realization,
            channel.tx_amplitude,
            seeding.stream(tcfg.master_seed, seeding.EVAL_NOISE, int(j)),
        )
        out.append(network.classify(y) == int(preds[j]) or near_tie(y))
    return out


# --- the run ----------------------------------------------------------------

FILES = ("scene.simsc1", "data.simiq1", "params.simth1", "class_map.pgm")


def remove_files(workdir: str) -> None:
    """Unlink the run's files. Unlinked before writeback starts, a file's dirty
    pages are dropped, so earlier rounds' disk flushes do not stall later
    writes; overwriting a file in place instead makes ext4 flush it on close."""
    for name in FILES:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.remove(path)


class Run:
    def __init__(self, name: str, seed: int, workdir: str, tracer: Tracer):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.cfg = config_for(self.w, seed)
        self.workdir = workdir
        self.tr = tracer
        self.checks: list[bool] = []
        self.peak_rss_mib = 0.0
        self.oa = None

    def _check(self, results: list[bool]) -> None:
        self.checks.extend(bool(r) for r in results)

    def setup(self):
        cfg = self.cfg
        with self.tr.span("setup"):
            cfg.channel.validate()
            cfg.training.validate()
            geom = geometry.build_geometry(cfg.geometry)
            patches = experiment.obtain_patches(cfg)
            dataset = experiment.encode_for_config(cfg, patches)
            channel = experiment.channel_for_config(cfg)
            params = network.init_params(
                geom, cfg.model_kind, seeding.stream(self.seed, seeding.PARAM_INIT)
            )
        return geom, dataset, channel, params

    def write(self):
        d = self.cfg.data
        scene_path = os.path.join(self.workdir, "scene.simsc1")
        dataset_path = os.path.join(self.workdir, "data.simiq1")
        side = self.w.io_scene_px
        with self.tr.span("write") as attrs:
            scene = data.synthesize_scene(
                side,
                side,
                class_layout=d.synth.layout,
                ocean_sigma=d.synth.ocean_sigma,
                land_sigma=d.synth.land_sigma,
                land_phase_texture=d.synth.phase_texture,
                rng=seeding.stream(self.seed, seeding.SYNTH),
            )
            data.save_scene(scene_path, scene)
            loaded_scene = data.load_scene(scene_path)
            patches = data.extract_patches(loaded_scene, side=d.patch_side, stride=d.stride)
            data.save_dataset(dataset_path, patches)
            attrs["patches"] = len(patches)
        return scene, loaded_scene, dataset_path

    def read(self, dataset_path: str):
        d = self.cfg.data
        with self.tr.span("read") as attrs:
            loaded = data.load_dataset(dataset_path)
            encoded = data.encode_patches(
                loaded,
                m_atoms=self.w.atoms[0] * self.w.atoms[1],
                phase_rotation=d.phase_rotation,
                rotation_angle=d.rotation_angle_rad,
            )
            attrs["patches"] = len(loaded)
        return loaded, encoded

    def check_io(self, scene, loaded_scene, loaded, encoded) -> None:
        d = self.cfg.data
        with self.tr.span("check"), self.tr.pause():
            ref = data.extract_patches(scene, side=d.patch_side, stride=d.stride)
            ref_enc = experiment.encode_for_config(self.cfg, ref)
            self._check(check_round_trip(scene, loaded_scene, ref, loaded, ref_enc, encoded))

    def io(self) -> None:
        """One write and read of the io scene, checked, then its files unlinked."""
        scene, loaded_scene, dataset_path = self.write()
        loaded, encoded = self.read(dataset_path)
        self.check_io(scene, loaded_scene, loaded, encoded)
        remove_files(self.workdir)

    def round(self, geom, dataset, channel, init_params, first: bool) -> None:
        cfg = self.cfg
        remove_files(self.workdir)
        with self.tr.span("round"):
            for _ in range(self.w.io_reps):
                self.io()

            with self.tr.span("train") as attrs:
                params, history = training.train(
                    dataset, geom, channel, cfg.training, kind=cfg.model_kind
                )
                # train() samples ceil(sample_rate * n) patches for its split
                n_train = math.ceil(cfg.training.sample_rate * len(dataset))
                attrs["patches"] = n_train * cfg.training.epochs
            with self.tr.span("check"):
                self._check(check_losses(history, cfg.training.epochs))

            deployed = init_params if self.w.eval_init else params
            with self.tr.span("eval", patches=len(dataset)):
                preds, bundle = training.evaluate(deployed, dataset, geom, channel, cfg.training)
            self.oa = bundle.overall_accuracy
            if first:
                with self.tr.span("check"), self.tr.pause():
                    self._check(
                        check_predictions(deployed, dataset, geom, channel, cfg.training, preds)
                    )

            with self.tr.span("save"):
                network.save_params(os.path.join(self.workdir, "params.simth1"), params)
                metrics.export_class_map(
                    preds.reshape(dataset.grid_shape()),
                    cfg.channel.num_rx_antennas,
                    os.path.join(self.workdir, "class_map.pgm"),
                )

    def execute(self, seconds: float, warm_up: bool = False) -> None:
        """Set up, then make rounds while the next one fits in ``seconds``.

        ``warm_up`` first writes and reads once with tracing paused, so that
        the recorded file phases run with warm allocator pools and page cache
        (the other phases repeat the setups' allocations).
        """
        for _ in range(SETUP_REPS):
            state = None  # release the previous setup before building the next
            state = self.setup()
        if warm_up:
            with self.tr.pause():
                self.io()
        rounds = 0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.round(*state, first=rounds == 0)
            if rounds == 0:
                # One user pass: later rounds only grow the heap's high-water mark.
                self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rounds += 1
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break

    def end_to_end(self) -> dict[str, float]:
        spans = self.tr.spans

        def per_round(phase):
            return statistics.median(s["attrs"]["patches"] / duration(s) for s in by_name(spans, phase))

        def med(phase):
            return statistics.median(duration(s) for s in by_name(spans, phase))

        setup_s = med("setup")
        return {
            "setup_s": setup_s,
            "run_s": setup_s + sum(med(p) for p in ("write", "read", "train", "eval", "save")),
            "train_samples_per_s": per_round("train"),
            "eval_patches_per_s": per_round("eval"),
            "write_patches_per_s": per_round("write"),
            "read_patches_per_s": per_round("read"),
            "peak_rss_mib": self.peak_rss_mib,
            "oa": self.oa,
        }


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "simd2nn": simd2nn.__version__,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workdir = os.path.dirname(os.path.abspath(args.out))
    tracer = Tracer(trace_id=f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
    if args.trace:
        layers.install(tracer)
    run = Run(args.workload, args.seed, workdir, tracer)
    try:
        with tracer.span("workload", workload=args.workload, seed=args.seed):
            # A traced run records exactly one round, so its counts repeat exactly.
            if args.trace:
                run.execute(0.0, warm_up=True)
            else:
                run.execute(args.seconds)
    finally:
        tracer.restore()
        remove_files(workdir)
    e2e = run.end_to_end()
    result = {
        "workload": args.workload,
        "trace_id": tracer.trace_id,
        "attempted": len(run.checks),
        "failed": run.checks.count(False),
        "rounds": len(by_name(tracer.spans, "round")),
        "end_to_end": e2e,
        "environment": environment(args.seed),
    }
    if args.trace:
        m = run.w.atoms[0] * run.w.atoms[1]
        reference = {b: layers.reference_matmul_gflops(m, b) for b in (64, 256)}
        result["per_layer"] = layers.layer_metrics(tracer.spans, reference)
        tracer.write(os.path.join(workdir, f"trace-{args.workload}-{args.seed}.json"))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
