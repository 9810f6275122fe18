"""Command-line surface: synth, patch, train, eval, ablate, dump-matrix.

Exit codes: 0 on success, 1 on configuration/format problems, 2 on runtime
failures. Flags override config-file values, which override built-in
defaults.
"""

import argparse
import logging
import os
import sys

from . import seeding
from .config import resolve_config
from .data import extract_patches, load_scene, save_dataset, save_scene, synthesize_scene
from .errors import ConfigurationError, FormatError, SimError
from .experiment import (
    format_ablation_table,
    prepare_experiment,
    run_ablation_suite,
    run_experiment,
    stage,
    write_evaluation_artifacts,
    write_training_artifacts,
)
from .geometry import build_geometry
from .metrics import format_percent
from .network import load_params
from .propagation import build_transmission_matrix, dump_matrix_text
from .training import evaluate, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def _add_config_overrides(parser, training=True):
    parser.add_argument("--config", help="config file (key = value under [section] headers)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out-dir", help="artifact directory")
    parser.add_argument("--layers", type=int, help="trainable layer count")
    parser.add_argument("--atoms-rows", type=int)
    parser.add_argument("--atoms-cols", type=int)
    parser.add_argument("--tx-power", type=float, help="transmit power, dBm")
    parser.add_argument("--link-distance", type=float, help="downlink distance, m")
    parser.add_argument("--model", choices=["sim", "digital"])
    parser.add_argument(
        "--phase-rotation", choices=["on", "off"], help="quadrature second input half"
    )
    if training:
        parser.add_argument("--epochs", type=int)
        parser.add_argument("--batch", type=int)
        parser.add_argument("--lr", type=float)
        parser.add_argument("--sample-rate", type=float)
        parser.add_argument("--train-noise", choices=["on", "off"])


def _overrides_from_args(args) -> dict:
    mapping = {
        "seed": ("experiment", "seed"),
        "out_dir": ("experiment", "out_dir"),
        "layers": ("geometry", "layers"),
        "atoms_rows": ("geometry", "atoms_rows"),
        "atoms_cols": ("geometry", "atoms_cols"),
        "tx_power": ("channel", "tx_power_dbm"),
        "link_distance": ("channel", "link_distance_m"),
        "model": ("experiment", "model"),
        "epochs": ("training", "epochs"),
        "batch": ("training", "batch"),
        "lr": ("training", "lr"),
        "sample_rate": ("training", "sample_rate"),
    }
    overrides = {}
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "train_noise", None) is not None:
        overrides[("training", "train_noise")] = args.train_noise == "on"
    if getattr(args, "phase_rotation", None) is not None:
        overrides[("data", "phase_rotation")] = args.phase_rotation == "on"
    if getattr(args, "data", None) is not None:
        overrides[("data", "dataset")] = args.data
    return overrides


def _cmd_synth(args) -> int:
    rng = seeding.stream(args.seed, seeding.SYNTH)
    scene = synthesize_scene(
        args.height,
        args.width,
        class_layout=args.layout,
        ocean_sigma=args.ocean_sigma,
        land_sigma=args.land_sigma,
        land_phase_texture=args.texture == "on",
        rng=rng,
    )
    save_scene(args.out, scene)
    print(f"wrote {args.height}x{args.width} {args.layout} scene to {args.out}")
    return 0


def _cmd_patch(args) -> int:
    scene = load_scene(getattr(args, "in"))
    patches = extract_patches(scene, side=args.side, stride=args.stride)
    save_dataset(args.out, patches)
    print(f"wrote {len(patches)} patches (side {args.side}, stride {args.stride}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = resolve_config(args.config, _overrides_from_args(args))
    prep = prepare_experiment(config)
    with stage("train"):
        params, history = train(
            prep.dataset, prep.geometry, prep.channel, config.training, kind=config.model_kind
        )
    with stage("write-artifacts"):
        params_path, history_path = write_training_artifacts(config, params, history)
    last = history[-1]
    print(
        f"trained {config.model_kind} model for {last.epoch} epochs; "
        f"final train loss {last.loss:.4f}, accuracy {format_percent(last.accuracy)}"
    )
    print(f"wrote {params_path} and {history_path}")
    return 0


def _cmd_eval(args) -> int:
    config = resolve_config(args.config, _overrides_from_args(args))
    params = load_params(args.params)
    prep = prepare_experiment(config)
    with stage("evaluate"):
        predictions, bundle = evaluate(
            params, prep.dataset, prep.geometry, prep.channel, config.training
        )
    with stage("write-artifacts"):
        report_path, map_path = write_evaluation_artifacts(
            config, predictions, bundle, prep.dataset
        )
    if map_path is not None:
        print(f"wrote {report_path} and {map_path}")
    else:
        print(f"wrote {report_path} (no full patch grid; class map skipped)")
    for name, value in (
        ("precision", bundle.precision),
        ("recall", bundle.recall),
        ("f1", bundle.f1),
        ("overall accuracy", bundle.overall_accuracy),
    ):
        print(f"{name} {format_percent(value)}")
    return 0


def _cmd_ablate(args) -> int:
    config = resolve_config(args.config, _overrides_from_args(args))
    rows = run_ablation_suite(config)
    table = format_ablation_table(rows)
    os.makedirs(config.output_dir, exist_ok=True)
    table_path = os.path.join(config.output_dir, "ablation.txt")
    with open(table_path, "w") as fh:
        fh.write(table)
    print(table, end="")
    print(f"wrote {table_path}")
    return 0 if all(r.error is None for r in rows) else 2


def _cmd_run(args) -> int:
    config = resolve_config(args.config, _overrides_from_args(args))
    result = run_experiment(config)
    b = result.metrics
    for name, value in (
        ("precision", b.precision),
        ("recall", b.recall),
        ("f1", b.f1),
        ("overall accuracy", b.overall_accuracy),
    ):
        print(f"{name} {format_percent(value)}")
    return 0


def _cmd_dump_matrix(args) -> int:
    config = resolve_config(args.config, _overrides_from_args(args))
    geometry = build_geometry(config.geometry)
    matrix = build_transmission_matrix(geometry, args.layer)
    dump_matrix_text(matrix, args.out)
    m = geometry.atoms_per_layer
    print(f"wrote {m}x{m} layer-{args.layer} transmission matrix to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simd2nn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic IQ scene (.simsc1)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=1600)
    p.add_argument("--width", type=int, default=1600)
    p.add_argument("--layout", choices=["half-split", "blobs"], default="half-split")
    p.add_argument("--ocean-sigma", type=float, default=0.3)
    p.add_argument("--land-sigma", type=float, default=1.0)
    p.add_argument("--texture", choices=["on", "off"], default="on")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("patch", help="cut a scene into a patch dataset (.simiq1)")
    p.add_argument("--in", required=True, dest="in")
    p.add_argument("--out", required=True)
    p.add_argument("--side", type=int, default=128)
    p.add_argument("--stride", type=int, default=32)
    p.set_defaults(func=_cmd_patch)

    p = sub.add_parser("train", help="offline training: fit phases on a patch sample")
    p.add_argument("--data", help="patch dataset (.simiq1); defaults to the config data block")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="deploy trained parameters over a dataset")
    p.add_argument("--params", required=True, help="trained parameter file (.simth1)")
    p.add_argument("--data", help="patch dataset (.simiq1); defaults to the config data block")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="full pipeline: data, train, eval, artifacts")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ablate", help="run the scenario grid and print the table")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("dump-matrix", help="dump one transmission matrix as text")
    p.add_argument("--out", required=True)
    p.add_argument("--layer", type=int, default=1)
    _add_config_overrides(p, training=False)
    p.set_defaults(func=_cmd_dump_matrix)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigurationError, FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
