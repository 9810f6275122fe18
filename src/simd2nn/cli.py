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
from .config import DataConfig, ExperimentConfig, SynthConfig, parser_for, resolve_config
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


# Override flags: flag -> ((section, key) it sets, help, accepted words).
# Argparse checks each value, with the key's schema parser as its type or
# against the accepted words, so a bad value gets argparse's usage message;
# the override then holds the schema parser's result.
_COMMON_FLAGS = {
    "--seed": (("experiment", "seed"), "master seed", None),
    "--out-dir": (("experiment", "out_dir"), "artifact directory", None),
    "--layers": (("geometry", "layers"), "trainable layer count", None),
    "--atoms-rows": (("geometry", "atoms_rows"), None, None),
    "--atoms-cols": (("geometry", "atoms_cols"), None, None),
    "--tx-power": (("channel", "tx_power_dbm"), "transmit power, dBm", None),
    "--link-distance": (("channel", "link_distance_m"), "downlink distance, m", None),
    "--model": (("experiment", "model"), None, ("sim", "digital")),
    "--phase-rotation": (("data", "phase_rotation"), "quadrature second input half", ("on", "off")),
}
_TRAINING_FLAGS = {
    "--epochs": (("training", "epochs"), None, None),
    "--batch": (("training", "batch"), None, None),
    "--lr": (("training", "lr"), None, None),
    "--sample-rate": (("training", "sample_rate"), None, None),
    "--train-noise": (("training", "train_noise"), None, ("on", "off")),
}
_DATA_FLAGS = {
    "--data": (
        ("data", "dataset"),
        "patch dataset (.simiq1); defaults to the config data block",
        None,
    ),
}
OVERRIDE_FLAGS = {**_COMMON_FLAGS, **_TRAINING_FLAGS, **_DATA_FLAGS}


def _add_flags(parser, flags: dict) -> None:
    for flag, (key, help_text, words) in flags.items():
        type_ = None if words else parser_for(key)
        parser.add_argument(flag, type=type_, choices=words, help=help_text)


def _add_config_overrides(parser, training=True):
    parser.add_argument("--config", help="config file (key = value under [section] headers)")
    _add_flags(parser, _COMMON_FLAGS)
    if training:
        _add_flags(parser, _TRAINING_FLAGS)


def _overrides_from_args(args) -> dict:
    overrides = {}
    for flag, (key, _, _) in OVERRIDE_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            overrides[key] = parser_for(key)(value)
    return overrides


def _print_metrics(bundle) -> None:
    for name, value in (
        ("precision", bundle.precision),
        ("recall", bundle.recall),
        ("f1", bundle.f1),
        ("overall accuracy", bundle.overall_accuracy),
    ):
        print(f"{name} {format_percent(value)}")


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
    with stage("params"):
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
    _print_metrics(bundle)
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
    _print_metrics(run_experiment(config).metrics)
    return 0


def _cmd_dump_matrix(args) -> int:
    config = resolve_config(args.config, _overrides_from_args(args))
    geometry = build_geometry(config.geometry)
    dump_matrix_text(build_transmission_matrix(geometry), args.out)
    m = geometry.atoms_per_layer
    print(f"wrote {m}x{m} transmission matrix to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simd2nn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth, data = SynthConfig(), DataConfig()
    p = sub.add_parser("synth", help="generate a synthetic IQ scene (.simsc1)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=ExperimentConfig().master_seed)
    p.add_argument("--height", type=int, default=synth.height)
    p.add_argument("--width", type=int, default=synth.width)
    p.add_argument("--layout", choices=["half-split", "blobs"], default=synth.layout)
    p.add_argument("--ocean-sigma", type=float, default=synth.ocean_sigma)
    p.add_argument("--land-sigma", type=float, default=synth.land_sigma)
    texture = "on" if synth.phase_texture else "off"
    p.add_argument("--texture", choices=["on", "off"], default=texture)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("patch", help="cut a scene into a patch dataset (.simiq1)")
    p.add_argument("--in", required=True, dest="in")
    p.add_argument("--out", required=True)
    p.add_argument("--side", type=int, default=data.patch_side)
    p.add_argument("--stride", type=int, default=data.stride)
    p.set_defaults(func=_cmd_patch)

    p = sub.add_parser("train", help="offline training: fit phases on a patch sample")
    _add_flags(p, _DATA_FLAGS)
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="deploy trained parameters over a dataset")
    p.add_argument("--params", required=True, help="trained parameter file (.simth1)")
    _add_flags(p, _DATA_FLAGS)
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="full pipeline: data, train, eval, artifacts")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ablate", help="run the scenario grid and print the table")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("dump-matrix", help="dump the layer-to-layer transmission matrix as text")
    p.add_argument("--out", required=True)
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
