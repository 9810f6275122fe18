"""Command-line surface: synth, patch, train, eval, run, ablate, dump-matrix.

Exit codes: 0 on success, 1 on configuration/format problems, 2 on runtime
failures; every error names the stage that raised it. Flags override
config-file values, which override built-in defaults. Each command runs the
stage functions of ``experiment``; this module parses flags and prints.
"""

import argparse
import logging
import sys

from .config import parser_for, resolve_config
from .data import SYNTH_LAYOUTS
from .errors import ConfigurationError, FormatError, SimError
from .experiment import (
    artifact_path,
    deploy,
    fit,
    format_ablation_table,
    load_trained,
    prepare_experiment,
    run_ablation_suite,
    run_experiment,
    stage,
    write_patches,
    write_scene,
)
from .geometry import build_geometry
from .metrics import format_percent
from .propagation import build_transmission_matrix, dump_matrix_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


# Override flags: flag -> ((section, key) it sets, help, accepted words).
# Argparse checks each value, with the key's schema parser as its type or
# against the accepted words, so a bad value gets argparse's usage message;
# the override then holds the schema parser's result.
_SEED_FLAG = {"--seed": (("experiment", "seed"), "master seed", None)}
_COMMON_FLAGS = {
    **_SEED_FLAG,
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
    "--data": (("data", "dataset"), "patch dataset (.simiq1); defaults to the config data block", None),
}
_SYNTH_FLAGS = {
    **_SEED_FLAG,
    "--height": (("data", "synth_height"), None, None),
    "--width": (("data", "synth_width"), None, None),
    "--layout": (("data", "synth_layout"), None, SYNTH_LAYOUTS),
    "--ocean-sigma": (("data", "ocean_sigma"), None, None),
    "--land-sigma": (("data", "land_sigma"), None, None),
    "--texture": (("data", "phase_texture"), None, ("on", "off")),
}
_PATCH_FLAGS = {
    "--in": (("data", "scene"), "scene to cut (.simsc1)", None),
    "--side": (("data", "patch_side"), None, None),
    "--stride": (("data", "stride"), None, None),
}
_MODEL_FLAGS = {**_COMMON_FLAGS, **_TRAINING_FLAGS}


def _overrides_from_args(args) -> dict:
    overrides = {}
    for flag, (key, _, _) in COMMANDS[args.command][2].items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            overrides[key] = parser_for(key)(value)
    return overrides


def _print_metrics(bundle) -> None:
    for name, value in bundle.summary():
        print(f"{name} {format_percent(value)}")


def _cmd_synth(config, args) -> int:
    h, w = write_scene(config, args.out).samples.shape
    print(f"wrote {h}x{w} {config.data.synth.layout} scene to {args.out}")
    return 0


def _cmd_patch(config, args) -> int:
    patches = write_patches(config, args.out)
    d = config.data
    print(f"wrote {len(patches)} patches (side {d.patch_side}, stride {d.stride}) to {args.out}")
    return 0


def _cmd_train(config, args) -> int:
    _, history, written = fit(config, prepare_experiment(config))
    last = history[-1]
    print(
        f"trained {config.model_kind} model for {last.epoch} epochs; "
        f"final train loss {last.loss:.4f}, accuracy {format_percent(last.accuracy)}"
    )
    print(f"wrote {' and '.join(written)}")
    return 0


def _cmd_eval(config, args) -> int:
    params = load_trained(config, args.params)
    bundle, written = deploy(config, prepare_experiment(config), params)
    skipped = "" if len(written) == 2 else " (no full patch grid; class map skipped)"
    print(f"wrote {' and '.join(written)}{skipped}")
    _print_metrics(bundle)
    return 0


def _cmd_run(config, args) -> int:
    _print_metrics(run_experiment(config))
    return 0


def _cmd_ablate(config, args) -> int:
    rows = run_ablation_suite(config)
    table = format_ablation_table(rows)
    with stage("write-artifacts"):
        table_path = artifact_path(config, "ablation.txt")
        with open(table_path, "w") as fh:
            fh.write(table)
    print(table, end="")
    print(f"wrote {table_path}")
    return 0 if all(r.error is None for r in rows) else 2


def _cmd_dump_matrix(config, args) -> int:
    with stage("configure"):
        geometry = build_geometry(config.geometry)
    with stage("write-artifacts"):
        dump_matrix_text(build_transmission_matrix(geometry), args.out)
    m = geometry.atoms_per_layer
    print(f"wrote {m}x{m} transmission matrix to {args.out}")
    return 0


# command -> (help, handler, override flags)
COMMANDS = {
    "synth": ("generate a synthetic IQ scene (.simsc1)", _cmd_synth, _SYNTH_FLAGS),
    "patch": ("cut a scene into a patch dataset (.simiq1)", _cmd_patch, _PATCH_FLAGS),
    "train": (
        "offline training: fit phases on a patch sample", _cmd_train, {**_DATA_FLAGS, **_MODEL_FLAGS}
    ),
    "eval": ("deploy trained parameters over a dataset", _cmd_eval, {**_DATA_FLAGS, **_MODEL_FLAGS}),
    "run": ("full pipeline: data, train, eval, artifacts", _cmd_run, _MODEL_FLAGS),
    "ablate": ("run the scenario grid and print the table", _cmd_ablate, _MODEL_FLAGS),
    "dump-matrix": (
        "dump the layer-to-layer transmission matrix as text", _cmd_dump_matrix, _COMMON_FLAGS
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simd2nn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name in ("synth", "patch", "dump-matrix"):
            p.add_argument("--out", required=True)
        if name == "eval":
            p.add_argument("--params", required=True, help="trained parameter file (.simth1)")
        if name not in ("synth", "patch"):
            p.add_argument("--config", help="config file (key = value under [section] headers)")
        for flag, (key, flag_help, words) in flags.items():
            type_ = None if words else parser_for(key)
            p.add_argument(flag, type=type_, choices=words, help=flag_help, required=flag == "--in")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with stage("configure"):
            config = resolve_config(getattr(args, "config", None), _overrides_from_args(args))
        return args.func(config, args)
    except (ConfigurationError, FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
