"""Command-line entry point.

Subcommands:

* ``contmon run CONFIG``       - run a configuration (or a run manifest, for
  byte-exact reruns) and write stats/manifest files.
* ``contmon preset NAME``      - run a bundled preset, optionally with
  ``--override dotted.path=value`` tweaks.
* ``contmon validate CONFIG``  - check a configuration and build its job as
  ``run`` would, listing every violation.
* ``contmon list-presets``     - print the preset catalog.

Exit codes: 0 success, 2 configuration error, 3 runtime physicality violation,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (
    ConfigError,
    load_config_or_manifest,
    parse_config,
    run_scenario,
)
from .ensemble import PhysicalityError
from .master_equation import StepSizeError
from .presets import get_preset, list_presets

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICALITY = 3
EXIT_IO = 4


def _apply_override(doc: dict, assignment: str) -> None:
    path, sep, raw_value = assignment.partition("=")
    if not sep:
        raise ConfigError([f"override {assignment!r} is not of the form path=value"])
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    keys = path.split(".")
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError([f"override path {path!r} does not address an object"])
    node[keys[-1]] = value


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", help="output directory (defaults to the config's)")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker threads (default: the document's run.threads; they pay for d >= 12 "
        "density matrices and Gaussian runs of several blocks, not for qubits or pure "
        "Kraus runs -- results are thread-count invariant either way)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contmon",
        description="Trajectory and feedback simulations of continuously monitored "
        "open quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configuration or manifest file")
    p_run.add_argument("config", help="path to a scenario config or run manifest (JSON)")
    _add_run_flags(p_run)

    p_preset = sub.add_parser("preset", help="run a bundled preset")
    p_preset.add_argument("name", help="preset name (see list-presets)")
    p_preset.add_argument(
        "--override", action="append", default=[], metavar="PATH=VALUE",
        help="override a config entry, e.g. run.n_traj=100 (JSON values)",
    )
    _add_run_flags(p_preset)

    p_val = sub.add_parser("validate", help="validate a configuration file")
    p_val.add_argument("config")

    sub.add_parser("list-presets", help="print the preset catalog")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            for name in list_presets():
                print(name)
            return EXIT_OK
        if args.command == "validate":
            text = Path(args.config).read_text()
            parse_config(text)
            print("configuration is valid")
            return EXIT_OK
        if args.command == "run":
            config = load_config_or_manifest(args.config)
        else:  # preset
            doc = get_preset(args.name)
            for assignment in args.override:
                _apply_override(doc, assignment)
            config = parse_config(json.dumps(doc))
        artifacts = run_scenario(config, out_dir=args.out_dir, threads=args.threads,
                                 seed=args.seed)
        print(f"stats:    {artifacts.stats_path}")
        print(f"manifest: {artifacts.manifest_path}")
        if artifacts.records_path:
            print(f"records:  {artifacts.records_path}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_CONFIG
    except (PhysicalityError, StepSizeError) as exc:
        print(f"physicality violation: {exc}", file=sys.stderr)
        return EXIT_PHYSICALITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
