"""Batch command-line interface.

    eulerlab run --config experiment.json [--out DIR] [--seed N]
    eulerlab verify [--level quick|full] [--out DIR]

Exit codes: 0 all assertions pass, 1 compute or assertion failure,
2 invalid configuration.  EULERLAB_OUT sets the default output root.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import ComputeFailure, ConfigInvalid


def _build_parser():
    parser = argparse.ArgumentParser(prog="eulerlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"eulerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")

    ver_p = sub.add_parser("verify", help="run the acceptance battery")
    ver_p.add_argument("--level", choices=("quick", "full"), default="quick")
    ver_p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from . import runner

    if args.command == "run":
        try:
            cfg = runner.load_config(args.config, seed=args.seed)
        except ConfigInvalid as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            record = runner.run(cfg, out_dir=args.out)
        except ComputeFailure as exc:
            print(f"compute error: {exc}", file=sys.stderr)
            return 1
        for a in record.assertions:
            status = "ok" if a["passed"] else "FAIL"
            print(f"  assertion {a['name']}: {status} (value={a['value']})")
        print(f"wrote {len(record.files)} files to {record.out_dir}")
        return 0 if record.ok else 1

    from .acceptance import run_suite

    summary = run_suite(level=args.level, out_dir=args.out)
    return 0 if summary["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
