"""Command-line front end.

    epcag <command> [--config PATH] [--mode homoclinic|heteroclinic]
                    [--out DIR] [--substeps N] [--tol X] [--window K]

example4 runs with no config at all; every other command takes its
system/driver description from a JSON config file. Flags override the
corresponding config values and are checked like them; --mode, like the
config's mode, belongs to example4 alone. Output lands in --out, else
$EPCAG_OUT_DIR, else the working directory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .errors import EpcagError, ValidationError
from .io import COMMANDS, MODES, check_mode, parse_config, parse_numeric, run


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="epcag",
        description="bounded solutions of piecewise-constant-argument systems "
                    "driven by discrete-map orbits",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", metavar="PATH", help="JSON run description")
    p.add_argument("--mode", choices=MODES, help="example4 scenario selector")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--substeps", type=int, metavar="N", help="grid substeps per interval")
    p.add_argument("--tol", type=float, metavar="X", help="solve tolerance")
    p.add_argument("--window", type=int, metavar="K", help="half-width of the node window")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.config is None and args.command != "example4":
        print(f"error: the {args.command} command needs --config", file=sys.stderr)
        return 1
    try:
        text = Path(args.config).read_text() if args.config is not None else '{"command": "example4"}'
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 1
    try:
        spec = parse_config(text)
        if spec.command != args.command:
            raise ValidationError(
                "command", f"config says {spec.command!r} but the command line says {args.command!r}"
            )
        flags = {"substeps": args.substeps, "tol": args.tol, "window": args.window}
        numeric = parse_numeric(asdict(spec.numeric) | {k: v for k, v in flags.items() if v is not None})
        spec = replace(spec, numeric=numeric)
        if args.mode is not None:
            check_mode(spec.command, args.mode)
            spec = replace(spec, mode=args.mode)
        if args.out is not None:
            spec = replace(spec, out_dir=args.out)
    except EpcagError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
