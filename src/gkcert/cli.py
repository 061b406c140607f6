"""Command-line interface.

One subcommand per pipeline, exactly the keys of ``harness.PIPELINES``:

    gkcert <pipeline> [--config cfg.json] [--prime-bound N] [--out DIR] [--format csv|json]

The flags override the config file and pass the same ``RunConfig``
validation, so a bad flag, like a bad file, exits 1 with an ``error:`` line.
Exit code 0 means no invariant violation occurred; violations (bad
descriptors, exhausted search pools) also exit 1.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from functools import cache

from .errors import GkcertError
from .harness import PIPELINES, config_from_dict, run
from .schema import read_json


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gkcert",
        description=(
            "Exact-arithmetic certificates for the Gross-Kuz'min and "
            "Gross order-of-vanishing conjectures"
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PIPELINES:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="JSON run configuration", default=None)
        p.add_argument("--prime-bound", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), action="append", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig does nothing once the root logger has a handler, so the
    # level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log = logging.getLogger("gkcert")
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    overrides = {"pipelines": (args.command,)}
    if args.prime_bound is not None:
        # one bound for every pipeline: the search falls back to prime_bound
        overrides.update(prime_bound=args.prime_bound, search_prime_bound=None)
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.format:
        overrides["formats"] = tuple(dict.fromkeys(args.format))
    try:
        config = config_from_dict(read_json(args.config) if args.config else {})
        config = replace(config, **overrides)
    except (OSError, GkcertError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 1
    try:
        result = run(config)
    except GkcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in result.diagnostics:
        # a store repair changed a file on disk, so it shows without -v
        level = logging.WARNING if line.startswith("store: ") else logging.INFO
        log.log(level, "%s", line)
    for line in result.violations:
        print(f"violation: {line}", file=sys.stderr)
    for path in result.outputs:
        print(path)
    print(f"{len(result.rows)} report rows, {len(result.certificates)} certificates")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
