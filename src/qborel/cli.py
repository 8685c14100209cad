"""Command-line driver: run verification suites and export structures.

    qborel verify --type A1 --n 3 [--checks all] [--seed 0]
                  [--format text|structured]
    qborel export --type A1 --n 3 --what twist --out twist.json

Exit codes: 0 all selected checks pass (skips allowed), 1 a mathematical
check failed, 2 parameter or usage error.  Structured reports with a
fixed seed are byte-identical across runs; wall times appear only in
the text format.

main(argv) returns the exit code and leaves the process running, for
callers in the same interpreter.  run() is the process entry of both
`qborel` and `python -m qborel.cli`: it ends the process after main().
"""

from __future__ import annotations

import argparse
import os
import sys

from .cartan import validate_params
from .report import (
    CHECK_ORDER,
    EXPORT_KINDS,
    ExportError,
    build_export_document,
    export_json,
    run_checks,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qborel",
        description="exact verification of the quantum Borel twist construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification checks")
    v.add_argument("--type", dest="cartan_type", required=True,
                   choices=["A1", "A2"], help="Cartan type")
    v.add_argument("--n", type=int, required=True, help="root-of-unity order n")
    v.add_argument("--checks", default="all",
                   help="comma-separated check names, or 'all'")
    v.add_argument("--seed", type=int, default=0, help="recorded in the report's parameters; no check reads it")
    v.add_argument("--format", dest="fmt", choices=["text", "structured"],
                   default="text")

    e = sub.add_parser("export", help="export exact structure constants")
    e.add_argument("--type", dest="cartan_type", required=True,
                   choices=["A1", "A2"])
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--what", required=True, choices=list(EXPORT_KINDS))
    e.add_argument("--out", required=True, help="output file path")
    return parser


def cmd_verify(args) -> int:
    violations = validate_params(args.cartan_type, args.n)
    if violations:
        for v in violations:
            print(f"parameter violation: {v}", file=sys.stderr)
        return 2
    if args.checks.strip() == "all":
        names = list(CHECK_ORDER)
    else:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in names if c not in CHECK_ORDER]
        if unknown:
            print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(CHECK_ORDER)}", file=sys.stderr)
            return 2
        if not names:
            print("no checks selected", file=sys.stderr)
            return 2
    report = run_checks(args.cartan_type, args.n, names, seed=args.seed)
    out = report.to_structured() if args.fmt == "structured" else report.to_text()
    sys.stdout.write(out)
    return 1 if report.failed else 0


def cmd_export(args) -> int:
    try:
        doc = build_export_document(args.cartan_type, args.n, args.what)
    except ExportError as exc:
        print(f"export error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(export_json(doc))
    print(f"wrote {args.what} for ({args.cartan_type}, n={args.n}) to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_export(args)


def run(argv=None):
    """main(argv), then end the process without tearing the interpreter down.

    The heap of a run is dropped when the process ends, so freeing it
    object by object first is wasted time.  os._exit skips that, and with
    it every buffer flush, so both streams are flushed here first.  A flush that raises, like an exception or a
    SystemExit out of main (argparse's usage errors), leaves through the
    normal exit path, never with status 0.
    """
    code = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
