"""Command-line driver: run verification suites and export structures.

    qborel verify --type A1 --n 3 [--checks all] [--seed 0]
                  [--format text|structured]
    qborel export --type A1 --n 3 --what twist --out twist.json

Exit codes: 0 all selected checks pass (skips allowed), 1 a mathematical
check failed (for export, the proof obligation of a stage it builds,
named on stderr), 2 parameter or usage error (an --out that cannot be
written included, and a (type, n) beyond the budget of report.MAX_N, or
for export a document past report.EXPORT_MAX_ITEMS entries and
coefficient pairs).  export builds its stages before it opens --out, then
writes the document one entry at a time; a write that fails part way
removes the file, so no document cut short is left at --out.
Structured reports with a fixed seed are byte-identical across runs;
wall times appear only in the text format.

main(argv) returns the exit code and leaves the process running, for
callers in the same interpreter.  run() is the process entry of both
`qborel` and `python -m qborel.cli`: it ends the process after main().
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .borel import ParameterError
from .report import (
    CHECK_ORDER,
    EXPORT_KINDS,
    PROOF_FAILURES,
    ExportError,
    ScopeError,
    build_export_document,
    run_checks,
    write_export,
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
    names = None
    if args.checks.strip() != "all":
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not names:
            print("no checks selected", file=sys.stderr)
            return 2
    try:
        report = run_checks(args.cartan_type, args.n, names, seed=args.seed)
    except ParameterError as exc:
        for v in exc.violations:
            print(f"parameter violation: {v}", file=sys.stderr)
        return 2
    except ScopeError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # run_checks refuses unknown check names
        print(exc, file=sys.stderr)
        print(f"available: {', '.join(CHECK_ORDER)}", file=sys.stderr)
        return 2
    out = report.to_structured() if args.fmt == "structured" else report.to_text()
    sys.stdout.write(out)
    return 1 if report.failed else 0


def cmd_export(args) -> int:
    try:
        doc = build_export_document(args.cartan_type, args.n, args.what)
    except ExportError as exc:
        print(f"export error: {exc}", file=sys.stderr)
        return 2
    except PROOF_FAILURES as exc:
        print(f"export error: {exc}", file=sys.stderr)
        return 1
    fh = None
    try:
        fh = open(args.out, "w", encoding="utf-8")
        with fh:
            write_export(doc, fh)
    except OSError as exc:
        # a document cut short is no export: remove it, if --out was a
        # file that open() created or emptied
        if fh is not None and os.path.isfile(args.out):
            with contextlib.suppress(OSError):
                os.remove(args.out)
        print(f"export error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
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
