#!/usr/bin/env python3
"""The qborel benchmark: the `qborel` CLI timed from outside, one fresh process per sample.

    python3 perfbench/run.py --workload verify-a1n3 --seed 1 --seconds 20 --trace 0

Run it from anywhere; it finds the checkout from its own path, runs the
program from the checkout's src/, and writes only under .perfbench_work/
in the checkout.  Each workload is a closed loop of one client: the next
process starts after the previous one exits.

--trace 0 reports the end-to-end metrics: wall_s (spawn to exit, median
over the invocations that fit in --seconds, at least two), setup_s
(median over the set-up probes that fit in a further quarter of
--seconds, at least one) and peak_rss_mb (median).
--trace 1 runs one untraced and one traced invocation and reports the
per-layer metrics of perfbench/traced_cli.py.

Every output is checked.  An invocation that exits non-zero, runs past
the workload's timeout or fails the check counts in "failed"; each run
also feeds the check a corrupted copy of one output, which it must
reject.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import copy
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

from traced_cli import DISTINCT_ARGS, TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 170.0  # a run must end within 180 s

CHECKS = (
    "coproduct-support",
    "associator-coboundary",
    "subalgebra-dimension",
    "pentagon",
    "quasi-coassociativity",
    "presentation",
    "cocycle-nontrivial",
    "double-twist",
    "r-matrix",
)
VERIFY = ("verify", "--checks", "all", "--format", "structured")

# "counts" pins values in the details of the verify report, where every key
# must appear, and in the set-up probe's output.  Timeouts are about three
# times the slowest invocation seen on a 2-CPU machine.  BENCHMARK.json lists
# only the workloads that fit its time budget and stay steady; see README.md.
WORKLOADS = {
    "verify-a1n3": {
        "argv": VERIFY + ("--type", "A1", "--n", "3"),
        "setup": ("A1", "3", "borel", "subalgebra", "twist", "associator",
                  "double", "generators"),
        "timeout_s": 60.0,
        "skipped": (),
        "counts": {"dim_borel": 81, "dim_subalgebra": 27, "term_count": 27,
                   "spanning_count": 81, "dimension": 6561,
                   "central_grouplikes": 9},
    },
    "verify-a2n5": {
        "argv": VERIFY + ("--type", "A2", "--n", "5"),
        "setup": ("A2", "5", "borel", "subalgebra", "twist", "associator"),
        "timeout_s": 80.0,
        "skipped": ("double-twist", "r-matrix"),
        "counts": {"dim_borel": 9765625, "dim_subalgebra": 390625,
                   "term_count": 15625, "spanning_count": 9765625},
    },
    "verify-a1n7": {
        "argv": VERIFY + ("--type", "A1", "--n", "7"),
        "setup": ("A1", "7", "borel", "subalgebra", "twist", "associator"),
        "timeout_s": 40.0,
        "skipped": ("double-twist", "r-matrix"),
        "counts": {"dim_borel": 2401, "dim_subalgebra": 343, "term_count": 343,
                   "spanning_count": 2401},
    },
    "export-a2n5": {
        "argv": ("export", "--type", "A2", "--n", "5", "--what", "associator"),
        "setup": ("A2", "5", "borel", "associator"),
        "timeout_s": 20.0,
        "counts": {"dim_borel": 9765625, "term_count": 15625},
        "entries": 15625,
        # sha256 of the parsed document dumped with sorted keys and separators
        # (",", ":"); whitespace in the written file is not pinned
        "sha256": "cfb07c29faea56c2c211cb50e80768d0036ccb0e45d270ac28281482420b981e",
    },
}


class CheckFailed(Exception):
    """An output that is not what the program must produce."""


def check_verify(doc, wl, seed):
    """Raise CheckFailed unless doc is the structured report this workload must print."""
    if doc.get("schema_version") != 1:
        raise CheckFailed(f"schema_version {doc.get('schema_version')!r}")
    want = {"type": wl["setup"][0], "n": int(wl["setup"][1]), "seed": seed}
    if doc.get("parameters") != want:
        raise CheckFailed(f"parameters {doc.get('parameters')!r}, expected {want!r}")
    entries = doc.get("entries", [])
    if [e.get("check") for e in entries] != list(CHECKS):
        raise CheckFailed(f"checks {[e.get('check') for e in entries]!r}")
    seen = set()
    for e in entries:
        status = "skip" if e["check"] in wl["skipped"] else "pass"
        if e.get("status") != status:
            raise CheckFailed(f"{e['check']}: status {e.get('status')!r}, expected {status!r}")
        for key, value in (e.get("details") or {}).items():
            if key in wl["counts"]:
                seen.add(key)
                if value != wl["counts"][key]:
                    raise CheckFailed(f"{e['check']}: {key} = {value!r}, expected {wl['counts'][key]!r}")
    if seen != set(wl["counts"]):
        raise CheckFailed(f"report lacks {sorted(set(wl['counts']) - seen)}")


def check_export(doc, wl):
    """Raise CheckFailed unless doc is the exported associator document."""
    if doc.get("schema_version") != 1:
        raise CheckFailed(f"schema_version {doc.get('schema_version')!r}")
    if len(doc.get("entries", ())) != wl["entries"]:
        raise CheckFailed(f"{len(doc.get('entries', ()))} entries, expected {wl['entries']}")
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(canonical).hexdigest()
    if digest != wl["sha256"]:
        raise CheckFailed(f"digest {digest}, expected {wl['sha256']}")


def corrupt(doc, is_export):
    """A copy of a correct output with one value changed, for the negative control."""
    if is_export:
        doc["entries"][0]["scalar"]["coeffs"][0][0] += 1
        return doc
    bad = copy.deepcopy(doc)
    flipped = [e for e in bad["entries"] if e["status"] == "pass"][-1]
    flipped["status"] = "fail"
    return bad


def spawn(args, stdout_path, timeout_s):
    """Run `python3 *args` to exit with src/ on the path.

    Returns (wall seconds from spawn to exit, peak RSS in MB, exit code or
    None if the process was killed at timeout_s).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, *args]
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        timed_out = False
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])

        def kill(signum, frame):
            nonlocal timed_out
            timed_out = True
            os.kill(pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
        reaped = False
        try:
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        wall = time.perf_counter() - t0
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, code


class Run:
    """One benchmark run of one workload: its samples, failures and negative control."""

    def __init__(self, name, seed, seconds):
        self.name = name
        self.wl = WORKLOADS[name]
        self.is_export = name.startswith("export")
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures = []
        self.control = None  # the check's verdict on a corrupted output, False if it passed
        self.passed_digest = None  # sha256 of the last output that passed the full check

    def remaining(self):
        return min(self.wl["timeout_s"], self.deadline - time.monotonic())

    def fail(self, what, reason):
        self.failures.append(f"{what}: {reason}")

    def cli_args(self, out_path):
        if self.is_export:
            return ["-m", "qborel.cli", *self.wl["argv"], "--out", str(out_path)]
        return ["-m", "qborel.cli", *self.wl["argv"], "--seed", str(self.seed)]

    def invoke(self, traced=False):
        """One CLI invocation, checked; returns (wall_s, peak_rss_mb, ok)."""
        self.attempted += 1
        stdout = self.dir / "stdout.txt"
        out_path = self.dir / "export.json"
        args = self.cli_args(out_path)
        if traced:
            args = [str(BENCH / "traced_cli.py"), str(self.dir / "trace.json"), *args[2:]]
        # a file left by an earlier run must not pass for this one's output
        for stale in (out_path, self.dir / "trace.json"):
            stale.unlink(missing_ok=True)
        wall, rss, code = spawn(args, stdout, self.remaining())
        what = "traced invocation" if traced else "invocation"
        if code != 0:
            self.fail(what, "timed out" if code is None else f"exit code {code}")
            return wall, rss, False
        try:
            raw = (out_path if self.is_export else stdout).read_bytes()
            out_path.unlink(missing_ok=True)
            # parsing and re-dumping a 20 MB export takes 0.7 s; an output
            # byte-identical to one that passed the full check passes too
            digest = hashlib.sha256(raw).digest()
            if digest == self.passed_digest:
                return wall, rss, True
            doc = json.loads(raw)
            self.check(doc)
            self.passed_digest = digest
        # a document of the wrong shape raises LookupError, TypeError or AttributeError
        except (OSError, ValueError, LookupError, TypeError, AttributeError, CheckFailed) as exc:
            self.fail(what, exc)
            return wall, rss, False
        if self.control is None:
            try:
                self.check(corrupt(doc, self.is_export))
            except CheckFailed as exc:
                self.control = f"rejected ({exc})"
            else:
                self.control = False
        return wall, rss, True

    def check(self, doc):
        if self.is_export:
            check_export(doc, self.wl)
        else:
            check_verify(doc, self.wl, self.seed)

    def setup(self):
        """One set-up probe, checked; returns its wall_s."""
        self.attempted += 1
        stdout = self.dir / "setup.txt"
        wall, _, code = spawn([str(BENCH / "setup_probe.py"), *self.wl["setup"]],
                              stdout, self.remaining())
        if code != 0:
            self.fail("set-up", "timed out" if code is None else f"exit code {code}")
            return wall
        try:
            counts = json.loads(stdout.read_text())
        except ValueError as exc:
            self.fail("set-up", exc)
            return wall
        wrong = {k: v for k, v in counts.items() if v != self.wl["counts"].get(k, True)}
        if wrong:
            self.fail("set-up", f"built {wrong!r}")
        return wall

    def repeat(self, sample, window, at_least):
        """Call sample() at least `at_least` times, and again while a call as
        long as the longest so far would still end within `window` seconds of
        the first call; never past the run's deadline.  Returns the results."""
        start = time.monotonic()
        results, longest = [], 0.0
        while True:
            t0 = time.monotonic()
            results.append(sample())
            now = time.monotonic()
            longest = max(longest, now - t0)
            end = now + longest
            if end > self.deadline or (len(results) >= at_least and end > start + window):
                return results

    def end_to_end(self):
        # two invocations at least: the machine's speed drifts by 10-20%
        # over tens of seconds, and one 15-20 s sample a run follows it
        samples = self.repeat(self.invoke, self.seconds, 2)
        good = [s for s in samples if s[2]] or samples
        setups = self.repeat(self.setup, self.seconds / 4, 1)
        walls = [s[0] for s in good]
        print(f"{self.name}: wall_s over {len(walls)} invocation(s): "
              f"{', '.join(f'{w:.3f}' for w in walls)}")
        print(f"{self.name}: setup_s over {len(setups)} probe(s): "
              f"{', '.join(f'{w:.3f}' for w in setups)}")
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(s[1] for s in good), "MB"),
        }

    def per_layer(self):
        plain_wall = self.invoke()[0]
        traced_wall, _, traced_ok = self.invoke(traced=True)
        try:
            trace = json.loads((self.dir / "trace.json").read_text())
        except (OSError, ValueError) as exc:
            if traced_ok:  # otherwise the failure is counted already
                self.fail("trace", exc)
            trace = {"functions": {}, "check_s": {}, "missing": [], "root_s": 0.0}
        if trace.get("missing"):
            print(f"not found, reported as 0: {', '.join(trace['missing'])}", file=sys.stderr)
        metrics = {}
        funcs = trace["functions"]
        for layer, fns in TARGETS.items():
            for short in fns:
                f = funcs.get(f"{layer}.{short}", {})
                metrics[f"{layer}.{short}.calls"] = (f.get("calls", 0), "count")
                metrics[f"{layer}.{short}.self_s"] = (f.get("self_s", 0.0), "s")
        for name in DISTINCT_ARGS:
            f = funcs.get(name, {})
            ratio = f["distinct"] / f["calls"] if f.get("calls") else 0.0
            metrics[f"{name}.distinct_ratio"] = (ratio, "ratio")
        metrics["algebra.tensor_multiply.peak_terms"] = (trace.get("peak_terms", 0), "count")
        metrics["report.export_json.bytes"] = (trace.get("export_bytes", 0), "B")
        for check in CHECKS:
            metrics[f"report.check.{check}.s"] = (trace["check_s"].get(check, 0.0), "s")
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        metrics["trace.uncovered_s"] = (traced_wall - trace["root_s"], "s")
        print(f"{self.name}: untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s, "
              f"{len(trace.get('spans', ()))} spans >= {trace.get('span_min_s')} s "
              f"in {self.dir / 'trace.json'}")
        return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qborel" / "cli.py").is_file():
        print(f"no qborel source at {SRC}", file=sys.stderr)
        return 2
    # users run an installed package with its bytecode already compiled
    compileall.compile_dir(str(SRC / "qborel"), quiet=1)

    run = Run(args.workload, args.seed, args.seconds)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    for reason in run.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"{args.workload}: negative control "
          f"{run.control or 'NOT rejected, or no good output to corrupt'}")
    correct = not run.failures and bool(run.control)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
