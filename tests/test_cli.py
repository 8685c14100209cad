"""CLI driver and report layer: exit codes, determinism, exports."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from qborel import cli
from qborel.associator import closed_form_associator
from qborel.borel import build_borel
from qborel.double import build_double, from_delta, grouplike, identify_generators
from qborel.report import (
    CHECK_ORDER,
    CHECKS,
    monomial_from_doc,
    run_checks,
    scalar_from_doc,
    to_jsonable,
)
from qborel.twist import twist_exponent_table

FAST = "coproduct-support,subalgebra-dimension,presentation,pentagon"


def test_registry_is_total():
    assert set(CHECK_ORDER) == set(CHECKS)
    assert len(CHECK_ORDER) == 9


def test_run_checks_all_pass_small():
    rep = run_checks("A1", 3, ["coproduct-support", "subalgebra-dimension",
                               "pentagon", "quasi-coassociativity",
                               "presentation", "cocycle-nontrivial"])
    assert not rep.failed
    assert [r.status for r in rep.results] == ["pass"] * 6


def test_run_checks_reports_raised_proof_failure(monkeypatch):
    def broken(w):
        raise ArithmeticError("recovered witness must reproduce the cochain")

    monkeypatch.setattr("qborel.report.decide_coboundary", broken)
    rep = run_checks("A1", 3, ["cocycle-nontrivial"])
    assert rep.failed
    assert rep.results[0].counterexample == {"assertion": "recovered witness must reproduce the cochain"}


def test_verify_exit_zero(capsys):
    code = cli.main(["verify", "--type", "A1", "--n", "3", "--checks", FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 passed, 0 failed, 0 skipped" in out
    assert "parameters: type=A1 n=3 seed=0" in out


def test_verify_reports_skips_at_other_scales(capsys):
    code = cli.main(["verify", "--type", "A1", "--n", "7",
                     "--checks", "subalgebra-dimension,double-twist,r-matrix"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 passed, 0 failed, 2 skipped" in out
    assert "[SKIP] double-twist" in out
    assert "budget" in out


def test_verify_invalid_parameters(capsys):
    code = cli.main(["verify", "--type", "A2", "--n", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "gcd" in err


def test_verify_unknown_check(capsys):
    code = cli.main(["verify", "--type", "A1", "--n", "3",
                     "--checks", "lemma99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown checks" in err


def test_verify_usage_error():
    # an unknown Cartan type, and a flag verify does not take
    for extra in (["--type", "E8", "--n", "3"], ["--type", "A1", "--n", "3", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify"] + extra)
        assert exc.value.code == 2


def test_verify_math_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setitem(CHECKS, "presentation",
                        lambda ctx: ("fail", {}, {"forced": 1}))
    code = cli.main(["verify", "--type", "A1", "--n", "3",
                     "--checks", "presentation"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] presentation" in out
    assert "counterexample" in out


def test_failed_setup_stage_is_reported(monkeypatch, capsys):
    calls = []

    def broken(hopf):
        calls.append(hopf)
        raise ValueError("subalgebra not closed: forced")

    monkeypatch.setattr("qborel.report.build_subalgebra", broken)
    code = cli.main(["verify", "--type", "A1", "--n", "3", "--checks",
                     "subalgebra-dimension,pentagon,presentation", "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["schema_version"] == 1
    status = {e["check"]: e["status"] for e in doc["entries"]}
    # presentation reads ctx.sub; pentagon does not
    assert status == {"subalgebra-dimension": "fail", "pentagon": "pass", "presentation": "fail"}
    for e in doc["entries"]:
        if e["status"] == "fail":
            assert e["counterexample"] == {"assertion": "subalgebra not closed: forced"}
    # built once, during set-up, not again inside each check that needs it
    assert len(calls) == 1


def test_structured_output_deterministic(capsys):
    args = ["verify", "--type", "A1", "--n", "3", "--checks", FAST,
            "--seed", "7", "--format", "structured"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema_version"] == 1
    assert doc["parameters"] == {"type": "A1", "n": 3, "seed": 7}
    assert [e["check"] for e in doc["entries"]] == FAST.split(",")
    assert "wall" not in first
    assert "limitation" in doc


def test_text_output_has_wall_times(capsys):
    cli.main(["verify", "--type", "A1", "--n", "3", "--checks", "pentagon"])
    out = capsys.readouterr().out
    assert "s)" in out and "[PASS] pentagon" in out


def test_export_associator_roundtrip(tmp_path):
    out = tmp_path / "phi.json"
    assert cli.main(["export", "--type", "A1", "--n", "3",
                     "--what", "associator", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    entries = [e for e in doc["entries"] if e["kind"] == "associator-entry"]
    assert len(entries) == 27
    hopf = build_borel("A1", 3)
    assoc = closed_form_associator(hopf)
    for e in entries:
        got = scalar_from_doc(e["scalar"])
        want = assoc.coefficient(tuple(e["b"]), tuple(e["c"]), tuple(e["d"]))
        assert got == want
        # every coefficient is a power of q^3
        assert got.as_q_power() % 3 == 0


def test_export_twist_roundtrip(tmp_path):
    out = tmp_path / "j.json"
    assert cli.main(["export", "--type", "A1", "--n", "3",
                     "--what", "twist", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    entries = [e for e in doc["entries"] if e["kind"] == "twist-entry"]
    assert len(entries) == 81
    hopf = build_borel("A1", 3)
    table = twist_exponent_table(hopf)
    for e in entries:
        z, y = e["z"][0], e["y"][0]
        assert scalar_from_doc(e["scalar"]) == hopf.algebra.field.zeta_pow(
            table[z][y]
        )


def test_export_borel_roundtrip(tmp_path):
    out = tmp_path / "b.json"
    assert cli.main(["export", "--type", "A1", "--n", "3",
                     "--what", "borel", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    hopf = build_borel("A1", 3)
    A = hopf.algebra
    cop_doc, = [e for e in doc["entries"] if e["kind"] == "coproduct"]
    rebuilt = A.tensor(
        {
            (monomial_from_doc(A, t["slots"][0]), monomial_from_doc(A, t["slots"][1])):
            scalar_from_doc(t["scalar"])
            for t in cop_doc["terms"]
        },
        2,
    )
    assert rebuilt == hopf.coproduct(A.generator_e(0))


def test_export_subalgebra_counts(tmp_path):
    out = tmp_path / "aq.json"
    assert cli.main(["export", "--type", "A1", "--n", "3",
                     "--what", "subalgebra", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    monos = [e for e in doc["entries"] if e["kind"] == "basis-monomial"]
    assert len(monos) == 27
    assert all(e["monomial"]["group_exp"][0] % 3 == 0 for e in monos)


def test_export_double_generators_roundtrip(tmp_path):
    out = tmp_path / "d.json"
    assert cli.main(["export", "--type", "A1", "--n", "3",
                     "--what", "double-generators", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    by_name = {e["name"]: e for e in doc["entries"]
               if e["kind"] == "double-generator"}
    assert set(by_name) == {"E", "F", "K", "K_inv", "K_prime"}
    dbl = build_double(build_borel("A1", 3))
    rebuilt = {}
    for name, e in by_name.items():
        # the export is in the dual basis; elements live in character keys
        rebuilt[name] = dbl.element(from_delta(dbl, {
            (monomial_from_doc(dbl.algebra, t["dual"]),
             monomial_from_doc(dbl.algebra, t["algebra"])): scalar_from_doc(t["scalar"])
            for t in e["terms"]
        }))
    gens = identify_generators(dbl)
    for name in by_name:
        assert rebuilt[name] == gens[name]
    # re-imported elements reproduce multiplication
    q = dbl.field.zeta_pow(1)
    assert rebuilt["K"] * rebuilt["E"] == (rebuilt["E"] * rebuilt["K"]).scale(q * q)
    assert rebuilt["K"] * rebuilt["K_inv"] == dbl.unit()


def test_export_gates(capsys, tmp_path):
    out = str(tmp_path / "x.json")
    assert cli.main(["export", "--type", "A2", "--n", "5",
                     "--what", "double-generators", "--out", out]) == 2
    assert "A1" in capsys.readouterr().err
    assert cli.main(["export", "--type", "A1", "--n", "7",
                     "--what", "double-generators", "--out", out]) == 2
    assert "budget" in capsys.readouterr().err
    assert cli.main(["export", "--type", "A2", "--n", "3",
                     "--what", "borel", "--out", out]) == 2


def test_jsonable_covers_algebra_objects():
    dbl = build_double(build_borel("A1", 3))
    z = grouplike(dbl, 1, 2)
    doc = to_jsonable({"element": next(iter(z.terms)), "num": 3})
    assert doc["num"] == 3
    hopf = build_borel("A1", 3)
    e = hopf.algebra.generator_e(0)
    doc = to_jsonable(e)
    assert doc["terms"][0]["monomial"]["pbw_exp"] == [1]
    s = json.dumps(doc)
    assert "Fraction" not in s


# sha256 of `qborel verify --type <type> --n <n> --checks all --format
# structured --seed 5` as printed; the reports must stay byte-identical when
# the arithmetic underneath them changes
VERIFY_DIGESTS = {
    ("A1", 3): "1ccf5fae31d48f210fce1c2e08212a4e7aa3c42ae68ef2ad4f58bd46f7e260ac",
    ("A1", 5): "3f98278aae7b463761034d2861f02c090575b7863c5f7ab7ad371f2ec4210d70",
    ("A1", 7): "36d10110f464ba2cdd1ce80a208025ca93f327adfd7775a71c0fb29f017afbe5",
    ("A2", 5): "d62f347025385424b93ec93e725f0ff97208859e11666e3bb3440d839f0b8def",
}


def _digest_id(case):
    type_, n = case
    return str(n) if type_ == "A1" else f"{type_}-{n}"


@pytest.mark.parametrize("case", sorted(VERIFY_DIGESTS), ids=_digest_id)
def test_structured_verify_report_digest(capsys, case):
    type_, n = case
    code = cli.main(["verify", "--type", type_, "--n", str(n), "--checks", "all",
                     "--format", "structured", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[case]


# -- the process entry: run() ends the process with os._exit -------------

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
# without PYTHONUNBUFFERED, so the child's stdout is block-buffered as a
# user's is, and only run()'s flush brings its bytes out
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
CHILD_ENV["PYTHONPATH"] = SRC
PRESENTATION_COCYCLE = ["verify", "--type", "A1", "--n", "3", "--checks",
                        "presentation,cocycle-nontrivial", "--format", "structured"]


def _child(args, **kw):
    return subprocess.run([sys.executable, *args], env=CHILD_ENV, timeout=120, **kw)


def test_run_output_matches_main_on_pipe_and_file(capsys, tmp_path):
    assert cli.main(PRESENTATION_COCYCLE) == 0
    expected = capsys.readouterr().out.encode()
    piped = _child(["-m", "qborel.cli", *PRESENTATION_COCYCLE], capture_output=True)
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout == expected
    path = tmp_path / "report.json"
    with open(path, "wb") as fh:
        to_file = _child(["-m", "qborel.cli", *PRESENTATION_COCYCLE], stdout=fh)
    assert to_file.returncode == 0
    assert path.read_bytes() == expected


def test_run_parameter_violation_exits_two():
    proc = _child(["-m", "qborel.cli", "verify", "--type", "A1", "--n", "4"],
                  capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "parameter violation: n=4 must be odd" in proc.stderr


def test_run_math_failure_exits_one_with_complete_report():
    code = (
        "from qborel import cli, report\n"
        "report.CHECKS['presentation'] = lambda ctx: ('fail', {}, {'forced': 1})\n"
        f"cli.run({PRESENTATION_COCYCLE!r})\n"
    )
    proc = _child(["-c", code], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    status = {e["check"]: e["status"] for e in doc["entries"]}
    assert status == {"presentation": "fail", "cocycle-nontrivial": "pass"}
    assert proc.stdout.endswith("}\n")


def test_run_keeps_the_normal_exit_path_for_exceptions():
    code = (
        "from qborel import cli\n"
        "def broken(args):\n"
        "    raise RuntimeError('forced failure')\n"
        "cli.cmd_verify = broken\n"
        "cli.run(['verify', '--type', 'A1', '--n', '3'])\n"
    )
    proc = _child(["-c", code], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "RuntimeError: forced failure" in proc.stderr


def test_run_export_writes_the_in_process_document(tmp_path):
    inproc, child = tmp_path / "inproc.json", tmp_path / "child.json"
    args = ["export", "--type", "A1", "--n", "3", "--what", "twist", "--out"]
    assert cli.main(args + [str(inproc)]) == 0
    proc = _child(["-m", "qborel.cli", *args, str(child)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wrote twist for (A1, n=3)")
    assert json.loads(child.read_text()) == json.loads(inproc.read_text())
    assert child.read_bytes() == inproc.read_bytes()


class _Stream:
    """A stdout or stderr whose flush may fail."""

    def __init__(self, fail):
        self.fail, self.flushed = fail, False

    def write(self, text):
        return len(text)

    def flush(self):
        if self.fail:
            raise OSError(28, "No space left on device")
        self.flushed = True


@pytest.mark.parametrize("failing", ["stdout", "stderr"])
def test_run_never_exits_after_a_failed_flush(monkeypatch, failing):
    exits = []
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    for name in ("stdout", "stderr"):
        monkeypatch.setattr(sys, name, _Stream(name == failing))
    with pytest.raises(OSError):
        cli.run([])
    assert exits == []


def test_run_exits_with_mains_code_after_both_flushes(monkeypatch):
    exits = []
    out, err = _Stream(False), _Stream(False)

    def fake_exit(code):
        assert out.flushed and err.flushed
        exits.append(code)

    monkeypatch.setattr(cli.os, "_exit", fake_exit)
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    cli.run([])
    assert exits == [1]


def test_main_returns_without_ending_the_process(monkeypatch, capsys, tmp_path):
    def refuse(code):
        raise AssertionError(f"main called os._exit({code})")

    monkeypatch.setattr(cli.os, "_exit", refuse)
    assert cli.main(["verify", "--type", "A1", "--n", "3", "--checks", "presentation"]) == 0
    assert cli.main(["verify", "--type", "A1", "--n", "4"]) == 2
    assert cli.main(["export", "--type", "A1", "--n", "3", "--what", "twist",
                     "--out", str(tmp_path / "j.json")]) == 0


def test_verify_never_imports_fractions():
    # fractions would bring decimal and numbers with it: about 4.5 ms of
    # start-up; the scalar layer computes on int numerators instead
    code = (
        "import contextlib, io, sys\n"
        "from qborel import cli\n"
        "for n in ('3', '7'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['verify', '--type', 'A1', '--n', n, '--checks', 'all']) == 0\n"
        "    print(sorted(m for m in sys.modules if m in ('fractions', 'decimal')))\n"
    )
    proc = _child(["-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]
