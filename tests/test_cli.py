"""CLI driver and report layer: exit codes, determinism, exports."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from qborel import cli
from qborel.borel import ParameterError, build_borel
from qborel.double import build_double, grouplike, identify_generators
from qborel.cartan import validate_params
from qborel.cocycle import CoboundaryDecision
from qborel.cyclotomic import cyc_field
from qborel.report import (
    CHECK_ORDER,
    CHECKS,
    EXPORT_MAX_ITEMS,
    MAX_N,
    ExportError,
    ScopeError,
    build_export_document,
    export_size,
    export_violations,
    run_checks,
    scope_violations,
    to_jsonable,
    write_export,
)
from qborel.twist import build_twist
from oracles import FlatCochain, from_delta, monomial_from_doc, scalar_from_doc
from test_corruptions import BY_ID, check_rows

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


@pytest.mark.parametrize("cartan_type, n, reason", [("A1", 4, "odd"), ("A2", 3, "gcd")])
def test_run_checks_refuses_inadmissible_parameters(cartan_type, n, reason, monkeypatch):
    # refused before any stage is built: the violation is not a failed check
    def forbidden(*args):
        raise AssertionError("a stage was built for inadmissible parameters")

    monkeypatch.setattr("qborel.report.build_borel", forbidden)
    with pytest.raises(ParameterError, match=reason):
        run_checks(cartan_type, n)


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


def test_repeated_check_runs_once(capsys):
    # each named check runs once, in the order its name first appears
    code = cli.main(["verify", "--type", "A1", "--n", "3", "--checks", "pentagon,pentagon",
                     "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and [e["check"] for e in doc["entries"]] == ["pentagon"]
    assert cli.main(["verify", "--type", "A1", "--n", "3", "--checks", "pentagon,pentagon"]) == 0
    assert "1 passed, 0 failed, 0 skipped" in capsys.readouterr().out
    rep = run_checks("A1", 3, ["presentation", "pentagon", "presentation"])
    assert [r.name for r in rep.results] == ["presentation", "pentagon"]


def test_run_checks_refuses_unknown_names_before_building(monkeypatch):
    _forbid_building(monkeypatch)
    with pytest.raises(ValueError, match="^unknown checks: bogus$") as err:
        run_checks("A1", 3, ["pentagon", "bogus"])
    assert type(err.value) is ValueError


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


# sha256 of the canonical associator export document (sorted keys,
# separators (",", ":")): the entries as they stood when the associator
# was held as a full table, pinned now that the export and coefficient
# both read the slices
ASSOCIATOR_EXPORT_DIGESTS = {
    ("A1", 3): "4bdc26c74f6779b1ce0746893074901e30fadd8e0204a4a55f3676d0b9412f64",
    ("A2", 5): "cfb07c29faea56c2c211cb50e80768d0036ccb0e45d270ac28281482420b981e",
}


def test_export_associator_roundtrip(tmp_path):
    out = tmp_path / "phi.json"
    assert cli.main(["export", "--type", "A1", "--n", "3",
                     "--what", "associator", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    entries = [e for e in doc["entries"] if e["kind"] == "associator-entry"]
    assert len(entries) == 27
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ASSOCIATOR_EXPORT_DIGESTS[("A1", 3)]
    q3_powers = {cyc_field(9).zeta_pow(k) for k in (0, 3, 6)}
    for e in entries:
        # every coefficient is a power of q^3
        assert scalar_from_doc(e["scalar"]) in q3_powers


# sha256 of the export files as written, whitespace included: the bytes of
# json.dumps(doc, sort_keys=True, indent=2) + "\n" of the whole document.
# (A2, 5) is checked by test_export_associator_digest_a2n5, so that its
# document is built once
EXPORT_FILE_DIGESTS = {
    ("A1", 3, "borel"): "0f603cf34026a4f2f72faf8142be3d7df1905eefef90823095d5aad63eeff39f",
    ("A1", 3, "subalgebra"): "89a1961484c3e3f025aa6db9a51cc3dc8e0c87f45d20d0ab74cc326458df947f",
    ("A1", 3, "twist"): "974fadb91090e9d741c5545192be1d940507a9781134e1c9ab0691f43bd40d48",
    ("A1", 3, "associator"): "3948f5dcd591082de7804243f74b52422566a9709b4c8aa1a67c7314fa964edb",
    ("A1", 3, "double-generators"):
        "cd6bc709e4ca34aac2ef53e882e384e7d4243cd2c3240aa9bf2e1848fc05356a",
    ("A1", 5, "double-generators"):
        "6ff292b9f8870c052c1cb75e9e0639968670fa146208d8fdb4d1615e1fa308b9",
    ("A2", 5, "associator"): "4bfa8a9efd8fedd56487eef69d7fc698e0c51d48b18539579ac0d9bc72614a19",
}


def _export_file(tmp_path, cartan_type, n, what) -> bytes:
    out = tmp_path / f"{what}.json"
    assert cli.main(["export", "--type", cartan_type, "--n", str(n),
                     "--what", what, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("case", [c for c in EXPORT_FILE_DIGESTS if c[0] == "A1"],
                         ids=lambda case: "-".join(map(str, case)))
def test_export_file_bytes_are_pinned(case, tmp_path):
    raw = _export_file(tmp_path, *case)
    assert hashlib.sha256(raw).hexdigest() == EXPORT_FILE_DIGESTS[case]
    # export_size is exact: the entries plus the coefficient pairs written
    entries = json.loads(raw)["entries"]
    assert len(entries) + _coefficient_pairs(entries) == export_size(*case)


def _coefficient_pairs(obj) -> int:
    if isinstance(obj, dict):
        return len(obj.get("coeffs", ())) + sum(map(_coefficient_pairs, obj.values()))
    if isinstance(obj, list):
        return sum(map(_coefficient_pairs, obj))
    return 0


def test_write_export_is_json_dumps():
    # one entry at a time, the bytes of one json.dumps of the whole
    # document, for no entries too
    for entries in ([], [{"kind": "k", "v": [1, {"s": "a\nb"}]}, {}]):
        doc = {"schema_version": 1, "parameters": {"n": 3, "what": "w"}, "entries": entries}
        fh = io.StringIO()
        write_export({**doc, "entries": iter(entries)}, fh)
        assert fh.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_export_associator_digest_a2n5(tmp_path):
    raw = _export_file(tmp_path, "A2", 5, "associator")
    assert hashlib.sha256(raw).hexdigest() == EXPORT_FILE_DIGESTS[("A2", 5, "associator")]
    doc = json.loads(raw)
    assert len(doc["entries"]) == 15625
    pairs = sum(len(e["scalar"]["coeffs"]) for e in doc["entries"])
    assert len(doc["entries"]) + pairs == export_size("A2", 5, "associator")
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ASSOCIATOR_EXPORT_DIGESTS[("A2", 5)]


def test_export_twist_roundtrip(tmp_path):
    out = tmp_path / "j.json"
    assert cli.main(["export", "--type", "A1", "--n", "3",
                     "--what", "twist", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    entries = [e for e in doc["entries"] if e["kind"] == "twist-entry"]
    assert len(entries) == 81
    hopf = build_borel("A1", 3)
    J = build_twist(hopf)
    for e in entries:
        z, y = e["z"][0], e["y"][0]
        # E(z, y) = z s(y), s(y) = -2 (y - y mod 3)
        assert J.tables[0][0][y] == -2 * (y - y % 3) % 9
        assert scalar_from_doc(e["scalar"]) == hopf.algebra.field.zeta_pow(z * J.tables[0][0][y])


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


def test_export_write_error_exits_2(capsys, tmp_path):
    # an --out that cannot be opened is a usage error, not a failed check
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        code = cli.main(["export", "--type", "A1", "--n", "3", "--what", "twist",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"export error: cannot write {out}: ")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []


def test_export_write_failing_part_way_leaves_no_file(capsys, tmp_path, monkeypatch):
    # a write that fails after --out was opened (a full disk) exits 2 and
    # removes the partial document, as well as any file it replaced
    def full_disk(doc, fh):
        fh.write('{\n  "entries": [')
        fh.flush()
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_export", full_disk)
    out = tmp_path / "twist.json"
    for existing in (False, True):
        if existing:
            out.write_text("an earlier export\n")
        code = cli.main(["export", "--type", "A1", "--n", "3", "--what", "twist",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"export error: cannot write {out}: No space left on device\n"
        assert list(tmp_path.iterdir()) == []


def test_export_gates(capsys, tmp_path, monkeypatch):
    # a refused or failed export exits before --out is opened: no file
    out = tmp_path / "x.json"
    assert cli.main(["export", "--type", "A2", "--n", "5",
                     "--what", "double-generators", "--out", str(out)]) == 2
    assert "A1" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["export", "--type", "A1", "--n", "7",
                     "--what", "double-generators", "--out", str(out)]) == 2
    assert "budget" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["export", "--type", "A2", "--n", "3",
                     "--what", "borel", "--out", str(out)]) == 2
    assert "gcd(n, det)=3" in capsys.readouterr().err
    assert not out.exists()

    def broken(hopf):
        raise ArithmeticError("twist premise fails: forced")

    # a stage whose proof obligation fails is a failed check: exit 1 with
    # its message, not a traceback
    monkeypatch.setattr("qborel.report.build_twist", broken)
    assert cli.main(["export", "--type", "A1", "--n", "3", "--what", "twist",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "export error: twist premise fails: forced\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_export_exits_one_when_the_generator_relations_fail(capsys, tmp_path):
    # the double's generator relations failing at "K inverse" (a row of
    # tests/test_corruptions.py) fail a proof obligation of a stage export
    # builds: exit 1, as verify does, the relation on stderr and no file
    row_id = "A1-3/generator relations/K inverse"
    check_rows(row_id)
    out = tmp_path / "gens.json"
    with BY_ID[row_id].corrupt():
        code = cli.main(["export", "--type", "A1", "--n", "3", "--what", "double-generators",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert cli.main(["verify", "--type", "A1", "--n", "3", "--checks", "double-twist"]) == 1
    assert code == 1
    assert err == "export error: generator validation failed: K inverse\n"
    assert not out.exists()


@pytest.mark.parametrize("n", [61, 65])
def test_verify_and_export_refuse_a2_beyond_budget(n, tmp_path):
    # (A2, 61) is admissible, but verify at A2 has been measured within the
    # budget only at n <= 59, and export builds the same stages: both
    # commands exit 2 at once, naming the budget, and write nothing
    out = tmp_path / "borel.json"
    for args in (["verify", "--type", "A2", "--n", str(n)],
                 ["export", "--type", "A2", "--n", str(n), "--what", "borel", "--out", str(out)]):
        t0 = time.monotonic()
        proc = _child(["-m", "qborel.cli", *args], capture_output=True, text=True)
        assert time.monotonic() - t0 < 1.0
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "budget of 60 s and 1 GB per run" in proc.stderr
    assert not out.exists()


def _forbid_building(monkeypatch):
    """Make building a stage or a cyclotomic field fail the test."""
    def forbidden(*args):
        raise AssertionError("built beyond the budget")

    monkeypatch.setattr("qborel.report.build_borel", forbidden)
    # every algebra, hence every stage, reads its field through this name
    monkeypatch.setattr("qborel.algebra.cyc_field", forbidden)


def test_scope_refusal_builds_nothing(monkeypatch):
    # refused before a stage or a cyclotomic field is built; validate_params
    # stays about admissibility
    _forbid_building(monkeypatch)
    assert validate_params("A2", 61) == validate_params("A2", 11) == []
    with pytest.raises(ScopeError, match="budget"):
        run_checks("A2", 61)
    # export refuses a document larger than its cap, at a scale verify runs
    with pytest.raises(ExportError, match="budget"):
        build_export_document("A2", 11, "twist")
    assert scope_violations("A2", 59) == scope_violations("A1", 11) == []
    assert export_violations("A2", 11, "borel") == export_violations("A2", 5, "associator") == []
    # the largest subalgebra documents the cap admits
    assert export_violations("A1", 95, "subalgebra") == export_violations("A2", 5, "subalgebra") == []


def test_verify_refuses_a1_beyond_max_n(monkeypatch):
    # MAX_N["A1"] is the largest n with 3x headroom on the 1 GB (n = 269
    # took 351 MB); the next admissible n exits 2 at once, naming the
    # budget, and builds no stage and no field
    n = MAX_N["A1"] + 2
    assert n == 269 and validate_params("A1", n) == [] and scope_violations("A1", n)
    t0 = time.monotonic()
    proc = _child(["-m", "qborel.cli", "verify", "--type", "A1", "--n", str(n)],
                  capture_output=True, text=True)
    assert time.monotonic() - t0 < 1.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "budget of 60 s and 1 GB per run" in proc.stderr
    _forbid_building(monkeypatch)
    with pytest.raises(ScopeError, match="budget"):
        run_checks("A1", n)


# documents larger than EXPORT_MAX_ITEMS: the twist at (A2, 5) and at
# (A1, 13), the associator at (A2, 7), and the subalgebra at (A2, 7) and at
# (A1, 97), the first A1 subalgebra past the cap
OVERSIZED_EXPORTS = [("A2", 5, "twist"), ("A1", 13, "twist"), ("A2", 7, "associator"),
                     ("A2", 7, "subalgebra"), ("A1", 97, "subalgebra")]


@pytest.mark.parametrize("cartan_type, n, what", OVERSIZED_EXPORTS)
def test_export_refuses_oversized_documents(cartan_type, n, what, tmp_path, monkeypatch):
    size = export_size(cartan_type, n, what)
    assert size > EXPORT_MAX_ITEMS
    out = tmp_path / "doc.json"
    t0 = time.monotonic()
    proc = _child(["-m", "qborel.cli", "export", "--type", cartan_type, "--n", str(n),
                   "--what", what, "--out", str(out)], capture_output=True, text=True)
    assert time.monotonic() - t0 < 1.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "budget of 60 s and 1 GB per run" in proc.stderr
    # the refusal names the document's size and the cap
    assert f"{size:,} entries and coefficient pairs" in proc.stderr
    assert f"above the cap of {EXPORT_MAX_ITEMS:,}" in proc.stderr
    assert not out.exists()
    _forbid_building(monkeypatch)
    with pytest.raises(ExportError, match="budget"):
        build_export_document(cartan_type, n, what)


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
    w = FlatCochain(3, 1, 2, list(range(9)))
    assert to_jsonable(w) == {"n": 3, "r": 1, "degree": 2, "cells": [0, 1, 2, 0, 1, 2, 0, 1, 2]}
    # no repr fallback: a type without an exact form is an error, not an address
    with pytest.raises(TypeError, match="object"):
        to_jsonable(object())


def test_forced_cocycle_failure_reports_its_witness_cells(monkeypatch, capsys):
    # a trivial decision fails cocycle-nontrivial with its witness cochain,
    # serialized by its cells, so the structured report is reproducible
    def trivial(w):
        return CoboundaryDecision(True, FlatCochain(3, 1, 2, [1, 2] * 4 + [0]), None)

    monkeypatch.setattr("qborel.report.decide_coboundary", trivial)
    args = ["verify", "--type", "A1", "--n", "3", "--checks", "cocycle-nontrivial",
            "--format", "structured"]
    assert cli.main(args) == 1
    first = capsys.readouterr().out
    assert cli.main(args) == 1
    assert capsys.readouterr().out == first
    entry, = json.loads(first)["entries"]
    assert entry["counterexample"] == {
        "witness": {"n": 3, "r": 1, "degree": 2, "cells": [1, 2, 1, 2, 1, 2, 1, 2, 0]}}


# sha256 of `qborel verify --type <type> --n <n> --checks all --format
# structured --seed 5` as printed; the reports must stay byte-identical when
# the arithmetic underneath them changes
VERIFY_DIGESTS = {
    ("A1", 3): "515d13dfb308e3f930c5058bd1b7ad0d4dda67ea2a646684c1f6977b26994a3c",
    ("A1", 5): "014bb84d27e3aad211513b9492e4ba628eb6bfef68449b6d035ed10e81b42cfd",
    ("A1", 7): "3cee45f4dcb509477cd16713008098f9a15863e7b7e11c95cbb4b0889a7fe6ad",
    ("A2", 5): "453604d6149d8c16d3dc4325cf34f065befd8ee5c41c445506326016ada86f6e",
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


def test_verify_validates_parameters_once(capsys, monkeypatch):
    # run_checks alone validates (type, n); the CLI prints each violation of
    # the ParameterError it raises on a line of its own and exits 2
    import qborel.report

    calls = []

    def counted(cartan_type, n):
        calls.append((cartan_type, n))
        return validate_params(cartan_type, n)

    monkeypatch.setattr(qborel.report, "validate_params", counted)
    assert cli.main(["verify", "--type", "A2", "--n", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parameter violation: n=6 must be odd\n"
                            "parameter violation: gcd(n, det)=3 for n=6, det=3: must be 1\n")
    assert calls == [("A2", 6)]


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
