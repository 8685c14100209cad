"""CLI driver and report layer: exit codes, determinism, exports."""

import json

import pytest

from qborel import cli
from qborel.associator import closed_form_associator
from qborel.borel import build_borel
from qborel.double import build_double, grouplike, identify_generators
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
    code = cli.main(["verify", "--type", "A1", "--n", "5",
                     "--checks", "subalgebra-dimension,double-twist,r-matrix"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 passed, 0 failed, 2 skipped" in out
    assert "[SKIP] double-twist" in out


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--type", "E8", "--n", "3"])
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
    assert cli.main(args + ["--jobs", "3"]) == 0
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
            int(table[z, y])
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
        rebuilt[name] = dbl.element({
            (monomial_from_doc(dbl.algebra, t["dual"]),
             monomial_from_doc(dbl.algebra, t["algebra"])): scalar_from_doc(t["scalar"])
            for t in e["terms"]
        })
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
