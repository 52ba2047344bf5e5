"""Command-line interface: formats, exit codes, determinism."""
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rbraid import (QQ, Algebra, Bimodule, QuotientSpace, RMatrixCertificate,
                    build_matrix_algebra, cli)
from rbraid.checks import CheckReport
from rbraid.cli import main
from conftest import unitriangular_basis

M2 = {"field": {"kind": "Q"}, "algebra": {"kind": "matrix", "n": 2}}
DUAL = {"field": {"kind": "Q"},
        "algebra": {"kind": "poly_quotient", "modulus": ["0", "0", "1"]}}
QUAT = {"field": {"kind": "Q"},
        "algebra": {"kind": "quaternion", "a": "-1", "b": "-1"}}
UPPER = {
    "field": {"kind": "Q"},
    "algebra": {
        "kind": "custom",
        "dim": 3,
        "unit": ["1", "0", "1"],
        "table": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
            [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]],
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
        ],
    },
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_matrix(tmp_path, capsys):
    path = write(tmp_path, "m2.json", M2)
    code, report = run(capsys, "solve", path)
    assert code == 0
    assert report["status"] == "unique"
    cert = report["payload"]["certificate"]
    assert len(cert["r"]["coeffs"]) == 8
    assert all(e["value"] == "1" for e in cert["r"]["coeffs"])
    assert cert["solver"]["solution_dim"] == 0
    assert len(report["input_sha256"]) == 64


def test_solve_dense_basis_fixture(capsys):
    # the input of CI's dense-basis smoke step: M2/Q in a unitriangular
    # basis, with a four-term unit and basis products of up to four terms
    path = Path(__file__).parent / "data" / "m2_unitriangular.json"
    A = cli.build_algebra_from_spec(json.loads(path.read_text()))
    assert A.same_as(unitriangular_basis(build_matrix_algebra(2, QQ), 3))
    code, report = run(capsys, "solve", str(path))
    assert code == 0
    assert report["status"] == "unique"


def test_solve_infeasible_exit_one(tmp_path, capsys):
    path = write(tmp_path, "dual.json", DUAL)
    code, report = run(capsys, "solve", path)
    assert code == 1
    assert report["status"] == "infeasible"


def test_classify_consistent(tmp_path, capsys):
    path = write(tmp_path, "quat.json", QUAT)
    code, report = run(capsys, "classify", path)
    assert code == 0
    assert report["status"] == "consistent"
    assert report["payload"]["rmatrix_exists"] is True


def test_validate_custom_table(tmp_path, capsys):
    path = write(tmp_path, "upper.json", UPPER)
    code, report = run(capsys, "validate", path)
    assert code == 0
    assert report["payload"]["dim"] == 3
    code, report = run(capsys, "classify", path)
    assert code == 0
    assert report["payload"]["rmatrix_exists"] is False
    assert report["payload"]["center_dim"] == 1


def test_validate_broken_table_exit_one(tmp_path, capsys):
    bad = json.loads(json.dumps(UPPER))
    bad["algebra"]["table"][0][0] = ["1", "1", "0"]
    path = write(tmp_path, "bad.json", bad)
    code, report = run(capsys, "validate", path)
    assert code == 1
    assert report["status"] == "invalid"


def test_round_trip_solve_verify(tmp_path, capsys):
    apath = write(tmp_path, "m2.json", M2)
    out = str(tmp_path / "solved.json")
    assert main(["solve", apath, "--out", out]) == 0
    capsys.readouterr()
    code, report = run(capsys, "verify", apath, out)
    assert code == 0
    assert report["status"] == "pass"
    assert all(v is True for v in report["payload"]["checks"].values())


def test_verify_raw_tensor_file(tmp_path, capsys):
    apath = write(tmp_path, "m2.json", M2)
    code, report = run(capsys, "solve", apath)
    tensor = report["payload"]["certificate"]["r"]
    rpath = write(tmp_path, "r.json", tensor)
    code, report = run(capsys, "verify", apath, rpath)
    assert code == 0 and report["status"] == "pass"


def test_verify_wrong_tensor_fails(tmp_path, capsys):
    apath = write(tmp_path, "m2.json", M2)
    rpath = write(
        tmp_path, "bad_r.json",
        {"arity": 3, "coeffs": [{"monomial": [0, 0, 0], "value": "1"}]},
    )
    code, report = run(capsys, "verify", apath, rpath)
    assert code == 1
    assert report["status"] == "fail"
    assert report["payload"]["checks"]["c1"] is not True


@pytest.mark.parametrize("tensor", [
    {"arity": 3, "coeffs": [{"monomial": 5, "value": "1"}]},
    {"arity": 3, "coeffs": [{"monomial": [0, 0, 0]}]},
    {"arity": 3, "coeffs": "xx"},
    {"arity": 3, "coeffs": [[0, 0, 0]]},
    {"arity": 3, "coeffs": [{"monomial": [0, 0], "value": "1"}]},
    {"arity": 3, "coeffs": [{"monomial": [0, 0, 4], "value": "1"}]},
    {"arity": 3, "coeffs": [{"monomial": [True, 0, 0], "value": "1"}]},
    {"arity": 3, "coeffs": [{"monomial": [0.0, 0, 0], "value": "1"}]},
    {"arity": 3, "coeffs": [{"monomial": [0, 0, 0], "value": 1}]},
    {"arity": 3, "coeffs": [{"monomial": [0, 0, 0], "value": "x"}]},
    {"arity": 3, "coeffs": [{"monomial": [0, 0, 0], "value": "1/0"}]},
    {"arity": 4, "coeffs": [{"monomial": [0, 0, 0, 0], "value": "1"}]},
    {"arity": True, "coeffs": []},
    {"arity": "3", "coeffs": []},
])
def test_verify_malformed_tensor_exit_two(tmp_path, capsys, tensor):
    apath = write(tmp_path, "m2.json", M2)
    rpath = write(tmp_path, "bad_r.json", tensor)
    code, report = run(capsys, "verify", apath, rpath)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"].startswith(("tensor:", "R-matrix tensor:"))


BIG = "9" * 5000  # json.dumps cannot print an int this long, so files hold the text
M2_TEXT = json.dumps(M2)


@pytest.mark.parametrize("command, spec, tensor", [
    ("validate", '{"field": {"kind": "Q"}, "algebra": {"kind": "matrix", "n": %s}}' % BIG, None),
    ("verify", M2_TEXT, '{"arity": 3, "coeffs": [{"monomial": [0, 0, %s], "value": "1"}]}' % BIG),
    ("verify", M2_TEXT, '{"arity": 3, "coeffs": [{"monomial": [0, 0, 0], "value": "%s"}]}' % BIG),
], ids=["spec-int", "monomial-int", "value-string"])
def test_oversized_integer_literal_exit_two(tmp_path, capsys, command, spec, tensor):
    # int() refuses literals of over 4300 digits with a ValueError
    (tmp_path / "spec.json").write_text(spec)
    argv = [command, str(tmp_path / "spec.json")]
    if tensor is not None:
        (tmp_path / "r.json").write_text(tensor)
        argv.append(str(tmp_path / "r.json"))
    code, report = run(capsys, *argv)
    assert code == 2 and report["status"] == "error"
    assert "4300" in report["error"]


def test_modulus_above_primality_bound_exit_two(tmp_path, capsys):
    path = write(tmp_path, "big.json", {
        "field": {"kind": "GF", "p": 3317044064679887385961981 + 2},
        "algebra": {"kind": "matrix", "n": 2},
    })
    code, report = run(capsys, "validate", path)
    assert code == 2
    assert "bound" in report["error"]


def nested_opposites(levels):
    algebra = {"kind": "matrix", "n": 1}
    for _ in range(levels):
        algebra = {"kind": "opposite", "of": algebra}
    return {"field": {"kind": "Q"}, "algebra": algebra}


def test_deep_nesting_exit_two(tmp_path, capsys):
    # 3000 levels are too deep for json.loads itself; 65 pass the decoder
    # and stop at the nesting check before the builder recurses
    path = tmp_path / "deep.json"
    path.write_text('{"field": {"kind": "Q"}, "algebra": '
                    + '{"kind": "opposite", "of": ' * 3000
                    + '{"kind": "matrix", "n": 1}' + "}" * 3001)
    code, report = run(capsys, "validate", str(path))
    assert code == 2 and report["status"] == "error"
    assert "nested too deeply" in report["error"]
    code, report = run(capsys, "validate", write(tmp_path, "d65.json", nested_opposites(65)))
    assert code == 2 and "nested deeper than 64" in report["error"]
    code, report = run(capsys, "validate", write(tmp_path, "d64.json", nested_opposites(64)))
    assert code == 0 and report["status"] == "valid"


@pytest.mark.parametrize("algebra", [
    {"kind": "matrix", "n": 2.9},
    {"kind": "matrix", "n": True},
    {"kind": "matrix", "n": "2"},
    {"kind": "custom", "dim": 1.0, "unit": ["1"], "table": [[["1"]]]},
    {"kind": "custom", "dim": True, "unit": ["1"], "table": [[["1"]]]},
    {"kind": "custom", "dim": "1", "unit": ["1"], "table": [[["1"]]]},
])
def test_non_integer_sizes_exit_two(tmp_path, capsys, algebra):
    path = write(tmp_path, "loose.json", {"field": {"kind": "Q"}, "algebra": algebra})
    code, report = run(capsys, "validate", path)
    assert code == 2 and report["status"] == "error"
    assert "expected an integer" in report["error"]


@pytest.mark.parametrize("p", [True, 7.0, "7"])
def test_non_integer_modulus_exit_two(tmp_path, capsys, p):
    path = write(tmp_path, "gf.json", {"field": {"kind": "GF", "p": p},
                                       "algebra": {"kind": "matrix", "n": 1}})
    code, report = run(capsys, "validate", path)
    assert code == 2 and report["error"] == f"bad GF modulus {p!r}"


@pytest.mark.parametrize("rank", ["free:+2", "free: 2", "free:2_0", "free:2.0", "free:"])
def test_loose_free_rank_exit_two(tmp_path, capsys, rank):
    path = write(tmp_path, "m2.json", M2)
    code, report = run(capsys, "ybe", path, "--bimodule", rank)
    assert code == 2
    assert report["error"] == f"bad free rank in {rank!r}"


OVERSIZED = [
    {"kind": "matrix", "n": 9},
    {"kind": "matrix", "n": 10 ** 40},
    {"kind": "poly_quotient", "modulus": ["0"] * 65 + ["1"]},
    {"kind": "custom", "dim": 65, "unit": [], "table": []},
    {"kind": "tensor", "left": {"kind": "matrix", "n": 5},
     "right": {"kind": "quaternion", "a": "1", "b": "1"}},
    {"kind": "direct_sum", "left": {"kind": "matrix", "n": 8},
     "right": {"kind": "matrix", "n": 1}},
    {"kind": "opposite", "of": {"kind": "matrix", "n": 9}},
    {"kind": "tensor", "left": {"kind": "group"}, "right": {"kind": "matrix", "n": 9}},
]


def refuse(*args, **kwargs):
    raise AssertionError("builder called")


def refuse_to_build(monkeypatch):
    for name in ["Algebra", "build_matrix_algebra", "build_quaternion",
                 "build_poly_quotient", "build_tensor_product", "build_direct_sum",
                 "opposite", "free_bimodule"]:
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("algebra", OVERSIZED)
@pytest.mark.parametrize("command", [["validate"], ["solve", "--force"], ["classify"]])
def test_oversized_spec_rejected_before_building(tmp_path, capsys, monkeypatch,
                                                 algebra, command):
    refuse_to_build(monkeypatch)
    path = write(tmp_path, "big.json", {"field": {"kind": "Q"}, "algebra": algebra})
    code, report = run(capsys, command[0], path, *command[1:])
    assert code == 2 and report["status"] == "error"
    assert "exceeds the build limit 64" in report["error"]


def test_build_limit_boundary():
    assert cli._spec_dim({"kind": "matrix", "n": 8}, "algebra", 0) == cli.MAX_BUILD_DIM
    assert cli._spec_dim({"kind": "tensor", "left": {"kind": "matrix", "n": 4},
                          "right": {"kind": "quaternion"}}, "algebra", 0) == 64
    # malformed specs are left to the builder and its messages
    assert cli._spec_dim({"kind": "matrix", "n": -9}, "algebra", 0) is None
    assert cli._spec_dim({"kind": "tensor", "left": 5,
                          "right": {"kind": "matrix", "n": 2}}, "algebra", 0) is None


@pytest.mark.parametrize("rank", ["free:17", "free:" + "9" * 5000], ids=["17", "5000-digits"])
def test_oversized_free_rank_rejected_before_building(tmp_path, capsys, monkeypatch, rank):
    path = write(tmp_path, "m2.json", M2)
    monkeypatch.setattr(cli, "free_bimodule", refuse)
    code, report = run(capsys, "audit", path, "--triple", f"regular,regular,{rank}")
    assert code == 2 and report["status"] == "error"
    assert "exceeds the build limit 64" in report["error"]
    code, report = run(capsys, "ybe", path, "--bimodule", rank)
    assert code == 2 and "exceeds the build limit 64" in report["error"]


def test_free_rank_with_leading_zeros(tmp_path, capsys):
    path = write(tmp_path, "m2.json", M2)
    code, report = run(capsys, "ybe", path, "--bimodule", "free:" + "0" * 5000 + "2")
    assert code == 0 and report["payload"]["dim"] == 8


M3 = {"field": {"kind": "Q"}, "algebra": {"kind": "matrix", "n": 3}}


@pytest.mark.parametrize("command", [[], ["--force"]])
def test_oversized_square_rejected_before_building(tmp_path, capsys, monkeypatch, command):
    # the square bimodule of M3 has dim 81 > 64: refused even with --force,
    # before the solve and before any bimodule is built
    path = write(tmp_path, "m3.json", M3)
    for name in ["solve_rmatrix", "square_bimodule", "regular_bimodule", "free_bimodule"]:
        monkeypatch.setattr(cli, name, refuse)
    code, report = run(capsys, "audit", path, "--triple", "square,square,square", *command)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == "square bimodule: dim 81 exceeds the build limit 64"
    code, report = run(capsys, "ybe", path, "--bimodule", "square", *command)
    assert code == 2 and "dim 81 exceeds the build limit 64" in report["error"]


def stub_audit(monkeypatch):
    """Bimodule builders and the audit replaced by stubs: (names built)."""
    built = []
    for name in ["square_bimodule", "regular_bimodule", "free_bimodule"]:
        monkeypatch.setattr(cli, name, lambda A, *rest, name=name: built.append(name) or name)
    monkeypatch.setattr(cli, "audit_braiding", lambda cert, M, N, P: CheckReport([]))
    return built


def test_audit_limit_needs_force(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "m2.json", M2)
    built = stub_audit(monkeypatch)
    # 64 * 16 * 16 > 4096: refused before the solve unless --force is given
    monkeypatch.setattr(cli, "solve_rmatrix", refuse)
    code, report = run(capsys, "audit", path, "--triple", "free:16,square,square")
    assert code == 2 and report["status"] == "error"
    assert report["error"] == ("bimodule dims 64x16x16 = 16384 exceed the audit limit 4096 "
                               "(lift with --force)")
    assert built == []
    monkeypatch.undo()
    built = stub_audit(monkeypatch)
    code, report = run(capsys, "audit", path, "--triple", "free:16,square,square", "--force")
    assert code == 0 and built == ["free_bimodule", "square_bimodule", "square_bimodule"]
    # the square bimodule of a dimension-4 algebra, cubed, is at the limit
    path = write(tmp_path, "quat.json", QUAT)
    code, report = run(capsys, "audit", path, "--triple", "square,square,square")
    assert code == 0 and report["status"] == "pass"


NATURALITY_REFUSED = {
    "M4": {"kind": "matrix", "n": 4},
    "HxH": {"kind": "tensor", "left": QUAT["algebra"], "right": QUAT["algebra"]},
    "M2xH": {"kind": "tensor", "left": M2["algebra"], "right": QUAT["algebra"]},
    "M3+k": {"kind": "direct_sum", "left": M3["algebra"], "right": {"kind": "matrix", "n": 1}},
}


@pytest.mark.parametrize("name", sorted(NATURALITY_REFUSED))
def test_audit_naturality_limit_needs_force(tmp_path, capsys, monkeypatch, name):
    # naturality works on (dim A)^3, which the product of the triple does
    # not count: the default regular^3 triple of a dimension-16 algebra is
    # 4096, at the triple limit, and that of M3 (+) k is 1000, but 16^3 =
    # 4096 and 10^3 = 1000 are refused before the solve unless --force is
    # given
    algebra = NATURALITY_REFUSED[name]
    path = write(tmp_path, "a.json", {"field": {"kind": "Q"}, "algebra": algebra})
    built = stub_audit(monkeypatch)
    monkeypatch.setattr(cli, "solve_rmatrix", refuse)
    code, report = run(capsys, "audit", path)
    assert code == 2 and report["status"] == "error"
    cube = 1000 if name == "M3+k" else 4096
    assert report["error"] == (f"naturality works on (dim A)^3 = {cube}, over the audit limit "
                               "729 (lift with --force)")
    assert built == []
    monkeypatch.undo()
    built = stub_audit(monkeypatch)
    code, report = run(capsys, "audit", path, "--force")
    if name == "M3+k":
        # past the limit, the solve finds no R-matrix: the center of
        # M3 (+) k is two-dimensional
        assert code == 1 and report["status"] == "infeasible" and built == []
    else:
        assert code == 0 and built == ["regular_bimodule"] * 3


def test_audit_naturality_limit_admits_m3(tmp_path, capsys):
    # M3's 9^3 = 729 is at the limit: its regular^3 audit still runs and
    # passes every check
    path = write(tmp_path, "m3.json", M3)
    code, report = run(capsys, "audit", path)
    assert code == 0 and report["status"] == "pass"
    assert all(v is True for v in report["payload"]["checks"].values())


@pytest.mark.parametrize("algebra, message", [
    ({"kind": "poly_quotient", "modulus": 1.5},
     "algebra.modulus: expected the coefficients of a monic polynomial of degree >= 1, got 1.5"),
    ({"kind": "poly_quotient", "modulus": ["1"]},
     "algebra.modulus: expected the coefficients of a monic polynomial of degree >= 1, "
     "got ['1']"),
    ({"kind": "poly_quotient", "modulus": ["1", "x"]}, "algebra.modulus: bad scalar literal 'x'"),
    ({"kind": "matrix", "n": 0}, "algebra.n: expected an integer >= 1, got 0"),
    ({"kind": "tensor", "left": {"kind": "matrix", "n": 2}, "right": {"kind": "matrix", "n": -1}},
     "algebra.right.n: expected an integer >= 1, got -1"),
    ({"kind": "custom", "dim": 0, "unit": [], "table": []},
     "algebra.dim: expected an integer >= 1, got 0"),
    ({"kind": "quaternion", "a": "1/0", "b": "1"}, "algebra.a: division by zero in Q"),
])
def test_input_errors_name_their_key(tmp_path, capsys, algebra, message):
    path = write(tmp_path, "bad.json", {"field": {"kind": "Q"}, "algebra": algebra})
    code, report = run(capsys, "validate", path)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == message


STRING_ROWS = [["10", "01"], ["01", "00"]]


@pytest.mark.parametrize("unit, table, message", [
    ("10", STRING_ROWS, "algebra.unit: expected a list, got str"),
    (["1", "0"], STRING_ROWS, "algebra.table[0][0]: expected a list, got str"),
    (["1", "0"], {"a": [["1", "0"], ["0", "1"]], "b": [["0", "1"], ["0", "0"]]},
     "algebra.table: expected a list, got dict"),
    (["1", "0"], [[["1", "0"], ["0", "1"]], [["0", "1"], {"0": "0", "1": "0"}]],
     "algebra.table[1][1]: expected a list, got dict"),
], ids=["string-unit", "string-rows", "object-table", "object-row"])
def test_custom_needs_lists(tmp_path, capsys, unit, table, message):
    # a string would be read character by character and an object key by
    # key, so "10" once passed as the unit (1, 0)
    path = write(tmp_path, "bad.json", {"field": {"kind": "Q"}, "algebra": {
        "kind": "custom", "dim": 2, "unit": unit, "table": table}})
    code = main(["validate", path])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["status"] == "error" and report["error"] == message


def _with_scalar(key, value):
    """A spec whose one scalar in `key` is the JSON value `value`."""
    if key in ("a", "b"):
        algebra = {"kind": "quaternion", "a": "-1", "b": "-1", key: value}
    elif key == "modulus":
        algebra = {"kind": "poly_quotient", "modulus": [value, "0", "1"]}
    else:
        algebra = {"kind": "custom", "dim": 1, "unit": ["1"], "table": [[["1"]]]}
        if key == "unit":
            algebra["unit"] = [value]
        else:
            algebra["table"] = [[[value]]]
    return {"field": {"kind": "Q"}, "algebra": algebra}


@pytest.mark.parametrize("key", ["a", "b", "modulus", "unit", "table"])
@pytest.mark.parametrize("value", [-1, True, None, ["1"]], ids=["number", "true", "null", "list"])
def test_non_string_scalar_exit_two(tmp_path, capsys, key, value):
    # scalars travel as strings; a JSON number, boolean, null or list in
    # a scalar slot is an input error that names its key
    path = write(tmp_path, "bad.json", _with_scalar(key, value))
    code, report = run(capsys, "validate", path)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == f"algebra.{key}: expected a scalar string, got {value!r}"

def test_error_message_formats(tmp_path, capsys):
    # input errors print their message alone, other errors lead with the type
    path = write(tmp_path, "m2.json", M2)
    code, report = run(capsys, "ybe", path, "--bimodule", "free:0")
    assert code == 2
    assert report["error"] == "bad free rank in 'free:0': must be >= 1"
    singular = write(tmp_path, "singular.json", {"field": {"kind": "Q"}, "algebra": {
        "kind": "quaternion", "a": "0", "b": "-1"}})
    code, report = run(capsys, "validate", singular)
    assert code == 2
    assert report["error"] == "NonInvertibleParameter: a=0, b=-1"
    code, report = run(capsys, "ybe", path, "--bimodule", "cube")
    assert code == 2
    assert report["error"] == "unknown bimodule 'cube'; use regular, square or free:<d>"


def test_reports_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "quat.json", QUAT)
    code1, _ = 0, None
    main(["solve", path])
    first = capsys.readouterr().out
    main(["solve", path])
    second = capsys.readouterr().out

    def strip_timing(text):
        obj = json.loads(text)
        obj.pop("timing_ms")
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    assert strip_timing(first) == strip_timing(second)
    # keys are sorted in the canonical output
    obj = json.loads(first)
    assert list(obj) == sorted(obj)


def test_pretty_flag(tmp_path, capsys):
    path = write(tmp_path, "m2.json", M2)
    code, _ = run(capsys, "validate", path, "--pretty")
    assert code == 0
    main(["validate", path, "--pretty"])
    out = capsys.readouterr().out
    assert out.startswith("{\n")


def test_out_file_atomic(tmp_path, capsys):
    path = write(tmp_path, "m2.json", M2)
    out = str(tmp_path / "report.json")
    assert main(["classify", path, "--out", out]) == 0
    capsys.readouterr()
    report = json.loads(open(out).read())
    assert report["status"] == "consistent"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".rbraid-")]
    assert not leftovers


@pytest.mark.parametrize("target", ["missing-dir/r.json", "a-dir"])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, target):
    path = write(tmp_path, "m2.json", M2)
    (tmp_path / "a-dir").mkdir()
    out = str(tmp_path / target)
    code = main(["solve", path, "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert report["status"] == "error"
    assert report["error"].startswith(f"cannot write {out}: ")
    assert not report["error"].startswith("internal error")
    assert not list(tmp_path.rglob(".rbraid-*"))


def test_bad_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, report = run(capsys, "solve", str(path))
    assert code == 2
    assert report["status"] == "error"


def test_missing_file_exit_two(capsys):
    code, report = run(capsys, "solve", "/does/not/exist.json")
    assert code == 2


def test_unknown_kind_exit_two(tmp_path, capsys):
    path = write(tmp_path, "odd.json",
                 {"field": {"kind": "Q"}, "algebra": {"kind": "group"}})
    code, report = run(capsys, "solve", path)
    assert code == 2
    assert "kind" in report["error"]


def test_size_cap_and_force(tmp_path, capsys):
    path = write(tmp_path, "m5.json",
                 {"field": {"kind": "Q"}, "algebra": {"kind": "matrix", "n": 5}})
    code, report = run(capsys, "solve", path)
    assert code == 2
    assert "cap" in report["error"]
    code, report = run(capsys, "solve", path, "--force")
    assert code == 0
    assert report["status"] == "unique"


def test_ybe_command(tmp_path, capsys):
    path = write(tmp_path, "m2.json", M2)
    code, report = run(capsys, "ybe", path, "--bimodule", "free:2")
    assert code == 0
    assert report["status"] == "pass"
    payload = report["payload"]
    assert payload["dim"] == 8
    assert payload["rank"] == payload["rank_squared"]
    assert payload["checks"]["qybe"] is True


def test_ybe_infeasible(tmp_path, capsys):
    path = write(tmp_path, "dual.json", DUAL)
    code, report = run(capsys, "ybe", path)
    assert code == 1 and report["status"] == "infeasible"


def test_audit_command(tmp_path, capsys):
    path = write(tmp_path, "m2.json", M2)
    code, report = run(capsys, "audit", path, "--triple", "regular,free:2,regular")
    assert code == 0
    assert report["status"] == "pass"
    assert report["payload"]["checks"]["hexagon1"] is True


def test_audit_bad_triple(tmp_path, capsys):
    path = write(tmp_path, "m2.json", M2)
    code, report = run(capsys, "audit", path, "--triple", "regular,regular")
    assert code == 2


Q2 = {"field": {"kind": "Q"},
      "algebra": {"kind": "poly_quotient", "modulus": ["-2", "0", "1"]}}


def test_audit_infeasible_builds_no_bimodule(tmp_path, capsys, monkeypatch):
    # Q[x]/(x^2 - 2) is separable but not central, so it has no R-matrix:
    # the audit reports that, and builds none of its bimodules
    for name in ["regular_bimodule", "square_bimodule", "free_bimodule"]:
        monkeypatch.setattr(cli, name, refuse)
    path = write(tmp_path, "q2.json", Q2)
    code, report = run(capsys, "audit", path, "--triple", "regular,square,free:2")
    assert code == 1 and report["status"] == "infeasible"
    assert report["payload"] == {"algebra": "poly_quotient([-2,0,1])/QQ"}


def envelope_argv(tmp_path, monkeypatch, command, passing):
    """Arguments on which `command` passes, or reports a negative."""
    path = write(tmp_path, "m2.json", M2)
    if command == "verify":
        rpath = str(tmp_path / "r.json")
        if passing:
            assert main(["solve", path, "--out", rpath]) == 0
        else:
            write(tmp_path, "r.json",
                  {"arity": 3, "coeffs": [{"monomial": [0, 0, 0], "value": "1"}]})
        return [command, path, rpath]
    if not passing and command == "validate":
        bad = json.loads(json.dumps(UPPER))
        bad["algebra"]["table"][0][0] = ["1", "1", "0"]
        path = write(tmp_path, "bad.json", bad)
    elif not passing and command == "classify":
        # a solver that finds no R-matrix for the central simple M2
        monkeypatch.setattr(sys.modules["rbraid.classify"], "solve_rmatrix",
                            lambda A, size_cap=None: None)
    elif not passing:
        path = write(tmp_path, "dual.json", DUAL)
    return [command, path]


@pytest.mark.parametrize("passing", [True, False], ids=["passing", "negative"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_report_envelope(tmp_path, capsys, monkeypatch, command, passing):
    argv = envelope_argv(tmp_path, monkeypatch, command, passing)
    code, report = run(capsys, *argv)
    assert code == (0 if passing else 1)
    assert sorted(report) == ["command", "input_sha256", "payload", "status", "timing_ms"]
    assert report["command"] == command
    digest = hashlib.sha256(Path(argv[1]).read_bytes()).hexdigest()
    assert report["input_sha256"] == digest


def test_nested_spec_kinds(tmp_path, capsys):
    spec = {
        "field": {"kind": "GF", "p": 5},
        "algebra": {
            "kind": "direct_sum",
            "left": {"kind": "matrix", "n": 2},
            "right": {"kind": "opposite", "of": {"kind": "matrix", "n": 1}},
        },
    }
    path = write(tmp_path, "nested.json", spec)
    code, report = run(capsys, "classify", path)
    assert code == 0
    assert report["payload"]["rmatrix_exists"] is False
    assert report["payload"]["consistent"] is True


def test_tensor_spec(tmp_path, capsys):
    spec = {
        "field": {"kind": "Q"},
        "algebra": {
            "kind": "tensor",
            "left": {"kind": "matrix", "n": 2},
            "right": {"kind": "matrix", "n": 2},
        },
    }
    path = write(tmp_path, "t.json", spec)
    code, report = run(capsys, "solve", path)
    assert code == 0
    assert len(report["payload"]["certificate"]["r"]["coeffs"]) == 64


def test_internal_error_is_one_json_object(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(cli, "solve_rmatrix", broken)
    path = write(tmp_path, "m2.json", M2)
    code = main(["solve", path])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report == {"command": "solve", "status": "error",
                      "error": "internal error: RuntimeError: solver exploded"}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["bogus"], [], ["solve"], ["solve", "x.json", "--bogus"]])
def test_usage_error_is_one_json_object(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["status"] == "error"
    assert report["error"].startswith("usage: ")
    assert captured.err == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "solve" in capsys.readouterr().out


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "rbraid.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout


# -- one subparser per call ---------------------------------------------------


def without_timing(text: str) -> dict:
    report = json.loads(text)
    report.pop("timing_ms")
    return report


def python(*args) -> subprocess.CompletedProcess:
    """A new interpreter that imports this copy of rbraid."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def fresh_run(*argv) -> tuple[int, str]:
    """Exit code and stdout of `rbraid argv` in a new interpreter."""
    proc = python("-m", "rbraid.cli", *argv)
    return proc.returncode, proc.stdout


def live_results() -> int:
    """Live algebras, bimodules, quotients, certificates and check reports."""
    gc.collect()
    kinds = (Algebra, Bimodule, QuotientSpace, RMatrixCertificate, CheckReport)
    return sum(isinstance(obj, kinds) for obj in gc.get_objects())


def test_calls_in_one_process_carry_no_state(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "m2.json", M2)
    out = str(tmp_path / "r.json")
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command: built.append(command)
                        or build(command))
    live = live_results()

    def call(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    # --pretty and --out hold for their own call only
    assert call("solve", path, "--pretty", "--out", out) == (0, "")
    pretty = Path(out).read_text()
    assert pretty.startswith("{\n")
    code, text = call("solve", "x.json", "--bogus")
    assert code == 2 and json.loads(text)["error"] == "usage: unrecognized arguments: --bogus"
    code, solved = call("solve", path)
    assert code == 0 and solved.count("\n") == 1 and not solved.startswith("{\n")
    assert Path(out).read_text() == pretty
    assert without_timing(solved) == without_timing(pretty)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "audit" in capsys.readouterr().out
    code, ybe = call("ybe", path, "--bimodule", "free:2")
    assert code == 0
    code, audit = call("audit", path, "--triple", "regular,square,free:2")
    assert code == 0

    # each call builds only the subparser it names; --help needs them all
    assert built == ["solve", "solve", "solve", None, "ybe", "audit"]

    # each report matches a fresh process, and no result outlives its call
    fresh_out = str(tmp_path / "fresh.json")
    assert fresh_run("solve", path, "--pretty", "--out", fresh_out) == (0, "")
    assert without_timing(Path(fresh_out).read_text()) == without_timing(pretty)
    for argv, text in [(["solve", path], solved),
                       (["ybe", path, "--bimodule", "free:2"], ybe),
                       (["audit", path, "--triple", "regular,square,free:2"], audit)]:
        code, fresh = fresh_run(*argv)
        assert code == 0
        assert without_timing(fresh) == without_timing(text)
    assert live_results() == live


def parse_outcome(parser, argv):
    """The namespace, usage error or help text that `parser` gives `argv`."""
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            return "args", vars(parser.parse_args(argv))
    except cli._UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, text.getvalue()


@given(st.sampled_from(sorted(cli._COMMANDS)), st.lists(st.sampled_from([
    "a.json", "b.json", "--out", "--out=o.json", "--pretty", "--pre", "--force",
    "--bimodule", "free:2", "--triple", "square,regular,regular", "-h", "--help",
    "--bogus", "--", "-", "solve", "audit"]), max_size=5))
def test_one_subparser_answers_as_the_full_parser(command, rest):
    argv = [command, *rest]
    assert parse_outcome(cli._build_parser(command), argv) == \
        parse_outcome(cli._build_parser(), argv)


def test_import_builds_no_parser():
    proc = python("-c", "import argparse\n"
                        "built = []\n"
                        "init = argparse.ArgumentParser.__init__\n"
                        "def counted(self, *a, **k):\n"
                        "    built.append(1)\n"
                        "    init(self, *a, **k)\n"
                        "argparse.ArgumentParser.__init__ = counted\n"
                        "import rbraid.cli\n"
                        "print(len(built))")
    assert proc.returncode == 0
    assert proc.stdout.split() == ["0"]


# -- the CLI contract on arbitrary input ---------------------------------------


class RawInt:
    """An integer literal of `digits` digits, written as raw JSON text."""

    def __init__(self, digits):
        self.digits = digits


def to_text(obj) -> str:
    if isinstance(obj, RawInt):
        return "7" * obj.digits
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_text(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(to_text, obj)) + "]"
    return json.dumps(obj)


junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=4)
    | st.integers(4301, 6000).map(RawInt),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=4,
)


def mostly(good, bad):
    """Draws from `good` three times in four, else from `bad`."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 0 else good)


def obj(**fields):
    return st.fixed_dictionaries({k: v if isinstance(v, st.SearchStrategy) else st.just(v)
                                  for k, v in fields.items()})


good_scalars = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4"])
scalars = mostly(good_scalars, st.sampled_from(["1/0", "x", "", "1.5"])
                 | st.integers(4301, 6000).map(lambda k: "8" * k) | junk)


def custom(d):
    # well-formed tables, mostly not associative; malformed ones come below
    entries = st.lists(good_scalars, min_size=d, max_size=d)
    planes = st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)
    return obj(kind="custom", dim=d, unit=st.lists(scalars, min_size=d, max_size=d), table=planes)


fields = mostly(st.sampled_from([{"kind": "Q"}, {"kind": "GF", "p": 2}, {"kind": "GF", "p": 7}]),
                st.sampled_from([{"kind": "GF", "p": 9}, {"kind": "GF"}, {"kind": "R"}])
                | obj(kind="GF", p=junk) | junk)
# leaves of dimension at most 4 and at most two of them: every spec that
# builds describes an algebra of dimension at most 16
leaves = mostly(
    obj(kind="matrix", n=mostly(st.integers(1, 2), st.integers(-1, 0) | junk))
    | obj(kind="quaternion", a=scalars, b=scalars)
    | obj(kind="poly_quotient", modulus=mostly(st.lists(good_scalars, min_size=1, max_size=3).map(
        lambda coeffs: coeffs + ["1"]), st.lists(scalars, max_size=4)))
    | st.integers(1, 2).flatmap(custom),
    obj(kind="custom", dim=st.integers(0, 3) | junk, unit=st.lists(scalars, max_size=3) | junk,
        table=st.lists(st.lists(st.lists(scalars, max_size=2), max_size=2), max_size=2) | junk)
    | junk,
)
algebras = st.recursive(
    leaves,
    lambda inner: (obj(kind="opposite", of=inner)
                   | obj(kind=st.sampled_from(["tensor", "direct_sum"]), left=inner, right=inner)),
    max_leaves=2,
)
specs = mostly(obj(field=fields, algebra=algebras), junk)
terms = obj(monomial=st.lists(st.integers(-1, 4) | junk, max_size=4) | junk, value=scalars)
raw_tensors = obj(arity=st.just(3) | junk, coeffs=st.lists(terms | junk, max_size=3) | junk)
tensor_files = raw_tensors | obj(r=raw_tensors) | obj(certificate=obj(r=raw_tensors)) | junk
# verify runs all 14 checks, so its algebras stay at dimension 4 or less;
# malformed specs are the validate test's part
small_specs = st.sampled_from([M2, DUAL, QUAT, {"field": {"kind": "GF", "p": 7},
                                                "algebra": {"kind": "matrix", "n": 2}}]) | junk


def run_contract(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    text = out.getvalue()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert isinstance(json.loads(text), dict)


@given(spec=specs)
def test_validate_contract_on_arbitrary_specs(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("contract") / "spec.json"
    path.write_text(to_text(spec))
    run_contract(["validate", str(path)])


@given(spec=small_specs, tensor=tensor_files)
def test_verify_contract_on_arbitrary_tensor_files(tmp_path_factory, spec, tensor):
    folder = tmp_path_factory.mktemp("contract")
    (folder / "spec.json").write_text(to_text(spec))
    (folder / "r.json").write_text(to_text(tensor))
    run_contract(["verify", str(folder / "spec.json"), str(folder / "r.json")])


# M2's R plus 2 e_0 (x) e_1 (x) e_0: every check but n3 fails, and the two
# cyclic rotations first differ from R at different monomials, so the
# report pins which rotation each of cyc1 and cyc2 applies
CYCLE_PROBE_R = (
    '{"arity": 3, "coeffs": [{"monomial": [0, 0, 0], "value": "1"}, '
    '{"monomial": [0, 2, 1], "value": "1"}, {"monomial": [1, 0, 2], "value": "1"}, '
    '{"monomial": [1, 2, 3], "value": "1"}, {"monomial": [2, 1, 0], "value": "1"}, '
    '{"monomial": [2, 3, 1], "value": "1"}, {"monomial": [3, 1, 2], "value": "1"}, '
    '{"monomial": [3, 3, 3], "value": "1"}, {"monomial": [0, 1, 0], "value": "2"}]}')
CYCLE_PROBE_REPORT = (
    '{"command":"verify",'
    '"input_sha256":"02a646df5295b7388eb654227a34f031c6d1b0c7b5d5cdbc538430ab103394d6",'
    '"payload":{"algebra":"matrix(2)/QQ","checks":{'
    '"c1":{"passed":false,"witness":"a=e_1, monomial (1, 1, 0): 0 != 2"},'
    '"c2":{"passed":false,"witness":"a=e_0, monomial (0, 1, 0): 2 != 0"},'
    '"c3":{"passed":false,"witness":"a=e_1, monomial (0, 1, 1): 0 != 2"},'
    '"cyc1":{"passed":false,"witness":"monomial (0, 1, 0): 0 != 2"},'
    '"cyc2":{"passed":false,"witness":"monomial (0, 0, 1): 2 != 0"},'
    '"h1":{"passed":false,"witness":"monomial (0, 0, 1, 0): 0 != 2"},'
    '"h2":{"passed":false,"witness":"monomial (0, 0, 1, 0): 2 != 4"},'
    '"inv1":{"passed":false,"witness":"monomial (1, 0, 0): 4 != 0"},'
    '"inv2":{"passed":false,"witness":"monomial (0, 1, 0): 4 != 0"},'
    '"n1":{"passed":false,"witness":"monomial (1, 0): 2 != 0"},'
    '"n2":{"passed":false,"witness":"monomial (1, 0): 2 != 0"},'
    '"n3":true,'
    '"q1":{"passed":false,"witness":"monomial (0, 0, 1, 0): 2 != 0"},'
    '"q2":{"passed":false,"witness":"monomial (0, 0, 1, 0): 4 != 2"}},'
    '"rmatrix_sha256":"29d55e6bab4ce110d576a5f167bcf6b5fe30d3b792686b1e6240aa4d3a3c2f34"},'
    '"status":"fail"}')


def test_verify_failure_report_bytes_pinned(tmp_path, capsys):
    (tmp_path / "m2.json").write_text(json.dumps(M2))
    (tmp_path / "r.json").write_text(CYCLE_PROBE_R)
    code = main(["verify", str(tmp_path / "m2.json"), str(tmp_path / "r.json")])
    out = capsys.readouterr().out.strip()
    assert code == 1
    assert re.sub(r',"timing_ms":[^,}]*', "", out) == CYCLE_PROBE_REPORT
