import hashlib
import json
from fractions import Fraction
from math import gcd

import pytest

from torsioncosets import cli
from torsioncosets.arith import CyclotomicNumber, euler_phi
from torsioncosets.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VERIFY_MISMATCH,
    ParseError,
    coset_from_json,
    parse_system,
    report_to_json,
    run,
)
from torsioncosets.poly import LaurentPolynomial
from torsioncosets.solver import SolveReport, SolveStats, hypersurface_cosets

L = LaurentPolynomial


def test_parse_basic():
    doc = parse_system("vars: x y\nfield: 1\npoly: x + y - 1\n")
    assert doc.nvars == 2
    assert doc.level == 1
    assert len(doc.polynomials) == 1
    assert len(doc.polynomials[0].terms) == 3
    assert doc.polynomials[0] == L(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})


def test_parse_inferred_vars_and_zeta():
    doc = parse_system("field: 4\npoly: x*y - z\n")
    assert doc.var_names == ["x", "y"]
    z4 = CyclotomicNumber.zeta(4)
    assert doc.polynomials[0] == L(2, {(1, 1): 1, (0, 0): -z4})


def test_parse_tuple_exponent():
    doc = parse_system("vars: x y\npoly: x^(1,-2)\n")
    assert doc.polynomials[0] == L(2, {(1, -2): 1})


def test_parse_rationals_powers_parens():
    doc = parse_system(
        "vars: x y\nfield: 8\npoly: 1/2*x^2 - (x + y)*z^3 + 2^3\n")
    f = doc.polynomials[0]
    z8 = CyclotomicNumber.zeta(8, 3)
    expect = (L(2, {(2, 0): Fraction(1, 2), (0, 0): 8})
              - L(2, {(1, 0): z8, (0, 1): z8}))
    assert f == expect


def test_parse_negative_exponent():
    doc = parse_system("vars: x\npoly: x^-2 - 1\n")
    assert doc.polynomials[0] == L(1, {(-2,): 1, (0,): -1})


def test_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse_system("vars: x\npoly: x + w\n")
    assert exc.value.kind == "unknown-variable"
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        parse_system("vars: x\npoly: x^(1,2)\n")
    assert exc.value.kind == "bad-exponent"

    with pytest.raises(ParseError) as exc:
        parse_system("field: 0\npoly: x\n")
    assert exc.value.kind == "level-mismatch"

    with pytest.raises(ParseError) as exc:
        parse_system("field: 4\nfield: 8\npoly: x\n")
    assert exc.value.kind == "level-mismatch"

    with pytest.raises(ParseError):
        parse_system("poly: 1 +\n")

    with pytest.raises(ParseError):
        parse_system("vars: z\npoly: z\n")


def test_json_round_trip():
    doc = parse_system("vars: x y\npoly: x + y - 1\n")
    report = hypersurface_cosets(doc.polynomials[0])
    payload = report_to_json(doc, report)
    assert payload["n"] == 2 and payload["field"] == 1
    assert len(payload["cosets"]) == 2
    for entry in payload["cosets"]:
        assert entry["certified"] is True
        assert entry["dim"] == 0
    reparsed = {coset_from_json(obj, payload["n"]).canonical_key()
                for obj in payload["cosets"]}
    assert reparsed == {c.canonical_key() for c in report.cosets}


def test_cli_solve_json(capsys, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("vars: x y\npoly: x + y - 1\n")
    code = run(["solve", "--input", str(path), "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2
    assert len(data["cosets"]) == 2
    points = sorted(tuple(tuple(p) for p in c["point"])
                    for c in data["cosets"])
    assert points == [((("1", "6")), ("5", "6")), (("5", "6"), ("1", "6"))]


def test_cli_solve_high_degree_skips_the_general_bound(capsys, tmp_path):
    # eq3 at n = 3, d = 16 runs to about 28 Mbit; 32 cosets stay far below
    # its first factor 176^9, so the bound is never built
    path = tmp_path / "system.txt"
    path.write_text("vars: x y w\npoly: x^16 + y*w + 1\n")
    code = run(["solve", "--input", str(path), "--format", "json"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)
    assert len(data["cosets"]) == 32
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "1bc538bd1bcf7746e2dc9fe7b6d820ad00abdb44fc8405cee9ec8fcaaf06da5c")


def test_cli_solve_text(capsys, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("vars: x y\npoly: x^2*y^2 - 1\n")
    code = run(["solve", "--input", str(path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "2 maximal torsion coset(s)" in out
    assert "T_1=2" in out


def test_cli_verify_pass(capsys, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("vars: x y\npoly: x + y - 1\n")
    code = run(["verify", "--input", str(path), "--max-order", "12",
                "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["oracle"]["pass"] is True
    assert data["oracle"]["missed"] == []
    assert data["oracle"]["spurious"] == []


def test_cli_verify_reports_one_test_per_orbit(capsys, tmp_path):
    # level 1: one exact test decides the phi(m) points of each orbit
    path = tmp_path / "system.txt"
    path.write_text("vars: x y\npoly: x + y - 1\n")
    code = run(["verify", "--input", str(path), "--max-order", "12",
                "--format", "json"])
    assert code == EXIT_OK
    oracle = json.loads(capsys.readouterr().out)["oracle"]
    assert set(oracle) == {"maxOrder", "points", "missed", "spurious",
                           "pass", "tested"}
    per_order = [sum(1 for a in range(m) for b in range(m)
                     if gcd(m, a, b) == 1) for m in range(1, 13)]
    assert 0 < oracle["tested"] < sum(per_order)
    assert oracle["tested"] == sum(points // euler_phi(m) for m, points
                                   in enumerate(per_order, 1))
    code = run(["verify", "--input", str(path), "--max-order", "12"])
    assert code == EXIT_OK
    assert f"({oracle['tested']} exact test(s))" in capsys.readouterr().out


def test_cli_verify_lists_each_missed_point(capsys, tmp_path, monkeypatch):
    # a solver that finds nothing misses both points of x + y = 1 up to
    # order 12; "missed" lists them one by one, in the form of a coset's
    # "point"
    monkeypatch.setattr(cli, "_solve_document",
                        lambda doc: SolveReport([], SolveStats(), []))
    path = tmp_path / "system.txt"
    path.write_text("vars: x y\npoly: x + y - 1\n")
    code = run(["verify", "--input", str(path), "--max-order", "12",
                "--format", "json"])
    assert code == EXIT_VERIFY_MISMATCH
    oracle = json.loads(capsys.readouterr().out)["oracle"]
    assert oracle["pass"] is False
    assert oracle["missed"] == [[["1", "6"], ["5", "6"]],
                                [["5", "6"], ["1", "6"]]]


# sha256 of `verify --format json` output: four seed-1 systems of the
# verify-n3 benchmark at order 24 (levels 1, 3, 4 and 12; the first two
# have 204 and 102 points) and a rank-2 hypersurface in four variables
# at order 12 (640 points).  The bytes cover the solve part and the
# oracle's "points", "tested" and "missed"
VERIFY_JSON_DIGESTS = [
    ("vars: x y w\nfield: 1\n"
     "poly: 2*x^-2*y^1*w^3 + 2*x^-1*y^4*w^1 + 2*y^1*w^3\n", 24,
     "bd598f26732c2b7c0a5f6fd42ffd73d3c7449b53af3a17bd5d5602d42d983e43"),
    ("vars: x y w\nfield: 3\n"
     "poly: - 3*x^2*y^2*w^5 - 1*z^1*x^2*y^2*w^5 - 1*x^3*y^1*w^4"
     " - 2*x^5*y^1*w^4 - 2*z^1*x^5*y^1*w^4\n", 24,
     "0380b4d3e2e557a9ce34d036af1265a1341d78468416add75f5851b6e1e4358f"),
    ("vars: x y w\nfield: 4\n"
     "poly: 1*z^1*x^-2*y^-2*w^-1 - 1*x^1*y^1*w^-1\n"
     "poly: 1*z^1*x^2*y^-1*w^4 - 2*x^2*w^3\n", 24,
     "eedb094dc543f309993a544fb89d4e91eb681226770c5ef13adbf80d27866c25"),
    ("vars: x y w\nfield: 12\n"
     "poly: 1*x^2*y^4 + 2*z^1*x^2*y^4 - 2*z^2*x^2*y^4 - 2*z^3*x^2*y^4"
     " - 2*x^4*y^3*w^-1 - 1*z^3*x^4*y^3*w^-1 + 1*x^5*y^2 + 1*z^1*x^5*y^2"
     " - 2*z^2*x^5*y^2 - 2*z^3*x^5*y^2\n", 24,
     "b8e350b1a93826d3729f9a7a108e5577efa1f67228ed2ad8ccee483ce555a487"),
    ("vars: x y w v\npoly: x^2*v^2 + y^2*w^2 + x*y*w*v + 1\n", 12,
     "359ebc9494f541882b825ed6e4210265ac74f7ca5013d2e41032d696c91b259a"),
]


@pytest.mark.parametrize("text, max_order, digest", VERIFY_JSON_DIGESTS)
def test_cli_verify_json_bytes(capsys, tmp_path, text, max_order, digest):
    path = tmp_path / "system.txt"
    path.write_text(text)
    code = run(["verify", "--input", str(path), "--max-order",
                str(max_order), "--format", "json"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["oracle"]["missed"] == []
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_verify_budget(capsys, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("vars: x y\npoly: x + y - 1\n")
    code = run(["verify", "--input", str(path), "--max-order", "30",
                "--budget", "10"])
    assert code == EXIT_BUDGET


def test_cli_solve_has_no_budget(capsys, tmp_path):
    # --budget sets the oracle grid of verify; solve takes no budget
    path = tmp_path / "system.txt"
    path.write_text("vars: x y\npoly: x + y - 1\n")
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--input", str(path), "--budget", "5"])
    assert exc.value.code == EXIT_PARSE_ERROR


def test_cli_parse_error_exit(capsys, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("vars: x\npoly: x + qq\n")
    code = run(["solve", "--input", str(path)])
    assert code == EXIT_PARSE_ERROR
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, column", [
    ("vars: x y\npoly: x + 1/0\n", 2, 5),
    ("poly: y - 2*x + 7/00*y\n", 1, 11),  # variables inferred from tokens
])
def test_zero_denominator_is_a_parse_error(capsys, tmp_path, text, line,
                                           column):
    # the error points at the literal, and the CLI exits with the parse
    # error code, not verify's mismatch code
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    path = tmp_path / "system.txt"
    path.write_text(text)
    for command in ("solve", "verify"):
        assert run([command, "--input", str(path)]) == EXIT_PARSE_ERROR
        assert "parse error" in capsys.readouterr().err


def test_cli_bounds(capsys):
    code = run(["bounds", "--n", "2", "--d", "3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "102" in out
    code = run(["bounds", "--n", "2", "--d", "1", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["eq3"] == str(14641 * 3 ** 27)


def test_cli_cyclo(capsys, tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("vars: x\npoly: x^2 + x + 1\n")
    code = run(["cyclo", "--input", str(path), "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["roots"] == [["1", "3"], ["2", "3"]]


_X = L.variable(1, 0)
_ONE = L.constant(1, 1)


@pytest.mark.parametrize("poly, part", [
    ("x^2 + x + 1", _X * _X + _X + _ONE),  # its own cyclotomic part
    ("x^2 - 2", _ONE),
    ("x^2 + 1", _X * _X + _ONE),
    ("(x - 1)^2*(x + 1)*(x^2 - 2)", (_X - _ONE) * (_X + _ONE)),
])
def test_cli_cyclo_part(capsys, tmp_path, poly, part):
    # cyclo builds the cyclotomic part prod (X - w) over the roots
    path = tmp_path / "poly.txt"
    path.write_text(f"vars: x\npoly: {poly}\n")
    assert run(["cyclo", "--input", str(path), "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["cyclotomicPart"] == repr(part)
    assert data["cyclotomicPartDegree"] == part.total_degree() == len(
        data["roots"])
    assert run(["cyclo", "--input", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    if data["roots"]:
        assert f"cyclotomic part: {part!r}\n" in text
    else:
        assert text == "no roots of unity\n"


def test_cli_text_json_same_cosets(capsys, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("field: 4\npoly: x*y - z\npoly: x - y\n")
    assert run(["solve", "--input", str(path), "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert run(["solve", "--input", str(path), "--format", "text"]) == EXIT_OK
    text = capsys.readouterr().out
    assert f"{len(data['cosets'])} maximal torsion coset(s)" in text


def test_cli_zero_polynomial_rejected(capsys, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("vars: x\npoly: x - x\n")
    code = run(["solve", "--input", str(path)])
    assert code == EXIT_PARSE_ERROR
    assert "error" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    code = run(["solve", "--input", "/nonexistent/system.txt"])
    assert code == EXIT_PARSE_ERROR
