"""Command-line front end: parse polynomial systems from a small
line-oriented input language, run the solver, the brute-force verifier,
or the bounds calculators, and emit machine- and human-readable results.

Input language (one directive per line, '#' starts a comment):

    vars: x y          # variable names (inferred from use if omitted)
    field: 4           # cyclotomic level N; z denotes zeta_N (default 1)
    poly: x^2*y - z*x + 1/2
    poly: x^(1,-2) - z^3   # a tuple exponent denotes a full monomial

Exit codes: 0 success, 1 verification mismatch, 2 parse failure,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .arith import CyclotomicNumber, TorsionPoint, lowest_terms
from .bounds import check_soft_bounds, paper_constants
from .cosets import TorsionCoset
from .lattices import IntegerLattice
from .oracle import BudgetExceededError, cross_check
from .poly import LaurentPolynomial, cyclotomic_roots
from .solver import SolveReport, hypersurface_cosets, variety_cosets

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_PARSE_ERROR = 2
EXIT_BUDGET = 3


class ParseError(ValueError):
    def __init__(self, message, line, column, kind="syntax"):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.kind = kind


@dataclass
class SystemDocument:
    nvars: int
    level: int
    var_names: list[str]
    polynomials: list[LaurentPolynomial]


# ---------------------------------------------------------------------------
# tokenizer


_OPS = set("+-*^(),")


def _tokenize(text, line_no):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch in _OPS:
            tokens.append(("op", ch, col))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            # rational literal a/b
            if j < len(text) and text[j] == "/" and j + 1 < len(text) \
                    and text[j + 1].isdigit():
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                num, den = int(text[i:j]), int(text[j + 1:k])
                if not den:
                    raise ParseError("zero denominator", line_no, col)
                tokens.append(("number", Fraction(num, den), col))
                i = k
            else:
                tokens.append(("number", Fraction(int(text[i:j])), col))
                i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], col))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line_no, col)
    tokens.append(("end", None, len(text) + 1))
    return tokens


class _ExprParser:
    """Recursive-descent parser for polynomial expressions with + - * ^,
    rational literals, z = zeta_N, and tuple exponents for monomials."""

    def __init__(self, tokens, line_no, var_index, nvars, level):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no
        self.vars = var_index
        self.nvars = nvars
        self.level = level

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, col = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", self.line, col)

    def parse(self) -> LaurentPolynomial:
        poly = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", self.line, col)
        return poly

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                poly = poly - rhs if val == "-" else poly + rhs
            else:
                return poly

    def term(self):
        poly = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self):
        kind, val, col = self.take()
        if kind == "number":
            base = LaurentPolynomial.constant(self.nvars, val)
            return self.maybe_power(base, col, scalar=val)
        if kind == "ident":
            if val == "z":
                return self.maybe_power_root(col)
            if val not in self.vars:
                raise ParseError(f"unknown variable {val!r}", self.line, col,
                                 kind="unknown-variable")
            return self.maybe_power_var(self.vars[val], col)
        if kind == "op" and val == "(":
            poly = self.expr()
            self.expect_op(")")
            return self.maybe_power(poly, col)
        raise ParseError("expected a term", self.line, col)

    def read_int(self):
        kind, val, col = self.take()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, col = self.take()
        if kind != "number" or val.denominator != 1:
            raise ParseError("expected an integer exponent", self.line, col,
                             kind="bad-exponent")
        return sign * int(val)

    def read_exponent(self):
        kind, val, col = self.peek()
        if kind == "op" and val == "(":
            self.take()
            entries = [self.read_int()]
            while True:
                kind, val, col = self.take()
                if kind == "op" and val == ",":
                    entries.append(self.read_int())
                elif kind == "op" and val == ")":
                    break
                else:
                    raise ParseError("expected ',' or ')'", self.line, col,
                                     kind="bad-exponent")
            return tuple(entries)
        return self.read_int()

    def maybe_power_var(self, index, col):
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exp = self.read_exponent()
            if isinstance(exp, tuple):
                if len(exp) != self.nvars:
                    raise ParseError(
                        f"tuple exponent needs {self.nvars} entries",
                        self.line, col, kind="bad-exponent")
                return LaurentPolynomial.monomial(self.nvars, exp, 1)
            return LaurentPolynomial.variable(self.nvars, index, exp)
        return LaurentPolynomial.variable(self.nvars, index, 1)

    def maybe_power_root(self, col):
        k = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exp = self.read_exponent()
            if isinstance(exp, tuple):
                raise ParseError("tuple exponent applies to variables",
                                 self.line, col, kind="bad-exponent")
            k = exp
        root = CyclotomicNumber.zeta(self.level, k % self.level) \
            if self.level > 1 else CyclotomicNumber.one()
        return LaurentPolynomial.constant(self.nvars, root)

    def maybe_power(self, poly, col, scalar=None):
        kind, val, _ = self.peek()
        if kind != "op" or val != "^":
            return poly
        self.take()
        exp = self.read_exponent()
        if isinstance(exp, tuple):
            raise ParseError("tuple exponent applies to variables",
                             self.line, col, kind="bad-exponent")
        if exp < 0:
            if scalar is not None and scalar != 0:
                return LaurentPolynomial.constant(self.nvars,
                                                  Fraction(scalar) ** exp)
            raise ParseError("negative power of a non-monomial",
                             self.line, col, kind="bad-exponent")
        return poly ** exp


def parse_system(text: str) -> SystemDocument:
    """Parse the line-oriented system description; raises ParseError
    with line/column diagnostics."""
    var_names = None
    level = None
    poly_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'directive: value'", line_no, 1)
        head, rest = line.split(":", 1)
        head = head.strip().lower()
        rest = rest.strip()
        if head == "vars":
            if var_names is not None:
                raise ParseError("duplicate vars directive", line_no, 1)
            var_names = rest.split()
            if not var_names:
                raise ParseError("empty variable list", line_no, 1)
            if len(set(var_names)) != len(var_names):
                raise ParseError("repeated variable name", line_no, 1)
            if "z" in var_names:
                raise ParseError("'z' is reserved for the root of unity",
                                 line_no, 1)
        elif head == "field":
            try:
                value = int(rest)
            except ValueError:
                raise ParseError("field level must be a positive integer",
                                 line_no, 1, kind="level-mismatch") from None
            if value < 1:
                raise ParseError("field level must be positive", line_no, 1,
                                 kind="level-mismatch")
            if level is not None and level != value:
                raise ParseError("conflicting field levels", line_no, 1,
                                 kind="level-mismatch")
            level = value
        elif head == "poly":
            poly_lines.append((line_no, rest))
        else:
            raise ParseError(f"unknown directive {head!r}", line_no, 1)
    if not poly_lines:
        raise ParseError("no polynomials given", 1, 1)
    if level is None:
        level = 1
    if var_names is None:
        var_names = []
        seen = set()
        for line_no, rest in poly_lines:
            for kind, val, _ in _tokenize(rest, line_no):
                if kind == "ident" and val != "z" and val not in seen:
                    seen.add(val)
                    var_names.append(val)
        if not var_names:
            raise ParseError("no variables in the system", poly_lines[0][0], 1)
    var_index = {name: i for i, name in enumerate(var_names)}
    nvars = len(var_names)
    polys = []
    for line_no, rest in poly_lines:
        tokens = _tokenize(rest, line_no)
        parser = _ExprParser(tokens, line_no, var_index, nvars, level)
        polys.append(parser.parse())
    return SystemDocument(nvars=nvars, level=level, var_names=var_names,
                          polynomials=polys)


# ---------------------------------------------------------------------------
# output


def point_to_json(point: TorsionPoint) -> list[list[str]]:
    return [[str(a), str(b)] for a, b in lowest_terms(point.nums, point.order)]


def coset_to_json(coset: TorsionCoset, certified: bool) -> dict:
    return {
        "dim": coset.dimension,
        "point": point_to_json(coset.point),
        "lattice": [list(row) for row in coset.lattice.rows],
        "certified": bool(certified),
    }


def coset_from_json(obj, n: int) -> TorsionCoset:
    point = TorsionPoint([Fraction(int(a), int(m)) for a, m in obj["point"]])
    return TorsionCoset(point, IntegerLattice(n, obj["lattice"]))


def report_to_json(doc: SystemDocument, report: SolveReport) -> dict:
    return {
        "n": doc.nvars,
        "field": doc.level,
        "cosets": [coset_to_json(c, cert) for c, cert
                   in zip(report.cosets, report.certificates)],
    }


def _format_point(point: TorsionPoint) -> str:
    return "(" + ", ".join(f"e({a}/{b})" if a else "e(0)" for a, b
                           in lowest_terms(point.nums, point.order)) + ")"


def report_to_text(doc: SystemDocument, report: SolveReport) -> str:
    lines = [f"{len(report.cosets)} maximal torsion coset(s) "
             f"in {doc.nvars} variable(s), field level {doc.level}"]
    for c in report.cosets:
        if c.dimension == 0:
            lines.append(f"  point {_format_point(c.point)}")
        else:
            rows = "; ".join(str(list(r)) for r in c.lattice.rows)
            lines.append(f"  coset dim {c.dimension}: "
                         f"point {_format_point(c.point)}, lattice rows {rows}")
    counts = report.counts_by_dimension()
    if counts:
        per_dim = ", ".join(f"T_{i}={counts[i]}" for i in sorted(counts))
        lines.append(f"  counts: {per_dim}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def _read_input(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _solve_document(doc: SystemDocument) -> SolveReport:
    if len(doc.polynomials) == 1:
        return hypersurface_cosets(doc.polynomials[0])
    return variety_cosets(doc.polynomials)


def _system_degree(doc: SystemDocument) -> int:
    degs = []
    for p in doc.polynomials:
        stripped, _ = p.strip_monomial_content()
        degs.append(stripped.total_degree())
    return max(max(degs, default=1), 1)


def _cmd_solve(args) -> int:
    doc = parse_system(_read_input(args.input))
    report = _solve_document(doc)
    if doc.nvars >= 2:
        for msg in check_soft_bounds(report, doc.nvars, _system_degree(doc)):
            print(f"warning: {msg}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(report_to_json(doc, report), indent=2))
    else:
        print(report_to_text(doc, report))
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = parse_system(_read_input(args.input))
    report = _solve_document(doc)
    oracle = cross_check(report, doc.polynomials, args.max_order,
                         budget=args.budget)
    payload = {
        "solve": report_to_json(doc, report),
        "oracle": {
            "maxOrder": oracle.max_order,
            "points": len(oracle.points),
            "missed": [point_to_json(p) for p in oracle.missed_by_solver],
            "spurious": [coset_to_json(c, False)
                         for c in oracle.spurious_cosets],
            "pass": oracle.passed,
            "tested": oracle.tested,
        },
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(report_to_text(doc, report))
        print(f"oracle: {len(oracle.points)} point(s) up to order "
              f"{oracle.max_order} ({oracle.tested} exact test(s)); "
              f"missed {len(oracle.missed_by_solver)}, "
              f"spurious {len(oracle.spurious_cosets)}: "
              f"{'PASS' if oracle.passed else 'FAIL'}")
    return EXIT_OK if oracle.passed else EXIT_VERIFY_MISMATCH


def _cmd_bounds(args) -> int:
    cat = paper_constants(args.n, args.d)
    if args.format == "json":
        print(json.dumps(cat.as_dict(), indent=2))
    else:
        d = cat.as_dict()
        print(f"bounds for n={args.n}, d={args.d}")
        print(f"  general count bound (11d)^(n^2) C(n+d,d)^(3C^2): {d['eq3']}")
        if cat.eq4 is not None:
            print(f"  plane-curve bound 11d^2+d: {cat.eq4}")
        print(f"  hypersurface constants: c1 = {d['thm1']['c1']}, "
              f"c2 = {d['thm1']['c2']}")
        print(f"  variety constants: c3 = {d['thm2']['c3']}, "
              f"c4 = {d['thm2']['c4']}")
        print(f"  rescale degree bound: {cat.rescale_degree}")
        print(f"  slice degree bound: {cat.projection_degree}")
        print(f"  total count recurrence value: {cat.t_total}")
        per_dim = ", ".join(f"T_{k}={v}" for k, v in
                            sorted(cat.t_by_dimension.items()))
        print(f"  per-dimension recurrence: {per_dim}")
    return EXIT_OK


def _cmd_cyclo(args) -> int:
    doc = parse_system(_read_input(args.input))
    if doc.nvars != 1:
        raise ParseError("cyclo needs a univariate input", 1, 1)
    roots = cyclotomic_roots(doc.polynomials[0])
    # the cyclotomic part prod (X - w)
    part = LaurentPolynomial.constant(1, 1)
    x = LaurentPolynomial.variable(1, 0)
    for w in roots:
        part = part * (x - w.to_cyclotomic())
    if args.format == "json":
        payload = {
            "roots": [[str(w.numerator), str(w.order)]
                      for w in roots],
            "cyclotomicPart": repr(part),
            "cyclotomicPartDegree": part.total_degree(),
        }
        print(json.dumps(payload, indent=2))
    else:
        if roots:
            listing = ", ".join(f"e({w.exponent})" for w in roots)
            print(f"{len(roots)} root(s) of unity: {listing}")
            print(f"cyclotomic part: {part!r}")
        else:
            print("no roots of unity")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsioncosets",
        description="maximal torsion cosets of polynomial systems "
                    "on the algebraic torus")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", default="-",
                       help="input file (default: stdin)")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_solve = sub.add_parser("solve", help="find all maximal torsion cosets")
    add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify",
                              help="solve and cross-check against the "
                                   "brute-force oracle")
    add_common(p_verify)
    p_verify.add_argument("--max-order", type=int, default=12)
    p_verify.add_argument("--budget", type=int, default=2_000_000,
                          help="most grid points the oracle may cover")
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="print the explicit bounds")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--d", type=int, required=True)
    p_bounds.add_argument("--format", choices=("json", "text"),
                          default="text")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_cyclo = sub.add_parser("cyclo",
                             help="roots of unity of a univariate polynomial")
    add_common(p_cyclo)
    p_cyclo.set_defaults(func=_cmd_cyclo)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        # semantically invalid input (e.g. the zero polynomial)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
