"""Command-line front door.

Reads algebra definition files (JSON), dispatches one computation per
`main` call and emits a machine-readable report on standard output.
Reports are canonical JSON (sorted keys, exact scalar strings); the
timing field is informational and excluded from byte-stability
guarantees.

Each command handler takes the parsed arguments and the loaded algebra
and returns (passed, status, payload); `main` alone loads the input file,
builds the report, emits it and maps the outcome to an exit code: 0 for
success/consistent, 1 for a mathematical negative (no R-matrix, a failed
check, an inconsistent classification), 2 for input errors, an `--out`
that cannot be written among them.  A usage error (an unknown
subcommand, a missing or unknown argument) and an internal error (any
other exception, its message prefixed with "internal error: <Type>:")
also exit 2 with one JSON error object on stdout; `--help` prints its
text and exits 0.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time

from .algebra import (
    Algebra,
    build_direct_sum,
    build_matrix_algebra,
    build_poly_quotient,
    build_quaternion,
    build_tensor_product,
    opposite,
    validate_algebra,
)
from .bimodules import audit_braiding, free_bimodule, regular_bimodule, square_bimodule
from .checks import CheckReport
from .classify import classify
from .errors import DivisionByZero, ParseError, RBraidError, UnsupportedSize
from .fields import Field, field_from_json
from .rmatrix import DEFAULT_SIZE_CAP, solve_rmatrix, verify_rmatrix
from .tensor import TensorElement
from .yangbaxter import (
    DEFAULT_DIM_CAP,
    build_omega,
    check_braid,
    check_omega_cubed,
    check_qybe,
    omega_rank_profile,
)

BIMODULE_CHOICES = "regular, square or free:<d>"

# Nested algebra objects (tensor, direct_sum, opposite) deeper than this
# are rejected before any recursion.
MAX_SPEC_DEPTH = 64

# No algebra or named bimodule larger than this is built, even with
# --force: the structure table alone holds dim**3 entries.
MAX_BUILD_DIM = 64

# An audit of M, N, P works in ambients of dimension dim M * dim N * dim P;
# a larger product is refused before the solve unless --force is given.
# The square bimodule of a dimension-4 algebra, cubed, is at the limit,
# and so is the regular one of a dimension-16 algebra; no operand is
# smaller than the algebra, so no larger algebra is audited unless
# --force is given.
MAX_AUDIT_DIM = 4096


# -- input format -----------------------------------------------------------


def _expect_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj, where: str) -> list:
    # a JSON string or object would be iterated as characters or keys
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list, got {type(obj).__name__}")
    return obj


def _expect_int(value, where: str) -> int:
    # bool is a subclass of int, and JSON floats such as 2.9 must not be
    # truncated, so only a plain int passes
    if type(value) is not int:
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _expect_size(value, where: str) -> int:
    if _expect_int(value, where) < 1:
        raise ParseError(f"{where}: expected an integer >= 1, got {value!r}")
    return value


def _scalar(field: Field, value, where: str):
    # scalars travel as strings; str() would let -1, true or null through
    if type(value) is not str:
        raise ParseError(f"{where}: expected a scalar string, got {value!r}")
    try:
        return field.parse(value)
    except (ParseError, DivisionByZero) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def build_algebra_from_spec(spec: dict) -> Algebra:
    """Construct and remember the algebra described by a definition file."""
    spec = _expect_dict(spec, "top level")
    if "field" not in spec or "algebra" not in spec:
        raise ParseError("top level: need 'field' and 'algebra' keys")
    field = field_from_json(_expect_dict(spec["field"], "field"))
    _spec_dim(spec["algebra"], "algebra", 0)
    return _build_algebra(field, spec["algebra"], "algebra")


def _spec_dim(obj, where: str, depth: int) -> int | None:
    """Dimension that `obj` describes, checked against MAX_BUILD_DIM at
    every node before anything is built; None where the spec is malformed,
    which the builder then reports."""
    if depth > MAX_SPEC_DEPTH:
        raise ParseError(f"algebra: nested deeper than {MAX_SPEC_DEPTH} levels")
    if not isinstance(obj, dict):
        return None
    kind, dim = obj.get("kind"), None
    if kind in ("tensor", "direct_sum"):
        left = _spec_dim(obj.get("left"), where + ".left", depth + 1)
        right = _spec_dim(obj.get("right"), where + ".right", depth + 1)
        if left is not None and right is not None:
            dim = left * right if kind == "tensor" else left + right
    elif kind == "opposite":
        dim = _spec_dim(obj.get("of"), where + ".of", depth + 1)
    elif kind == "matrix" and type(obj.get("n")) is int and obj["n"] > 0:
        dim = obj["n"] ** 2
    elif kind == "quaternion":
        dim = 4
    elif kind == "poly_quotient" and isinstance(obj.get("modulus"), list):
        dim = len(obj["modulus"]) - 1
    elif kind == "custom" and type(obj.get("dim")) is int:
        dim = obj["dim"]
    if dim is not None and dim > MAX_BUILD_DIM:
        raise UnsupportedSize(f"{where}: dim {dim} exceeds the build limit {MAX_BUILD_DIM}")
    return dim


def _build_algebra(field: Field, obj, where: str) -> Algebra:
    obj = _expect_dict(obj, where)
    kind = obj.get("kind")
    try:
        if kind == "matrix":
            return build_matrix_algebra(_expect_size(obj["n"], where + ".n"), field)
        if kind == "quaternion":
            return build_quaternion(_scalar(field, obj["a"], where + ".a"),
                                    _scalar(field, obj["b"], where + ".b"), field)
        if kind == "poly_quotient":
            raw = obj["modulus"]
            modulus = ([_scalar(field, c, where + ".modulus") for c in raw]
                       if isinstance(raw, list) else [])
            if len(modulus) < 2 or modulus[-1] != field.one:
                raise ParseError(f"{where}.modulus: expected the coefficients of a monic "
                                 f"polynomial of degree >= 1, got {raw!r}")
            return build_poly_quotient(modulus, field)
        if kind == "tensor":
            return build_tensor_product(
                _build_algebra(field, obj["left"], where + ".left"),
                _build_algebra(field, obj["right"], where + ".right"),
            )
        if kind == "direct_sum":
            return build_direct_sum(
                _build_algebra(field, obj["left"], where + ".left"),
                _build_algebra(field, obj["right"], where + ".right"),
            )
        if kind == "opposite":
            return opposite(_build_algebra(field, obj["of"], where + ".of"))
        if kind == "custom":
            dim = _expect_size(obj["dim"], where + ".dim")
            unit = [_scalar(field, c, where + ".unit")
                    for c in _expect_list(obj["unit"], where + ".unit")]
            table = [
                [[_scalar(field, c, where + ".table")
                  for c in _expect_list(row, f"{where}.table[{i}][{j}]")]
                 for j, row in enumerate(_expect_list(plane, f"{where}.table[{i}]"))]
                for i, plane in enumerate(_expect_list(obj["table"], where + ".table"))
            ]
            if len(table) != dim:
                raise ParseError(f"{where}.table: {len(table)} planes for dim {dim}")
            return Algebra(field, table, unit, label=f"custom(dim={dim})/{field!r}")
    except KeyError as exc:
        raise ParseError(f"{where}: missing key {exc.args[0]!r}") from exc
    except ParseError:
        raise  # already names its key
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown algebra kind {kind!r}")


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data), hashlib.sha256(data).hexdigest()
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except ValueError as exc:  # e.g. an integer literal of over 4300 digits
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


def _extract_tensor_json(obj) -> dict:
    """Accept a raw tensor, a certificate, or a whole solve report."""
    if isinstance(obj, dict):
        if "coeffs" in obj and "arity" in obj:
            arity = obj["arity"]
            if type(arity) is not int or arity != 3:
                raise ParseError(f"R-matrix tensor: arity must be 3, got {arity!r}")
            return obj
        if "r" in obj:
            return _extract_tensor_json(obj["r"])
        if "certificate" in obj:
            return _extract_tensor_json(obj["certificate"])
        if "payload" in obj:
            return _extract_tensor_json(obj["payload"])
    raise ParseError("no tensor found in the R-matrix file")


def _bimodule_spec(A: Algebra, text: str):
    """(builder, dimension) of the bimodule of A that `text` names; the
    dimension is predicted and checked against MAX_BUILD_DIM here, so
    that nothing oversized is ever built."""
    if text == "regular":
        build, dim = regular_bimodule, A.dim
    elif text == "square":
        build, dim = square_bimodule, A.dim ** 2
    elif text.startswith("free:"):
        rank = text[len("free:"):]
        if not (rank.isascii() and rank.isdigit()):
            raise ParseError(f"bad free rank in {text!r}")
        # bound the length first: int() refuses strings of over 4300 digits
        rank = rank.lstrip("0") or "0"
        if len(rank) > 9:
            raise UnsupportedSize(f"free bimodule: dim exceeds the build limit {MAX_BUILD_DIM}")
        d = int(rank)
        if d < 1:
            raise ParseError(f"bad free rank in {text!r}: must be >= 1")
        build, dim = (lambda A: free_bimodule(A, d)), d * A.dim
    else:
        raise ParseError(f"unknown bimodule {text!r}; use {BIMODULE_CHOICES}")
    if dim > MAX_BUILD_DIM:
        raise UnsupportedSize(f"{text} bimodule: dim {dim} exceeds the build limit {MAX_BUILD_DIM}")
    return build, dim


# -- report plumbing ----------------------------------------------------------


def _emit(report: dict, args) -> None:
    text = json.dumps(
        report,
        sort_keys=True,
        indent=2 if args.pretty else None,
        separators=None if args.pretty else (",", ":"),
    ) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(args.out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rbraid-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, args.out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # a missing directory, a directory as target, ...
        raise ParseError(f"cannot write {args.out}: {exc.strerror or exc}") from exc


# -- commands ----------------------------------------------------------


class _Infeasible(Exception):
    """No R-matrix exists for the algebra: a report, not an error."""


def _cmd_validate(args, A: Algebra) -> tuple[bool, str, dict]:
    report = validate_algebra(A)
    payload = {"algebra": A.label, "dim": A.dim, "checks": report.to_json()}
    return report.passed, "valid" if report.passed else "invalid", payload


def _solve(args, A: Algebra, bimodules=()):
    """(certificate, bimodules) for the algebra and the named bimodules.
    Their dimensions, and for --force-less runs their product, are checked
    before the solve; they are built only when an R-matrix exists.  When
    none exists this raises _Infeasible."""
    specs = [_bimodule_spec(A, text) for text in bimodules]
    ambient = math.prod(dim for _, dim in specs)
    if ambient > MAX_AUDIT_DIM and not args.force:
        raise UnsupportedSize(f"bimodule dims {'x'.join(str(d) for _, d in specs)} = {ambient} "
                              f"exceed the audit limit {MAX_AUDIT_DIM} (lift with --force)")
    cert = solve_rmatrix(A, size_cap=None if args.force else DEFAULT_SIZE_CAP)
    if cert is None:
        raise _Infeasible
    return cert, [build(A) for build, _ in specs]


def _cmd_solve(args, A: Algebra) -> tuple[bool, str, dict]:
    cert, _ = _solve(args, A)
    status = "unique" if cert.valid else "invalid_certificate"
    return cert.valid, status, {"certificate": cert.to_json()}


def _cmd_verify(args, A: Algebra) -> tuple[bool, str, dict]:
    robj, rdigest = _load_json(args.rmatrix)
    tensor = TensorElement.from_json(A, _extract_tensor_json(robj))
    report = verify_rmatrix(A, tensor)
    payload = {"algebra": A.label, "rmatrix_sha256": rdigest, "checks": report.to_json()}
    return report.passed, "pass" if report.passed else "fail", payload


def _cmd_classify(args, A: Algebra) -> tuple[bool, str, dict]:
    report = classify(A, size_cap=None if args.force else DEFAULT_SIZE_CAP)
    status = "consistent" if report.consistent else "inconsistent"
    return report.consistent, status, report.to_json()


def _cmd_ybe(args, A: Algebra) -> tuple[bool, str, dict]:
    cert, (V,) = _solve(args, A, [args.bimodule])
    op = build_omega(cert, V, size_cap=None if args.force else DEFAULT_DIM_CAP)
    checks = CheckReport([check_qybe(op), check_braid(op), check_omega_cubed(op)])
    rank, rank_sq = omega_rank_profile(op)
    payload = {
        "algebra": A.label,
        "bimodule": args.bimodule,
        "dim": V.dim,
        "checks": checks.to_json(),
        "rank": rank,
        "rank_squared": rank_sq,
        "omega": op.to_json(),
    }
    return checks.passed, "pass" if checks.passed else "fail", payload


def _cmd_audit(args, A: Algebra) -> tuple[bool, str, dict]:
    names = [t.strip() for t in args.triple.split(",")]
    if len(names) != 3:
        raise ParseError(f"--triple needs three entries, got {args.triple!r}")
    cert, (M, N, P) = _solve(args, A, names)
    report = audit_braiding(cert, M, N, P)
    payload = {"algebra": A.label, "triple": names, "checks": report.to_json()}
    return report.passed, "pass" if report.passed else "fail", payload


# -- entry point -----------------------------------------------------------


class _UsageError(Exception):
    """A command line that the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of printing usage and exiting; the
    subcommand parsers inherit this class."""

    def error(self, message):
        raise _UsageError(message)


# name: (help, handler, arguments after the common ones)
_COMMANDS = {
    "validate": ("check associativity and the unit laws", _cmd_validate, ()),
    "solve": ("compute the canonical R-matrix", _cmd_solve, ()),
    "verify": ("verify a stored R-matrix against all axioms", _cmd_verify, (
        ("rmatrix", {"help": "tensor, certificate or solve-report JSON file"}),)),
    "classify": ("central-simplicity oracles + solver cross-check", _cmd_classify, ()),
    "ybe": ("build the Yang-Baxter operator and check it", _cmd_ybe, (
        ("--bimodule", {"default": "regular",
                        "help": f"one of {BIMODULE_CHOICES} (default: regular)"}),)),
    "audit": ("audit the braiding on a triple of bimodules", _cmd_audit, (
        ("--triple", {"default": "regular,regular,regular",
                      "help": f"three of {BIMODULE_CHOICES}, comma separated"}),)),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; given `command`, only that subcommand's.

    `main` passes the first argument when it names a subcommand.  The
    top-level parser takes it as the subcommand and hands every later
    argument to that subparser, so the other five are never consulted
    and the answer (namespace, usage error or help text) is the full
    parser's.  Building one subparser instead of six is most of the
    per-call argparse cost.
    """
    parser = _Parser(
        prog="rbraid",
        description="Exact canonical R-matrices for structure-constant algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, extra) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="algebra definition file (JSON)")
        p.add_argument("--out", help="write the report to FILE (atomically)")
        p.add_argument("--pretty", action="store_true", help="indent the JSON report")
        p.add_argument("--force", action="store_true", help="lift the size caps")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _emit_error(command, message: str) -> int:
    error = {"command": command, "status": "error", "error": message}
    json.dump(error, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
    except _UsageError as exc:
        return _emit_error(None, f"usage: {exc}")
    try:
        started = time.perf_counter()
        spec, digest = _load_json(args.file)
        A = build_algebra_from_spec(spec)
        try:
            passed, status, payload = args.func(args, A)
        except _Infeasible:
            passed, status, payload = False, "infeasible", {"algebra": A.label}
        _emit({
            "command": args.command,
            "input_sha256": digest,
            "status": status,
            "payload": payload,
            "timing_ms": int((time.perf_counter() - started) * 1000),
        }, args)
        return 0 if passed else 1
    except RBraidError as exc:
        # input errors speak for themselves; any other error names its type
        if isinstance(exc, (ParseError, UnsupportedSize)):
            message = str(exc)
        else:
            message = f"{type(exc).__name__}: {exc}"
        return _emit_error(args.command, message)
    except Exception as exc:  # a defect: still one JSON object and exit 2
        return _emit_error(args.command, f"internal error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
