"""Command-line front end.

Reads boundary-condition files (JSON), runs verdicts and exact-oracle
verifications, and emits deterministic reports: fixed key order, floats
serialized with 17 significant digits, exact rationals as strings.
Running the same command on the same input twice produces byte-identical
output.

Exit codes: 0 = ran and the verdict is in the report, 2 = invalid input,
3 = internal numerical failure.

numpy and the float layers are imported where a parser or section first
needs them, so ``verify`` never loads numpy.  Calls go through the module
(``bc_core.normalize``), so a function replaced on it is the one called.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from . import __version__, polyoracle
from .errors import InvalidInput, NotAContraction, NumericalFailure
from .tolerances import TolerancePolicy

if TYPE_CHECKING:
    from . import bc_core, contraction, forms, regularity

_TOOL = {"name": "bca", "version": __version__}


class FileFormatError(InvalidInput):
    """Input file does not match the documented schema; names the field."""


# ---------------------------------------------------------------------------
# deterministic serialization


def dumps_deterministic(obj, indent: int = 0) -> str:
    """JSON text with insertion-order keys and fixed float formatting."""
    pad = "  " * indent
    if obj is None or isinstance(obj, int):  # bool is an int
        return json.dumps(obj)
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    if isinstance(obj, (str, Fraction)):
        return json.dumps(str(obj))
    if isinstance(obj, (list, tuple)):
        items = [dumps_deterministic(v, indent) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        inner = "  " * (indent + 1)
        parts = [
            f"{inner}{json.dumps(str(k))}: {dumps_deterministic(v, indent + 1)}"
            for k, v in obj.items()
        ]
        if not parts:
            return "{}"
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _flatten_text(obj, prefix: str, lines: list[str]) -> None:
    if not isinstance(obj, dict):
        lines.append(f"{prefix[:-1]} = {dumps_deterministic(obj)}")
        return
    for key, value in obj.items():
        _flatten_text(value, f"{prefix}{key}.", lines)


def render_report(report: dict, fmt: str) -> str:
    """The report's text.  Exact values print in full: Python's limit on
    the digits of an int-to-str conversion (3.10.7 on) is lifted while it
    renders, then restored."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            return dumps_deterministic(report) + "\n"
        lines: list[str] = []
        _flatten_text(report, "", lines)
        return "\n".join(lines) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _complex_pair(z: complex) -> list[float]:
    # the +0.0 folds IEEE negative zeros into plain zeros
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


# ---------------------------------------------------------------------------
# input parsing


# An exact part's numerator and denominator have at most as many digits
# as Python's default limit allows an int string.
_MAX_DIGITS = 4300
_DIGIT_CAP = 10**_MAX_DIGITS
# A number string: sign, integer part, then a denominator or a fractional
# part and an exponent.  This is the grammar of Fraction strings before
# Python 3.11 (later ones also take underscores, and 3.12 spaces around /).
_NUMBER = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?)(\d+))?)\s*")


def _parse_string(value: str, where: str) -> Fraction | None:
    """The exact value of a number string, or None if it is over the cap.

    Zeros that carry no value are dropped first: leading zeros of the
    integer part, the denominator and the exponent, and trailing zeros of
    the fractional part.  Then a digit run longer than _MAX_DIGITS is over
    the cap, and so is an exponent past 2 _MAX_DIGITS, where any nonzero
    mantissa within the limit leaves a part over the cap (even on a zero).
    Both are judged on the string, before 10^e is expanded."""
    match = _NUMBER.fullmatch(value)
    if not match or match[3] is not None and not match[3].lstrip("0"):  # no number, or over 0
        shown = repr(value[:40]) + (f" ({len(value)} characters)" if len(value) > 40 else "")
        raise FileFormatError(f"{where}: bad rational string {shown}")
    sign, whole, den, frac, exp_sign, exp = match.groups()
    whole, den, exp = whole.lstrip("0"), (den or "1").lstrip("0"), (exp or "").lstrip("0")
    frac = (frac or "").rstrip("0")
    if max(len(whole), len(den), len(frac), len(exp)) > _MAX_DIGITS or int(exp or 0) > 2 * _MAX_DIGITS:
        return None
    shift = (-1 if exp_sign == "-" else 1) * int(exp or 0) - len(frac)
    numerator = (int(whole or 0) * 10 ** len(frac) + int(frac or 0)) * 10 ** max(shift, 0)
    return Fraction(-numerator if sign == "-" else numerator, int(den) * 10 ** max(-shift, 0))


def _parse_part(value, where: str) -> Fraction:
    """A real number of the input, exactly: ints, floats and "p/q" strings
    all convert to Fraction without rounding.  A string is judged by its
    value, so zeros that carry no value count toward no limit."""
    if isinstance(value, float) and not math.isfinite(value):
        raise FileFormatError(f"{where}: value must be finite")
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise FileFormatError(f"{where}: expected a number or 'p/q' string")
    part = _parse_string(value, where) if isinstance(value, str) else Fraction(value)
    if part is None or max(abs(part.numerator), part.denominator) >= _DIGIT_CAP:
        raise FileFormatError(f"{where}: exact value has more than {_MAX_DIGITS} digits")
    try:
        float(part)  # the float layers need its nearest double
    except OverflowError:
        raise FileFormatError(f"{where}: value out of double range") from None
    return part


def _parse_complex(value, where: str) -> tuple[Fraction, Fraction]:
    if not isinstance(value, list) or len(value) != 2:
        raise FileFormatError(f"{where}: complex values are [re, im] pairs")
    return _parse_part(value[0], f"{where}[0]"), _parse_part(value[1], f"{where}[1]")


def _rounded(rows) -> list[list[complex]]:
    """Exact (re, im) pairs rounded to the nearest doubles."""
    return [[complex(float(re), float(im)) for re, im in row] for row in rows]


def _load_json(raw: bytes, path: str) -> dict:
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also an int literal beyond the digit limit
        raise FileFormatError(f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path!r}: top-level value must be an object")
    return data


def _parse_order(data: dict) -> int:
    m = data.get("m")
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise FileFormatError("m: required positive integer")
    return m


def _parse_values(values, m: int, where: str) -> list[tuple[Fraction, Fraction]]:
    if not isinstance(values, list) or len(values) != m:
        raise FileFormatError(f"{where}: expected a list of {m} values")
    return [_parse_complex(value, f"{where}[{k}]") for k, value in enumerate(values)]


def parse_condition_data(data: dict) -> bc_core.BoundaryConditionSystem:
    """The system of a conditions file; it keeps the exact coefficients
    next to their doubles, so the exact oracle sees the input's rationals."""
    m = _parse_order(data)
    conditions = data.get("conditions")
    if not isinstance(conditions, list) or len(conditions) != m:
        raise FileFormatError(f"conditions: expected a list of {m} rows")
    exact = []
    for j, row in enumerate(conditions):
        where = f"conditions[{j}]"
        if not isinstance(row, dict):
            raise FileFormatError(f"{where}: expected an object with 'a' and 'b'")
        exact.append(
            _parse_values(row.get("a"), m, f"{where}.a") + _parse_values(row.get("b"), m, f"{where}.b")
        )
    rounded = _rounded(exact)
    for j, (exact_row, row) in enumerate(zip(exact, rounded)):
        if any(re or im for re, im in exact_row) and not any(row):
            raise FileFormatError(f"conditions[{j}]: nonzero row underflows to zero as doubles")
    from . import bc_core
    return bc_core.BoundaryConditionSystem(m, rounded, exact=exact)


def parse_contraction_data(data: dict) -> contraction.ContractionParametrization:
    """The contraction of a V file; V is parsed before numpy is imported."""
    m = _parse_order(data)
    rows = data.get("V")
    if not isinstance(rows, list) or len(rows) != m:
        raise FileFormatError(f"V: expected a list of {m} rows")
    matrix = _rounded(_parse_values(row, m, f"V[{j}]") for j, row in enumerate(rows))
    from . import contraction
    try:
        return contraction.ContractionParametrization(m=m, V=matrix)
    except NotAContraction as exc:
        raise FileFormatError(f"V: {exc}") from exc


def system_to_conditions(system: bc_core.BoundaryConditionSystem) -> list[dict]:
    return [
        {"a": [_complex_pair(z) for z in a], "b": [_complex_pair(z) for z in b]}
        for a, b in zip(system.a, system.b)
    ]


# ---------------------------------------------------------------------------
# report assembly


def generate_odd_irregular(n: int) -> bc_core.BoundaryConditionSystem:
    """The irregular dissipative family of odd order m = 2n - 1.

    Conditions: y^(k)(0) = y^(k)(1) = 0 for k = n..2n-2, plus
    y^(n-1)(1) = 0.  On the solution space the form value is
    |y^(n-1)(0)|^2 / 2, so the conditions are dissipative, while the
    constant Laurent coefficient of the boundary determinant vanishes.
    """
    if n < 1:
        raise FileFormatError(f"--n: family parameter must be >= 1, got {n}")
    m = 2 * n - 1
    if m > polyoracle.MAX_ORDER:  # an unbounded n would only exhaust memory
        raise FileFormatError(f"--n: family parameter must be <= {(polyoracle.MAX_ORDER + 1) // 2}, got {n}")
    import numpy as np
    from . import bc_core
    coeffs = np.zeros((m, 2 * m), dtype=np.complex128)
    row = 0
    for k in range(2 * n - 2, n - 1, -1):
        coeffs[row, k] = 1.0
        coeffs[row + 1, m + k] = 1.0
        row += 2
    coeffs[row, m + n - 1] = 1.0
    return bc_core.BoundaryConditionSystem(m, coeffs)


@dataclasses.dataclass
class _Subject:
    """The input of one subcommand and the analyses a report shows of it,
    each run on first use, so a report runs only what its sections need."""

    args: argparse.Namespace
    tol: TolerancePolicy

    @cached_property
    def raw(self) -> bytes:
        """The input file, read once: ``system`` parses these bytes and the
        input section hashes them."""
        try:
            with open(self.args.file, "rb") as handle:
                return handle.read()
        except OSError as exc:
            raise FileFormatError(f"cannot read {self.args.file!r}: {exc}") from exc

    @cached_property
    def system(self) -> bc_core.BoundaryConditionSystem:
        args = self.args
        if args.command == "example":
            if args.name != "odd-irregular":
                raise FileFormatError(f"--name: unknown example {args.name!r}")
            return generate_odd_irregular(args.n)
        data = _load_json(self.raw, args.file)
        if args.command == "from-contraction":
            parametrization = parse_contraction_data(data)
            from . import contraction
            return contraction.from_contraction(parametrization, self.tol)
        return parse_condition_data(data)

    @cached_property
    def normalized(self) -> bc_core.NormalizedSystem:
        from . import bc_core
        return bc_core.normalize(self.system, self.tol)

    @cached_property
    def diss(self) -> forms.DissipativityVerdict:
        from . import forms
        return forms.dissipativity_verdict(self.system, self.tol)

    @cached_property
    def reg(self) -> regularity.RegularityReport:
        from . import regularity
        return regularity.regularity_verdict(self.normalized, self.tol)

    @cached_property
    def contraction_matrix(self) -> list | None:
        """V as [re, im] pairs, None for a system that is not dissipative."""
        if not self.diss.dissipative:
            return None
        from . import contraction
        con = contraction.to_contraction(self.system, self.tol, verdict=self.diss)
        # entries below 1e-12 are flushed for report readability only
        return [[_complex_pair(z if abs(z) >= 1e-12 else 0.0) for z in row] for row in con.V]


def _check_int_flag(args, name: str, what: str, low: int, high: int | None = None) -> None:
    """Reject an out-of-range option ``--name`` with an error that names it."""
    value = getattr(args, name)
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise FileFormatError(f"--{name}: {what} must be {bounds}, got {value}")


def _input_section(s: _Subject) -> dict:
    m = s.system.m  # parses, and so rejects, the file before it is hashed
    return {"input": {"digest": hashlib.sha256(s.raw).hexdigest(), "m": m}}


def _thetas_section(s: _Subject) -> dict:
    """The regularity report without its verdicts, in field order."""
    fields = dataclasses.asdict(s.reg)
    del fields["regular"], fields["regular_strict"]
    return {
        "thetas": {
            key: _complex_pair(value) if isinstance(value, complex) else value
            for key, value in fields.items()
        }
    }


def _oracle_section(s: _Subject) -> dict:
    oracle = polyoracle.sample_dissipativity(s.system, s.args.samples, s.args.seed)
    return {
        "oracle": {
            "dissipativity": {
                "samples": oracle.samples,
                "seed": s.args.seed,
                "all_nonnegative": oracle.all_nonnegative,
                "min_value": oracle.min_value,
            }
        }
    }


def _identities_section(s: _Subject) -> dict:
    m, samples, seed = s.args.m, s.args.samples, s.args.seed
    boundary, canonical = polyoracle.verify_identities(m, samples, seed)
    return {
        "boundary_form": {"passed": boundary.passed, "max_defect": boundary.max_defect},
        "canonical_coordinates": {"passed": canonical.passed, "max_defect": canonical.max_defect},
    }


_SECTIONS = {
    "header": lambda s: {"tool": _TOOL, "command": s.args.command},
    "input": _input_section,
    "tolerances": lambda s: {"tolerances": dataclasses.asdict(s.tol)},
    "m": lambda s: {"m": s.args.m},
    "sampling": lambda s: {"samples": s.args.samples, "seed": s.args.seed},
    "orders": lambda s: {"orders": list(s.normalized.orders)},
    "gram": lambda s: {"gram_eigenvalues": [float(v) for v in s.diss.gram_eigenvalues]},
    "thetas": _thetas_section,
    "contraction": lambda s: {
        "contraction": {"m": s.system.m, "V": s.contraction_matrix} if s.diss.dissipative else None
    },
    "contraction-file": lambda s: {
        "dissipative": s.diss.dissipative,
        "m": s.system.m,
        "V": s.contraction_matrix,
    },
    "oracle": _oracle_section,
    "identities": _identities_section,
    "conditions": lambda s: {"m": s.system.m, "conditions": system_to_conditions(s.system)},
    "normalized": lambda s: {
        "m": s.system.m,
        "conditions": system_to_conditions(s.normalized.base),
    },
}
# The integer flags each section reads, with their bounds; a report checks
# them all before it runs any analysis.
_INT_FLAGS = {
    "oracle": (("samples", "sample count", 1),),
    "identities": (("m", "order", 1, polyoracle.MAX_ORDER), ("samples", "sample count", 1)),
}
_VERDICTS = {
    "dissipative": lambda s: s.diss.dissipative,
    "selfadjoint": lambda s: s.diss.selfadjoint,
    "regular": lambda s: s.reg.regular,
    "regular_strict": lambda s: s.reg.regular_strict,
}
# The sections of each subcommand's report, in output order; a tuple is
# the "verdicts" section with those keys.
_REPORTS = {
    "check": (
        "header", "input", "tolerances", "sampling", "orders",
        ("dissipative", "selfadjoint", "regular", "regular_strict"),
        "gram", "thetas", "contraction", "oracle",
    ),
    "normalize": ("normalized", "orders", "tolerances"),
    "dissipative": (
        "header", "input", "tolerances", ("dissipative", "selfadjoint"), "gram", "oracle",
    ),
    "selfadjoint": ("header", "input", "tolerances", ("selfadjoint",)),
    "regular": ("header", "input", "tolerances", "orders", ("regular", "regular_strict"), "thetas"),
    "to-contraction": ("header", "input", "tolerances", "contraction-file"),
    "from-contraction": (
        "header", "input", "tolerances", "conditions", ("dissipative", "selfadjoint"),
    ),
    "verify": ("header", "m", "sampling", "identities"),
    "example": ("conditions",),
}


def _build_report(args, tol: TolerancePolicy) -> dict:
    """The report of the subcommand ``args.command``, section by section."""
    for section in _REPORTS[args.command]:
        for flag in _INT_FLAGS.get(section, ()):
            _check_int_flag(args, *flag)
    subject = _Subject(args, tol)
    report: dict = {}
    for section in _REPORTS[args.command]:
        if isinstance(section, tuple):
            report["verdicts"] = {key: _VERDICTS[key](subject) for key in section}
        else:
            report.update(_SECTIONS[section](subject))
    return report


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override all relative tolerances (default: BCA_TOL or built-ins)",
    )
    common.add_argument("--seed", type=int, default=0, help="oracle sampling seed")
    common.add_argument(
        "--samples", type=int, default=25, help="oracle sample count"
    )

    parser = argparse.ArgumentParser(
        prog="bca",
        description="Dissipativity, self-adjointness and Birkhoff-regularity "
        "analysis for boundary conditions of (-i)^m y^(m) on [0, 1].",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _REPORTS:
        p = sub.add_parser(name, parents=[common])
        if name == "verify":
            p.add_argument("--m", type=int, required=True, help="differential order")
        elif name == "example":
            p.add_argument("--name", required=True, help="example family name")
            p.add_argument("--n", type=int, required=True, help="family parameter (m = 2n-1)")
        else:
            p.add_argument("file", help="input JSON file")
    return parser


def _resolve_tolerances(args) -> TolerancePolicy:
    value, source = args.tol, "--tol"
    if value is None:
        value, source = os.environ.get("BCA_TOL"), "BCA_TOL"
    if value is None:
        return TolerancePolicy()
    try:
        value = float(value)
        return TolerancePolicy(definiteness_tol=value, rank_tol=value, zero_tol=value)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        tol = _resolve_tolerances(args)
        report = _build_report(args, tol)
    except ValueError as exc:  # every InvalidInput is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(render_report(report, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
