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
import re
import sys
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from . import __version__, polyoracle
from .errors import InvalidInput, NotAContraction, NumericalFailure
from .exact import _DIGIT_CAP, _MAX_DIGITS
from .tolerances import TolerancePolicy

if TYPE_CHECKING:
    from . import bc_core, contraction, forms, regularity

_TOOL = {"name": "bca", "version": __version__}
_quote = json.encoder.encode_basestring_ascii  # what json.dumps writes for a str


class FileFormatError(InvalidInput):
    """Input file does not match the documented schema; names the field."""


# ---------------------------------------------------------------------------
# deterministic serialization


_KINDS = (type(None), bool, int, float, str, Fraction, list, tuple, dict)  # the types the writer knows


def dumps_deterministic(obj, indent: int = 0) -> str:
    """JSON text with insertion-order keys and fixed float formatting."""
    kind = type(obj)
    if kind not in _KINDS:  # a subclass is written as the first of them it is an instance of
        kind = next((base for base in _KINDS if isinstance(obj, base)), None)
    if kind is float:
        return format(float(obj), ".17g")
    if kind is str or kind is Fraction:
        return _quote(str(obj))
    if kind is list or kind is tuple:
        return "[" + ", ".join([dumps_deterministic(v, indent) for v in obj]) + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = "  " * (indent + 1)
        parts = [f"{inner}{_quote(str(k))}: {dumps_deterministic(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"
    if kind is int:  # written as json.dumps writes them
        return int.__repr__(obj)
    if kind is bool or obj is None:
        return "null" if obj is None else ("false", "true")[obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _flatten_text(obj, path: str, lines: list[str]) -> None:
    """One ``path = value`` line per leaf: a dict's values by key, and the
    items of a nonempty list of dicts by index, as in ``conditions[0].a``."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten_text(value, f"{path}.{key}" if path else str(key), lines)
    elif isinstance(obj, list) and obj and all(isinstance(item, dict) for item in obj):
        for index, item in enumerate(obj):
            _flatten_text(item, f"{path}[{index}]", lines)
    else:
        lines.append(f"{path} = {dumps_deterministic(obj)}")


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


# A number string: sign, integer part, then a denominator or a fractional
# part and an exponent.  This is the grammar of Fraction strings before
# Python 3.11 (later ones also take underscores, and 3.12 spaces around /).
_NUMBER = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?)(\d+))?)\s*")


def _field(where: str, indices) -> str:
    """The name of a field: ``where``, then each index in brackets."""
    return where + "".join(f"[{i}]" for i in indices)


def _ratio(numerator: int, denominator: int) -> tuple[Fraction, float] | None:
    """The ratio and its double (int true division rounds correctly), or None over the cap."""
    part = Fraction(numerator, denominator)
    return None if max(abs(part.numerator), part.denominator) >= _DIGIT_CAP else (part, numerator / denominator)


def _parse_string(value: str, where: str, *indices: int) -> tuple[Fraction, float] | None:
    """The exact value of a number string and its double, or None if it is
    over the cap.

    Zeros that carry no value are dropped first: leading zeros of the
    integer part, the denominator and the exponent, and trailing zeros of
    the fractional part.  Then a digit run longer than _MAX_DIGITS is over
    the cap, and so is an exponent past 2 _MAX_DIGITS, where any nonzero
    mantissa within the limit leaves a part over the cap (even on a zero).
    Both are judged on the string, before 10^e is expanded."""
    match = _NUMBER.fullmatch(value)
    if not match or match[3] is not None and not match[3].lstrip("0"):  # no number, or over 0
        shown = repr(value[:40]) + (f" ({len(value)} characters)" if len(value) > 40 else "")
        raise FileFormatError(f"{_field(where, indices)}: bad rational string {shown}")
    sign, whole, den, frac, exp_sign, exp = match.groups()
    whole, den = whole.lstrip("0"), (den or "1").lstrip("0")
    if frac is None and exp is None:  # "p" or "p/q": two runs within the cap keep its value within it
        if max(len(whole), len(den)) > _MAX_DIGITS:
            return None
        numerator, denominator = int(sign + (whole or "0")), int(den)
        return Fraction(numerator, denominator), numerator / denominator
    frac, exp = (frac or "").rstrip("0"), (exp or "").lstrip("0")
    if max(len(whole), len(frac), len(exp)) > _MAX_DIGITS or int(exp or 0) > 2 * _MAX_DIGITS:
        return None
    shift = (-1 if exp_sign == "-" else 1) * int(exp or 0) - len(frac)
    numerator = (int(whole or 0) * 10 ** len(frac) + int(frac or 0)) * 10 ** max(shift, 0)
    return _ratio(-numerator if sign == "-" else numerator, 10 ** max(-shift, 0))


def _parse_part(value, where: str, *indices: int) -> tuple[Fraction | float, float]:
    """A real number of the input, exactly, and its nearest double: a double
    is its own exact value, and ints and "p/q" strings convert to Fraction
    without rounding.  A string is judged by its value, so zeros that carry
    no value count toward no limit.  The field, ``where`` indexed by
    ``indices``, is named only in an error."""
    if isinstance(value, float) and math.isfinite(value):  # a double is in range and far inside the cap
        value += 0.0  # drops a zero's sign, as Fraction does
        return value, value
    problem = "value must be finite" if isinstance(value, float) else "expected a number or 'p/q' string"
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        problem = f"exact value has more than {_MAX_DIGITS} digits"
        try:
            parsed = _parse_string(value, where, *indices) if isinstance(value, str) else _ratio(value, 1)
            if parsed is not None:
                return parsed
        except OverflowError:
            problem = "value out of double range"
    raise FileFormatError(f"{_field(where, indices)}: {problem}")


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


def _parse_values(values, m: int, where: str, exact: list) -> list[complex]:
    """The m [re, im] values as complex doubles; each one's exact pair is appended to ``exact``."""
    if not isinstance(values, list) or len(values) != m:
        raise FileFormatError(f"{where}: expected a list of {m} values")
    doubles = []
    for k, value in enumerate(values):
        if not isinstance(value, list) or len(value) != 2:
            raise FileFormatError(f"{where}[{k}]: complex values are [re, im] pairs")
        (re, re_double), (im, im_double) = _parse_part(value[0], where, k, 0), _parse_part(value[1], where, k, 1)
        exact.append((re, im))
        doubles.append(complex(re_double, im_double))
    return doubles


def parse_condition_data(data: dict) -> bc_core.BoundaryConditionSystem:
    """The system of a conditions file; it keeps the exact coefficients
    next to their doubles, so the exact oracle sees the input's rationals.
    A file of doubles only passes none: its doubles are the data."""
    m = _parse_order(data)
    conditions = data.get("conditions")
    if not isinstance(conditions, list) or len(conditions) != m:
        raise FileFormatError(f"conditions: expected a list of {m} rows")
    exact, rounded = [], []
    for j, row in enumerate(conditions):
        where = f"conditions[{j}]"
        if not isinstance(row, dict):
            raise FileFormatError(f"{where}: expected an object with 'a' and 'b'")
        exact.append([])
        rounded.append([z for half in "ab" for z in _parse_values(row.get(half), m, f"{where}.{half}", exact[-1])])
    for j, (exact_row, row) in enumerate(zip(exact, rounded)):
        if any(re or im for re, im in exact_row) and not any(row):
            raise FileFormatError(f"conditions[{j}]: nonzero row underflows to zero as doubles")
    if all(type(re) is type(im) is float for exact_row in exact for re, im in exact_row):
        exact = None
    from . import bc_core
    return bc_core.BoundaryConditionSystem(m, rounded, exact=exact)


def parse_contraction_data(data: dict) -> contraction.ContractionParametrization:
    """The contraction of a V file; V is parsed before numpy is imported."""
    m = _parse_order(data)
    rows = data.get("V")
    if "V" in data and rows is None:  # what to-contraction writes for a system that is not dissipative
        raise FileFormatError("V: null: the system is not dissipative, so it has no contraction")
    if not isinstance(rows, list) or len(rows) != m:
        raise FileFormatError(f"V: expected a list of {m} rows")
    matrix = [_parse_values(row, m, f"V[{j}]", []) for j, row in enumerate(rows)]
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
            return contraction.from_contraction(parametrization)
        return parse_condition_data(data)

    @cached_property
    def normalized(self) -> bc_core.NormalizedSystem:
        from . import bc_core
        return bc_core.normalize(self.system, self.tol)

    @cached_property
    def span(self) -> tuple[tuple[int, ...], regularity.RegularityReport]:
        """The orders of the minimal form and the regularity report."""
        from . import regularity
        return regularity.span_verdict(self.system, self.tol)

    @cached_property
    def diss(self) -> forms.DissipativityVerdict:
        from . import forms
        return forms.dissipativity_verdict(self.system, self.tol)

    @cached_property
    def contraction_matrix(self) -> list | None:
        """V as [re, im] pairs, None for a system that is not dissipative."""
        if not self.diss.dissipative:
            return None
        from . import contraction
        con = contraction.to_contraction(self.system, self.tol, verdict=self.diss)
        # entries below 1e-12 are flushed for report readability only
        return [[_complex_pair(z if abs(z) >= 1e-12 else 0.0) for z in row] for row in con.V]


def _input_section(s: _Subject) -> dict:
    m = s.system.m  # parses, and so rejects, the file before it is hashed
    return {"input": {"digest": hashlib.sha256(s.raw).hexdigest(), "m": m}}


def _fields(obj) -> dict:  # a dataclass's fields by name, in order, not copied as dataclasses.asdict copies them
    return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}


def _thetas_section(s: _Subject) -> dict:
    """The regularity report without its verdicts, in field order."""
    fields = _fields(s.span[1])
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
                "samples": s.args.samples,
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
    "tolerances": lambda s: {"tolerances": _fields(s.tol)},
    "m": lambda s: {"m": s.args.m},
    "sampling": lambda s: {"samples": s.args.samples, "seed": s.args.seed},
    "orders": lambda s: {"orders": list(s.span[0])},
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
        "orders": list(s.normalized.orders),
    },
}
_VERDICTS = {
    "dissipative": lambda s: s.diss.dissipative,
    "selfadjoint": lambda s: s.diss.selfadjoint,
    "regular": lambda s: s.span[1].regular,
    "regular_strict": lambda s: s.span[1].regular_strict,
}
# The sections of each subcommand's report, in output order; a tuple is
# the "verdicts" section with those keys.
_REPORTS = {
    "check": (
        "header", "input", "tolerances", "sampling", "orders",
        ("dissipative", "selfadjoint", "regular", "regular_strict"),
        "gram", "thetas", "contraction", "oracle",
    ),
    "normalize": ("normalized", "tolerances"),
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
# The flags each section reads: their argparse settings and, for an
# integer, its name in an error and its bounds, which a report checks before
# it runs any analysis.  A subcommand takes the flags of its report's sections.
_SAMPLING = {
    "--seed": ({"type": int, "default": 0, "help": "oracle sampling seed"}, None),
    "--samples": ({"type": int, "default": 25, "help": "oracle sample count"}, ("sample count", 1, math.inf)),
}
_FLAGS = {
    "tolerances": {
        "--tol": (
            {"type": float, "help": "set all three relative tolerances (default: the built-ins)"}, None,
        ),
    },
    "m": {
        "--m": ({"type": int, "required": True, "help": "differential order"}, ("order", 1, polyoracle.MAX_ORDER)),
    },
    "sampling": _SAMPLING,
    "oracle": _SAMPLING,
}


def _flags(command: str) -> dict:
    """The flags of a subcommand's sections, in report order, each once."""
    return {flag: spec for section in _REPORTS[command] for flag, spec in _FLAGS.get(section, {}).items()}


def _build_report(args) -> dict:
    """The report of the subcommand ``args.command``, section by section.
    Its flags are checked, and ``--tol`` made its policy, before any analysis."""
    value = getattr(args, "tol", None)  # None where --tol is not given or not taken
    try:  # the +0.0 folds a negative zero into a plain zero
        tol = TolerancePolicy() if value is None else TolerancePolicy(value + 0.0, value + 0.0, value + 0.0)
    except InvalidInput as exc:
        raise FileFormatError(f"--tol: {exc}") from exc
    for flag, (_, limits) in _flags(args.command).items():
        value = getattr(args, flag[2:])
        if limits and not limits[1] <= value <= limits[2]:
            what, low, high = limits
            bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
            raise FileFormatError(f"{flag}: {what} must be {bounds}, got {value}")
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
    parser = argparse.ArgumentParser(
        prog="bca",
        description="Dissipativity, self-adjointness and Birkhoff-regularity "
        "analysis for boundary conditions of (-i)^m y^(m) on [0, 1].",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _REPORTS:
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("json", "text"), default="json", help="output format")
        if name == "example":
            p.add_argument("--name", required=True, help="example family name")
            p.add_argument("--n", type=int, required=True, help="family parameter (m = 2n-1)")
        elif name != "verify":
            p.add_argument("file", help="input JSON file")
        for flag, (settings, _) in _flags(name).items():
            p.add_argument(flag, **settings)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        report = _build_report(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(render_report(report, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
