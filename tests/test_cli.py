import builtins
import collections
import enum
import hashlib
import io
import json
import math
import random
import re
import struct
import sys
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction

import numpy as np
import pytest

import helpers
from bca import bc_core, cli, contraction, exact, numerics, polyoracle, regularity
from bca.cli import _DIGIT_CAP, _MAX_DIGITS, _NUMBER, FileFormatError, _field, main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_parser_exit(argv):
    """(exit code, stdout, stderr) of a command line the parser rejects."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


DIRICHLET = {
    "m": 2,
    "conditions": [
        {"a": [[1, 0], [0, 0]], "b": [[0, 0], [0, 0]]},
        {"a": [[0, 0], [0, 0]], "b": [[1, 0], [0, 0]]},
    ],
}


def dirichlet_input(tmp_path, command):
    """The Dirichlet file, or for ``from-contraction`` the V file that ``to-contraction`` writes of it."""
    path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
    if command == "from-contraction":
        _, v_text, _ = run_cli(["to-contraction", path])
        path = write_json(tmp_path / "v.json", json.loads(v_text))
    return path


LEFT_END = {"m": 1, "conditions": [{"a": [[1, 0]], "b": [[0, 0]]}]}


class TestCheck:
    def test_dirichlet_report(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, out, err = run_cli(["check", path])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdicts"] == {
            "dissipative": True,
            "selfadjoint": True,
            "regular": True,
            "regular_strict": True,
        }
        assert report["orders"] == [0, 0]
        assert report["oracle"]["dissipativity"]["all_nonnegative"] is True
        assert report["tolerances"]["definiteness_tol"] == 1e-9

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    @pytest.mark.parametrize("command", ["check", "dissipative"])
    def test_exact_values_beyond_the_digit_limit_print_in_full(self, tmp_path, command):
        # every part is within the cap, but min_value has over 9,000 digits
        tiny = {"m": 2, "conditions": [
            {"a": [["1", "1e-3000"], ["1e-3000", "0"]], "b": [["3e-3000", 0], [0, "1"]]},
            {"a": [["1e-3000", "2"], [0, 0]], "b": [[1, "7e-3000"], ["1e-3000", 0]]},
        ]}
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli([command, write_json(tmp_path / "tiny.json", tiny)])
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        printed = json.loads(out)["oracle"]["dissipativity"]["min_value"]
        expected = polyoracle.sample_dissipativity(cli.parse_condition_data(tiny), 25, 0).min_value
        assert len(printed.partition("/")[0]) > limit
        sys.set_int_max_str_digits(0)
        try:
            assert printed == str(expected)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_row_near_double_range_is_factored(self, tmp_path):
        # the row's 2-norm overflows a double; the SVD sees it scaled
        huge = {"m": 1, "conditions": [{"a": [["1e308", "0"]], "b": [["1.7e308", "0"]]}]}
        small = {"m": 1, "conditions": [{"a": [["1", "0"]], "b": [["1.7", "0"]]}]}
        code, out, err = run_cli(["check", write_json(tmp_path / "huge.json", huge)])
        assert code == 0 and err == ""
        report = json.loads(out)
        _, small_out, _ = run_cli(["check", write_json(tmp_path / "small.json", small)])
        assert report["verdicts"] == json.loads(small_out)["verdicts"]
        assert report["verdicts"]["dissipative"] is True
        assert report["oracle"]["dissipativity"]["all_nonnegative"] is True

    def test_subnormal_row_is_normalized(self, tmp_path):
        # 1 / (largest |entry|) of this row overflows a double
        tiny = {"m": 1, "conditions": [{"a": [["1e-320", "0"]], "b": [["3e-320", "1e-321"]]}]}
        code, out, err = run_cli(["check", write_json(tmp_path / "tiny.json", tiny)])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["orders"] == [0]
        assert report["verdicts"]["dissipative"] is True
        assert report["oracle"]["dissipativity"]["all_nonnegative"] is True

    def test_row_underflowing_to_zero_names_field(self, tmp_path):
        # |b| > |a| exactly, but both round to 0.0
        lost = {"m": 1, "conditions": [{"a": [["1e-400", "0"]], "b": [["2e-400", "0"]]}]}
        code, out, err = run_cli(["check", write_json(tmp_path / "lost.json", lost)])
        assert code == 2 and out == ""
        assert err == "error: conditions[0]: nonzero row underflows to zero as doubles\n"

    def test_one_underflowing_entry_is_accepted(self, tmp_path):
        payload = {
            "m": 2,
            "conditions": [
                {"a": [["1e-400", "0"], [1, 0]], "b": [[0, 0], [0, 0]]},
                {"a": [[0, 0], [0, 0]], "b": [[1, 0], [0, 0]]},
            ],
        }
        code, out, _ = run_cli(["check", write_json(tmp_path / "one.json", payload)])
        assert code == 0
        assert json.loads(out)["orders"] == [1, 0]

    def test_example_then_check(self, tmp_path):
        code, out, _ = run_cli(["example", "--name", "odd-irregular", "--n", "2"])
        assert code == 0
        path = tmp_path / "example.json"
        path.write_text(out)
        code, out, _ = run_cli(["check", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["dissipative"] is True
        assert report["verdicts"]["regular"] is False
        theta_0 = complex(*report["thetas"]["theta_0"])
        assert abs(theta_0) <= 1e-10 * report["thetas"]["scale"]

    def test_non_dissipative_still_exits_zero(self, tmp_path):
        path = write_json(tmp_path / "left.json", LEFT_END)
        code, out, _ = run_cli(["check", path])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["dissipative"] is False
        assert report["contraction"] is None
        assert report["oracle"]["dissipativity"]["all_nonnegative"] is False

    def test_byte_identical_runs(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        for fmt in ("json", "text"):
            _, first, _ = run_cli(["check", path, "--format", fmt])
            _, second, _ = run_cli(["check", path, "--format", fmt])
            assert first == second

    def test_text_format(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, out, _ = run_cli(["check", path, "--format", "text"])
        assert code == 0
        assert "verdicts.dissipative = true" in out
        assert "tolerances.zero_tol" in out

    def test_even_order_quasi_periodic(self, tmp_path):
        # y^(k)(1) = i y^(k)(0) for k = 0..3: self-adjoint and regular
        payload = {
            "m": 4,
            "conditions": [
                {
                    "a": [[0, -1] if j == k else [0, 0] for j in range(4)],
                    "b": [[1, 0] if j == k else [0, 0] for j in range(4)],
                }
                for k in range(4)
            ],
        }
        path = write_json(tmp_path / "qp4.json", payload)
        code, out, _ = run_cli(["check", path])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {
            "dissipative": True,
            "selfadjoint": True,
            "regular": True,
            "regular_strict": True,
        }
        assert report["orders"] == [3, 2, 1, 0]
        thetas = report["thetas"]
        assert abs(complex(*thetas["theta_0"])) <= 1e-10 * thetas["scale"]
        assert abs(complex(*thetas["theta_minus1"]) - 16) <= 1e-10 * thetas["scale"]
        assert abs(complex(*thetas["theta_1"]) - 16) <= 1e-10 * thetas["scale"]
        assert report["oracle"]["dissipativity"]["min_value"] == "0"

    def test_rational_strings_accepted(self, tmp_path):
        payload = {
            "m": 1,
            "conditions": [{"a": [["0", 0]], "b": [["1/2", "-3/4"]]}],
        }
        path = write_json(tmp_path / "rational.json", payload)
        code, out, _ = run_cli(["check", path])
        assert code == 0
        assert json.loads(out)["verdicts"]["dissipative"] is True

    def test_rational_strings_reach_the_oracle_exactly(self, tmp_path):
        # y(0) = (3/5 + 4/5 i) y(1) is exactly self-adjoint; the nearest
        # doubles of 3/5 and 4/5 are not on the unit circle
        payload = {"m": 1, "conditions": [{"a": [["1", "0"]], "b": [["-3/5", "-4/5"]]}]}
        path = write_json(tmp_path / "quasi.json", payload)
        code, out, _ = run_cli(["check", path])
        assert code == 0
        assert json.loads(out)["oracle"]["dissipativity"]["min_value"] == "0"


    def test_input_file_read_once(self, tmp_path, monkeypatch):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out, _ = run_cli(["check", path, "--samples", "1"])
        assert code == 0 and opened.count(path) == 1
        with real_open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert json.loads(out)["input"]["digest"] == digest


class TestNormalize:
    def test_fixed_point(self, tmp_path):
        messy = {
            "m": 2,
            "conditions": [
                {"a": [[1, 0], [1, 0]], "b": [[0, 0], [1, 0]]},
                {"a": [[0, 0], [1, 0]], "b": [[0, 0], [1, 0]]},
            ],
        }
        path = write_json(tmp_path / "messy.json", messy)
        code, first, _ = run_cli(["normalize", path])
        assert code == 0
        report = json.loads(first)
        assert sorted(report["orders"], reverse=True) == report["orders"]
        again = tmp_path / "normalized.json"
        again.write_text(first)
        code, second, _ = run_cli(["normalize", str(again)])
        assert code == 0
        assert first == second

    def test_output_is_reloadable(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        _, out, _ = run_cli(["normalize", path])
        assert json.loads(out)["tolerances"]["zero_tol"] == 1e-10
        again = tmp_path / "normalized.json"
        again.write_text(out)
        code, _, _ = run_cli(["check", str(again)])
        assert code == 0


class TestFocusedCommands:
    def test_dissipative_command(self, tmp_path):
        path = write_json(tmp_path / "left.json", LEFT_END)
        code, out, _ = run_cli(["dissipative", path])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "dissipative"
        assert report["verdicts"]["dissipative"] is False

    def test_selfadjoint_command(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, out, _ = run_cli(["selfadjoint", path])
        assert code == 0
        assert json.loads(out)["verdicts"]["selfadjoint"] is True

    def test_regular_command(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, out, _ = run_cli(["regular", path])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {"regular": True, "regular_strict": True}
        assert complex(*report["thetas"]["theta_minus1"]) == pytest.approx(1.0)


class TestContractionCommands:
    def test_file_roundtrip(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, out, _ = run_cli(["to-contraction", path])
        assert code == 0
        vfile = tmp_path / "v.json"
        vfile.write_text(out)
        code, out, _ = run_cli(["from-contraction", str(vfile)])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["dissipative"] is True
        rebuilt = tmp_path / "rebuilt.json"
        rebuilt.write_text(out)
        code, out, _ = run_cli(["selfadjoint", str(rebuilt)])
        assert code == 0
        assert json.loads(out)["verdicts"]["selfadjoint"] is True

    def test_to_contraction_on_non_dissipative(self, tmp_path):
        path = write_json(tmp_path / "left.json", LEFT_END)
        code, out, _ = run_cli(["to-contraction", path])
        assert code == 0
        report = json.loads(out)
        assert report["dissipative"] is False
        assert report["V"] is None

    def test_one_dissipativity_verdict_per_report(self, tmp_path, monkeypatch):
        from bca import forms

        calls = []
        verdict = forms.dissipativity_verdict
        monkeypatch.setattr(forms, "dissipativity_verdict", lambda *args: calls.append(args) or verdict(*args))
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        vfile = tmp_path / "v.json"
        for argv in (["check", path, "--samples", "2"], ["to-contraction", path], ["from-contraction", str(vfile)]):
            calls.clear()
            code, out, _ = run_cli(argv)
            assert code == 0 and len(calls) == 1, argv
            if argv[0] == "to-contraction":
                vfile.write_text(out)

    def test_from_contraction_names_a_null_contraction(self, tmp_path):
        # to-contraction writes "V": null for a system that is not dissipative
        path = write_json(tmp_path / "left.json", LEFT_END)
        _, v_text, _ = run_cli(["to-contraction", path])
        code, out, err = run_cli(["from-contraction", write_json(tmp_path / "v.json", json.loads(v_text))])
        assert code == 2 and out == ""
        assert err == "error: V: null: the system is not dissipative, so it has no contraction\n"

    def test_from_contraction_rejects_expansion(self, tmp_path):
        vfile = write_json(tmp_path / "v.json", {"m": 1, "V": [[[2, 0]]]})
        code, out, err = run_cli(["from-contraction", vfile])
        assert code == 2 and out == ""
        assert err == "error: V: operator norm 2.0 exceeds 1\n"


class TestVerify:
    def test_verify_m3(self):
        code, out, _ = run_cli(["verify", "--m", "3", "--samples", "10", "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["boundary_form"] == {"passed": True, "max_defect": "0"}
        assert report["canonical_coordinates"] == {"passed": True, "max_defect": "0"}

    def test_verify_top_order(self):
        code, out, _ = run_cli(["verify", "--m", "16", "--samples", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["boundary_form"] == {"passed": True, "max_defect": "0"}
        assert report["canonical_coordinates"] == {"passed": True, "max_defect": "0"}


class TestParser:
    def test_main_builds_no_parser(self, monkeypatch):
        def fail():
            raise AssertionError("the parser is built once, at import")

        monkeypatch.setattr(cli, "_build_parser", fail)
        for seed in ("1", "2"):
            code, out, _ = run_cli(["verify", "--m", "2", "--samples", "1", "--seed", seed])
            assert code == 0
            assert json.loads(out)["seed"] == int(seed)


class TestSubcommandFlags:
    """Each subcommand takes --format, its input and the flags its report's sections read."""

    OPTIONS = {
        "check": ["--format", "--tol", "--seed", "--samples"],
        "dissipative": ["--format", "--tol", "--seed", "--samples"],
        **{
            command: ["--format", "--tol"]
            for command in ("normalize", "selfadjoint", "regular", "to-contraction", "from-contraction")
        },
        "verify": ["--format", "--m", "--seed", "--samples"],
        "example": ["--format", "--name", "--n"],
    }
    # two values of each flag
    VALUES = {
        "--format": ("json", "text"),
        "--tol": ("1e-9", "1e-6"),
        "--seed": ("0", "7"),
        "--samples": ("2", "3"),
        "--m": ("2", "3"),
        "--n": ("2", "3"),
    }
    # the input flags, and a short run of verify, while another flag varies
    BASE = {"verify": {"--m": "2", "--samples": "1"}, "example": {"--name": "odd-irregular", "--n": "2"}}

    @staticmethod
    def help_options(command):
        """The option strings of the usage line of ``bca command --help``, in order."""
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit):
            main([command, "--help"])
        usage = out.getvalue().split("\n\n")[0]
        return re.findall(r"(?<![\w-])--[a-z]+", usage)

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_lists_the_flags_of_its_sections(self, command):
        assert self.help_options(command) == self.OPTIONS[command]

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_every_flag_changes_the_result(self, tmp_path, command):
        path = dirichlet_input(tmp_path, command)
        inputs = [] if command in self.BASE else [path]
        for flag in self.help_options(command):
            if flag == "--name":  # it has one valid value
                continue
            results = []
            for value in self.VALUES[flag]:
                flags = {**self.BASE.get(command, {}), flag: value}
                results.append(run_cli([command, *inputs, *[part for item in flags.items() for part in item]]))
            assert results[0][:2] != results[1][:2], (command, flag)


class TestParsePart:
    @pytest.mark.parametrize(
        "value",
        [0, -7, 2**53 + 1, 10**300, 0.1, -0.0, -2.5e-17, 1.7e308, 1e-310, 5e-324,
         "0", "1/3", "-22/7", "0.1", "-3.25e2", "9007199254740993", "1e-320", "2.5e-324", "1.7e308", "1e308",
         "-0.0"],
        ids=lambda value: f"{type(value).__name__}-{str(value)[:16]}",
    )
    def test_double_is_the_nearest_double_of_the_exact_value(self, value):
        part, double = cli._parse_part(value, "x")
        assert part == Fraction(value)
        assert type(double) is float and repr(double) == repr(float(part))  # no negative zero either

    def test_system_keeps_the_parsed_doubles(self):
        payload = {"m": 2, "conditions": [
            {"a": [["1/3", 0.1], [2, "-7/9"]], "b": [[-0.0, "1e-320"], ["3.25e2", 10**300]]},
            {"a": [[0, 1], ["1/7", 0]], "b": [[1.5, 2], [0, "22/7"]]},
        ]}
        system = cli.parse_condition_data(payload)
        assert system.coeffs.tolist() == [
            [complex(float(re), float(im)) for re, im in row] for row in system.exact
        ]
        contraction = cli.parse_contraction_data({"m": 1, "V": [[["1/3", -0.0]]]})
        assert contraction.V.tolist() == [[complex(1 / 3, 0.0)]]

    @pytest.mark.parametrize(
        "value, message",
        [("1e400", "value out of double range"), (10**400, "value out of double range"),
         ("-1.8e308", "value out of double range"), (float("inf"), "value must be finite")],
    )
    def test_value_beyond_the_double_range_names_its_field(self, value, message):
        with pytest.raises(cli.FileFormatError, match=rf"^conditions\[0\]\.a\[0\]\[1\]: {message}$"):
            cli._parse_part(value, "conditions[0].a[0][1]")

    @pytest.mark.parametrize("text", ["-0.0", "5e-324", "0.1", "1.7e308"])
    def test_json_float_keeps_its_fraction_and_its_double(self, text):
        # through the whole parser: the exact part is the float's own value,
        # and its double is the float bit for bit (-0.0 comes back as 0.0)
        value = json.loads(text)
        system = cli.parse_condition_data(json.loads(f'{{"m": 1, "conditions": [{{"a": [[1, {text}]], "b": [[{text}, 0]]}}]}}'))
        assert system.exact == (((1, Fraction(value)), (Fraction(value), 0)),)
        assert all(type(part) is Fraction for z in system.exact[0] for part in z)  # the int keeps Fraction pairs
        doubles = [part for z in system.coeffs[0] for part in (z.real, z.imag)]
        assert struct.pack("<4d", *doubles) == struct.pack("<4d", 1.0, value + 0.0, value + 0.0, 0.0)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("j, k, p", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_non_finite_json_names_its_field(self, literal, j, k, p):
        rows = [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]
        rows[j][k][p] = "@"
        text = json.dumps({"m": 2, "conditions": [{"a": row, "b": [[0, 0], [0, 0]]} for row in rows]})
        data = json.loads(text.replace('"@"', literal))  # json.loads accepts these literals
        with pytest.raises(cli.FileFormatError, match=rf"^conditions\[{j}\]\.a\[{k}\]\[{p}\]: value must be finite$"):
            cli.parse_condition_data(data)

    def test_underflowing_row_still_names_its_row(self):
        # every part parses, to a double of 0.0, and the row is refused whole
        assert cli._parse_part("1e-400", "x") == (Fraction(1, 10**400), 0.0)
        lost = {"m": 1, "conditions": [{"a": [["1e-400", "0"]], "b": [["2e-400", "0"]]}]}
        with pytest.raises(cli.FileFormatError, match=r"^conditions\[0\]: nonzero row underflows"):
            cli.parse_condition_data(lost)

    def test_malformed_row_after_an_underflowing_one_is_named(self):
        # every row parses before any is checked for underflow
        zero = [["0", "0"], ["0", "0"]]
        rows = [{"a": [["1e-400", "0"], ["0", "0"]], "b": zero}, {"a": zero, "b": [["1", "0"], ["0", "1/0"]]}]
        with pytest.raises(cli.FileFormatError, match=r"^conditions\[1\]\.b\[1\]\[1\]: bad rational string '1/0'$"):
            cli.parse_condition_data({"m": 2, "conditions": rows})


# The number parser as it stood before it built each part's numerator and
# denominator once: the reference that TestParserReference compares with.


def _parse_string(value: str, where: str, *indices: int) -> Fraction | None:
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
        raise FileFormatError(f"{_field(where, indices)}: bad rational string {shown}")
    sign, whole, den, frac, exp_sign, exp = match.groups()
    whole, den, exp = whole.lstrip("0"), (den or "1").lstrip("0"), (exp or "").lstrip("0")
    frac = (frac or "").rstrip("0")
    if max(len(whole), len(den), len(frac), len(exp)) > _MAX_DIGITS or int(exp or 0) > 2 * _MAX_DIGITS:
        return None
    shift = (-1 if exp_sign == "-" else 1) * int(exp or 0) - len(frac)
    numerator = (int(whole or 0) * 10 ** len(frac) + int(frac or 0)) * 10 ** max(shift, 0)
    return Fraction(-numerator if sign == "-" else numerator, int(den) * 10 ** max(-shift, 0))


def _parse_part(value, where: str, *indices: int) -> tuple[Fraction, float]:
    """A real number of the input, exactly, and its nearest double: ints, floats
    and "p/q" strings convert to Fraction without rounding.  A string is
    judged by its value, so zeros that carry no value count toward no limit.
    The field, ``where`` indexed by ``indices``, is named only in an error."""
    if isinstance(value, float) and math.isfinite(value):  # a double is in range and far inside the cap
        return Fraction(value), value + 0.0  # + 0.0 drops a zero's sign, as Fraction does
    problem = "value must be finite" if isinstance(value, float) else "expected a number or 'p/q' string"
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        part = _parse_string(value, where, *indices) if isinstance(value, str) else Fraction(value)
        problem = f"exact value has more than {_MAX_DIGITS} digits"
        if part is not None and max(abs(part.numerator), part.denominator) < _DIGIT_CAP:
            try:
                return part, float(part)
            except OverflowError:
                problem = "value out of double range"
    raise FileFormatError(f"{_field(where, indices)}: {problem}")


_SPECIAL_VALUES = [
    "1_0", "٣", "１", "0x10", "1 /2", "1/ 2", "00/00", "1/0", "0/0", "-0/7", "007/014", "", " ", "-", "+",
    ".", "5.", ".5", "-.5e-1", "e5", "1e", "1e+", "1.2.3", "1/2/3", "--1", "+-1", "inf", "-inf", "nan", "NaN",
    "Infinity", "٣/٧", "１/２", "0.0", "-0", "-0.0e0", "1e8600", "1e8601", "0e8601", "0e8600",
    "1e-8600", "1e-8601", "1e-4300", "1e4299", "1e4300", "1e308", "1.7976931348623157e308", "1.7976931348623159e308",
    "2.5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324", "4.9406564584124654e-324",
    "9007199254740993", "9007199254740993/9007199254740992", " \t-22/7\n", " +1/3 ", " 1 ",
    True, False, None, [], {}, [1, 2], 2**53 + 1, -(2**53) - 1, 2**1024, -(2**1023) * 3, 10**308 * 2, 10**4299,
    10**4300, -(10**4300) + 1, float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 5e-324, 1.7e308, -2.5e-17,
]


def _digit_run(rng, length: int) -> str:
    return "".join(rng.choices("0123456789", k=length))


def _run_length(rng) -> int:
    if rng.random() < 0.02:
        return rng.choice([4299, 4300, 4301, 4302])
    return rng.choice([1, 1, 2, 3, 5, 8, 16, 17, 18, 30, 309, 330])


def _number_string(rng) -> str:
    """A number string over the grammar's edges: signs, spaces, zeros that
    carry no value, fractions, exponents up to 8,601 and runs near the cap."""
    zeros = lambda: "0" * rng.choice([0, 0, 0, 1, 2, 5, 4400])  # noqa: E731
    space = lambda: rng.choice(["", "", "", " ", "  ", "\t", "\n", " "])  # noqa: E731
    sign = rng.choice(["", "", "-", "+"])
    whole = zeros() + _digit_run(rng, _run_length(rng))
    shape = rng.randrange(5)
    if shape == 0:
        body = whole
    elif shape == 1:
        body = whole + "/" + (rng.choice(["0", "00"]) if rng.random() < 0.03 else zeros() + _digit_run(rng, _run_length(rng)))
    else:
        frac = _digit_run(rng, _run_length(rng)) + zeros() if shape != 4 else None
        exponent = rng.choice([0, 1, 5, 17, 300, 308, 309, 323, 324, 325, 400, 4300, 8599, 8600, 8601, rng.randrange(9000)])
        body = (rng.choice([whole, ""]) if frac else whole) + (f".{frac}" if frac is not None else "")
        if shape != 2:
            body += rng.choice("eE") + rng.choice(["", "+", "-"]) + zeros() + str(exponent)
    return space() + sign + body + space()


def _fuzz_value(rng):
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(_SPECIAL_VALUES)
    if roll < 0.15:
        return rng.choice([rng.randrange(-10**20, 10**20), rng.randrange(-2**60, 2**60), rng.randrange(10**300, 10**320)])
    if roll < 0.3:
        return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
    return _number_string(rng)


def _outcome(parse, *args):
    """What a parser makes of its input: the exact value and the double's
    type and bits, or the error's type and message."""
    try:
        part, double = parse(*args)
    except cli.FileFormatError as exc:
        return type(exc), str(exc)
    return part, type(double), struct.pack("<d", double)


class TestParserReference:
    """The parser returns what the reference above returns on every value:
    the same exact value, the same double bits, the same error message.
    A double is its own exact value, so its part is that double, with the
    double's bits, where the reference returns its Fraction."""

    def test_parse_part_agrees_with_the_reference(self):
        rng = random.Random(24)
        values = _SPECIAL_VALUES + [_fuzz_value(rng) for _ in range(20000)]
        for i, value in enumerate(values):
            indices = (i % 3, i % 2)
            outcome = _outcome(cli._parse_part, value, "f", *indices)
            assert outcome == _outcome(_parse_part, value, "f", *indices), value
            if len(outcome) == 3 and isinstance(value, float):
                assert type(outcome[0]) is float and struct.pack("<d", outcome[0]) == outcome[2], value
            elif len(outcome) == 3:
                assert type(outcome[0]) is Fraction, value

    @staticmethod
    def _reference_conditions(data):
        m = data["m"]
        exact, doubles = [], []
        for j, row in enumerate(data["conditions"]):
            parts = [
                _parse_part(value[p], f"conditions[{j}].{half}", k, p)
                for half in "ab" for k, value in enumerate(row[half]) for p in (0, 1)
            ]
            exact.append(tuple(zip([part for part, _ in parts][::2], [part for part, _ in parts][1::2])))
            doubles.append([complex(re, im) for (_, re), (_, im) in zip(parts[::2], parts[1::2])])
        for j, (exact_row, row) in enumerate(zip(exact, doubles)):
            if any(re or im for re, im in exact_row) and not any(row):
                raise FileFormatError(f"conditions[{j}]: nonzero row underflows to zero as doubles")
        return tuple(exact), np.array(doubles).reshape(m, 2 * m)

    @staticmethod
    def _small_value(rng):
        if rng.random() < 0.02:
            return _fuzz_value(rng)
        return rng.choice([
            f"{rng.randrange(-9, 10)}/{rng.randrange(1, 10)}", f"{rng.uniform(-2, 2):.3g}", rng.uniform(-1, 1),
            rng.randrange(-3, 4), f"{rng.randrange(1, 9)}e-{rng.choice([1, 320, 400])}", 0, "0",
        ])

    def test_condition_data_agrees_with_the_reference(self):
        rng = random.Random(2024)
        for _ in range(600):
            m = rng.randrange(1, 4)
            rows = [[[[self._small_value(rng), self._small_value(rng)] for _ in range(m)] for _ in "ab"] for _ in range(m)]
            data = {"m": m, "conditions": [{"a": a, "b": b} for a, b in rows]}
            try:
                expected = self._reference_conditions(data)
            except FileFormatError as exc:
                with pytest.raises(FileFormatError) as raised:
                    cli.parse_condition_data(data)
                assert str(raised.value) == str(exc)
                continue
            system = cli.parse_condition_data(data)
            if all(type(part) is float for row in rows for half in row for value in half for part in value):
                assert system.exact is None  # a file of doubles only: its doubles are the data
            else:
                assert system.exact == expected[0]
                assert all(type(part) is Fraction for row in system.exact for pair in row for part in pair)
            assert system.coeffs.tobytes() == expected[1].tobytes()

    @staticmethod
    def _doubles_document(m, values):
        """A conditions file of JSON doubles, ``values`` cycled through its parts."""
        parts = [values[i % len(values)] for i in range(4 * m * m)]
        pairs = [parts[i : i + 2] for i in range(0, len(parts), 2)]
        rows = [{"a": pairs[2 * m * j : 2 * m * j + m], "b": pairs[2 * m * j + m : 2 * m * (j + 1)]} for j in range(m)]
        return json.loads(json.dumps({"m": m, "conditions": rows}))

    def assert_doubles_are_the_data(self, data):
        # no exact parts, and the integer rows of the reference's Fraction pairs
        system = cli.parse_condition_data(data)
        exact_parts, doubles = self._reference_conditions(data)
        assert system.exact is None
        assert system.coeffs.tobytes() == doubles.tobytes()
        assert system.integer_rows == bc_core.BoundaryConditionSystem(data["m"], doubles, exact=exact_parts).integer_rows

    def test_file_of_doubles_is_its_own_exact_data(self):
        rng = random.Random(32)
        for _ in range(200):
            m = rng.randrange(1, 5)
            values = [
                rng.choice([
                    rng.uniform(-2, 2), 0.0, -0.0, 5e-324, 1.7e308,
                    struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64) % 0x7FF0000000000000))[0],  # finite
                ])
                for _ in range(4 * m * m)
            ]
            self.assert_doubles_are_the_data(self._doubles_document(m, values))

    @pytest.mark.parametrize(
        "values",
        [[5e-324], [1.7e308, -1.7e308], [-0.0], [-0.0, 1.0], [5e-324, 1.7e308, -0.0, 1e-310],
         [2.2250738585072014e-308, 1e-320, -4e-322, 0.1], [1.7976931348623157e308, -5e-324, 3e-320, -0.0]],
        ids=["min-subnormal", "near-max", "negative-zero", "negative-zero-and-one", "range-ends", "subnormal-mix",
             "max-and-subnormals"],
    )
    def test_edge_doubles_are_their_own_exact_data(self, values):
        for m in (1, 2, 3):
            self.assert_doubles_are_the_data(self._doubles_document(m, values))

    def test_contraction_data_agrees_with_the_reference(self):
        rng = random.Random(42)
        for _ in range(600):
            m = rng.randrange(1, 4)
            rows = [[[self._small_value(rng), self._small_value(rng)] for _ in range(m)] for _ in range(m)]
            rows = [[[value if rng.random() < 0.9 else "0" for value in pair] for pair in row] for row in rows]
            data = {"m": m, "V": rows}
            try:
                doubles = [
                    [complex(*[_parse_part(value[p], f"V[{j}]", k, p)[1] for p in (0, 1)]) for k, value in enumerate(row)]
                    for j, row in enumerate(rows)
                ]
                expected = cli.parse_contraction_data({"m": m, "V": [[[z.real, z.imag] for z in row] for row in doubles]})
            except FileFormatError as exc:
                with pytest.raises(FileFormatError) as raised:
                    cli.parse_contraction_data(data)
                assert str(raised.value) == str(exc)
                continue
            assert cli.parse_contraction_data(data).V.tobytes() == expected.V.tobytes()


class TestRender:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -12, 10**40, "", "plain", 'quo"te\\', "tab\tnew\nline", "\u00e9\u4e2d\U0001f600",
         "\x00\x1f\x7f"],
    )
    def test_scalars_and_keys_render_as_json_dumps(self, value):
        key = str(value)
        assert cli.dumps_deterministic(value) == json.dumps(value)
        assert cli.dumps_deterministic({key: 1}) == "{\n  " + json.dumps(key) + ": 1\n}"

    def test_fraction_renders_as_its_string(self):
        assert cli.dumps_deterministic(Fraction(-3, 7)) == '"-3/7"'

    @pytest.mark.parametrize(
        "value, text",
        [
            (None, "null"), (True, "true"), (False, "false"), (0, "0"),
            (-0.0, "-0"), (1e-320, "9.9998886718268301e-321"), (np.float64(0.1), "0.10000000000000001"),
            ("é中\U0001f600", '"\\u00e9\\u4e2d\\ud83d\\ude00"'), (Fraction(-3, 7), '"-3/7"'),
            ((1, "a", 2.5), '[1, "a", 2.5]'), ([], "[]"), ({}, "{}"), ([[], [1, [2.0, None]]], "[[], [1, [2, null]]]"),
            ({"x": [{}]}, '{\n  "x": [{}]\n}'),
            ({"a": {}, "b": {"c": [1, {"d": False}]}}, '{\n  "a": {},\n  "b": {\n    "c": [1, {\n      "d": false\n    }]\n  }\n}'),
            # subclasses are written as the type they derive from
            (enum.IntEnum("Flag", "ON")(1), "1"), (collections.OrderedDict(k=[0.5]), '{\n  "k": [0.5]\n}'),
            (type("Name", (str,), {"__str__": lambda self: "shown"})("kept"), '"shown"'),
        ],
        ids=lambda value: repr(value)[:24],
    )
    def test_every_type_renders_as_before(self, value, text):
        assert cli.dumps_deterministic(value) == text

    def test_long_int_renders_in_full(self):
        value = 7 * 10**4999
        assert cli.render_report({"n": value}, "json") == '{\n  "n": 7' + "0" * 4999 + "\n}\n"
        assert cli.render_report({"n": value}, "text") == "n = 7" + "0" * 4999 + "\n"

    def test_text_indexes_the_items_of_a_list_of_objects(self):
        # a nonempty list whose items are all objects prints item by item,
        # with the index in the path; any other list prints as one value
        report = {
            "conditions": [{"a": [[1, 0]], "b": {"c": [{"d": 2}]}}, {"a": []}],
            "mixed": [1, {"x": 2}],
            "empty": [],
            "rows": [[0, 0]],
        }
        assert cli.render_report(report, "text") == (
            "conditions[0].a = [[1, 0]]\nconditions[0].b.c[0].d = 2\nconditions[1].a = []\n"
            'mixed = [1, {\n  "x": 2\n}]\nempty = []\nrows = [[0, 0]]\n'
        )
        assert cli.render_report(report, "json") == cli.dumps_deterministic(report) + "\n"

    def test_conditions_print_one_line_per_matrix(self, tmp_path):
        # the text of every report with conditions names each matrix by its
        # index and prints the value its json prints
        dirichlet = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        contraction = write_json(tmp_path / "v.json", {"m": 1, "V": [[[0, 0]]]})
        for argv in (
            ["example", "--name", "odd-irregular", "--n", "2"],
            ["normalize", dirichlet],
            ["from-contraction", contraction],
        ):
            _, as_json, _ = run_cli(argv)
            _, as_text, _ = run_cli(argv + ["--format", "text"])
            expected = [
                f"conditions[{j}].{key} = {cli.dumps_deterministic(value)}"
                for j, row in enumerate(json.loads(as_json)["conditions"])
                for key, value in row.items()
            ]
            assert [line for line in as_text.splitlines() if line.startswith("conditions")] == expected
        _, as_text, _ = run_cli(["example", "--name", "odd-irregular", "--n", "2", "--format", "text"])
        assert "conditions[0].a = [[0, 0], [0, 0], [1, 0]]" in as_text.splitlines()

    @pytest.mark.parametrize(
        "value, name", [({1, 2}, "set"), (1j, "complex"), (np.bool_(True), np.bool_.__name__), ([1, {2}], "set")]
    )
    def test_other_types_are_refused(self, value, name):
        with pytest.raises(TypeError, match=rf"^cannot serialize <class '(numpy\.)?{name}'>$"):
            cli.dumps_deterministic(value)


class TestErrorHandling:
    def test_missing_file(self):
        code, _, err = run_cli(["check", "/nonexistent/x.json"])
        assert code == 2 and "cannot read" in err

    @pytest.mark.parametrize(
        "command", ["check", "normalize", "regular", "dissipative", "selfadjoint", "to-contraction"]
    )
    def test_zero_row_is_dependent_at_tol_zero(self, tmp_path, command):
        # the computed sigma_min of these rows is rounding, not rank
        payload = {"m": 2, "conditions": [
            {"a": [[0, 0], [0, 0]], "b": [[0, 0], [0, 0]]},
            {"a": [[1, -1], [0, 0]], "b": [[-1, -1], [-2, 1]]},
        ]}
        code, out, err = run_cli([command, write_json(tmp_path / "zero.json", payload), "--tol", "0"])
        assert (code, out, err) == (2, "", "error: rows have numerical rank 1 < 2\n")

    @pytest.mark.parametrize(
        "raw",
        [b'{"m": 1,', b"[" * 100000 + b"]" * 100000, b'{"m": \xff}', b'{"m": ' + b"1" * 5000 + b"}"],
        ids=["truncated", "deeply-nested", "not-utf8", "integer-beyond-digit-limit"],
    )
    def test_invalid_json_names_file(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, out, err = run_cli(["check", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {str(path)!r} is not valid JSON: ")

    def test_wrong_row_count_names_field(self, tmp_path):
        payload = {"m": 2, "conditions": [{"a": [[1, 0], [0, 0]], "b": [[0, 0], [0, 0]]}]}
        path = write_json(tmp_path / "bad.json", payload)
        code, _, err = run_cli(["check", path])
        assert code == 2 and "conditions" in err

    def test_bad_rational_names_field(self, tmp_path):
        payload = {"m": 1, "conditions": [{"a": [["1/0", 0]], "b": [[1, 0]]}]}
        path = write_json(tmp_path / "bad.json", payload)
        code, _, err = run_cli(["check", path])
        assert code == 2 and err == "error: conditions[0].a[0][0]: bad rational string '1/0'\n"

    def test_long_bad_string_is_not_echoed_whole(self, tmp_path):
        payload = {"m": 1, "conditions": [{"a": [["x" * 100000, 0]], "b": [[1, 0]]}]}
        code, out, err = run_cli(["check", write_json(tmp_path / "bad.json", payload)])
        assert code == 2 and out == ""
        assert err.startswith("error: conditions[0].a[0][0]: bad rational string 'xxx")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            (
                "check",
                {"m": 1, "conditions": [{"a": [[None, 0]], "b": [[1, 0]]}]},
                "conditions[0].a[0][0]: expected a number or 'p/q' string",
            ),
            (
                "check",
                {"m": 1, "conditions": [{"a": [[1, 0]], "b": [[1, True]]}]},
                "conditions[0].b[0][1]: expected a number or 'p/q' string",
            ),
            (
                "check",
                {"m": 1, "conditions": [{"a": [[1]], "b": [[1, 0]]}]},
                "conditions[0].a[0]: complex values are [re, im] pairs",
            ),
            (
                "check",
                {"m": 2, "conditions": [{"a": [[1, 0]], "b": [[0, 0], [0, 0]]}, {}]},
                "conditions[0].a: expected a list of 2 values",
            ),
            (
                "check",
                {"m": 2, "conditions": [[1, 0], {"a": [[1, 0], [0, 0]], "b": [[0, 0], [0, 0]]}]},
                "conditions[0]: expected an object with 'a' and 'b'",
            ),
            ("from-contraction", {"m": 2, "V": [[[0, 0], [0, 0]]]}, "V: expected a list of 2 rows"),
        ],
        ids=["null-part", "boolean-part", "short-pair", "short-row", "row-not-object", "short-contraction"],
    )
    def test_malformed_field_names_field(self, tmp_path, command, payload, message):
        code, out, err = run_cli([command, write_json(tmp_path / "bad.json", payload)])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_a_bare_value_error_is_a_bug_not_invalid_input(self, tmp_path, monkeypatch):
        def broken(system, tol):
            raise ValueError("boom")

        monkeypatch.setattr(regularity, "span_verdict", broken)
        with pytest.raises(ValueError, match="boom"):
            main(["check", write_json(tmp_path / "dirichlet.json", DIRICHLET)])

    def test_top_level_not_an_object(self, tmp_path):
        path = write_json(tmp_path / "list.json", [DIRICHLET])
        code, out, err = run_cli(["check", path])
        assert code == 2 and out == ""
        assert err == f"error: {path!r}: top-level value must be an object\n"

    @pytest.mark.parametrize(
        "module, name, fake, message",
        [
            (
                contraction,
                "canonical_maps",  # P = iQ, so Z_plus = (Q + iP) N = 0
                lambda m, maps=contraction.canonical_maps: contraction.CanonicalMaps(m, 1j * maps(m).Q, maps(m).Q),
                "forward coordinate map lost rank on a dissipative system",
            ),
            (numerics, "operator_norm", lambda matrix: 2.0, "operator norm 2.0 exceeds 1"),
        ],
        ids=["forward-map-loses-rank", "norm-above-one"],
    )
    def test_contraction_tolerance_conflict_exits_3(self, tmp_path, monkeypatch, module, name, fake, message):
        # both guards of to_contraction: a dissipative system whose forward
        # map loses rank, or whose V fails the norm bound
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        monkeypatch.setattr(module, name, fake)
        code, out, err = run_cli(["to-contraction", path])
        assert code == 3 and out == ""
        assert err == f"numerical failure: {message}\n"

    def test_non_finite_number_names_field(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"m": 1, "conditions": [{"a": [[1, 0]], "b": [[NaN, 0]]}]}')
        code, _, err = run_cli(["check", str(path)])
        assert code == 2 and "conditions[0].b[0][0]: value must be finite" in err

    @pytest.mark.parametrize(
        "command, text, field",
        [
            (
                "check",
                '{"m": 1, "conditions": [{"a": [["1e400", "0"]], "b": [[1, 0]]}]}',
                "conditions[0].a[0][0]",
            ),
            (
                "check",
                '{"m": 1, "conditions": [{"a": [[1, 0]], "b": [[0, ' + "9" * 400 + "]]}]}",
                "conditions[0].b[0][1]",
            ),
            ("from-contraction", '{"m": 1, "V": [[["1e400", 0]]]}', "V[0][0][0]"),
        ],
        ids=["conditions-string", "conditions-integer", "contraction-string"],
    )
    def test_number_beyond_double_range_names_field(self, tmp_path, command, text, field):
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, out, err = run_cli([command, str(path)])
        assert code == 2 and out == ""
        assert err == f"error: {field}: value out of double range\n"

    @pytest.mark.parametrize(
        "command, value, where",
        [
            ("check", "1e-5000", "conditions[0].a[0][1]"),
            ("check", "1e-4300", "conditions[0].a[0][1]"),
            ("check", "1e10000000", "conditions[0].a[0][1]"),
            ("from-contraction", "-1e-10000000", "V[0][0][1]"),
            ("check", "2" * 4301, "conditions[0].a[0][1]"),
            ("check", "2" * 100000, "conditions[0].a[0][1]"),
        ],
        ids=[
            "tiny-decimal", "denominator-4301-digits", "huge-exponent", "contraction-tiny-exponent",
            "integer-4301-digits", "integer-100000-digits",
        ],
    )
    def test_exact_part_beyond_digit_cap_names_field(self, tmp_path, monkeypatch, command, value, where):
        if command == "check":
            payload = {"m": 1, "conditions": [{"a": [["1", value]], "b": [[1, 0]]}]}
        else:
            payload = {"m": 1, "V": [[["0", value]]]}
        built = []
        monkeypatch.setattr(cli, "Fraction", lambda *args: built.append(args) or Fraction(*args))
        code, out, err = run_cli([command, write_json(tmp_path / "long.json", payload)])
        assert code == 2 and out == ""
        assert err == f"error: {where}: exact value has more than 4300 digits\n"
        # an exponent past twice the cap is refused on the string, before
        # 10^e is expanded: no Fraction is built from a larger power, and
        # a smaller exponent reaches Fraction as 10^|e|
        assert all(abs(n) <= 10**8600 for args in built for n in args)
        _, e, exponent = value.partition("e")
        if e and abs(int(exponent)) <= 8600:
            assert (1, 10 ** abs(int(exponent))) in built

    def test_exact_part_at_digit_cap_is_kept(self):
        system = cli.parse_condition_data({"m": 1, "conditions": [{"a": [["1", "1e-4299"]], "b": [[1, 0]]}]})
        assert system.exact[0][0] == (1, Fraction(1, 10**4299))

    @pytest.mark.parametrize(
        "value, exact",
        [
            ("1.5" + "0" * 4300, Fraction(3, 2)),
            ("0" * 5000 + "1", Fraction(1)),
            ("1/" + "0" * 4400 + "2", Fraction(1, 2)),
            ("1e" + "0" * 5000 + "1", Fraction(10)),
            ("-" + "0" * 5000 + ".0" + "0" * 5000 + "e-" + "0" * 5000, Fraction(0)),
        ],
        ids=["fraction-trailing-zeros", "integer-leading-zeros", "denominator-leading-zeros",
             "exponent-leading-zeros", "zero-written-long"],
    )
    def test_zeros_without_value_count_toward_no_cap(self, tmp_path, value, exact):
        payload = {"m": 1, "conditions": [{"a": [["1", value]], "b": [[1, 0]]}]}
        code, out, err = run_cli(["check", write_json(tmp_path / "zeros.json", payload)])
        assert code == 0 and out and err == ""
        assert cli.parse_condition_data(payload).exact[0][0] == (1, exact)

    @pytest.mark.parametrize(
        "value",
        ["0" * 10 + "2" * 4301, "0." + "2" * 4301 + "0" * 10, "1/" + "0" * 10 + "3" * 4301,
         "1e" + "9" * 5000, "-1e-" + "0" * 10 + "9" * 5000],
        ids=["integer", "fraction", "denominator", "exponent", "negative-exponent"],
    )
    def test_value_over_cap_after_dropping_zeros_names_field(self, tmp_path, value):
        payload = {"m": 1, "conditions": [{"a": [["1", value]], "b": [[1, 0]]}]}
        code, out, err = run_cli(["check", write_json(tmp_path / "long.json", payload)])
        assert code == 2 and out == ""
        assert err == "error: conditions[0].a[0][1]: exact value has more than 4300 digits\n"

    @pytest.mark.parametrize(
        "value", ["1_0", "1 / 2", "0_" + "0" * 5000 + "1", "1.5e", "--1", "1/2.5"],
        ids=["underscore", "spaced-slash", "underscored-zeros", "empty-exponent", "double-sign", "decimal-denominator"],
    )
    def test_one_grammar_on_every_python(self, tmp_path, value):
        # underscores and spaces around / are malformed even where Fraction takes them
        payload = {"m": 1, "conditions": [{"a": [["1", value]], "b": [[1, 0]]}]}
        code, out, err = run_cli(["check", write_json(tmp_path / "bad.json", payload)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: conditions[0].a[0][1]: bad rational string {value[:40]!r}")

    def test_verify_order_out_of_range(self):
        code, _, err = run_cli(["verify", "--m", "17"])
        assert code == 2 and "order" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "--m", "17"], "--m"),
            (["verify", "--m", "0"], "--m"),
            (["verify", "--m", "3", "--samples", "0"], "--samples"),
            (["example", "--name", "odd-irregular", "--n", "0"], "--n"),
            (["example", "--name", "odd-irregular", "--n", "9"], "--n"),
            (["example", "--name", "nope", "--n", "2"], "--name"),
        ],
        ids=["verify-m17", "verify-m0", "verify-samples0", "example-n0", "example-n9", "example-name-nope"],
    )
    def test_out_of_range_flag_names_flag(self, argv, flag):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and err.startswith(f"error: {flag}: ")

    def test_check_zero_samples_names_flag(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, out, err = run_cli(["check", path, "--samples", "0"])
        assert code == 2 and out == "" and err.startswith("error: --samples: ")

    def test_flags_checked_before_any_analysis(self, tmp_path, monkeypatch):
        calls = []
        for name in ("normalize", "_rank_profile"):
            original = getattr(bc_core, name)
            monkeypatch.setattr(bc_core, name, lambda *args, original=original: calls.append(args) or original(*args))
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, _, err = run_cli(["check", path, "--samples", "0"])
        assert code == 2 and err == "error: --samples: sample count must be >= 1, got 0\n"
        assert calls == []
        # a subcommand whose report has no oracle takes no --samples
        code, out, err = run_parser_exit(["regular", path, "--samples", "0"])
        assert (code, out) == (2, "") and "unrecognized arguments: --samples 0" in err
        assert calls == []

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("check", {"m": True, "conditions": [{"a": [[1, 0]], "b": [[0, 0]]}]}),
            ("from-contraction", {"m": True, "V": [[[0, 0]]]}),
        ],
    )
    def test_boolean_order_names_field(self, tmp_path, command, payload):
        path = write_json(tmp_path / "bool.json", payload)
        code, _, err = run_cli([command, path])
        assert code == 2 and "m:" in err

    def test_dependent_rows(self, tmp_path):
        payload = {
            "m": 2,
            "conditions": [
                {"a": [[1, 0], [0, 0]], "b": [[0, 0], [0, 0]]},
                {"a": [[2, 0], [0, 0]], "b": [[0, 0], [0, 0]]},
            ],
        }
        path = write_json(tmp_path / "dependent.json", payload)
        code, _, err = run_cli(["check", path])
        assert code == 2 and "rank" in err


class TestToleranceFlags:
    def test_tol_flag_embedded(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, out, _ = run_cli(["check", path, "--tol", "1e-6"])
        assert code == 0
        tolerances = json.loads(out)["tolerances"]
        assert tolerances == {
            "definiteness_tol": 1e-6,
            "rank_tol": 1e-6,
            "zero_tol": 1e-6,
        }

    def test_out_of_range_tol_rejected(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, out, err = run_cli(["check", path, "--tol", "0.5"])
        assert (code, out) == (2, "") and err.startswith("error: --tol: ")
        # checked before the input is read
        assert run_cli(["check", str(tmp_path / "missing.json"), "--tol", "0.5"]) == (code, out, err)

    def test_negative_zero_tol_is_zero(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        code, out, _ = run_cli(["check", path, "--tol", "-0"])
        assert code == 0 and '"rank_tol": 0,' in out
        assert run_cli(["check", path, "--tol", "0"]) == (code, out, "")

    def test_verify_takes_no_tol(self):
        code, out, err = run_parser_exit(["verify", "--m", "2", "--samples", "1", "--tol", "0.5"])
        assert (code, out) == (2, "") and err.endswith("error: unrecognized arguments: --tol 0.5\n")

    @pytest.mark.parametrize("command", list(TestSubcommandFlags.OPTIONS))
    def test_environment_is_not_an_input(self, tmp_path, monkeypatch, command):
        """A run reads its command line and its input file, and no BCA_TOL."""
        path = dirichlet_input(tmp_path, command)
        base = TestSubcommandFlags.BASE.get(command)
        argv = [command, *([part for item in base.items() for part in item] if base else [path])]
        expected = run_cli(argv)
        assert expected[0] == 0
        for value in ("1e-3", "abc"):
            monkeypatch.setenv("BCA_TOL", value)
            assert run_cli(argv)[:2] == expected[:2], value


def key_paths(obj, prefix=""):
    """Dotted paths of a report's leaves, in output order."""
    if not isinstance(obj, dict):
        return [prefix[:-1]]
    return [path for key, value in obj.items() for path in key_paths(value, f"{prefix}{key}.")]


HEADER = ["tool.name", "tool.version", "command", "input.digest", "input.m"]
TOLERANCES = ["tolerances.definiteness_tol", "tolerances.rank_tol", "tolerances.zero_tol"]
THETAS = [
    f"thetas.{key}"
    for key in (
        "parity", "theta_minus1", "theta_0", "theta_1", "scale",
        "theta_minus1_nonzero", "theta_0_nonzero", "theta_1_nonzero",
    )
]
ORACLE = [
    f"oracle.dissipativity.{key}" for key in ("samples", "seed", "all_nonnegative", "min_value")
]


class TestReportKeys:
    """The nested keys of every subcommand's JSON report, in order."""

    EXPECTED = {
        "check": HEADER + TOLERANCES + ["samples", "seed", "orders"]
        + [f"verdicts.{k}" for k in ("dissipative", "selfadjoint", "regular", "regular_strict")]
        + ["gram_eigenvalues"] + THETAS + ["contraction.m", "contraction.V"] + ORACLE,
        "normalize": ["m", "conditions", "orders"] + TOLERANCES,
        "dissipative": HEADER + TOLERANCES
        + ["verdicts.dissipative", "verdicts.selfadjoint", "gram_eigenvalues"] + ORACLE,
        "selfadjoint": HEADER + TOLERANCES + ["verdicts.selfadjoint"],
        "regular": HEADER + TOLERANCES + ["orders", "verdicts.regular", "verdicts.regular_strict"]
        + THETAS,
        "to-contraction": HEADER + TOLERANCES + ["dissipative", "m", "V"],
        "from-contraction": HEADER + TOLERANCES
        + ["m", "conditions", "verdicts.dissipative", "verdicts.selfadjoint"],
        "verify": ["tool.name", "tool.version", "command", "m", "samples", "seed",
                   "boundary_form.passed", "boundary_form.max_defect",
                   "canonical_coordinates.passed", "canonical_coordinates.max_defect"],
        "example": ["m", "conditions"],
    }

    def test_every_subcommand(self, tmp_path):
        path = write_json(tmp_path / "dirichlet.json", DIRICHLET)
        _, v_text, _ = run_cli(["to-contraction", path])
        vfile = tmp_path / "v.json"
        vfile.write_text(v_text)
        argvs = {
            "from-contraction": ["from-contraction", str(vfile)],
            "verify": ["verify", "--m", "2"],
            "example": ["example", "--name", "odd-irregular", "--n", "2"],
        }
        for command, expected in self.EXPECTED.items():
            samples = ["--samples", "2"] if command in ("check", "dissipative", "verify") else []
            code, out, _ = run_cli(argvs.get(command, [command, path]) + samples)
            assert code == 0, command
            assert key_paths(json.loads(out)) == expected, command

    def test_non_dissipative_has_null_contraction(self, tmp_path):
        path = write_json(tmp_path / "left.json", LEFT_END)
        _, out, _ = run_cli(["check", path, "--samples", "2"])
        paths = key_paths(json.loads(out))
        assert "contraction" in paths and "contraction.V" not in paths


class TestFactorizeOnce:
    @pytest.mark.parametrize("m", (2, 4, 8))
    def test_check_runs_one_svd_of_the_system(self, tmp_path, monkeypatch, m):
        system = helpers.random_dissipative(np.random.default_rng(m), m)
        pairs = [[[z.real, z.imag] for z in row] for row in system.coeffs.tolist()]
        payload = {"m": m, "conditions": [{"a": row[:m], "b": row[m:]} for row in pairs]}
        path = write_json(tmp_path / "system.json", payload)
        shapes = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        # the binary-scaled rows and the Gaussian-integer rows are each built once
        calls = []
        frexp, integer_rows = np.frexp, exact._integer_rows
        monkeypatch.setattr(np, "frexp", lambda *args: calls.append("frexp") or frexp(*args))
        monkeypatch.setattr(exact, "_integer_rows", lambda rows: calls.append("integer_rows") or integer_rows(rows))
        code, out, _ = run_cli(["check", path, "--samples", "1"])
        assert code == 0 and json.loads(out)["verdicts"]["dissipative"]
        assert shapes.count((m, 2 * m)) == 1
        assert sorted(calls) == ["frexp", "integer_rows"]

    @pytest.mark.parametrize("command, calls", [("check", 0), ("regular", 0), ("normalize", 1)])
    def test_only_the_normalize_report_normalizes(self, tmp_path, monkeypatch, command, calls):
        """check and regular read orders and thetas from the input's rows."""
        system = helpers.random_dissipative(np.random.default_rng(5), 4)
        pairs = [[[z.real, z.imag] for z in row] for row in system.coeffs.tolist()]
        path = write_json(tmp_path / "system.json", {"m": 4, "conditions": [{"a": r[:4], "b": r[4:]} for r in pairs]})
        counted = []
        normalize = bc_core.normalize
        monkeypatch.setattr(bc_core, "normalize", lambda *args: counted.append(args) or normalize(*args))
        code, out, _ = run_cli([command, path])
        assert code == 0 and json.loads(out)["orders"] == list(normalize(system).orders)
        assert len(counted) == calls

    def test_an_entry_below_rank_tol_of_its_row_carries_no_order(self, tmp_path):
        conditions = [{"a": [[1, 0], [1e-13, 0]], "b": [[0, 0], [0, 0]]}, {"a": [[0, 0], [0, 0]], "b": [[1, 0], [0, 0]]}]
        code, out, _ = run_cli(["check", write_json(tmp_path / "noise.json", {"m": 2, "conditions": conditions})])
        report = json.loads(out)
        assert code == 0 and report["orders"] == [0, 0] and report["verdicts"]["regular"] is True

    @pytest.mark.parametrize("value", [1e-13, 1.2e-10, 1e-9])
    def test_check_prints_the_orders_that_normalize_prints(self, tmp_path, value):
        # 1.2e-10 lies above zero_tol of its row but below rank_tol of all rows
        conditions = [{"a": [[1, 0], [value, 0]], "b": [[0, 0], [0, 0]]}, {"a": [[0, 0], [0, 0]], "b": [[1, 0], [0, 0]]}]
        path = write_json(tmp_path / "near.json", {"m": 2, "conditions": conditions})
        orders = [json.loads(run_cli([command, path])[1])["orders"] for command in ("check", "regular", "normalize")]
        assert orders[0] == orders[1] == orders[2]
