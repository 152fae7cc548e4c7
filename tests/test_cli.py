"""Command-line interface: formats, exit codes, row shapes."""

import csv
import inspect
import io
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from braidcount import braid, counting, verify, words
from braidcount.classes import MAX_REPORT_INDEX
from braidcount.cli import MAX_BOUNDED_WORDS_X, MAX_X, main

#: exactly 0, but the exponent of exp(exp(exp(20))) passes the cap of
#: interval.EXPONENT_BITS bits, so the enclosure of a Y that adds to it is
#: the whole line
LOOSE = "exp(exp(exp(20))) - exp(exp(exp(20)))"

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


class TestNormalize:
    def test_general(self, capsys):
        rows = run_json(capsys, "normalize", "s1^2 s2^2")
        assert rows == [{
            "input": "s1^2 s2^2",
            "kind": "general",
            "j": 1,
            "k": 2,
            "b1": "a2",
            "ell": 0,
        }]

    def test_power_of_delta(self, capsys):
        rows = run_json(capsys, "normalize", "D^3")
        assert rows == [{
            "input": "D^3",
            "kind": "power_of_delta",
            "j": None,
            "k": None,
            "b1": None,
            "ell": 1,
        }]

    def test_bad_input_exits_2(self, capsys):
        code, _ = run(capsys, "normalize", "s9")
        assert code == 2

    def test_huge_exponent_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "normalize", "s1^1000000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""

    def test_exponent_past_int_digit_limit_exits_2(self, capsys):
        limit = sys.get_int_max_str_digits()
        text = "s1 s1^" + "9" * (limit + 1)
        assert main(["normalize", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad braid {text!r}: exponent has more than {limit} digits (at token 1)\n"
        )


class TestSyllables:
    def test_rows(self, capsys):
        rows = run_json(capsys, "syllables", "a1^3 a2")
        assert [r["kind"] for r in rows] == ["first", "second"]
        assert [r["degree"] for r in rows] == [3, 1]

    def test_empty_word(self, capsys):
        assert run_json(capsys, "syllables", "") == []

    def test_exponent_past_int_digit_limit_exits_2(self, capsys):
        limit = sys.get_int_max_str_digits()
        text = "a2 A1^-" + "9" * (limit + 1)
        assert main(["syllables", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad word {text!r}: exponent has more than {limit} digits (at token 1)\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_merged_degree_past_int_digit_limit_exits_2(self, capsys, fmt):
        # each exponent parses, but the two terms merge into one degree
        limit = sys.get_int_max_str_digits()
        nines = "9" * limit
        code = main(["syllables", f"a1^{nines} a1^{nines}", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: syllable degree has more than {limit} digits\n"


class TestTheta:
    def test_projection(self, capsys):
        rows = run_json(capsys, "theta", "s1^2 s2^2")
        assert rows == [{"input": "s1^2 s2^2", "theta": "a1 a2"}]

    def test_delta_power_rejected(self, capsys):
        code, _ = run(capsys, "theta", "D")
        assert code == 2


ZERO_ROW = (
    "extremal_length  exact_zero=True  lower_log_arg=1  upper_log_arg=1  "
    "lower_value=0  upper_value=0"
)
A1_A2_A1_ROW = (
    "extremal_length  exact_zero=False  lower_log_arg=9  upper_log_arg=12  "
    "lower_value=0.349699152566  upper_value=745.471994937"
)


class TestBounds:
    def test_word_rows(self, capsys):
        rows = run_json(capsys, "bounds", "--word", "a1^2 a2^2")
        assert [r["quantity"] for r in rows] == ["extremal_length", "entropy"]
        assert rows[0]["lower_log_arg"] == "36"
        assert rows[0]["upper_log_arg"] == "64"

    def test_braid_zero(self, capsys):
        rows = run_json(capsys, "bounds", "--braid", "D^2")
        assert rows[0]["exact_zero"] is True
        assert rows[0]["lower_value"] == "0"

    def test_requires_exactly_one_input(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--word", "a1", "--braid", "s1"])
        assert err.value.code == 2

    def test_exceptional_braid_is_exact_zero(self, capsys):
        code = main(["bounds", "--braid", "s1^7 D^3"])
        captured = capsys.readouterr()
        assert code == 0
        rows = json.loads(captured.out)
        assert [r["quantity"] for r in rows] == ["extremal_length"]
        assert rows[0]["exact_zero"] is True

    @pytest.mark.parametrize("value", ["abc", "16", "40000"])
    def test_precision_variable_is_ignored(self, capsys, monkeypatch, value):
        # bound columns run at a fixed precision; no setting changes a byte
        commands = (["bounds", "--word", "a1^2 a2^2"], ["count", "tuples", "--X", "1000"])
        monkeypatch.delenv("BRAIDCOUNT_PRECISION", raising=False)
        expected = [run(capsys, *argv) for argv in commands]
        monkeypatch.setenv("BRAIDCOUNT_PRECISION", value)
        assert [run(capsys, *argv) for argv in commands] == expected
        assert all(code == 0 for code, _ in expected)

    def test_omitted_entropy_states_reason(self, capsys):
        code = main(["bounds", "--word", "a1^4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "entropy omitted" in captured.err
        assert [r["quantity"] for r in json.loads(captured.out)] == [
            "extremal_length"
        ]

    @pytest.mark.parametrize("flag, text, note, rows", [
        ("--braid", "D^2", "the braid has no pure part", [ZERO_ROW]),
        ("--word", "a1^4", "entropy bounds require more than one syllable", [ZERO_ROW]),
        ("--braid", "s1^7 D^3", "entropy bounds require more than one syllable", [ZERO_ROW]),
        ("--word", "a1 a2 a1", "word is not cyclically reduced", [A1_A2_A1_ROW]),
        ("--braid", "s1^2 s2^2 s1^2", "word is not cyclically reduced", [A1_A2_A1_ROW]),
        ("--braid", "s1^3 s2^-2 D", None, [
            "extremal_length  exact_zero=False  lower_log_arg=9  upper_log_arg=16  "
            "lower_value=0.349699152566  upper_value=831.776616672",
            "entropy  exact_zero=False  lower_log_arg=9  upper_log_arg=16  "
            "lower_value=0.549306144334  upper_value=1306.55165419",
        ]),
    ])
    def test_entropy_row_or_note(self, capsys, flag, text, note, rows):
        # --word and --braid share one entropy branch; pin what each prints
        assert main(["bounds", flag, text, "--format", "plain"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("" if note is None else f"note: entropy omitted: {note}\n")
        kind = flag.lstrip("-")
        assert captured.out.splitlines() == [
            f"input_kind={kind}  input={text}  quantity={row}" for row in rows
        ]

    def test_one_normal_form_per_braid_input(self, capsys, monkeypatch):
        calls = {"normal_form": 0, "unembed": 0}

        def counting(name):
            original = getattr(braid, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(braid, name, counting(name))
        for argv in (
            ["bounds", "--braid", "s1^3 s2^-2 D"],
            ["normalize", "s1^3 s2^-2 D"],
            ["theta", "s1^3 s2^-2 D"],
        ):
            calls.update(normal_form=0, unembed=0)
            assert main(argv) == 0
            assert calls == {"normal_form": 1, "unembed": 1}, argv
        capsys.readouterr()


class TestCount:
    def test_tuples(self, capsys):
        rows = run_json(capsys, "count", "tuples", "--X", "9")
        assert rows == [{
            "function": "tuples",
            "X": 9,
            "exact": "4",
            "bound": "6.24025146916",
            "satisfied": True,
        }]

    @pytest.mark.parametrize("x, bound", [(24, "32"), (81, "243"), (25, "34.2529454769")])
    def test_tuples_bound_exact_at_cube_thresholds(self, capsys, x, bound):
        assert run_json(capsys, "count", "tuples", "--X", str(x))[0]["bound"] == bound

    def test_tuples_fixed_length(self, capsys):
        rows = run_json(capsys, "count", "tuples", "--X", "9", "--j", "1")
        assert rows[0]["function"] == "tuples_j"
        assert rows[0]["exact"] == "3"
        assert rows[0]["bound"] == "3"

    def test_tuples_bound_not_applicable(self, capsys):
        rows = run_json(capsys, "count", "tuples", "--X", "8", "--j", "2")
        assert rows[0]["exact"] == "0"
        assert rows[0]["bound"] is None
        assert rows[0]["satisfied"] is True

    def test_words_by_threshold(self, capsys):
        rows = run_json(capsys, "count", "words", "--Y", "log(27)")
        assert rows[0]["X"] == 27
        assert rows[0]["exact"] == "124"

    def test_classes(self, capsys):
        rows = run_json(capsys, "count", "classes", "--pairs", "2")
        assert rows[0]["exact"] == "6"
        assert rows[0]["bound"] == "4"
        assert rows[0]["satisfied"] is True

    @pytest.mark.parametrize("pairs", [0, MAX_REPORT_INDEX + 1, 10**7])
    def test_classes_outside_pairs_range_exits_2_at_once(self, capsys, pairs):
        start = time.perf_counter()
        assert main(["count", "classes", "--pairs", str(pairs)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_missing_threshold_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "tuples"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["count", "classes"],
        ["count", "words", "--X", "100", "--j", "3"],
        ["count", "tuples", "--X", "100", "--max-len", "2", "--pairs", "4"],
        ["count", "classes", "--pairs", "2", "--X", "100"],
        ["count", "classes", "--pairs", "2", "--Y", "nope"],
        ["count", "tuples", "--X", "9", "--workers", "2"],
    ])
    def test_count_kind_refuses_foreign_or_missing_options(self, capsys, argv):
        # each kind takes only its own options, so none is silently dropped
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bad_y_exits_2(self, capsys):
        code, _ = run(capsys, "count", "words", "--Y", "nope(3)")
        assert code == 2

    def test_negative_max_len_exits_2(self, capsys):
        assert main(["count", "words", "--X", "100", "--max-len", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["count", "words", "--X", str(10**20)],
        ["count", "tuples", "--Y", "10**6"],
        ["count", "tuples", "--Y", "2000"],
        ["count", "tuples", "--X", str(MAX_X + 1)],
        ["count", "words", "--Y", "log(100000000001)"],
        ["count", "tuples", "--j", "4", "--X", str(MAX_X + 1)],
        ["count", "tuples", "--j", "3", "--Y", "log(10**11 + 1)"],
    ])
    def test_x_above_ceiling_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "ceiling" in captured.err
        assert captured.out == ""

    def test_bounded_words_above_its_ceiling_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["count", "words", "--X", "3000000", "--max-len", "999999"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert "ceiling" in captured.err and captured.out == ""

    def test_bounded_words_ceiling_spares_slack_budgets(self, capsys):
        # no word has a total degree above X // 3, so this is count_words
        x = 10**7
        assert x > MAX_BOUNDED_WORDS_X
        rows = run_json(capsys, "count", "words", "--X", str(x), "--max-len", str(x))
        assert rows[0]["exact"] == str(counting.count_words(x))

    def test_huge_j_is_an_empty_count_at_once(self, capsys):
        # no tuple of length 10^9 fits, which is settled before 3^j is built
        start = time.perf_counter()
        rows = run_json(capsys, "count", "tuples", "--j", "1000000000", "--X", "5")
        assert time.perf_counter() - start < 1.0
        assert rows[0]["exact"] == "0" and rows[0]["bound"] is None

    def test_x_and_y_together_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "words", "--X", "100", "--Y", "log(27)"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_x_at_ceiling_is_accepted(self, capsys):
        # no tuple of length 40 fits under 3^40 > MAX_X, so this is instant
        rows = run_json(capsys, "count", "tuples", "--X", str(MAX_X), "--j", "40")
        assert rows[0]["X"] == MAX_X and rows[0]["exact"] == "0"

    def test_complex_y_exits_2(self, capsys):
        assert main(["count", "words", "--Y", "log(-1)"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, message", [
        (["count", "words", "--Y", "-log(2)"], "exponent must be nonnegative"),
        (["report", "lambda", "--Y", "-10**100"], "out of range"),
    ])
    def test_y_starting_with_minus_reaches_its_check(self, capsys, argv, message):
        # argparse alone reads such a value as an option and stops at
        # "expected one argument"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    def test_option_after_y_is_left_to_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "words", "--Y", "--X", "5"])
        assert exc.value.code == 2
        assert "argument --Y: expected one argument" in capsys.readouterr().err

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch):
        # no library path raises ArithmeticError today, but a numeric library
        # may; the command reports it like any unusable input
        def give_up(y):
            raise ArithmeticError("cannot certify the floor")

        monkeypatch.setattr(counting, "threshold_from_y", give_up)
        assert main(["count", "tuples", "--Y", "log(27)"]) == 2
        assert capsys.readouterr().err == "error: cannot certify the floor\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        assert main(["count", "words", "--X", "100", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --workers must be positive\n"

    def test_worker_output_identical(self, capsys):
        _, one = run(capsys, "count", "words", "--X", "2187", "--workers", "1")
        _, many = run(capsys, "count", "words", "--X", "2187", "--workers", "4")
        assert one == many

    def test_tiny_positive_y_is_certified(self, capsys):
        rows = run_json(capsys, "count", "tuples", "--Y", "exp(-E**(720000))")
        assert rows[0]["X"] == 1
        assert run_json(capsys, "count", "tuples", "--Y", "exp(-E**(800000))") == rows

    def test_y_with_a_loose_enclosure_is_certified(self, capsys):
        # Y is exactly 10, though its enclosure is unbounded
        rows = run_json(capsys, "count", "words", "--Y", LOOSE + " + 10")
        assert rows == run_json(capsys, "count", "words", "--X", "22026")

    def test_y_proven_above_the_ceiling_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        # an enclosure proves Y above the ceiling before any floor is certified
        assert main(["count", "words", "--Y", "log(exp(-2**23)) + 2**23 + 10**5"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "above the ceiling" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["count", "tuples", "--Y", "E**(10**9)"],
        ["report", "lambda", "--Y", "E**(10**9)"],
        ["count", "tuples", "--Y", "exp(-E**(10**9))"],
        ["count", "tuples", "--Y", "exp(1)**(10**9)"],
        ["count", "tuples", "--Y", "pi**(10**100)"],
    ])
    def test_huge_powers_of_constants_exit_2_at_once(self, capsys, argv):
        # pi, E and exp(1) pass the parse guard on powers; their enclosures
        # must still never be turned into exact fractions of billions of bits
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


class TestReport:
    def test_lambda(self, capsys):
        rows = run_json(capsys, "report", "lambda", "--Y", "600*log(8)")
        assert rows == [{
            "variant": "lambda",
            "Y": "600*log(8)",
            "index": 2,
            "family_size": 4,
            "class_count": None,
            "paper_bound": "2.00000000000",
            "satisfied": True,
        }]

    def test_entropy(self, capsys):
        rows = run_json(capsys, "report", "entropy", "--Y", "600*pi*log(8)")
        assert rows[0]["family_size"] == 16
        assert rows[0]["class_count"] == 6

    def test_huge_log_coefficients_settle_quickly(self, capsys):
        # sympy's exp expanded this into a power of millions of digits
        start = time.perf_counter()
        y = "9*10**6*log(9)-9*10**6*log(8)+8000000"
        rows = run_json(capsys, "report", "entropy", "--Y", y)
        assert time.perf_counter() - start < 1.0
        assert rows[0]["index"] == 4622 and rows[0]["satisfied"]

    def test_too_small_exits_2(self, capsys):
        code, _ = run(capsys, "report", "lambda", "--Y", "1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["report", "lambda", "--Y", "10**7"],
        ["report", "lambda", "--Y", "10**9"],
        ["report", "entropy", "--Y", "10**9"],
        ["report", "lambda", "--Y", "10**3000"],
        ["report", "entropy", "--Y", f"{MAX_REPORT_INDEX + 1}*300*pi*log(8)"],
    ])
    def test_y_above_index_ceiling_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert "index must lie in" in captured.err and captured.out == ""

    @pytest.mark.parametrize("y, index", [
        (f"{MAX_REPORT_INDEX}*300*log(8)", MAX_REPORT_INDEX),
        ("10**6", 1602),
    ])
    def test_large_y_within_ceiling_succeeds(self, capsys, y, index):
        rows = run_json(capsys, "report", "lambda", "--Y", y)
        assert rows[0]["index"] == index and rows[0]["satisfied"]

    def test_index_behind_a_loose_enclosure_is_certified(self, capsys):
        # the enclosure of Y is unbounded, yet the index is exactly 3000
        rows = run_json(capsys, "report", "lambda", "--Y", LOOSE + " + 3000*300*log(8)")
        assert rows[0]["index"] == 3000 and rows[0]["satisfied"]
        code, _ = run(capsys, "report", "lambda", "--Y", LOOSE + f" + {MAX_REPORT_INDEX + 1}*300*log(8)")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["report", "lambda", "--Y", "1/0"],
        ["report", "entropy", "--Y", "log(-1)"],
    ])
    def test_non_real_y_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not a real number" in captured.err
        assert captured.out == ""


class TestFormats:
    def test_csv_columns_are_json_keys(self, capsys):
        json_rows = run_json(capsys, "count", "tuples", "--X", "9")
        code, out = run(capsys, "--format", "csv", "count", "tuples", "--X", "9")
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        assert header == list(json_rows[0].keys())
        assert len(list(reader)) == len(json_rows)

    def test_format_after_subcommand(self, capsys):
        _, before = run(capsys, "--format", "csv", "normalize", "s1")
        _, after = run(capsys, "normalize", "s1", "--format", "csv")
        assert before == after

    def test_format_at_every_level_of_count(self, capsys):
        outs = {
            run(capsys, *argv)
            for argv in (
                ("--format", "csv", "count", "tuples", "--X", "9"),
                ("count", "--format", "csv", "tuples", "--X", "9"),
                ("count", "tuples", "--format", "csv", "--X", "9"),
                ("count", "tuples", "--X", "9", "--format", "csv"),
            )
        }
        assert outs == {(0, "function,X,exact,bound,satisfied\r\ntuples,9,4,6.24025146916,True\r\n")}

    def test_plain_lines(self, capsys):
        code, out = run(capsys, "--format", "plain", "count", "tuples", "--X", "9")
        assert code == 0
        assert "exact=4" in out


class TestVerify:
    def test_subset_suite_passes(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "words", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert rows and all(r["passed"] for r in rows)
        assert {r["suite"] for r in rows} == {"words"}

    def test_rows_have_fixed_keys(self, capsys):
        rows = run_json(capsys, "verify", "--suite", "words")
        assert list(rows[0]) == ["suite", "check", "passed", "detail"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "counting", "--max-x", "-5"),
            ("--max-len", "-1"),
            ("--suite", "braid", "--max-len", "11"),
            ("--suite", "counting", "--max-x", "10001"),
            ("--suite", "classes", "--pairs", "6"),
            ("--suite", "counting", "--max-len", "11"),
            ("--suite", "classes", "--conj-len", "5"),
            ("--suite", "classes", "--conj-len", "-1"),
            ("--suite", "classes", "--pairs", "0"),
            ("--conj-len", "5"),  # refused before the other suites run
        ],
    )
    def test_bad_limit_exits_2(self, capsys, argv):
        start = time.perf_counter()
        assert main(["verify", *argv]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "suite, limits",
        [
            (verify.braid_suite, {"max_len": 11}),
            (verify.counting_suite, {"max_len": 11}),
            (verify.classes_suite, {"conj_len": 5}),
            (verify.classes_suite, {"pairs": 0}),
        ],
    )
    def test_suites_check_their_own_limits(self, suite, limits):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            suite(**limits)
        assert time.perf_counter() - start < 1.0

    def test_max_len_reaches_braid_suite(self, capsys, monkeypatch):
        calls = []
        original = braid.normal_form
        monkeypatch.setattr(braid, "normal_form", lambda x: calls.append(x) or original(x))
        counts, checks = [], []
        for max_len in ("1", "2"):
            calls.clear()
            rows = run_json(capsys, "verify", "--suite", "braid", "--max-len", max_len)
            counts.append(len(calls))
            checks.append([r["check"] for r in rows])
        assert counts[0] < counts[1]
        assert checks[0] == checks[1]

    @pytest.mark.parametrize("suite", ["words", "braid", "counting", "classes"])
    def test_each_default_limit_leaves_stdout_unchanged(self, capsys, suite):
        # the suite's signature holds each default: naming it changes nothing
        function, limits = verify.SUITES[suite]
        defaults = inspect.signature(function).parameters
        code, plain = run(capsys, "verify", "--suite", suite)
        assert code == 0
        for name in limits:
            flag = "--" + name.replace("_", "-")
            value = str(defaults[name].default)
            assert run(capsys, "verify", "--suite", suite, flag, value) == (0, plain)

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "--suite", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_suite_all_covers_everything(self, capsys):
        rows = run_json(
            capsys, "verify", "--suite", "all",
            "--max-x", "60", "--max-len", "4", "--pairs", "2", "--conj-len", "1",
        )
        assert {r["suite"] for r in rows} == {"words", "braid", "counting", "classes"}


class TestWarmProcess:
    @pytest.mark.parametrize("argv, code", [
        (("normalize", "s1^3 S2 s2^-2 D s1^3 S2"), 0),
        (("theta", "s1 s2 s1 S1^4 s2 s1"), 0),
        (("bounds", "--braid", "s1^2 s2^-3 s1 s1^2 s2^-3"), 0),
        (("syllables", "a1^3 a2 a1 a2 A1^2 a2 a1"), 0),
        (("bounds", "--word", "a1^2 a2^-3 a1 a2 a1^2 a2^-3", "--format", "csv"), 0),
        (("normalize", "s1 s2 q2 s1"), 2),
        (("bounds", "--word", "a1 a2 a1^"), 2),
    ])
    def test_second_call_prints_the_same(self, capsys, monkeypatch, argv, code):
        # the first call fills empty token and syllable caches, the second reads them
        for module, name in ((braid, "_decoded_run"), (words, "_decoded_term"), (words, "_syllable")):
            cached = getattr(module, name)
            monkeypatch.setattr(module, name, lru_cache(cached.cache_info().maxsize)(cached.__wrapped__))
        first = main(list(argv)), capsys.readouterr()
        assert braid._decoded_run.cache_info().currsize or words._decoded_term.cache_info().currsize
        second = main(list(argv)), capsys.readouterr()
        assert second == first
        assert first[0] == code


@pytest.mark.parametrize("argv", [("--help",), ("count", "words")])
def test_usage_survives_stripped_docstrings(argv):
    # python -OO drops docstrings; the usage block is assigned, not a docstring
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "braidcount.cli", *argv],
            capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        for flags in ((), ("-OO",))
    ]
    assert [(r.stdout, r.stderr, r.returncode) for r in runs[1:]] == [
        (runs[0].stdout, runs[0].stderr, runs[0].returncode)
    ]
    assert b"usage: braidcount [-h | --help]" in runs[0].stdout + runs[0].stderr


class TestClosedStdout:
    """A reader that is gone before the command writes leaves no traceback."""

    @pytest.mark.parametrize("argv", [
        ("normalize", "s1 s2"),
        ("count", "tuples", "--X", "24", "--format", "csv"),
        ("verify", "--suite", "words", "--format", "plain"),
    ])
    def test_child_with_closed_stdout_pipe_is_quiet(self, argv):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "braidcount.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write)
        assert proc.stderr == b""
        assert proc.returncode == 0

    @pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)])
    def test_exit_code_is_the_commands(self, monkeypatch, passed, code):
        read, write = os.pipe()
        os.close(read)
        closed = open(write, "w")
        monkeypatch.setattr(
            verify, "run_suites",
            lambda *a, **k: [verify.CheckResult("words", "stub", passed)],
        )
        monkeypatch.setattr(sys, "stdout", closed)
        try:
            assert main(["verify", "--suite", "words"]) == code
            closed.write("x" * 100000)
            closed.flush()  # stdout's descriptor now leads to devnull
        finally:
            closed.close()
