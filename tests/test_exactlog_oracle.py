"""The metamorphic oracle of ``exactlog_oracle``: on texts whose value is
known by construction, every certificate of ``exactlog`` is the truth."""

import random
import re
import time
from fractions import Fraction

import mpmath
import pytest

import exactlog_oracle as oracle
from braidcount import exactlog

#: Five rounds of every pair of template and question: about 5 s on a
#: 2-core x86 host.  Each of the mutants ``_nonzero`` -> ``bool(form)``,
#: ``_positive`` -> True and ``_defined`` -> True certifies a wrong
#: answer among them.
CASES = 5 * len(oracle.TEMPLATES) * len(oracle.QUESTIONS)


def test_certified_answers_are_the_truth():
    failures, outcomes = oracle.run(CASES)
    assert failures == []
    # every question with a known answer is certified somewhere, so the
    # sweep checks answers and not refusals alone
    for question in oracle.QUESTIONS:
        if question not in oracle.UNDEFINED:
            assert outcomes[question, "certified"], question


@pytest.mark.parametrize("template", oracle.TEMPLATES, ids=range(len(oracle.TEMPLATES)))
def test_zero_identities_are_zero(template):
    # at 80 digits, each number but an exponent read as an mpf, so that no
    # division is one of floats
    scope = {"log": mpmath.log, "exp": mpmath.exp, "sqrt": mpmath.sqrt, "pi": mpmath.pi, "E": mpmath.e, "mpf": mpmath.mpf}
    with mpmath.workdps(80):
        for seed in range(20):
            z = oracle.zero_identity(random.Random(seed), *template)
            value = eval(re.sub(r"(?<!\*\*)(?<!\d)(\d+)", r"mpf(\1)", z), scope)
            assert abs(value) < mpmath.mpf(10) ** -60, z


def test_decimal_ceilings():
    q = Fraction(-3, 2)
    assert oracle.is_decimal_ceiling("-1.50", q, 3)
    assert not oracle.is_decimal_ceiling("-1.49", q, 3)
    assert not oracle.is_decimal_ceiling("-1.51", q, 3)
    assert not oracle.is_decimal_ceiling("-1.5", q, 3)
    assert oracle.is_decimal_ceiling("1.00", Fraction(9991, 10000), 3)
    assert not oracle.is_decimal_ceiling("1.00", Fraction(999, 1000), 3)
    assert oracle.is_decimal_ceiling("0.0156250", Fraction(1, 64), 6)
    assert oracle.is_decimal_ceiling("0E-11", Fraction(0), 12)
    assert not oracle.is_decimal_ceiling("0.01", Fraction(0), 3)


def test_a_wrong_answer_or_a_late_one_fails():
    assert oracle.wrong("sign", "certified", 1, 0)
    assert oracle.wrong("floor", "certified", 0, None)
    assert oracle.wrong("sign", "timeout", None, 0)
    assert not oracle.wrong("floor_exp", "refused", None, 7)
    assert not oracle.wrong("ceil_decimal", "certified", "2.00", (Fraction(2), 3))


def test_budget_stops_a_call(monkeypatch):
    monkeypatch.setattr(oracle, "BUDGET_S", 0.2)
    monkeypatch.setattr(exactlog, "sign", lambda node: time.sleep(5))
    cap, start = exactlog.MAX_PRECISION, time.perf_counter()
    assert oracle.answer("sign", "1", 1) == ("timeout", None)
    assert time.perf_counter() - start < 2
    assert exactlog.MAX_PRECISION == cap
