"""Self-check suites: exercise every advertised property at desk scale.

Each suite returns a list of check rows; a row records one named
property, whether it held, and a short detail string for failures.
The command-line ``verify`` command renders these rows and fails the
process when any check fails.  Limits are parameters so callers can
trade time for coverage.
"""

from __future__ import annotations

import random
from itertools import product

from . import braid, classes, counting, invariants, oracle, words
from ._record import Record


class CheckResult(Record):
    __slots__ = ("suite", "check", "passed", "detail")

    def __init__(self, suite: str, check: str, passed: bool, detail: str = ""):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "check": self.check,
            "passed": self.passed,
            "detail": self.detail,
        }


#: The accepted range of each suite limit, so that no suite runs for minutes.
#: On a 2-core host: ``max_x`` 10^4 takes about 7 s (every threshold is
#: counted); ``max_len`` 10 about 1.4 s in the counting suite (the word
#: oracle; 12 took about 25 s) and about 61 s in the braid suite, which
#: enumerates all 4^n letter sequences (0.33, 1.1, 3.9, 12 s at 6 to 9);
#: ``pairs`` 5 about 7 s; ``conj_len`` 4 at 5 pairs about 31 s.
LIMITS = {"max_x": (0, 10**4), "max_len": (0, 10), "pairs": (1, 5), "conj_len": (0, 4)}


def _check_limits(**limits: int) -> None:
    """Raise ValueError for any suite limit outside its :data:`LIMITS` range."""
    for name, value in limits.items():
        low, high = LIMITS[name]
        if not low <= value <= high:
            raise ValueError(f"verify {name} must be from {low} to {high}")


def _check(rows: list, suite: str, name: str, passed: bool, detail: str = "") -> None:
    rows.append(CheckResult(suite, name, bool(passed), "" if passed else detail))


def _random_reduced_word(rng: random.Random, max_terms: int) -> words.FreeWord:
    terms = []
    gen = rng.choice((1, 2))
    for _ in range(rng.randrange(max_terms + 1)):
        exp = rng.choice((-3, -2, -1, 1, 2, 3))
        terms.append((gen, exp))
        gen = words.other_generator(gen)
    return words.FreeWord(tuple(terms))


#: Random words each sampled check of the words suite draws.
_WORD_SAMPLES = 300


def words_suite() -> list[CheckResult]:
    rows: list[CheckResult] = []
    rng = random.Random(20260817)

    ok = True
    for _ in range(_WORD_SAMPLES):
        w = _random_reduced_word(rng, 8)
        ok = ok and words.parse_word(words.word_to_text(w)) == w
    _check(rows, "words", "text round-trip", ok)

    deco = words.syllable_decompose(words.parse_word("a1^3"))
    ok = len(deco) == 1 and deco.syllables[0].kind == words.FIRST_KIND
    deco2 = words.syllable_decompose(words.parse_word("a1 a2"))
    ok = ok and len(deco2) == 1 and deco2.syllables[0].degree == 2
    deco3 = words.syllable_decompose(words.parse_word("a1 a2^-1"))
    ok = ok and len(deco3) == 2
    _check(rows, "words", "syllable decomposition examples", ok)

    ok = True
    for _ in range(_WORD_SAMPLES):
        w = _random_reduced_word(rng, 8)
        d = words.syllable_decompose(w)
        ok = ok and words.FreeWord(d.expand()) == w
        ok = ok and sum(d.degrees()) == w.total_degree
    _check(rows, "words", "decomposition expands back", ok)

    ok = True
    for _ in range(_WORD_SAMPLES):
        w = _random_reduced_word(rng, 8)
        core, conj = words.cyclic_reduce(w)
        ok = ok and conj * core * conj.inverse() == w
        ok = ok and words.is_cyclically_reduced(core)
    _check(rows, "words", "cyclic reduction invariants", ok)

    ok = True
    for _ in range(_WORD_SAMPLES):
        w = _random_reduced_word(rng, 6)
        if w.is_identity:
            continue
        g = _random_reduced_word(rng, 4)
        conj = g.inverse() * w * g
        witness = words.free_conjugator(w, conj)
        ok = ok and witness is not None
        ok = ok and witness.inverse() * w * witness == conj
    _check(rows, "words", "conjugacy witness on conjugate pairs", ok)

    ok = words.free_conjugator(
        words.parse_word("a1^2"), words.parse_word("a1^4")
    ) is None
    _check(rows, "words", "non-conjugates rejected", ok)
    return rows


def braid_suite(max_len: int = 6) -> list[CheckResult]:
    _check_limits(max_len=max_len)  # all 4^n letter sequences are enumerated
    rows: list[CheckResult] = []
    ev, pb = braid.evaluate, braid.parse_braid

    _check(rows, "braid", "braid relation", ev(pb("s1 s2 s1")) == ev(pb("s2 s1 s2")))
    _check(rows, "braid", "squared half twist is central-trivial", ev(pb("D^2")).is_identity)
    _check(rows, "braid", "full twist is central-trivial", ev(pb("s1 s2 s1 s2 s1 s2")).is_identity)

    identities = [
        ("D s1", "s2 D"),
        ("D s2", "s1 D"),
        ("S1 S2^4 D^4 s1", "s2^2 s1^2 s2^2 s1^2"),
        ("S2 S1^4 D^4 s2", "s1^2 s2^2 s1^2 s2^2"),
    ]
    ok = all(ev(pb(a)) == ev(pb(b)) for a, b in identities)
    _check(rows, "braid", "half-twist conjugation identities", ok)

    letters = ((1, 1), (1, -1), (2, 1), (2, -1))
    ok_round, ok_unique, ok_first, ok_theta = True, True, True, True
    forms_by_coset: dict = {}
    for n in range(max_len + 1):
        for combo in product(letters, repeat=n):
            x = ev(braid.BraidWord(combo))
            form = braid.normal_form(x)
            ok_round = ok_round and braid.remultiply(form) == x
            if form.kind == braid.GENERAL and form.b1.terms:
                ok_first = ok_first and form.b1.terms[0][0] != form.j
            prev = forms_by_coset.get(x)
            if prev is None:
                forms_by_coset[x] = form
            else:
                ok_unique = ok_unique and prev == form
            if form.kind == braid.GENERAL:
                shifted = braid.normal_form(x * braid.HALF_TWIST)
                ok_theta = ok_theta and braid.pure_projection(
                    shifted
                ) == braid.pure_projection(form)
    _check(rows, "braid", "normal form re-multiplies", ok_round)
    _check(rows, "braid", "normal form canonical per coset", ok_unique)
    _check(rows, "braid", "first-term constraint", ok_first)
    _check(rows, "braid", "projection invariant under half twist", ok_theta)

    ok = True
    for n in range(min(max_len, 5) + 1):
        for combo in product(letters, repeat=n):
            x = ev(braid.BraidWord(combo))
            a = invariants.extremal_length_bounds_braid(x)
            b = invariants.extremal_length_bounds_braid(x * braid.HALF_TWIST)
            ok = ok and a == b
    _check(rows, "braid", "bounds invariant under half twist", ok)
    return rows


def counting_suite(max_x: int = 600, max_len: int = 8) -> list[CheckResult]:
    _check_limits(max_x=max_x, max_len=max_len)
    rows: list[CheckResult] = []

    ok = all(counting.count_tuples_j(1, x) == x // 3 for x in range(1, 5001))
    _check(rows, "counting", "length-1 count is floor(X/3)", ok)

    ok = True
    for j in range(1, 8):
        for x in (3**j - 1, 3**j, 3**j + 1, 2 * 3**j):
            ok = ok and (counting.count_tuples_j(j, x) == 0) == (x < 3**j)
    _check(rows, "counting", "vanishing exactly below 3^j", ok)

    grid = sorted({1, 2, 3, 8, 9, 10, 27, 100, 243, 1000, 3**8, 10**4, max_x})
    ok = True
    for x in grid:
        total = counting.count_tuples(x)
        ok = ok and total == sum(
            counting.count_tuples_j(j, x)
            for j in range(1, counting.max_tuple_length(x) + 1)
        )
        ok = ok and total <= counting.bound_tuples_total(x)
        for j in range(1, counting.max_tuple_length(x) + 1):
            ok = ok and counting.count_tuples_j(j, x) <= counting.bound_tuples_j(j, x)
    _check(rows, "counting", "exact counts within analytic bounds", ok)

    hist = oracle.tuple_product_histogram(max_x)
    acc, ok = 0, True
    for x in range(max_x + 1):
        acc += hist.get(x, 0)
        ok = ok and acc == counting.count_tuples(x)
    _check(rows, "counting", f"tuple oracle equality to {max_x}", ok)

    whist = oracle.word_product_histogram(max_len)
    xs = sorted({3**k for k in range(max_len + 1)} | {2 * 3**k for k in range(max_len)})
    ok = True
    for lim in range(1, max_len + 1):
        for x in xs:
            brute = sum(c for (l, p), c in whist.items() if l <= lim and p <= x)
            ok = ok and brute == counting.count_words_bounded(x, lim)
    _check(rows, "counting", f"word oracle equality to length {max_len}", ok)

    ok = True
    prev = 0
    for x in range(max_x + 1):
        n = counting.count_words(x)
        ok = ok and prev <= n and 2 * n <= x**3
        chain = counting.bound_words(x)
        ok = ok and n <= chain.chain_value
        prev = n
    _check(rows, "counting", "word-count inequalities and monotonicity", ok)

    x = 3**7
    ok = counting.count_words(x, workers=1) == counting.count_words(x, workers=2)
    _check(rows, "counting", "worker-count determinism", ok)

    ok = (
        counting.threshold_from_y("log(3)") == 3
        and counting.threshold_from_y(0) == 1
        and counting.threshold_from_y(2) == 7
    )
    _check(rows, "counting", "threshold floor certification", ok)
    return rows


def classes_suite(pairs: int = 3, conj_len: int = 3) -> list[CheckResult]:
    _check_limits(pairs=pairs, conj_len=conj_len)
    rows: list[CheckResult] = []

    ok = True
    for j in range(1, min(pairs, 6) + 1):
        fam = classes.enumerate_family(j)
        ok = ok and len(fam) == 4**j
        seen: set = set()
        covered = 0
        for f in fam:
            orbit = classes.orbit_of(f)
            ok = ok and (2 * j) % len(orbit) == 0
            if f not in seen:
                seen |= orbit
                covered += len(orbit)
        ok = ok and covered == 4**j
    _check(rows, "classes", "orbits partition the family", ok)

    ok = classes.class_count(1) == 3 and classes.class_count(2) == 6
    for j in range(1, min(pairs + 2, classes.ENUMERATION_LIMIT) + 1):
        ok = ok and classes.class_count(j) == classes.class_count_by_enumeration(j)
        ok = ok and 2 * j * classes.class_count(j) >= 4**j
    _check(rows, "classes", "orbit counts match both methods", ok)

    ok = True
    for j in range(1, min(pairs, 3) + 1):
        for f in classes.enumerate_family(j):
            g = classes.rotation_conjugator(f)
            ok = ok and braid.conjugate(g, braid.embed_pure(f.expand())) == (
                braid.embed_pure(f.rotate().expand())
            )
    _check(rows, "classes", "rotation realized by conjugation", ok)

    rep = classes.lower_bound_report("600*log(8)", classes.LAMBDA_VARIANT)
    ok = rep.index == 2 and rep.family_size == 4 and rep.satisfied
    rep = classes.lower_bound_report("600*pi*log(8)", classes.ENTROPY_VARIANT)
    ok = ok and rep.index == 2 and rep.family_size == 16 and rep.class_count == 6
    ok = ok and rep.satisfied
    _check(rows, "classes", "anchor lower-bound reports", ok)

    x = braid.evaluate(braid.parse_braid("S1^4 D^4"))
    beta = braid.evaluate(braid.parse_braid("s2"))
    z = braid.unembed(beta.inverse() * x * beta)
    ok = z == words.parse_word("a1 a2 a1 a2")
    _check(rows, "classes", "conjugation-machinery positive control", ok)

    ok = True
    detail = ""
    for j in range(2, max(pairs, 2) + 1):
        hits = classes.search_forbidden_conjugations(j, conj_len)
        if hits:
            ok = False
            detail = f"j={j}: {hits[0].to_json()}"
            break
    _check(rows, "classes", "forbidden conjugation search empty", ok, detail)
    return rows


#: Each suite and the limits it takes; a suite is passed only the limits
#: given, so its signature holds the only copy of each default.
SUITES = {
    "words": (words_suite, ()),
    "braid": (braid_suite, ("max_len",)),
    "counting": (counting_suite, ("max_x", "max_len")),
    "classes": (classes_suite, ("pairs", "conj_len")),
}


def run_suites(names: list[str], **limits) -> list[CheckResult]:
    """The rows of the named suites in order; ``"all"`` runs every suite.

    An unknown name or a limit out of range raises ValueError before any
    suite runs.
    """
    for name in names:
        if name != "all" and name not in SUITES:
            raise ValueError(f"unknown suite {name!r}: choose from all, {', '.join(SUITES)}")
    _check_limits(**limits)
    if "all" in names:
        names = list(SUITES)
    rows: list[CheckResult] = []
    for name in names:
        suite, takes = SUITES[name]
        rows.extend(suite(**{k: v for k, v in limits.items() if k in takes}))
    return rows
