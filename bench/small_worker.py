"""Warm in-process worker of the ``many_small`` workload.

Usage: python3 bench/small_worker.py SEED SECONDS MIN_PASSES TRACE

Draws a fixed list of single-input operations from SEED and makes passes
over it, one operation at a time in a closed loop, until SECONDS have
passed (at least MIN_PASSES).  Prints one JSON object with the
latency of every repeat of every operation, the failures, the attempt
count and, when TRACE is 1, the span report.  Each operation is timed
alone, and one ``speed`` kernel sample follows each cycle of operations;
the latency at the reference speed uses the samples on both sides of the
cycle.  Every output is checked, outside the timer and with tracing
paused.

With TRACE 1 each cycle of operations runs twice, once untraced and
once traced, and the side that goes first alternates between cycles.  So
both latency sets cover the same inputs over the same stretch of time,
and their difference is the tracing overhead.
"""

from __future__ import annotations

import json
import random
import sys
import time
from decimal import Decimal
from pathlib import Path

import inputs
import spans
import speed

from braidcount import braid, counting, invariants, oracle, words

#: One cycle of operation kinds: five memo-warm counts (well under a
#: millisecond), two short words and seven 200-letter braids (about one
#: millisecond each), and two large inputs.  The median falls among the
#: 200-letter braids, the 98th percentile among the large inputs.
CYCLE = (
    ("count_tuples", "count_tuples_j", "count_words", "count_words_bounded",
     "count_tuples_j", "word_small", "word_small")
    + ("braid_200",) * 7
    + ("braid_20000", "word_2000")
)
#: A run's operations: CYCLES cycles, 512 operations, each input new.
CYCLES = 32


class Workload:
    def __init__(self, seed: int, expected_words: dict[int, int]):
        rng = random.Random(seed)
        self.tuple_xs = sorted(inputs.log_uniform_int(rng, 10**3, 10**5) for _ in range(8))
        self.expected_words = expected_words
        # the count pools are walked in a seeded order, the others hold one
        # new input per operation of their kind; word lengths are spread
        # evenly over their range, so every seed has the same mix of sizes
        per_run = {kind: CYCLE.count(kind) * CYCLES for kind in CYCLE}
        self.pools = {
            "braid_200": [inputs.braid_text(rng, 200) for _ in range(per_run["braid_200"])],
            "braid_20000": [
                inputs.braid_text(rng, 20000) for _ in range(per_run["braid_20000"])
            ],
            "word_small": [
                inputs.word_text(rng, terms) for terms in spread(4, 100, per_run["word_small"])
            ],
            "word_2000": [
                inputs.word_text(rng, terms) for terms in spread(1000, 2000, per_run["word_2000"])
            ],
            "count_tuples": list(self.tuple_xs),
            "count_tuples_j": [
                (j, x) for x in self.tuple_xs
                for j in range(1, counting.max_tuple_length(x) + 1)
            ],
            "count_words": sorted(expected_words),
            "count_words_bounded": [(x, n) for x in self.tuple_xs for n in range(1, 9)],
        }
        for pool in self.pools.values():
            rng.shuffle(pool)
        taken = dict.fromkeys(self.pools, 0)
        self.ops = []
        for _ in range(CYCLES):
            for kind in CYCLE:
                pool = self.pools[kind]
                self.ops.append((kind, pool[taken[kind] % len(pool)]))
                taken[kind] += 1
        # brute-force references, computed before any timing starts
        self.brute_tuples = {x: oracle.brute_count_tuples(x) for x in self.tuple_xs}
        self.tuples_by_length = {x: tuples_by_length(x) for x in self.tuple_xs}
        self.word_histogram = oracle.word_product_histogram(8)

    def warm_up(self) -> None:
        """One untimed pass over every threshold, so count memos are warm."""
        for kind in ("count_tuples", "count_tuples_j", "count_words", "count_words_bounded"):
            for arg in self.pools[kind]:
                run_count(kind, arg)
        run_braid(self.pools["braid_200"][0])
        run_word(self.pools["word_small"][0])

    def check(self, kind: str, arg, result) -> bool:
        if kind.startswith("braid"):
            return check_braid(*result)
        if kind.startswith("word"):
            return check_word(*result)
        if kind == "count_tuples":
            return result == self.brute_tuples[arg]
        if kind == "count_tuples_j":
            j, x = arg
            return result == self.tuples_by_length[x][j]
        if kind == "count_words":
            return result == self.expected_words[arg]
        x, length = arg
        brute = sum(
            n for (degree, weight), n in self.word_histogram.items()
            if degree <= length and weight <= x
        )
        return result == brute


def spread(low: int, high: int, count: int) -> list[int]:
    """``count`` whole numbers spaced evenly from ``low`` to ``high``."""
    return [low + (high - low) * i // (count - 1) for i in range(count)]


def tuples_by_length(x: int) -> list[int]:
    """Tuples with prod(3 d_k) <= x counted by length, by plain enumeration."""
    counts = [1] + [0] * counting.max_tuple_length(x)

    def walk(budget: int, length: int) -> None:
        d = 1
        while 3 * d <= budget:
            counts[length + 1] += 1
            walk(budget // (3 * d), length + 1)
            d += 1

    walk(x, 0)
    return counts


def run_braid(text: str):
    x = braid.evaluate(braid.parse_braid(text))
    form = braid.normal_form(x)
    if not form.is_power_of_delta:
        braid.pure_projection(form)
    row = invariants.extremal_length_bounds_braid(form).to_json()
    return x, form, [row]


def run_word(text: str):
    w = words.parse_word(text)
    deco = words.syllable_decompose(w)
    core, conj = words.cyclic_reduce(w)
    rows = [invariants.extremal_length_bounds_word(w).to_json()]
    try:
        rows.append(invariants.entropy_bounds(core).to_json())
    except ValueError:
        pass  # entropy undefined for this class; the command line omits it too
    return w, deco, core, conj, rows


def run_count(kind: str, arg):
    if kind == "count_tuples":
        return counting.count_tuples(arg)
    if kind == "count_tuples_j":
        return counting.count_tuples_j(*arg)
    if kind == "count_words":
        return counting.count_words(arg)
    return counting.count_words_bounded(*arg)


def ordered(rows: list[dict]) -> bool:
    return all(Decimal(r["lower_value"]) <= Decimal(r["upper_value"]) for r in rows)


def check_braid(x, form, rows) -> bool:
    if len(x.letters) <= 2000:
        back = braid.remultiply(form)
    else:
        # remultiply is quadratic in the word length (0.3 s at 20 000
        # letters); re-evaluating the form's braid word is the same map
        back = braid.evaluate(form_word(form))
    return back == x and ordered(rows)


def form_word(form) -> braid.BraidWord:
    if form.is_power_of_delta:
        return braid.half_twist_word(form.ell)
    letters = list(braid.sigma_word(form.j, form.k).letters)
    for gen, exp in form.b1.terms:
        letters.extend(braid.sigma_word(gen, 2 * exp).letters)
    letters.extend(braid.half_twist_word(form.ell).letters)
    return braid.BraidWord(tuple(letters))


def check_word(w, deco, core, conj, rows) -> bool:
    return (
        words.FreeWord(deco.expand()) == w
        and conj * core * conj.inverse() == w
        and ordered(rows)
    )


def execute(kind: str, arg):
    if kind.startswith("braid"):
        return run_braid(arg)
    if kind.startswith("word"):
        return run_word(arg)
    return run_count(kind, arg)


def timed(workload: Workload, kind: str, arg, tracer) -> tuple[int, str | None]:
    """Latency (ns) of one operation, and its failure message or None."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter_ns()
    try:
        result = execute(kind, arg)
    except Exception as exc:  # an operation that raises is a failure
        return time.perf_counter_ns() - t0, f"{kind}: {type(exc).__name__}: {exc}"[:300]
    finally:
        if tracer is not None:
            tracer.active = False
    latency = time.perf_counter_ns() - t0
    if not workload.check(kind, arg, result):
        return latency, f"{kind}: wrong output for {str(arg)[:80]!r}"
    return latency, None


def measure(workload: Workload, seconds: float, min_passes: int, tracer):
    """Passes over every operation in one closed loop.

    After ``min_passes`` passes, no pass starts that would end after
    ``seconds``.  Without a tracer each cycle of a pass runs once; with
    one it runs untraced and traced, in alternating order.  Returns the
    untraced and traced ``[reference ns, wall ns]`` of every repeat of
    every operation, the failure messages and the number attempted.
    """
    ops = workload.ops
    plain: list[list[list[float]]] = [[] for _ in ops]
    traced: list[list[list[float]]] = [[] for _ in ops]
    errors: list[str] = []
    attempted = 0
    number = 0
    before = speed.sample()
    start = time.perf_counter()
    last = 0.0
    done = 0
    while done < min_passes or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        for first in range(0, len(ops), len(CYCLE)):
            sides = [None] if tracer is None else [None, tracer][:: 1 if number % 2 else -1]
            number += 1
            for side in sides:
                latencies = []
                for slot in range(first, first + len(CYCLE)):
                    kind, arg = ops[slot]
                    latency, error = timed(workload, kind, arg, side)
                    latencies.append(latency)
                    attempted += 1
                    if error is not None:
                        errors.append(error)
                after = speed.sample()
                factor = speed.scale([before, after])
                for slot, latency in enumerate(latencies, first):
                    (plain if side is None else traced)[slot].append([latency * factor, latency])
                before = after
        last = time.perf_counter() - began
        done += 1
    return plain, traced if tracer is not None else [], errors, attempted


def main() -> None:
    seed, seconds, min_passes, trace = (
        int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
    )
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    workload = Workload(seed, {int(k): v for k, v in expected["count_words"].items()})
    workload.warm_up()
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    plain, traced, errors, attempted = measure(workload, seconds, min_passes, tracer)
    out = {"repeats_ns": plain, "errors": errors, "attempted": attempted}
    if trace:
        out.update(tracer.report(), traced_repeats_ns=traced)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
