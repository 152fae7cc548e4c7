"""Span tracer that times braidcount's public functions from the outside.

``install`` replaces each traced function by a wrapper in every loaded
``braidcount`` module that holds it, so calls made through a module
attribute (``counting.count_tuples``) and through names imported into
another module (``invariants.syllable_decompose``) are both seen.  The
package source is not modified.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Spans are aggregated per name as ``[calls, total_ns,
self_ns]``; counters add up sizes observed at the same boundaries.  While
``Tracer.active`` is false the wrappers only forward the call.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.active = False
        self._child_ns: list[int] = []

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, counter=None):
        """Wrap ``fn`` in a span; ``name`` is a string or ``f(args, kwargs)``.

        ``counter(result)`` returns ``(counter_name, amount)`` pairs.
        With ``name=None`` the wrapper counts calls under ``counter`` only.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name is None:
                self.count(counter, 1)
                return fn(*args, **kwargs)
            self._child_ns.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                child = self._child_ns.pop()
                if self._child_ns:
                    self._child_ns[-1] += duration
                key = name if isinstance(name, str) else name(args, kwargs)
                record = self.spans.setdefault(key, [0, 0, 0])
                record[0] += 1
                record[1] += duration
                record[2] += duration - child
            if counter is not None:
                for key, amount in counter(result):
                    self.count(key, amount)
            return result

        return traced

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "memo_entries": memo_entries(),
        }


def _count_words_span(args, kwargs) -> str:
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    return "counting.count_words_w2" if workers > 1 else "counting.count_words"


def _letters(result):
    return (("braid.letters", len(result)),)


def _syllables(result):
    return (("words.syllables", len(result)),)


def _log_arg_digits(result):
    return (("invariants.log_arg_digits", len(result["upper_log_arg"])),)


#: (module, function, span name, counter) for every traced function.
TARGETS = (
    ("braid", "parse_braid", "braid.parse_braid", _letters),
    ("braid", "evaluate", "braid.evaluate", None),
    ("braid", "normal_form", "braid.normal_form", None),
    ("braid", "unembed", None, "braid.unembed"),
    ("braid", "pure_projection", "braid.pure_projection", None),
    ("words", "parse_word", "words.parse_word", None),
    ("words", "syllable_decompose", "words.syllable_decompose", _syllables),
    ("words", "cyclic_reduce", "words.cyclic_reduce", None),
    ("invariants", "lower_weight", "invariants.weights", None),
    ("invariants", "upper_weight", "invariants.weights", None),
    ("invariants", "extremal_length_bounds_word", "invariants.bounds", None),
    ("invariants", "extremal_length_bounds_braid", "invariants.bounds", None),
    ("invariants", "entropy_bounds", "invariants.bounds", None),
    ("counting", "count_tuples", "counting.count_tuples", None),
    ("counting", "count_tuples_j", "counting.count_tuples_j", None),
    ("counting", "count_words", _count_words_span, None),
    ("counting", "count_words_bounded", "counting.count_words_bounded", None),
    ("counting", "bound_words", "counting.bound_words", None),
    ("counting", "bound_tuples_total", "counting.bound_tuples_total", None),
    ("counting", "threshold_from_y", "counting.threshold_from_y", None),
    ("classes", "lower_bound_report", "classes.lower_bound_report", None),
    ("verify", "run_suites", "verify.run_suites", None),
    ("cli", "main", "cli.main", None),
)


def install(tracer: Tracer) -> None:
    """Route every traced function of the imported package through ``tracer``."""
    import braidcount.cli  # noqa: F401  (loads every module of the package)
    from braidcount import invariants

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "braidcount"]
    for module_name, attr, name, counter in TARGETS:
        original = getattr(sys.modules[f"braidcount.{module_name}"], attr)
        wrapper = tracer.wrap(original, name, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    to_json = invariants.BoundInterval.to_json
    invariants.BoundInterval.to_json = tracer.wrap(
        to_json, "invariants.decimal", _log_arg_digits
    )


def memo_entries() -> int:
    """Distinct quotient states held by the counting memos right now."""
    counting = sys.modules.get("braidcount.counting")
    names = ("_TUPLE_MEMO", "_WORD_MEMO", "_WORD_BOUNDED_MEMO")
    return sum(len(getattr(counting, n, ())) for n in names)
