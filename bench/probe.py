"""Set-up probe of traced runs: import braidcount, then call every traced
function once on a small input.

Usage: python3 -X importtime bench/probe.py

Prints one JSON object: the imported package file and the span report
of the calls.  Layers that a workload never calls are reported from
these calls, so every layer metric of a traced run is a measurement.
"""

import contextlib
import io
import json

import spans

tracer = spans.Tracer()
spans.install(tracer)
import braidcount  # noqa: E402
from braidcount import braid, classes, cli, counting, invariants, verify, words  # noqa: E402

tracer.active = True
form = braid.normal_form(braid.evaluate(braid.parse_braid("s1^3 S2^2 s1 s2^4 D")))
braid.pure_projection(form)
invariants.extremal_length_bounds_braid(form).to_json()
w = words.parse_word("a1^2 a2 A1 a2^-3 a1 a2^2")
words.syllable_decompose(w)
words.cyclic_reduce(w)
invariants.extremal_length_bounds_word(w).to_json()
invariants.entropy_bounds(words.parse_word("a1^2 a2^2 a1^-3 a2")).to_json()
counting.count_tuples(1000)
counting.count_tuples_j(2, 1000)
counting.count_words(1000)
counting.count_words(1000, workers=2)
counting.count_words_bounded(1000, 6)
counting.bound_words(1000)
counting.bound_tuples_total(1000)
counting.threshold_from_y("log(27)")
classes.lower_bound_report("600*log(8)", classes.LAMBDA_VARIANT)
verify.run_suites(["words"])
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["count", "classes", "--pairs", "2"])
tracer.active = False
print(json.dumps({"file": braidcount.__file__, **tracer.report()}))
