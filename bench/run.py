"""braidcount benchmark: one seeded workload per run, outputs checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md): ``cli`` (fresh command-line processes,
one per call), ``many_small`` (one warm process, single inputs),
``count_large`` (fresh processes running ``count words``, ``count tuples``
and ``count words --workers 2`` at X near 3e7).  The package is imported
from ``src/`` of the checkout; without it the benchmark exits with code 2
and prints no result.

A run draws a fixed list of operations from its seed and makes passes
over the whole list until ``--seconds`` have passed (at least
``MIN_PASSES``).  Every repeat is timed, and every time is scaled to the
reference speed of ``speed.py``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "braidcount" / "__init__.py"
PYTHON = sys.executable

WORKLOADS = ("cli", "many_small", "count_large")
SETUP_PROBES = 5
#: Passes a run makes at least, and its tail percentile: the highest that
#: leaves ten timed repeats beyond it after those passes (10 commands x 4,
#: 512 operations x 3).  ``count_large`` (3 calls x 3) has too few for any
#: percentile, so its tail is the slowest call.
MIN_PASSES = {"cli": 4, "many_small": 3, "count_large": 3}
TAIL_PERCENTILE = {"cli": 75, "many_small": 99, "count_large": 100}
#: A single command line takes under 15 s on the reference machine.
CALL_TIMEOUT_S = 60

# per-layer metric -> (span names, "total" or "self", scale from ns, unit)
SPAN_METRICS = {
    "cli.main_s": (("cli.main",), "total", 1e-9, "s"),
    "cli.self_s": (("cli.main",), "self", 1e-9, "s"),
    "counting.threshold_from_y_s": (("counting.threshold_from_y",), "total", 1e-9, "s"),
    "classes.lower_bound_report_s": (("classes.lower_bound_report",), "total", 1e-9, "s"),
    "verify.run_suites_s": (("verify.run_suites",), "total", 1e-9, "s"),
    "braid.parse_braid_us": (("braid.parse_braid",), "self", 1e-3, "us"),
    "braid.evaluate_us": (("braid.evaluate",), "self", 1e-3, "us"),
    "braid.normal_form_us": (("braid.normal_form",), "self", 1e-3, "us"),
    "words.parse_word_us": (("words.parse_word",), "self", 1e-3, "us"),
    "words.syllable_decompose_us": (("words.syllable_decompose",), "self", 1e-3, "us"),
    "words.cyclic_reduce_us": (("words.cyclic_reduce",), "self", 1e-3, "us"),
    "invariants.weights_us": (("invariants.weights",), "self", 1e-3, "us"),
    "invariants.bounds_us": (("invariants.bounds",), "self", 1e-3, "us"),
    "invariants.decimal_us": (("invariants.decimal",), "self", 1e-3, "us"),
    "counting.small_count_us": (
        ("counting.count_tuples", "counting.count_tuples_j", "counting.count_words"),
        "self", 1e-3, "us",
    ),
    "counting.count_words_bounded_us": (("counting.count_words_bounded",), "self", 1e-3, "us"),
    "counting.count_words_s": (("counting.count_words",), "self", 1e-9, "s"),
    "counting.count_tuples_s": (("counting.count_tuples",), "self", 1e-9, "s"),
    "counting.bound_words_self_s": (("counting.bound_words",), "self", 1e-9, "s"),
    "counting.bound_tuples_total_s": (("counting.bound_tuples_total",), "total", 1e-9, "s"),
    "counting.count_words_w2_s": (("counting.count_words_w2",), "self", 1e-9, "s"),
}
# per-layer metric -> (counter, span whose call count divides it)
RATIO_METRICS = {
    "braid.letters": ("braid.letters", "braid.parse_braid", "count"),
    "braid.unembed_per_normal_form": ("braid.unembed", "braid.normal_form", "ratio"),
    "words.syllables": ("words.syllables", "words.syllable_decompose", "count"),
    "invariants.log_arg_digits": (
        "invariants.log_arg_digits", "invariants.decimal", "count"
    ),
}


class BenchError(Exception):
    """The benchmark cannot measure in this checkout."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BRAIDCOUNT_PRECISION", None)  # expected outputs use the default
    return env


def child_report(stderr: bytes) -> dict | None:
    """The report that ``child.py`` leaves on its last stderr line."""
    lines = stderr.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith(speed.MARK):
        return json.loads(lines[-1][len(speed.MARK):])
    return None


def run_child(mode: str, argv: list[str]) -> tuple[float, float, int, bytes, bytes, dict | None]:
    """Reference and wall time, exit code, stdout, stderr and report of one
    fresh ``child.py`` process.  Its speed comes from the kernel samples it
    took and from one sample on each side of it in this process."""
    before = speed.sample()
    seconds, code, out, err = run_process([PYTHON, str(BENCH / "child.py"), mode, *argv])
    after = speed.sample()
    report = child_report(err)
    samples = [before, after] + (report["samples"] if report else [])
    return seconds * speed.scale(samples), seconds, code, out, err, report


def run_process(
    cmd: list[str], timeout: float = CALL_TIMEOUT_S
) -> tuple[float, int, bytes, bytes]:
    """Wall time, exit code, stdout and stderr of one child process.

    A child still running after ``timeout`` seconds is killed with its
    session and reported with the kill signal as its exit code.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session holds pool workers too
        out, err = proc.communicate()
    return time.perf_counter() - start, proc.returncode, out, err


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for name in ("sympy", "mpmath"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "loadavg": list(os.getloadavg()),
    }


def import_times(stderr: str) -> dict:
    """sympy and mpmath cumulative import time and braidcount's own, in s."""
    sympy = mpmath = None
    own = 0
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name == "sympy" and sympy is None:
            sympy = cumulative_us
        if name == "mpmath" and mpmath is None:
            mpmath = cumulative_us
        if name.split(".")[0] == "braidcount":
            own += self_us
    return {
        "setup.sympy_s": (sympy or 0) * 1e-6,
        "setup.mpmath_s": (mpmath or 0) * 1e-6,
        "setup.braidcount_self_s": own * 1e-6,
    }


def setup(trace: bool) -> tuple[list[float], list[dict], list[dict]]:
    """Time fresh interpreters importing braidcount from this checkout.

    Returns the import times at the reference speed (untraced) and, when
    tracing, the probe span reports and the parsed ``-X importtime``
    figures of each probe.
    """
    if not PACKAGE.is_file():
        raise BenchError(f"no braidcount package at {PACKAGE}")
    probe = [PYTHON, "-X", "importtime", str(BENCH / "probe.py")]
    times, reports, imports = [], [], []
    for i in range(SETUP_PROBES + 1):  # the first one writes bytecode caches
        if trace:
            seconds, code, out, err = run_process(probe)
            report = json.loads(out) if code == 0 else None
        else:
            seconds, _, code, out, err, report = run_child("import", [])
        if code != 0 or report is None:
            raise BenchError(f"import failed: {err.decode()[-2000:]}")
        if Path(report["file"]).resolve() != PACKAGE.resolve():
            raise BenchError(f"imported {report['file']}, not {PACKAGE}")
        if i:
            times.append(seconds)
            if trace:
                reports.append(report)
                imports.append(import_times(err.decode()))
    return times, reports, imports


class Record:
    """Latencies of every repeat, failures and span reports of one run."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.errors: list[str] = []
        self.attempted = 0
        self.reports: list[dict] = []
        # untraced / traced -> operation -> [reference s, wall s] per repeat
        self.repeats: dict[bool, dict[int, list[list[float]]]] = {False: {}, True: {}}

    def latencies(self, traced: bool = False, wall: bool = False) -> list[float]:
        """Every timed repeat, in s at the reference speed or in wall s."""
        return [r[wall] for repeats in self.repeats[traced].values() for r in repeats]

    def cli_call(self, slot: int, argv: list[str], check) -> None:
        """One repeat of operation ``slot``, checked; traced runs repeat it
        with spans on too."""
        order = [False, True] if self.trace else [False]
        if self.attempted // 2 % 2:
            order.reverse()  # alternate which side of a pair runs first
        results = {}
        for traced in order:
            results[traced] = run_child("traced" if traced else "plain", argv)
            self.attempted += 1
            self.repeats[traced].setdefault(slot, []).append(list(results[traced][:2]))
        _, _, code, out, _, report = results[False]
        if code != 0 or not check(out):
            self.errors.append(f"{argv[:3]} exit {code}: unexpected stdout {out[:200]!r}")
        elif report is None:
            self.errors.append(f"{argv[:3]}: no speed samples")
        if self.trace:
            _, _, traced_code, traced_out, _, traced_report = results[True]
            if traced_code != code or traced_out != out:
                self.errors.append(f"{argv[:3]}: traced stdout differs from untraced")
            elif traced_report is None or "spans" not in traced_report:
                self.errors.append(f"{argv[:3]}: traced run left no span report")
            else:
                self.reports.append(traced_report)


def run_passes(ops: list[tuple[list[str], object]], seed: int, seconds: float,
               min_passes: int, rec: Record) -> None:
    """Passes over every ``(argv, check)`` operation, each in a seeded order.

    After ``min_passes`` passes, no pass starts that would end after ``seconds``.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    last = 0.0
    done = 0
    while done < min_passes or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        for slot in rng.sample(range(len(ops)), len(ops)):
            argv, check = ops[slot]
            rec.cli_call(slot, argv, check)
        last = time.perf_counter() - began
        done += 1


def sha256_is(want: str):
    return lambda out: hashlib.sha256(out).hexdigest() == want


def cli_ops(seed: int, expected: dict) -> list:
    """One seeded corpus entry of every command kind, with its pinned stdout."""
    rng = random.Random(seed)
    ops = []
    for kind in inputs.CLI_KINDS:
        index = rng.randrange(inputs.CLI_CORPUS_SIZE)
        ops.append((inputs.cli_argv(kind, index), sha256_is(expected["cli"][kind][index])))
    return ops


def large_ops(seed: int, expected: dict) -> list:
    """Each large count at its own seeded threshold near 3e7, with its
    pinned stdout; the ``--workers 2`` call must print the serial bytes."""
    rng = random.Random(seed)
    ops = []
    for kind, x in zip(inputs.LARGE_KINDS, rng.sample(inputs.LARGE_X, len(inputs.LARGE_KINDS))):
        pinned = expected["large"]["count_tuples" if kind == "count_tuples" else "count_words"]
        ops.append((inputs.large_argv(kind, x), pinned[str(x)].encode().__eq__))
    return ops


def run_many_small(seed: int, seconds: float, rec: Record) -> None:
    cmd = [PYTHON, str(BENCH / "small_worker.py"), str(seed), str(seconds),
           str(MIN_PASSES["many_small"]), "1" if rec.trace else "0"]
    _, code, out, err = run_process(cmd, timeout=3 * seconds + CALL_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"many_small worker failed: {err.decode()[-2000:]}")
    data = json.loads(out.decode().splitlines()[-1])
    for traced, key in ((False, "repeats_ns"), (True, "traced_repeats_ns")):
        for slot, repeats in enumerate(data.get(key, [])):
            rec.repeats[traced][slot] = [[ns * 1e-9 for ns in r] for r in repeats]
    rec.attempted = data["attempted"]
    rec.errors = data["errors"]
    if rec.trace:
        rec.reports.append(data)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload: str, rec: Record, setup_times: list[float]) -> dict:
    lat = rec.latencies()
    tail = percentile(lat, TAIL_PERCENTILE[workload])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "p50_ms": (statistics.median(lat) * 1e3, "ref_ms"),
        "tail_ms": (tail * 1e3, "ref_ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/ref_s"),
    }


def merge(reports: list[dict]) -> tuple[dict, dict]:
    merged_spans: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    for report in reports:
        for name, record in report["spans"].items():
            total = merged_spans.setdefault(name, [0, 0, 0])
            for i in range(3):
                total[i] += record[i]
        for name, amount in report["counters"].items():
            counters[name] = counters.get(name, 0) + amount
    return merged_spans, counters


def per_layer(rec: Record, probe_reports: list[dict], imports: list[dict]) -> dict:
    """Layer metrics of the workload; layers it never calls come from the probes."""
    sources = [merge(rec.reports), merge(probe_reports)]
    metrics = {}
    for name in imports[0]:
        metrics[name] = (statistics.median(i[name] for i in imports), "s")
    for name, (span_names, field, scale, unit) in SPAN_METRICS.items():
        index = 1 if field == "total" else 2
        value = 0.0
        for span_stats, _ in sources:
            calls = sum(span_stats.get(n, (0,))[0] for n in span_names)
            if calls:
                value = sum(span_stats[n][index] for n in span_names if n in span_stats)
                value = value / calls * scale
                break
        metrics[name] = (value, unit)
    for name, (counter, span, unit) in RATIO_METRICS.items():
        value = 0.0
        for span_stats, counters in sources:
            if span in span_stats:
                value = counters.get(counter, 0) / span_stats[span][0]
                break
        metrics[name] = (value, unit)
    memo = [r["memo_entries"] for r in rec.reports] or [0]
    metrics["counting.memo_entries"] = (statistics.mean(memo), "count")
    plain = statistics.median(rec.latencies())
    overhead = statistics.median(rec.latencies(traced=True)) - plain
    metrics["trace.overhead_p50_ms"] = (overhead * 1e3, "ref_ms")
    metrics["trace.overhead_frac"] = (overhead / plain, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)
    at_start = machine()
    try:
        expected = json.loads((BENCH / "expected.json").read_text())
        setup_times, probe_reports, imports = setup(trace)
        rec = Record(trace)
        if args.workload == "cli":
            ops = cli_ops(args.seed, expected)
            run_passes(ops, args.seed, args.seconds, MIN_PASSES["cli"], rec)
        elif args.workload == "many_small":
            run_many_small(args.seed, args.seconds, rec)
        else:
            ops = large_ops(args.seed, expected)
            run_passes(ops, args.seed, args.seconds, MIN_PASSES["count_large"], rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for error in rec.errors[:10]:
        print(f"failed: {error}", file=sys.stderr)
    if trace:
        metrics = per_layer(rec, probe_reports, imports)
    else:
        metrics = end_to_end(args.workload, rec, setup_times)
    failed = len(rec.errors)
    print("machine: " + json.dumps(at_start))
    print(
        f"workload {args.workload}: {len(rec.repeats[False])} operations, "
        f"{len(rec.latencies())} timed repeats, tail = p{TAIL_PERCENTILE[args.workload]}, "
        f"wall p50 = {statistics.median(rec.latencies(wall=True)) * 1e3:.6g} ms, "
        f"fail_frac = {failed / rec.attempted:.6g}"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
