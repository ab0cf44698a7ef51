"""One workload in a process of its own: set up, run the closed loop, check.

    python3 perfbench/child.py <workload> <seed> <seconds> <mode> <t0_ns>

``run.py`` starts this script; ``t0_ns`` is its ``time.monotonic_ns()`` just
before the start, so that set-up time includes interpreter start-up.  Modes:

* ``setup``   - import, seed the inputs, warm up, report the set-up time;
* ``measure`` - then run the untraced closed loop for ``seconds`` and report
  the end-to-end metrics;
* ``trace``   - run a fixed number of rounds untraced, traced (every public
  function wrapped in a span) and untraced again, then the defect census,
  and report the per-layer metrics and the tracing overhead; ``seconds`` is
  not used.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import SRC, Call  # noqa: E402

# the ROADMAP baselines a traced run must reproduce
ANCHOR_TERMS = 50400  # z_direct of D(o,1;(3,1),(5,1)) at r = 15
SPHERE_COLORINGS = 8260  # admissible colorings of the two-tetrahedron S^3 at r = 15

_STARTUP_SAMPLES = 5
# rounds of a traced run: the largest scan job and two cycles, symbols, cli cycles
TRACE_ROUNDS = {"scan": 3, "certify": 800, "cli": 2}


# -- host-speed correction ---------------------------------------------------------
#
# The benchmark runs on a few cores of a shared host, where the speed of the
# same single-threaded work drifts by up to 40 % over seconds to minutes;
# process CPU time drifts with it, so the other tenants share the physical
# cores rather than take turns on them.  The closed loop therefore times a
# reference, a fixed piece of the benchmark's own work that no change to
# seifertq touches, between calls and at most every REF_PERIOD_S, and gives
# every latency at a standard host speed: multiplied by the reference's
# time on a quiet core over the median of the REF_WINDOW reference times
# nearest to it.  The reference of scan and certify, whose calls run in
# this process, is ref_work(); that of cli, whose calls are child
# processes, is ref_start(), the start of a bare interpreter, which its
# calls' start-up follows where ref_work() does not (scaled by ref_work(),
# cli's spread over seeds grew two- to threefold).  Set-up time, which runs
# in this process on every workload, is scaled by SETUP_REFS timings of
# ref_work() taken right after set-up.  The readable report and the full
# record keep the raw wall-clock values as well.

REF_PERIOD_S = 0.1
REF_WINDOW = 7
REF_NOMINAL_S = 4.0e-3  # ref_work() on a quiet core of the 2-vCPU x86-64 VM it was tuned on
START_NOMINAL_S = 50e-3  # ref_start() on the same core
SETUP_REFS = 9


def _sawtooth_sum(n: int) -> Fraction:
    total = Fraction(0)
    half = Fraction(1, 2)
    for l in range(1, n):
        total += (Fraction(l, n) - half) * (Fraction(l * 7 % n, n) - half)
    return total


def _residue_sum(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def ref_work() -> float:
    """Seconds taken by fixed sums in exact rationals and in small integers.

    The two halves take about the same time and between them follow both
    the exact arithmetic of certify and the array work of scan.  A short
    untimed pass first brings the code back into the caches that the
    previous call may have flushed.
    """
    _sawtooth_sum(31)
    _residue_sum(3000)
    t0 = time.perf_counter()
    _sawtooth_sum(241)
    _residue_sum(30000)
    return time.perf_counter() - t0


def ref_start() -> float:
    """Seconds to start and end a bare interpreter, the part of a cli call that seifertq does not touch."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - t0


# the reference of each workload's calls, and its time on a quiet core
REFERENCES = {
    "scan": (ref_work, REF_NOMINAL_S),
    "certify": (ref_work, REF_NOMINAL_S),
    "cli": (ref_start, START_NOMINAL_S),
}


def speed_factors(ends: Sequence[float], refs: list[tuple[float, float]], nominal: float) -> list[float]:
    """``nominal`` over the median of the REF_WINDOW references nearest to each end time."""
    times = [t for t, _ in refs]
    durations = [d for _, d in refs]
    half = REF_WINDOW // 2
    factors = []
    for t in ends:
        lo = min(max(bisect.bisect(times, t) - half - 1, 0), max(len(refs) - REF_WINDOW, 0))
        factors.append(nominal / statistics.median(durations[lo : lo + REF_WINDOW]))
    return factors


def closed_loop(calls, on_result, seconds=None, rounds=None, tracer=None, ends=None, refs=None, ref=ref_work) -> array:
    """Run calls one after another and return their latencies in seconds.

    ``on_result(call, result, error)`` sees every outcome after its timing
    ends.  Stops at the end of the round in which ``seconds`` have passed,
    or after ``rounds`` rounds, so that every run holds whole rounds, or
    when ``calls`` runs out.  With a tracer each call gets its own call id,
    and a call the benchmark makes itself (a subprocess) gets a span of its
    own.  With ``refs`` the loop times ``ref()`` before the first call and
    then between calls at most every REF_PERIOD_S, appending (time,
    seconds); ``ends`` receives the end time of every call on the same clock.
    """
    latencies = array("d")  # 8 bytes a call, so that the bookkeeping barely moves peak RSS
    perf = time.perf_counter
    start = perf()
    ended = 0
    next_ref = start
    for call in calls:
        fn = call.fn
        if tracer is not None:
            tracer.call_id += 1
            if call.label == "cli.subprocess":
                fn = lambda f=call.fn: tracer.span("cli.subprocess", f)  # noqa: E731
        if refs is not None and perf() >= next_ref:
            refs.append((perf() - start, ref()))
            next_ref = perf() + REF_PERIOD_S
        error = None
        result = None
        t0 = perf()
        try:
            result = fn()
        except Exception as exc:  # any raise on a valid input is a failed call
            error = exc
        t1 = perf()
        latencies.append(t1 - t0)
        if ends is not None:
            ends.append(t1 - start)
        on_result(call, result, error)
        if call.ends_round:
            ended += 1
            if ended == rounds or (seconds is not None and perf() - start >= seconds):
                break
    return latencies


def failure(call: Call, result, error: Exception | None) -> str | None:
    """The kind of failure of one outcome: an exception type or a wrong answer."""
    if error is not None:
        return f"{call.label}: {type(error).__name__}"
    try:
        reason = call.check(result)
    except Exception as exc:  # a check that cannot run counts against the call
        reason = f"check raised {type(exc).__name__}"
    return None if reason is None else f"{call.label}: {reason}"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, 0) if n >= 11 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def thread_count() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return -1


def startup_times() -> dict[str, float]:
    """Median start of a bare interpreter and of one that imports seifertq."""
    env = workloads.child_env()

    def median_run(code: str) -> float:
        samples = []
        for _ in range(_STARTUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    bare = median_run("pass")
    imported = median_run("import seifertq")
    return {"cli.interpreter_s": bare, "cli.import_s": imported - bare}


def measure(name: str, seed: int, seconds: float) -> dict:
    """The untraced closed loop; each outcome is checked as soon as it is timed."""
    reference: dict = {}
    failures: Counter = Counter()

    def on_result(call, result, error):
        if call.argv is not None and tuple(call.argv) not in reference:
            reference[tuple(call.argv)] = workloads.cli_in_process(call.argv)
        kind = failure(call, result, error)
        if kind is not None:
            failures[kind] += 1

    ends = array("d")
    refs: list[tuple[float, float]] = []
    ref, nominal = REFERENCES[name]
    raw = closed_loop(
        workloads.schedule(name, seed, reference), on_result, seconds=seconds, ends=ends, refs=refs, ref=ref
    )
    rss = peak_rss_mb(name)  # before the statistics below allocate
    latencies = [t * f for t, f in zip(raw, speed_factors(ends, refs, nominal))]
    value, percentile, beyond = tail(latencies)
    attempted, failed = len(latencies), sum(failures.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": dict(failures),
        "metrics": {
            "ops_per_s": attempted / math.fsum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * value,
            "peak_rss_mb": rss,
            "fail_rate": failed / attempted,
        },
        "raw": {
            "ops_per_s": attempted / math.fsum(raw),
            "latency_p50_ms": 1e3 * statistics.median(raw),
            "latency_tail_ms": 1e3 * tail(raw)[0],
        },
        "tail": {"percentile": percentile, "samples": attempted, "beyond": beyond},
        "reference_s": [d for _, d in refs],
        "latencies_s": raw.tolist(),
    }


def sanity() -> list[str]:
    """Counts of traced calls against the ROADMAP baselines; returns mismatches."""
    import seifertq as sq
    from tracer import Tracer

    problems = []
    probe = Tracer()
    probe.install()
    try:
        anchor = sq.SeifertSymbol("o", 1, ((3, 1), (5, 1)), boundary=True)
        sq.z_direct(sq.double(anchor), 15)
        sq.tv_statesum(sq.load_triangulation(workloads.S3_FILE), 15)
    finally:
        probe.uninstall()
    terms, colorings = probe.counts["rt.z_direct.terms"], probe.counts["statesum.colorings"]
    if terms != ANCHOR_TERMS:
        problems.append(f"z_direct anchor terms {terms}, expected {ANCHOR_TERMS}")
    if colorings != SPHERE_COLORINGS:
        problems.append(f"S^3 colorings at r=15: {colorings}, expected {SPHERE_COLORINGS}")
    return problems


def layer_metrics(tracer) -> dict[str, float]:
    """Self time, calls and raises per span name and per module, and the counts."""
    from tracer import MODULES

    summary = tracer.summary()

    def stat(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0)

    out: dict[str, float] = {}
    for span, record in summary.items():
        out[f"{span}.self_s"] = record["self_s"]
        out[f"{span}.calls"] = record["calls"]
        out[f"{span}.failed"] = record["raised"]
    for module in MODULES:
        out[f"{module}.self_s"] = sum(r["self_s"] for s, r in summary.items() if s.split(".")[0] == module)

    counts = tracer.counts
    terms = counts["rt.z_direct.terms"]
    out["rt.z_direct.terms"] = terms
    out["rt.z_direct.bytes_computed"] = 16 * terms
    out["rt.z_direct.ns_per_term"] = 1e9 * stat("rt.z_direct", "self_s") / terms if terms else 0.0
    # median, so that a verify_lemma cut short by a raise does not move it
    evals = tracer.children_per_span("rt.rt_closed", "growth.verify_lemma")
    out["growth.verify_lemma.rt_evals"] = statistics.median(evals) if evals else 0.0
    tried = counts["congruence.enumerate_solutions.tried"]
    out["congruence.enumerate_solutions.hit_ratio"] = (
        counts["congruence.enumerate_solutions.hits"] / tried if tried else 0.0
    )
    out["statesum.weight.self_s"] = stat("statesum.tv_statesum", "self_s")
    out["statesum.colorings"] = counts["statesum.colorings"]
    grid = counts["statesum.grid"]
    out["statesum.admissible_ratio"] = counts["statesum.colorings"] / grid if grid else 0.0
    out["trace.self_sum_s"] = sum(r["self_s"] for r in summary.values())
    return out


def trace(name: str, seed: int, spans_path: Path | None) -> dict:
    """TRACE_ROUNDS rounds untraced, traced, and untraced again; then the checks.

    A fixed number of rounds, rather than a time, makes every count of the
    traced run a function of the seed alone.  The untraced runs before and
    after the traced one give the untraced rate, so that a drift of the
    machine's speed does not read as tracing overhead.
    """
    from tracer import Tracer

    problems = sanity()
    reference: dict = {}
    rounds = TRACE_ROUNDS[name]
    plain = closed_loop(workloads.schedule(name, seed, reference), lambda *_: None, rounds=rounds)

    outcomes: list = []
    tracer = Tracer()
    tracer.intern("cli.subprocess")
    tracer.install()
    started = time.perf_counter()
    try:
        traced = closed_loop(
            workloads.schedule(name, seed, reference), lambda *o: outcomes.append(o), rounds=rounds, tracer=tracer
        )
        # the in-process reference of the cli workload is where cli.main is traced
        for call, _result, _error in outcomes:
            if call.argv is not None and tuple(call.argv) not in reference:
                tracer.call_id += 1
                reference[tuple(call.argv)] = workloads.cli_in_process(call.argv)
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - started
    plain += closed_loop(workloads.schedule(name, seed, reference), lambda *_: None, rounds=rounds)

    # the defect census, traced apart so that its calls move no self time
    census: list = []
    census_tracer = Tracer()
    census_tracer.install()
    try:
        closed_loop(workloads.census(name), lambda *o: census.append(o), tracer=census_tracer)
    finally:
        census_tracer.uninstall()

    metrics = layer_metrics(tracer)
    for span, record in census_tracer.summary().items():
        metrics[f"{span}.failed"] = metrics.get(f"{span}.failed", 0) + record["raised"]
    metrics.update(startup_times())
    metrics["cli.subprocess_s"] = statistics.median(traced) if name == "cli" else 0.0
    metrics["trace.wall_s"] = wall
    metrics["trace.coverage"] = metrics["trace.self_sum_s"] / wall
    metrics["trace.ops_per_s_untraced"] = len(plain) / math.fsum(plain)
    metrics["trace.ops_per_s_traced"] = len(traced) / math.fsum(traced)
    metrics["trace.slowdown"] = metrics["trace.ops_per_s_untraced"] / metrics["trace.ops_per_s_traced"]
    metrics["trace.spans"] = len(tracer.name)

    failures = Counter(kind for kind in (failure(*o) for o in outcomes) if kind is not None)
    census_failures = Counter(kind for kind in (failure(*o) for o in census) if kind is not None)
    if spans_path is not None:
        tracer.write(spans_path)
    return {
        "attempted": len(outcomes) + len(census),
        "failed": sum(failures.values()) + sum(census_failures.values()),
        "failures": dict(failures + census_failures),
        "census": {
            "attempted": len(census),
            "failed": sum(census_failures.values()),
            "failures": dict(census_failures),
        },
        "sanity": problems,
        "metrics": metrics,
    }


def pin_to_current_cpu() -> None:
    """Keep this process, and the processes it starts, on the CPU it runs on.

    The references then measure the speed of the CPU that does the work.
    """
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


def main(argv: list[str]) -> int:
    pin_to_current_cpu()
    name, seed, seconds, mode, t0_ns = argv[0], int(argv[1]), float(argv[2]), argv[3], int(argv[4])
    spans_path = Path(argv[5]) if len(argv) > 5 else None
    sys.path.insert(0, str(SRC))
    import seifertq  # noqa: F401

    if name == "cli":
        import seifertq.cli  # noqa: F401
    workloads.WARMUPS[name]()
    setup_raw = (time.monotonic_ns() - t0_ns) / 1e9
    setup_ref = statistics.median(ref_work() for _ in range(SETUP_REFS))
    setup_s = setup_raw * REF_NOMINAL_S / setup_ref

    if mode == "setup":
        record = {}
    elif mode == "measure":
        record = measure(name, seed, seconds)
    else:
        record = trace(name, seed, spans_path)
    record["setup_s"] = setup_s
    record["setup_raw_s"] = setup_raw
    record["threads"] = thread_count()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
