"""Benchmark of seifertq: one closed-loop workload per run, in its own process.

    python3 perfbench/run.py --workload scan --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from ``src``.
``BENCHMARK.json`` at the root names the workloads and the metrics.  With
``--trace 0`` the command prints the end-to-end metrics, measured with no
tracing; with ``--trace 1`` it prints the per-layer metrics of a separate
traced run.  Each workload runs in a child process (``child.py``), so its
peak RSS is its own; set-up time is the median over several fresh child
processes.  Every line before the last is a readable report; the last line
is one JSON object with the keys correct, attempted, failed and metrics.

A call that raises on a valid input or returns a wrong answer counts in
``failed``; ``fail_rate`` in the report is failed / attempted, with the
failures listed by kind.  The timed inputs leave out those on which the
program is known to fail; the traced run puts them back in a defect census
(``workloads.census``).  Set-up times and call latencies are scaled to a
standard host speed measured between calls (see ``child.py``); the report
prints the wall-clock values next to them.  The report also gives ``latency_tail_ms``, the
highest percentile with ten samples beyond it; like ``fail_rate`` it is not
a bounded metric of ``BENCHMARK.json``.  ``correct`` is false when a failure of a kind not
in ``workloads.KNOWN_DEFECTS`` occurs (the defects the program already had
when the benchmark was written) or a traced run misses a baseline count.  Full records,
with provenance, and the spans of traced runs go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
sys.path.insert(0, str(HERE))

from workloads import KNOWN_DEFECTS  # noqa: E402
SETUP_RUNS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every child: no more threads than CPUs, numpy's pools included."""
    env = dict(os.environ)
    cap = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, mode: str, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), repr(seconds), mode]
    argv.append(str(time.monotonic_ns()))
    if spans is not None:
        argv.append(str(spans))
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def provenance(seed: int, record: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seifertq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc(),
        "cpu": cpu,
        "child_threads": record.get("threads"),
        "tail": record.get("tail"),
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    if traced:
        record = run_child(workload, seed, seconds, "trace", OUT / f"{stem}.spans.npz")
        wanted = spec["per_layer"]
    else:
        setup_records = [run_child(workload, seed, seconds, "setup") for _ in range(SETUP_RUNS - 1)]
        record = run_child(workload, seed, seconds, "measure")
        setup_records.append(record)
        setups = [r["setup_s"] for r in setup_records]
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["raw"]["setup_s"] = statistics.median(r["setup_raw_s"] for r in setup_records)
        record["setup_runs"] = setups
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        raise RuntimeError(f"{workload}: metrics not produced: {missing}")
    result = {
        "correct": not record.get("sanity") and set(record["failures"]) <= KNOWN_DEFECTS,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }
    full = {"workload": workload, "provenance": provenance(seed, record), "record": record, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1))
    report(workload, full)
    return result


def report(workload: str, full: dict) -> None:
    record, result = full["record"], full["result"]
    print(f"workload {workload}  seed {full['provenance']['seed']}")
    raw = record.get("raw", {})
    for name, metric in result["metrics"].items():
        wall = f"  (wall clock {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}{wall}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'fail_rate':<44} {rate:>16.6g} ratio ({result['failed']} of {result['attempted']} calls)")
    for kind, count in sorted(record.get("failures", {}).items()):
        print(f"    failed: {kind}: {count}")
    census = record.get("census")
    if census and census["attempted"]:
        print(f"    of which the defect census: {census['failed']} of {census['attempted']} calls")
    tail = record.get("tail")
    if tail:
        value = record["metrics"]["latency_tail_ms"]
        print(
            f"  {'latency_tail_ms':<44} {value:>16.6g} ms (p{tail['percentile']:.2f} of "
            f"{tail['samples']} calls, {tail['beyond']} beyond it; wall clock {raw['latency_tail_ms']:.6g})"
        )
    if record.get("reference_s"):
        refs = record["reference_s"]
        print(f"  host speed: reference median {1e3 * statistics.median(refs):.4g} ms over {len(refs)} timings")
    for problem in record.get("sanity", []):
        print(f"  sanity check failed: {problem}")
    print("provenance " + json.dumps(full["provenance"]))


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seifertq" / "__init__.py").is_file():
        print(f"error: no seifertq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = []
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            results.append(run_workload(spec, workload, args.seed, args.seconds, bool(args.trace)))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
