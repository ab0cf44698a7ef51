"""Tests of the benchmark itself: seeded inputs, tracing, and the printed metrics.

    python3 -m pytest perfbench/tests -q

The last test runs every workload briefly, untraced and traced, and takes
about three minutes.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_are_a_function_of_the_seed(name):
    def first(seed):
        return list(itertools.islice(workloads.INPUTS[name](seed), 20))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_largest_scan_job_makes_ten_million_terms():
    import seifertq

    (a,), ks = workloads.SCAN_LARGE
    r = a * ks[-1]
    # z_direct on the double of a one-fiber symbol materializes (r - 1) 4 a^2 terms
    assert (r - 1) * 4 * a * a == 10_809_512
    small = seifertq.double(seifertq.SeifertSymbol("o", 1, ((a, 1),), boundary=True))
    assert seifertq.z_direct(small, a).term_count == (a - 1) * 4 * a * a


def test_timed_inputs_stay_in_the_ranges_without_known_defects():
    for text in itertools.islice(workloads.certify_symbols(5), 200):
        assert all(a <= workloads.CERTIFY_MAX_A for a, _ in json.loads(text)["fibers"])
    for jobs in itertools.islice(workloads.scan_rounds(5), 20):
        for symbol, _ks in jobs:
            if len(symbol["fibers"]) == 1:
                ((a, b),) = symbol["fibers"]
                assert b in (1, a - 1)


def test_census_covers_the_full_ranges():
    labels = [call.label for call in workloads.census("scan")]
    assert labels.count("growth.ltv_scan") == len(workloads.SCAN_CYCLE)
    texts = list(itertools.islice(workloads.certify_symbols(workloads.CENSUS_SEED, workloads.CENSUS_MAX_A), 300))
    assert max(a for t in texts for a, _ in json.loads(t)["fibers"]) > workloads.CERTIFY_MAX_A
    assert list(workloads.census("cli")) == []


def test_speed_factors_use_the_nearest_references():
    nominal = child.REF_NOMINAL_S
    refs = [(float(t), nominal) for t in range(10)] + [(float(t), 2 * nominal) for t in range(10, 20)]
    factors = child.speed_factors([0.5, 4.5, 15.5, 30.0], refs, nominal)
    assert factors == [1.0, 1.0, 0.5, 0.5]


def test_dedekind_reference():
    assert workloads.dedekind_reference(1, 3) == Fraction(1, 18)
    assert workloads.dedekind_reference(-1, 3) == Fraction(-1, 18)
    assert workloads.dedekind_reference(7, 3) == Fraction(1, 18)
    # s(1, a) = (a - 1)(a - 2) / (12 a)
    assert workloads.dedekind_reference(1, 101) == Fraction(100 * 99, 12 * 101)


def test_tail_leaves_ten_samples_beyond():
    value, percentile, beyond = child.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert percentile == pytest.approx(90.0)


def test_tracer_wraps_every_binding_and_restores():
    import seifertq
    import seifertq.rt
    import seifertq.tv

    original = seifertq.rt.z_direct
    tracer = Tracer()
    tracer.install()
    try:
        assert seifertq.tv.rt_closed is not seifertq.rt.__dict__["rt_closed"].__wrapped__
        symbol = seifertq.SeifertSymbol("o", 1, ((3, 1), (5, 1)), boundary=True)
        tracer.call_id = 1
        seifertq.tv_bounded(symbol, 15)
    finally:
        tracer.uninstall()
    assert seifertq.rt.z_direct is original
    summary = tracer.summary()
    assert summary["tv.tv_bounded"]["calls"] == 1
    assert summary["rt.rt_closed"]["calls"] == 1
    assert summary["rt.z_direct"]["calls"] == 1
    assert tracer.counts["rt.z_direct.terms"] == child.ANCHOR_TERMS
    assert tracer.children_per_span("rt.z_direct", "tv.tv_bounded") == [1]
    top = summary["tv.tv_bounded"]["total_s"]
    assert sum(r["self_s"] for r in summary.values()) == pytest.approx(top, rel=1e-9)


def test_tracer_counts_state_sum_colorings():
    import seifertq

    tracer = Tracer()
    tracer.install()
    try:
        seifertq.tv_statesum(seifertq.load_triangulation(workloads.S3_FILE), 7)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert tracer.counts["statesum.colorings"] == 98
    assert summary["statesum.enumerate"]["calls"] == 99  # one next() per coloring and the last
    assert summary["rootdata.RootContext"]["calls"] == 1
    assert summary["rootdata.tet_symbol"]["calls"] == 2 * 98


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_in_the_spec_is_printed(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    printed = {line.split()[0] for line in report if line.startswith("  ")}
    assert {m["name"] for m in wanted} | {"fail_rate"} <= printed
    if not trace:
        assert "latency_tail_ms" in printed
