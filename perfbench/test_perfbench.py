"""Tests of the benchmark itself: python3 -m pytest perfbench

Workload sizes are shrunk through their class constants where a test only
needs the mechanism, so the suite runs in about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import distbeam  # noqa: E402
import hostref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEEDED = ("efficiency-sweep", "noisy-large-m", "convergence-trace")


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few runs."""
    monkeypatch.setattr(workloads.EfficiencySweep, "trials", 3)
    monkeypatch.setattr(workloads.NoisyLargeM, "scenarios", 3)
    monkeypatch.setattr(workloads.ConvergenceTrace, "baseline_intervals", 600)
    monkeypatch.setattr(workloads.ConvergenceTrace, "m_list", (5, 10))


def _module_refs() -> dict:
    """Identity of every attribute of every loaded distbeam module."""
    return {(name, attr): id(value)
            for name, mod in list(sys.modules.items())
            if name == "distbeam" or name.startswith("distbeam.")
            for attr, value in vars(mod).items()}


def _summary(w):
    return w.summarize(w.execute())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_matches_untraced_and_restores_wrappers(name, small, tmp_path):
    cls = workloads.WORKLOADS[name]
    before = _module_refs()
    write = distbeam.experiments.ExperimentResult.write
    plain = _summary(cls(5, tmp_path, 2))
    tracer = spans.Tracer()
    with tracer:
        assert _module_refs() != before, "tracer installed nothing"
        traced = _summary(cls(5, tmp_path, 2))
    assert traced == plain
    assert _module_refs() == before
    assert distbeam.experiments.ExperimentResult.write is write
    assert tracer.snapshot().spans, "traced execution recorded no spans"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_and_equal_closed_forms(name, small, tmp_path):
    w = workloads.WORKLOADS[name](9, tmp_path, 2)
    tracer = spans.Tracer()
    snaps = []
    with tracer:
        for _ in range(2):
            tracer.reset()
            w.execute()
            snaps.append(tracer.snapshot())
    calls = [{k: v.calls for k, v in s.spans.items()} for s in snaps]
    assert calls[0] == calls[1]
    assert snaps[0].counts == snaps[1].counts
    assert calls[0]["adapt.bisect_arc"] == w.bisection_intervals
    assert snaps[0].counts["adapt.probes"] == 2 * w.bisection_intervals


def test_interval_closed_forms(small, tmp_path):
    sweep = workloads.EfficiencySweep(1, tmp_path, 2)
    assert sweep.intervals == sweep.trials * 468
    noisy = workloads.NoisyLargeM(1, tmp_path, 2)
    assert noisy.intervals == noisy.scenarios * 8 * 49
    conv = workloads.ConvergenceTrace(1, tmp_path, 2)
    assert conv.intervals == 2 * 600 + 5 * (4 + 9)


def test_verify_pass_interval_count():
    """The constant equals the bisection intervals one full pass makes."""
    w = workloads.VerifySuite(0, Path("."), 1)
    tracer = spans.Tracer()
    with tracer:
        w.execute()
    assert tracer.snapshot().spans["adapt.bisect_arc"].calls == w.intervals == 16301


def test_host_reference_kernel_is_unchanged():
    """wall_ref is only comparable across commits while the kernel stays the same."""
    assert hostref.reference_work() == pytest.approx(797252.7846671359, rel=1e-9)
    assert hostref.time_reference(2) > 0.0


@pytest.mark.parametrize("name", SEEDED)
def test_seed_changes_inputs(name, small, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = _summary(cls(1, tmp_path, 2))
    b = _summary(cls(2, tmp_path, 2))
    assert a != b
    assert _summary(cls(1, tmp_path, 2)) == a


def test_check_catches_a_wrong_engine(small, tmp_path, monkeypatch):
    """An engine that returns perfectly aligned phases (eta = 1) passes the
    invariants alone; the recomputation through the library catches it."""
    real = distbeam.protocol.run_protocol

    def aligned(scen, n, *args, **kwargs):
        res = real(scen, n, *args, **kwargs)
        res.eta = 1.0
        return res

    w = workloads.EfficiencySweep(1, tmp_path, 1)
    with monkeypatch.context() as patch:
        patch.setattr(distbeam.experiments, "run_protocol", aligned)
        w.execute()
    with pytest.raises(workloads.WorkloadError, match="CSV mean"):
        w.check(w.summarize())


def test_compare_tolerates_last_ulp_only():
    ref = {"c": [[1.0, 0.123456789012345, 2]], "v": ["[ok] x: mismatch 2.2e-16", "3 left"]}
    same = {"c": [[1.0, 0.123456789012345 * (1 + 1e-15), 2]],
            "v": ["[ok] x: mismatch 3.1e-16", "3 left"]}
    assert workloads.compare(same, ref) == []
    off = {"c": [[1.0, 0.123456789012345 * (1 + 1e-9), 2]], "v": ref["v"]}
    assert workloads.compare(off, ref)
    assert workloads.compare({"c": ref["c"], "v": [ref["v"][0], "4 left"]}, ref)


def test_baseline_check_rejects_a_decreasing_record(small, tmp_path):
    w = workloads.ConvergenceTrace(1, tmp_path, 1)
    w.execute()
    summary = w.summarize()
    w.check(summary)
    summary["baseline_M5"]["nondecreasing"] = False
    with pytest.raises(workloads.WorkloadError, match="decreased"):
        w.check(summary)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_catalogue()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _run_bench(ROOT, "--workload", "noisy-large-m", "--seed", "4",
                      "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        assert values["trace.self_sum_s"] <= values["trace.wall_s"]
        assert values["adapt.intervals"] == workloads.NoisyLargeM.scenarios * 8 * 49


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_bench(tmp_path, "--workload", "noisy-large-m", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
