"""Run one distbeam benchmark workload and print its metrics.

    python3 perfbench/run.py --workload efficiency-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics, with
``--trace 1`` the per-layer ones (see README.md next to this file). Every
line before the last is a human-readable report; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: BLAS and OpenMP pools are pinned to one thread, so that only the workers
#: a workload asks for run.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: Fixed metadata.json timestamps, so experiment output sizes repeat exactly.
SOURCE_DATE_EPOCH = "0"

MIN_EXECUTIONS = 3
SETUP_SPAWNS = 7
SETUP_CODE = "import distbeam, distbeam.cli; distbeam.cli.build_parser()"

END_TO_END = (
    ("wall_ref", "ref"), ("intervals_per_ref", "1/ref"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def pin_environment() -> None:
    """Thread pools and timestamps; call before numpy is first imported."""
    os.environ.update(THREAD_ENV)
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH


def report(line: str) -> None:
    """One line of the human-readable report, ahead of the result line."""
    print(line, flush=True)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    import kernels
    import spans

    out = []
    for name in spans.all_span_names():
        if name.startswith("selfcheck."):
            out.append((f"{name}.total_s", "s", "lower"))
        else:
            out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                    (f"{name}.p50_us", "us", "lower"), (f"{name}.p99_us", "us", "lower")]
    out += [
        ("angles.wrap_angle.calls", "count", "lower"),
        ("angles.wrap_angle.calls_per_interval", "ratio", "lower"),
        ("adapt.intervals", "count", "lower"),
        ("adapt.probes", "count", "lower"),
        ("power.evals_per_interval", "ratio", "lower"),
        ("experiments.bytes_written", "bytes", "lower"),
        ("experiments.pool_speedup", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.threads", "count", "lower"),
    ]
    out += [(name, unit, "lower") for name, unit, _ in kernels.kernels()]
    return out


# ----- run record ---------------------------------------------------------

def _git_rev() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "distbeam").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, workload) -> dict:
    import numpy

    seed_note = ("the suite's own constant seeds; --seed is not used"
                 if workload.name == "verify-suite" else str(args.seed))
    return {
        "command": ["python3", "perfbench/run.py", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                    "--trace", str(args.trace)],
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload_seed": seed_note,
        "thread_env": THREAD_ENV,
        "source_date_epoch": SOURCE_DATE_EPOCH,
    }


# ----- measurement ----------------------------------------------------------

class Tally:
    """Attempted and failed workload executions, with the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import the package and build the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def execute_once(workload, tally: Tally, execute=None, digest=None, reference=None):
    """One execution; returns (wall seconds, output digest), or None on failure.

    Without ``digest`` the output is checked in full, against ``reference``
    when given; with it, the output must have that digest (same inputs,
    same bytes). Checks run after the clock stops.
    """
    import workloads

    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        raw = (execute or workload.execute)()
        wall = time.perf_counter() - t0
        if digest is None:
            summary = workload.summarize(raw)
            if reference is not None:
                diffs = workloads.compare(summary, reference)
                if diffs:
                    raise workloads.WorkloadError(
                        f"differs from reference.json: {'; '.join(diffs[:3])}")
            workload.check(summary)
        got = workload.digest(raw)
        if digest is not None and got != digest:
            raise workloads.WorkloadError("output differs from the first execution")
        return wall, got
    except Exception as exc:  # an execution's failure is a result, not a crash
        tally.fail(f"{workload.name} seed {workload.seed}: {type(exc).__name__}: {exc}")
        return None


def timed_executions(workload, seconds: float, tally: Tally, digest=None,
                     execute=None, tracer=None, refs=None):
    """Closed loop of warm executions for ``seconds`` (at least MIN_EXECUTIONS).

    Returns (wall times, tracer snapshots, digest); stops at the first
    failed execution. The first output is checked in full unless ``digest``
    already holds a checked output of the same inputs. When ``refs`` is a
    list, the host reference kernel is timed before the first execution and
    after each one, on the workload's thread count, and its times are
    appended to it.
    """
    import hostref

    walls, snapshots = [], []
    start = time.perf_counter()
    if refs is not None:
        refs.append(hostref.time_reference(workload.threads))
    while len(walls) < MIN_EXECUTIONS or time.perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        done = execute_once(workload, tally, execute, digest)
        if done is None:
            break
        wall, digest = done
        walls.append(wall)
        if refs is not None:
            refs.append(hostref.time_reference(workload.threads))
        if tracer is not None:
            snapshots.append(tracer.snapshot())
    return walls, snapshots, digest


def tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    text = f"median {statistics.median(v):.6g} (n={n}"
    if n > 10:
        text += f"; p{100 * (n - 10) / n:.0f} {v[n - 11]:.6g}"
    return text + ")"


# ----- per-layer metrics ------------------------------------------------------

def layer_metrics(snapshots, intervals: int, bytes_out: int,
                  untraced: list[float], traced: list[float], pool_speedup: float,
                  kernel_times: dict) -> dict[str, float]:
    import numpy as np
    import spans

    values: dict[str, float] = {}
    for name in spans.all_span_names():
        per_exec = [s.spans.get(name) for s in snapshots]
        calls = [st.calls if st else 0 for st in per_exec]
        if len(set(calls)) > 1:
            report(f"note: {name} calls vary between executions: {calls}")
        durs = [st.durations_ns for st in per_exec if st]
        durs = np.concatenate(durs) if durs else np.zeros(0, dtype=np.int64)
        if name.startswith("selfcheck."):
            values[f"{name}.total_s"] = statistics.median(
                st.total_ns / 1e9 if st else 0.0 for st in per_exec)
            continue
        values[f"{name}.calls"] = calls[0]
        values[f"{name}.self_s"] = statistics.median(
            st.self_ns / 1e9 if st else 0.0 for st in per_exec)
        values[f"{name}.p50_us"] = float(np.percentile(durs, 50)) / 1e3 if durs.size else 0.0
        values[f"{name}.p99_us"] = float(np.percentile(durs, 99)) / 1e3 if durs.size else 0.0
    first = snapshots[0]
    wrap_calls = first.counts.get("angles.wrap_angle", 0)
    values["angles.wrap_angle.calls"] = wrap_calls
    values["angles.wrap_angle.calls_per_interval"] = wrap_calls / intervals
    values["adapt.intervals"] = values["adapt.bisect_arc.calls"]
    values["adapt.probes"] = first.counts.get("adapt.probes", 0)
    values["power.evals_per_interval"] = (
        values["power.partial_power.calls"] + values["power.harvested_power.calls"]) / intervals
    values["experiments.bytes_written"] = bytes_out
    values["experiments.pool_speedup"] = pool_speedup
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    values["trace.self_sum_s"] = statistics.median(
        sum(st.self_ns for st in s.spans.values()) / 1e9 for s in snapshots)
    values["trace.threads"] = max(s.threads for s in snapshots)
    values.update({name: v for name, (v, _unit) in kernel_times.items()})
    return values


# ----- main ---------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distbeam" / "__init__.py").is_file():
        print(f"error: no distbeam package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(SRC), str(HERE)]

    import workloads
    import distbeam

    if Path(distbeam.__file__).resolve().parent != SRC / "distbeam":
        print(f"error: imported distbeam from {distbeam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    workers = nproc()
    tally = Tally()
    metrics: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out = Path(os.path.relpath(tmp))
        workload = cls(args.seed, out, workers)
        report("record " + json.dumps(run_record(args, workload), sort_keys=True))
        setup = measure_setup() if args.trace == 0 else []

        # Reference outputs at the pinned seed; this also warms every code path.
        pinned = cls(workloads.PINNED_SEED, out, workers)
        reference = json.loads(REFERENCE.read_text())[cls.name]
        execute_once(pinned, tally, reference=reference)
        if args.trace == 0:
            metrics = untraced_run(workload, args.seconds, tally, setup)
        else:
            # output size at the pinned seed: %.15g widths vary with the inputs
            metrics = traced_run(workload, args.seconds, tally, workers,
                                 pinned.bytes_written())

    report(f"fail_frac {tally.failed / max(tally.attempted, 1):.6g} "
           f"({tally.failed} of {tally.attempted} executions)")
    for problem in tally.problems:
        report(f"FAILED {problem}")
    for name, m in metrics.items():
        report(f"metric {name} {m['value']:.6g} {m['unit']}")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def untraced_run(workload, seconds, tally, setup) -> dict:
    """End-to-end metrics; each execution's wall time is divided by the mean
    of the host reference kernel's times just before and just after it."""
    import hostref

    hostref.time_reference(workload.threads)    # warm-up
    refs: list[float] = []
    walls, _, _ = timed_executions(workload, seconds, tally, refs=refs)
    if not walls:
        return {}
    rel = [w / ((a + b) / 2) for w, a, b in zip(walls, refs, refs[1:])]
    wall_ref = statistics.median(rel)
    values = {
        "wall_ref": wall_ref,
        "intervals_per_ref": workload.intervals / wall_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    report(f"wall_s {tail(walls)} s; intervals per execution {workload.intervals}")
    report(f"reference kernel {tail(refs)} s; wall_ref {tail(rel)}")
    report(f"setup_s {tail(setup)} s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(workload, seconds, tally, workers, bytes_out) -> dict:
    """Untraced executions, then traced ones, then the isolated kernels."""
    import kernels
    import spans
    import workloads

    sweep = isinstance(workload, workloads.EfficiencySweep)
    phase_s = seconds / (3 if sweep else 2)
    untraced, _, digest = timed_executions(workload, phase_s, tally)
    if not untraced:
        return {}
    pool_speedup = 0.0    # only efficiency-sweep runs a trial pool
    if sweep:
        serial, _, _ = timed_executions(workload, phase_s, tally, digest,
                                        execute=lambda: workload.execute(workers=1))
        if not serial:
            return {}
        pool_speedup = statistics.median(serial) / statistics.median(untraced)
        report(f"workers=1 wall_s {tail(serial)} s; workers={workers} {tail(untraced)} s")
    tracer = spans.Tracer()
    with tracer:
        traced, snapshots, _ = timed_executions(workload, phase_s, tally, digest, tracer=tracer)
    if not traced:
        return {}
    values = layer_metrics(snapshots, workload.intervals, bytes_out, untraced, traced,
                           pool_speedup, kernels.time_kernels())
    report(f"untraced wall_s {tail(untraced)} s; traced wall_s {tail(traced)} s")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_catalogue()}


if __name__ == "__main__":
    sys.exit(main())
