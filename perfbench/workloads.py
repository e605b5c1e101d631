"""The four benchmark workloads and their output checks.

Each workload is a closed loop with one caller: an execution starts only
after the previous one has returned. A workload object is built from the
benchmark seed and an output directory; ``execute`` is the timed part and
returns the raw result, ``summarize`` turns that into plain data, and
``check`` asserts the paper's invariants on it. ``summarize`` at the pinned
seed is what ``reference.json`` records.

Workloads call the package only through module attributes looked up at
call time (``channel.generate_scenario``, ``cli.cli_main``), so that a
traced execution goes through the span wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from distbeam import channel, cli, experiments, power, protocol

#: The package's default seed; reference outputs are recorded at it.
PINNED_SEED = 12345

#: Relative tolerance for comparisons with recorded outputs. It leaves room
#: for last-ulp differences such as ``np.cos`` against ``math.cos``.
REL_TOL = 1e-12

#: Slack of the paper's inequalities (eta >= bound, |error| <= pi/2^N).
INEQ_TOL = 1e-9


class WorkloadError(Exception):
    """An execution failed: nonzero exit or a violated output check."""


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol * max(abs(a), abs(b))


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.cli_main(argv)
    if rc != 0:
        raise WorkloadError(f"distbeam {' '.join(argv)} exited {rc}")
    return out.getvalue()


def _read_curves(exp_dir: Path) -> dict[str, list[tuple[float, float, float]]]:
    """Parse every ``<curve>.csv`` of one experiment into (x, mean, stderr) rows."""
    curves = {}
    for path in sorted(exp_dir.glob("*.csv")):
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            curves[path.stem] = [(float(x), float(m), float(s)) for x, m, s in rows]
    return curves


def _digest(exp_dir: Path) -> str:
    """Digest of the CSV outputs; metadata.json is left out (it has a timestamp)."""
    h = hashlib.sha256()
    for path in sorted(exp_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class CliExperiment:
    """A workload that runs ``distbeam exp <experiment>`` into ``out_dir``."""

    experiment = ""
    threads = 1           # threads one execution computes on

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.workers = workers

    @property
    def exp_dir(self) -> Path:
        return self.out_dir / self.experiment

    def digest(self, _raw=None) -> str:
        return _digest(self.exp_dir)

    def bytes_written(self) -> int:
        """Size of the files the last execution wrote (CSVs and metadata.json)."""
        if not self.exp_dir.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.exp_dir.iterdir() if p.is_file())


def _check_stage_errors(res, n: int, where: str) -> None:
    worst = max(abs(e) for e in res.errors[1:])
    if worst > math.pi / 2.0 ** n + INEQ_TOL:
        raise WorkloadError(f"{where}: stage error {worst} exceeds pi/2^{n}")


def _check_sandwich(eta: float, bound: float, where: str) -> None:
    if not bound - INEQ_TOL <= eta <= 1.0 + REL_TOL:
        raise WorkloadError(f"{where}: eta {eta} outside [bound {bound}, 1]")


class EfficiencySweep(CliExperiment):
    """``distbeam exp efficiency-vs-N`` with default sweeps on nproc workers."""

    name = "efficiency-sweep"
    experiment = "efficiency-vs-N"
    trials = 100
    m_list = (5, 10)
    n_list = (1, 2, 3, 4, 5, 6, 7, 8)
    stream_domain = 1     # the harness's rng_stream tag for this experiment

    @property
    def threads(self) -> int:
        return self.workers

    @property
    def intervals(self) -> int:
        """Feedback intervals of one execution: sum of N*(M-1) over runs."""
        return self.trials * sum(self.n_list) * sum(m - 1 for m in self.m_list)

    bisection_intervals = intervals

    def argv(self, workers: int | None = None) -> list[str]:
        return ["exp", self.experiment, "--trials", str(self.trials),
                "--seed", str(self.seed),
                "--workers", str(self.workers if workers is None else workers),
                "--out", str(self.out_dir)]

    def execute(self, workers: int | None = None) -> None:
        _run_cli(self.argv(workers))

    def summarize(self, _raw=None) -> dict:
        return {k: [list(r) for r in v] for k, v in _read_curves(self.exp_dir).items()}

    def check(self, summary: dict) -> None:
        """Recompute every run through the library and compare with the CSVs.

        This asserts the sandwich and the stage-error bound per run, which
        the averaged CSVs cannot show, and that the harness averaged exactly
        those runs.
        """
        expected = {f"eta_M{m}" for m in self.m_list} | {f"bound_M{m}" for m in self.m_list}
        if set(summary) != expected:
            raise WorkloadError(f"curves {sorted(summary)} != {sorted(expected)}")
        for m in self.m_list:
            dist = experiments.ExperimentConfig.defaults_for(self.experiment).distribution(m)
            etas = np.zeros((self.trials, len(self.n_list)))
            bounds = np.zeros_like(etas)
            for t in range(self.trials):
                rng = experiments.rng_stream(self.seed, self.stream_domain, m, t)
                scen, _ = channel.generate_scenario(dist, rng)
                for j, n in enumerate(self.n_list):
                    res = protocol.run_protocol(scen, n)
                    where = f"M={m} trial {t} N={n}"
                    etas[t, j] = res.eta
                    bounds[t, j] = protocol.efficiency_lower_bound(scen, n)
                    _check_sandwich(res.eta, bounds[t, j], where)
                    _check_stage_errors(res, n, where)
            for curve, table in ((f"eta_M{m}", etas), (f"bound_M{m}", bounds)):
                rows = summary[curve]
                if [r[0] for r in rows] != [float(n) for n in self.n_list]:
                    raise WorkloadError(f"{curve}: unexpected N column")
                for j, row in enumerate(rows):
                    mean = float(np.mean(table[:, j]))
                    if not rel_close(row[1], mean):
                        raise WorkloadError(f"{curve} N={row[0]}: CSV mean {row[1]} != runs' mean {mean}")


class NoisyLargeM:
    """Direct library calls: K scenarios at M=50, N=8, additive measurement noise."""

    name = "noisy-large-m"
    scenarios = 100
    num_transmitters = 50
    n_intervals = 8
    noise_std = 1e-6     # watts; the aligned power here is ~5e-2 W
    threads = 1

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed

    @property
    def intervals(self) -> int:
        return self.scenarios * self.n_intervals * (self.num_transmitters - 1)

    bisection_intervals = intervals

    def execute(self) -> list[tuple[float, float, float, int]]:
        dist = channel.ScenarioDistribution(num_transmitters=self.num_transmitters)
        out = []
        for k in range(self.scenarios):
            scen, _ = channel.generate_scenario(dist, experiments.rng_stream(self.seed, k))
            meas = power.MeasurementModel(power.MODE_ADDITIVE_NOISE, self.noise_std,
                                          experiments.rng_stream(self.seed, k, 1))
            res = protocol.run_protocol(scen, self.n_intervals, meas)
            bound = protocol.efficiency_lower_bound(scen, self.n_intervals)
            out.append((res.eta, res.q_d, bound, res.total_feedback_intervals))
        return out

    def digest(self, raw) -> str:
        return hashlib.sha256(repr(raw).encode()).hexdigest()

    def bytes_written(self) -> int:
        return 0

    def summarize(self, raw) -> list:
        return [list(r) for r in raw]

    def check(self, summary: list) -> None:
        """Noise voids the lower bound; eta must still be a valid efficiency."""
        if len(summary) != self.scenarios:
            raise WorkloadError(f"{len(summary)} runs, expected {self.scenarios}")
        per_run = self.n_intervals * (self.num_transmitters - 1)
        for k, (eta, q_d, bound, used) in enumerate(summary):
            if not (0.0 < eta <= 1.0 + REL_TOL and q_d > 0.0 and 0.0 < bound <= 1.0):
                raise WorkloadError(f"scenario {k}: eta {eta}, Q_d {q_d}, bound {bound}")
            if used != per_run:
                raise WorkloadError(f"scenario {k}: {used} intervals, expected {per_run}")


class ConvergenceTrace(CliExperiment):
    """``distbeam exp convergence-comparison``: protocol vs perturbation baseline."""

    name = "convergence-trace"
    experiment = "convergence-comparison"
    baseline_intervals = 5000
    m_list = (5, 10, 20, 40)
    stream_domain = 3
    sample_every = 100    # CSV rows kept in the reference, besides sums

    @property
    def n_adapt(self) -> int:
        return experiments.ExperimentConfig.defaults_for(self.experiment).n_adapt

    @property
    def bisection_intervals(self) -> int:
        return sum(self.n_adapt * (m - 1) for m in self.m_list)

    @property
    def intervals(self) -> int:
        """The protocol's N*(M-1) per system size plus the baseline's intervals."""
        return self.bisection_intervals + len(self.m_list) * self.baseline_intervals

    def argv(self) -> list[str]:
        return ["exp", self.experiment,
                "--intervals", str(self.baseline_intervals),
                "--m-list", ",".join(map(str, self.m_list)),
                "--seed", str(self.seed), "--out", str(self.out_dir)]

    def execute(self) -> None:
        _run_cli(self.argv())

    def summarize(self, _raw=None) -> dict:
        """Per curve: row count, sum of means, sampled rows and the last row."""
        out = {}
        for curve, rows in _read_curves(self.exp_dir).items():
            out[curve] = {
                "rows": len(rows),
                "sum": math.fsum(r[1] for r in rows),
                "sampled": [[r[0], r[1]] for r in rows[self.sample_every - 1::self.sample_every]],
                "last": [rows[-1][0], rows[-1][1]],
                "nondecreasing": all(a[1] <= b[1] for a, b in zip(rows, rows[1:])),
            }
        return out

    def check(self, summary: dict) -> None:
        for m in self.m_list:
            proposed, baseline, optimal = (summary.get(f"{c}_M{m}")
                                           for c in ("proposed", "baseline", "optimal"))
            if None in (proposed, baseline, optimal):
                raise WorkloadError(f"M={m}: missing curve")
            if proposed["rows"] != self.baseline_intervals or baseline["rows"] != self.baseline_intervals:
                raise WorkloadError(f"M={m}: wrong row count")
            if not baseline["nondecreasing"]:
                raise WorkloadError(f"M={m}: baseline best_power decreased")
            dist = experiments.ExperimentConfig.defaults_for(self.experiment).distribution(m)
            scen, _ = channel.generate_scenario(
                dist, experiments.rng_stream(self.seed, self.stream_domain, m))
            q_star = optimal["last"][1]
            if not rel_close(q_star, power.optimal_power(scen)):
                raise WorkloadError(f"M={m}: optimal {q_star} != optimal_power")
            res = protocol.run_protocol(scen, self.n_adapt)
            if not rel_close(proposed["last"][1], res.q_d):
                raise WorkloadError(f"M={m}: delivered power {proposed['last'][1]} != Q_d {res.q_d}")
            where = f"M={m}"
            _check_sandwich(proposed["last"][1] / q_star,
                            protocol.efficiency_lower_bound(scen, self.n_adapt), where)
            _check_stage_errors(res, self.n_adapt, where)
            if baseline["last"][1] > q_star * (1.0 + REL_TOL):
                raise WorkloadError(f"M={m}: baseline beats the optimum")


class VerifySuite:
    """One ``distbeam verify`` pass; the suite seeds itself, so --seed is unused."""

    name = "verify-suite"
    checks = 6
    #: Feedback intervals of one pass. The suite draws its scenarios from its
    #: own constant seeds, so its inputs fix the count: 50*6 (grid oracle)
    #: + 200*(1+..+8) (error bound) + 13*677 (sandwich, sum of M-1 = 677).
    intervals = 16301
    bisection_intervals = intervals
    threads = 1

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed

    def execute(self) -> str:
        return _run_cli(["verify"])

    def digest(self, raw) -> str:
        return hashlib.sha256(raw.encode()).hexdigest()

    def bytes_written(self) -> int:
        return 0

    def summarize(self, raw) -> list[str]:
        return raw.splitlines()

    def check(self, summary: list[str]) -> None:
        if summary[-1:] != [f"all {self.checks} checks passed"]:
            raise WorkloadError(f"verify ended with {summary[-1:]}")
        if len(summary) != self.checks + 1 or not all(ln.startswith("[ok] ") for ln in summary[:-1]):
            raise WorkloadError("verify did not report every check as ok")


WORKLOADS = {w.name: w for w in (EfficiencySweep, NoisyLargeM, ConvergenceTrace, VerifySuite)}


# ----- comparison with recorded outputs ---------------------------------

def _mask_residuals(line: str) -> str:
    """Replace numbers below INEQ_TOL in magnitude (float rounding residuals
    such as 'max relative mismatch 2.2e-16') by a marker; they move with any
    last-ulp change and the check's own [ok] already bounds them."""
    out = []
    for tok in line.split(" "):
        core = tok.strip("()")
        try:
            small = abs(float(core)) < INEQ_TOL
        except ValueError:
            small = False
        out.append("<residual>" if small else tok)
    return " ".join(out)


def compare(got, want, path: str = "") -> list[str]:
    """Differences between a summary and its recorded reference."""
    if isinstance(want, bool) or isinstance(want, str) or isinstance(want, int):
        if isinstance(want, str) and isinstance(got, str):
            got, want = _mask_residuals(got), _mask_residuals(want)
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and (got == want or rel_close(float(got), want))
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [d for k in want for d in compare(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{path}[{i}]")]
    return [f"{path}: unexpected reference type {type(want).__name__}"]
