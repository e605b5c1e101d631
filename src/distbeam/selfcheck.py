"""Built-in verification suite behind the ``verify`` CLI command.

Every check pits an implementation against an independent route to the
same number: complex phasor sums against the pairwise power formula, a
dense-grid membership oracle against the arc bisection, closed-form bounds
against protocol runs, and the stage-recursion against the discounted
pairwise bound. No check takes an argument: the seeds and sizes below fix
its instances, so the suite is deterministic and always the same size.

The two power checks draw their instances one at a time, in windows of
:data:`WINDOW`, and evaluate each window in one stacked call per row
width. The scalar functions under test (``sum_signal``, ``partial_power``,
``adapt_phase``, ``run_protocol``) still run once per instance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adapt import adapt_phase, initial_arc
from .angles import circular_distance, wrap_angle
from .channel import Scenario, ScenarioDistribution, generate_scenario
from .power import (
    PhaseAssignment,
    TrialStack,
    harvested_powers,
    partial_power,
    sum_signal,
)
from .protocol import (
    check_induction_inequality,
    efficiency_lower_bound,
    run_protocol,
)
from .streams import rng_stream


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@functools.cache
def _distribution(m: int) -> ScenarioDistribution:
    return ScenarioDistribution(num_transmitters=m)


def _random_scenario(rng, m) -> Scenario:
    scen, _ = generate_scenario(_distribution(m), rng)
    return scen


# each check's stream seed, then its sizes: one set of instances per check
PHASOR_SEED, PHASOR_INSTANCES, PHASOR_MAX_M = 20_240_101, 2000, 32
PARTIAL_SEED, PARTIAL_INSTANCES, PARTIAL_MAX_M = 20_240_102, 2000, 16
GRID_SEED, GRID_RUNS, GRID_INTERVALS = 20_240_103, 50, 6
BOUND_SEED, BOUND_RUNS_PER_N, BOUND_MAX_N = 20_240_104, 200, 8
SANDWICH_SEED, SANDWICH_SCENARIOS = 20_240_105, 150
INDUCTION_SEED, INDUCTION_INSTANCES = 20_240_106, 2000

#: Instances a stacked check draws before it evaluates and drops them. A
#: window bounds the memory a check holds; every width in it still gets one
#: stacked call. 256 measured no faster and doubled the peak-RSS cost.
WINDOW = 128


def phasor_oracle_powers(stack: TrialStack, phases: np.ndarray) -> np.ndarray:
    """Independent route to the harvested power of every row: squared
    magnitude of the complex amplitude sum, which shares no arithmetic with
    the pairwise cosine kernel."""
    z = (np.sqrt(stack.gains) * np.exp(1j * (phases - stack.phase_shifts))).sum(axis=-1)
    return stack.scale * np.abs(z) ** 2


def _stacked(rows, *kernels) -> tuple[np.ndarray, ...]:
    """Each kernel's value at every ``(gains, phase_shifts, scale, phases)``
    row of a window, in row order. Rows of one width form one
    :class:`TrialStack` and (T, width) phases, and each kernel runs once
    per width."""
    out = tuple(np.empty(len(rows)) for _ in kernels)
    by_width: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_width.setdefault(row[0].size, []).append(i)
    for idx in by_width.values():
        gains, phase_shifts, scale, phases = map(np.array, zip(*(rows[i] for i in idx)))
        stack = TrialStack(gains, phase_shifts, scale)
        for values, kernel in zip(out, kernels):
            values[idx] = kernel(stack, phases)
    return out


def _mismatch_check(name: str, windows) -> CheckResult:
    """Pass if the largest |a - b| / |b| over the (a, b) arrays of every
    window is at most 1e-10; a NaN mismatch is the largest, so it fails."""
    mismatches = [0.0]
    for a, b in windows:
        mismatches.append(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
    worst = float(np.max(mismatches))
    return CheckResult(name, worst <= 1e-10, f"max relative mismatch {worst:.3g}")


def phasor_windows():
    """Per window, each instance's ``harvested_powers`` and phasor-oracle
    power, in draw order."""
    rng = rng_stream(PHASOR_SEED, 90)
    for start in range(0, PHASOR_INSTANCES, WINDOW):
        rows = []
        for _ in range(min(WINDOW, PHASOR_INSTANCES - start)):
            m = int(rng.integers(1, PHASOR_MAX_M + 1))
            s = _random_scenario(rng, m)
            # a uniform(-pi, pi) draw is its own wrap (generate_scenario)
            rows.append((s.gains, s.phase_shifts, s.power_scale,
                         rng.uniform(-math.pi, math.pi, m)))
        yield _stacked(rows, harvested_powers, phasor_oracle_powers)


def check_phasor_oracle() -> CheckResult:
    return _mismatch_check("phasor-sum oracle", phasor_windows())


def partial_power_windows():
    """Per window, each instance's scalar ``partial_power`` and the
    ``harvested_powers`` of its joined active set, in draw order."""
    rng = rng_stream(PARTIAL_SEED, 91)
    for start in range(0, PARTIAL_INSTANCES, WINDOW):
        partial, rows = [], []
        for _ in range(min(WINDOW, PARTIAL_INSTANCES - start)):
            m_total = int(rng.integers(2, PARTIAL_MAX_M + 1))
            s = _random_scenario(rng, m_total)
            phases = rng.uniform(-math.pi, math.pi, m_total)
            m = int(rng.integers(0, m_total))
            active = rng.random(m_total) < 0.8
            active[m] = False
            if not active.any():
                active[(m + 1) % m_total] = True
            pa = PhaseAssignment(phases, active)
            partial.append(partial_power(s, sum_signal(s, pa), m, phases[m]))
            active[m] = True
            joined = np.flatnonzero(active)
            rows.append((s.gains[joined], s.phase_shifts[joined],
                         s.power_scale, pa.phases[joined]))
        yield (np.array(partial), *_stacked(rows, harvested_powers))


def check_partial_power_consistency() -> CheckResult:
    return _mismatch_check("partial-power consistency", partial_power_windows())


def grid_oracle_violations(trace, grid_size: int) -> int:
    """Count grid points that contradict the cosine comparisons of a run.

    For each interval, every point of the previous working set must end up
    on the side of the new set dictated by the raw cosine inequality of the
    probe pair; ties and boundary points are exempt. Also enforces strict
    nesting with exact halving. Returns the number of violations.

    All intervals are checked at once on (N, grid) arrays: the distances to
    the N + 1 arc centres are taken once, interval k's previous set being
    interval k - 1's new one. Memory is a few (N, grid) arrays; verify and
    the tests check runs of six intervals.
    """
    tol = 1e-9
    grid = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    first = initial_arc()
    centres = np.array((first.center, *trace.arc_center))[:, None]
    halves = np.array((first.half_width, *trace.arc_half_width))[:, None]
    dist = np.abs(wrap_angle(grid - centres))
    d_prev, d_new = dist[:-1], dist[1:]
    prev_half, new_half = halves[:-1], halves[1:]
    bad = np.count_nonzero(new_half != prev_half / 2.0)   # not an exact halving
    bad += np.count_nonzero((d_new < new_half - tol) & (d_prev > prev_half + tol))
    lhs = np.cos(grid - np.array(trace.psi)[:, None])
    rhs = np.cos(grid - np.array(trace.psi_prime)[:, None])
    interior = d_prev < prev_half - tol        # previous-set interior only
    decisive = np.abs(lhs - rhs) > tol         # comparison not a tie
    off_boundary = np.abs(d_new - new_half) > tol
    kept = d_new < new_half
    should_keep = (lhs > rhs) == np.array(trace.bit)[:, None]
    wrong = interior & decisive & off_boundary & (kept != should_keep)
    return int(bad + np.count_nonzero(wrong))


def check_bisection_grid() -> CheckResult:
    rng = rng_stream(GRID_SEED, 92)
    bad = 0
    for _ in range(GRID_RUNS):
        s = _random_scenario(rng, 2)
        pa = PhaseAssignment(np.zeros(2), np.array([True, False]))
        _, trace = adapt_phase(s, pa, 1, GRID_INTERVALS)
        bad += grid_oracle_violations(trace, grid_size=720)
    return CheckResult("bisection grid oracle", bad == 0, f"{bad} grid violations")


def check_error_bound() -> CheckResult:
    rng = rng_stream(BOUND_SEED, 93)
    excess = []
    for n in range(1, BOUND_MAX_N + 1):
        bound = math.pi / 2.0 ** n
        for _ in range(BOUND_RUNS_PER_N):
            s = _random_scenario(rng, 2)
            pa = PhaseAssignment(
                rng.uniform(-math.pi, math.pi, 2), np.array([True, False])
            )
            phi, trace = adapt_phase(s, pa, 1, n)
            excess.append(circular_distance(phi, trace.target_phase) - bound)
    worst_excess = float(np.max(excess))   # np.max keeps a NaN error, max() drops it
    ok = worst_excess <= 1e-9
    return CheckResult("phase-error bound", ok,
                       f"worst error minus pi/2^N is {worst_excess:.3g}")


def check_efficiency_sandwich() -> CheckResult:
    rng = rng_stream(SANDWICH_SEED, 94)
    bad = 0
    worst = 0.0
    for _ in range(SANDWICH_SCENARIOS):
        m = int(rng.choice([2, 5, 10]))
        s = _random_scenario(rng, m)
        for n in (1, 2, 4, 6):
            res = run_protocol(s, n)
            lo = efficiency_lower_bound(s, n)
            if not (lo - 1e-9 <= res.eta <= 1.0 + 1e-12):
                bad += 1
                worst = max(worst, lo - res.eta, res.eta - 1.0)
    return CheckResult("efficiency sandwich", bad == 0,
                       f"{bad} violations (worst {worst:.3g})")


def check_induction() -> CheckResult:
    rng = rng_stream(INDUCTION_SEED, 95)
    bad = 0
    worst = math.inf
    for _ in range(INDUCTION_INSTANCES):
        m = int(rng.integers(2, 11))
        s = _random_scenario(rng, m)
        errors = rng.uniform(-math.pi / 2, math.pi / 2, m)
        errors[0] = 0.0
        ok, slack = check_induction_inequality(s, errors)
        if not ok:
            bad += 1
        worst = min(worst, slack)
    return CheckResult("stage-recursion inequality", bad == 0,
                       f"{bad} violations (min slack {worst:.3g})")


ALL_CHECKS = (
    check_phasor_oracle,
    check_partial_power_consistency,
    check_bisection_grid,
    check_error_bound,
    check_efficiency_sandwich,
    check_induction,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
