"""Built-in verification suite behind the ``verify`` CLI command.

Every check pits an implementation against an independent route to the
same number: complex phasor sums against the pairwise power formula, a
dense-grid membership oracle against the arc bisection, closed-form bounds
against protocol runs, and the stage-recursion against the discounted
pairwise bound. All randomness is internally seeded, so the suite is
deterministic.

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


def _worst_mismatch(windows) -> float:
    """Largest |a - b| / |b| over the (a, b) arrays of every window; a NaN
    mismatch is the result, so it fails the check."""
    worst = [0.0]
    for a, b in windows:
        worst.append(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
    return float(np.max(worst))


def phasor_windows(seed=20_240_101, instances=2000, max_m=32):
    """Per window, each instance's ``harvested_powers`` and phasor-oracle
    power, in draw order."""
    rng = rng_stream(seed, 90)
    for start in range(0, instances, WINDOW):
        rows = []
        for _ in range(min(WINDOW, instances - start)):
            m = int(rng.integers(1, max_m + 1))
            s = _random_scenario(rng, m)
            rows.append((s.gains, s.phase_shifts, s.power_scale,
                         wrap_angle(rng.uniform(-math.pi, math.pi, m))))
        yield _stacked(rows, harvested_powers, phasor_oracle_powers)


def check_phasor_oracle(seed=20_240_101, instances=2000, max_m=32) -> CheckResult:
    worst = _worst_mismatch(phasor_windows(seed, instances, max_m))
    ok = worst <= 1e-10
    return CheckResult("phasor-sum oracle", ok, f"max relative mismatch {worst:.3g}")


def partial_power_windows(seed=20_240_102, instances=2000, max_m=16):
    """Per window, each instance's scalar ``partial_power`` and the
    ``harvested_powers`` of its joined active set, in draw order."""
    rng = rng_stream(seed, 91)
    for start in range(0, instances, WINDOW):
        partial, rows = [], []
        for _ in range(min(WINDOW, instances - start)):
            m_total = int(rng.integers(2, max_m + 1))
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


def check_partial_power_consistency(seed=20_240_102, instances=2000, max_m=16) -> CheckResult:
    worst = _worst_mismatch(partial_power_windows(seed, instances, max_m))
    ok = worst <= 1e-10
    return CheckResult("partial-power consistency", ok,
                       f"max relative mismatch {worst:.3g}")


def grid_oracle_violations(trace, grid_size=3600, tol=1e-9) -> int:
    """Count grid points that contradict the cosine comparisons of a run.

    For each interval, every point of the previous working set must end up
    on the side of the new set dictated by the raw cosine inequality of the
    probe pair; ties and boundary points are exempt. Also enforces strict
    nesting with exact halving. Returns the number of violations.
    """
    grid = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    prev_center, prev_half = initial_arc().center, initial_arc().half_width
    bad = 0
    for rec in trace.records:
        new_center, new_half = rec.arc_center, rec.arc_half_width
        if new_half != prev_half / 2.0:
            bad += 1  # not an exact halving
        d_prev = np.abs(wrap_angle(grid - prev_center))
        d_new = np.abs(wrap_angle(grid - new_center))
        bad += int(((d_new < new_half - tol) & (d_prev > prev_half + tol)).sum())
        lhs = np.cos(grid - rec.psi)
        rhs = np.cos(grid - rec.psi_prime)
        interior = d_prev < prev_half - tol        # previous-set interior only
        decisive = np.abs(lhs - rhs) > tol         # comparison not a tie
        off_boundary = np.abs(d_new - new_half) > tol
        kept = d_new < new_half
        should_keep = (lhs > rhs) == rec.bit
        wrong = interior & decisive & off_boundary & (kept != should_keep)
        bad += int(wrong.sum())
        prev_center, prev_half = new_center, new_half
    return bad


def check_bisection_grid(seed=20_240_103, runs=50, n_intervals=6) -> CheckResult:
    rng = rng_stream(seed, 92)
    bad = 0
    for _ in range(runs):
        s = _random_scenario(rng, 2)
        pa = PhaseAssignment(np.zeros(2), np.array([True, False]))
        _, trace = adapt_phase(s, pa, 1, n_intervals)
        bad += grid_oracle_violations(trace, grid_size=720)
    return CheckResult("bisection grid oracle", bad == 0, f"{bad} grid violations")


def check_error_bound(seed=20_240_104, runs_per_n=200, n_max=8) -> CheckResult:
    rng = rng_stream(seed, 93)
    excess = []
    for n in range(1, n_max + 1):
        bound = math.pi / 2.0 ** n
        for _ in range(runs_per_n):
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


def check_efficiency_sandwich(seed=20_240_105, scenarios=150) -> CheckResult:
    rng = rng_stream(seed, 94)
    bad = 0
    worst = 0.0
    for _ in range(scenarios):
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


def check_induction(seed=20_240_106, instances=2000) -> CheckResult:
    rng = rng_stream(seed, 95)
    bad = 0
    worst = math.inf
    for _ in range(instances):
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
