"""Built-in verification suite behind the ``verify`` CLI command.

Every check pits an implementation against an independent route to the
same number: complex phasor sums against the pairwise power formula, a
dense-grid membership oracle against the arc bisection, closed-form bounds
against protocol runs, and the stage-recursion against the discounted
pairwise bound. All randomness is internally seeded, so the suite is
deterministic.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .adapt import adapt_phase, initial_arc
from .angles import circular_distance, wrap_angle
from .channel import Scenario, ScenarioDistribution, generate_scenario
from .experiments import rng_stream
from .power import PhaseAssignment, harvested_power, partial_power, sum_signal
from .protocol import (
    check_induction_inequality,
    efficiency_lower_bound,
    run_protocol,
)


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


def phasor_oracle_power(s: Scenario, pa: PhaseAssignment) -> float:
    """Independent route to the harvested power: squared magnitude of the
    complex amplitude sum."""
    z = 0.0 + 0.0j
    for i in np.flatnonzero(pa.active):
        z += math.sqrt(s.gains[i]) * cmath.exp(
            1j * (pa.phases[i] - s.phase_shifts[i])
        )
    return s.conversion_eff * s.transmit_power * abs(z) ** 2


def check_phasor_oracle(seed=20_240_101, instances=2000, max_m=32) -> CheckResult:
    rng = rng_stream(seed, 90)
    worst = 0.0
    for _ in range(instances):
        m = int(rng.integers(1, max_m + 1))
        s = _random_scenario(rng, m)
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, m))
        a = harvested_power(s, pa)
        b = phasor_oracle_power(s, pa)
        scale = max(abs(b), 1e-300)
        worst = max(worst, abs(a - b) / scale)
    ok = worst <= 1e-10
    return CheckResult("phasor-sum oracle", ok, f"max relative mismatch {worst:.3g}")


def check_partial_power_consistency(seed=20_240_102, instances=2000, max_m=16) -> CheckResult:
    rng = rng_stream(seed, 91)
    worst = 0.0
    for _ in range(instances):
        m_total = int(rng.integers(2, max_m + 1))
        s = _random_scenario(rng, m_total)
        phases = rng.uniform(-math.pi, math.pi, m_total)
        m = int(rng.integers(0, m_total))
        active = rng.random(m_total) < 0.8
        active[m] = False
        if not active.any():
            active[(m + 1) % m_total] = True
        pa = PhaseAssignment(phases.copy(), active.copy())
        ss = sum_signal(s, pa, exclude=m)
        a = partial_power(s, ss, m, phases[m])
        joined = active.copy()
        joined[m] = True
        b = harvested_power(s, PhaseAssignment(phases.copy(), joined))
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
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
    worst_excess = -math.inf
    for n in range(1, n_max + 1):
        bound = math.pi / 2.0 ** n
        for _ in range(runs_per_n):
            s = _random_scenario(rng, 2)
            pa = PhaseAssignment(
                rng.uniform(-math.pi, math.pi, 2), np.array([True, False])
            )
            phi, trace = adapt_phase(s, pa, 1, n)
            err = circular_distance(phi, trace.target_phase)
            worst_excess = max(worst_excess, err - bound)
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
