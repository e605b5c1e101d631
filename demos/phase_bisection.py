#!/usr/bin/env python3
"""Walkthrough of the one-bit phase bisection for a single transmitter.

A second transmitter wants to join a carrier already arriving at the
receiver. It cannot see the channel, only a per-interval bit saying which
of its two probe phases delivered more power. Watch the working set halve
every interval and the estimate converge exponentially.

Run: python3 demos/phase_bisection.py
"""

import math

import numpy as np

from distbeam import (
    PhaseAssignment,
    ScenarioDistribution,
    adapt_phase,
    circular_distance,
    generate_scenario,
    sum_signal,
)

rng = np.random.default_rng(2024)
scenario, draw = generate_scenario(ScenarioDistribution(num_transmitters=2), rng)

print("Two transmitters, random placements:")
links = zip(draw.distances, scenario.gains.tolist(), scenario.phase_shifts.tolist())
for i, (r, gain, shift) in enumerate(links, start=1):
    print(f"  ET{i}: distance {r:6.2f} m, gain {gain:.3e}, phase shift {shift:+.4f} rad")

# transmitter 1 holds phase 0; transmitter 2 adapts
fixed = PhaseAssignment(np.zeros(2), np.array([True, False]))
combined = sum_signal(scenario, fixed)
target = float(scenario.phase_shifts[1]) - combined.phase_shift
print(f"\nOptimal phase for ET2 (closed form): {target:+.6f} rad")

print(f"\n{'n':>2} {'probe psi':>10} {'probe psi_prime':>16} "
      f"{'bit':>4} {'set center':>11} {'half-width':>11}")
phi, trace = adapt_phase(scenario, fixed, 1, n_intervals=8)
for rec in trace.records:
    print(f"{rec.interval:>2} {rec.psi:>10.4f} {rec.psi_prime:>16.4f} "
          f"{int(rec.bit):>4} {rec.arc_center:>11.4f} {rec.arc_half_width:>11.6f}")

err = circular_distance(phi, trace.target_phase)
print(f"\nEstimate after 8 intervals: {phi:+.6f} rad "
      f"(error {err:.2e}, guarantee {math.pi / 2**8:.2e})")

print("\nError decay over budgets, worst of 500 random links per budget:")
print(f"{'N':>3} {'worst error':>12} {'pi/2^N':>12}")
for n in range(1, 11):
    worst = 0.0
    sub = np.random.default_rng(7)
    for _ in range(500):
        s, _ = generate_scenario(ScenarioDistribution(num_transmitters=2), sub)
        pa = PhaseAssignment(np.array([sub.uniform(-math.pi, math.pi), 0.0]),
                             np.array([True, False]))
        est, tr = adapt_phase(s, pa, 1, n)
        worst = max(worst, circular_distance(est, tr.target_phase))
    print(f"{n:>3} {worst:>12.3e} {math.pi / 2**n:>12.3e}")

print("\nEach feedback bit halves the candidate set: the worst error is cut "
      "in two per interval, never exceeding the guarantee.")
