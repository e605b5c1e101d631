"""Isolated, untraced timings of single layer calls at stated inputs.

Each kernel runs in a loop of ``number`` calls sized so that one repeat
lasts about ``REPEAT_S`` seconds; the reported figure is the median over
``REPEATS`` repeats of the per-call time. Inputs are drawn once from a
fixed seed, so the figures compare across runs and commits.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from distbeam import adapt, angles, channel, experiments, power, protocol

KERNEL_SEED = 7
REPEATS = 5
REPEAT_S = 0.04


def _scenario(m: int):
    dist = channel.ScenarioDistribution(num_transmitters=m)
    scen, _ = channel.generate_scenario(dist, experiments.rng_stream(KERNEL_SEED, m))
    return scen


def _per_call_s(fn) -> float:
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= REPEAT_S / 4:
            break
        number *= 4
    number = max(1, int(number * REPEAT_S / elapsed))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def kernels():
    """(metric name, unit, zero-argument call) for every kernel."""
    s10, s50 = _scenario(10), _scenario(50)
    rng = experiments.rng_stream(KERNEL_SEED, 0)
    pa10 = power.PhaseAssignment(rng.uniform(-math.pi, math.pi, 10))
    pa50 = power.PhaseAssignment(rng.uniform(-math.pi, math.pi, 50))
    # the last stage of each run: all but the last transmitter fixed
    head9 = power.PhaseAssignment(pa10.phases.copy(), np.arange(10) < 9)
    ss9 = power.sum_signal(s10, head9)
    head49 = power.PhaseAssignment(pa50.phases.copy(), np.arange(50) < 49)
    return (
        ("angles.wrap_angle.ns", "ns", lambda: angles.wrap_angle(2.5)),
        ("power.partial_power.ns", "ns", lambda: power.partial_power(s10, ss9, 9, 0.3)),
        ("power.sum_signal.m50_us", "us", lambda: power.sum_signal(s50, pa50)),
        ("power.harvested_power.m10_us", "us", lambda: power.harvested_power(s10, pa10)),
        ("power.harvested_power.m50_us", "us", lambda: power.harvested_power(s50, pa50)),
        ("adapt.adapt_phase.m50_n8_us", "us", lambda: adapt.adapt_phase(s50, head49, 49, 8)),
        ("protocol.run_protocol.m10_n8_ms", "ms", lambda: protocol.run_protocol(s10, 8)),
        ("protocol.run_protocol.m50_n8_ms", "ms", lambda: protocol.run_protocol(s50, 8)),
        ("protocol.efficiency_lower_bound.m10_us", "us",
         lambda: protocol.efficiency_lower_bound(s10, 8)),
    )


def time_kernels() -> dict[str, tuple[float, str]]:
    """Per-call time of every kernel as (value, unit)."""
    return {name: (_per_call_s(fn) * _SCALE[unit], unit) for name, unit, fn in kernels()}
