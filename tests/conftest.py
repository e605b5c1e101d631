"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own computation paths:
powers are recomputed from complex amplitude sums or by integrating the
carrier waveform over one period, and optima are located by brute-force
grid search. Where the library replaces a loop by array operations with
the same arithmetic, the loop is kept here as the bit-for-bit reference.
"""

import cmath
import math

import numpy as np
import pytest

from distbeam import (
    Channel,
    PhaseAssignment,
    Scenario,
    ScenarioDistribution,
    generate_scenario,
    harvested_power,
)
from distbeam.angles import wrap_angle
from distbeam.baseline import DIST_UNIFORM, BaselineTrace
from distbeam.experiments import rng_stream
from distbeam.power import measure


def phasor_power(s: Scenario, pa: PhaseAssignment) -> float:
    """Harvested power via the complex amplitude sum."""
    z = 0j
    for i in np.flatnonzero(pa.active):
        z += math.sqrt(s.gains[i]) * cmath.exp(1j * (pa.phases[i] - s.phase_shifts[i]))
    return s.conversion_eff * s.transmit_power * abs(z) ** 2


def time_domain_power(s: Scenario, pa: PhaseAssignment, samples: int = 64) -> float:
    """Harvested power by averaging the squared received waveform over one
    carrier period (periodic uniform sampling is exact for the degree-2
    trigonometric polynomial |r(t)|^2 once samples > 4)."""
    period = 1.0 / s.carrier_freq
    t = np.arange(samples) * (period / samples)
    r = np.zeros(samples)
    for i in np.flatnonzero(pa.active):
        r += math.sqrt(s.gains[i]) * np.cos(
            2.0 * math.pi * s.carrier_freq * t + pa.phases[i] - s.phase_shifts[i]
        )
    r *= math.sqrt(2.0 * s.transmit_power)
    return s.conversion_eff * float(np.mean(r * r))


def pairwise_error_bound(gains, errors) -> float:
    """Error-discounted power as the explicit pairwise double sum: every
    gain plus sqrt(g_i g_j) cos(e_i) cos(e_j) over ordered pairs i != j."""
    total = sum(float(g) for g in gains)
    for i, (g_i, e_i) in enumerate(zip(gains, errors)):
        for j, (g_j, e_j) in enumerate(zip(gains, errors)):
            if i != j:
                total += math.sqrt(g_i * g_j) * math.cos(e_i) * math.cos(e_j)
    return total


def per_interval_perturbation(s: Scenario, cfg, meas, rng) -> BaselineTrace:
    """The random-perturbation baseline one interval at a time: draw a step,
    measure the candidate through ``harvested_power`` and ``measure``, keep
    it on a strict improvement."""
    m = s.num_transmitters
    best = np.zeros(m)
    best_power = measure(meas, harvested_power(s, PhaseAssignment(best.copy())))
    t = cfg.max_intervals
    cand_hist = np.zeros((t, m))
    meas_hist = np.zeros(t)
    best_hist = np.zeros(t)
    acc_hist = np.zeros(t, dtype=bool)
    for n in range(t):
        if cfg.distribution == DIST_UNIFORM:
            step = rng.uniform(-cfg.scale, cfg.scale, size=m)
        else:
            step = rng.normal(0.0, cfg.scale, size=m)
        cand = wrap_angle(best + step)
        p = measure(meas, harvested_power(s, PhaseAssignment(cand.copy())))
        if p > best_power:
            best = cand
            best_power = p
            acc_hist[n] = True
        cand_hist[n] = cand
        meas_hist[n] = p
        best_hist[n] = best_power
    return BaselineTrace(cand_hist, meas_hist, best_hist, acc_hist, best, best_power)


def grid_argmax(fn, points: int = 360) -> float:
    """Brute-force maximizer of a function of phase over a uniform grid."""
    grid = np.linspace(-math.pi, math.pi, points, endpoint=False)
    values = [fn(th) for th in grid]
    return float(grid[int(np.argmax(values))])


def equal_gain_scenario(m: int, gain: float = 1.0, power: float = 1.0,
                        eff: float = 1.0) -> Scenario:
    return Scenario(power, 1.0, eff, [Channel(gain, 0.0) for _ in range(m)])


def random_scenario(rng, m: int, **dist_kwargs) -> Scenario:
    scen, _ = generate_scenario(
        ScenarioDistribution(num_transmitters=m, **dist_kwargs), rng
    )
    return scen


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@pytest.fixture
def stream():
    return rng_stream
