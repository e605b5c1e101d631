"""Random-phase-perturbation beamforming baseline.

All transmitters jitter their phases simultaneously each interval; a single
broadcast bit says whether the measured power beat the best recorded value,
in which case every transmitter keeps its candidate phase. This is the
classic derivative-free ascent this package's sequential protocol is
compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angles import wrap_angle
from .channel import Scenario
from .power import EXACT, MeasurementModel, _phasor_power
from .table import csv_text

DIST_UNIFORM = "uniform-symmetric"
DIST_GAUSSIAN = "gaussian"

#: Default perturbation half-range, radians.
DEFAULT_SCALE = math.pi / 8.0

# Candidates per block: the first block after an acceptance, and the cap on
# block * M doubles, the size of a block's arrays (128 KB). Blocks double
# while every candidate in them is rejected.
_BLOCK_MIN = 4
_BLOCK_DOUBLES = 2**14


@dataclass(frozen=True)
class PerturbationConfig:
    """Perturbation law and run length for the baseline."""

    distribution: str = DIST_UNIFORM
    scale: float = DEFAULT_SCALE   # half-range (uniform) or std (gaussian)
    max_intervals: int = 300

    def __post_init__(self):
        if self.distribution not in (DIST_UNIFORM, DIST_GAUSSIAN):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.distribution == DIST_UNIFORM and not math.isfinite(2.0 * self.scale):
            raise ValueError(f"uniform scale {self.scale} has no finite width 2*scale")
        if self.max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")


class BaselineTrace(NamedTuple):
    """Per-interval history of one baseline run."""

    candidate_phases: np.ndarray   # (intervals, M)
    measured_power: np.ndarray     # power actually received each interval
    best_power: np.ndarray         # record after each interval; non-decreasing
    accepted: np.ndarray           # bool, candidate kept
    final_phases: np.ndarray       # the record's phases; its power is best_power[-1]

    def to_csv(self) -> str:
        return csv_text("n,power,best_power,accepted", range(1, len(self.measured_power) + 1),
                        self.measured_power, self.best_power, self.accepted)


def run_random_perturbation(
    s: Scenario,
    cfg: PerturbationConfig,
    meas: MeasurementModel = EXACT,
    *,
    rng: np.random.Generator,
) -> BaselineTrace:
    """Run the simultaneous-perturbation baseline from all-zero phases.

    Each interval every transmitter adds an independent draw to its current
    best phase; the receiver measures the resulting power, compares it with
    the recorded best and broadcasts one bit. Candidates are kept only on a
    strict improvement, so under exact measurement the best-power sequence
    is non-decreasing.

    Every reading, the first one included, is the O(M) phasor power
    (``power._phasor_power``). All steps are drawn up front from the
    caller's ``rng``, and all noise values, the first reading's first, in
    one draw from ``meas.rng``, which gives the same draws as one draw per
    reading. Runs of candidates are then read as one array operation
    against the current record, and the rows after the first acceptance in
    a block are formed and read again against the new record. The trace is
    bit-identical to the interval-by-interval rule. A noisy ``meas`` must
    not share ``rng``: the per-interval rule would interleave step and
    noise draws on it. A gaussian scale so large that a step overflows to
    +-inf raises ``ValueError`` before any candidate is formed.
    """
    if meas.noisy and meas.rng is rng:
        raise ValueError("noisy measurement needs a generator of its own, not rng")
    m = s.num_transmitters
    amp = np.sqrt(s.gains)
    t = cfg.max_intervals
    # steps are drawn into the candidate history; each row is overwritten
    # with its candidate once committed
    if cfg.distribution == DIST_UNIFORM:
        cand_hist = rng.uniform(-cfg.scale, cfg.scale, size=(t, m))
    else:
        cand_hist = rng.normal(0.0, cfg.scale, size=(t, m))
    if not np.isfinite(cand_hist).all():
        raise ValueError(f"perturbation scale {cfg.scale} draws non-finite phase steps")
    # the first reading's noise value, then the candidates', which likewise
    # become the measured powers
    noise = meas.rng.normal(0.0, meas.noise_std, size=t + 1) if meas.noisy else None
    best = np.zeros(m)
    best_power = float(_phasor_power(amp, best, s.phase_shifts, s.power_scale,
                                     None if noise is None else noise[0]))
    meas_hist = np.empty(t) if noise is None else noise[1:]
    best_hist = np.empty(t)
    acc_hist = np.zeros(t, dtype=bool)
    block_max = max(1, _BLOCK_DOUBLES // m)
    block_min = min(_BLOCK_MIN, block_max)
    block = block_min
    n = 0
    while n < t:
        stop = min(n + block, t)
        cand = wrap_angle(best + cand_hist[n:stop])
        p = _phasor_power(amp, cand, s.phase_shifts, s.power_scale,
                          None if noise is None else meas_hist[n:stop])
        up = np.flatnonzero(p > best_power)
        end = stop if up.size == 0 else n + int(up[0]) + 1
        cand_hist[n:end] = cand[:end - n]
        cand = None   # not held while the next block is formed
        meas_hist[n:end] = p[:end - n]
        best_hist[n:end] = best_power
        if up.size:
            best = cand_hist[end - 1].copy()
            best_power = float(p[end - n - 1])
            best_hist[end - 1] = best_power
            acc_hist[end - 1] = True
            block = block_min
        else:
            block = min(2 * block, block_max)
        n = end
    return BaselineTrace(
        candidate_phases=cand_hist,
        measured_power=meas_hist,
        best_power=best_hist,
        accepted=acc_hist,
        final_phases=best,
    )
