"""Random-phase-perturbation beamforming baseline.

All transmitters jitter their phases simultaneously each interval; a single
broadcast bit says whether the measured power beat the best recorded value,
in which case every transmitter keeps its candidate phase. This is the
classic derivative-free ascent this package's sequential protocol is
compared against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .angles import wrap_angle
from .channel import Scenario
from .power import (
    EXACT,
    MeasurementModel,
    PhaseAssignment,
    _pair_sum,
    _phasor_screen,
    harvested_power,
    measure,
)
from .table import csv_text

DIST_UNIFORM = "uniform-symmetric"
DIST_GAUSSIAN = "gaussian"

#: Default perturbation half-range, radians.
DEFAULT_SCALE = math.pi / 8.0

# Candidates per block: the first block after an acceptance, and the cap on
# block * M doubles, the size of the screen's arrays (128 KB). Blocks double
# while every candidate in them is rejected. The kernel takes at most
# _BLOCK_DOUBLES // M**2 rows a call, the size of its mirrored pair matrix.
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


@dataclass
class BaselineTrace:
    """Per-interval history of one baseline run.

    ``measured_power``, the power each interval read, is computed from the
    candidates, the scenario and the noise values on its first read, through
    the same kernel as the run, so it equals the readings the run compared.
    """

    candidate_phases: np.ndarray   # (intervals, M)
    best_power: np.ndarray         # record after each interval; non-decreasing
    accepted: np.ndarray           # bool, candidate kept
    final_phases: np.ndarray       # the record's phases; its power is best_power[-1]
    scenario: Scenario
    noise: np.ndarray | None       # each interval's noise value; None if exact

    @functools.cached_property
    def measured_power(self) -> np.ndarray:
        """The power each interval read, candidate by candidate."""
        s, cand, noise = self.scenario, self.candidate_phases, self.noise
        amp = np.sqrt(s.gains)
        rows = _kernel_rows(s.num_transmitters)
        return np.concatenate([
            _readings(s, amp, cand[n:n + rows] - s.phase_shifts,
                      None if noise is None else noise[n:n + rows])
            for n in range(0, len(cand), rows)])

    def to_csv(self) -> str:
        return csv_text("n,power,best_power,accepted", range(1, len(self.measured_power) + 1),
                        self.measured_power, self.best_power, self.accepted)


def _kernel_rows(m: int) -> int:
    """Candidate rows per kernel call at ``m`` transmitters."""
    return max(1, _BLOCK_DOUBLES // (m * m))


def _readings(s: Scenario, amp: np.ndarray, offs: np.ndarray, noise: np.ndarray | None):
    """The power each row of phase offsets reads: the kernel's, plus its
    noise value, clamped at 0 as ``measure`` does."""
    p = s.power_scale * _pair_sum(amp, offs)
    if noise is not None:
        p += noise
        p = np.where(p > 0.0, p, 0.0)   # measure's max(0.0, x), NaN and -0.0 included
    return p


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

    All steps are drawn up front from the caller's ``rng``, and all noise values from
    ``meas.rng``, which gives the same draws as one draw per interval. Runs
    of candidates are then screened as one array operation against the
    current record: a candidate whose O(M) reading plus its certified
    margin (``power._phasor_screen``) is below the record cannot be kept,
    and skips the pairwise kernel. The others are read through the kernel
    in row order, and the first strict improvement is kept; the rows after
    it are screened again against the new record. So every reading compared
    with the record is the kernel's, and the trace is bit-identical to the
    interval-by-interval rule. A noisy ``meas`` must not share ``rng``:
    the per-interval rule would interleave step and noise draws on it. A
    gaussian scale so large that a step overflows to +-inf raises
    ``ValueError`` before any candidate is formed.
    """
    if meas.noisy and meas.rng is rng:
        raise ValueError("noisy measurement needs a generator of its own, not rng")
    m = s.num_transmitters
    best = np.zeros(m)
    best_power = measure(meas, harvested_power(s, PhaseAssignment(best)))
    t = cfg.max_intervals
    # steps are drawn into the candidate history; each row is overwritten
    # with its candidate once committed
    if cfg.distribution == DIST_UNIFORM:
        cand_hist = rng.uniform(-cfg.scale, cfg.scale, size=(t, m))
    else:
        cand_hist = rng.normal(0.0, cfg.scale, size=(t, m))
    if not np.isfinite(cand_hist).all():
        raise ValueError(f"perturbation scale {cfg.scale} draws non-finite phase steps")
    noise = meas.rng.normal(0.0, meas.noise_std, size=t) if meas.noisy else None
    best_hist = np.empty(t)
    acc_hist = np.zeros(t, dtype=bool)
    amp = np.sqrt(s.gains)
    block_max = max(1, _BLOCK_DOUBLES // m)
    block_min = min(_BLOCK_MIN, block_max)
    rows = _kernel_rows(m)
    block = block_min
    n = 0
    while n < t:
        stop = min(n + block, t)
        cand = wrap_angle(best + cand_hist[n:stop])
        z = None if noise is None else noise[n:stop]
        x, margin = _phasor_screen(amp, cand, s.phase_shifts, s.power_scale, z)
        x += margin
        # not x < best, so that a NaN reaches the kernel
        left = (~(x < best_power)).nonzero()[0]
        if stop - n > rows:
            # a block of more rows than one kernel call reads is not held
            # beside one: commit the rows before the first one left, and form
            # the others again where they are needed
            first = int(left[0]) if left.size else stop - n
            cand_hist[n:n + first] = cand[:first]
            cand = None
        kept = None
        for k in range(0, left.size, rows):
            chunk = left[k:k + rows]
            phases = cand[chunk] if cand is not None else wrap_angle(best + cand_hist[n + chunk])
            p = _readings(s, amp, phases - s.phase_shifts, None if z is None else z[chunk])
            up = (p > best_power).nonzero()[0]
            if up.size:
                kept, kept_power = int(chunk[up[0]]), float(p[up[0]])
                break
        end = stop if kept is None else n + kept + 1
        if cand is not None:
            cand_hist[n:end] = cand[:end - n]
        elif end > n + first:
            cand_hist[n + first:end] = wrap_angle(best + cand_hist[n + first:end])
        best_hist[n:end] = best_power
        if kept is None:
            block = min(2 * block, block_max)
        else:
            best = cand_hist[end - 1].copy()
            best_power = kept_power
            best_hist[end - 1] = best_power
            acc_hist[end - 1] = True
            block = block_min
        n = end
    return BaselineTrace(
        candidate_phases=cand_hist,
        best_power=best_hist,
        accepted=acc_hist,
        final_phases=best,
        scenario=s,
        noise=noise,
    )
