"""Harvested-power computation for arbitrary phase assignments.

All powers come from the closed-form period average of the summed carrier.
``harvested_power`` and ``harvested_powers`` sum per-link gains plus
pairwise interference terms (``_pair_sum``); the perturbation baseline reads
each candidate as the squared magnitude of the phasor sum in O(M)
(``_phasor_power``), which agrees with the pairwise sum to rounding.
Time-domain integration is deliberately absent here; the test suite carries
an independent integrator used only as an oracle.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angles import wrap_angle
from .channel import Scenario


@dataclass
class PhaseAssignment:
    """Transmit phases plus an activity mask (idle transmitters send nothing).

    Both arrays are the assignment's own: the phases are wrapped into a new
    array and the mask is copied, so a caller's later writes do not show.
    """

    phases: np.ndarray
    active: np.ndarray | None = None

    def __post_init__(self):
        self.phases = wrap_angle(np.asarray(self.phases, dtype=float))
        if self.active is None:
            self.active = np.ones(self.phases.shape, dtype=bool)
        else:
            self.active = np.array(self.active, dtype=bool)
        if self.active.shape != self.phases.shape:
            raise ValueError("phases and active mask must have equal length")


@dataclass(frozen=True)
class SumSignal:
    """The combined signal of a set of active transmitters, reduced to an
    equivalent single channel.

    ``gain`` is the power of the combined carrier (in the same normalized
    units as a channel gain); ``phase_shift`` is the effective channel-style
    phase shift, i.e. the combined carrier arrives with phase -phase_shift.
    A transmitter aligning to this signal should transmit at its own channel
    phase shift minus ``phase_shift``.
    """

    gain: float
    phase_shift: float


#: Power-measurement behaviour at the receiver.
MODE_EXACT = "exact"
MODE_ADDITIVE_NOISE = "additive-noise"


@dataclass
class MeasurementModel:
    """Exact or additive-Gaussian-noise power measurement (noise clamps at 0).

    Exact mode with ``noise_std > 0`` is an error, not a silent exact model.
    """

    mode: str = MODE_EXACT
    noise_std: float = 0.0
    rng: np.random.Generator | None = None

    def __post_init__(self):
        if self.mode not in (MODE_EXACT, MODE_ADDITIVE_NOISE):
            raise ValueError(f"unknown measurement mode {self.mode!r}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.mode == MODE_EXACT and self.noise_std > 0.0:
            raise ValueError(f"{MODE_EXACT!r} mode with noise_std {self.noise_std} > 0: the "
                             f"noise would be ignored; use {MODE_ADDITIVE_NOISE!r}")
        if self.noisy and self.rng is None:
            raise ValueError("additive-noise mode with noise_std > 0 needs an rng")

    @property
    def noisy(self) -> bool:
        """Whether each reading draws a noise value from ``rng``."""
        return self.mode == MODE_ADDITIVE_NOISE and self.noise_std > 0.0


EXACT = MeasurementModel(MODE_EXACT)


def measure(model: MeasurementModel, true_power: float) -> float:
    """Apply the measurement model to a true power value."""
    if not model.noisy:
        return true_power
    return max(0.0, true_power + model.rng.normal(0.0, model.noise_std))


def _check_assignment(s: Scenario, pa: PhaseAssignment):
    if len(pa.phases) != s.num_transmitters:
        raise ValueError(
            f"assignment length {len(pa.phases)} != scenario size {s.num_transmitters}"
        )


def harvested_power(s: Scenario, pa: PhaseAssignment) -> float:
    """Average harvested power for a phase assignment, in watts.

    Sum of active gains plus, for every ordered pair of distinct active
    transmitters, sqrt(g_i g_j) cos((phi_i - th_i) - (phi_j - th_j)),
    all scaled by conversion efficiency times per-transmitter power.
    """
    _check_assignment(s, pa)
    idx = np.flatnonzero(pa.active)
    if idx.size == 0:
        return 0.0
    offs = pa.phases[idx] - s.phase_shifts[idx]
    amp = np.sqrt(s.gains[idx])
    return s.power_scale * float(_pair_sum(amp, offs))


def _pair_sum(amp: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Ordered double sum of amp_i amp_j cos(offs_i - offs_j) over the last
    axis of ``amp`` and ``offs``; leading axes index independent
    assignments, and a 1-D ``amp`` serves every row of ``offs``.

    ``np.cos`` runs on the M(M+1)/2 pairs i <= j only, and its values are
    mirrored into the full M x M matrix: offs_j - offs_i is exactly
    -(offs_i - offs_j), and ``np.cos`` is even bit for bit, so every entry
    equals a full evaluation's. The diagonal stays cos(offs_i - offs_i),
    which is 1 for a finite offset and NaN otherwise. Each M x M block is
    then weighted and summed whole, so a row of a stack rounds as a single
    call does.
    """
    rows, cols, mirror = _pair_index(offs.shape[-1])
    cos = offs.take(rows, axis=-1)
    cos -= offs.take(cols, axis=-1)
    np.cos(cos, out=cos)
    # take, not fancy indexing: the latter can return a non-C-ordered
    # array, and the sum's rounding follows the memory order
    pair = cos.take(mirror, axis=-1)
    pair *= amp[..., None] * amp[..., None, :]
    return pair.sum(axis=(-2, -1))


def _phasor_power(amp: np.ndarray, phases: np.ndarray, phase_shifts: np.ndarray,
                  scale: float, noise: np.ndarray | None = None) -> np.ndarray:
    """Each row's reading in O(M): scale * |sum amp e^{j offs}|**2, with
    offs = phases - phase_shifts over the last axis, plus its ``noise``
    value clamped at 0 as ``measure`` does. The offsets are formed twice,
    for the cosines and the sines, so that it holds one array of the shape
    of ``phases``. A sum of squares, so an exact reading is never below 0,
    where the pairwise kernel's may be."""
    part = phases - phase_shifts
    np.cos(part, out=part)
    part *= amp
    x = np.add.reduce(part, axis=-1)
    x *= x
    np.subtract(phases, phase_shifts, out=part)
    np.sin(part, out=part)
    part *= amp
    im = np.add.reduce(part, axis=-1)
    im *= im
    x += im
    x *= scale
    if noise is not None:
        x += noise
        x = np.where(x > 0.0, x, 0.0)   # measure's max(0.0, x), NaN and -0.0 included
    return x


@functools.cache
def _pair_index(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i <= j of ``m`` transmitters, and
    the (m, m) position of pair (i, j) or (j, i) among them; read-only."""
    rows, cols = np.triu_indices(m)
    mirror = np.empty((m, m), dtype=np.intp)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(rows.size)
    for a in (rows, cols, mirror):
        a.flags.writeable = False
    return rows, cols, mirror


def optimal_power(s: Scenario) -> float:
    """Maximum harvested power, attained when every transmit phase equals
    its channel phase shift."""
    return harvested_power(s, PhaseAssignment(s.phase_shifts))


class TrialStack(NamedTuple):
    """Scenarios with a common number of transmitters, stacked over the
    trial axis: (T, M) gains and phase shifts, and the (T,) power scale
    ``Scenario.power_scale``."""

    gains: np.ndarray
    phase_shifts: np.ndarray
    scale: np.ndarray


def harvested_powers(stack: TrialStack, phases: np.ndarray) -> np.ndarray:
    """:func:`harvested_power` of every trial with all transmitters active,
    at its row of the (T, M) wrapped ``phases``, bit for bit."""
    return stack.scale * _pair_sum(np.sqrt(stack.gains), phases - stack.phase_shifts)


def optimal_powers(stack: TrialStack) -> np.ndarray:
    """:func:`optimal_power` of every trial, bit for bit, checked by
    :func:`checked_optima`."""
    with np.errstate(over="ignore"):
        q_star = harvested_powers(stack, stack.phase_shifts)
    return checked_optima(q_star, stack.scale)


def checked_optima(q_star: np.ndarray, scale: np.ndarray,
                   labels: Sequence[str] | None = None) -> np.ndarray:
    """``q_star`` itself, if every entry is finite and at least the smallest
    normal float: an efficiency divides by it, and a subnormal one has lost
    significant bits.

    Otherwise raises ``ValueError`` naming the first bad entry by its label
    (default ``trial <index>``) and its power scale ``scale``.
    """
    bad = np.flatnonzero(~((q_star >= sys.float_info.min) & (q_star < math.inf)))
    if bad.size:
        t = int(bad[0])
        label = f"trial {t}" if labels is None else labels[t]
        raise ValueError(f"optimal power of {label} is {float(q_star[t])}: power scale "
                         f"conversion_eff * transmit_power = {float(scale[t])} "
                         f"leaves no finite optimum of at least {sys.float_info.min}")
    return q_star


def sum_signal(s: Scenario, pa: PhaseAssignment) -> SumSignal:
    """Reduce the transmitters the activity mask marks active to a SumSignal.

    The combined carrier of transmitters i is sum_i sqrt(g_i) at phase
    (phi_i - th_i); its power is the squared phasor magnitude and the
    reported phase shift is the angle of the conjugate phasor sum, so that
    the pair behaves like a single channel driven at phase zero. An empty
    set reduces to (0, 0).
    """
    _check_assignment(s, pa)
    amp = np.sqrt(s.gains[pa.active])
    if amp.size == 0:
        return SumSignal(0.0, 0.0)
    delta = s.phase_shifts[pa.active] - pa.phases[pa.active]
    # cumsum adds left to right like a scalar loop; np.sum's pairwise order
    # would move the last bits of every stage target and probe power
    return _phasor_signal(np.cumsum(amp * np.cos(delta))[-1],
                          np.cumsum(amp * np.sin(delta))[-1])


def _phasor_signal(re, im) -> SumSignal:
    """The SumSignal of a conjugate phasor sum re + j*im; zero gives (0, 0)."""
    re, im = float(re), float(im)
    gain = re * re + im * im
    if gain == 0.0:
        return SumSignal(0.0, 0.0)
    return SumSignal(gain, math.atan2(im, re))


def aligned_phase(s: Scenario, ss: SumSignal, m: int) -> float:
    """Transmit phase for transmitter m that maximizes partial_power; 0
    against a zero signal, where every phase does."""
    return wrap_angle(s.phase_shifts.item(m) - ss.phase_shift) if ss.gain > 0.0 else 0.0


def partial_power(s: Scenario, ss: SumSignal, m: int, phi_m: float) -> float:
    """Harvested power when transmitter m at phase phi_m joins a fixed
    combined signal.

    Equals ``harvested_power`` over the corresponding active set; maximal at
    phi_m = phase_shift_m - ss.phase_shift.
    """
    # Python floats by item(): numpy scalars give the same values, slower
    # and typed np.float64, and float(arr[m]) builds one first
    g_m = s.gains.item(m)
    target = s.phase_shifts.item(m) - ss.phase_shift
    q = g_m + ss.gain + 2.0 * math.sqrt(g_m * ss.gain) * math.cos(phi_m - target)
    return s.power_scale * q
