"""Harvested-power computation for arbitrary phase assignments.

All powers come from the closed-form period average of the summed carrier:
a sum over per-link gains plus pairwise interference terms. Time-domain
integration is deliberately absent here; the test suite carries an
independent integrator used only as an oracle.
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


def _phasor_screen(amp: np.ndarray, phases: np.ndarray, phase_shifts: np.ndarray,
                   scale: float, noise: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's reading in O(M), x = scale * |sum amp e^{j offs}|**2 plus
    its ``noise`` value, and a margin: x + margin bounds, from above, the
    reading ``scale * _pair_sum(amp, offs)`` + noise of that row, with offs
    = phases - phase_shifts. ``phases`` is (B, M) and wrapped, so is
    ``phase_shifts``, and each amp_i**2 is a gain that ``Scenario`` admits:
    0 or at least 2**-511. The offsets are formed twice, for the cosines and
    the sines, so that the screen holds one (B, M) array. The margin is

        scale * (sum amp)**2 * (M + 8)**2 * u + 2**-51 * |x| + 2**-1073,

    u = 2**-53, the unit roundoff.

    Let A = sum amp and E = sum_ij amp_i amp_j cos(offs_i - offs_j) =
    (sum amp cos offs)**2 + (sum amp sin offs)**2, both in exact
    arithmetic on the stored amp and offs. A sum of n terms in any order is
    within (n - 1) * u * (sum of |terms|) of its exact value, to first
    order; so is a numpy pairwise sum, and the order never enters.

    The kernel. Each offset lies in [-2 pi, 2 pi], so each difference
    offs_i - offs_j lies in [-4 pi, 4 pi] and rounds by at most 4 pi * u;
    ``np.cos`` adds at most 4 ulp of 1, 8 * u, the assumption
    ``adapt._cells`` makes (and the screen makes of ``np.sin``). The
    weight amp_i * amp_j and its product with the cosine round by u each.
    So each of the M**2 terms is within (4 pi + 10) * u * amp_i * amp_j of
    its exact value, and their sum within (M**2 - 1 + 22.6) * u * A**2 of
    E.

    The screen. Each amp_i * cos(offs_i), and likewise with sin, is within
    9 * u * amp_i; the sum of M such terms is within e = (M + 8) * u * A of
    its exact value. Squaring and adding the two sums moves the result by at
    most 2 * e * (|re| + |im|) + 2 * u * A**2 <= (2 * sqrt(2) * (M + 8) + 2)
    * u * A**2, since |re| + |im| <= sqrt(2) * A: these are the screen's 2M
    terms. Each side's product with ``scale`` rounds by u more.

    The two sides then differ by at most D = scale * A**2 * u * (M**2 +
    2.83 * M + 48.3) <= scale * A**2 * u * ((M + 8)**2 - 13 * M - 15); the
    13 * M + 15 spare units of u * A**2 cover every second-order term (they
    grow like M**4 * u**2 * A**2) for M up to 2**18, the rounding of the
    computed A, and the margin's own few roundings. Adding the noise z rounds
    each side once more: fl(V + z) <= fl(S + z) + D * (1 + u) + 2 * u * (1 +
    2 * u) * |fl(S + z)|, which 2**-51 * |x| covers.

    Underflow. Under the gain floor no product of amplitudes and cosines is
    subnormal, and a sum that is rounds exactly. The screen's square of a
    sum near zero may lose an absolute 2**-1075, below 2**-511 * u * A**2
    since A**2 >= 2**-511, so the spare units cover it once scaled. What is
    left is absolute: the two products with ``scale`` and two of the
    margin's own products may each lose 2**-1075, which 2**-1073 covers.

    Rounding is monotone, so a rounded x + margin below a float r still
    proves the reading below r. A non-finite value or margin proves
    nothing, and NaN compares false.
    """
    m = phases.shape[-1]
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
    total = float(np.add.reduce(amp))
    margin = np.abs(x)
    margin *= 2.0 ** -51
    margin += scale * (total * total * ((m + 8) ** 2 * 2.0 ** -53)) + 2.0 ** -1073
    return x, margin


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
