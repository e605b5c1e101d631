"""Multipath channel aggregation and random scenario generation.

Each transmitter-to-receiver link is a set of attenuated, delayed paths.
At a fixed carrier frequency the link collapses to a single (power gain,
phase shift) pair; a scenario bundles one such channel per transmitter
together with the common transmit power and conversion efficiency.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .angles import wrap_angle

#: The smallest nonzero gain and the largest (sum of sqrt(gain))**2; see
#: :func:`_check_gains`.
_MIN_GAIN = 2.0 ** -511
_MAX_GAIN_SUM = 2.0 ** 511


@dataclass(frozen=True)
class PathSet:
    """Multipath taps of one link: (attenuation, delay seconds) pairs."""

    paths: tuple[tuple[float, float], ...]

    def __post_init__(self):
        paths = tuple((float(a), float(tau)) for a, tau in self.paths)
        if not paths:
            raise ValueError("PathSet requires at least one path")
        for a, tau in paths:
            if a < 0.0:
                raise ValueError(f"negative attenuation {a}")
            if tau < 0.0:
                raise ValueError(f"negative delay {tau}")
        object.__setattr__(self, "paths", paths)


@dataclass(frozen=True)
class Channel:
    """Aggregated link: finite non-negative power gain and phase shift in
    [-pi, pi).

    A carrier transmitted with phase phi arrives with amplitude
    sqrt(gain) and phase phi - phase_shift.
    """

    gain: float
    phase_shift: float

    def __post_init__(self):
        _check_gain_values([self.gain])
        if not math.isfinite(self.phase_shift):
            raise ValueError(f"channel phase shift must be finite, got {self.phase_shift}")
        object.__setattr__(self, "phase_shift", wrap_angle(float(self.phase_shift)))


class Scenario:
    """One system instance: per-transmitter power, carrier, efficiency, and
    the (M,) channel power ``gains`` and ``phase_shifts``.

    The constructor runs :func:`_check_scalars` and :func:`_check_gains`,
    and the phase shifts must be finite; they are wrapped into [-pi, pi).
    The arrays are read-only copies, so they cannot drift from what was
    checked. ``power_scale``, the product of ``conversion_eff`` and
    ``transmit_power``, scales every harvested power.
    :func:`generate_scenario` checks only what a draw can get wrong.
    """

    __slots__ = ("transmit_power", "carrier_freq", "conversion_eff", "gains", "phase_shifts",
                 "power_scale")

    def __init__(self, transmit_power: float, carrier_freq: float, conversion_eff: float,
                 gains, phase_shifts):
        _check_scalars(transmit_power, carrier_freq, conversion_eff)
        gains = np.array(gains, dtype=float)
        phase_shifts = np.asarray(phase_shifts, dtype=float)
        if gains.ndim != 1 or gains.shape != phase_shifts.shape:
            raise ValueError(f"gains and phase shifts must be 1-D of equal length, "
                             f"got shapes {gains.shape} and {phase_shifts.shape}")
        if gains.size < 1:
            raise ValueError("scenario needs at least one channel")
        _check_gains(gains.tolist())
        if not np.maximum.reduce(np.abs(phase_shifts)) < math.inf:
            bad = phase_shifts[~np.isfinite(phase_shifts)][0]
            raise ValueError(f"channel phase shift must be finite, got {bad}")
        self._store(transmit_power, carrier_freq, conversion_eff, gains, phase_shifts)

    def _store(self, transmit_power, carrier_freq, conversion_eff, gains, phase_shifts):
        """Set the fields from checked values: ``phase_shifts`` wrapped into a
        new array, and both arrays made read-only."""
        phase_shifts = wrap_angle(phase_shifts)
        gains.setflags(write=False)
        phase_shifts.setflags(write=False)
        self.transmit_power = transmit_power
        self.carrier_freq = carrier_freq
        self.conversion_eff = conversion_eff
        self.gains = gains
        self.phase_shifts = phase_shifts
        self.power_scale = conversion_eff * transmit_power

    @property
    def num_transmitters(self) -> int:
        return self.gains.size


def _check_scalars(transmit_power, carrier_freq, conversion_eff) -> None:
    """Raise ``ValueError`` unless the per-transmitter power is positive and
    finite, the carrier frequency positive and the efficiency in (0, 1]."""
    if not 0.0 < transmit_power < math.inf:
        raise ValueError(f"transmit_power must be positive and finite, got {transmit_power}")
    if not carrier_freq > 0.0:
        raise ValueError("carrier_freq must be positive")
    if not 0.0 < conversion_eff <= 1.0:
        raise ValueError("conversion_eff must lie in (0, 1]")


def _check_gain_values(gains: list[float]) -> None:
    """Raise ``ValueError`` for the first gain that is not finite and >= 0."""
    for g in gains:
        if not 0.0 <= g < math.inf:     # NaN fails too
            raise ValueError(f"channel power gain must be finite and >= 0, got {g}")


def _check_gains(gains: list[float]) -> None:
    """Raise ``ValueError`` for the first rule the channel power gains break.

    Every gain must be finite and >= 0, some gain nonzero (efficiencies
    divide by the optimal power), and each nonzero gain at least 2**-511:
    stage m's interference amplitude is sqrt(g_m * G), G the power of the
    signal it joins, and the product of two smaller gains underflows. And
    (sum of sqrt(gain))**2 must be at most 2**511: g_m and G are at most
    that square, so g_m * G <= 2**1022 stays finite, as do the bounds' gain
    sums and every probe power before the power scale multiplies it.
    """
    _check_gain_values(gains)
    for g in gains:
        if 0.0 < g < _MIN_GAIN:
            raise ValueError(f"channel power gain {g} is nonzero but below 2**-511 = "
                             f"{_MIN_GAIN}, where the product of two gains underflows")
    root_sum = sum(map(math.sqrt, gains))
    if root_sum == 0.0:
        raise ValueError("scenario needs at least one channel with nonzero gain")
    if not root_sum * root_sum <= _MAX_GAIN_SUM:
        raise ValueError(f"the gain sums overflow: (sum of sqrt(gain))**2 = "
                         f"{root_sum * root_sum} is above 2**511 = {_MAX_GAIN_SUM}, where "
                         f"the product of a gain and that sum can pass the float range")


@dataclass(frozen=True)
class ScenarioDistribution:
    """Random-scenario family: path-loss gains at uniform random distances,
    uniform random phase shifts, single line-of-sight path per link."""

    num_transmitters: int
    ref_attenuation: float = 1e-2       # linear power gain at the reference distance
    ref_distance: float = 1.0           # meters
    path_loss_exponent: float = 3.0
    distance_range: tuple[float, float] = (5.0, 15.0)
    transmit_power: float = 1.0         # watts per transmitter
    conversion_eff: float = 1.0
    carrier_freq: float = 915e6         # hertz; gains/phases are drawn directly,
                                        # so this only labels the scenario

    def __post_init__(self):
        lo, hi = self.distance_range
        if not 0.0 < lo <= hi:
            raise ValueError("distance_range must satisfy 0 < min <= max")
        if hi == math.inf:
            raise ValueError(f"distance_range must be finite, got ({lo}, {hi})")
        for name in ("path_loss_exponent", "ref_attenuation", "ref_distance"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        _check_scalars(self.transmit_power, self.carrier_freq, self.conversion_eff)
        if self.num_transmitters < 1:
            raise ValueError("need at least one transmitter")


@dataclass(frozen=True)
class ScenarioDraw:
    """Raw random draws behind a generated scenario."""

    distances: np.ndarray
    phase_shifts: np.ndarray


def aggregate_channel(paths: PathSet, carrier_freq: float) -> Channel:
    """Collapse multipath taps into one (gain, phase shift) channel.

    The gain is the squared magnitude of the tap phasor sum at the carrier
    frequency and the phase shift is its four-quadrant angle, so the pair
    reproduces the summed carrier exactly. A fully cancelling tap set maps
    to phase 0 by convention.
    """
    if not carrier_freq > 0.0:
        raise ValueError("carrier_freq must be positive")
    re = 0.0
    im = 0.0
    for a, tau in paths.paths:
        ang = 2.0 * math.pi * carrier_freq * tau
        re += a * math.cos(ang)
        im += a * math.sin(ang)
    gain = re * re + im * im
    if gain == 0.0:
        return Channel(0.0, 0.0)
    return Channel(gain, math.atan2(im, re))


def path_loss_gain(distance: float, dist: ScenarioDistribution) -> float:
    """Power gain at a given distance under the distribution's path-loss law.

    The distance must be positive and finite, and the gain must fit a float.
    """
    r = float(distance)
    if not 0.0 < r < math.inf:
        raise ValueError(f"channel power gain needs a positive finite distance, got {r}")
    (gain,) = _path_loss_gains([r], dist)
    _check_gain_values([gain])
    return gain


def _path_loss_gains(distances: list[float], dist: ScenarioDistribution) -> list[float]:
    """Path-loss gain per distance, in Python floats.

    Each power is one libm ``pow`` call, as numpy's scalar power is; numpy's
    array power takes a vectorized route that differs from it in the last
    ulp on some inputs. A gain too large for a float is inf; when the power
    itself passes the float range, every gain is given as inf.
    """
    a, d0, ple = dist.ref_attenuation, dist.ref_distance, -dist.path_loss_exponent
    try:
        return [a * (r / d0) ** ple for r in distances]
    except (OverflowError, ZeroDivisionError):
        return [math.inf] * len(distances)


def _clears_screen(lowest, highest, m: int):
    """Whether M drawn gains whose least and greatest are ``lowest`` and
    ``highest`` (floats, or arrays of them) pass :func:`_check_gains`
    without calling it: every gain at least 2**-511, and the greatest at
    most half the sum limit over M**2. M**2 times the greatest gain bounds
    (sum of sqrt(gain))**2, and the half is a margin for the sum's
    rounding. The limit is divided rather than the gain multiplied, so an
    array of huge gains cannot overflow."""
    return (lowest >= _MIN_GAIN) & (highest <= _MAX_GAIN_SUM / 2 / (m * m))


def _drawn_gains(distances: np.ndarray, dist: ScenarioDistribution) -> np.ndarray:
    """The (T, M) path-loss gains of (T, M) drawn distances, each row
    screened as :func:`generate_scenario` screens its draw.

    Rows run to :func:`_check_gains` in order, each with its own
    :func:`_path_loss_gains`, so the first row that breaks a rule raises
    the message its scenario would. A power past the float range makes
    every gain of the batch inf, and its own row raises.
    """
    trials, m = distances.shape
    gains = np.array(_path_loss_gains(distances.ravel().tolist(), dist)).reshape(trials, m)
    for row in np.flatnonzero(~_clears_screen(gains.min(axis=1), gains.max(axis=1), m)).tolist():
        _check_gains(_path_loss_gains(distances[row].tolist(), dist))
    return gains


def generate_scenario(
    dist: ScenarioDistribution, rng: np.random.Generator
) -> tuple[Scenario, ScenarioDraw]:
    """Draw one random scenario; deterministic given the generator state.

    Distances are uniform over the configured range, phase shifts uniform
    over [-pi, pi). With a single line-of-sight path per link the random
    delay is statistically identical to a uniform phase shift, so (gain,
    phase) pairs are drawn directly.

    The scenario skips the constructor's validation: ``dist`` has checked
    the scalars, and the draw makes 1-D arrays of finite phases and of
    gains in [0, inf]. The gains go to :func:`_check_gains` only when
    :func:`_clears_screen` cannot clear them.
    """
    m = dist.num_transmitters
    lo, hi = dist.distance_range
    distances = rng.uniform(lo, hi, size=m)
    phase_shifts = rng.uniform(-math.pi, math.pi, size=m)
    gains = _path_loss_gains(distances.tolist(), dist)
    if not _clears_screen(min(gains), max(gains), m):
        _check_gains(gains)
    scenario = Scenario.__new__(Scenario)
    scenario._store(dist.transmit_power, dist.carrier_freq, dist.conversion_eff,
                    np.array(gains), phase_shifts)
    return scenario, ScenarioDraw(distances=distances, phase_shifts=phase_shifts)


def scenario_to_text(s: Scenario) -> str:
    """Flat text record: header values then one 'gain phase' line per link."""
    out = io.StringIO()
    out.write(f"M {s.num_transmitters}\n")
    out.write(f"P {s.transmit_power:.17g}\n")
    out.write(f"rho {s.conversion_eff:.17g}\n")
    out.write(f"f_c {s.carrier_freq:.17g}\n")
    for gain, phase_shift in zip(s.gains.tolist(), s.phase_shifts.tolist()):
        out.write(f"{gain:.17g} {phase_shift:.17g}\n")
    return out.getvalue()


def scenario_from_text(text: str) -> Scenario:
    """Inverse of :func:`scenario_to_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = dict(ln.split() for ln in lines[:4])
    if sorted(header) != ["M", "P", "f_c", "rho"]:
        raise ValueError(f"scenario header needs the keys M, P, rho and f_c, "
                         f"got {', '.join(header) or 'none'}")
    m = int(header["M"])
    body = lines[4:]
    if len(body) != m:
        raise ValueError(f"expected {m} channel lines, found {len(body)}")
    gains, phase_shifts = [], []
    for ln in body:
        g, th = ln.split()
        gains.append(float(g))
        phase_shifts.append(float(th))
    return Scenario(
        transmit_power=float(header["P"]),
        carrier_freq=float(header["f_c"]),
        conversion_eff=float(header["rho"]),
        gains=gains,
        phase_shifts=phase_shifts,
    )
