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
        if not 0.0 <= self.gain < math.inf:
            raise ValueError(f"channel power gain must be finite and >= 0, got {self.gain}")
        if not math.isfinite(self.phase_shift):
            raise ValueError(f"channel phase shift must be finite, got {self.phase_shift}")
        object.__setattr__(self, "phase_shift", wrap_angle(float(self.phase_shift)))


@dataclass
class Scenario:
    """One system instance: per-transmitter power, carrier, efficiency, channels.

    At least one channel must have a nonzero gain, so the optimal power is
    positive and efficiencies are defined.
    """

    transmit_power: float
    carrier_freq: float
    conversion_eff: float
    channels: list[Channel]

    def __post_init__(self):
        if not 0.0 < self.transmit_power < math.inf:
            raise ValueError(f"transmit_power must be positive and finite, "
                             f"got {self.transmit_power}")
        if not self.carrier_freq > 0.0:
            raise ValueError("carrier_freq must be positive")
        if not 0.0 < self.conversion_eff <= 1.0:
            raise ValueError("conversion_eff must lie in (0, 1]")
        if len(self.channels) < 1:
            raise ValueError("scenario needs at least one channel")
        self._gains = np.array([c.gain for c in self.channels], dtype=float)
        if not self._gains.any():
            raise ValueError("scenario needs at least one channel with nonzero gain")
        self._phase_shifts = np.array(
            [c.phase_shift for c in self.channels], dtype=float
        )

    @property
    def num_transmitters(self) -> int:
        return len(self.channels)

    @property
    def gains(self) -> np.ndarray:
        return self._gains

    @property
    def phase_shifts(self) -> np.ndarray:
        return self._phase_shifts


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
        if not 0.0 < self.path_loss_exponent < math.inf:
            raise ValueError(f"path_loss_exponent must be positive and finite, "
                             f"got {self.path_loss_exponent}")
        if not 0.0 < self.ref_attenuation < math.inf:
            raise ValueError(f"ref_attenuation must be positive and finite, "
                             f"got {self.ref_attenuation}")
        if not 0.0 < self.ref_distance < math.inf:
            raise ValueError(f"ref_distance must be positive and finite, got {self.ref_distance}")
        if not 0.0 < self.transmit_power < math.inf:
            raise ValueError(f"transmit_power must be positive and finite, "
                             f"got {self.transmit_power}")
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
    """Power gain at a given distance under the distribution's path-loss law."""
    return dist.ref_attenuation * (distance / dist.ref_distance) ** (
        -dist.path_loss_exponent
    )


def generate_scenario(
    dist: ScenarioDistribution, rng: np.random.Generator
) -> tuple[Scenario, ScenarioDraw]:
    """Draw one random scenario; deterministic given the generator state.

    Distances are uniform over the configured range, phase shifts uniform
    over [-pi, pi). With a single line-of-sight path per link the random
    delay is statistically identical to a uniform phase shift, so (gain,
    phase) pairs are drawn directly.
    """
    m = dist.num_transmitters
    lo, hi = dist.distance_range
    distances = rng.uniform(lo, hi, size=m)
    phase_shifts = rng.uniform(-math.pi, math.pi, size=m)
    channels = [
        Channel(path_loss_gain(r, dist), th)
        for r, th in zip(distances, phase_shifts)
    ]
    scenario = Scenario(
        transmit_power=dist.transmit_power,
        carrier_freq=dist.carrier_freq,
        conversion_eff=dist.conversion_eff,
        channels=channels,
    )
    return scenario, ScenarioDraw(distances=distances, phase_shifts=phase_shifts)


def scenario_to_text(s: Scenario) -> str:
    """Flat text record: header values then one 'gain phase' line per link."""
    out = io.StringIO()
    out.write(f"M {s.num_transmitters}\n")
    out.write(f"P {s.transmit_power:.17g}\n")
    out.write(f"rho {s.conversion_eff:.17g}\n")
    out.write(f"f_c {s.carrier_freq:.17g}\n")
    for c in s.channels:
        out.write(f"{c.gain:.17g} {c.phase_shift:.17g}\n")
    return out.getvalue()


def scenario_from_text(text: str) -> Scenario:
    """Inverse of :func:`scenario_to_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = {}
    for ln in lines[:4]:
        key, val = ln.split()
        header[key] = val
    m = int(header["M"])
    body = lines[4:]
    if len(body) != m:
        raise ValueError(f"expected {m} channel lines, found {len(body)}")
    channels = []
    for ln in body:
        g, th = ln.split()
        channels.append(Channel(float(g), float(th)))
    return Scenario(
        transmit_power=float(header["P"]),
        carrier_freq=float(header["f_c"]),
        conversion_eff=float(header["rho"]),
        channels=channels,
    )
