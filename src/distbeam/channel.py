"""The channel model and random scenario generation.

Each transmitter-to-receiver link is one (power gain, phase shift) pair: a
carrier sent with phase phi arrives with amplitude sqrt(gain) and phase
phi - phase_shift. A scenario bundles one such pair per transmitter
together with the common transmit power and conversion efficiency. The
harvested power is a period average, from which the carrier frequency
cancels, so a scenario carries none.
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


class Scenario:
    """One system instance: per-transmitter power, conversion efficiency,
    and the (M,) channel power ``gains`` and ``phase_shifts``.

    The constructor runs :func:`_check_scalars` and :func:`_check_gains`,
    and the phase shifts must be finite; they are wrapped into [-pi, pi).
    An immutable value: the arrays are read-only copies and no field can
    be set or deleted, so nothing can drift from what was checked. Pickle
    and ``copy`` rebuild it through the constructor; the wrap of a wrapped
    angle is itself, so the rebuild is bit-identical. ``power_scale``, the
    product of ``conversion_eff`` and ``transmit_power``, scales every
    harvested power. :func:`generate_scenario` checks only what a draw can
    get wrong.
    """

    __slots__ = ("transmit_power", "conversion_eff", "gains", "phase_shifts", "power_scale",
                 "_gain_floats", "_shift_floats")

    def __init__(self, transmit_power: float, conversion_eff: float, gains, phase_shifts):
        _check_scalars(transmit_power, conversion_eff)
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
        self._store(transmit_power, conversion_eff, gains, wrap_angle(phase_shifts))

    def _store(self, transmit_power, conversion_eff, gains, phase_shifts):
        """Set the fields from checked values, the one place that does: the
        arrays as given, which the caller owns no longer, made read-only;
        ``phase_shifts`` must already lie in [-pi, pi), as a wrap leaves
        them. The per-link readers (``power.partial_power`` and
        ``power.aligned_phase``) index ``_gain_floats`` and
        ``_shift_floats``, the same values as tuples of Python floats."""
        gains.setflags(write=False)
        phase_shifts.setflags(write=False)
        put = object.__setattr__
        put(self, "transmit_power", transmit_power)
        put(self, "conversion_eff", conversion_eff)
        put(self, "gains", gains)
        put(self, "phase_shifts", phase_shifts)
        put(self, "power_scale", conversion_eff * transmit_power)
        put(self, "_gain_floats", tuple(gains.tolist()))
        put(self, "_shift_floats", tuple(phase_shifts.tolist()))

    def __setattr__(self, name, value):
        raise AttributeError(f"Scenario is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Scenario is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Scenario, (self.transmit_power, self.conversion_eff, self.gains, self.phase_shifts)

    @property
    def num_transmitters(self) -> int:
        return self.gains.size


def _check_scalars(transmit_power, conversion_eff) -> None:
    """Raise ``ValueError`` unless the per-transmitter power is positive and
    finite and the efficiency in (0, 1]."""
    if not 0.0 < transmit_power < math.inf:
        raise ValueError(f"transmit_power must be positive and finite, got {transmit_power}")
    if not 0.0 < conversion_eff <= 1.0:
        raise ValueError("conversion_eff must lie in (0, 1]")


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
    for g in gains:
        if not 0.0 <= g < math.inf:     # NaN fails too
            raise ValueError(f"channel power gain must be finite and >= 0, got {g}")
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

    def __post_init__(self):
        lo, hi = self.distance_range
        if not 0.0 < lo <= hi:
            raise ValueError("distance_range must satisfy 0 < min <= max")
        if hi == math.inf:
            raise ValueError(f"distance_range must be finite, got ({lo}, {hi})")
        for name in ("path_loss_exponent", "ref_attenuation", "ref_distance"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        _check_scalars(self.transmit_power, self.conversion_eff)
        if self.num_transmitters < 1:
            raise ValueError("need at least one transmitter")


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
) -> tuple[Scenario, np.ndarray]:
    """Draw one random scenario and the (M,) link distances behind its
    gains; deterministic given the generator state.

    Distances are uniform over the configured range, phase shifts uniform
    over [-pi, pi). With a single line-of-sight path per link the random
    delay is statistically identical to a uniform phase shift, so (gain,
    phase) pairs are drawn directly.

    The scenario skips the constructor's validation: ``dist`` has checked
    the scalars, and the draw makes 1-D arrays of finite phases and of
    gains in [0, inf]. The gains go to :func:`_check_gains` only when
    :func:`_clears_screen` cannot clear them.

    It skips the constructor's wrap too, since :func:`wrap_angle` is the
    identity on every ``uniform(-pi, pi)`` draw, bit for bit. numpy draws
    x = fl(-pi + y), y = fl(2pi * k * 2**-53) in [0, 2pi) for an integer
    0 <= k < 2**53 (pi and 2pi here the doubles ``math.pi`` and
    ``TWO_PI``; ``test_stream_arithmetic_pins_numpys_seeding_and_uniform``
    pins that arithmetic). The wrap computes fl(fmod(fl(x + pi), 2pi) - pi),
    adding 2pi to a negative remainder first and taking 2pi from a result
    at or above pi after. By Sterbenz's lemma a difference a - b with
    b/2 <= a <= 2b is exact:

    - y >= pi/2: y - pi is exact, so x = y - pi, x + pi = y exactly, and
      y - pi = x again.
    - y < pi/2: then |x| lies in [pi/2, pi], so x + pi is exact, and
      (x + pi) - pi = x is a double, so its rounding returns x.

    In both cases the fmod in between sees a value in [0, 2pi) and returns
    it unchanged (a zero as +0.0, what y = 0, x = -pi, gives), so neither
    fix-up runs: the remainder is not negative and the result x is below pi.
    """
    m = dist.num_transmitters
    lo, hi = dist.distance_range
    distances = rng.uniform(lo, hi, size=m)
    phase_shifts = rng.uniform(-math.pi, math.pi, size=m)
    gains = _path_loss_gains(distances.tolist(), dist)
    if not _clears_screen(min(gains), max(gains), m):
        _check_gains(gains)
    scenario = Scenario.__new__(Scenario)
    scenario._store(dist.transmit_power, dist.conversion_eff, np.array(gains), phase_shifts)
    return scenario, distances


def scenario_to_text(s: Scenario) -> str:
    """Flat text record: header values then one 'gain phase' line per link."""
    out = io.StringIO()
    out.write(f"M {s.num_transmitters}\n")
    out.write(f"P {s.transmit_power:.17g}\n")
    out.write(f"rho {s.conversion_eff:.17g}\n")
    for gain, phase_shift in zip(s.gains.tolist(), s.phase_shifts.tolist()):
        out.write(f"{gain:.17g} {phase_shift:.17g}\n")
    return out.getvalue()


def _line_fields(lineno: int, line: str, form: str, *parsers) -> list:
    """The whitespace-separated fields of a line that must read ``form``,
    one per parser, each parsed by it; else a ``ValueError`` that names the
    1-based line number and the form."""
    fields = line.split()
    if len(fields) == len(parsers):
        try:
            return [parse(f) for parse, f in zip(parsers, fields)]
        except ValueError:
            pass
    raise ValueError(f"line {lineno}: expected {form!r}, got {line.strip()!r}")


def _count(field: str) -> int:
    """A transmitter count: an integer of at least 1."""
    if (m := int(field)) < 1:
        raise ValueError(field)
    return m


def scenario_from_text(text: str) -> Scenario:
    """Inverse of :func:`scenario_to_text`. A malformed line is a
    ``ValueError`` naming its line number and the form it must have."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    header = {}
    for n, ln in lines[:3]:
        key, _ = _line_fields(n, ln, "<key> <value>", str, str)
        header[key] = n, ln
    if sorted(header) != ["M", "P", "rho"]:
        raise ValueError(f"scenario header needs the keys M, P and rho, "
                         f"got {', '.join(header) or 'none'}")
    _, m = _line_fields(*header["M"], "M <count>", str, _count)
    _, p = _line_fields(*header["P"], "P <number>", str, float)
    _, rho = _line_fields(*header["rho"], "rho <number>", str, float)
    # every line is parsed before the count is checked, so a line of another
    # format (an older header's f_c, say) is named as such
    links = [_line_fields(n, ln, "<gain> <phase_shift>", float, float) for n, ln in lines[3:]]
    if len(links) != m:
        raise ValueError(f"expected {m} channel lines, found {len(links)}")
    # all gains reach the constructor, and are checked, before any phase
    return Scenario(
        transmit_power=p,
        conversion_eff=rho,
        gains=[g for g, _ in links],
        phase_shifts=[th for _, th in links],
    )
