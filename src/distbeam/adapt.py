"""One-bit-feedback phase adaptation by bisection on the circle.

A transmitter that wants to align with the signal already arriving at the
receiver keeps a circular working set of candidate phases. Each feedback
interval it transmits the two boundary phases of the set; the receiver
replies with a single bit saying which one delivered more power, which is
exactly the information needed to discard the half of the set farther from
the optimum. After N intervals the set has width pi/2^(N-1) and its center
is within pi/2^N of the optimal phase.

The working set is stored as (center, half_width) rather than endpoint
pairs: "max" and "min" of an arc are ill-defined on a circle once the set
wraps, while the center representation bisects with one addition.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .angles import circular_distance, wrap_angle
from .channel import Scenario
from .power import (
    EXACT,
    MeasurementModel,
    PhaseAssignment,
    aligned_phase,
    measure,
    partial_power,
    sum_signal,
)

#: Half-widths at or below this are treated as converged; bisecting further
#: is a no-op numerically but never an error.
CONVERGENCE_FLOOR = 1e-12


@dataclass(frozen=True)
class Arc:
    """Circular candidate set {center + t : |t| <= half_width} modulo 2*pi."""

    center: float
    half_width: float

    def __post_init__(self):
        if not 0.0 < self.half_width <= math.pi:
            raise ValueError("half_width must lie in (0, pi]")
        object.__setattr__(self, "center", wrap_angle(float(self.center)))

    @property
    def converged(self) -> bool:
        return self.half_width <= CONVERGENCE_FLOOR

    def contains(self, phase: float, slack: float = 0.0) -> bool:
        """Closed-set membership with optional tolerance."""
        return circular_distance(phase, self.center) <= self.half_width + slack


class ProbePair(NamedTuple):
    """The two phases transmitted during one feedback interval."""

    psi: float
    psi_prime: float


def initial_arc() -> Arc:
    """Full circle, oriented so the first probe pair is (0, -pi)."""
    return Arc(center=-math.pi / 2.0, half_width=math.pi)


def probe_pair(arc: Arc) -> ProbePair:
    """Boundary probes of an arc.

    A full circle has coincident endpoints, so its probes are instead the
    fixed antipodal pair at center +/- pi/2; any antipodal pair splits the
    circle and this choice reproduces the (0, -pi) initialization.
    """
    off = math.pi / 2.0 if arc.half_width == math.pi else arc.half_width
    return ProbePair(wrap_angle(arc.center + off), wrap_angle(arc.center - off))


def feedback_bit(q_psi: float, q_psi_prime: float) -> bool:
    """Receiver-side comparison; an exact tie counts for psi."""
    return q_psi >= q_psi_prime


def bisect_arc(arc: Arc, bit: bool) -> Arc:
    """Keep the half of the arc on the winning probe's side.

    ``bit`` is the feedback on this arc's own :func:`probe_pair`. The
    points kept by the feedback inequality (closer to the winning probe on
    the circle) intersected with the arc always form the half between the
    arc center and the winning boundary, so the center moves a quarter of
    the arc width toward the winner and the half-width halves.
    """
    if arc.converged:
        return arc
    shift = arc.half_width / 2.0 if bit else -arc.half_width / 2.0
    return Arc(arc.center + shift, arc.half_width / 2.0)


@dataclass(frozen=True)
class TraceRecord:
    """One feedback interval: probes, measured powers, bit, resulting arc."""

    interval: int
    psi: float
    psi_prime: float
    q_psi: float
    q_psi_prime: float
    bit: bool
    arc_center: float
    arc_half_width: float


@dataclass
class TrainingTrace:
    """Full record of one adaptation run."""

    records: list[TraceRecord] = field(default_factory=list)
    final_phase: float = 0.0
    target_phase: float = 0.0   # optimum at adaptation time; 0 when undefined
    sum_gain: float = 0.0       # combined power of the other active transmitters

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("n,psi,psi_prime,q_psi,q_psi_prime,bit,arc_center,arc_half_width\n")
        for r in self.records:
            out.write(
                f"{r.interval},{r.psi:.15g},{r.psi_prime:.15g},"
                f"{r.q_psi:.15g},{r.q_psi_prime:.15g},{int(r.bit)},"
                f"{r.arc_center:.15g},{r.arc_half_width:.15g}\n"
            )
        return out.getvalue()

    def interval_powers(self) -> np.ndarray:
        """Mean received power of each interval (both probes weighted equally)."""
        return np.array(
            [0.5 * (r.q_psi + r.q_psi_prime) for r in self.records], dtype=float
        )


def adapt_phase(
    s: Scenario,
    pa: PhaseAssignment,
    m: int,
    n_intervals: int,
    meas: MeasurementModel = EXACT,
    probe_offset: float = 0.0,
    probe_repeats: int = 1,
) -> tuple[float, TrainingTrace]:
    """Run the bisection adaptation for transmitter m against the active set.

    ``pa`` holds the already-fixed transmit phases; transmitter m itself must
    not be marked active. Each of the ``n_intervals`` feedback intervals
    measures both probe phases, obtains the one-bit comparison and halves
    the working set; the returned phase is the final set's center (the
    circular midpoint of the last probe pair).

    ``probe_offset`` rotates the whole probe lattice, which shifts the
    returned phase by the same constant without changing any comparison.
    ``probe_repeats`` averages that many measurements per probe, useful only
    against measurement noise. Under exact measurement, and provided some
    other transmitter is active, the result is within pi/2**n_intervals of
    the optimal phase.
    """
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    if probe_repeats < 1:
        raise ValueError("probe_repeats must be >= 1")
    if pa.active[m]:
        raise ValueError(f"transmitter {m} cannot be active while adapting")
    ss = sum_signal(s, pa, exclude=m)
    target = aligned_phase(s, ss, m)
    trace = TrainingTrace(target_phase=target if ss.gain > 0.0 else 0.0,
                          sum_gain=ss.gain)
    arc = initial_arc()

    def read(phase: float) -> float:
        p = partial_power(s, ss, m, phase)
        total = sum(measure(meas, p) for _ in range(probe_repeats))
        return total / probe_repeats

    for n in range(1, n_intervals + 1):
        probes = probe_pair(arc)
        psi = wrap_angle(probes.psi + probe_offset)
        psi_prime = wrap_angle(probes.psi_prime + probe_offset)
        q_psi = read(psi)
        q_psi_prime = read(psi_prime)
        bit = feedback_bit(q_psi, q_psi_prime)
        arc = bisect_arc(arc, bit)
        trace.records.append(
            TraceRecord(n, psi, psi_prime, q_psi, q_psi_prime, bit,
                        wrap_angle(arc.center + probe_offset), arc.half_width)
        )
    trace.final_phase = wrap_angle(arc.center + probe_offset)
    return trace.final_phase, trace
