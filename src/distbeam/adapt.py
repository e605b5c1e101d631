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
    SumSignal,
    aligned_phase,
    partial_power,
    sum_signal,
)

#: Half-widths at or below this are treated as converged; bisecting further
#: is a no-op numerically but never an error.
CONVERGENCE_FLOOR = 1e-12


class _ArcFields(NamedTuple):
    center: float
    half_width: float


class Arc(_ArcFields):
    """Circular candidate set {center + t : |t| <= half_width} modulo 2*pi.

    An immutable (center, half_width) tuple; construction checks both and
    wraps the center.
    """

    __slots__ = ()

    def __new__(cls, center: float, half_width: float):
        if not 0.0 < half_width <= math.pi:
            raise ValueError("half_width must lie in (0, pi]")
        if not math.isfinite(center):
            raise ValueError(f"arc center must be finite, got {center}")
        return tuple.__new__(cls, (wrap_angle(float(center)), half_width))

    @classmethod
    def _make(cls, iterable):
        """Route ``_replace`` through the checks of :meth:`__new__`."""
        return cls(*iterable)

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


_FULL_CIRCLE = Arc(center=-math.pi / 2.0, half_width=math.pi)


def initial_arc() -> Arc:
    """Full circle, oriented so the first probe pair is (0, -pi)."""
    return _FULL_CIRCLE


def probe_pair(arc: Arc) -> ProbePair:
    """Boundary probes of an arc.

    A full circle has coincident endpoints, so its probes are instead the
    fixed antipodal pair at center +/- pi/2; any antipodal pair splits the
    circle and this choice reproduces the (0, -pi) initialization.
    """
    node = _tree_node(arc)
    return _probe_pair(arc) if node is None else node[1]


def _probe_pair(arc: Arc) -> ProbePair:
    center, half_width = arc
    off = math.pi / 2.0 if half_width == math.pi else half_width
    return ProbePair(wrap_angle(center + off), wrap_angle(center - off))


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
    node = _tree_node(arc)
    child = None if node is None else node[3 if bit else 2]
    return _bisect_arc(arc, bit) if child is None else child


def _bisect_arc(arc: Arc, bit: bool) -> Arc:
    center, half_width = arc
    if half_width <= CONVERGENCE_FLOOR:
        return arc
    half = half_width / 2.0
    return Arc(center + half if bit else center - half, half)


#: Every stage bisects the same probe lattice from :func:`initial_arc`; the
#: feedback picks only the path through it. So the tree's nodes down to
#: half-width pi/2**_TREE_DEPTH, enough for N <= 8 intervals, are stored
#: with their probe pair and children: 2**(_TREE_DEPTH + 1) - 1 = 511
#: entries, built by the plain functions once, at import.
#: Deeper arcs, and arcs a caller builds, are computed on every call.
_TREE_DEPTH = 8
_TREE: dict[Arc, tuple] = {}   # node -> (node, probe pair, child on bit False, on bit True)


def _tree_node(arc: Arc) -> tuple | None:
    """The stored entry of a tree node, None for any other arc (an equal
    arc built by a caller included)."""
    node = _TREE.get(arc)
    return node if node is not None and node[0] is arc else None


def _grow_tree(arc: Arc, depth: int) -> None:
    children = ((_bisect_arc(arc, False), _bisect_arc(arc, True))
                if depth < _TREE_DEPTH else (None, None))
    _TREE[arc] = (arc, _probe_pair(arc), *children)
    if depth < _TREE_DEPTH:
        for child in children:
            _grow_tree(child, depth + 1)


_grow_tree(_FULL_CIRCLE, 0)


def _depth_centres() -> tuple[np.ndarray, ...]:
    """Entry d: the centres of the stored tree's 2**d depth-d arcs, read-only,
    indexed by path (the feedback bits from the root, first bit highest,
    True = 1). Read off ``_TREE``'s nodes, so no angle is recomputed."""
    levels = [[_FULL_CIRCLE]]
    for _ in range(_TREE_DEPTH):
        levels.append([_TREE[arc][child] for arc in levels[-1] for child in (2, 3)])
    centres = tuple(np.array([arc.center for arc in level]) for level in levels)
    for c in centres:
        c.flags.writeable = False
    return centres


#: The depth tables of the closed-form exact stage, built with the tree
_DEPTH_CENTRES = _depth_centres()


class TraceRecord(NamedTuple):
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


def _check_budget(n_intervals: int) -> None:
    """Reject a per-stage feedback budget below one interval."""
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")


def adapt_phase(
    s: Scenario,
    pa: PhaseAssignment,
    m: int,
    n_intervals: int,
    meas: MeasurementModel = EXACT,
    probe_repeats: int = 1,
) -> tuple[float, TrainingTrace]:
    """Run the bisection adaptation for transmitter m against the active set.

    ``pa`` holds the already-fixed transmit phases; transmitter m itself must
    not be marked active. Each of the ``n_intervals`` feedback intervals
    measures both probe phases, obtains the one-bit comparison and halves
    the working set; the returned phase is the final set's center (the
    circular midpoint of the last probe pair).

    ``probe_repeats`` averages that many measurements per probe, useful only
    against measurement noise. Under exact measurement, and provided some
    other transmitter is active, the result is within pi/2**n_intervals of
    the optimal phase.
    """
    _check_budget(n_intervals)
    if probe_repeats < 1:
        raise ValueError("probe_repeats must be >= 1")
    if pa.active[m]:
        raise ValueError(f"transmitter {m} cannot be active while adapting")
    noise = (meas.rng.normal(0.0, meas.noise_std, size=2 * probe_repeats * n_intervals).tolist()
             if meas.noisy else None)
    return _train_stage(s, sum_signal(s, pa), m, n_intervals, noise, probe_repeats)


def _train_stage(
    s: Scenario,
    ss: SumSignal,
    m: int,
    n_intervals: int,
    noise: list[float] | None,
    probe_repeats: int,
) -> tuple[float, TrainingTrace]:
    """The bisection loop of :func:`adapt_phase` against a combined signal.

    ``noise`` is None under exact measurement, else the stage's
    2 * probe_repeats * n_intervals noise values, drawn by the caller in
    reading order (psi's repeats, then psi_prime's, interval by interval).
    Each reading clamps and averages them as :func:`~distbeam.power.measure`
    would. A single repeat reads the clamped value itself.

    Each interval makes one :func:`probe_pair`, two
    :func:`~distbeam.power.partial_power`, one :func:`feedback_bit` and one
    :func:`bisect_arc` call, each looked up here at call time, and no other
    call unless it repeats its probes.
    """
    trace = TrainingTrace(target_phase=aligned_phase(s, ss, m), sum_gain=ss.gain)
    records = trace.records
    new_record = tuple.__new__   # TraceRecord without its Python-level __new__
    r = probe_repeats
    arc = initial_arc()
    for n in range(1, n_intervals + 1):
        psi, psi_prime = probe_pair(arc)
        p = partial_power(s, ss, m, psi)
        p_prime = partial_power(s, ss, m, psi_prime)
        if r > 1:
            if noise is None:
                q_psi = sum(p for _ in range(r)) / r
                q_psi_prime = sum(p_prime for _ in range(r)) / r
            else:
                k = 2 * r * (n - 1)
                q_psi = sum(max(0.0, p + z) for z in noise[k:k + r]) / r
                q_psi_prime = sum(max(0.0, p_prime + z) for z in noise[k + r:k + 2 * r]) / r
        elif noise is None:
            # + 0.0 maps a -0.0 reading to 0.0, as the sum over repeats does
            q_psi, q_psi_prime = p + 0.0, p_prime + 0.0
        else:
            # max(0.0, x) inline, NaN and -0.0 included
            q_psi = p + noise[2 * n - 2]
            q_psi = q_psi if q_psi > 0.0 else 0.0
            q_psi_prime = p_prime + noise[2 * n - 1]
            q_psi_prime = q_psi_prime if q_psi_prime > 0.0 else 0.0
        bit = feedback_bit(q_psi, q_psi_prime)
        arc = bisect_arc(arc, bit)
        center, half = arc
        records.append(new_record(TraceRecord, (n, psi, psi_prime, q_psi, q_psi_prime, bit,
                                                center, half)))
    trace.final_phase = center
    return center, trace
