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
wraps, while the center representation bisects with one addition. The
batched exact stage (:func:`_interval_loop`, :func:`_final_centres`)
shares its rule.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .angles import TWO_PI, wrap_angle
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
from .table import csv_text

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
    node = _TREE.get(id(arc))
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
    node = _TREE.get(id(arc))
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
#: half-width pi/2**_TREE_DEPTH, enough for N <= 8 intervals, are built by
#: the plain functions once, at import, in level order: ``_NODES[2**d - 1 +
#: j]`` is depth d's arc on path j (the feedback bits from the root, first
#: bit highest, True = 1), so node i's children are nodes 2i + 1 and 2i + 2.
#: ``_TREE`` stores the 2**(_TREE_DEPTH + 1) - 1 = 511 nodes with their
#: probe pair and children. Nodes are keyed by identity: each entry holds
#: its node, so the node lives as long as the store and no other object can
#: share its id. Deeper arcs, and arcs a caller builds (equal copies of
#: nodes included), miss and are computed on every call.
_TREE_DEPTH = 8


def _grow_tree() -> tuple[list[Arc], dict[int, tuple]]:
    """The tree's nodes in level order, and its store: id(node) -> (node,
    probe pair, child on bit False, on bit True), a leaf's children None."""
    nodes = [_FULL_CIRCLE]
    for i in range(2 ** _TREE_DEPTH - 1):
        nodes += (_bisect_arc(nodes[i], False), _bisect_arc(nodes[i], True))
    return nodes, {id(arc): (arc, _probe_pair(arc), *(nodes[2 * i + 1:2 * i + 3] or (None, None)))
                   for i, arc in enumerate(nodes)}


_NODES, _TREE = _grow_tree()

#: The depth table of the closed-form exact stage: the nodes' centres,
#: read-only, so no angle is recomputed
_DEPTH_CENTRES = np.array([arc.center for arc in _NODES])
_DEPTH_CENTRES.flags.writeable = False


class TrainingTrace(NamedTuple):
    """Full record of one adaptation run: per feedback interval (n at entry
    n - 1) the probe pair, the two readings, the bit and the arc after it,
    one tuple per column, built once per stage."""

    psi: tuple[float, ...]
    psi_prime: tuple[float, ...]
    q_psi: tuple[float, ...]
    q_psi_prime: tuple[float, ...]
    bit: tuple[bool, ...]
    arc_center: tuple[float, ...]
    arc_half_width: tuple[float, ...]
    target_phase: float   # optimum at adaptation time; 0 when undefined
    sum_gain: float       # combined power of the other active transmitters

    def to_csv(self) -> str:
        return csv_text(",".join(("n", *self._fields[:7])), range(1, len(self.bit) + 1),
                        *map(np.array, self[:7]))

    def interval_powers(self) -> np.ndarray:
        """Mean received power of each interval (both probes weighted equally)."""
        return 0.5 * (np.array(self.q_psi) + np.array(self.q_psi_prime))


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
) -> tuple[float, TrainingTrace]:
    """Run the bisection adaptation for transmitter m against the active set.

    ``pa`` holds the already-fixed transmit phases; transmitter m itself must
    not be marked active. Each of the ``n_intervals`` feedback intervals
    measures both probe phases once, obtains the one-bit comparison and
    halves the working set; the returned phase is the final set's center
    (the circular midpoint of the last probe pair). Under exact measurement,
    and provided some other transmitter is active, the result is within
    pi/2**n_intervals of the optimal phase.
    """
    _check_budget(n_intervals)
    ss = sum_signal(s, pa)   # checks pa's length against the scenario's
    if not 0 <= m < s.num_transmitters:
        raise ValueError(f"adapting transmitter {m} must lie in 0..{s.num_transmitters - 1}")
    if pa.active[m]:
        raise ValueError(f"transmitter {m} cannot be active while adapting")
    noise = None
    if meas.noisy:
        # the stage's draw is the one row of a run's
        noise, = _stage_noise(meas.rng.normal(0.0, meas.noise_std, size=2 * n_intervals)[None],
                              n_intervals)
    return _train_stage(s, ss, m, n_intervals, noise)


def _stage_noise(draw: np.ndarray, n_intervals: int):
    """Each stage's ``noise`` for :func:`_train_stage`, from a (stages, 2 *
    n_intervals) draw, one row a stage: the values its loop reads as Python
    floats, every row's converted at once, and the rest as a (rest, 2)
    array view, or None if there is no rest. So at most 2 *
    (``_MOVING_INTERVALS`` + 1) values a stage become floats, whatever its
    budget."""
    looped = 2 * min(n_intervals, _MOVING_INTERVALS + 1)
    tails = (draw[:, looped:].reshape(len(draw), -1, 2) if draw.shape[1] > looped
             else itertools.repeat(None))
    return zip(draw[:, :looped].tolist(), tails)


def _train_stage(
    s: Scenario,
    ss: SumSignal,
    m: int,
    n_intervals: int,
    noise: tuple[list[float], np.ndarray | None] | None,
) -> tuple[float, TrainingTrace]:
    """The bisection loop of :func:`adapt_phase` against a combined signal.

    ``noise`` is None under exact measurement, else the stage's (head,
    tail) from :func:`_stage_noise`: its 2 * n_intervals noise values,
    drawn by the caller in reading order (psi's, then psi_prime's,
    interval by interval), the looped intervals' a list of Python floats
    and the rest a (rest, 2) array or None. Each reading is its probe
    power plus its noise value, clamped at 0 as
    :func:`~distbeam.power.measure` would.

    Each interval up to the first whose probes repeat (interval
    ``_MOVING_INTERVALS`` + 1, on the converged arc) makes one
    :func:`probe_pair`, two :func:`~distbeam.power.partial_power`, one
    :func:`feedback_bit` and one :func:`bisect_arc` call, each looked up
    here at call time, and no other call. The later intervals repeat that
    interval's probes, powers and arc, so :func:`_repeat_last` fills their
    columns at once.
    """
    looped = min(n_intervals, _MOVING_INTERVALS + 1)
    head, tail = (None, None) if noise is None else noise
    rows = []
    arc = _FULL_CIRCLE   # initial_arc(), without the call
    for n in range(0, 2 * looped, 2):   # head[n] and head[n + 1] are the interval's noise
        psi, psi_prime = probe_pair(arc)
        p = partial_power(s, ss, m, psi)
        p_prime = partial_power(s, ss, m, psi_prime)
        if head is None:
            # + 0.0 maps a -0.0 power to 0.0: a reading is never -0.0
            q_psi, q_psi_prime = p + 0.0, p_prime + 0.0
        else:
            # max(0.0, x) inline, NaN and -0.0 included
            q_psi = p + head[n]
            q_psi = q_psi if q_psi > 0.0 else 0.0
            q_psi_prime = p_prime + head[n + 1]
            q_psi_prime = q_psi_prime if q_psi_prime > 0.0 else 0.0
        bit = feedback_bit(q_psi, q_psi_prime)
        arc = bisect_arc(arc, bit)
        center, half = arc
        rows.append((psi, psi_prime, q_psi, q_psi_prime, bit, center, half))
    columns = tuple(zip(*rows))
    if n_intervals > looped:
        columns = _repeat_last(columns, n_intervals - looped, p, p_prime, tail)
    return center, TrainingTrace._make((*columns, aligned_phase(s, ss, m), ss.gain))


def _repeat_last(columns: tuple, rest: int, p: float, p_prime: float,
                 noise: np.ndarray | None) -> tuple:
    """A stage's seven trace columns extended by ``rest`` intervals that
    probe its last interval's converged arc again, at probe powers ``p``
    and ``p_prime``. Exact readings repeat too. Noisy ones are each power
    plus its value of ``noise``, of shape (rest, 2), clamped at 0, as the
    loop of :func:`_train_stage` reads them; their bits come from one
    :func:`feedback_bit` call."""
    psi, psi_prime, q_psi, q_psi_prime, bit, center, half = columns
    try:
        if noise is None:
            return tuple(c + c[-1:] * rest for c in columns)
        psi, psi_prime, center, half = (c + c[-1:] * rest for c in (psi, psi_prime, center, half))
    except (OverflowError, MemoryError):   # OverflowError: more entries than a tuple holds
        raise MemoryError(f"a trace of {len(bit) + rest} intervals") from None
    q = noise + np.array([p, p_prime])
    q = np.where(q > 0.0, q, 0.0)
    return (psi, psi_prime, q_psi + tuple(q[:, 0].tolist()), q_psi_prime + tuple(q[:, 1].tolist()),
            bit + tuple(feedback_bit(q[:, 0], q[:, 1]).tolist()), center, half)


def _interval_loop(target, base, swing, scale, n_intervals: int):
    """:func:`_train_stage` under exact measurement for every row at once,
    interval by interval: the probes of :func:`_probe_pair` on the arc of
    centres ``center``, their powers base + swing * cos(probe - target)
    scaled by the row's power ``scale`` (``partial_power``'s arithmetic),
    the :func:`feedback_bit` on them, and the bisection of
    :func:`_bisect_arc`, which stops moving the arc at
    ``CONVERGENCE_FLOOR``. Yields each interval's two probe powers and the
    arc centres after it. The half-width is the same in every row."""
    center = np.full(len(target), _FULL_CIRCLE.center)
    half = _FULL_CIRCLE.half_width
    for _ in range(n_intervals):
        psi, psi_prime = _probe_pair((center, half))
        q_psi = scale * (base + swing * np.cos(psi - target))
        q_psi_prime = scale * (base + swing * np.cos(psi_prime - target))
        if half > CONVERGENCE_FLOOR:
            shift = np.where(feedback_bit(q_psi, q_psi_prime), half / 2.0, -half / 2.0)
            center = wrap_angle(center + shift)
            half /= 2.0
        yield q_psi, q_psi_prime, center


#: Intervals after which :func:`_interval_loop` leaves the arcs where they
#: are: pi halved this often is the first half-width at or below
#: ``CONVERGENCE_FLOOR``, so later intervals only probe.
_MOVING_INTERVALS = math.ceil(math.log2(math.pi / CONVERGENCE_FLOOR))

#: Bound on the absolute error, in radians, of each angle that
#: :func:`_interval_loop` and :func:`_cells` compute (see :func:`_cells`)
_ANGLE_ERROR = 2.0 ** -44


#: sin(min(pi/2, pi/2**(N-1))) by depth N <= ``_TREE_DEPTH``: the s of
#: :func:`_cells`' tie margin, the sine of a path's smallest probe offset
_SIN_OFFSET = np.array([math.sin(min(math.pi / 2.0, math.ldexp(math.pi, 1 - n)))
                        for n in range(_TREE_DEPTH + 1)])


def _cells(target, base, swing, scale, n_intervals):
    """Each row's depth-N cell index, the path of its final tree arc, and
    whether the interval loop is sure to take that path. N is
    ``n_intervals``, one depth up to ``_TREE_DEPTH`` or one per row.

    With c0 = -pi/2 the full circle's centre, cell j holds the targets t
    with j <= (wrap(t - c0) + pi) * 2**N / (2 pi) < j + 1. In exact
    arithmetic the comparison on an arc of centre c and probe offset h
    (pi/2 on the full circle, else the half-width) is
        q_psi - q_psi' = -2 * scale * swing * sin(h) * sin(c - t),
    so it keeps the upper half (bit 1) when t lies at or above c: the bits
    of the arcs that hold t are the digits of j, first bit highest. Its
    zeros, the decision points, are the arc's centre and, on the full
    circle, the seam c0 + pi; at depths below N all of them lie on the cell
    boundaries. If t is delta away from every boundary, then
    |sin(c - t)| >= (2/pi) * delta and sin(h) >= s = sin(min(pi/2,
    pi/2**(N-1))) at every depth, so |q_psi - q_psi'| >= scale * swing *
    (4/pi) * s * delta.

    The loop rounds. Each angle it uses, a tree centre after at most 8
    wrapped bisections, a probe and its difference with t, is within
    19 * 2**-50 of its exact value (2.2 * 2**-50 over the stored tree), and
    ``np.cos`` adds at most 4 ulp of 1 (2**-50); together they stay below
    2 * eps, eps = ``_ANGLE_ERROR`` = 64 * 2**-50. So each probe power base + swing * cos is within
    swing * 2 * eps + ulp(base + swing) of its exact value, the product
    swing * cos and the sum each rounding by half an ulp of at most
    base + swing (base >= swing). Scaling is monotone: it can only merge
    two powers into a tie, which keeps psi, and it cannot merge ones that
    differ by more than one ulp of the larger, at most 2 * scale *
    ulp(base + swing) + 2**-1074 (the subnormal step). So the loop's bit is
    the exact one if
        scale * swing * ((2/pi) * s * delta - 2 * eps)
            > 2 * scale * ulp(base + swing) + 2**-1075.
    Here delta is the computed distance to the nearest boundary less eps,
    which bounds the rounding of the cell position (a few ulp of 2 pi)
    and so also makes j the exact cell; and ulp is taken of the rounded
    base + swing, doubled for a rounding across a binade, with the
    constant doubled to 2**-1074 to match. A zero swing (a zero gain or a
    zero combined signal) or a swing below the rounding of base, where
    the loop ties, fails the test, and so does a non-finite input.
    """
    cells = np.ldexp(1.0, n_intervals)
    x = (wrap_angle(target - _FULL_CIRCLE.center) + math.pi) * (cells / TWO_PI)
    cell = np.floor(x)
    frac = x - cell
    delta = np.minimum(frac, 1.0 - frac) * (TWO_PI / cells) - _ANGLE_ERROR
    # scale last: it may be near the float maximum, the factors beside it are at most ~4 base
    gap = scale * (swing * ((2.0 / math.pi) * _SIN_OFFSET[n_intervals] * delta
                            - 2.0 * _ANGLE_ERROR))
    clear = gap > scale * (4.0 * np.spacing(base + swing)) + math.ulp(0.0)
    return np.where(clear, cell, 0.0).astype(np.intp), clear


def _final_centres(target, base, swing, scale, n_intervals) -> np.ndarray:
    """The arc centres after :func:`_interval_loop`'s last interval, bit for
    bit, each row's after its own budget: ``n_intervals`` is one N or one per
    row, at most ``_MOVING_INTERVALS`` (the loop moves no arc after it). A
    stage's N comparisons compute the first N binary digits of its target's
    position on the circle, so its final phase is the centre of the depth-N
    tree arc that holds the target (:func:`_cells`). The rows too near a
    comparison tie, and the rows with N > ``_TREE_DEPTH``, run one loop
    instead, which keeps each row's centres after its N-th interval."""
    n = np.broadcast_to(n_intervals, np.shape(target))
    depth = np.minimum(n, _TREE_DEPTH)
    cell, clear = _cells(target, base, swing, scale, depth)
    centres = _DEPTH_CENTRES[(1 << depth) - 1 + cell]
    rows = np.flatnonzero(~clear | (n > _TREE_DEPTH))
    del depth, cell, clear     # freed before the loop's own arrays
    if rows.size:
        stop = n[rows]
        intervals = _interval_loop(target[rows], base[rows], swing[rows], scale[rows],
                                   int(stop.max()))
        for k, (_, _, center) in enumerate(intervals, 1):
            done = stop == k
            centres[rows[done]] = center[done]
    return centres
