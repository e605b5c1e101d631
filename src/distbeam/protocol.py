"""Sequential distributed beamforming protocol and its closed-form bounds.

Transmitter 1 fixes an arbitrary reference phase; every later transmitter
in turn aligns to the combined signal of the already-fixed ones via the
one-bit bisection, then keeps transmitting. The delivered power, its
efficiency against the optimum, a worst-case lower bound on that
efficiency, and the feedback budget needed for a target efficiency all
have closed forms that this module implements and cross-checks.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from . import streams
from .angles import wrap_angle
from .adapt import (
    _MOVING_INTERVALS,
    TrainingTrace,
    _check_budget,
    _final_centres,
    _interval_loop,
    _stage_noise,
    _train_stage,
)
from .channel import Scenario
from .power import (
    EXACT,
    MeasurementModel,
    TrialStack,
    _aligned_sums,
    _phasor_signal,
    _prefix_sums,
    checked_optima,
    harvested_powers,
    optimal_power,
)


class ProtocolResult(NamedTuple):
    """Outcome of one full sequential run."""

    final_phases: np.ndarray
    q_d: float
    q_star: float
    eta: float
    traces: tuple[TrainingTrace, ...]   # stage m's optimum is traces[m-1].target_phase
    errors: np.ndarray               # final phase minus stage optimum, wrapped
    total_feedback_intervals: int


def _check_run(m_total: int, n_intervals: int) -> None:
    """Reject a run of fewer than two transmitters or an empty stage budget."""
    if m_total < 2:
        raise ValueError("protocol needs at least two transmitters")
    _check_budget(n_intervals)


def run_protocol(
    s: Scenario,
    n_intervals: int,
    meas: MeasurementModel = EXACT,
) -> ProtocolResult:
    """Run the sequential protocol with ``n_intervals`` per transmitter.

    Consumes n_intervals * (M - 1) feedback intervals in total. Transmitter
    0 is the reference, at phase 0. Q* must first pass
    :func:`~distbeam.power.checked_optima`, as in every experiment.

    Each stage trains against the running phasor sum of the transmitters
    fixed before it (``power._prefix_sums``). A noisy ``meas`` gives the
    run's 2 * n_intervals * (M - 1) noise values in one draw from its
    generator, in stage order, and each stage reads its 2 * n_intervals of
    them (``adapt._stage_noise``); one draw of n values equals n single
    draws, so every reading and the generator's final state are those of
    a draw per stage.
    """
    m_total = s.num_transmitters
    _check_run(m_total, n_intervals)
    q_star = optimal_power(s)
    checked_optima(np.array([q_star]), np.array([s.power_scale]), ["the scenario"])
    phases = np.zeros(m_total)
    traces: list[TrainingTrace] = []
    errors = [0.0]
    noise = (_stage_noise(meas.rng.normal(0.0, meas.noise_std, size=(m_total - 1, 2 * n_intervals)),
                          n_intervals)
             if meas.noisy else itertools.repeat(None))
    # every link but the last, as views: each stage reads the phases fixed before it
    sums = _prefix_sums(s.gains[:-1], s.phase_shifts[:-1], phases[:-1])
    for m, (re, im), stage_noise in zip(itertools.count(1), sums, noise):
        phi_m, trace = _train_stage(s, _phasor_signal(re, im), m, n_intervals, stage_noise)
        phases[m] = phi_m
        traces.append(trace)
        errors.append(wrap_angle(phi_m - trace.target_phase))
    q_d = float(harvested_powers(TrialStack(s.gains, s.phase_shifts, s.power_scale), phases))
    return ProtocolResult(
        final_phases=phases,
        q_d=q_d,
        q_star=q_star,
        eta=q_d / q_star,
        traces=tuple(traces),
        errors=np.array(errors),
        total_feedback_intervals=n_intervals * (m_total - 1),
    )


def exact_runs(stack: TrialStack, n_intervals: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`run_protocol`'s final phases and interval powers under exact
    measurement, for stacked scenarios (:func:`~distbeam.streams.trial_stack`).

    Returns a (T, M) and a (T, N*(M-1)) array, one row per trial; the
    powers are the runs' ``TrainingTrace.interval_powers``, stage after
    stage. Every stage runs :func:`~distbeam.adapt._interval_loop` on
    :func:`_stages`' signals. Memory is O(T*N*M). :func:`exact_phases`
    gives the phases alone, faster.
    """
    _check_run(stack.gains.shape[1], n_intervals)
    phases, stages = _stages(stack)
    powers = np.empty((len(phases), n_intervals * (phases.shape[1] - 1)))
    for m, target, base, swing in stages:
        intervals = _interval_loop(target, base, swing, stack.scale, n_intervals)
        for k, (q_psi, q_psi_prime, center) in enumerate(intervals, (m - 1) * n_intervals):
            powers[:, k] = 0.5 * (q_psi + q_psi_prime)
        phases[:, m] = center
    return phases, powers


def exact_phases(stack: TrialStack, n_list: Sequence[int]) -> Iterator[np.ndarray]:
    """The final phases of :func:`exact_runs` at each budget of ``n_list``,
    bit for bit: one (T, M) array per budget, in ``n_list``'s order. Each
    stage's come from :func:`~distbeam.adapt._final_centres`: in closed form
    where that is sure to agree, else by the interval loop.

    The budgets run together, as the rows (budget, trial) of one stage
    recursion, in batches of at most max(T, ``streams._CHUNK_LINKS`` // M)
    rows. So a sweep of more trial-links than that runs one budget at a
    time, and each batch's arrays are freed when the next one starts.
    """
    trials, m_total = stack.gains.shape
    for n in n_list:
        _check_run(m_total, n)
    per_batch = max(1, streams._CHUNK_LINKS // m_total // max(trials, 1))

    def batches():
        for i in range(0, len(n_list), per_batch):
            budgets = n_list[i:i + per_batch]
            k = len(budgets)
            # the trial rows once per budget: a view of the stack at one budget
            rows = TrialStack(*(np.broadcast_to(a, (k, *a.shape)).reshape(-1, *a.shape[1:])
                                for a in stack))
            phases, stages = _stages(rows)
            # the loop moves no arc after _MOVING_INTERVALS, so no budget needs more
            depth = np.repeat([min(n, _MOVING_INTERVALS) for n in budgets], trials)
            for m, target, base, swing in stages:
                phases[:, m] = _final_centres(target, base, swing, rows.scale, depth)
            yield from phases.reshape(k, trials, m_total)

    return batches()


def _stages(stack: TrialStack):
    """Return the (T, M) phase array of the stacked runs, transmitter 0 at
    phase 0, and an iterator over stages m = 1..M-1 of (m, target, base,
    swing): the stage's optimal phase and the two terms of its probe powers
    base + swing * cos(probe - target), before the power scale. The running
    phasor sum (``power._prefix_sums``) reads the phases the caller writes
    for the earlier stages, and a zero sum reduces to ``SumSignal(0, 0)``,
    as in :func:`run_protocol`."""
    gains, phase_shifts, _ = stack
    phases = np.zeros(gains.shape)

    def stages():
        sums = _prefix_sums(gains[:, :-1], phase_shifts[:, :-1], phases[:, :-1])
        for m, (re, im) in enumerate(sums, 1):
            ss_gain = re * re + im * im
            # math.atan2 per trial: np.arctan2 differs from it in the last ulp
            ss_phase = np.array(list(map(math.atan2, im.tolist(), re.tolist())))
            ss_phase[ss_gain == 0.0] = 0.0
            g_m = gains[:, m]
            yield m, phase_shifts[:, m] - ss_phase, g_m + ss_gain, 2.0 * np.sqrt(g_m * ss_gain)

    return phases, stages()


def _gain_sums(gains: np.ndarray):
    """Sum of the gains and the cross term, sqrt(g_i g_j) over ordered
    pairs i != j, over the last axis of ``gains``. A scenario's gains keep
    both finite: their (sum of sqrt(g))**2 = total + cross is at most 2**511."""
    total = np.sum(gains, axis=-1)
    return total, _aligned_sums(gains) - total


def _bound(total, cross, n_intervals: int):
    """The efficiency lower bound from gain sums (floats or trial arrays):
    every cross term discounted by cos^2 of the worst-case phase error
    pi/2**n_intervals."""
    _check_budget(n_intervals)
    # ldexp, not pi / 2.0 ** n: the power overflows from n = 1024
    worst = math.cos(math.ldexp(math.pi, -n_intervals)) ** 2
    return (total + cross * worst) / (total + cross)


def efficiency_lower_bound(s: Scenario, n_intervals: int) -> float:
    """Worst-case delivered/optimal power ratio for a per-stage budget.

    Every pairwise interference term is discounted by the squared cosine of
    the worst-case per-stage phase error pi/2**n_intervals; the ratio is
    scale-free, so power and efficiency factors cancel.
    """
    total, cross = map(float, _gain_sums(s.gains))
    return _bound(total, cross, n_intervals)


def efficiency_lower_bounds(stack: TrialStack, n_list: Sequence[int]) -> np.ndarray:
    """:func:`efficiency_lower_bound` of every trial (rows) at every budget
    of ``n_list`` (columns), bit for bit, from one set of gain sums."""
    total, cross = _gain_sums(stack.gains)
    return np.stack([_bound(total, cross, n) for n in n_list], axis=1)


def required_intervals(s: Scenario, eta_hat: float) -> float:
    """Per-stage feedback budget guaranteeing a target efficiency.

    Returns the (real-valued) bound on the number of per-transmitter
    intervals; callers round up to an integer. A target of exactly 1 needs
    an unbounded budget (+inf). A target at or below the one-interval
    floor sum(g) / (sum(sqrt(g)))**2 is met by every budget, and gets 1.0:
    its radicand is clamped at 0, where the formula gives 1.0 anyway. The
    radicand is eta_hat less a non-negative term, so it never exceeds 1.
    """
    if not 0.0 < eta_hat <= 1.0:
        raise ValueError("eta_hat must lie in (0, 1]")
    total, cross = map(float, _gain_sums(s.gains))
    if cross == 0.0:
        # single transmitter: any assignment is optimal
        return 0.0
    radicand = max(eta_hat - (1.0 - eta_hat) * total / cross, 0.0)
    angle = math.acos(math.sqrt(radicand))
    if angle == 0.0:
        return float("inf")
    return math.log2(math.pi / angle)


def required_intervals_equal_gains(m: int, eta_hat: float) -> float:
    """:func:`required_intervals` for ``m`` identical gains."""
    return required_intervals(Scenario(1.0, 1.0, [1.0] * m, [0.0] * m), eta_hat)


def accumulated_power(gains, errors) -> float:
    """Delivered power (scale-free units) via stage-by-stage accumulation.

    Stage k+1 joins a combined signal of power equal to the running total,
    misaligned by its own phase error: q <- g + q + 2 cos(e) sqrt(g q).
    The first stage has no error term. Equals the direct pairwise form
    evaluated at phases carrying exactly those stage errors.
    """
    gains = np.asarray(gains, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if gains.shape != errors.shape:
        raise ValueError("gains and errors must have equal length")
    # Python floats: the same arithmetic as numpy scalars, without their cost
    gains, errors = gains.tolist(), errors.tolist()
    q = gains[0]
    for g, e in zip(gains[1:], errors[1:]):
        q = g + q + 2.0 * math.cos(e) * math.sqrt(g * q)
    return q


def error_bound_power(gains, errors) -> float:
    """Scale-free lower-bound expression: every interference term discounted
    by the product of its two stage-error cosines.

    The pairwise sum over i != j of sqrt(g_i g_j) cos(e_i) cos(e_j) is
    (sum sqrt(g) cos e)^2 - sum g cos^2 e, so the total is
    sum g sin^2 e + (sum sqrt(g) cos e)^2: two non-negative terms.
    """
    gains = np.asarray(gains, dtype=float)
    errors = np.asarray(errors, dtype=float)
    # add.reduce is the reduction np.sum runs, without its wrapper
    aligned = float(np.add.reduce(np.sqrt(gains) * np.cos(errors)))
    return float(np.add.reduce(gains * np.sin(errors) ** 2)) + aligned * aligned


def check_induction_inequality(
    s: Scenario, errors
) -> tuple[bool, float]:
    """Verify that accumulated power dominates the error-discounted bound.

    Returns (holds within 1e-9 slack, accumulated - bound). The guarantee
    is meaningful when every error magnitude is at most pi/2, where all
    cosines are non-negative; the first entry of ``errors`` should be 0
    for the equality case with two transmitters.
    """
    lhs = accumulated_power(s.gains, errors)
    rhs = error_bound_power(s.gains, errors)
    slack = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return slack >= -1e-9 * scale, slack
