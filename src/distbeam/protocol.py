"""Sequential distributed beamforming protocol and its closed-form bounds.

Transmitter 1 fixes an arbitrary reference phase; every later transmitter
in turn aligns to the combined signal of the already-fixed ones via the
one-bit bisection, then keeps transmitting. The delivered power, its
efficiency against the optimum, a worst-case lower bound on that
efficiency, and the feedback budget needed for a target efficiency all
have closed forms that this module implements and cross-checks.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .angles import wrap_angle
from .adapt import TrainingTrace, _check_budget, _final_centres, _interval_loop, _train_stage
from .channel import Scenario
from .power import (
    EXACT,
    MeasurementModel,
    PhaseAssignment,
    TrialStack,
    _phasor_signal,
    aligned_phase,
    checked_optima,
    harvested_power,
    optimal_power,
)


class InfeasibleEfficiencyTarget(ValueError):
    """The required-interval formula has no real solution for this target."""


@dataclass
class ProtocolResult:
    """Outcome of one full sequential run."""

    final_phases: np.ndarray
    q_d: float
    q_star: float
    eta: float
    traces: list[TrainingTrace]
    target_phases: np.ndarray        # per-stage optima recorded during the run
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
    fixed before it (:func:`_prefix_sums`). A noisy ``meas`` gives the
    run's 2 * n_intervals * (M - 1) noise values in one draw from its
    generator, in stage order, and each stage reads its 2 * n_intervals of
    them; one draw of n values equals n single draws, so every reading and
    the generator's final state are those of a draw per stage.
    """
    m_total = s.num_transmitters
    _check_run(m_total, n_intervals)
    q_star = optimal_power(s)
    checked_optima(np.array([q_star]), np.array([s.power_scale]), ["the scenario"])
    phases = np.zeros(m_total)
    traces: list[TrainingTrace] = []
    targets = np.zeros(m_total)
    errors = np.zeros(m_total)
    noise = (meas.rng.normal(0.0, meas.noise_std, size=(m_total - 1, 2 * n_intervals))
             if meas.noisy else None)
    for m, (re, im) in enumerate(_prefix_sums(s.gains, s.phase_shifts, phases), 1):
        phi_m, trace = _train_stage(s, _phasor_signal(re, im), m, n_intervals,
                                    None if noise is None else noise[m - 1].tolist(), 1)
        phases[m] = phi_m
        traces.append(trace)
        targets[m] = trace.target_phase
        errors[m] = wrap_angle(phi_m - trace.target_phase)
    q_d = harvested_power(s, PhaseAssignment(phases))
    return ProtocolResult(
        final_phases=phases,
        q_d=q_d,
        q_star=q_star,
        eta=q_d / q_star,
        traces=traces,
        target_phases=targets,
        errors=errors,
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
    phases, stages = _stages(stack, n_intervals)
    powers = np.empty((len(phases), n_intervals * (phases.shape[1] - 1)))
    for m, target, base, swing in stages:
        intervals = _interval_loop(target, base, swing, stack.scale, n_intervals)
        for k, (q_psi, q_psi_prime, center) in enumerate(intervals, (m - 1) * n_intervals):
            powers[:, k] = 0.5 * (q_psi + q_psi_prime)
        phases[:, m] = center
    return phases, powers


def exact_phases(stack: TrialStack, n_intervals: int) -> np.ndarray:
    """The final phases of :func:`exact_runs`, bit for bit, each stage's
    from :func:`~distbeam.adapt._final_centres`: in closed form where that
    is sure to agree, else by the interval loop."""
    phases, stages = _stages(stack, n_intervals)
    for m, target, base, swing in stages:
        phases[:, m] = _final_centres(target, base, swing, stack.scale, n_intervals)
    return phases


def _stages(stack: TrialStack, n_intervals: int):
    """Check the run's shape; return the (T, M) phase array, transmitter 0
    at phase 0, and an iterator over stages m = 1..M-1 of (m, target, base,
    swing): the stage's optimal phase and the two terms of its probe powers
    base + swing * cos(probe - target), before the power scale. The running
    phasor sum (:func:`_prefix_sums`) reads the phases the caller writes
    for the earlier stages, and a zero sum reduces to ``SumSignal(0, 0)``,
    as in :func:`run_protocol`."""
    gains, phase_shifts, _ = stack
    trials, m_total = gains.shape
    _check_run(m_total, n_intervals)
    phases = np.zeros((trials, m_total))

    def stages():
        for m, (re, im) in enumerate(_prefix_sums(gains, phase_shifts, phases), 1):
            ss_gain = re * re + im * im
            # math.atan2 per trial: np.arctan2 differs from it in the last ulp
            ss_phase = np.array(list(map(math.atan2, im.tolist(), re.tolist())))
            ss_phase[ss_gain == 0.0] = 0.0
            g_m = gains[:, m]
            yield m, phase_shifts[:, m] - ss_phase, g_m + ss_gain, 2.0 * np.sqrt(g_m * ss_gain)

    return phases, stages()


def _prefix_sums(gains, phase_shifts, phases):
    """Yield stage m's conjugate phasor sum (re, im) of transmitters 0..m-1,
    for m = 1..M-1, over the last axis of one scenario's or a trial stack's
    arrays. ``phases[..., m-1]`` is read only when stage m is reached. Terms
    add left to right from the first, as ``sum_signal``'s ``cumsum`` does,
    so the sums equal it bit for bit, signed zeros included."""
    # views, so the caller's writes show; a row index keeps a scenario's scalars
    amp, shifts, phases = np.sqrt(gains).T, phase_shifts.T, phases.T
    re = im = None
    for m in range(1, len(amp)):
        a, delta = amp[m - 1], shifts[m - 1] - phases[m - 1]
        dre, dim = a * np.cos(delta), a * np.sin(delta)
        re, im = (dre, dim) if re is None else (re + dre, im + dim)
        yield re, im


def phase_errors(result: ProtocolResult, s: Scenario) -> np.ndarray:
    """Recompute per-stage phase errors from the final phases, in O(M).

    Stage m's optimum depends only on the phases fixed before it, which the
    sequential protocol never revisits, so replaying the run's prefix sums
    reproduces the targets it recorded bit for bit. The first transmitter
    has no target and its error is zero by convention.
    """
    phases = result.final_phases
    errors = np.zeros(s.num_transmitters)
    for m, (re, im) in enumerate(_prefix_sums(s.gains, s.phase_shifts, phases), 1):
        errors[m] = wrap_angle(phases[m] - aligned_phase(s, _phasor_signal(re, im), m))
    return errors


def _gain_sums(gains: np.ndarray):
    """Sum of the gains and the cross term, sqrt(g_i g_j) over ordered
    pairs i != j, over the last axis of ``gains``. A scenario's gains keep
    both finite: their (sum of sqrt(g))**2 = total + cross is at most 2**511."""
    amp = np.sqrt(gains)
    total = np.sum(gains, axis=-1)
    cross = np.sum(amp[..., :, None] * amp[..., None, :], axis=(-2, -1)) - total
    return total, cross


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
    an unbounded budget (+inf). Targets too low for the formula's arccos
    domain raise :class:`InfeasibleEfficiencyTarget`.
    """
    if not 0.0 < eta_hat <= 1.0:
        raise ValueError("eta_hat must lie in (0, 1]")
    total, cross = map(float, _gain_sums(s.gains))
    if cross == 0.0:
        # single transmitter: any assignment is optimal
        return 0.0
    radicand = eta_hat - (1.0 - eta_hat) * total / cross
    if radicand < 0.0 or radicand > 1.0:
        raise InfeasibleEfficiencyTarget(
            f"target efficiency {eta_hat} is outside the formula's domain "
            f"(radicand {radicand:.6g})"
        )
    angle = math.acos(math.sqrt(radicand))
    if angle == 0.0:
        return float("inf")
    return math.log2(math.pi / angle)


def required_intervals_equal_gains(m: int, eta_hat: float) -> float:
    """:func:`required_intervals` for ``m`` identical gains."""
    return required_intervals(Scenario(1.0, 1.0, 1.0, [1.0] * m, [0.0] * m), eta_hat)


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
    q = gains[0]
    for g, e in zip(gains[1:], errors[1:]):
        q = g + q + 2.0 * math.cos(e) * math.sqrt(g * q)
    return float(q)


def error_bound_power(gains, errors) -> float:
    """Scale-free lower-bound expression: every interference term discounted
    by the product of its two stage-error cosines.

    The pairwise sum over i != j of sqrt(g_i g_j) cos(e_i) cos(e_j) is
    (sum sqrt(g) cos e)^2 - sum g cos^2 e, so the total is
    sum g sin^2 e + (sum sqrt(g) cos e)^2: two non-negative terms.
    """
    gains = np.asarray(gains, dtype=float)
    errors = np.asarray(errors, dtype=float)
    aligned = float(np.sum(np.sqrt(gains) * np.cos(errors)))
    return float(np.sum(gains * np.sin(errors) ** 2)) + aligned * aligned


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


def phases_from_errors(s: Scenario, errors) -> np.ndarray:
    """Construct transmit phases whose stage-by-stage misalignments are
    exactly ``errors`` (first entry ignored; the reference phase is 0)."""
    m_total = s.num_transmitters
    errors = np.asarray(errors, dtype=float)
    if len(errors) != m_total:
        raise ValueError("need one error per transmitter")
    phases = np.zeros(m_total)
    for m, (re, im) in enumerate(_prefix_sums(s.gains, s.phase_shifts, phases), 1):
        phases[m] = wrap_angle(aligned_phase(s, _phasor_signal(re, im), m) + errors[m])
    return phases
