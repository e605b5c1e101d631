"""Sequential distributed beamforming protocol and its closed-form bounds.

Transmitter 1 fixes an arbitrary reference phase; every later transmitter
in turn aligns to the combined signal of the already-fixed ones via the
one-bit bisection, then keeps transmitting. The delivered power, its
efficiency against the optimum, a worst-case lower bound on that
efficiency, and the feedback budget needed for a target efficiency all
have closed forms that this module implements and cross-checks.
"""

from __future__ import annotations

import io
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .angles import wrap_angle
from .adapt import CONVERGENCE_FLOOR, TrainingTrace, _train_stage, initial_arc
from .channel import Scenario
from .power import (
    EXACT,
    MeasurementModel,
    PhaseAssignment,
    SumSignal,
    TrialStack,
    aligned_phase,
    harvested_power,
    optimal_power,
    sum_signal,
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

    def summary_csv(self, bound: float | None = None, bound_name: str = "bound") -> str:
        m = len(self.final_phases)
        n = (
            self.total_feedback_intervals // (m - 1)
            if m > 1
            else 0
        )
        if bound is None:
            bound = float("nan")
        max_err = float(np.max(np.abs(self.errors))) if m > 1 else 0.0
        out = io.StringIO()
        out.write(f"M,N,Q_d,Q_star,eta,{bound_name},max_abs_error\n")
        out.write(
            f"{m},{n},{self.q_d:.15g},{self.q_star:.15g},"
            f"{self.eta:.15g},{bound:.15g},{max_err:.15g}\n"
        )
        return out.getvalue()


def run_protocol(
    s: Scenario,
    n_intervals: int,
    meas: MeasurementModel = EXACT,
    first_phase: float = 0.0,
) -> ProtocolResult:
    """Run the sequential protocol with ``n_intervals`` per transmitter.

    Consumes n_intervals * (M - 1) feedback intervals in total. The probe
    lattice of every stage is rotated by ``first_phase`` so that choosing a
    different reference phase reproduces the same run rotated rigidly.

    Each stage trains against a running phasor sum of the transmitters
    fixed before it, which equals ``sum_signal`` over that prefix bit for
    bit.
    """
    m_total = s.num_transmitters
    if m_total < 2:
        raise ValueError("protocol needs at least two transmitters")
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    if not math.isfinite(first_phase):
        raise ValueError(f"first_phase must be finite, got {first_phase}")
    phases = np.zeros(m_total)
    phases[0] = wrap_angle(first_phase)
    traces: list[TrainingTrace] = []
    targets = np.zeros(m_total)
    errors = np.zeros(m_total)
    amp = np.sqrt(s.gains)
    re = im = None
    for m in range(1, m_total):
        re, im = _add_phasor(re, im, amp[m - 1], s.phase_shifts[m - 1], phases[m - 1])
        x, y = float(re), float(im)    # the Python floats sum_signal returns
        gain = x * x + y * y
        ss = SumSignal(gain, math.atan2(y, x)) if gain != 0.0 else SumSignal(0.0, 0.0)
        phi_m, trace = _train_stage(s, ss, m, n_intervals, meas, first_phase, 1)
        phases[m] = phi_m
        traces.append(trace)
        targets[m] = trace.target_phase
        errors[m] = wrap_angle(phi_m - trace.target_phase)
    q_d = harvested_power(s, PhaseAssignment(phases=phases.copy()))
    q_star = optimal_power(s)
    if not 0.0 < q_star < math.inf:
        raise ValueError(f"optimal power is {q_star}, so the efficiency Q_d / Q* is undefined")
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
    measurement, for stacked scenarios (:func:`~distbeam.power.stack_scenarios`).

    Returns a (T, M) and a (T, N*(M-1)) array, one row per trial; the
    powers are the runs' ``TrainingTrace.interval_powers``, stage after
    stage. Every stage replays the scalar path's arithmetic over the trial
    axis: the running phasor sum adds transmitter m-1 as ``run_protocol``
    does, a zero combined gain reduces to ``SumSignal(0, 0)``, and each
    interval compares the two ``partial_power`` probes, scaled by each
    scenario's ``conversion_eff * transmit_power``, and bisects the
    (center, half-width) arc, which is still probed but stops moving at
    ``CONVERGENCE_FLOOR``. The half-width is the same in every trial.
    Memory is O(T*N*M).
    """
    gains, phase_shifts, power_scale = stack
    trials, m_total = gains.shape
    if m_total < 2:
        raise ValueError("protocol needs at least two transmitters")
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    phases = np.zeros((trials, m_total))        # transmitter 0 keeps phase 0
    powers = np.empty((trials, n_intervals * (m_total - 1)))
    amp = np.sqrt(gains)
    arc = initial_arc()
    re = im = None
    for m in range(1, m_total):
        re, im = _add_phasor(re, im, amp[:, m - 1], phase_shifts[:, m - 1], phases[:, m - 1])
        ss_gain = re * re + im * im
        # math.atan2 per trial: np.arctan2 differs from it in the last ulp
        ss_phase = np.array([math.atan2(y, x) for y, x in zip(im.tolist(), re.tolist())])
        ss_phase[ss_gain == 0.0] = 0.0
        target = phase_shifts[:, m] - ss_phase
        g_m = gains[:, m]
        base = g_m + ss_gain
        swing = 2.0 * np.sqrt(g_m * ss_gain)
        center = np.full(trials, arc.center)
        half = arc.half_width
        for k in range((m - 1) * n_intervals, m * n_intervals):
            off = math.pi / 2.0 if half == math.pi else half
            q_psi = power_scale * (base + swing * np.cos(wrap_angle(center + off) - target))
            q_psi_prime = power_scale * (base + swing * np.cos(wrap_angle(center - off) - target))
            powers[:, k] = 0.5 * (q_psi + q_psi_prime)
            if half > CONVERGENCE_FLOOR:
                shift = np.where(q_psi >= q_psi_prime, half / 2.0, -half / 2.0)
                center = wrap_angle(center + shift)
                half /= 2.0
        phases[:, m] = center
    return phases, powers


def _add_phasor(re, im, amp, phase_shift, phase):
    """Add one fixed transmitter's phasor to a running sum (``None`` starts
    one), left to right like ``sum_signal``'s ``cumsum``: the first term
    starts the sum, so even a signed zero matches. Scalars or trial arrays."""
    delta = phase_shift - phase
    dre = amp * np.cos(delta)
    dim = amp * np.sin(delta)
    if re is None:
        return dre, dim
    return re + dre, im + dim


def _prefix_target(s: Scenario, phases: np.ndarray, m: int) -> float:
    """Stage m's optimum: the aligned phase against transmitters 0..m-1."""
    prefix = np.arange(s.num_transmitters) < m
    return aligned_phase(s, sum_signal(s, PhaseAssignment(phases, prefix)), m)


def phase_errors(result: ProtocolResult, s: Scenario) -> np.ndarray:
    """Recompute per-stage phase errors from the final phases.

    Stage m's optimum depends only on the phases fixed before it, which the
    sequential protocol never revisits, so replaying the prefix sums
    reproduces the targets recorded during the run. The first transmitter
    has no target and its error is zero by convention.
    """
    phases = result.final_phases
    errors = np.zeros(s.num_transmitters)
    for m in range(1, s.num_transmitters):
        errors[m] = wrap_angle(phases[m] - _prefix_target(s, phases, m))
    return errors


def _gain_sums(gains: np.ndarray):
    """Sum of the gains and the cross term, sqrt(g_i g_j) over ordered
    pairs i != j, over the last axis of ``gains``."""
    amp = np.sqrt(gains)
    total = np.sum(gains, axis=-1)
    return total, np.sum(amp[..., :, None] * amp[..., None, :], axis=(-2, -1)) - total


def _bound(total, cross, n_intervals: int):
    """The efficiency lower bound from gain sums (floats or trial arrays):
    every cross term discounted by cos^2 of the worst-case phase error
    pi/2**n_intervals."""
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
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
    return required_intervals(Scenario.from_arrays(1.0, 1.0, 1.0, [1.0] * m, [0.0] * m), eta_hat)


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
    for m in range(1, m_total):
        phases[m] = wrap_angle(_prefix_target(s, phases, m) + errors[m])
    return phases
