"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own computation paths:
powers are recomputed from complex amplitude sums or by integrating the
carrier waveform over one period, and optima are located by brute-force
grid search. Where the library replaces a loop by array operations with
the same arithmetic, the loop is kept here as the bit-for-bit reference.
"""

import cmath
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from distbeam import (
    PhaseAssignment,
    Scenario,
    ScenarioDistribution,
    generate_scenario,
    ProtocolResult,
    harvested_power,
    optimal_power,
    run_protocol,
)
from distbeam import adapt, protocol, selfcheck
from distbeam.adapt import (
    CONVERGENCE_FLOOR,
    Arc,
    ProbePair,
    TrainingTrace,
    feedback_bit,
    initial_arc,
)
from distbeam.angles import wrap_angle
from distbeam.baseline import DIST_UNIFORM, BaselineTrace
from distbeam.experiments import (
    _protocol_trajectory,
    EXPERIMENT_KEYS,
    EXPERIMENTS,
    OVERHEAD_POLICIES,
    Curve,
    rng_stream,
)
from distbeam.power import (
    EXACT,
    SumSignal,
    TrialStack,
    _phasor_power,
    _phasor_signal,
    _prefix_sums,
    aligned_phase,
    measure,
    partial_power,
    sum_signal,
)
from distbeam.protocol import efficiency_lower_bound, exact_runs


def phasor_power(s: Scenario, pa: PhaseAssignment) -> float:
    """Harvested power via the complex amplitude sum."""
    z = 0j
    for i in np.flatnonzero(pa.active):
        z += math.sqrt(s.gains[i]) * cmath.exp(1j * (pa.phases[i] - s.phase_shifts[i]))
    return s.conversion_eff * s.transmit_power * abs(z) ** 2


def time_domain_power(s: Scenario, pa: PhaseAssignment, samples: int = 64) -> float:
    """Harvested power by averaging the squared received waveform over one
    carrier period (periodic uniform sampling is exact for the degree-2
    trigonometric polynomial |r(t)|^2 once samples > 4). The frequency
    cancels from the average, so a scenario carries none and any one
    serves."""
    carrier_freq = 915e6
    period = 1.0 / carrier_freq
    t = np.arange(samples) * (period / samples)
    r = np.zeros(samples)
    for i in np.flatnonzero(pa.active):
        r += math.sqrt(s.gains[i]) * np.cos(
            2.0 * math.pi * carrier_freq * t + pa.phases[i] - s.phase_shifts[i]
        )
    r *= math.sqrt(2.0 * s.transmit_power)
    return s.conversion_eff * float(np.mean(r * r))


def phase_errors(result: ProtocolResult, s: Scenario) -> np.ndarray:
    """Recompute per-stage phase errors from the final phases, in O(M).

    Stage m's optimum depends only on the phases fixed before it, which the
    sequential protocol never revisits, so replaying the run's prefix sums
    reproduces the targets it recorded bit for bit. The first transmitter
    has no target and its error is zero by convention.
    """
    phases = result.final_phases
    errors = np.zeros(s.num_transmitters)
    sums = _prefix_sums(s.gains[:-1], s.phase_shifts[:-1], phases[:-1])
    for m, (re, im) in enumerate(sums, 1):
        errors[m] = wrap_angle(phases[m] - aligned_phase(s, _phasor_signal(re, im), m))
    return errors


def phases_from_errors(s: Scenario, errors) -> np.ndarray:
    """Construct transmit phases whose stage-by-stage misalignments are
    exactly ``errors`` (first entry ignored; the reference phase is 0)."""
    m_total = s.num_transmitters
    errors = np.asarray(errors, dtype=float)
    if len(errors) != m_total:
        raise ValueError("need one error per transmitter")
    phases = np.zeros(m_total)
    sums = _prefix_sums(s.gains[:-1], s.phase_shifts[:-1], phases[:-1])
    for m, (re, im) in enumerate(sums, 1):
        phases[m] = wrap_angle(aligned_phase(s, _phasor_signal(re, im), m) + errors[m])
    return phases


def pairwise_error_bound(gains, errors) -> float:
    """Error-discounted power as the explicit pairwise double sum: every
    gain plus sqrt(g_i g_j) cos(e_i) cos(e_j) over ordered pairs i != j."""
    total = sum(float(g) for g in gains)
    for i, (g_i, e_i) in enumerate(zip(gains, errors)):
        for j, (g_j, e_j) in enumerate(zip(gains, errors)):
            if i != j:
                total += math.sqrt(g_i * g_j) * math.cos(e_i) * math.cos(e_j)
    return total


def channel_by_channel_scenario(dist: ScenarioDistribution, rng):
    """Scenario generation one link at a time: both uniform draws, then each
    gain as a numpy-scalar power of its distance and each phase wrapped by
    the scalar ``wrap_angle``, the links' gains and phases passed to
    ``Scenario`` as two lists. Returns the scenario and the distances."""
    m = dist.num_transmitters
    lo, hi = dist.distance_range
    distances = rng.uniform(lo, hi, size=m)
    phase_shifts = rng.uniform(-math.pi, math.pi, size=m)
    gains = [dist.ref_attenuation * (r / dist.ref_distance) ** (-dist.path_loss_exponent)
             for r in distances]
    phases = [wrap_angle(float(th)) for th in phase_shifts]
    scen = Scenario(dist.transmit_power, dist.conversion_eff, gains, phases)
    return scen, distances


def where_wrap(x: np.ndarray) -> np.ndarray:
    """The array wrap as ``np.where`` over fresh temporaries."""
    w = np.mod(x + math.pi, 2.0 * math.pi) - math.pi
    return np.where(w >= math.pi, w - 2.0 * math.pi, w)


def full_matrix_pair_sum(amp: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """The pairwise kernel over the full M x M matrix: ``np.cos`` of every
    ordered difference offs_i - offs_j, weighted by amp_i amp_j and summed
    per M x M block."""
    pair = amp[..., :, None] * amp[..., None, :] * np.cos(offs[..., :, None] - offs[..., None, :])
    return pair.sum(axis=(-2, -1))


def csv_number(x) -> str:
    """One CSV value by the writer's rules, with %-formatting: an int
    exactly, a bool as 0 or 1, an integer-valued float as an int, any other
    float (-0.0, NaN and infinities included) as %.15g."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if type(x) is int:
        return "%d" % x
    x = float(x)
    if math.isfinite(x) and x == math.floor(x):
        return "%d" % x
    return "%.15g" % x


def per_row_write(result, out_dir) -> list[Path]:
    """``ExperimentResult.write`` one row at a time: each curve's x through
    :func:`csv_number`, its mean and standard error as %.15g, row after row."""
    base = Path(out_dir) / result.experiment
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (xs, means, stderrs) in result.curves.items():
        path = base / f"{name}.csv"
        with open(path, "w") as fh:
            fh.write(f"{result.x_name},mean,stderr\n")
            for x, mean, se in zip(xs, means.tolist(), stderrs.tolist()):
                fh.write("%s,%.15g,%.15g\n" % (csv_number(x), mean, se))
        written.append(path)
    meta_path = base / "metadata.json"
    with open(meta_path, "w") as fh:
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)
    return written


def per_row_trace_csv(trace: TrainingTrace) -> str:
    """``TrainingTrace.to_csv`` one interval at a time."""
    out = io.StringIO()
    out.write("n,psi,psi_prime,q_psi,q_psi_prime,bit,arc_center,arc_half_width\n")
    rows = zip(trace.psi, trace.psi_prime, trace.q_psi, trace.q_psi_prime, trace.bit,
               trace.arc_center, trace.arc_half_width)
    for n, (psi, psi_prime, q_psi, q_psi_prime, bit, center, half) in enumerate(rows, start=1):
        out.write(f"{n},{psi:.15g},{psi_prime:.15g},{q_psi:.15g},{q_psi_prime:.15g},"
                  f"{int(bit)},{center:.15g},{half:.15g}\n")
    return out.getvalue()


def per_row_baseline_csv(trace: BaselineTrace) -> str:
    """``BaselineTrace.to_csv`` one interval at a time."""
    out = io.StringIO()
    out.write("n,power,best_power,accepted\n")
    for n in range(len(trace.measured_power)):
        out.write(f"{n + 1},{trace.measured_power[n]:.15g},"
                  f"{trace.best_power[n]:.15g},{int(trace.accepted[n])}\n")
    return out.getvalue()


def per_interval_perturbation(s: Scenario, cfg, meas, rng) -> BaselineTrace:
    """The random-perturbation baseline one interval at a time: draw a step,
    read the candidate's row alone through ``_phasor_power``, add its noise
    through ``measure`` (one draw from ``meas.rng`` per reading, in order),
    keep it on a strict improvement."""
    m = s.num_transmitters
    amp = np.sqrt(s.gains)

    def reading(phases):
        return measure(meas, float(_phasor_power(amp, phases, s.phase_shifts, s.power_scale)))

    best = np.zeros(m)
    best_power = reading(best)
    t = cfg.max_intervals
    cand_hist = np.zeros((t, m))
    meas_hist = np.zeros(t)
    best_hist = np.zeros(t)
    acc_hist = np.zeros(t, dtype=bool)
    for n in range(t):
        if cfg.distribution == DIST_UNIFORM:
            step = rng.uniform(-cfg.scale, cfg.scale, size=m)
        else:
            step = rng.normal(0.0, cfg.scale, size=m)
        cand = wrap_angle(best + step)
        p = reading(cand)
        if p > best_power:
            best = cand
            best_power = p
            acc_hist[n] = True
        cand_hist[n] = cand
        meas_hist[n] = p
        best_hist[n] = best_power
    return BaselineTrace(cand_hist, meas_hist, best_hist, acc_hist, best)


#: The per-interval columns of a ``TrainingTrace``, in field order
TRACE_COLUMNS = ("psi", "psi_prime", "q_psi", "q_psi_prime", "bit", "arc_center", "arc_half_width")


def trace_columns(trace: TrainingTrace) -> list[tuple]:
    """A trace's per-interval columns, in field order."""
    return [getattr(trace, name) for name in TRACE_COLUMNS]


def plain_probe_pair(arc: Arc) -> ProbePair:
    """``adapt.probe_pair`` computed afresh on every call, without the
    library's stored bisection tree."""
    center, half_width = arc
    off = math.pi / 2.0 if half_width == math.pi else half_width
    return ProbePair(wrap_angle(center + off), wrap_angle(center - off))


def plain_bisect_arc(arc: Arc, bit: bool) -> Arc:
    """``adapt.bisect_arc`` computed afresh on every call, without the
    library's stored bisection tree."""
    center, half_width = arc
    if half_width <= CONVERGENCE_FLOOR:
        return arc
    half = half_width / 2.0
    return Arc(center + half if bit else center - half, half)


def depth_first_tree() -> tuple[dict[int, tuple], list[Arc], np.ndarray]:
    """``adapt``'s bisection tree as it was built before its one level-order
    build: a depth-first recursion from the full circle into an
    identity-keyed store of entries (node, probe pair, child on bit False,
    on bit True), by :func:`plain_probe_pair` and :func:`plain_bisect_arc`;
    then a breadth-first walk of that store for the nodes in level order
    and their centres."""
    tree = {}

    def grow(arc, depth):
        children = ((plain_bisect_arc(arc, False), plain_bisect_arc(arc, True))
                    if depth < adapt._TREE_DEPTH else (None, None))
        tree[id(arc)] = (arc, plain_probe_pair(arc), *children)
        if depth < adapt._TREE_DEPTH:
            for child in children:
                grow(child, depth + 1)

    grow(initial_arc(), 0)
    levels = [[initial_arc()]]
    for _ in range(adapt._TREE_DEPTH):
        levels.append([tree[id(arc)][child] for arc in levels[-1] for child in (2, 3)])
    nodes = [arc for level in levels for arc in level]
    return tree, nodes, np.array([arc.center for arc in nodes])


def item_partial_power(s: Scenario, ss: SumSignal, m: int, phi_m: float) -> float:
    """``partial_power`` with the link read from the scenario's arrays by
    ``ndarray.item``, in the same arithmetic order."""
    g_m = s.gains.item(m)
    target = s.phase_shifts.item(m) - ss.phase_shift
    q = g_m + ss.gain + 2.0 * math.sqrt(g_m * ss.gain) * math.cos(phi_m - target)
    return s.power_scale * q


def item_aligned_phase(s: Scenario, ss: SumSignal, m: int) -> float:
    """``aligned_phase`` with the phase shift read by ``ndarray.item``."""
    return wrap_angle(s.phase_shifts.item(m) - ss.phase_shift) if ss.gain > 0.0 else 0.0


def per_interval_grid_violations(trace: TrainingTrace, grid_size: int) -> int:
    """``selfcheck.grid_oracle_violations`` one interval at a time, on 1-D
    arrays over the grid."""
    tol = 1e-9
    grid = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    prev_center, prev_half = initial_arc().center, initial_arc().half_width
    bad = 0
    for psi, psi_prime, bit, new_center, new_half in zip(
            trace.psi, trace.psi_prime, trace.bit, trace.arc_center, trace.arc_half_width):
        if new_half != prev_half / 2.0:
            bad += 1  # not an exact halving
        d_prev = np.abs(wrap_angle(grid - prev_center))
        d_new = np.abs(wrap_angle(grid - new_center))
        bad += int(((d_new < new_half - tol) & (d_prev > prev_half + tol)).sum())
        lhs = np.cos(grid - psi)
        rhs = np.cos(grid - psi_prime)
        interior = d_prev < prev_half - tol        # previous-set interior only
        decisive = np.abs(lhs - rhs) > tol         # comparison not a tie
        off_boundary = np.abs(d_new - new_half) > tol
        kept = d_new < new_half
        should_keep = (lhs > rhs) == bit
        wrong = interior & decisive & off_boundary & (kept != should_keep)
        bad += int(wrong.sum())
        prev_center, prev_half = new_center, new_half
    return bad


def per_reading_adapt_phase(s: Scenario, pa: PhaseAssignment, m: int, n_intervals: int,
                            meas=EXACT):
    """The bisection stage one reading at a time: ``sum_signal`` over the
    active set, one ``measure`` per reading, and ``Arc`` objects probed and
    bisected by :func:`plain_probe_pair` and :func:`plain_bisect_arc`."""
    ss = sum_signal(s, pa)
    target = aligned_phase(s, ss, m)
    arc = initial_arc()

    def read(phase: float) -> float:
        # + 0.0 maps a -0.0 power to 0.0: a reading is never -0.0
        return measure(meas, partial_power(s, ss, m, phase)) + 0.0

    rows = []
    for _ in range(n_intervals):
        psi, psi_prime = plain_probe_pair(arc)
        q_psi = read(psi)
        q_psi_prime = read(psi_prime)
        bit = feedback_bit(q_psi, q_psi_prime)
        arc = plain_bisect_arc(arc, bit)
        rows.append((psi, psi_prime, q_psi, q_psi_prime, bit, arc.center, arc.half_width))
    trace = TrainingTrace(*zip(*rows), target_phase=target if ss.gain > 0.0 else 0.0,
                          sum_gain=ss.gain)
    return arc.center, trace


def per_stage_protocol(s: Scenario, n_intervals: int, meas=EXACT):
    """The sequential protocol re-summing the fixed prefix at every stage:
    a fresh ``PhaseAssignment`` per stage, trained by
    :func:`per_reading_adapt_phase`."""
    m_total = s.num_transmitters
    phases = np.zeros(m_total)
    active = np.zeros(m_total, dtype=bool)
    active[0] = True
    traces = []
    errors = np.zeros(m_total)
    for m in range(1, m_total):
        pa = PhaseAssignment(phases=phases.copy(), active=active.copy())
        phi_m, trace = per_reading_adapt_phase(s, pa, m, n_intervals, meas)
        phases[m] = phi_m
        active[m] = True
        traces.append(trace)
        errors[m] = wrap_angle(phi_m - trace.target_phase)
    q_d = harvested_power(s, PhaseAssignment(phases=phases.copy()))
    q_star = optimal_power(s)
    return ProtocolResult(phases, q_d, q_star, q_d / q_star, traces, errors,
                          n_intervals * (m_total - 1))


def stack_scenarios(scenarios) -> TrialStack:
    """One ``TrialStack`` row per scenario, in order."""
    return TrialStack(np.array([s.gains for s in scenarios], dtype=float),
                      np.array([s.phase_shifts for s in scenarios], dtype=float),
                      np.array([s.power_scale for s in scenarios]))


def per_trial_stack(dist: ScenarioDistribution, seed: int, *path: int, trials: int) -> TrialStack:
    """``streams.trial_stack`` one trial at a time: one ``rng_stream``
    generator and one ``generate_scenario`` call per trial, stacked."""
    return stack_scenarios([generate_scenario(dist, rng_stream(seed, *path, t))[0]
                            for t in range(trials)])


def assert_curves_equal(got: dict[str, Curve], want: dict[str, Curve]):
    """Same curve names in the same order, each with the same x values and
    types and the same means and standard errors, bit for bit."""
    assert list(got) == list(want)
    for name, (xs, means, stderrs) in want.items():
        assert [(type(x), x) for x in got[name].xs] == [(type(x), x) for x in xs], name
        assert got[name].means.tobytes() == means.tobytes(), name
        assert got[name].stderrs.tobytes() == stderrs.tobytes(), name


#: The keys every experiment reads: the seed, the two run settings and the
#: seven scenario fields
SHARED_KEYS = ("seed", "workers", "out_dir", "ref_attenuation", "ref_distance",
               "path_loss_exponent", "distance_min", "distance_max", "transmit_power",
               "conversion_eff")


def read_keys(experiment: str) -> set[str]:
    """The keys ``experiment`` reads: the shared ones and its own."""
    return set(SHARED_KEYS) | set(EXPERIMENT_KEYS[experiment])


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the mean of one column, as
    ``experiments._averaged`` takes them for every column at once.

    Both are taken of the values scaled by the power of two that puts the
    largest magnitude in [0.5, 1), then scaled back, so squared deviations
    cannot overflow. Power-of-two scaling is exact for normal numbers.
    """
    _, e = math.frexp(float(np.max(np.abs(values))))
    unit = np.ldexp(values, -e)
    mean = math.ldexp(float(np.mean(unit)), e)
    if values.size < 2:
        return mean, 0.0
    return mean, math.ldexp(float(np.std(unit, ddof=1) / math.sqrt(values.size)), e)


def per_column_curve(xs, table: np.ndarray) -> Curve:
    """One ``_mean_stderr`` point per x, taken from ``table``'s column at
    that x's position (trials by len(xs))."""
    points = [_mean_stderr(table[:, j]) for j in range(len(xs))]
    return Curve(xs, np.array([mean for mean, _ in points]), np.array([se for _, se in points]))


def per_budget_phases(stack: TrialStack, n: int) -> np.ndarray:
    """``protocol.exact_phases`` at the one budget ``n``, as it ran before it
    took a budget list: the stage recursion over the trials alone, every
    row's target taken by ``math.atan2``, each stage's centres read off the
    depth-n table where ``adapt._cells`` clears a row, and the interval loop
    for min(n, ``_MOVING_INTERVALS``) intervals over the other rows, or over
    every row when n is past the tree's depth."""
    trials = len(stack.gains)
    phases, stages = protocol._stages(stack)
    for m, _, exact, base, swing in stages:
        target = exact(slice(None))
        if n <= adapt._TREE_DEPTH:
            cell, clear = adapt._cells(target, base, swing, stack.scale, n)
            centres = adapt._DEPTH_CENTRES[2 ** n - 1 + cell]
            rows = np.flatnonzero(~clear)
        else:
            centres, rows = np.empty(trials), np.arange(trials)
        if rows.size:
            for _, _, center in adapt._interval_loop(target[rows], base[rows], swing[rows],
                                                     stack.scale[rows],
                                                     min(n, adapt._MOVING_INTERVALS)):
                pass
            centres[rows] = center
        phases[:, m] = centres
    return phases


def per_run_efficiency(cfg) -> dict[str, Curve]:
    """The efficiency-vs-N sweep with per-run post-processing: the engine's
    final phases, then one ``harvested_power``, ``optimal_power`` and
    ``efficiency_lower_bound`` call per (trial, N)."""
    domain = EXPERIMENTS[cfg.experiment].domain
    curves = {}
    for m in cfg.m_list:
        dist = cfg.distribution(m)
        scens = [generate_scenario(dist, rng_stream(cfg.seed, domain, m, t))[0]
                 for t in range(cfg.trials)]
        q_star = [optimal_power(s) for s in scens]
        etas = np.zeros((cfg.trials, len(cfg.n_list)))
        bounds = np.zeros_like(etas)
        for j, n in enumerate(cfg.n_list):
            phases, _ = exact_runs(stack_scenarios(scens), n)
            for t, s in enumerate(scens):
                etas[t, j] = harvested_power(s, PhaseAssignment(phases[t])) / q_star[t]
                bounds[t, j] = efficiency_lower_bound(s, n)
        curves[f"eta_M{m}"] = per_column_curve(cfg.n_list, etas)
        curves[f"bound_M{m}"] = per_column_curve(cfg.n_list, bounds)
    return curves


def per_trial_overhead(cfg) -> dict[str, Curve]:
    """The overhead-tradeoff sweep one trial at a time: each policy runs
    ``run_protocol`` on the trial's channels sorted by falling gain and
    takes its training credit from the run's traces."""
    domain = EXPERIMENTS[cfg.experiment].domain
    (m,) = cfg.m_list
    dist = cfg.distribution(m)
    policies = [(name, m - off) for name, off in OVERHEAD_POLICIES if m - off >= 2]

    def one_trial(t):
        scen, _ = generate_scenario(dist, rng_stream(cfg.seed, domain, t))
        order = np.argsort(-scen.gains)
        per_policy = {}
        for name, m_on in policies:
            sub = Scenario(scen.transmit_power, scen.conversion_eff, scen.gains[order[:m_on]],
                           scen.phase_shifts[order[:m_on]])
            res = run_protocol(sub, cfg.n_adapt)
            t_train = res.total_feedback_intervals
            traj = _protocol_trajectory(res, t_train)
            averages = []
            for b in cfg.budgets:
                if cfg.count_training_energy:
                    credit = float(np.sum(traj[: min(b, t_train)]))
                else:
                    credit = 0.0
                credit += max(0, b - t_train) * res.q_d
                averages.append(credit / b)
            per_policy[name] = averages
        q0 = harvested_power(scen, PhaseAssignment(np.zeros(m)))
        per_policy["no_adaptation"] = [q0] * len(cfg.budgets)
        per_policy["optimal"] = [optimal_power(scen)] * len(cfg.budgets)
        return per_policy

    results = [one_trial(t) for t in range(cfg.trials)]
    return {name: per_column_curve(cfg.budgets, np.array([r[name] for r in results]))
            for name in [p[0] for p in policies] + ["no_adaptation", "optimal"]}


def per_instance_phasor_draws():
    """The phasor-oracle check's draws one instance at a time, as its loop
    made them before stacking: a (scenario, all-active assignment) pair per
    instance, in draw order."""
    rng = rng_stream(selfcheck.PHASOR_SEED, 90)
    draws = []
    for _ in range(selfcheck.PHASOR_INSTANCES):
        m = int(rng.integers(1, selfcheck.PHASOR_MAX_M + 1))
        s = random_scenario(rng, m)
        draws.append((s, PhaseAssignment(rng.uniform(-math.pi, math.pi, m))))
    return draws


def partial_power_instances():
    """The partial-power consistency check's draws one instance at a time:
    (scenario, drawn phases, joining transmitter m, active mask without m)
    per instance, in draw order."""
    rng = rng_stream(selfcheck.PARTIAL_SEED, 91)
    for _ in range(selfcheck.PARTIAL_INSTANCES):
        m_total = int(rng.integers(2, selfcheck.PARTIAL_MAX_M + 1))
        s = random_scenario(rng, m_total)
        phases = rng.uniform(-math.pi, math.pi, m_total)
        m = int(rng.integers(0, m_total))
        active = rng.random(m_total) < 0.8
        active[m] = False
        if not active.any():
            active[(m + 1) % m_total] = True
        yield s, phases, m, active


def per_instance_partial_power():
    """The partial-power consistency check one instance at a time: the
    scalar ``partial_power`` of the joining transmitter and one
    ``harvested_power`` call over the joined active set, per instance."""
    partial, joined_power = [], []
    for s, phases, m, active in partial_power_instances():
        pa = PhaseAssignment(phases.copy(), active.copy())
        ss = sum_signal(s, pa)
        partial.append(partial_power(s, ss, m, phases[m]))
        joined = active.copy()
        joined[m] = True
        joined_power.append(harvested_power(s, PhaseAssignment(phases.copy(), joined)))
    return np.array(partial), np.array(joined_power)


def induction_instances():
    """The stage-recursion check's draws one instance at a time: (scenario,
    stage errors) per instance, in draw order."""
    rng = rng_stream(selfcheck.INDUCTION_SEED, 95)
    for _ in range(selfcheck.INDUCTION_INSTANCES):
        m = int(rng.integers(2, 11))
        s = random_scenario(rng, m)
        errors = rng.uniform(-math.pi / 2, math.pi / 2, m)
        errors[0] = 0.0
        yield s, errors


def two_cumsum_sum_signal(s: Scenario, pa: PhaseAssignment) -> SumSignal:
    """``sum_signal`` with one 1-D ``np.cumsum`` of the cosine terms and one
    of the sine terms."""
    amp = np.sqrt(s.gains[pa.active])
    if amp.size == 0:
        return SumSignal(0.0, 0.0)
    delta = s.phase_shifts[pa.active] - pa.phases[pa.active]
    return _phasor_signal(np.cumsum(amp * np.cos(delta))[-1],
                          np.cumsum(amp * np.sin(delta))[-1])


def numpy_scalar_accumulated_power(gains, errors) -> float:
    """``accumulated_power``'s recursion over numpy scalars."""
    gains = np.asarray(gains, dtype=float)
    errors = np.asarray(errors, dtype=float)
    q = gains[0]
    for g, e in zip(gains[1:], errors[1:]):
        q = g + q + 2.0 * math.cos(e) * math.sqrt(g * q)
    return float(q)


def np_sum_error_bound_power(gains, errors) -> float:
    """``error_bound_power`` through ``np.sum``."""
    gains = np.asarray(gains, dtype=float)
    errors = np.asarray(errors, dtype=float)
    aligned = float(np.sum(np.sqrt(gains) * np.cos(errors)))
    return float(np.sum(gains * np.sin(errors) ** 2)) + aligned * aligned


def float_bits(*values) -> bytes:
    """The float64 bit patterns of ``values``: equal exactly when the values
    are, sign of zero and NaN payload included."""
    return np.array(values, dtype=float).tobytes()


def grid_argmax(fn, points: int = 360) -> float:
    """Brute-force maximizer of a function of phase over a uniform grid."""
    grid = np.linspace(-math.pi, math.pi, points, endpoint=False)
    values = [fn(th) for th in grid]
    return float(grid[int(np.argmax(values))])


def equal_gain_scenario(m: int, gain: float = 1.0, power: float = 1.0,
                        eff: float = 1.0) -> Scenario:
    return Scenario(power, eff, [gain] * m, [0.0] * m)


def random_scenario(rng, m: int, **dist_kwargs) -> Scenario:
    scen, _ = generate_scenario(
        ScenarioDistribution(num_transmitters=m, **dist_kwargs), rng
    )
    return scen


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@pytest.fixture
def stream():
    return rng_stream
