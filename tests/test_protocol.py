import itertools
import math
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from distbeam import (
    InfeasibleEfficiencyTarget,
    PhaseAssignment,
    Scenario,
    accumulated_power,
    check_induction_inequality,
    circular_distance,
    efficiency_lower_bound,
    error_bound_power,
    harvested_power,
    phase_errors,
    phases_from_errors,
    required_intervals,
    required_intervals_equal_gains,
    run_protocol,
    wrap_angle,
)
from distbeam import adapt, protocol
from distbeam.adapt import _TREE_DEPTH, TraceRecord, adapt_phase, bisect_arc, initial_arc, probe_pair
from distbeam.experiments import ExperimentConfig, run_experiment
from distbeam.power import (
    MODE_ADDITIVE_NOISE,
    MeasurementModel,
    optimal_power,
    partial_power,
    sum_signal,
)
from distbeam.protocol import exact_runs

from conftest import (
    equal_gain_scenario,
    pairwise_error_bound,
    per_reading_adapt_phase,
    per_stage_protocol,
    random_scenario,
    stack_scenarios,
)


def test_interval_accounting():
    rng = np.random.default_rng(0)
    for m, expected in ((5, 20), (7, 30)):
        s = random_scenario(rng, m)
        res = run_protocol(s, 5)
        assert res.total_feedback_intervals == expected
        assert sum(len(t.records) for t in res.traces) == expected


def test_first_phase_is_reference(rng):
    s = random_scenario(rng, 4)
    res = run_protocol(s, 3)
    assert res.final_phases[0] == 0.0
    assert res.errors[0] == 0.0


def test_two_transmitter_closed_form(rng):
    """With two transmitters the delivered power reduces to
    g1 + g2 + 2 sqrt(g1 g2) cos(e2) with |e2| within the per-stage bound."""
    for n in (1, 3, 5, 8):
        for _ in range(50):
            s = random_scenario(rng, 2)
            res = run_protocol(s, n)
            e2 = res.errors[1]
            assert abs(e2) <= math.pi / 2**n + 1e-12
            g1, g2 = s.gains
            expected = g1 + g2 + 2 * math.sqrt(g1 * g2) * math.cos(e2)
            assert res.q_d == pytest.approx(expected, rel=1e-12)


def test_large_budget_reaches_optimum(rng):
    for _ in range(20):
        s = random_scenario(rng, int(rng.integers(2, 8)))
        res = run_protocol(s, 30)
        assert res.eta >= 1.0 - 1e-6


def test_eta_range_and_consistency(rng):
    for _ in range(100):
        s = random_scenario(rng, int(rng.integers(2, 9)))
        res = run_protocol(s, int(rng.integers(1, 7)))
        assert 0.0 < res.eta <= 1.0 + 1e-12
        assert res.eta == pytest.approx(res.q_d / res.q_star)
        direct = harvested_power(s, PhaseAssignment(res.final_phases.copy()))
        assert res.q_d == pytest.approx(direct, rel=1e-12)


def test_protocol_validation(rng):
    with pytest.raises(ValueError):
        run_protocol(random_scenario(rng, 1), 5)
    with pytest.raises(ValueError):
        run_protocol(random_scenario(rng, 3), 0)
    with pytest.raises(ValueError, match="at least two transmitters"):
        exact_runs(stack_scenarios([random_scenario(rng, 1)] * 3), 5)
    with pytest.raises(ValueError, match="n_intervals must be >= 1"):
        exact_runs(stack_scenarios([random_scenario(rng, 4)] * 3), 0)
    with pytest.raises(ValueError, match="n_intervals must be >= 1"):
        efficiency_lower_bound(random_scenario(rng, 3), 0)


def _with_zero_gain(s, index):
    gains = s.gains.copy()
    gains[index] = 0.0
    return Scenario(s.transmit_power, s.carrier_freq, s.conversion_eff, gains, s.phase_shifts)


def _probe_tie_scenarios():
    """M=2 scenarios whose stage-1 target lies within 3 ulp of the first
    probe pair's tie (+-pi/2), where a last-ulp change of the target flips
    the first feedback bit and moves the final phase by pi. The two
    transmitter-0 channels are ones whose combined-signal phase
    np.arctan2 and math.atan2 round apart."""
    scens = []
    for g0, s0 in ((0.9718508739782105, -2.105115197041521),
                   (0.6392099015074402, -1.9536649906815902)):
        amp = math.sqrt(g0)
        phase = math.atan2(0.0 + amp * math.sin(s0), 0.0 + amp * math.cos(s0))
        for tie in (math.pi / 2.0, -math.pi / 2.0):
            base = tie + phase
            for k in range(-3, 4):
                shift = base + k * math.ulp(base)
                scens.append(Scenario(1.0, 915e6, 1.0, [g0, 1.0], [s0, shift]))
    return scens


def test_exact_runs_match_run_protocol(rng):
    """The trial-batched engine returns run_protocol's final phases and
    interval powers bit for bit: where the two probe powers differ by only
    a few ulp (N 20-30), past the convergence floor (N >= 42), with
    zero-gain links (first, middle and last), with power scales other than
    1 in one batch, and at a probe tie."""
    budgets = list(range(1, 13)) + [20, 24, 26, 28, 30, 41, 42, 43, 44, 45]
    for m in (2, 3, 5, 10, 20):
        scens = [random_scenario(rng, m, conversion_eff=eff, transmit_power=power)
                 for eff, power in ((1.0, 1.0), (0.37, 2.5)) for _ in range(4)]
        scens[1] = _with_zero_gain(scens[1], 0)
        scens[5] = _with_zero_gain(scens[5], m - 1)
        if m > 2:
            scens[6] = _with_zero_gain(scens[6], m // 2)
        else:
            scens += _probe_tie_scenarios()
        for n in budgets:
            phases, powers = exact_runs(stack_scenarios(scens), n)
            assert powers.shape == (len(scens), n * (m - 1))
            for t, s in enumerate(scens):
                want = run_protocol(s, n)
                assert np.array_equal(phases[t], want.final_phases), (m, n, t)
                traj = np.concatenate([tr.interval_powers() for tr in want.traces])
                assert np.array_equal(powers[t], traj), (m, n, t)


@pytest.fixture(params=["closed form", "loop only"])
def phases_of(request, monkeypatch):
    """``exact_phases`` as it is, and with every row of every stage sent to
    the interval loop, so each test below checks both paths."""
    if request.param == "loop only":
        cells = adapt._cells

        def no_row_clear(*args):
            cell, clear = cells(*args)
            return cell, np.zeros_like(clear)

        monkeypatch.setattr(adapt, "_cells", no_row_clear)
    return protocol.exact_phases


def _assert_phases_match_runs(phases_of, scens, budgets):
    """``phases_of`` on the stack of ``scens`` equals run_protocol's final
    phases and exact_runs' bit for bit, signed zeros included. Where Q* is
    subnormal, which run_protocol rejects, the per-stage oracle stands in
    for it."""
    stack = stack_scenarios(scens)
    for n in budgets:
        phases = phases_of(stack, n)
        assert phases.tobytes() == exact_runs(stack, n)[0].tobytes(), n
        for t, s in enumerate(scens):
            run = per_stage_protocol if optimal_power(s) < sys.float_info.min else run_protocol
            assert phases[t].tobytes() == run(s, n).final_phases.tobytes(), (n, t)


@pytest.mark.parametrize("gains", [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5, 2.0], [1.0, 1e-40, 1.0]])
def test_exact_phases_where_every_comparison_ties(phases_of, gains):
    """A zero gain or a zero combined signal makes the probe swing zero, and
    a gain of 1e-40 beside 1 makes it far below the rounding of the base
    power: every comparison of the stage ties, and a tie keeps psi, which
    is not the target's cell. 200 random phase sets per gain vector."""
    rng = np.random.default_rng(17)
    scens = [Scenario(1.0, 915e6, 1.0, gains, shifts)
             for shifts in rng.uniform(-math.pi, math.pi, (200, len(gains)))]
    _assert_phases_match_runs(phases_of, scens, (1, 4, 8))


def _tree_centres(depth):
    """The tree arcs' centres at ``depth``, walking adapt's plain bisection."""
    arcs = [initial_arc()]
    for _ in range(depth):
        arcs = [bisect_arc(arc, bit) for arc in arcs for bit in (False, True)]
    return [arc.center for arc in arcs]


@pytest.mark.parametrize("depth", range(8))
def test_exact_phases_near_every_decision_point(phases_of, depth):
    """M = 2 stages whose target lies within 3 ulp of a comparison's tie:
    each tree centre at ``depth`` (-pi/2 at depth 0) and, at depth 0, the
    seam pi/2. Transmitter 0 at phase shift 0 makes the target transmitter
    1's phase shift exactly. Budgets N = depth + 1, where the tie is the
    last comparison, and N = 8."""
    points = _tree_centres(depth) + ([math.pi / 2.0] if depth == 0 else [])
    scens = []
    for point in points:
        for steps in range(-3, 4):
            target = point
            for _ in range(abs(steps)):
                target = math.nextafter(target, math.copysign(math.inf, steps))
            scens += [Scenario(1.0, 915e6, 1.0, [1.0, g1], [0.0, target])
                      for g1 in (1.0, 0.3)]
    _assert_phases_match_runs(phases_of, scens, sorted({depth + 1, 8}))


def test_exact_phases_across_power_scales_and_the_tree_depth(phases_of, rng):
    """Power scales from subnormal probe powers (1e-312) to 1e308 in one
    stack, with zero-gain links, at N = 8 (the last stored depth) and
    N = 9 (the loop)."""
    scales = ((1.0, 1.0), (0.37, 2.5), (1e-300, 1e-12), (1.0, 1e300), (1.0, 1e308))
    for m in (2, 3, 6):
        scens = [random_scenario(rng, m, conversion_eff=eff, transmit_power=power)
                 for eff, power in scales for _ in range(6)]
        scens[1] = _with_zero_gain(scens[1], 0)
        scens[8] = _with_zero_gain(scens[8], m - 1)
        _assert_phases_match_runs(phases_of, scens, (8, 9))


def test_exact_phases_equal_exact_runs(phases_of, rng):
    """exact_phases returns exact_runs' phases at every budget of
    test_exact_runs_match_run_protocol, on stacks with zero-gain links."""
    budgets = list(range(1, 13)) + [20, 24, 26, 28, 30, 41, 42, 43, 44, 45]
    for m in (2, 5, 20):
        scens = [random_scenario(rng, m) for _ in range(40)]
        scens[1] = _with_zero_gain(scens[1], 0)
        scens[5] = _with_zero_gain(scens[5], m - 1)
        stack = stack_scenarios(scens)
        for n in budgets:
            assert phases_of(stack, n).tobytes() == exact_runs(stack, n)[0].tobytes(), (m, n)


def test_tree_angles_and_cells_are_within_the_margins_angle_error(rng):
    """The tie margin of ``adapt._cells`` assumes every stored tree
    centre and probe, and every computed cell position, lies within
    ``_ANGLE_ERROR`` of its exact value; checked against exact rationals
    and a 60-digit pi."""
    pi = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")

    def off_circle(a):                    # |a| modulo 2 pi, folded into [0, pi]
        a %= 2 * pi
        return min(a, 2 * pi - a)

    bound = Fraction(adapt._ANGLE_ERROR) / 2
    level = [(initial_arc(), -pi / 2)]
    for depth in range(_TREE_DEPTH + 1):
        half = pi / 2 ** depth
        for arc, exact in level:
            assert off_circle(Fraction(arc.center) - exact) < bound, (depth, arc)
            if depth < _TREE_DEPTH:
                psi, psi_prime = probe_pair(arc)
                off = pi / 2 if depth == 0 else half
                assert off_circle(Fraction(psi) - exact - off) < bound, (depth, arc)
                assert off_circle(Fraction(psi_prime) - exact + off) < bound, (depth, arc)
        level = [(bisect_arc(arc, bit), exact + (half / 2 if bit else -half / 2))
                 for arc, exact in level for bit in (False, True)]
    targets = rng.uniform(-math.pi, math.pi, 2000)
    ones = np.ones_like(targets)
    for n in (1, 4, 8):
        # the cell position as _cells computes it, and its cell where clear
        x = (wrap_angle(targets - initial_arc().center) + math.pi) * (2 ** n / (2.0 * math.pi))
        cell, clear = adapt._cells(targets, ones, ones, ones, n)
        assert clear.all()
        for t, got, j in zip(targets.tolist(), x.tolist(), cell.tolist()):
            exact = (Fraction(t) + pi / 2 + pi) * 2 ** n / (2 * pi)
            assert off_circle((Fraction(got) - exact) * 2 * pi / 2 ** n) < bound, (n, t)
            assert j == math.floor(exact) % 2 ** n, (n, t)


@pytest.mark.parametrize("n, scale", [(1, 1.0), (8, 1.0), (8, 1e-312)])
def test_cells_clear_only_targets_outside_the_derived_margin(n, scale):
    """``adapt._cells`` sends a target to the loop exactly when it lies
    within the margin its docstring derives, here solved for the distance
    delta from a decision point: eps + (pi/2) / sin(h_min) * (2 eps +
    (4 scale ulp(base + swing) + 2**-1074) / (scale swing)). Targets at
    half and twice that distance from c0 = -pi/2 and from the seam pi/2,
    on either side. N = 8 makes the sin(h_min) factor 41, and the power
    scale 1e-312 makes the subnormal step the largest term."""
    eps, base, swing = adapt._ANGLE_ERROR, 2.0, 2.0
    sin_h = math.sin(min(math.pi / 2.0, math.pi / 2 ** (n - 1)))
    margin = eps + (math.pi / 2.0) / sin_h * (
        2.0 * eps + (scale * 4.0 * math.ulp(base + swing) + math.ulp(0.0)) / (scale * swing))
    for factor, clear in ((0.5, False), (2.0, True)):
        targets = np.array([point + side * factor * margin
                            for point in (-math.pi / 2.0, math.pi / 2.0) for side in (-1.0, 1.0)])
        ones = np.ones_like(targets)
        _, got = adapt._cells(targets, base * ones, swing * ones, scale * ones, n)
        assert got.tolist() == [clear] * len(targets), (factor, margin)


def test_cells_margin_keeps_its_subnormal_step():
    """At power scale 2**-1040 (base = swing = 1, N = 3) the ulp term of
    the tie margin rounds to 0, so the subnormal step 2**-1074 is all of
    it: a target whose computed gap is exactly one step is not clear, and
    one whose gap is two steps is. Both are the first such targets above
    the cell boundary c0 = -pi/2, found by bisection on the gap as
    ``adapt._cells`` computes it."""
    n, scale, step = 3, 2.0 ** -1040, math.ulp(0.0)
    one = np.ones(1)
    assert scale * 4.0 * np.spacing(2.0) == 0.0
    sin_h = math.sin(min(math.pi / 2.0, math.ldexp(math.pi, 1 - n)))

    def gap(t):
        x = (wrap_angle(t - initial_arc().center) + math.pi) * ((1 << n) / (2.0 * math.pi))
        frac = x - math.floor(x)
        delta = min(frac, 1.0 - frac) * (2.0 * math.pi / (1 << n)) - adapt._ANGLE_ERROR
        return scale * ((2.0 / math.pi) * sin_h * delta - 2.0 * adapt._ANGLE_ERROR)

    def first_target(at_least):
        lo, hi = -math.pi / 2.0, -math.pi / 2.0 + 1e-6
        assert gap(lo) < at_least <= gap(hi)
        while math.nextafter(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if gap(mid) >= at_least else (mid, hi)
        return hi

    for steps, clear in ((1, False), (2, True)):
        t = first_target(steps * step)
        assert gap(t) == steps * step, (steps, t)
        _, got = adapt._cells(t * one, one, one, scale * one, n)
        assert got.tolist() == [clear], (steps, t)


def test_efficiency_sweep_runs_the_closed_form(monkeypatch):
    """On the default efficiency-vs-N sweep (1,000 trials, seed 12345, M 5
    and 10, N 1-8) fewer than 1% of the 104,000 trial-stages reach the
    interval loop, so a tie margin that sends every row there fails here."""
    rows = []
    loop = adapt._interval_loop

    def counted(target, *args):
        rows.append(len(target))
        return loop(target, *args)

    monkeypatch.setattr(adapt, "_interval_loop", counted)
    cfg = ExperimentConfig("efficiency-vs-N")
    run_experiment(cfg)
    stages = cfg.trials * sum(m - 1 for m in cfg.m_list) * len(cfg.n_list)
    assert stages == 104_000
    assert sum(rows) < 0.01 * stages, sum(rows)


ORACLE_BUDGETS = list(range(1, 9)) + [41, 45]    # 41, 45: past CONVERGENCE_FLOOR
ORACLE_NOISE = (0.0, 1e-6, 1e-3, 1.0)              # 1.0 W clamps about half the readings at 0


def _same(a, b) -> bool:
    """Equal bit for bit, type included: -0.0 differs from 0.0 and a numpy
    float from a Python one."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _assert_same_trace(got, want, where):
    assert len(got.records) == len(want.records), where
    for g, w in zip(got.records, want.records):
        for name in TraceRecord._fields:
            assert _same(getattr(g, name), getattr(w, name)), (where, g.interval, name)
    for name in ("final_phase", "target_phase", "sum_gain"):
        assert _same(getattr(got, name), getattr(want, name)), (where, name)


def _meas_pair(std, seed):
    """Two measurement models whose generators start in the same state."""
    if std == 0.0:
        return MeasurementModel(), MeasurementModel()
    return tuple(MeasurementModel(MODE_ADDITIVE_NOISE, std, np.random.default_rng(seed))
                 for _ in range(2))


def _assert_same_generators(got, want, where):
    if got.rng is not None:
        assert got.rng.bit_generator.state == want.rng.bit_generator.state, where
        assert _same(got.rng.normal(), want.rng.normal()), where


@pytest.mark.parametrize("m", [2, 3, 5, 10, 50])
def test_run_protocol_matches_per_stage_oracle(m):
    """run_protocol's running phasor sum and stage loop give the oracle's
    phases, powers, targets, errors, traces and generator state bit for bit,
    exact and noisy."""
    s = random_scenario(np.random.default_rng(1000 + m), m)
    if m <= 10:
        scens = [s] + [_with_zero_gain(s, i) for i in (0, m // 2, m - 1)]
        scens += _probe_tie_scenarios() if m == 2 else []
        budgets = ORACLE_BUDGETS
    else:
        scens = [s, _with_zero_gain(_with_zero_gain(_with_zero_gain(s, 0), m // 2), m - 1)]
        budgets = [1, 8, 45]
    for (k, s), n, std in itertools.product(enumerate(scens), budgets, ORACLE_NOISE):
        where = (m, k, n, std)
        meas, meas_ref = _meas_pair(std, 7 * n + k)
        got = run_protocol(s, n, meas)
        want = per_stage_protocol(s, n, meas_ref)
        for name in ("final_phases", "q_d", "q_star", "eta", "target_phases", "errors",
                     "total_feedback_intervals"):
            assert _same(getattr(got, name), getattr(want, name)), (where, name)
        assert len(got.traces) == len(want.traces) == m - 1
        for g, w in zip(got.traces, want.traces):
            _assert_same_trace(g, w, where)
        _assert_same_generators(meas, meas_ref, where)


@pytest.mark.parametrize("m", [2, 3, 5, 10, 50])
def test_adapt_phase_matches_per_reading_oracle(m):
    """One stage against an arbitrary active set, with repeated probes: the trace and the generator state equal the
    one-reading-at-a-time oracle's bit for bit. Each zero-gain link (first,
    middle, last) is paired with a different adapting transmitter."""
    rng = np.random.default_rng(2000 + m)
    s = random_scenario(rng, m)
    ends = (0, m // 2, m - 1)
    stages = [(s, m - 1)] + [(_with_zero_gain(s, i), ends[j - 1]) for j, i in enumerate(ends)]
    for k, (s, adapter) in enumerate(stages):
        active = rng.random(m) < 0.8
        active[adapter] = False
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, m), active)
        for n, std, repeats in itertools.product(ORACLE_BUDGETS, ORACLE_NOISE, (1, 3)):
            where = (m, k, adapter, n, std, repeats)
            meas, meas_ref = _meas_pair(std, 11 * n + k)
            phi, trace = adapt_phase(s, pa, adapter, n, meas, repeats)
            phi_ref, trace_ref = per_reading_adapt_phase(s, pa, adapter, n, meas_ref, repeats)
            assert _same(phi, phi_ref), where
            _assert_same_trace(trace, trace_ref, where)
            _assert_same_generators(meas, meas_ref, where)


def test_negative_zero_reading_matches_oracle():
    """A probe whose power rounds below zero reads -0.0 from partial_power;
    the single-repeat reading is 0.0, as the oracle's sum over repeats
    gives. adapt_phase meets it at a power scale of 1e-310, run_protocol at
    8e-308, where Q* (about 3.37e-308) is still a normal float."""
    gains, shifts = [0.10520315032328138, 0.10520315032328142], [0.0, math.pi]
    s = Scenario(1.0, 1.0, 1e-310, gains, shifts)
    pa = PhaseAssignment(np.zeros(2), np.array([True, False]))
    phi, trace = adapt_phase(s, pa, 1, 4)
    phi_ref, trace_ref = per_reading_adapt_phase(s, pa, 1, 4)
    assert _same(phi, phi_ref)
    _assert_same_trace(trace, trace_ref, "adapt_phase")
    assert _same(trace.records[0].q_psi, 0.0)
    s = Scenario(1.0, 1.0, 8e-308, gains, shifts)
    got, want = run_protocol(s, 4), per_stage_protocol(s, 4)
    first = got.traces[0].records[0]
    assert _same(partial_power(s, sum_signal(s, pa), 1, first.psi), -0.0)
    assert _same(first.q_psi, 0.0)
    _assert_same_trace(got.traces[0], want.traces[0], "run_protocol")


def test_run_protocol_rejects_a_zero_or_infinite_optimum():
    """An optimum that underflows to 0 or overflows is checked_optima's
    ValueError, not a ZeroDivisionError or a NaN efficiency."""
    for scale, gain, q in ((1e-320, 1e-6, "0.0"), (1e308, 4.0, "inf")):
        s = Scenario(scale, 1.0, 1.0, [gain, gain], [0.0, 1.0])
        with pytest.raises(ValueError, match=f"optimal power of the scenario is {q}: power "):
            run_protocol(s, 3)


def test_run_protocol_rejects_a_subnormal_optimum():
    """This scenario's efficiency is the same, bit for bit, at power scales
    1 and 1e-300. At 1e-310 its Q* is subnormal, and the efficiency used to
    differ in the last digits (0.9936151036369086); run_protocol raises
    checked_optima's error there, as every experiment does."""
    def run(eff):
        return run_protocol(Scenario(1.0, 1.0, eff, [1.0] * 3, [0.0, 1.0, 2.0]), 4)

    etas = [run(eff).eta for eff in (1.0, 1e-300)]
    assert _same(etas[0], etas[1]) and etas[0] == 0.99361510363691
    message = ("optimal power of the scenario is 8.99999999999997e-310: power scale "
               "conversion_eff * transmit_power = 1e-310 leaves no finite optimum of at "
               f"least {sys.float_info.min}")
    with pytest.raises(ValueError, match=re.escape(message)):
        run(1e-310)


def test_noisy_readings_are_python_floats():
    """Clamped readings (0.0) and unclamped ones share one type; the
    unclamped ones used to be numpy scalars from partial_power."""
    s = random_scenario(np.random.default_rng(3), 5)
    meas = MeasurementModel(MODE_ADDITIVE_NOISE, 1.0, np.random.default_rng(3))
    readings = [q for tr in run_protocol(s, 6, meas).traces for r in tr.records
                for q in (r.q_psi, r.q_psi_prime)]
    assert {type(q) for q in readings} == {float}
    assert 0.0 < readings.count(0.0) < len(readings)


def test_recorded_errors_match_recomputation(rng):
    for _ in range(50):
        s = random_scenario(rng, int(rng.integers(2, 9)))
        res = run_protocol(s, 4)
        recomputed = phase_errors(res, s)
        assert _same(recomputed, res.errors)
        assert recomputed[0] == 0.0


# zero-gain links at the head of the scenario, twice, and in the middle
ZERO_GAIN_SCENARIOS = (
    ([0.0, 1.0, 0.5], [0.3, 1.2, -2.0]),
    ([0.0, 0.0, 1.0, 2.0], [0.4, -1.0, 2.5, 0.9]),
    ([1.0, 0.0, 0.5, 2.0], [-0.6, 2.2, 1.1, -3.0]),
)


@pytest.mark.parametrize("gains, shifts", ZERO_GAIN_SCENARIOS)
def test_batched_stages_take_adapts_feedback_rule(monkeypatch, gains, shifts):
    """The bisection rule has one owner: with ``adapt.feedback_bit`` made
    strict, a tie keeps psi' instead of psi, and exact_runs and exact_phases
    change with run_protocol. Each scenario's first stage has a zero
    combined signal, so all of its comparisons tie."""
    s = Scenario(1.0, 915e6, 1.0, gains, shifts)
    stack = stack_scenarios([s])
    tie_keeps_psi = {n: run_protocol(s, n).final_phases for n in (1, 4, 9)}
    monkeypatch.setattr(adapt, "feedback_bit", lambda q_psi, q_psi_prime: q_psi > q_psi_prime)
    for n, before in tie_keeps_psi.items():
        want = run_protocol(s, n).final_phases
        assert not _same(want, before), n
        assert _same(exact_runs(stack, n)[0][0], want), n
        assert _same(protocol.exact_phases(stack, n)[0], want), n


@pytest.mark.parametrize("gains, shifts", ZERO_GAIN_SCENARIOS)
def test_replayed_errors_match_the_run_after_zero_gain_links(gains, shifts):
    """A stage whose prefix has zero combined gain records target 0, and the
    replay gives the same target: for gains [0, 1, 0.5] the replay used to
    return 0.174 against the recorded 1.374."""
    s = Scenario(1.0, 915e6, 1.0, gains, shifts)
    for n, std in itertools.product((1, 4, 8), (0.0, 1e-3)):
        meas, _ = _meas_pair(std, n)
        res = run_protocol(s, n, meas)
        assert _same(phase_errors(res, s), res.errors), (n, std)
        for m, trace in enumerate(res.traces, 1):
            if trace.sum_gain == 0.0:
                assert _same(res.target_phases[m], np.float64(0.0))


@pytest.mark.parametrize("gains, shifts", ((None, None),) + ZERO_GAIN_SCENARIOS)
def test_phases_from_errors_round_trips_through_phase_errors(rng, gains, shifts):
    """Phases built from stage errors replay to those errors, to within the
    rounding of one wrap on each side."""
    for _ in range(50):
        if gains is None:
            s = random_scenario(rng, int(rng.integers(2, 9)))
        else:
            s = Scenario(1.0, 915e6, 1.0, gains, shifts)
        errors = rng.uniform(-math.pi, math.pi, s.num_transmitters)
        errors[0] = 0.0
        phases = phases_from_errors(s, errors)
        replayed = phase_errors(SimpleNamespace(final_phases=phases), s)
        assert replayed[0] == 0.0
        assert max(circular_distance(a, b) for a, b in zip(replayed, errors)) <= 1e-14


def test_length_mismatches_are_errors():
    s = equal_gain_scenario(3)
    with pytest.raises(ValueError, match="gains and errors must have equal length"):
        accumulated_power(s.gains, [0.0, 0.1])
    with pytest.raises(ValueError, match="need one error per transmitter"):
        phases_from_errors(s, [0.0, 0.1, 0.2, 0.3])


def test_error_bound_across_stages(rng):
    for _ in range(50):
        s = random_scenario(rng, 6)
        res = run_protocol(s, 5)
        assert np.max(np.abs(res.errors[1:])) <= math.pi / 32 + 1e-12


def test_efficiency_bound_equal_gains_value():
    # independent evaluation of the closed form at M=5, N=5
    expected = (5 + 20 * math.cos(math.pi / 32) ** 2) / 25
    got = efficiency_lower_bound(equal_gain_scenario(5), 5)
    assert got == pytest.approx(expected, rel=1e-14)
    assert round(got, 5) == 0.99231


def test_efficiency_bound_limits(rng):
    s = random_scenario(rng, 6)
    bounds = [efficiency_lower_bound(s, n) for n in range(1, 61)]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] > 1 - 1e-12
    assert efficiency_lower_bound(equal_gain_scenario(1), 3) == 1.0


def test_efficiency_bound_past_float_exponent_range(rng):
    """2.0 ** 1024 overflows, but the worst-case error pi / 2**N only gets
    smaller: from N = 1023 on, cos(error) ** 2 rounds to 1."""
    s = random_scenario(rng, 4)
    total = float(np.sum(s.gains))
    cross = float(np.sum(np.outer(np.sqrt(s.gains), np.sqrt(s.gains)))) - total
    for n in (1, 2, 5, 30, 60, 500, 1022):
        worst = math.cos(math.pi / 2.0 ** n) ** 2
        assert efficiency_lower_bound(s, n) == (total + cross * worst) / (total + cross), n
    for n in (1023, 1024, 2000):
        assert efficiency_lower_bound(s, n) == 1.0, n


def test_sandwich_randomized(rng):
    for _ in range(200):
        m = int(rng.choice([2, 5, 10]))
        s = random_scenario(rng, m)
        n = int(rng.integers(1, 9))
        res = run_protocol(s, n)
        assert efficiency_lower_bound(s, n) - 1e-9 <= res.eta <= 1.0 + 1e-12


def test_required_intervals_reference_values():
    assert required_intervals_equal_gains(5, 0.99) == pytest.approx(4.8094, abs=1e-4)
    assert required_intervals_equal_gains(5, 0.999) == pytest.approx(6.4731, abs=1e-4)
    s = equal_gain_scenario(5, gain=3.7)
    assert required_intervals(s, 0.99) == pytest.approx(4.8094, abs=1e-4)
    assert required_intervals(s, 0.999) == pytest.approx(6.4731, abs=1e-4)


def test_required_intervals_equal_gain_identity(rng):
    for m in (2, 3, 7, 12):
        g = float(rng.uniform(0.1, 5.0))
        s = equal_gain_scenario(m, gain=g)
        for eta_hat in (0.9, 0.99, 0.9999):
            assert required_intervals(s, eta_hat) == pytest.approx(
                required_intervals_equal_gains(m, eta_hat), rel=1e-12
            )


def test_required_intervals_domain():
    s = equal_gain_scenario(5)
    # for equal gains the radicand turns negative below (1 + (M-1)*0)/M ~ 1/5
    with pytest.raises(InfeasibleEfficiencyTarget):
        required_intervals(s, 0.15)
    with pytest.raises(ValueError):
        required_intervals(s, 0.0)
    with pytest.raises(ValueError):
        required_intervals(s, 1.5)
    assert required_intervals(s, 1.0) == math.inf
    assert required_intervals(equal_gain_scenario(1), 0.9) == 0.0
    assert required_intervals_equal_gains(1, 0.9) == 0.0


def test_required_intervals_guarantee(rng):
    """Running with the ceiling of the required budget meets the target."""
    for _ in range(40):
        s = random_scenario(rng, int(rng.integers(2, 8)))
        eta_hat = float(rng.uniform(0.9, 0.999))
        try:
            n_req = required_intervals(s, eta_hat)
        except InfeasibleEfficiencyTarget:
            continue
        res = run_protocol(s, max(1, math.ceil(n_req)))
        assert res.eta >= eta_hat - 1e-12


def test_accumulated_power_perfect_alignment(rng):
    s = random_scenario(rng, 6)
    zero = np.zeros(6)
    acc = accumulated_power(s.gains, zero)
    amp = np.sqrt(s.gains)
    assert acc == pytest.approx(float(np.sum(amp)) ** 2, rel=1e-12)
    ok, slack = check_induction_inequality(s, zero)
    assert ok
    assert slack == pytest.approx(0.0, abs=1e-12 * acc)


def test_induction_two_transmitters_equality(rng):
    for _ in range(200):
        s = random_scenario(rng, 2)
        e2 = float(rng.uniform(-math.pi / 2, math.pi / 2))
        errors = np.array([0.0, e2])
        lhs = accumulated_power(s.gains, errors)
        rhs = error_bound_power(s.gains, errors)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_error_bound_power_matches_pairwise_oracle(rng):
    """The closed form equals the explicit double sum, also for one or two
    transmitters and for errors past pi/2 where cosines turn negative."""
    cases = [(1, math.pi / 2), (2, math.pi / 2), (2, math.pi), (5, math.pi), (12, math.pi)]
    for m, spread in cases:
        for _ in range(200):
            gains = rng.uniform(1e-6, 1e-3, m)
            errors = rng.uniform(-spread, spread, m)
            assert error_bound_power(gains, errors) == pytest.approx(
                pairwise_error_bound(gains, errors), rel=1e-12)
    assert error_bound_power([2.5], [3.0]) == pytest.approx(2.5, rel=1e-12)


def test_induction_randomized(rng):
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        s = random_scenario(rng, m)
        errors = rng.uniform(-math.pi / 2, math.pi / 2, m)
        errors[0] = 0.0
        ok, slack = check_induction_inequality(s, errors)
        assert ok, f"violated with slack {slack}"


def test_accumulation_equals_direct_power(rng):
    """The stage recursion and the pairwise formula describe the same
    quantity once phases realize the given stage errors."""
    for _ in range(100):
        m = int(rng.integers(2, 9))
        s = random_scenario(rng, m)
        errors = rng.uniform(-math.pi / 2, math.pi / 2, m)
        errors[0] = 0.0
        phases = phases_from_errors(s, errors)
        direct = harvested_power(s, PhaseAssignment(phases.copy()))
        acc = accumulated_power(s.gains, errors)
        scale = s.conversion_eff * s.transmit_power
        assert direct == pytest.approx(acc * scale, rel=1e-9)
        # and the protocol's own runs satisfy the same identity
    for _ in range(30):
        s = random_scenario(rng, 5)
        res = run_protocol(s, 3)
        acc = accumulated_power(s.gains, res.errors)
        assert res.q_d == pytest.approx(acc, rel=1e-9)


def test_mean_eta_monotone_in_budget(rng):
    """Average efficiency over a fixed scenario population is non-decreasing
    in the per-stage budget."""
    scenarios = [random_scenario(rng, 5) for _ in range(500)]
    means = []
    for n in range(1, 9):
        means.append(np.mean([run_protocol(s, n).eta for s in scenarios]))
    assert all(b >= a for a, b in zip(means, means[1:]))


def test_noisy_measurement_still_terminates(rng):
    from distbeam import MeasurementModel
    from distbeam.power import MODE_ADDITIVE_NOISE

    s = random_scenario(rng, 5)
    meas = MeasurementModel(MODE_ADDITIVE_NOISE, float(np.mean(s.gains)),
                            np.random.default_rng(3))
    res = run_protocol(s, 4, meas)
    assert res.total_feedback_intervals == 16
    assert sum(len(t.records) for t in res.traces) == 16
    assert 0.0 < res.q_d <= res.q_star * (1 + 1e-12)


def test_summary_csv_shape(capsys):
    from distbeam import ScenarioDistribution, generate_scenario
    from distbeam.cli import EXIT_OK, cli_main
    from distbeam.experiments import rng_stream

    assert cli_main(["protocol", "--M", "5", "--N", "5", "--seed", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "M,N,Q_d,Q_star,eta,bound,max_abs_error"
    fields = lines[1].split(",")
    assert fields[0] == "5" and fields[1] == "5"
    s, _ = generate_scenario(ScenarioDistribution(num_transmitters=5), rng_stream(2, 0))
    res = run_protocol(s, 5)
    assert float(fields[4]) == pytest.approx(res.eta, rel=1e-12)
    assert float(fields[5]) == pytest.approx(efficiency_lower_bound(s, 5), rel=1e-12)
