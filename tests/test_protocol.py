import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from distbeam import (
    PhaseAssignment,
    Scenario,
    accumulated_power,
    check_induction_inequality,
    circular_distance,
    efficiency_lower_bound,
    error_bound_power,
    harvested_power,
    required_intervals,
    required_intervals_equal_gains,
    run_protocol,
    wrap_angle,
)
from distbeam import adapt, power, protocol, streams
from distbeam.adapt import _TREE_DEPTH, TrainingTrace, adapt_phase, bisect_arc, initial_arc, probe_pair
from distbeam.experiments import ExperimentConfig, run_experiment
from distbeam.power import (
    MODE_ADDITIVE_NOISE,
    MeasurementModel,
    optimal_power,
    TrialStack,
    partial_power,
    sum_signal,
)
from distbeam.protocol import exact_runs

from conftest import (
    TRACE_COLUMNS,
    equal_gain_scenario,
    float_bits,
    induction_instances,
    np_sum_error_bound_power,
    numpy_scalar_accumulated_power,
    pairwise_error_bound,
    per_budget_phases,
    per_reading_adapt_phase,
    per_stage_protocol,
    phase_errors,
    phases_from_errors,
    random_scenario,
    stack_scenarios,
    trace_columns,
)


def test_interval_accounting():
    rng = np.random.default_rng(0)
    for m, expected in ((5, 20), (7, 30)):
        s = random_scenario(rng, m)
        res = run_protocol(s, 5)
        assert res.total_feedback_intervals == expected
        assert sum(len(t.bit) for t in res.traces) == expected


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
        assert float_bits(res.q_d) == float_bits(direct)


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
    return Scenario(s.transmit_power, s.conversion_eff, gains, s.phase_shifts)


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
                scens.append(Scenario(1.0, 1.0, [g0, 1.0], [s0, shift]))
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
    for n, phases in zip(budgets, phases_of(stack, budgets), strict=True):
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
    scens = [Scenario(1.0, 1.0, gains, shifts)
             for shifts in rng.uniform(-math.pi, math.pi, (200, len(gains)))]
    _assert_phases_match_runs(phases_of, scens, (1, 4, 8))


def _scalar_target(s, phases, m):
    """Stage m's target in run_protocol: transmitter m's phase shift less
    the phase of the combined signal of transmitters 0..m-1 at ``phases``,
    which ``math.atan2`` takes (0 against a zero signal)."""
    active = np.arange(s.num_transmitters) < m
    return s._shift_floats[m] - sum_signal(s, PhaseAssignment(phases, active)).phase_shift


def test_the_interval_loop_runs_on_math_atan2_targets(monkeypatch, rng):
    """Every target exact_phases hands the interval loop equals its row's
    scalar stage target (:func:`_scalar_target`) bit for bit: the probe-tie
    rows, which ``adapt._cells`` sends to the loop, and every row of a
    random M = 5 stack past the tree's depth. Each ``_final_centres`` call
    makes one ``_cells`` call and at most one loop call, and its loop rows
    are the rows ``_cells`` does not clear or whose N exceeds the depth."""
    cells, loop, final_centres = adapt._cells, adapt._interval_loop, protocol._final_centres
    calls = []

    def recorded_cells(*args):
        cell, clear = cells(*args)
        calls[-1]["clear"] = clear
        return cell, clear

    def recorded_loop(target, *args):
        calls[-1]["target"] = target
        return loop(target, *args)

    def recorded_final_centres(target, base, swing, scale, n_intervals, exact):
        calls.append({"n": n_intervals, "target": None})
        return final_centres(target, base, swing, scale, n_intervals, exact)

    monkeypatch.setattr(adapt, "_cells", recorded_cells)
    monkeypatch.setattr(adapt, "_interval_loop", recorded_loop)
    monkeypatch.setattr(protocol, "_final_centres", recorded_final_centres)
    scens_5 = [random_scenario(rng, 5) for _ in range(30)]
    scens_5[1] = _with_zero_gain(scens_5[1], 0)
    near_ties = 0
    tie_budgets = list(range(1, 13)) + [20, 41, 45]
    for scens, budgets in ((_probe_tie_scenarios(), tie_budgets), (scens_5, [3, 9, 45])):
        calls.clear()
        trials, m_total = len(scens), scens[0].num_transmitters
        list(protocol.exact_phases(stack_scenarios(scens), budgets))
        assert len(calls) == m_total - 1    # one batch
        runs = [run_protocol(s, n).final_phases for n in budgets for s in scens]
        for m, call in enumerate(calls, 1):
            deep = call["n"] > _TREE_DEPTH
            rows = np.flatnonzero(~call["clear"] | deep)
            want = [_scalar_target(scens[r % trials], runs[r], m) for r in rows.tolist()]
            got = call["target"]
            assert (got is None) == (rows.size == 0), m
            if rows.size:
                assert got.tobytes() == float_bits(*want), (m_total, m)
            near_ties += int(np.count_nonzero(~call["clear"] & ~deep))
    assert near_ties > 0    # rows at N <= 8 that the margin sent to the loop


def _tree_centres(depth):
    """The tree arcs' centres at ``depth``, walking adapt's plain bisection."""
    arcs = [initial_arc()]
    for _ in range(depth):
        arcs = [bisect_arc(arc, bit) for arc in arcs for bit in (False, True)]
    return [arc.center for arc in arcs]


def _near_tie_scenarios(depth):
    """M = 2 scenarios whose stage target lies within 3 ulp of a
    comparison's tie: each tree centre at ``depth`` (-pi/2 at depth 0) and,
    at depth 0, the seam pi/2. Transmitter 0 at phase shift 0 makes the
    target transmitter 1's phase shift exactly."""
    points = _tree_centres(depth) + ([math.pi / 2.0] if depth == 0 else [])
    scens = []
    for point in points:
        for steps in range(-3, 4):
            target = point
            for _ in range(abs(steps)):
                target = math.nextafter(target, math.copysign(math.inf, steps))
            scens += [Scenario(1.0, 1.0, [1.0, g1], [0.0, target])
                      for g1 in (1.0, 0.3)]
    return scens


@pytest.mark.parametrize("depth", range(8))
def test_exact_phases_near_every_decision_point(phases_of, depth):
    """Stages whose target lies within 3 ulp of a comparison's tie at
    ``depth`` (:func:`_near_tie_scenarios`). Budgets N = depth + 1, where
    the tie is the last comparison, and N = 8."""
    _assert_phases_match_runs(phases_of, _near_tie_scenarios(depth), sorted({depth + 1, 8}))


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
    test_exact_runs_match_run_protocol, on stacks with zero-gain links and,
    at M = 2, targets at the first probe tie (:func:`_probe_tie_scenarios`),
    where a loop row run on the np.arctan2 target ends pi away."""
    budgets = list(range(1, 13)) + [20, 24, 26, 28, 30, 41, 42, 43, 44, 45]
    for m in (2, 5, 20):
        scens = [random_scenario(rng, m) for _ in range(40)]
        scens[1] = _with_zero_gain(scens[1], 0)
        scens[5] = _with_zero_gain(scens[5], m - 1)
        scens += _probe_tie_scenarios() if m == 2 else []
        stack = stack_scenarios(scens)
        for n, phases in zip(budgets, phases_of(stack, budgets), strict=True):
            assert phases.tobytes() == exact_runs(stack, n)[0].tobytes(), (m, n)


def test_exact_phases_stop_where_the_loop_stops_moving(phases_of, rng):
    """The interval loop stops moving an arc once its half-width pi/2**k is
    at or below CONVERGENCE_FLOOR, at k = ``adapt._MOVING_INTERVALS``, so
    exact_phases gives N = k's phases at N = 10**30 byte for byte, where it
    used to run every interval; N = k - 1's differ."""
    k = adapt._MOVING_INTERVALS
    assert math.ldexp(math.pi, -k) <= adapt.CONVERGENCE_FLOOR < math.ldexp(math.pi, 1 - k)
    for m in (2, 5):
        scens = [random_scenario(rng, m) for _ in range(40)]
        scens[1] = _with_zero_gain(scens[1], 0)
        at_k, at_huge, before_k = (p.tobytes() for p in phases_of(stack_scenarios(scens),
                                                                   [k, 10**30, k - 1]))
        assert at_huge == at_k, m
        assert before_k != at_k, m


#: Unsorted budgets on both sides of the table depth and of the convergence floor
MIXED_BUDGETS = (8, 1, 9, 20, 41, 42, 43, 10**30)


def _assert_phases_match_per_budget(phases_of, stack, budgets):
    """``phases_of`` at the budget list gives, budget by budget, the phases
    of the per-budget engine (conftest's oracle) by ``tobytes``."""
    for n, phases in zip(budgets, phases_of(stack, budgets), strict=True):
        assert phases.tobytes() == per_budget_phases(stack, n).tobytes(), n


def test_exact_phases_match_the_per_budget_loop(phases_of, rng):
    """Mixed and unsorted budget lists, one budget alone included, on stacks
    with zero-gain links at M = 2, 5 and 10."""
    for m in (2, 5, 10):
        scens = [random_scenario(rng, m) for _ in range(40)]
        scens[1] = _with_zero_gain(scens[1], 0)
        scens[5] = _with_zero_gain(scens[5], m - 1)
        stack = stack_scenarios(scens)
        for budgets in (MIXED_BUDGETS, (1,), (10**30,), (9, 3), tuple(range(8, 0, -1))):
            _assert_phases_match_per_budget(phases_of, stack, budgets)


def test_exact_phases_match_the_per_budget_loop_near_ties(phases_of):
    """Every depth's near-tie stages (:func:`_near_tie_scenarios`) in one
    stack, at the mixed budgets and every depth of the table."""
    stack = stack_scenarios([s for depth in range(8) for s in _near_tie_scenarios(depth)])
    _assert_phases_match_per_budget(phases_of, stack, MIXED_BUDGETS + (2, 3, 4, 5, 6, 7))


def test_exact_phases_match_the_per_budget_loop_where_every_stage_ties(phases_of):
    """Gains [1, 0, 0, 0] make every stage's swing zero, so every
    comparison ties and every row of every budget takes the loop."""
    rng = np.random.default_rng(29)
    stack = stack_scenarios([Scenario(1.0, 1.0, [1.0, 0.0, 0.0, 0.0], shifts)
                             for shifts in rng.uniform(-math.pi, math.pi, (50, 4))])
    _assert_phases_match_per_budget(phases_of, stack, MIXED_BUDGETS)


@pytest.mark.parametrize("links, per_batch", [(4, 1), (120, 1), (364, 3), (2 ** 18, 8)])
def test_exact_phases_batch_at_most_a_chunk_of_rows(monkeypatch, rng, links, per_batch):
    """30 trials at M = 4: with ``streams._CHUNK_LINKS`` at ``links``, a
    batch holds max(T, links // M) rows, so ``per_batch`` budgets, and
    every batch gives the per-budget loop's phases."""
    stack = stack_scenarios([random_scenario(rng, 4) for _ in range(30)])
    monkeypatch.setattr(streams, "_CHUNK_LINKS", links)
    rows = []
    final_centres = protocol._final_centres

    def counted(target, *args):
        rows.append(len(target))
        return final_centres(target, *args)

    monkeypatch.setattr(protocol, "_final_centres", counted)
    _assert_phases_match_per_budget(protocol.exact_phases, stack, MIXED_BUDGETS)
    k = len(MIXED_BUDGETS)
    sizes = [min(per_batch, k - i) for i in range(0, k, per_batch)]
    assert rows == [30 * size for size in sizes for _ in range(3)]


def test_exact_phases_past_a_chunk_take_no_more_memory_than_one_batch():
    """A sweep of more than ``streams._CHUNK_LINKS`` trial-links per budget
    runs one budget per batch: its tracemalloc peak exceeds the per-budget
    loop's by at most one batch, the (T, M) float64 phases of one budget."""
    m = 4
    trials = streams._CHUNK_LINKS // m + 1
    rng = np.random.default_rng(31)
    stack = TrialStack(rng.uniform(0.1, 1.0, (trials, m)),
                       rng.uniform(-math.pi, math.pi, (trials, m)), np.ones(trials))
    budgets = (3, 9)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # each side holds one budget's phases while it computes the next
    def engine():
        for phases in protocol.exact_phases(stack, budgets):
            pass

    def per_budget():
        for n in budgets:
            phases = per_budget_phases(stack, n)

    batch = trials * m * 8
    assert peak(engine) <= peak(per_budget) + batch


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


#: The terms of ``adapt._cells``' angle budget, as its docstring derives
#: them: a tree centre, a probe and its difference with the target; the
#: cosine; and the gap between a target on np.arctan2 and one on
#: math.atan2, one ulp of the angle (2**-51 at |angle| <= pi) plus half an
#: ulp (2**-51 in (-2 pi, 2 pi]) for rounding each of the two differences
ANGLE_BUDGET = {"tree, probe and difference": 19 * 2.0 ** -50, "cosine": 2.0 ** -50,
                "target gap": 3 * 2.0 ** -51}


def test_numpy_and_math_atan2_targets_differ_within_the_margins_budget():
    """``adapt._cells`` clears a row on its np.arctan2 target, and the
    interval loop runs on the math.atan2 one, which run_protocol takes.
    The margin covers the gap if np.arctan2 is within one ulp of
    math.atan2, and so each target within ``ANGLE_BUDGET``'s target gap of
    the other: here on 10**6 random finite bit patterns, 10**6 polar pairs
    of log-uniform magnitude, every signed-zero and subnormal combination,
    and the combined signals of :func:`_probe_tie_scenarios`, each target
    at a random phase shift in [-pi, pi). The sum of the budget's terms
    stays below the 2 * ``_ANGLE_ERROR`` the margin allows."""
    rng = np.random.default_rng(45)
    n = 10 ** 6
    patterns = rng.integers(0, 2 ** 63, size=(2, 2 * n), dtype=np.int64).view(np.float64)
    patterns = patterns[:, np.isfinite(patterns).all(axis=0)][:, :n]
    amp, angle = np.exp(rng.uniform(-700.0, 700.0, n)), rng.uniform(-math.pi, math.pi, n)
    special = [0.0, -0.0, math.ulp(0.0), -math.ulp(0.0), 1e-310, -2.5e-320,
               sys.float_info.min, 1.0, -1.0]
    ties = stack_scenarios(_probe_tie_scenarios())
    re, im = next(power._prefix_sums(ties.gains, ties.phase_shifts, np.zeros_like(ties.gains)))
    pairs = [patterns, np.stack([amp * np.sin(angle), amp * np.cos(angle)]),
             np.array(list(itertools.product(special, repeat=2))).T, np.stack([im, re])]
    im, re = np.concatenate(pairs, axis=1)
    by_numpy = np.arctan2(im, re)
    by_math = np.array(list(map(math.atan2, im.tolist(), re.tolist())))
    assert len(by_math) > 2 * n
    assert (np.abs(by_numpy - by_math) <= np.spacing(np.abs(by_math))).all()
    assert (np.abs(by_math) <= math.pi).all() and np.spacing(math.pi) == 2.0 ** -51
    shift = rng.uniform(-math.pi, math.pi, len(re))
    with np.errstate(over="ignore"):     # the random patterns' powers may overflow to inf
        ss_gain = re * re + im * im
    gap = np.abs(protocol._target(shift, ss_gain, by_numpy) - protocol._target(shift, ss_gain, by_math))
    assert gap.max() <= ANGLE_BUDGET["target gap"]
    assert sum(ANGLE_BUDGET.values()) < 2.0 * adapt._ANGLE_ERROR


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
    assert type(got) is type(want) is TrainingTrace, where
    for name, g, w in zip(TRACE_COLUMNS, trace_columns(got), trace_columns(want)):
        assert type(g) is type(w) is tuple and len(g) == len(want.bit), (where, name)
        for n, (a, b) in enumerate(zip(g, w), start=1):
            assert _same(a, b), (where, n, name)
    for name in ("target_phase", "sum_gain"):
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
        for name in ("final_phases", "q_d", "q_star", "eta", "errors",
                     "total_feedback_intervals"):
            assert _same(getattr(got, name), getattr(want, name)), (where, name)
        assert len(got.traces) == len(want.traces) == m - 1
        for g, w in zip(got.traces, want.traces):
            _assert_same_trace(g, w, where)
        _assert_same_generators(meas, meas_ref, where)


@pytest.mark.parametrize("m", [2, 3, 5, 10, 50])
def test_adapt_phase_matches_per_reading_oracle(m):
    """One stage against an arbitrary active set: the trace and the
    generator state equal the one-reading-at-a-time oracle's bit for bit. Each zero-gain link (first,
    middle, last) is paired with a different adapting transmitter."""
    rng = np.random.default_rng(2000 + m)
    s = random_scenario(rng, m)
    ends = (0, m // 2, m - 1)
    stages = [(s, m - 1)] + [(_with_zero_gain(s, i), ends[j - 1]) for j, i in enumerate(ends)]
    for k, (s, adapter) in enumerate(stages):
        active = rng.random(m) < 0.8
        active[adapter] = False
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, m), active)
        for n, std in itertools.product(ORACLE_BUDGETS, ORACLE_NOISE):
            where = (m, k, adapter, n, std)
            meas, meas_ref = _meas_pair(std, 11 * n + k)
            phi, trace = adapt_phase(s, pa, adapter, n, meas)
            phi_ref, trace_ref = per_reading_adapt_phase(s, pa, adapter, n, meas_ref)
            assert _same(phi, phi_ref), where
            _assert_same_trace(trace, trace_ref, where)
            _assert_same_generators(meas, meas_ref, where)


PAST_FLOOR_BUDGETS = (8, 42, 43, 44, 60, 100, 10_000)   # 43: the first interval that repeats


@pytest.mark.parametrize("m", [2, 5])
def test_stage_past_the_convergence_floor_matches_oracle(m):
    """Past interval adapt._MOVING_INTERVALS + 1 the stage fills its columns
    at once instead of looping; the trace, phase and generator state still
    equal the one-reading-at-a-time oracle's bit for bit, exact and noisy
    (1.0 W clamps about half the readings at 0), and so does a noisy
    run_protocol at N = 100."""
    assert adapt._MOVING_INTERVALS + 1 == 43
    rng = np.random.default_rng(4000 + m)
    s = random_scenario(rng, m)
    active = np.ones(m, dtype=bool)
    active[m - 1] = False
    pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, m), active)
    for n, std in itertools.product(PAST_FLOOR_BUDGETS, (0.0, 1e-6, 1.0)):
        where = (m, n, std)
        meas, meas_ref = _meas_pair(std, 13 * n + 1)
        phi, trace = adapt_phase(s, pa, m - 1, n, meas)
        phi_ref, trace_ref = per_reading_adapt_phase(s, pa, m - 1, n, meas_ref)
        assert _same(phi, phi_ref), where
        _assert_same_trace(trace, trace_ref, where)
        _assert_same_generators(meas, meas_ref, where)
    meas, meas_ref = _meas_pair(1e-6, 100)
    got, want = run_protocol(s, 100, meas), per_stage_protocol(s, 100, meas_ref)
    assert _same(got.final_phases, want.final_phases)
    for g, w in zip(got.traces, want.traces, strict=True):
        _assert_same_trace(g, w, (m, "run_protocol"))
    _assert_same_generators(meas, meas_ref, (m, "run_protocol"))


def test_negative_zero_reading_matches_oracle():
    """A probe whose power rounds below zero reads -0.0 from partial_power;
    its reading is 0.0, as in the oracle: a reading is never -0.0.
    adapt_phase meets it at a power scale of 1e-310, run_protocol at
    8e-308, where Q* (about 3.37e-308) is still a normal float."""
    gains, shifts = [0.10520315032328138, 0.10520315032328142], [0.0, math.pi]
    s = Scenario(1.0, 1e-310, gains, shifts)
    pa = PhaseAssignment(np.zeros(2), np.array([True, False]))
    phi, trace = adapt_phase(s, pa, 1, 4)
    phi_ref, trace_ref = per_reading_adapt_phase(s, pa, 1, 4)
    assert _same(phi, phi_ref)
    _assert_same_trace(trace, trace_ref, "adapt_phase")
    assert _same(trace.q_psi[0], 0.0)
    s = Scenario(1.0, 8e-308, gains, shifts)
    got, want = run_protocol(s, 4), per_stage_protocol(s, 4)
    first = got.traces[0]
    assert _same(partial_power(s, sum_signal(s, pa), 1, first.psi[0]), -0.0)
    assert _same(first.q_psi[0], 0.0)
    _assert_same_trace(got.traces[0], want.traces[0], "run_protocol")


def test_run_protocol_rejects_a_zero_or_infinite_optimum():
    """An optimum that underflows to 0 or overflows is checked_optima's
    ValueError, not a ZeroDivisionError or a NaN efficiency."""
    for scale, gain, q in ((1e-320, 1e-6, "0.0"), (1e308, 4.0, "inf")):
        s = Scenario(scale, 1.0, [gain, gain], [0.0, 1.0])
        with pytest.raises(ValueError, match=f"optimal power of the scenario is {q}: power "):
            run_protocol(s, 3)


def test_run_protocol_rejects_a_subnormal_optimum():
    """This scenario's efficiency is the same, bit for bit, at power scales
    1 and 1e-300. At 1e-310 its Q* is subnormal, and the efficiency used to
    differ in the last digits (0.9936151036369086); run_protocol raises
    checked_optima's error there, as every experiment does."""
    def run(eff):
        return run_protocol(Scenario(1.0, eff, [1.0] * 3, [0.0, 1.0, 2.0]), 4)

    etas = [run(eff).eta for eff in (1.0, 1e-300)]
    assert _same(etas[0], etas[1]) and etas[0] == 0.99361510363691
    message = ("optimal power of the scenario is 8.99999999999997e-310: power scale "
               "conversion_eff * transmit_power = 1e-310 leaves no finite optimum of at "
               f"least {sys.float_info.min}")
    with pytest.raises(ValueError, match=re.escape(message)):
        run(1e-310)


def test_run_protocol_gives_checked_optimas_message_for_an_overflowing_optimum():
    """run_protocol tests its one Q* as a float and calls checked_optima only
    to raise: the message is checked_optima's own for the same optimum."""
    s = Scenario(1e308, 1.0, [1e10, 1e10], [0.0, 0.0])
    assert optimal_power(s) == math.inf
    with pytest.raises(ValueError) as want:
        power.checked_optima(np.array([optimal_power(s)]), np.array([s.power_scale]),
                             ["the scenario"])
    with pytest.raises(ValueError) as got:
        run_protocol(s, 3)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("optimal power of the scenario is inf: power scale ")


def test_noisy_readings_are_python_floats():
    """Clamped readings (0.0) and unclamped ones share one type; the
    unclamped ones used to be numpy scalars from partial_power."""
    s = random_scenario(np.random.default_rng(3), 5)
    meas = MeasurementModel(MODE_ADDITIVE_NOISE, 1.0, np.random.default_rng(3))
    readings = [q for tr in run_protocol(s, 6, meas).traces for q in tr.q_psi + tr.q_psi_prime]
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
    s = Scenario(1.0, 1.0, gains, shifts)
    stack = stack_scenarios([s])
    tie_keeps_psi = {n: run_protocol(s, n).final_phases for n in (1, 4, 9)}
    monkeypatch.setattr(adapt, "feedback_bit", lambda q_psi, q_psi_prime: q_psi > q_psi_prime)
    for n, before in tie_keeps_psi.items():
        want = run_protocol(s, n).final_phases
        assert not _same(want, before), n
        assert _same(exact_runs(stack, n)[0][0], want), n
        (phases,) = protocol.exact_phases(stack, [n])
        assert _same(phases[0], want), n


@pytest.mark.parametrize("gains, shifts", ZERO_GAIN_SCENARIOS)
def test_replayed_errors_match_the_run_after_zero_gain_links(gains, shifts):
    """A stage whose prefix has zero combined gain records target 0, and the
    replay gives the same target: for gains [0, 1, 0.5] the replay used to
    return 0.174 against the recorded 1.374."""
    s = Scenario(1.0, 1.0, gains, shifts)
    for n, std in itertools.product((1, 4, 8), (0.0, 1e-3)):
        meas, _ = _meas_pair(std, n)
        res = run_protocol(s, n, meas)
        assert _same(phase_errors(res, s), res.errors), (n, std)
        for trace in res.traces:
            if trace.sum_gain == 0.0:
                assert _same(trace.target_phase, 0.0)


@pytest.mark.parametrize("gains, shifts", ((None, None),) + ZERO_GAIN_SCENARIOS)
def test_phases_from_errors_round_trips_through_phase_errors(rng, gains, shifts):
    """Phases built from stage errors replay to those errors, to within the
    rounding of one wrap on each side."""
    for _ in range(50):
        if gains is None:
            s = random_scenario(rng, int(rng.integers(2, 9)))
        else:
            s = Scenario(1.0, 1.0, gains, shifts)
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
    # for equal gains one interval already guarantees (1 + (M-1)*0)/M = 1/5:
    # a target at or below it needs the least budget, 1
    assert required_intervals(s, 0.15) == 1.0
    assert required_intervals(s, 0.2) == 1.0
    with pytest.raises(ValueError):
        required_intervals(s, 0.0)
    with pytest.raises(ValueError):
        required_intervals(s, 1.5)
    assert required_intervals(s, 1.0) == math.inf
    assert required_intervals(equal_gain_scenario(1), 0.9) == 0.0
    assert required_intervals_equal_gains(1, 0.9) == 0.0


def test_required_intervals_guarantee(rng):
    """Running with the ceiling of the required budget meets the target,
    for targets below the one-interval floor too."""
    floored = 0
    for _ in range(40):
        s = random_scenario(rng, int(rng.integers(2, 8)))
        eta_hat = float(rng.uniform(0.0, 1.0))
        n_req = required_intervals(s, eta_hat)
        floored += n_req == 1.0
        n = max(1, math.ceil(n_req))
        assert efficiency_lower_bound(s, n) >= eta_hat - 1e-12
        assert run_protocol(s, n).eta >= eta_hat - 1e-12
    assert floored > 0


def test_accumulated_power_perfect_alignment(rng):
    s = random_scenario(rng, 6)
    zero = np.zeros(6)
    acc = accumulated_power(s.gains, zero)
    amp = np.sqrt(s.gains)
    assert acc == pytest.approx(float(np.sum(amp)) ** 2, rel=1e-12)
    ok, slack = check_induction_inequality(s, zero)
    assert ok
    assert slack == pytest.approx(0.0, abs=1e-12 * acc)


def test_recursion_and_bound_equal_their_numpy_scalar_forms():
    """``accumulated_power`` over Python floats equals its numpy-scalar loop,
    and ``error_bound_power`` through ``np.add.reduce`` its ``np.sum``
    form, bit for bit, sign of zero included: on every instance of verify's
    stage-recursion check, and on zero gains and errors past pi/2."""
    cases = [(s.gains, errors) for s, errors in induction_instances()]
    cases += [([-0.0], [0.0]), ([0.0, 0.0], [0.0, math.pi]), ([0.0, 1.0, 0.0], [0.0, 3.0, -3.0]),
              ([2.0, 0.0], [0.0, -0.0]), ([1.0, 4.0, 9.0], [0.0, math.pi, -math.pi])]
    for k, (gains, errors) in enumerate(cases):
        acc = accumulated_power(gains, errors)
        assert type(acc) is float
        assert float_bits(acc) == float_bits(numpy_scalar_accumulated_power(gains, errors)), k
        assert float_bits(error_bound_power(gains, errors)) == \
            float_bits(np_sum_error_bound_power(gains, errors)), k


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
    assert sum(len(t.bit) for t in res.traces) == 16
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
