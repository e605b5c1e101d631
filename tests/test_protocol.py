import itertools
import math

import numpy as np
import pytest

from distbeam import (
    Channel,
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
from distbeam.adapt import TraceRecord, adapt_phase
from distbeam.power import MODE_ADDITIVE_NOISE, MeasurementModel, stack_scenarios
from distbeam.protocol import exact_runs

from conftest import (
    equal_gain_scenario,
    pairwise_error_bound,
    per_reading_adapt_phase,
    per_stage_protocol,
    random_scenario,
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
    # a NaN first phase gave eta = nan, an infinite one a bare math domain error
    for first in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="first_phase must be finite"):
            run_protocol(random_scenario(rng, 3), 4, first_phase=first)
    with pytest.raises(ValueError, match="at least two transmitters"):
        exact_runs(stack_scenarios([random_scenario(rng, 1)] * 3), 5)
    with pytest.raises(ValueError, match="n_intervals must be >= 1"):
        exact_runs(stack_scenarios([random_scenario(rng, 4)] * 3), 0)


def _with_zero_gain(s, index):
    channels = list(s.channels)
    channels[index] = Channel(0.0, channels[index].phase_shift)
    return Scenario(s.transmit_power, s.carrier_freq, s.conversion_eff, channels)


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
                scens.append(Scenario(1.0, 915e6, 1.0, [Channel(g0, s0), Channel(1.0, shift)]))
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
    exact and noisy, at both reference phases."""
    s = random_scenario(np.random.default_rng(1000 + m), m)
    if m <= 10:
        scens = [s] + [_with_zero_gain(s, i) for i in (0, m // 2, m - 1)]
        scens += _probe_tie_scenarios() if m == 2 else []
        budgets = ORACLE_BUDGETS
    else:
        scens = [s, _with_zero_gain(_with_zero_gain(_with_zero_gain(s, 0), m // 2), m - 1)]
        budgets = [1, 8, 45]
    cases = itertools.product(enumerate(scens), budgets, ORACLE_NOISE, (0.0, 0.7))
    for (k, s), n, std, first in cases:
        where = (m, k, n, std, first)
        meas, meas_ref = _meas_pair(std, 7 * n + k)
        got = run_protocol(s, n, meas, first_phase=first)
        want = per_stage_protocol(s, n, meas_ref, first_phase=first)
        for name in ("final_phases", "q_d", "q_star", "eta", "target_phases", "errors",
                     "total_feedback_intervals"):
            assert _same(getattr(got, name), getattr(want, name)), (where, name)
        assert len(got.traces) == len(want.traces) == m - 1
        for g, w in zip(got.traces, want.traces):
            _assert_same_trace(g, w, where)
        _assert_same_generators(meas, meas_ref, where)


@pytest.mark.parametrize("m", [2, 3, 5, 10, 50])
def test_adapt_phase_matches_per_reading_oracle(m):
    """One stage against an arbitrary active set, with repeated probes and a
    rotated probe lattice: the trace and the generator state equal the
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
        for n, std, repeats, offset in itertools.product(
                ORACLE_BUDGETS, ORACLE_NOISE, (1, 3), (0.0, 0.7)):
            where = (m, k, adapter, n, std, repeats, offset)
            meas, meas_ref = _meas_pair(std, 11 * n + k)
            phi, trace = adapt_phase(s, pa, adapter, n, meas, offset, repeats)
            phi_ref, trace_ref = per_reading_adapt_phase(s, pa, adapter, n, meas_ref,
                                                         offset, repeats)
            assert _same(phi, phi_ref), where
            _assert_same_trace(trace, trace_ref, where)
            _assert_same_generators(meas, meas_ref, where)


def test_negative_zero_reading_matches_oracle():
    """At a power scale of 1e-310 a probe whose power rounds below zero
    reads -0.0 from partial_power; the single-repeat reading is 0.0, as
    the oracle's sum over repeats gives."""
    s = Scenario(1.0, 1.0, 1e-310, [Channel(0.10520315032328138, 0.0),
                                    Channel(0.10520315032328142, math.pi)])
    pa = PhaseAssignment(np.zeros(2), np.array([True, False]))
    phi, trace = adapt_phase(s, pa, 1, 4)
    phi_ref, trace_ref = per_reading_adapt_phase(s, pa, 1, 4)
    assert _same(phi, phi_ref)
    _assert_same_trace(trace, trace_ref, "adapt_phase")
    assert _same(trace.records[0].q_psi, 0.0)
    got, want = run_protocol(s, 4), per_stage_protocol(s, 4)
    _assert_same_trace(got.traces[0], want.traces[0], "run_protocol")


def test_run_protocol_rejects_a_zero_or_infinite_optimum():
    """An optimum that underflows to 0 or overflows is a ValueError, not a
    ZeroDivisionError or a NaN efficiency."""
    for scale, gain, q in ((1e-320, 1e-6, "0.0"), (1e308, 4.0, "inf")):
        s = Scenario.from_arrays(scale, 1.0, 1.0, [gain, gain], [0.0, 1.0])
        with pytest.raises(ValueError, match=f"optimal power is {q}"):
            run_protocol(s, 3)


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
        assert np.allclose(recomputed, res.errors, atol=1e-12)
        assert recomputed[0] == 0.0


def test_error_bound_across_stages(rng):
    for _ in range(50):
        s = random_scenario(rng, 6)
        res = run_protocol(s, 5)
        assert np.max(np.abs(res.errors[1:])) <= math.pi / 32 + 1e-12


def test_global_phase_invariance(rng):
    for _ in range(30):
        s = random_scenario(rng, 5)
        base = run_protocol(s, 4)
        for c in (0.7, -2.1):
            rot = run_protocol(s, 4, first_phase=c)
            assert rot.q_d == pytest.approx(base.q_d, rel=1e-9)
            assert circular_distance(rot.final_phases[0], wrap_angle(c)) < 1e-12
            for a, b in zip(rot.final_phases, base.final_phases):
                assert circular_distance(a, wrap_angle(b + c)) < 1e-9


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


def test_summary_csv_shape(rng):
    s = random_scenario(rng, 5)
    res = run_protocol(s, 5)
    csv = res.summary_csv(efficiency_lower_bound(s, 5))
    lines = csv.strip().splitlines()
    assert lines[0] == "M,N,Q_d,Q_star,eta,bound,max_abs_error"
    fields = lines[1].split(",")
    assert fields[0] == "5" and fields[1] == "5"
    assert float(fields[4]) == pytest.approx(res.eta, rel=1e-12)
