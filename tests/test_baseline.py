import itertools
import math
import tracemalloc

import numpy as np
import pytest

import distbeam.baseline
import distbeam.power
from distbeam import (
    MeasurementModel,
    PerturbationConfig,
    PhaseAssignment,
    Scenario,
    harvested_power,
    optimal_power,
    run_random_perturbation,
)
from distbeam.baseline import _BLOCK_DOUBLES, DIST_GAUSSIAN, DIST_UNIFORM
from distbeam.experiments import config_from_mapping, rng_stream, run_experiment
from distbeam.power import EXACT, MODE_ADDITIVE_NOISE

from conftest import full_matrix_pair_sum, per_interval_perturbation, random_scenario


def test_config_validation():
    with pytest.raises(ValueError):
        PerturbationConfig(scale=0.0)
    with pytest.raises(ValueError):
        PerturbationConfig(scale=-0.1)
    with pytest.raises(ValueError):
        PerturbationConfig(max_intervals=0)
    with pytest.raises(ValueError):
        PerturbationConfig(distribution="drunkwalk")
    # non-finite scales, and uniform half-ranges whose width 2*scale overflows
    for dist, scale in ((DIST_UNIFORM, math.inf), (DIST_UNIFORM, math.nan),
                        (DIST_UNIFORM, 1e308), (DIST_GAUSSIAN, math.inf),
                        (DIST_GAUSSIAN, math.nan)):
        with pytest.raises(ValueError):
            PerturbationConfig(distribution=dist, scale=scale)


@pytest.mark.parametrize("dist", [DIST_UNIFORM, DIST_GAUSSIAN])
@pytest.mark.parametrize("m", [1, 2, 5, 40, 64])
def test_block_evaluation_matches_per_interval_loop(m, dist):
    """Every trace array, the final record and both generators' next draws
    equal the per-interval rule's. 389 intervals is prime, so no block size
    divides it."""
    s = random_scenario(rng_stream(31, m), m)
    for scale in (math.pi / 8, 1e-12, 3.0):
        for noise in (0.0, 1e-3):
            for intervals in (1, 300, 389):
                cfg = PerturbationConfig(dist, scale, intervals)
                runs = []
                for run in (per_interval_perturbation, run_random_perturbation):
                    rng = rng_stream(32, m, intervals)
                    meas = (MeasurementModel(MODE_ADDITIVE_NOISE, noise, rng_stream(33, m))
                            if noise else EXACT)
                    trace = run(s, cfg, meas, rng=rng)
                    runs.append((trace, rng.random(), meas.rng and meas.rng.random()))
                (want, want_draw, want_noise), (got, got_draw, got_noise) = runs
                case = (scale, noise, intervals)
                for field in ("candidate_phases", "measured_power", "best_power",
                              "accepted", "final_phases"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), (field, case)
                assert (got_draw, got_noise) == (want_draw, want_noise), case


#: A baseline trace's per-interval arrays and its final phases
TRACE_FIELDS = ("candidate_phases", "measured_power", "best_power", "accepted", "final_phases")


@pytest.mark.parametrize("m", [5, 10, 20, 40])
def test_half_matrix_kernel_leaves_traces_unchanged(m, monkeypatch):
    """5,000-interval runs, uniform and gaussian, exact and noisy, give the
    same trace bytes with the full M x M kernel patched in for every
    reading, the first one included. ``measured_power`` is computed when it
    is read, so it is read while the kernel is patched."""
    s = random_scenario(rng_stream(41, m), m)
    noise = 1e-3 * optimal_power(s)
    for dist in (DIST_UNIFORM, DIST_GAUSSIAN):
        for std in (0.0, noise):
            cfg = PerturbationConfig(dist, max_intervals=5000)
            runs = []
            for full in (False, True):
                if full:
                    monkeypatch.setattr(distbeam.baseline, "_pair_sum", full_matrix_pair_sum)
                    monkeypatch.setattr(distbeam.power, "_pair_sum", full_matrix_pair_sum)
                meas = MeasurementModel(MODE_ADDITIVE_NOISE, std, rng_stream(43, m)) if std else EXACT
                trace = run_random_perturbation(s, cfg, meas, rng=rng_stream(42, m))
                runs.append({field: getattr(trace, field) for field in TRACE_FIELDS})
            monkeypatch.undo()
            got, want = runs
            assert got["accepted"].any(), (dist, std)
            for field in TRACE_FIELDS:
                assert got[field].tobytes() == want[field].tobytes(), (field, dist, std)


def _kernel_rows(monkeypatch) -> list[tuple[int, int]]:
    """Patch the baseline's kernel to record (M, rows) of every call."""
    calls = []
    kernel = distbeam.baseline._pair_sum

    def counted(amp, offs):
        calls.append(offs.shape[::-1])
        return kernel(amp, offs)

    monkeypatch.setattr(distbeam.baseline, "_pair_sum", counted)
    return calls


def _assert_matches_per_interval(s, cfg, std=0.0, seed=61):
    """The run's trace bytes, and both generators' next draws, equal the
    per-interval rule's."""
    runs = []
    for run in (per_interval_perturbation, run_random_perturbation):
        rng = rng_stream(seed, 1)
        meas = MeasurementModel(MODE_ADDITIVE_NOISE, std, rng_stream(seed, 2)) if std else EXACT
        trace = run(s, cfg, meas, rng=rng)
        fields = {field: getattr(trace, field).tobytes() for field in TRACE_FIELDS}
        runs.append((fields, rng.random(), meas.rng and meas.rng.random()))
    (want, *want_draws), (got, *got_draws) = runs
    for field in TRACE_FIELDS:
        assert got[field] == want[field], field
    assert got_draws == want_draws


def test_no_row_is_screened_out_when_every_step_wraps_to_the_record(monkeypatch):
    """At scale 1e-300 every candidate wraps to the record itself, so its
    reading equals the record and no margin can prove it lower: every row
    reaches the kernel, a kernel call at a time of at most
    ``_BLOCK_DOUBLES // M**2`` rows, and none is kept.

    The run then holds its trace and one kernel call's arrays: the
    per-block kernel that preceded the screen peaked here at 2.95 MB (its
    trace, 2.65 MB with the measured powers, and a 4-row call), and one
    kernel call over a whole 256-row block at 15 MB."""
    m = 64
    s = random_scenario(rng_stream(51, m), m)
    cfg = PerturbationConfig(scale=1e-300, max_intervals=5000)
    calls = _kernel_rows(monkeypatch)
    trace = run_random_perturbation(s, cfg, rng=rng_stream(52, m))
    assert sum(rows for _, rows in calls) == 5000
    assert max(rows for _, rows in calls) <= _BLOCK_DOUBLES // m**2
    start = harvested_power(s, PhaseAssignment(np.zeros(m)))
    assert not trace.accepted.any() and (trace.best_power == start).all()
    assert (trace.candidate_phases == 0.0).all() and (trace.measured_power == start).all()
    monkeypatch.undo()

    tracemalloc.start()
    try:
        trace = run_random_perturbation(s, cfg, rng=rng_stream(52, m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = trace.candidate_phases.nbytes + trace.best_power.nbytes + trace.accepted.nbytes
    assert peak <= held + 3 * 8 * _BLOCK_DOUBLES, (peak, held)


def _scaled_scenario(gains, power_scale: float, seed: int) -> Scenario:
    """Channels of the given gains at uniform phases, scaled by ``power_scale``."""
    phases = rng_stream(seed, 0).uniform(-math.pi, math.pi, len(gains))
    return Scenario(power_scale, 1.0, 1.0, gains, phases)


def _gain_cases(m: int):
    """(label, scenario) at the gain limits and at extreme power scales."""
    w = rng_stream(71, m).uniform(0.5, 1.0, m)
    top = w * (0.999 * 2.0**511 / math.fsum(np.sqrt(w)) ** 2)     # (sum sqrt g)**2 near 2**511
    floor = np.ldexp(1.0 + w * 2.0**-40, -511)                    # gains just above 2**-511
    unit = w / math.fsum(np.sqrt(w)) ** 2                          # (sum sqrt g)**2 near 1
    return [
        ("drawn", random_scenario(rng_stream(72, m), m)),
        ("gain sums near 2**511", _scaled_scenario(top, 1.0, m)),
        ("gains near 2**-511", _scaled_scenario(floor, 1.0, m)),
        ("subnormal powers", _scaled_scenario(floor, 2.0**-555, m)),
        ("optimum near the float maximum", _scaled_scenario(unit, 1.5e308, m)),
        ("optimum near the smallest normal", _scaled_scenario(unit, 4.0 * 2.0**-1022, m)),
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [5, 40])
def test_near_ties_match_the_per_interval_rule(m):
    """Steps of 1e-12 and 1e-15 rad keep every candidate within a few
    rounding errors of the record, where the screen must hand the close
    calls to the kernel. At the gain limits, at powers near the float
    maximum, near the smallest normal and subnormal, exact and with noise
    far below and far above the optimum, the run equals the per-interval
    rule byte for byte, with no RuntimeWarning. With a zero margin, 19 of
    these 128 runs keep a different candidate."""
    for label, s in _gain_cases(m):
        q_star = optimal_power(s)
        for dist, scale in itertools.product((DIST_UNIFORM, DIST_GAUSSIAN), (1e-12, 1e-15)):
            cfg = PerturbationConfig(dist, scale=scale, max_intervals=400)
            for std in [0.0] + [v for v in (1e-9 * q_star, 1e3 * q_star) if 0.0 < v < math.inf]:
                try:
                    _assert_matches_per_interval(s, cfg, std)
                except AssertionError as exc:
                    raise AssertionError((label, dist, scale, std)) from exc


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_the_benchmark_sweep_reads_few_candidates_through_the_kernel(seed, monkeypatch):
    """At the benchmark's convergence-comparison (5,000 intervals, M 5 to
    40), fewer than 5% of each run's candidates reach the pairwise kernel:
    143 of 5,000 at M=40 and seed 7. The experiment reads only the record,
    so nothing reads the measured powers afterwards."""
    calls = _kernel_rows(monkeypatch)
    run_experiment(config_from_mapping({"experiment": "convergence-comparison",
                                        "intervals": "5000", "m_list": "5,10,20,40",
                                        "seed": str(seed)}))
    for m in (5, 10, 20, 40):
        rows = sum(rows for width, rows in calls if width == m)
        assert 0 < rows < 0.05 * 5000, (m, rows)


def _worst_sum_pair_sum(amp: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """The pairwise kernel moved by the largest rounding error a sum of its
    M**2 terms may make in some order, (M**2 - 1) * 2**-53 * (sum amp)**2,
    up or down by the parity of the row's offsets' last eight bits."""
    m = offs.shape[-1]
    error = (m * m - 1) * 2.0**-53 * float(np.sum(amp)) ** 2
    low = np.bitwise_xor.reduce(offs.view(np.int64), axis=-1) & 255
    for shift in (4, 2, 1):   # fold the eight bits to their parity in bit 0
        low ^= low >> shift
    return full_matrix_pair_sum(amp, offs) + np.where(low & 1, error, -error)


@pytest.mark.parametrize("m", [40, 64])
def test_the_margin_covers_a_kernel_sum_at_its_worst_rounding(m, monkeypatch):
    """The margin's M**2 term stands for the kernel's sum of M**2 terms,
    whose order the screen does not know. Patched to err by that sum's
    worst case, row by row in either direction, the kernel keeps
    candidates that the screen's O(M) reading puts up to (M**2 - 1) units
    of 2**-53 * (sum sqrt g)**2 below the record, and the run must still
    equal the per-interval rule on the same kernel."""
    monkeypatch.setattr(distbeam.baseline, "_pair_sum", _worst_sum_pair_sum)
    monkeypatch.setattr(distbeam.power, "_pair_sum", _worst_sum_pair_sum)
    s = random_scenario(rng_stream(81, m), m)
    for scale in (1e-15, 1e-12):
        _assert_matches_per_interval(s, PerturbationConfig(scale=scale, max_intervals=1000))


def test_noisy_measurement_needs_its_own_generator(rng):
    s = random_scenario(rng, 3)
    cfg = PerturbationConfig(max_intervals=5)
    shared = np.random.default_rng(4)
    with pytest.raises(ValueError, match="generator of its own"):
        run_random_perturbation(s, cfg, MeasurementModel(MODE_ADDITIVE_NOISE, 1e-3, shared),
                                rng=shared)


def test_the_caller_supplies_the_generator(rng):
    """A run without ``rng`` is a TypeError: there is no unseeded default,
    which gave a different trace on every call."""
    s = random_scenario(rng, 3)
    with pytest.raises(TypeError, match="rng"):
        run_random_perturbation(s, PerturbationConfig(max_intervals=5))
    with pytest.raises(TypeError):
        run_random_perturbation(s, PerturbationConfig(max_intervals=5), EXACT, rng)


def test_non_finite_steps_raise_before_any_wrap(rng, monkeypatch):
    import distbeam.baseline as baseline

    def no_wrap(x):
        raise AssertionError("wrap_angle ran on the steps")

    monkeypatch.setattr(baseline, "wrap_angle", no_wrap)
    s = random_scenario(rng, 5)
    cfg = PerturbationConfig(distribution=DIST_GAUSSIAN, scale=1e308, max_intervals=400)
    with pytest.raises(ValueError, match="non-finite"):
        run_random_perturbation(s, cfg, rng=rng)


def test_degenerate_scale_freezes_power(rng):
    s = random_scenario(rng, 5)
    start = harvested_power(s, PhaseAssignment(np.zeros(5)))
    cfg = PerturbationConfig(scale=1e-12, max_intervals=200)
    trace = run_random_perturbation(s, cfg, rng=rng)
    assert np.allclose(trace.best_power, start, rtol=1e-6)
    assert np.allclose(trace.measured_power, start, rtol=1e-6)


def test_single_transmitter_flat(rng):
    s = random_scenario(rng, 1)
    cfg = PerturbationConfig(max_intervals=50)
    trace = run_random_perturbation(s, cfg, rng=rng)
    expected = s.conversion_eff * s.transmit_power * s.gains[0]
    assert np.allclose(trace.measured_power, expected, rtol=1e-12)
    assert np.allclose(trace.best_power, expected, rtol=1e-12)


def test_best_power_monotone_and_bounded(rng):
    for _ in range(20):
        s = random_scenario(rng, 5)
        cfg = PerturbationConfig(max_intervals=150)
        trace = run_random_perturbation(s, cfg, rng=rng)
        assert np.all(np.diff(trace.best_power) >= 0.0)
        assert trace.best_power[-1] <= optimal_power(s) * (1 + 1e-12)


def test_accepts_track_records(rng):
    s = random_scenario(rng, 5)
    cfg = PerturbationConfig(max_intervals=100)
    trace = run_random_perturbation(s, cfg, rng=rng)
    ups = np.diff(np.concatenate([[harvested_power(s, PhaseAssignment(np.zeros(5)))],
                                  trace.best_power])) > 0
    assert np.array_equal(ups, trace.accepted)
    # accepted intervals take the measured value as the new record
    for n in np.flatnonzero(trace.accepted):
        assert trace.best_power[n] == trace.measured_power[n]


def test_reproducible_with_fixed_stream(rng):
    s = random_scenario(rng, 6)
    cfg = PerturbationConfig(max_intervals=80)
    a = run_random_perturbation(s, cfg, rng=rng_stream(11, 1))
    b = run_random_perturbation(s, cfg, rng=rng_stream(11, 1))
    assert np.array_equal(a.candidate_phases, b.candidate_phases)
    assert np.array_equal(a.measured_power, b.measured_power)
    assert np.array_equal(a.best_power, b.best_power)
    assert np.array_equal(a.accepted, b.accepted)


def test_gaussian_mode_runs(rng):
    s = random_scenario(rng, 4)
    cfg = PerturbationConfig(distribution=DIST_GAUSSIAN, scale=0.2,
                             max_intervals=60)
    trace = run_random_perturbation(s, cfg, rng=rng)
    assert np.all(np.diff(trace.best_power) >= 0.0)


def test_slow_convergence_relative_to_protocol(rng):
    """At the sequential protocol's completion budget the baseline is
    usually still well short of the optimum."""
    behind = 0
    for seed in range(30):
        s = random_scenario(rng_stream(77, seed), 5)
        cfg = PerturbationConfig(max_intervals=20)
        trace = run_random_perturbation(s, cfg, rng=rng_stream(77, seed, 1))
        if trace.best_power[-1] < 0.99 * optimal_power(s):
            behind += 1
    assert behind >= 24


def test_interval_budget_one_bit_each(rng):
    s = random_scenario(rng, 5)
    cfg = PerturbationConfig(max_intervals=37)
    trace = run_random_perturbation(s, cfg, rng=rng)
    assert len(trace.measured_power) == 37
    assert len(trace.accepted) == 37


def test_trace_csv(rng):
    s = random_scenario(rng, 3)
    cfg = PerturbationConfig(max_intervals=4)
    trace = run_random_perturbation(s, cfg, rng=rng)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "n,power,best_power,accepted"
    assert len(lines) == 5
    assert lines[1].startswith("1,")
