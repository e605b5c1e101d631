import math

import numpy as np
import pytest

import distbeam.baseline
import distbeam.power
from distbeam import (
    MeasurementModel,
    PerturbationConfig,
    PhaseAssignment,
    harvested_power,
    optimal_power,
    run_random_perturbation,
)
from distbeam.baseline import DIST_GAUSSIAN, DIST_UNIFORM
from distbeam.experiments import rng_stream
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
                assert got.final_power == want.final_power, case
                assert (got_draw, got_noise) == (want_draw, want_noise), case


@pytest.mark.parametrize("m", [5, 10, 20, 40])
def test_half_matrix_kernel_leaves_traces_unchanged(m, monkeypatch):
    """5,000-interval runs, uniform and gaussian, exact and noisy, give the
    same trace bytes with the full M x M kernel patched in for every
    reading, the first one included."""
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
                runs.append(run_random_perturbation(s, cfg, meas, rng=rng_stream(42, m)))
            monkeypatch.undo()
            got, want = runs
            assert got.accepted.any(), (dist, std)
            for field in ("candidate_phases", "measured_power", "best_power", "accepted",
                          "final_phases"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (field, dist, std)
            assert got.final_power == want.final_power


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
        assert trace.final_power <= optimal_power(s) * (1 + 1e-12)
        assert trace.final_power == trace.best_power[-1]


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
        if trace.final_power < 0.99 * optimal_power(s):
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
