import itertools
import math
import sys
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
    generate_scenario,
    harvested_power,
    measure,
    optimal_power,
    run_random_perturbation,
)
from distbeam.baseline import _BLOCK_DOUBLES, DEFAULT_SCALE, DIST_GAUSSIAN, DIST_UNIFORM
from distbeam.angles import wrap_angle
from distbeam.experiments import EXP_CONVERGENCE, EXPERIMENTS, ExperimentConfig, rng_stream
from distbeam.power import EXACT, MODE_ADDITIVE_NOISE, TrialStack, _pair_sum, _phasor_power
from distbeam.selfcheck import phasor_oracle_powers

from conftest import full_matrix_pair_sum, per_interval_perturbation, random_scenario, where_wrap


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
    """Every trace array, the final record, the noise generator's state
    and both generators' next draws equal the per-interval rule's, at noise
    std 1.0 with a first reading that clamps to 0 as well. 389 intervals is
    prime, so no block size divides it."""
    s = random_scenario(rng_stream(31, m), m)
    # at noise std 1.0, a noise stream whose first value takes the first
    # reading, of the all-zero phases, below 0, where it clamps
    zero = harvested_power(s, PhaseAssignment(np.zeros(m)))
    clamped = next(k for k in itertools.count()
                   if zero + rng_stream(33, m, k).normal(0.0, 1.0) < 0.0)
    streams = {1e-3: (33, m), 1.0: (33, m, clamped)}
    for scale in (math.pi / 8, 1e-12, 3.0):
        for noise in (0.0, 1e-3, 1.0):
            for intervals in (1, 300, 389):
                cfg = PerturbationConfig(dist, scale, intervals)
                runs = []
                for run in (per_interval_perturbation, run_random_perturbation):
                    rng = rng_stream(32, m, intervals)
                    meas = (MeasurementModel(MODE_ADDITIVE_NOISE, noise,
                                             rng_stream(*streams[noise]))
                            if noise else EXACT)
                    trace = run(s, cfg, meas, rng=rng)
                    runs.append((trace, rng.random(),
                                 meas.rng and (meas.rng.bit_generator.state, meas.rng.random())))
                (want, want_draw, want_noise), (got, got_draw, got_noise) = runs
                case = (scale, noise, intervals)
                for field in ("candidate_phases", "measured_power", "best_power",
                              "accepted", "final_phases"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), (field, case)
                assert (got_draw, got_noise) == (want_draw, want_noise), case


#: A baseline trace's per-interval arrays and its final phases
TRACE_FIELDS = ("candidate_phases", "measured_power", "best_power", "accepted", "final_phases")


def _no_kernel(amp, offs):
    raise AssertionError("the baseline called the pairwise kernel")


def _no_measure(model, true_power):
    raise AssertionError("the baseline called the scalar measure")


@pytest.mark.parametrize("m", [5, 10, 20, 40])
def test_half_matrix_kernel_leaves_traces_unchanged(m, monkeypatch):
    """The baseline never calls the pairwise kernel ``power._pair_sum``,
    nor the scalar ``measure``: every reading, the first included, is one
    ``_phasor_power`` call. 5,000-interval runs, uniform and gaussian,
    exact and noisy, give the same trace bytes with the kernel and every
    ``distbeam`` module's ``measure`` patched to raise."""
    s = random_scenario(rng_stream(41, m), m)
    noise = 1e-3 * optimal_power(s)
    for dist in (DIST_UNIFORM, DIST_GAUSSIAN):
        for std in (0.0, noise):
            cfg = PerturbationConfig(dist, max_intervals=5000)
            runs = []
            for patched in (False, True):
                if patched:
                    monkeypatch.setattr(distbeam.power, "_pair_sum", _no_kernel)
                    for name, module in list(sys.modules.items()):
                        if (name.startswith("distbeam")
                                and getattr(module, "measure", None) is measure):
                            monkeypatch.setattr(module, "measure", _no_measure)
                meas = MeasurementModel(MODE_ADDITIVE_NOISE, std, rng_stream(43, m)) if std else EXACT
                trace = run_random_perturbation(s, cfg, meas, rng=rng_stream(42, m))
                runs.append({field: getattr(trace, field) for field in TRACE_FIELDS})
            monkeypatch.undo()
            got, want = runs
            assert got["accepted"].any(), (dist, std)
            for field in TRACE_FIELDS:
                assert got[field].tobytes() == want[field].tobytes(), (field, dist, std)


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
    """At scale 1e-300 every candidate wraps to the record itself, so every
    row reads the record's power and none is kept. Each of the 5,000
    candidates is read once, and the first reading once more.

    The run then holds its trace and one block's arrays: the per-block
    pairwise kernel of earlier versions peaked here at 2.95 MB (its trace,
    2.65 MB with the measured powers, and a 4-row call), and one kernel
    call over a whole 256-row block at 15 MB."""
    m = 64
    s = random_scenario(rng_stream(51, m), m)
    cfg = PerturbationConfig(scale=1e-300, max_intervals=5000)
    rows = []
    reading = distbeam.baseline._phasor_power

    def counted(amp, phases, *args):
        rows.append(phases.size // m)
        return reading(amp, phases, *args)

    monkeypatch.setattr(distbeam.baseline, "_phasor_power", counted)
    trace = run_random_perturbation(s, cfg, rng=rng_stream(52, m))
    monkeypatch.undo()
    assert sum(rows) == 1 + 5000
    start = float(reading(np.sqrt(s.gains), np.zeros(m), s.phase_shifts, s.power_scale))
    assert not trace.accepted.any() and (trace.best_power == start).all()
    assert (trace.candidate_phases == 0.0).all() and (trace.measured_power == start).all()

    tracemalloc.start()
    try:
        trace = run_random_perturbation(s, cfg, rng=rng_stream(52, m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(getattr(trace, field).nbytes for field in TRACE_FIELDS[:4])
    assert peak <= held + 3 * 8 * _BLOCK_DOUBLES, (peak, held)


def _scaled_scenario(gains, power_scale: float, seed: int) -> Scenario:
    """Channels of the given gains at uniform phases, scaled by ``power_scale``."""
    phases = rng_stream(seed, 0).uniform(-math.pi, math.pi, len(gains))
    return Scenario(power_scale, 1.0, gains, phases)


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
    rounding errors of the record. At the gain limits, at powers near the
    float maximum, near the smallest normal and subnormal, exact and with
    noise far below and far above the optimum, the run equals the
    per-interval rule byte for byte, with no RuntimeWarning."""
    for label, s in _gain_cases(m):
        q_star = optimal_power(s)
        for dist, scale in itertools.product((DIST_UNIFORM, DIST_GAUSSIAN), (1e-12, 1e-15)):
            cfg = PerturbationConfig(dist, scale=scale, max_intervals=400)
            for std in [0.0] + [v for v in (1e-9 * q_star, 1e3 * q_star) if 0.0 < v < math.inf]:
                try:
                    _assert_matches_per_interval(s, cfg, std)
                except AssertionError as exc:
                    raise AssertionError((label, dist, scale, std)) from exc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [5, 40, 64])
def test_phasor_power_is_within_rounding_of_the_pairwise_sum(m):
    """The baseline's O(M) reading x = scale * |sum amp e^{j offs}|**2
    (``power._phasor_power``) is within

        scale * (sum amp)**2 * (M + 8)**2 * u + 2**-1073,   u = 2**-53,

    of the pairwise sum ``scale * sum_ij amp_i amp_j cos(offs_i - offs_j)``
    and of ``selfcheck.phasor_oracle_powers``, at the gain limits and at
    power scales near either end of the float range. Phases and phase shifts
    are wrapped, and each amp_i**2 is a gain that ``Scenario`` admits: 0 or
    at least 2**-511.

    Let A = sum amp and E = sum_ij amp_i amp_j cos(offs_i - offs_j) =
    (sum amp cos offs)**2 + (sum amp sin offs)**2, both in exact arithmetic
    on the stored amp and offs. A sum of n terms in any order is within
    (n - 1) * u * (sum of |terms|) of its exact value, to first order; so
    is a numpy pairwise sum, and the order never enters.

    The pairwise sum. Each offset lies in [-2 pi, 2 pi], so each difference
    offs_i - offs_j lies in [-4 pi, 4 pi] and rounds by at most 4 pi * u;
    ``np.cos`` adds at most 4 ulp of 1, 8 * u, the assumption
    ``adapt._cells`` makes (and this bound makes of ``np.sin``). The weight
    amp_i * amp_j and its product with the cosine round by u each. So each
    of the M**2 terms is within (4 pi + 10) * u * amp_i * amp_j of its
    exact value, and their sum within (M**2 - 1 + 22.6) * u * A**2 of E.

    The phasor reading. It rotates every offset by the first, which leaves
    E unchanged: offs_i - offs_0 lies in [-4 pi, 4 pi] and rounds by at
    most 4 pi * u. With ``np.cos``'s 8 * u and the product's u, each
    amp_i * cos(offs_i - offs_0), and likewise with sin, is within
    (4 pi + 9) * u * amp_i < 21.6 * u * amp_i; the sum of M such terms is
    within e = (M + 21) * u * A of its exact value. Squaring and adding the
    two sums moves the result by at most 2 * e * (|re| + |im|) + 2 * u *
    A**2 <= (2 * sqrt(2) * (M + 21) + 2) * u * A**2, since |re| + |im| <=
    sqrt(2) * A. The oracle's complex sum, its magnitude and its square
    round the same way, within a few more units. Each side's product with
    ``scale`` rounds by u more.

    The two sides then differ by at most scale * A**2 * u * (M**2 + 2.83 *
    M + 85) <= scale * A**2 * u * ((M + 8)**2 - 13 * M + 21); for M >= 5,
    as here, the 13 * M - 21 spare units of u * A**2 cover every
    second-order term (they grow like M**4 * u**2 * A**2) for M up to
    2**18, and the rounding of the computed A.

    Underflow. Under the gain floor no product of amplitudes and cosines is
    subnormal, and a sum that is rounds exactly. The square of a sum near
    zero may lose an absolute 2**-1075, below 2**-511 * u * A**2 since A**2
    >= 2**-511, so the spare units cover it once scaled. What is left is
    absolute: each side's product with ``scale`` may lose 2**-1075, which
    2**-1073 covers."""
    for label, s in _gain_cases(m):
        amp = np.sqrt(s.gains)
        rng = rng_stream(91, m)
        phases = np.concatenate([
            wrap_angle(rng.uniform(-math.pi, math.pi, (200, m))),
            [s.phase_shifts, np.zeros(m)],
            wrap_angle(s.phase_shifts + rng.uniform(-1e-9, 1e-9, (20, m))),
        ])
        x = _phasor_power(amp, phases, s.phase_shifts, s.power_scale)
        total = math.fsum(amp)
        bound = s.power_scale * (total * total * ((m + 8) ** 2 * 2.0**-53)) + 2.0**-1073
        pair = s.power_scale * full_matrix_pair_sum(amp, phases - s.phase_shifts)
        stack = TrialStack(np.tile(s.gains, (len(phases), 1)),
                           np.tile(s.phase_shifts, (len(phases), 1)),
                           np.full(len(phases), s.power_scale))
        oracle = phasor_oracle_powers(stack, phases)
        for name, other in (("pairwise sum", pair), ("phasor oracle", oracle)):
            gap = float(np.max(np.abs(x - other)))
            assert gap <= bound, (label, name, gap, bound)


def test_phasor_power_never_reads_below_zero():
    """Unit gains at the M-th roots of unity, each phase moved by up to
    1e-9 rad, cancel to within rounding. The O(M) reading is a sum of
    squares and never reads below 0; the pairwise kernel does on some of
    these rows, which shows they cancel that far."""
    kernel_below = 0
    for m in range(3, 41):
        rng = rng_stream(93, m)
        roots = 2.0 * math.pi * np.arange(m) / m
        phases = wrap_angle(roots + rng.uniform(-1e-9, 1e-9, (500, m)))
        amp, shifts = np.ones(m), np.zeros(m)
        assert (_phasor_power(amp, phases, shifts, 1.0) >= 0.0).all(), m
        kernel_below += int((_pair_sum(amp, phases) < 0.0).sum())
    assert kernel_below > 0


@pytest.mark.parametrize("dist", [DIST_UNIFORM, DIST_GAUSSIAN])
def test_one_transmitter_reads_one_power_and_keeps_no_candidate(dist):
    """Alone, a transmitter's power is the same at every phase. Its offset
    is the reference the reading rotates to, so every reading is scale *
    amp**2 bit for bit, within rounding of g * scale, and no candidate is
    kept: steps of pi/8 kept 3 of 2,000 on rounding alone (gaussian: 2)
    when the reading took cos**2 + sin**2 of the offset."""
    cases = _gain_cases(1) + [("drawn", random_scenario(rng_stream(74, k), 1))
                              for k in range(20)]
    for label, s in cases:
        amp = math.sqrt(s.gains[0])
        reading = amp * amp * s.power_scale
        assert reading == pytest.approx(s.gains[0] * s.power_scale, rel=2.0**-51)
        for scale in (DEFAULT_SCALE, 3.0, 1e-12):
            trace = run_random_perturbation(s, PerturbationConfig(dist, scale, 2000),
                                            rng=rng_stream(75, 1))
            assert set(trace.measured_power.tolist()) == {reading}, (label, scale)
            assert set(trace.best_power.tolist()) == {reading}, (label, scale)
            assert not trace.accepted.any(), (label, scale)


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


def test_fmod_wrap_moves_no_candidate_of_the_benchmark_trace(monkeypatch):
    """At the benchmark's ``convergence-trace`` configuration (M 5, 10, 20
    and 40, 5,000 intervals, seed 12345, stream domain 3), the baseline run
    with its wrap replaced by the ``np.mod`` form ``where_wrap`` gives the
    same five trace columns by bytes."""
    cfg = ExperimentConfig(EXP_CONVERGENCE, m_list=(5, 10, 20, 40), intervals=5000)
    domain = EXPERIMENTS[cfg.experiment].domain
    assert (cfg.seed, domain) == (12345, 3)
    pert = PerturbationConfig(scale=cfg.perturb_scale, max_intervals=cfg.intervals)
    for m in cfg.m_list:
        s, _ = generate_scenario(cfg.distribution(m), rng_stream(cfg.seed, domain, m))
        runs = []
        for wrap in (wrap_angle, where_wrap):
            monkeypatch.setattr(distbeam.baseline, "wrap_angle", wrap)
            trace = run_random_perturbation(s, pert, rng=rng_stream(cfg.seed, domain, m, 1))
            runs.append([getattr(trace, field).tobytes() for field in TRACE_FIELDS])
        assert runs[0] == runs[1], m


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
    # the run's first reading, the O(M) power of the zero phases
    start = float(_phasor_power(np.sqrt(s.gains), np.zeros(5), s.phase_shifts, s.power_scale))
    ups = np.diff(np.concatenate([[start], trace.best_power])) > 0
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
