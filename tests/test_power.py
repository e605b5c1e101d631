import math
import re

import numpy as np
import pytest

from distbeam import (
    MeasurementModel,
    PhaseAssignment,
    Scenario,
    SumSignal,
    adapt,
    aligned_phase,
    harvested_power,
    measure,
    optimal_power,
    partial_power,
    power,
    run_protocol,
    sum_signal,
    wrap_angle,
)
from distbeam.power import (
    EXACT,
    MODE_ADDITIVE_NOISE,
    MODE_EXACT,
    _pair_sum,
    harvested_powers,
    optimal_powers,
)

from conftest import (
    equal_gain_scenario,
    float_bits,
    full_matrix_pair_sum,
    grid_argmax,
    item_aligned_phase,
    item_partial_power,
    partial_power_instances,
    phasor_power,
    random_scenario,
    stack_scenarios,
    time_domain_power,
    two_cumsum_sum_signal,
)


def test_single_transmitter():
    s = equal_gain_scenario(1)
    for phi in (-2.0, 0.0, 1.3):
        assert harvested_power(s, PhaseAssignment([phi])) == pytest.approx(1.0)


def test_two_coherent_transmitters():
    s = Scenario(1.0, 1.0, [1.0, 1.0], [0.4, -1.1])
    pa = PhaseAssignment(s.phase_shifts.copy())
    assert harvested_power(s, pa) == pytest.approx(4.0, rel=1e-14)


def test_two_opposed_transmitters():
    s = Scenario(1.0, 1.0, [1.0, 1.0], [0.0, 0.0])
    pa = PhaseAssignment([0.0, -math.pi])
    assert harvested_power(s, pa) == pytest.approx(0.0, abs=1e-12)


def test_no_active_transmitters():
    s = equal_gain_scenario(3)
    pa = PhaseAssignment(np.zeros(3), np.zeros(3, dtype=bool))
    assert harvested_power(s, pa) == 0.0


def test_assignment_owns_its_phases_and_mask():
    """Writing the caller's phases or mask after construction leaves the
    assignment as it was built, and the assignment itself can be changed
    neither by field assignment nor through its read-only arrays."""
    phases = np.array([0.5, 4.0, -1.0])
    active = np.array([True, False, True])
    pa = PhaseAssignment(phases, active)
    phases[:] = 0.0
    active[1] = True
    for field, value in (("phases", np.zeros(3)), ("active", np.array([True]))):
        with pytest.raises(AttributeError):
            setattr(pa, field, value)
    for array in (pa.phases, pa.active):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert pa.phases.tolist() == [0.5, wrap_angle(4.0), -1.0]
    assert pa.active.tolist() == [True, False, True]
    s = equal_gain_scenario(3)
    assert harvested_power(s, pa) == harvested_power(
        s, PhaseAssignment(np.array([0.5, 4.0, -1.0]), np.array([True, False, True])))
    # phases of any other shape are an error at construction, not at a reading
    for phases, shape in ((0.5, "()"), ([[0.5]], "(1, 1)"), (np.zeros((2, 3)), "(2, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"must be 1-D, got shape {shape}")):
            PhaseAssignment(phases)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_non_finite_phase_is_rejected(bad, index):
    """A NaN or infinite phase, at any position, is an error at construction
    rather than a NaN power or a bisection against a NaN signal."""
    phases = [0.0, 0.5, -1.0]
    phases[index] = bad
    for active in (None, [True, True, False]):
        with pytest.raises(ValueError, match=f"transmit phase must be finite, got {bad}"):
            PhaseAssignment(phases, active)


def test_mask_length_mismatch():
    s = equal_gain_scenario(3)
    with pytest.raises(ValueError):
        harvested_power(s, PhaseAssignment(np.zeros(2)))
    with pytest.raises(ValueError):
        PhaseAssignment(np.zeros(3), np.ones(2, dtype=bool))


def test_random_instance_matches_phasor_oracle(rng):
    s = random_scenario(rng, 4)
    pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, 4))
    assert harvested_power(s, pa) == pytest.approx(phasor_power(s, pa), rel=1e-12)


def test_phasor_oracle_randomized(rng):
    for _ in range(400):
        m = int(rng.integers(1, 33))
        s = random_scenario(rng, m)
        active = rng.random(m) < 0.8
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, m), active)
        a = harvested_power(s, pa)
        b = phasor_power(s, pa)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-25)


def test_time_domain_oracle(rng):
    for _ in range(50):
        m = int(rng.integers(1, 6))
        s = random_scenario(rng, m)
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, m))
        assert harvested_power(s, pa) == pytest.approx(
            time_domain_power(s, pa), rel=1e-9, abs=1e-22
        )


def test_rho_and_power_scaling(rng):
    base = random_scenario(rng, 3)
    pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, 3))
    scaled = Scenario(2.5, 0.4, base.gains, base.phase_shifts)
    assert harvested_power(scaled, pa) == pytest.approx(
        harvested_power(base, pa) * 2.5 * 0.4, rel=1e-12
    )


def test_optimal_power_values():
    assert optimal_power(equal_gain_scenario(2)) == pytest.approx(4.0)
    assert optimal_power(equal_gain_scenario(5)) == pytest.approx(25.0)


def test_optimal_equals_aligned_harvest(rng):
    """Q* from the gains alone equals the pairwise kernel at phases equal to
    the phase shifts bit for bit, alone and stacked, at M up to 64 and with
    a zero gain at the first, middle or last link."""
    by_size = {}
    for m in [*rng.integers(1, 12, size=100).tolist(), 16, 33, 50, 64]:
        s = random_scenario(rng, m)
        by_size.setdefault(m, []).append(s)
        for i in sorted({0, m // 2, m - 1}) if m > 1 else ():
            gains = s.gains.copy()
            gains[i] = 0.0
            by_size[m].append(Scenario(s.transmit_power, s.conversion_eff, gains,
                                       s.phase_shifts))
    for scens in by_size.values():
        for s in scens:
            pa = PhaseAssignment(s.phase_shifts.copy())
            assert float_bits(optimal_power(s)) == float_bits(harvested_power(s, pa))
        stack = stack_scenarios(scens)
        assert (optimal_powers(stack).tobytes()
                == harvested_powers(stack, stack.phase_shifts).tobytes())


def test_harvest_bounded_by_optimal(rng):
    for _ in range(500):
        m = int(rng.integers(1, 16))
        s = random_scenario(rng, m)
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, m))
        q = harvested_power(s, pa)
        q_star = optimal_power(s)
        assert -1e-12 * q_star <= q <= q_star * (1 + 1e-12)


def test_global_phase_offset_invariance(rng):
    for _ in range(100):
        m = int(rng.integers(2, 10))
        s = random_scenario(rng, m)
        phases = rng.uniform(-math.pi, math.pi, m)
        c = rng.uniform(-10, 10)
        a = harvested_power(s, PhaseAssignment(phases))
        b = harvested_power(s, PhaseAssignment(phases + c))
        assert b == pytest.approx(a, rel=1e-10, abs=1e-25)


def test_sum_signal_single_other():
    s = Scenario(1.0, 1.0, [0.7, 1.0], [1.1, 0.0])
    pa = PhaseAssignment([0.0, 0.0], [True, False])
    ss = sum_signal(s, pa)
    assert ss.gain == pytest.approx(0.7, rel=1e-14)
    # one transmitter at phase 0 behaves as a virtual channel with its own shift
    assert ss.phase_shift == pytest.approx(1.1, rel=1e-12)


def test_sum_signal_cancellation():
    # equal gains whose received phases are pi apart
    s = Scenario(1.0, 1.0, [1.0, 1.0, 1.0], [0.0, -math.pi, 0.5])
    pa = PhaseAssignment([0.0, 0.0, 0.0], [True, True, False])
    ss = sum_signal(s, pa)
    assert ss.gain == pytest.approx(0.0, abs=1e-25)


def test_sum_signal_exact_zero_convention():
    # zero-gain transmitters sum to an exactly-zero phasor: phase 0
    s = Scenario(1.0, 1.0, [0.0, 1.0], [1.0, 0.5])
    ss = sum_signal(s, PhaseAssignment([0.3, 0.0], [True, False]))
    assert ss.gain == 0.0 and ss.phase_shift == 0.0


def test_aligned_phase_against_a_zero_signal_is_zero():
    """Every phase is optimal against a zero signal; the target is 0, the
    value a stage's trace records."""
    s = Scenario(1.0, 1.0, [0.0, 1.0], [1.0, 0.5])
    phase = aligned_phase(s, SumSignal(0.0, 0.0), 1)
    assert type(phase) is float and phase == 0.0 and math.copysign(1.0, phase) == 1.0


def test_sum_signal_empty():
    s = equal_gain_scenario(2)
    pa = PhaseAssignment(np.zeros(2), np.zeros(2, dtype=bool))
    ss = sum_signal(s, pa)
    assert ss.gain == 0.0 and ss.phase_shift == 0.0


def test_sum_signal_equals_two_cumsums_bit_for_bit():
    """The last running sum of ``power._prefix_sums`` over the active links
    gives the two 1-D cumsums' gain and phase shift bit for bit, sign of
    zero included: on every instance of verify's partial-power check, and
    on zero gains whose terms are -0.0 (cosine or sine below 0) beside
    +0.0 ones."""
    cases = [(s, PhaseAssignment(phases, active)) for s, phases, _, active
             in partial_power_instances()]
    for gains in ([0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 2.0], [1e-6, 0.0, 0.0, 0.0]):
        m = len(gains)
        s = Scenario(1.0, 1.0, gains, [0.0] * m)
        for phases in ([0.0] * m, [3.0] * m, [-3.0, 0.0, 2.0, -1.0][:m]):
            for active in ([True] * m, [True] * (m - 1) + [False], [False] + [True] * (m - 1)):
                cases.append((s, PhaseAssignment(phases, active)))
    for k, (s, pa) in enumerate(cases):
        got, want = sum_signal(s, pa), two_cumsum_sum_signal(s, pa)
        assert float_bits(got.gain, got.phase_shift) == float_bits(want.gain, want.phase_shift), k
        assert type(got.gain) is float and type(got.phase_shift) is float


def test_math_cos_and_sin_equal_numpys_bit_for_bit():
    """One scenario's running phasor sum (``power._prefix_sums``) and
    ``partial_power`` call ``math.cos`` and ``math.sin``; a stack's sum and
    ``adapt._interval_loop`` call ``np.cos`` and ``np.sin``. The paths agree
    bit for bit only if the functions do: here on 10**6 angles in
    [-4 pi, 4 pi], as a 1-D array and as numpy scalars (what the scalar sum
    once ran on), and on every offset of verify's partial-power check, the
    running sums' shift - phase and the joining link's phase - target."""
    x = np.random.default_rng(43).uniform(-4 * math.pi, 4 * math.pi, 10**6)
    offsets = []
    for s, phases, m, active in partial_power_instances():
        offsets += (s.phase_shifts - phases).tolist()
        ss = sum_signal(s, PhaseAssignment(phases, active))
        offsets.append(float(phases[m]) - (float(s.phase_shifts[m]) - ss.phase_shift))
    for angles in (x, np.array(offsets)):
        for scalar, array in ((math.cos, np.cos), (math.sin, np.sin)):
            want = array(angles)
            assert float_bits(*map(scalar, angles.tolist())) == want.tobytes(), scalar
            assert float_bits(*map(array, angles)) == want.tobytes(), array


def test_one_scenarios_running_sums_are_python_floats():
    """1-D ``_prefix_sums`` yields Python floats, not 0-d numpy values, and
    reads each phase when its link is reached, so a caller's write to a
    later link shows."""
    s = random_scenario(np.random.default_rng(5), 4)
    phases = np.zeros(4)
    sums = power._prefix_sums(s.gains, s.phase_shifts, phases)
    for k, (re, im) in enumerate(sums):
        assert type(re) is float and type(im) is float, k
        if k + 1 < len(phases):
            phases[k + 1] = 0.5 * (k + 1)
    ss = sum_signal(s, PhaseAssignment(phases))
    assert float_bits(*power._phasor_signal(re, im)) == float_bits(*ss)
    stacked = list(power._prefix_sums(s.gains[None], s.phase_shifts[None], phases[None]))
    assert float_bits(*stacked[-1][0], *stacked[-1][1]) == float_bits(re, im)


def test_sum_signal_matches_complex_oracle(rng):
    for _ in range(300):
        m = int(rng.integers(2, 13))
        s = random_scenario(rng, m)
        phases = rng.uniform(-math.pi, math.pi, m)
        active = rng.random(m) < 0.7
        active[int(rng.integers(0, m))] = False
        pa = PhaseAssignment(phases, active)
        ss = sum_signal(s, pa)
        z = sum(
            math.sqrt(s.gains[i]) * np.exp(1j * (s.phase_shifts[i] - phases[i]))
            for i in range(m) if active[i]
        )
        assert ss.gain == pytest.approx(abs(z) ** 2, rel=1e-12, abs=1e-30)
        if abs(z) > 1e-10:
            assert abs(wrap_angle(ss.phase_shift - np.angle(z))) < 1e-9


def test_partial_power_peak_value(rng):
    for _ in range(50):
        s = random_scenario(rng, 4)
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, 4),
                             [True, True, True, False])
        ss = sum_signal(s, pa)
        peak = partial_power(s, ss, 3, aligned_phase(s, ss, 3))
        expected = (math.sqrt(s.gains[3]) + math.sqrt(ss.gain)) ** 2
        assert peak == pytest.approx(expected, rel=1e-12)


def test_partial_power_flat_when_alone():
    s = equal_gain_scenario(2, gain=0.3)
    ss = sum_signal(s, PhaseAssignment(np.zeros(2), np.zeros(2, dtype=bool)))
    values = {partial_power(s, ss, 1, phi) for phi in np.linspace(-3, 3, 7)}
    assert all(v == pytest.approx(0.3, rel=1e-14) for v in values)


def test_partial_power_grid_argmax(rng):
    for _ in range(30):
        s = random_scenario(rng, 5)
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, 5),
                             [True, True, True, True, False])
        ss = sum_signal(s, pa)
        best = grid_argmax(lambda phi: partial_power(s, ss, 4, phi), points=360)
        target = aligned_phase(s, ss, 4)
        step = 2 * math.pi / 360
        assert abs(wrap_angle(best - target)) <= step


def test_partial_power_equals_harvested(rng):
    for _ in range(1000):
        m_total = int(rng.integers(2, 12))
        s = random_scenario(rng, m_total)
        phases = rng.uniform(-math.pi, math.pi, m_total)
        m = int(rng.integers(0, m_total))
        active = rng.random(m_total) < 0.7
        active[m] = False
        if not active.any():
            active[(m + 1) % m_total] = True
        ss = sum_signal(s, PhaseAssignment(phases.copy(), active.copy()))
        a = partial_power(s, ss, m, phases[m])
        joined = active.copy()
        joined[m] = True
        b = harvested_power(s, PhaseAssignment(phases.copy(), joined))
        assert a == pytest.approx(b, rel=1e-10, abs=1e-25)


def test_partial_power_is_a_python_float_equal_to_numpy_scalar_form(rng):
    """Python-float arithmetic gives the numpy-scalar formula's value bit
    for bit, but as a float."""
    for _ in range(2000):
        m_total = int(rng.integers(2, 8))
        s = random_scenario(rng, m_total, conversion_eff=float(rng.uniform(0.1, 1.0)),
                            transmit_power=float(rng.uniform(0.1, 5.0)))
        m = int(rng.integers(0, m_total))
        ss = sum_signal(s, PhaseAssignment(rng.uniform(-math.pi, math.pi, m_total),
                                           np.arange(m_total) != m))
        phi = float(rng.uniform(-math.pi, math.pi))
        g_m = s.gains[m]
        q = g_m + ss.gain + 2.0 * math.sqrt(g_m * ss.gain) * math.cos(
            phi - (s.phase_shifts[m] - ss.phase_shift))
        want = s.conversion_eff * s.transmit_power * q
        got = partial_power(s, ss, m, phi)
        assert type(got) is float
        assert got == want


def test_partial_power_and_aligned_phase_equal_the_item_reads(monkeypatch, rng):
    """Reading the scenario's stored floats gives the ``ndarray.item`` forms'
    values bit for bit: on verify's 2,000 partial-power instances, and on
    every call of every stage of a noisy M=50, N=8 run."""
    for s, phases, m, active in partial_power_instances():
        ss = sum_signal(s, PhaseAssignment(phases, active))
        got = partial_power(s, ss, m, phases[m]), aligned_phase(s, ss, m)
        want = item_partial_power(s, ss, m, phases[m]), item_aligned_phase(s, ss, m)
        assert float_bits(*got) == float_bits(*want)
        assert all(type(v) is float for v in got)
    calls = {"partial": 0, "aligned": 0}

    def checked_partial(s, ss, m, phi_m):
        calls["partial"] += 1
        got = partial_power(s, ss, m, phi_m)
        assert float_bits(got) == float_bits(item_partial_power(s, ss, m, phi_m))
        return got

    def checked_aligned(s, ss, m):
        calls["aligned"] += 1
        got = aligned_phase(s, ss, m)
        assert float_bits(got) == float_bits(item_aligned_phase(s, ss, m))
        return got

    monkeypatch.setattr(adapt, "partial_power", checked_partial)
    monkeypatch.setattr(adapt, "aligned_phase", checked_aligned)
    s = random_scenario(rng, 50)
    run_protocol(s, 8, MeasurementModel(MODE_ADDITIVE_NOISE, 1e-6, rng))
    assert calls == {"partial": 2 * 8 * 49, "aligned": 49}


def test_out_of_range_transmitter_is_an_index_error(rng):
    """An index past either end of the links raises ``IndexError``, as the
    array read does."""
    s = random_scenario(rng, 3)
    ss = SumSignal(1.0, 0.5)
    for m in (3, -4):
        with pytest.raises(IndexError):
            partial_power(s, ss, m, 0.0)
        with pytest.raises(IndexError):
            aligned_phase(s, ss, m)


def test_stacked_powers_equal_per_scenario_calls(rng):
    """harvested_powers and optimal_powers over a stack equal one
    harvested_power / optimal_power call per row, bit for bit, including
    M >= 8 where numpy sums in blocks and zero-gain links."""
    for m in (1, 2, 5, 10, 50):
        scens = [random_scenario(rng, m, conversion_eff=eff, transmit_power=power)
                 for eff, power in ((1.0, 1.0), (0.37, 2.5)) for _ in range(5)]
        if m > 1:
            scens[3] = Scenario(1.0, 1.0, [0.0, *scens[3].gains[1:]],
                                [0.3, *scens[3].phase_shifts[1:]])
        stack = stack_scenarios(scens)
        phases = wrap_angle(rng.uniform(-4.0, 4.0, (len(scens), m)))
        got = harvested_powers(stack, phases)
        want = [harvested_power(s, PhaseAssignment(p)) for s, p in zip(scens, phases)]
        assert got.tolist() == want
        assert optimal_powers(stack).tolist() == [optimal_power(s) for s in scens]


def test_half_matrix_kernel_equals_full_matrix(rng):
    """_pair_sum equals the full M x M evaluation byte for byte at every M
    from 1 to 50: 1-D amp and offs, a 1-D amp against stacked offs, and
    both stacked, at offset scales pi, 2 pi, 1e3 and 1e-8, with zero gains
    among the amplitudes. The inputs are left untouched."""
    for m in range(1, 51):
        for scale in (math.pi, 2.0 * math.pi, 1e3, 1e-8):
            amp = np.sqrt(rng.uniform(0.0, 1.0, m))
            amp[rng.random(m) < 0.2] = 0.0
            amps = np.sqrt(rng.uniform(0.0, 1.0, (7, m)))
            amps[rng.random((7, m)) < 0.2] = 0.0
            offs = rng.uniform(-scale, scale, m)
            stacked = rng.uniform(-scale, scale, (7, m))
            for a, o in ((amp, offs), (amp, stacked), (amps, stacked)):
                before = a.tobytes(), o.tobytes()
                got = _pair_sum(a, o)
                assert got.tobytes() == full_matrix_pair_sum(a, o).tobytes(), (m, scale, a.ndim, o.ndim)
                assert (a.tobytes(), o.tobytes()) == before


def test_half_matrix_kernel_keeps_non_finite_behaviour():
    """A non-finite offset still meets cos on the diagonal, also at M = 1:
    NaN as the full evaluation gives, with an invalid-value error for an
    infinite offset and none for a NaN one."""
    for offs, invalid in (([math.inf], True), ([math.nan], False),
                          ([0.3, -math.inf, 1.0], True), ([0.3, 1.0, math.nan], False)):
        offs = np.array(offs)
        amp = np.ones(offs.size)
        for kernel in (_pair_sum, full_matrix_pair_sum):
            with np.errstate(invalid="raise"):
                if invalid:
                    with pytest.raises(FloatingPointError):
                        kernel(amp, offs)
                else:
                    assert math.isnan(kernel(amp, offs))
            with np.errstate(invalid="ignore"):
                assert math.isnan(kernel(amp, offs)), (kernel.__name__, offs)


def test_optimal_powers_reject_a_scale_without_finite_positive_optimum(rng):
    """An underflow to 0 or a subnormal, or an overflow to inf, is an error,
    not a warning or a NaN or imprecise efficiency."""
    s = random_scenario(rng, 3, conversion_eff=5e-324)
    with pytest.raises(ValueError, match="optimal power of trial 1 is 0.0"):
        optimal_powers(stack_scenarios([random_scenario(rng, 3), s]))
    s = Scenario(1e308, 1.0, [4.0, 4.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="optimal power of trial 0 is inf"):
        optimal_powers(stack_scenarios([s]))
    # a subnormal optimum has lost significant bits: eta would drift
    s = Scenario(1e-310, 1.0, [4.0, 4.0], [0.0, 1.0])
    with pytest.raises(ValueError, match=r"trial 0 is 1\.\d+e-309: power scale "
                                         r"conversion_eff \* transmit_power = 1e-310"):
        optimal_powers(stack_scenarios([s]))
    s = Scenario(1e-300, 1.0, [4.0, 4.0], [0.0, 1.0])
    assert optimal_powers(stack_scenarios([s])) == harvested_power(
        s, PhaseAssignment(s.phase_shifts.copy()))


def test_measure_exact_and_degenerate_noise():
    assert measure(MeasurementModel(), 3.7) == 3.7
    noiseless = MeasurementModel(MODE_ADDITIVE_NOISE, 0.0)
    assert measure(noiseless, 3.7) == 3.7


def test_measure_noise_reproducible():
    a = MeasurementModel(MODE_ADDITIVE_NOISE, 0.5, np.random.default_rng(5))
    b = MeasurementModel(MODE_ADDITIVE_NOISE, 0.5, np.random.default_rng(5))
    draws_a = [measure(a, 2.0) for _ in range(20)]
    draws_b = [measure(b, 2.0) for _ in range(20)]
    assert draws_a == draws_b
    assert any(d != 2.0 for d in draws_a)


def test_measure_noise_clamps_at_zero():
    m = MeasurementModel(MODE_ADDITIVE_NOISE, 100.0, np.random.default_rng(0))
    draws = [measure(m, 0.01) for _ in range(50)]
    assert min(draws) == 0.0


def test_measurement_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel("bogus")
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MeasurementModel(MODE_ADDITIVE_NOISE, bad, np.random.default_rng(0))
    with pytest.raises(ValueError):
        MeasurementModel(MODE_ADDITIVE_NOISE, 1.0, None)
    # exact mode would silently ignore a noise level
    for rng in (np.random.default_rng(0), None):
        with pytest.raises(ValueError, match="noise would be ignored"):
            MeasurementModel(MODE_EXACT, 0.5, rng)
    # a checked model stays as checked: the exact-with-noise rule cannot be
    # got round by a later assignment, to the shared default least of all
    for model in (EXACT, MeasurementModel(MODE_ADDITIVE_NOISE, 0.5, np.random.default_rng(0))):
        for field, value in (("mode", MODE_EXACT), ("noise_std", 5.0), ("rng", None)):
            with pytest.raises(AttributeError):
                setattr(model, field, value)
    assert EXACT == MeasurementModel()
