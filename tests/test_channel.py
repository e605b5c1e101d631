import math
from pathlib import Path

import numpy as np
import pytest

from distbeam import (
    Channel,
    PathSet,
    Scenario,
    ScenarioDistribution,
    aggregate_channel,
    generate_scenario,
    path_loss_gain,
    scenario_from_text,
    scenario_to_text,
    wrap_angle,
)

GOLDEN = Path(__file__).parent / "data" / "scenario_seed7.txt"


def test_single_unit_path_zero_delay():
    ch = aggregate_channel(PathSet(((1.0, 0.0),)), 915e6)
    assert ch.gain == 1.0
    assert ch.phase_shift == 0.0


def test_single_path_amplitude_and_phase():
    # one tap of amplitude 0.5 whose electrical length is pi/3
    f_c = 1.0
    tau = (math.pi / 3) / (2 * math.pi * f_c)
    ch = aggregate_channel(PathSet(((0.5, tau),)), f_c)
    assert abs(ch.gain - 0.25) < 1e-15
    assert abs(ch.phase_shift - math.pi / 3) < 1e-12


def test_two_opposed_paths_cancel():
    # amplitudes 1 at electrical lengths 0 and pi; complex sum oracle:
    # 1 + exp(j*pi) = 0 up to floating roundoff in sin(pi)
    f_c = 1.0
    ch = aggregate_channel(PathSet(((1.0, 0.0), (1.0, 0.5))), f_c)
    assert abs(ch.gain) < 1e-30


def test_degenerate_zero_sum_convention():
    # an exactly-zero phasor sum maps to phase 0
    ch = aggregate_channel(PathSet(((0.0, 0.0), (0.0, 0.37))), 1e9)
    assert ch.gain == 0.0
    assert ch.phase_shift == 0.0


def test_aggregate_matches_complex_sum(rng):
    for _ in range(300):
        n = int(rng.integers(1, 6))
        taps = tuple(
            (float(rng.uniform(0, 2)), float(rng.uniform(0, 1e-6))) for _ in range(n)
        )
        f_c = float(rng.uniform(1e6, 1e9))
        z = sum(a * np.exp(2j * math.pi * f_c * tau) for a, tau in taps)
        ch = aggregate_channel(PathSet(taps), f_c)
        assert abs(ch.gain - abs(z) ** 2) <= 1e-10 * max(abs(z) ** 2, 1e-30)
        if abs(z) > 1e-12:
            assert abs(wrap_angle(ch.phase_shift - np.angle(z))) < 1e-9


def test_coherent_paths_add_amplitudes():
    # all taps at the same electrical length: gain is the squared amplitude sum
    f_c = 2.0
    taps = ((0.3, 0.0), (0.5, 0.5), (0.2, 1.0))  # full turns at f_c = 2
    ch = aggregate_channel(PathSet(taps), f_c)
    assert abs(ch.gain - 1.0) < 1e-12


def test_single_path_identity_randomized(rng):
    for _ in range(200):
        a = float(rng.uniform(0, 3))
        tau = float(rng.uniform(0, 1e-6))
        f_c = float(rng.uniform(1e6, 1e9))
        ch = aggregate_channel(PathSet(((a, tau),)), f_c)
        assert abs(ch.gain - a * a) < 1e-12 * max(a * a, 1.0)
        if a > 0:
            expected = wrap_angle(2 * math.pi * f_c * tau)
            assert abs(wrap_angle(ch.phase_shift - expected)) < 1e-9


def test_pathset_validation():
    with pytest.raises(ValueError):
        PathSet(())
    with pytest.raises(ValueError):
        PathSet(((-0.1, 0.0),))
    with pytest.raises(ValueError):
        PathSet(((0.1, -1e-9),))
    with pytest.raises(ValueError):
        aggregate_channel(PathSet(((1.0, 0.0),)), 0.0)


def test_channel_and_scenario_validation():
    with pytest.raises(ValueError):
        Channel(-1e-9, 0.0)
    assert Channel(1.0, 3 * math.pi).phase_shift == -math.pi
    for power in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="transmit_power must be positive and finite"):
            Scenario(power, 1.0, 1.0, [Channel(1, 0)])
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 1.5, [Channel(1, 0)])
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 1.0, [])
    for gain, phase in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf),
                        (1.0, -math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            Channel(gain, phase)
    # efficiencies divide by the optimal power, so some gain must be nonzero
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 1.0, [Channel(0.0, 0.0), Channel(0.0, 1.0)])
    Scenario(1.0, 1.0, 1.0, [Channel(0.0, 0.0), Channel(1e-9, 1.0)])


def test_path_loss_values():
    dist = ScenarioDistribution(num_transmitters=1)
    assert abs(path_loss_gain(10.0, dist) - 1e-5) < 1e-18
    assert path_loss_gain(dist.ref_distance, dist) == dist.ref_attenuation


def test_path_loss_monotone(rng):
    dist = ScenarioDistribution(num_transmitters=1, path_loss_exponent=2.7)
    r = np.sort(rng.uniform(1, 100, 50))
    g = [path_loss_gain(x, dist) for x in r]
    assert all(g[i] > g[i + 1] for i in range(len(g) - 1))


def test_generate_scenario_fields(rng):
    dist = ScenarioDistribution(num_transmitters=8)
    scen, draw = generate_scenario(dist, rng)
    assert scen.num_transmitters == 8
    assert np.all(draw.distances >= 5.0) and np.all(draw.distances <= 15.0)
    assert np.all(draw.phase_shifts >= -math.pi) and np.all(draw.phase_shifts < math.pi)
    expected = [path_loss_gain(r, dist) for r in draw.distances]
    assert np.allclose(scen.gains, expected, rtol=1e-14)
    assert np.allclose(scen.phase_shifts, draw.phase_shifts)


def test_generate_scenario_deterministic():
    dist = ScenarioDistribution(num_transmitters=5)
    a, da = generate_scenario(dist, np.random.default_rng(99))
    b, db = generate_scenario(dist, np.random.default_rng(99))
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.phase_shifts, b.phase_shifts)
    assert np.array_equal(da.distances, db.distances)
    assert a.transmit_power == b.transmit_power
    assert a.carrier_freq == b.carrier_freq
    assert a.conversion_eff == b.conversion_eff


def test_distribution_validation():
    with pytest.raises(ValueError):
        ScenarioDistribution(num_transmitters=0)
    with pytest.raises(ValueError):
        ScenarioDistribution(num_transmitters=1, distance_range=(0.0, 5.0))
    with pytest.raises(ValueError):
        ScenarioDistribution(num_transmitters=1, distance_range=(6.0, 5.0))
    with pytest.raises(ValueError):
        ScenarioDistribution(num_transmitters=1, path_loss_exponent=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("distance_range", (5.0, math.inf), "distance_range must be finite"),
    ("path_loss_exponent", math.inf, "path_loss_exponent must be positive and finite"),
    ("path_loss_exponent", math.nan, "path_loss_exponent must be positive and finite"),
    ("ref_attenuation", math.inf, "ref_attenuation must be positive and finite"),
    ("ref_distance", -1.0, "ref_distance must be positive and finite"),
    ("ref_distance", 0.0, "ref_distance must be positive and finite"),
    ("ref_distance", math.inf, "ref_distance must be positive and finite"),
    ("transmit_power", math.inf, "transmit_power must be positive and finite"),
    ("transmit_power", math.nan, "transmit_power must be positive and finite"),
])
def test_distribution_rejects_non_finite_fields(field, value, message):
    """Each bad field names itself; none reaches numpy's uniform draw or a
    channel's gain check."""
    with pytest.raises(ValueError, match=message):
        ScenarioDistribution(num_transmitters=2, **{field: value})


def test_scenario_text_round_trip():
    dist = ScenarioDistribution(num_transmitters=4)
    scen, _ = generate_scenario(dist, np.random.default_rng(7))
    text = scenario_to_text(scen)
    back = scenario_from_text(text)
    assert back.num_transmitters == scen.num_transmitters
    assert back.transmit_power == scen.transmit_power
    assert back.conversion_eff == scen.conversion_eff
    assert back.carrier_freq == scen.carrier_freq
    assert np.array_equal(back.gains, scen.gains)
    assert np.array_equal(back.phase_shifts, scen.phase_shifts)
    # serialization is stable across regenerations
    again, _ = generate_scenario(dist, np.random.default_rng(7))
    assert scenario_to_text(again) == text


def test_scenario_text_golden_file():
    dist = ScenarioDistribution(num_transmitters=4)
    scen, _ = generate_scenario(dist, np.random.default_rng(7))
    assert scenario_to_text(scen) == GOLDEN.read_text()


def test_scenario_text_rejects_truncated():
    dist = ScenarioDistribution(num_transmitters=3)
    scen, _ = generate_scenario(dist, np.random.default_rng(3))
    lines = scenario_to_text(scen).splitlines()
    with pytest.raises(ValueError):
        scenario_from_text("\n".join(lines[:-1]))
