import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from distbeam import (
    Channel,
    PathSet,
    Scenario,
    ScenarioDistribution,
    aggregate_channel,
    efficiency_lower_bound,
    generate_scenario,
    path_loss_gain,
    run_protocol,
    scenario_from_text,
    scenario_to_text,
    wrap_angle,
)
from distbeam.experiments import rng_stream
from distbeam.power import harvested_powers, optimal_powers
from distbeam.protocol import exact_runs

from conftest import channel_by_channel_scenario, stack_scenarios

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
            Scenario(power, 1.0, 1.0, [1], [0])
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 1.5, [1], [0])
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 1.0, [], [])
    for gain, phase in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf),
                        (1.0, -math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            Channel(gain, phase)
    # efficiencies divide by the optimal power, so some gain must be nonzero
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 1.0, [0.0, 0.0], [0.0, 1.0])
    Scenario(1.0, 1.0, 1.0, [0.0, 1e-9], [0.0, 1.0])


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
    ("conversion_eff", 0.0, "conversion_eff must lie in"),
    ("conversion_eff", 1.5, "conversion_eff must lie in"),
    ("conversion_eff", math.nan, "conversion_eff must lie in"),
    ("carrier_freq", 0.0, "carrier_freq must be positive"),
    ("carrier_freq", math.nan, "carrier_freq must be positive"),
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


def test_scenario_text_names_a_bad_gain_before_a_bad_phase():
    """The file's gains and phase shifts reach the constructor as two lists,
    so a bad gain on the second line is named before a bad phase on the
    first."""
    with pytest.raises(ValueError, match=re.escape("channel power gain must be finite and "
                                                   ">= 0, got -1.0")):
        scenario_from_text("M 2\nP 1\nrho 1\nf_c 1\n1.0 nan\n-1 0\n")


def test_scenario_text_rejects_a_missing_or_unknown_header_key():
    """``freq 1`` in place of ``f_c 1`` raised a bare KeyError: 'f_c'."""
    text = scenario_to_text(Scenario(1.0, 2.0, 0.5, [1.0, 2.0], [0.1, 0.2]))
    message = "scenario header needs the keys M, P, rho and f_c, got "
    for bad, keys in ((text.replace("f_c ", "freq "), "M, P, rho, freq"),
                      (text.replace("M 2\n", "M 2\nM 2\n"), "M, P, rho"),
                      ("", "none")):
        with pytest.raises(ValueError, match=re.escape(message + keys)):
            scenario_from_text(bad)


@pytest.mark.parametrize("m", [1, 2, 5, 10, 32, 50])
def test_generate_scenario_equals_channel_by_channel_draw(m):
    """The array-native draw, which skips the constructors' validation, gives
    the one-Channel-per-link scenario bit for bit and read-only, on the
    default law and on non-default exponents, reference distances,
    attenuations and a 1e-3..1e3 distance range, where numpy's array power
    would move the last bit of some gains."""
    dists = [ScenarioDistribution(num_transmitters=m),
             ScenarioDistribution(num_transmitters=m, path_loss_exponent=2.7),
             ScenarioDistribution(num_transmitters=m, ref_distance=2.0),
             ScenarioDistribution(num_transmitters=m, ref_attenuation=0.3),
             ScenarioDistribution(num_transmitters=m, path_loss_exponent=2.7, ref_distance=2.0,
                                  ref_attenuation=0.3, distance_range=(1e-3, 1e3),
                                  transmit_power=2.5, conversion_eff=0.37)]
    for k, dist in enumerate(dists):
        for seed in range(150):
            got, draw = generate_scenario(dist, rng_stream(seed, m, k))
            want, distances, phases = channel_by_channel_scenario(dist, rng_stream(seed, m, k))
            assert got.gains.tobytes() == want.gains.tobytes(), (k, seed)
            assert got.phase_shifts.tobytes() == want.phase_shifts.tobytes(), (k, seed)
            assert draw.distances.tobytes() == distances.tobytes()
            assert draw.phase_shifts.tobytes() == phases.tobytes()
            assert (got.transmit_power, got.carrier_freq, got.conversion_eff) == \
                (want.transmit_power, want.carrier_freq, want.conversion_eff)
            assert not (got.gains.flags.writeable or got.phase_shifts.flags.writeable)


@pytest.mark.parametrize("gains, phases, message", [
    ([1.0, -1e-9], [0.0, 0.0], "channel power gain must be finite and >= 0, got -1e-09"),
    ([1.0, math.inf], [0.0, 0.0], "channel power gain must be finite and >= 0, got inf"),
    ([math.nan, 1.0], [0.0, 0.0], "channel power gain must be finite and >= 0, got nan"),
    ([1.0, 1.0], [0.0, math.inf], "channel phase shift must be finite, got inf"),
    ([1.0, 1.0], [-math.inf, 0.0], "channel phase shift must be finite, got -inf"),
    ([1.0, 1.0], [math.nan, 0.0], "channel phase shift must be finite, got nan"),
    ([0.0, 0.0], [0.0, 1.0], "at least one channel with nonzero gain"),
    ([], [], "at least one channel"),
    ([1.0, 1.0], [0.0], "1-D of equal length"),
    ([[1.0]], [[0.0]], "1-D of equal length"),
], ids=["negative-gain", "inf-gain", "nan-gain", "inf-phase", "minus-inf-phase", "nan-phase",
        "all-zero-gains", "no-transmitters", "unequal-lengths", "not-1-d"])
def test_scenario_arrays_are_validated(gains, phases, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Scenario(1.0, 1.0, 1.0, gains, phases)


@pytest.mark.parametrize("carrier_freq", [0.0, -1.0, math.nan])
def test_scenario_carrier_freq_must_be_positive(carrier_freq):
    with pytest.raises(ValueError, match="carrier_freq must be positive"):
        Scenario(1.0, carrier_freq, 1.0, [1.0], [0.0])


def test_scenario_is_two_read_only_arrays(rng):
    """A scenario is its three scalars and two read-only arrays; building
    one from another's arrays, or from its text record, gives the same
    bytes."""
    g = np.array([0.5, 0.0, 2.0])
    th = np.array([3 * math.pi, 0.25, -7.0])
    s = Scenario(2.0, 915e6, 0.5, g, th)
    g[0] = th[0] = 9.0                       # the scenario holds copies
    assert s.gains.tolist() == [0.5, 0.0, 2.0]
    assert s.phase_shifts.tolist() == [wrap_angle(3 * math.pi), 0.25, wrap_angle(-7.0)]
    assert s.num_transmitters == 3
    with pytest.raises(ValueError, match="read-only"):
        s.gains[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        s.phase_shifts[0] = 1.0
    with pytest.raises(AttributeError):
        s.num_transmitters = None
    with pytest.raises(AttributeError):
        s.extra = 1                            # no state beyond its slots
    again = Scenario(s.transmit_power, s.carrier_freq, s.conversion_eff, s.gains, s.phase_shifts)
    assert again.gains.tobytes() == s.gains.tobytes()
    assert again.phase_shifts.tobytes() == s.phase_shifts.tobytes()
    for m in (1, 4, 32):
        scen, _ = generate_scenario(ScenarioDistribution(num_transmitters=m), rng)
        back = scenario_from_text(scenario_to_text(scen))
        assert back.gains.tobytes() == scen.gains.tobytes()
        assert back.phase_shifts.tobytes() == scen.phase_shifts.tobytes()


def test_nonzero_gains_below_two_to_the_minus_511_are_gain_errors():
    """The interference amplitude sqrt(g_m * G) of two gains below 2**-511
    underflowed: gains [1e-300, 1e-300] ran to eta 0.646 under a bound of
    0.981 with no error. Such a gain is now a gain error in the
    constructor and in generate_scenario; zero gains stay allowed."""
    limit = 2.0 ** -511
    assert limit * limit == sys.float_info.min
    message = "is nonzero but below 2**-511"
    for gains in ([1e-300, 1e-300], [1.0, limit / 2], [0.0, 5e-324, 1.0]):
        shifts = [0.1 * k for k in range(1, len(gains) + 1)]
        with pytest.raises(ValueError, match=re.escape(message)):
            Scenario(1.0, 1.0, 1.0, gains, shifts)
    with pytest.raises(ValueError, match=re.escape("channel power gain 1e-300 " + message)):
        Scenario(1.0, 1.0, 1.0, [1e-300, 1e-300], [0.1, 0.2])
    # at the limit the run keeps its guarantee
    for gains in ([limit, limit], [0.0, limit, limit, 1.0]):
        s = Scenario(1.0, 1.0, 1.0, gains, [0.1, 0.2, -2.0, 3.0][:len(gains)])
        for n in (1, 4, 8):
            assert run_protocol(s, n).eta >= efficiency_lower_bound(s, n) - 1e-12, (gains, n)
    dist = ScenarioDistribution(num_transmitters=4, ref_attenuation=1e-160)
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_scenario(dist, np.random.default_rng(1))


def test_path_loss_overflow_is_a_gain_error():
    """A gain past the float range is the channel-gain error, not a bare
    OverflowError or ZeroDivisionError from the power or an inf gain; gains
    that all underflow are the all-zero error."""
    near = ScenarioDistribution(num_transmitters=2, distance_range=(1e-200, 2e-200))
    far = ScenarioDistribution(num_transmitters=2, ref_distance=1e300,
                               distance_range=(1e-100, 2e-100))
    # pow stays finite (~1e15) and the product overflows to inf, no exception
    loud = ScenarioDistribution(num_transmitters=2, ref_attenuation=1e300,
                                distance_range=(1e-5, 2e-5))
    for dist in (near, far, loud):
        with pytest.raises(ValueError, match="channel power gain must be finite"):
            generate_scenario(dist, np.random.default_rng(1))
        with pytest.raises(ValueError, match="channel power gain must be finite"):
            path_loss_gain(dist.distance_range[0], dist)
    # a distance that is not positive and finite, where -1.0 gave a gain of -0.01
    for bad in (-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="channel power gain needs a positive finite"):
            path_loss_gain(bad, ScenarioDistribution(num_transmitters=1))
    # every gain underflows to 0
    silent = ScenarioDistribution(num_transmitters=2, path_loss_exponent=300,
                                  distance_range=(1e3, 2e3))
    with pytest.raises(ValueError, match="at least one channel with nonzero gain"):
        generate_scenario(silent, np.random.default_rng(1))


_MIN_GAIN = 2.0 ** -511
_LIMIT = 2.0 ** 511
_TINY = (f"channel power gain {{}} is nonzero but below 2**-511 = {_MIN_GAIN}, where the "
         f"product of two gains underflows")
_SUMS = (f"the gain sums overflow: (sum of sqrt(gain))**2 = {{}} is above 2**511 = {_LIMIT}, "
         f"where the product of a gain and that sum can pass the float range")


#: Per bad-input class: the message, with {} where the offending value
#: goes; gains, or the scalar keywords, for the constructor; and the
#: distribution keywords of a draw that makes the same fault, if one can.
_BAD_INPUTS = {
    "nan-gain": ("channel power gain must be finite and >= 0, got {}",
                 dict(gains=[1.0, math.nan]), None),
    "negative-gain": ("channel power gain must be finite and >= 0, got {}",
                      dict(gains=[-0.5, 1.0]), None),
    "inf-gain": ("channel power gain must be finite and >= 0, got {}",
                 dict(gains=[1.0, math.inf]),
                 dict(ref_attenuation=1e300, distance_range=(1e-5, 2e-5))),
    "all-zero-gains": ("scenario needs at least one channel with nonzero gain",
                       dict(gains=[0.0, 0.0]),
                       dict(path_loss_exponent=300, distance_range=(1e3, 2e3))),
    "tiny-gain": (_TINY, dict(gains=[1.0, _MIN_GAIN / 2]), dict(ref_attenuation=1e-160)),
    "gain-sums-past-the-limit": (_SUMS, dict(gains=[2.0 ** 510] * 5),
                                 dict(ref_attenuation=1e306)),
    "bad-power": ("transmit_power must be positive and finite, got {}",
                  dict(transmit_power=-1.0), dict(transmit_power=-1.0)),
    "bad-carrier": ("carrier_freq must be positive", dict(carrier_freq=0.0),
                    dict(carrier_freq=0.0)),
    "bad-efficiency": ("conversion_eff must lie in (0, 1]", dict(conversion_eff=1.5),
                       dict(conversion_eff=1.5)),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_each_bad_input_class_has_one_message(case):
    """``Scenario(...)`` and, where a draw can make the fault,
    ``generate_scenario`` give the class's one message."""
    template, args, draw_fields = _BAD_INPUTS[case]
    call = dict(transmit_power=1.0, carrier_freq=1.0, conversion_eff=1.0, gains=[1.0, 2.0])
    call.update(args)
    gains = call.pop("gains")
    shifts = [0.1 * k for k in range(len(gains))]
    pattern = re.escape(template).replace(r"\{\}", r"\S+")
    with pytest.raises(ValueError) as exc:
        Scenario(*call.values(), gains, shifts)
    messages = [str(exc.value)]
    if draw_fields is not None:
        with pytest.raises(ValueError) as exc:
            dist = ScenarioDistribution(num_transmitters=3, **draw_fields)
            generate_scenario(dist, np.random.default_rng(5))
        messages.append(str(exc.value))
    for message in messages:
        assert re.fullmatch(pattern, message), (case, message)
    if "{}" not in template:
        assert len(set(messages)) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_gain_sum_limit_bounds_every_stage_product():
    """Gains whose (sum of sqrt(gain))**2 passes 2**511 are an error, and
    gains just inside run every stage without overflow and keep the bound.
    A config holding ``ref_attenuation = 1e306`` drew gain sums near 1e304,
    which overflowed the stage products and ran to eta 0.722 at N = 8."""
    with pytest.raises(ValueError, match=re.escape("the gain sums overflow")):
        Scenario(1.0, 1.0, 1.0, [2.0 ** 510] * 5, [0.0] * 5)
    shifts = [0.3, -2.0, 1.1, 2.9, -0.7]
    inside = ([0.99 * 2.0 ** 509] * 2, [2.0 ** 508, 2.0 ** 506, 2.0 ** 500, 0.0, 1.0],
              [_LIMIT / 25 * 0.999] * 5)
    with np.errstate(all="raise"):
        for gains in inside:
            assert sum(map(math.sqrt, gains)) ** 2 <= _LIMIT
            s = Scenario(1.0, 1.0, 1.0, gains, shifts[:len(gains)])
            stack = stack_scenarios([s])
            for n in (1, 4, 8):
                bound = efficiency_lower_bound(s, n)
                assert run_protocol(s, n).eta >= bound - 1e-12, (gains, n)
                phases, powers = exact_runs(stack, n)
                assert np.isfinite(powers).all()
                eta = harvested_powers(stack, phases)[0] / optimal_powers(stack)[0]
                assert eta >= bound - 1e-12, (gains, n)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_draws_and_constructors_agree_on_either_side_of_the_gain_sum_limit(m):
    """The draw's screen (largest gain times M**2 at most 2**510) clears
    only gains the checker accepts, and past the screen the checker decides:
    equal gains at 1/2, 0.99 and 1.01 of the limit's share."""
    for share, ok in ((0.5, True), (0.99, True), (1.01, False)):
        dist = ScenarioDistribution(num_transmitters=m, ref_attenuation=_LIMIT / m ** 2 * share,
                                    distance_range=(1.0, 1.0))
        try:
            drawn, _ = generate_scenario(dist, np.random.default_rng(2))
        except ValueError as exc:
            assert not ok and str(exc).startswith("the gain sums overflow"), (share, exc)
            with pytest.raises(ValueError, match=re.escape("the gain sums overflow")):
                Scenario(1.0, 1.0, 1.0, [dist.ref_attenuation] * m, [0.0] * m)
        else:
            assert ok, share
            again = Scenario(1.0, 1.0, 1.0, drawn.gains, drawn.phase_shifts)
            assert again.gains.tobytes() == drawn.gains.tobytes()


def test_power_scale_is_conversion_eff_times_transmit_power():
    """Every harvested power is scaled by ``power_scale``, stored once per
    scenario; it is the product the callers took before, bit for bit."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, rho = float(rng.uniform(1e-3, 1e3)), float(rng.uniform(1e-3, 1.0))
        built = Scenario(p, 915e6, rho, rng.uniform(0.0, 1.0, 4), rng.uniform(-3.0, 3.0, 4))
        drawn, _ = generate_scenario(ScenarioDistribution(num_transmitters=4, transmit_power=p,
                                                          conversion_eff=rho), rng)
        for s in (built, drawn):
            assert s.power_scale.hex() == (rho * p).hex()
