import copy
import math
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from distbeam import (
    Scenario,
    ScenarioDistribution,
    efficiency_lower_bound,
    generate_scenario,
    run_protocol,
    scenario_from_text,
    scenario_to_text,
    wrap_angle,
)
from distbeam.channel import _path_loss_gains
from distbeam.experiments import rng_stream
from distbeam.power import harvested_powers, optimal_powers
from distbeam.protocol import exact_runs

from conftest import channel_by_channel_scenario, stack_scenarios

GOLDEN = Path(__file__).parent / "data" / "scenario_seed7.txt"
#: GOLDEN as written before the carrier frequency left the format
FOUR_KEY_GOLDEN = Path(__file__).parent / "data" / "scenario_seed7_four_keys.txt"


def test_channel_and_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, [-1e-9], [0.0])
    assert Scenario(1.0, 1.0, [1.0], [3 * math.pi]).phase_shifts[0] == -math.pi
    for power in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="transmit_power must be positive and finite"):
            Scenario(power, 1.0, [1], [0])
    with pytest.raises(ValueError):
        Scenario(1.0, 1.5, [1], [0])
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, [], [])
    for gain, phase in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf),
                        (1.0, -math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            Scenario(1.0, 1.0, [gain], [phase])
    # efficiencies divide by the optimal power, so some gain must be nonzero
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, [0.0, 0.0], [0.0, 1.0])
    Scenario(1.0, 1.0, [0.0, 1e-9], [0.0, 1.0])


def _gain_at(r: float, **kwargs) -> float:
    """The one gain a draw gives when every link sits at distance ``r``."""
    dist = ScenarioDistribution(num_transmitters=1, distance_range=(r, r), **kwargs)
    scen, _ = generate_scenario(dist, np.random.default_rng(0))
    return float(scen.gains[0])


def test_path_loss_values():
    dist = ScenarioDistribution(num_transmitters=1)
    assert abs(_gain_at(10.0) - 1e-5) < 1e-18
    assert _gain_at(dist.ref_distance) == dist.ref_attenuation


def test_path_loss_monotone(rng):
    r = np.sort(rng.uniform(1, 100, 50))
    g = [_gain_at(float(x), path_loss_exponent=2.7) for x in r]
    assert all(g[i] > g[i + 1] for i in range(len(g) - 1))


def test_generate_scenario_fields(rng):
    dist = ScenarioDistribution(num_transmitters=8)
    scen, distances = generate_scenario(dist, rng)
    assert scen.num_transmitters == 8
    assert np.all(distances >= 5.0) and np.all(distances <= 15.0)
    assert np.all(scen.phase_shifts >= -math.pi) and np.all(scen.phase_shifts < math.pi)
    assert scen.gains.tobytes() == np.array(_path_loss_gains(distances.tolist(), dist)).tobytes()


def test_generate_scenario_deterministic():
    dist = ScenarioDistribution(num_transmitters=5)
    a, da = generate_scenario(dist, np.random.default_rng(99))
    b, db = generate_scenario(dist, np.random.default_rng(99))
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.phase_shifts, b.phase_shifts)
    assert np.array_equal(da, db)
    assert a.transmit_power == b.transmit_power
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
        scenario_from_text("M 2\nP 1\nrho 1\n1.0 nan\n-1 0\n")


_TEXT = "M 2\nP 1\nrho 0.5\n1 0.1\n2 0.2\n"
_HEADER = "scenario header needs the keys M, P and rho, got "


@pytest.mark.parametrize("bad, message", [
    # f_c is no key: the carrier frequency cancels from the period-average power
    (_TEXT.replace("rho ", "f_c "), _HEADER + "M, P, f_c"),
    (_TEXT.replace("M 2\n", "M 2\nM 2\n"), _HEADER + "M, P"),
    ("", _HEADER + "none"),
    # these raised Python's bare unpacking and conversion messages
    (_TEXT.replace("1 0.1", "1 2 3"), "line 4: expected '<gain> <phase_shift>', got '1 2 3'"),
    (_TEXT.replace("1 0.1", "1"), "line 4: expected '<gain> <phase_shift>', got '1'"),
    (_TEXT.replace("2 0.2", "x 0.2"), "line 5: expected '<gain> <phase_shift>', got 'x 0.2'"),
    (_TEXT.replace("M 2", "M 2 x"), "line 1: expected '<key> <value>', got 'M 2 x'"),
    (_TEXT.replace("M 2", "M 2.5"), "line 1: expected 'M <count>', got 'M 2.5'"),
    # these said "expected -1 channel lines, found 0"
    ("M -1\nP 1\nrho 1\n", "line 1: expected 'M <count>', got 'M -1'"),
    ("M 0\nP 1\nrho 1\n", "line 1: expected 'M <count>', got 'M 0'"),
    # a four-key header of an older format: f_c is read as the first link
    ("M 2\nP 1\nrho 1\nf_c 915000000\n1 0.1\n",
     "line 4: expected '<gain> <phase_shift>', got 'f_c 915000000'"),
    # the whole file of that format: its f_c line is named before the count
    (FOUR_KEY_GOLDEN.read_text(), "line 4: expected '<gain> <phase_shift>', got 'f_c 915000000'"),
], ids=["unknown-key", "repeated-key", "empty", "three-fields", "one-field", "gain-word",
        "header-fields", "fractional-count", "negative-count", "zero-count", "carrier-line",
        "four-key-file"])
def test_scenario_text_rejects_a_malformed_file(bad, message):
    """Each malformed file is a ValueError that names what is wrong and, for
    a malformed line, its 1-based number and the form it must have."""
    with pytest.raises(ValueError, match=re.escape(message)):
        scenario_from_text(bad)


@pytest.mark.parametrize("m", [1, 2, 5, 10, 32, 50])
def test_generate_scenario_equals_channel_by_channel_draw(m):
    """The array-native draw, which skips the constructors' validation, gives
    the link-by-link scenario and its distances bit for bit and read-only,
    on the default law and on non-default exponents, reference distances,
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
            got, got_distances = generate_scenario(dist, rng_stream(seed, m, k))
            want, distances = channel_by_channel_scenario(dist, rng_stream(seed, m, k))
            assert got.gains.tobytes() == want.gains.tobytes(), (k, seed)
            assert got.phase_shifts.tobytes() == want.phase_shifts.tobytes(), (k, seed)
            assert got_distances.tobytes() == distances.tobytes()
            assert (got.transmit_power, got.conversion_eff) == \
                (want.transmit_power, want.conversion_eff)
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
        Scenario(1.0, 1.0, gains, phases)


def test_scenario_takes_no_carrier_frequency():
    """The harvested power is a period average, from which the carrier
    frequency cancels, so neither a scenario nor a distribution takes one:
    a five-argument constructor call is a TypeError, not a carrier."""
    with pytest.raises(TypeError):
        Scenario(1.0, 915e6, 1.0, [1.0], [0.0])
    with pytest.raises(TypeError):
        ScenarioDistribution(num_transmitters=2, carrier_freq=915e6)


def test_scenario_is_two_read_only_arrays(rng):
    """A scenario is its two scalars and two read-only arrays; building
    one from another's arrays, or from its text record, gives the same
    bytes."""
    g = np.array([0.5, 0.0, 2.0])
    th = np.array([3 * math.pi, 0.25, -7.0])
    s = Scenario(2.0, 0.5, g, th)
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
    again = Scenario(s.transmit_power, s.conversion_eff, s.gains, s.phase_shifts)
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
            Scenario(1.0, 1.0, gains, shifts)
    with pytest.raises(ValueError, match=re.escape("channel power gain 1e-300 " + message)):
        Scenario(1.0, 1.0, [1e-300, 1e-300], [0.1, 0.2])
    # at the limit the run keeps its guarantee
    for gains in ([limit, limit], [0.0, limit, limit, 1.0]):
        s = Scenario(1.0, 1.0, gains, [0.1, 0.2, -2.0, 3.0][:len(gains)])
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
    "bad-efficiency": ("conversion_eff must lie in (0, 1]", dict(conversion_eff=1.5),
                       dict(conversion_eff=1.5)),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_each_bad_input_class_has_one_message(case):
    """``Scenario(...)`` and, where a draw can make the fault,
    ``generate_scenario`` give the class's one message."""
    template, args, draw_fields = _BAD_INPUTS[case]
    call = dict(transmit_power=1.0, conversion_eff=1.0, gains=[1.0, 2.0])
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
        Scenario(1.0, 1.0, [2.0 ** 510] * 5, [0.0] * 5)
    shifts = [0.3, -2.0, 1.1, 2.9, -0.7]
    inside = ([0.99 * 2.0 ** 509] * 2, [2.0 ** 508, 2.0 ** 506, 2.0 ** 500, 0.0, 1.0],
              [_LIMIT / 25 * 0.999] * 5)
    with np.errstate(all="raise"):
        for gains in inside:
            assert sum(map(math.sqrt, gains)) ** 2 <= _LIMIT
            s = Scenario(1.0, 1.0, gains, shifts[:len(gains)])
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
                Scenario(1.0, 1.0, [dist.ref_attenuation] * m, [0.0] * m)
        else:
            assert ok, share
            again = Scenario(1.0, 1.0, drawn.gains, drawn.phase_shifts)
            assert again.gains.tobytes() == drawn.gains.tobytes()


def test_power_scale_is_conversion_eff_times_transmit_power():
    """Every harvested power is scaled by ``power_scale``, stored once per
    scenario; it is the product the callers took before, bit for bit."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, rho = float(rng.uniform(1e-3, 1e3)), float(rng.uniform(1e-3, 1.0))
        built = Scenario(p, rho, rng.uniform(0.0, 1.0, 4), rng.uniform(-3.0, 3.0, 4))
        drawn, _ = generate_scenario(ScenarioDistribution(num_transmitters=4, transmit_power=p,
                                                          conversion_eff=rho), rng)
        for s in (built, drawn):
            assert s.power_scale.hex() == (rho * p).hex()


def _link_floats_match(s: Scenario) -> None:
    """The scenario's stored link floats are tuples of Python floats equal
    to its arrays bit for bit."""
    for floats, array in ((s._gain_floats, s.gains), (s._shift_floats, s.phase_shifts)):
        assert type(floats) is tuple
        assert all(type(v) is float for v in floats)
        assert np.array(floats, dtype=float).tobytes() == array.tobytes()


def test_link_floats_equal_the_arrays_from_every_construction_path(rng):
    """The constructor (a 3*pi shift wrapped, a -0.0 gain and shift),
    ``generate_scenario`` and ``scenario_from_text`` all store the links'
    Python floats with the arrays."""
    s = Scenario(1.0, 1.0, [2.0, -0.0, 0.5], [3 * math.pi, -0.0, -7.0])
    assert math.copysign(1.0, s._gain_floats[1]) == -1.0
    _link_floats_match(s)
    for m in (1, 5, 50):
        scen, _ = generate_scenario(ScenarioDistribution(num_transmitters=m), rng)
        _link_floats_match(scen)
        _link_floats_match(scenario_from_text(scenario_to_text(scen)))


def test_scenario_fields_cannot_be_set_or_deleted(rng):
    """No field can be reassigned or deleted once stored, so a bad gain
    cannot get past the checks and the link floats cannot drift from the
    arrays."""
    s, _ = generate_scenario(ScenarioDistribution(num_transmitters=3), rng)
    for name in Scenario.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(s, name, getattr(s, name))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(s, name)
    with pytest.raises(AttributeError, match="immutable"):
        s.gains = np.array([-1.0, math.nan, 3.0])
    _link_floats_match(s)


@pytest.mark.parametrize("rebuild", [lambda s: pickle.loads(pickle.dumps(s)),
                                     copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_rebuild_through_the_constructor(rng, rebuild):
    """A pickled or copied scenario is rebuilt by the validating constructor:
    read-only arrays, the same bytes and link floats, and a generated
    scenario's unwrapped draws kept as they are."""
    for s in (Scenario(2.0, 0.5, [0.5, 0.0, 2.0], [3 * math.pi, 0.25, -7.0]),
              generate_scenario(ScenarioDistribution(num_transmitters=50), rng)[0]):
        t = rebuild(s)
        assert t is not s and type(t) is Scenario
        with pytest.raises(ValueError, match="read-only"):
            t.gains[0] = -5.0
        with pytest.raises(ValueError, match="read-only"):
            t.phase_shifts[0] = 1.0
        assert (t.transmit_power, t.conversion_eff, t.power_scale) == \
            (s.transmit_power, s.conversion_eff, s.power_scale)
        assert t.gains.tobytes() == s.gains.tobytes()
        assert t.phase_shifts.tobytes() == s.phase_shifts.tobytes()
        assert (t._gain_floats, t._shift_floats) == (s._gain_floats, s._shift_floats)
        _link_floats_match(t)
