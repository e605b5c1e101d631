import math
import sys

import numpy as np
import pytest

from distbeam import (
    PhaseAssignment,
    ScenarioDistribution,
    circular_distance,
    generate_scenario,
    optimal_power,
    run_protocol,
    wrap_angle,
)
from distbeam.angles import TWO_PI
from distbeam.power import MODE_ADDITIVE_NOISE, MeasurementModel
from distbeam.streams import _uniforms, rng_stream, trial_stack

from conftest import where_wrap


def test_wrap_range_half_open():
    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(-math.pi) == -math.pi
    assert wrap_angle(3 * math.pi) == -math.pi
    assert wrap_angle(0.0) == 0.0


def test_wrap_randomized_range_and_idempotence(rng):
    # plus the 200 doubles on each side of multiples of pi/2, where the
    # roundings of x + pi and of the final - pi change
    near = []
    for c in (-3, -2, -1, -0.5, 0, 0.5, 1, 2, 3):
        lo = hi = c * math.pi
        near += [lo]
        for _ in range(200):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            near += [lo, hi]
    x = np.concatenate([rng.uniform(-50, 50, 5000), near])
    w = wrap_angle(x)
    assert np.all(w >= -math.pi) and np.all(w < math.pi)
    # bit for bit: a second wrap, as PhaseAssignment applies, changes nothing
    assert np.array_equal(wrap_angle(w), w)
    # the same holds for the scalar wrap, which agrees with the array one
    for xi, wi in zip(x.tolist(), w.tolist()):
        ws = wrap_angle(xi)
        assert ws == wi and math.copysign(1.0, ws) == math.copysign(1.0, wi), xi
        assert wrap_angle(ws) == ws and wrap_angle(wi) == wi, xi
    # wrapping preserves the angle modulo 2*pi
    assert np.allclose(np.cos(w), np.cos(x), atol=1e-12)
    assert np.allclose(np.sin(w), np.sin(x), atol=1e-12)


def test_wrap_scalar_matches_array(rng):
    for x in rng.uniform(-20, 20, 100):
        assert wrap_angle(float(x)) == wrap_angle(np.array([x]))[0]


def test_in_place_array_wrap_is_bit_identical(rng):
    """The in-place array wrap equals the scalar wrap and the np.where form
    bit for bit, sign of zero included, on uniform draws and edge inputs."""
    edges = [math.nextafter(-math.pi, -math.inf), math.nextafter(-math.pi, math.inf),
             0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
    edges += [k * math.pi for k in (-3, -2, -1, 1, 2, 3)]
    x = np.concatenate([rng.uniform(-7, 7, 20000), rng.uniform(-1e3, 1e3, 20000),
                        rng.normal(0.0, 1e-12, 2000), edges])
    before = x.tobytes()
    w = wrap_angle(x)
    assert x.tobytes() == before            # the input is not wrapped in place
    assert w.tobytes() == where_wrap(x).tobytes()
    scalar = np.array([wrap_angle(v) for v in x.tolist()])
    assert w.tobytes() == scalar.tobytes()
    for size in (1, 9, 100):
        assert wrap_angle(x[:size]).tobytes() == where_wrap(x[:size]).tobytes()


def test_fmod_wrap_matches_the_mod_oracle_on_extreme_inputs():
    """The array wrap's ``np.fmod`` and its gated negative fix-up equal the
    ``np.mod`` form (``where_wrap``) by bytes: log-spaced magnitudes from
    1e-300 to 1e300 of both signs, k * pi and both its neighbours for
    |k| <= 10**4 (among them inputs whose remainder is -0.0), +-0 with the
    sign of the output's zero, a 0-d array and a non-contiguous view."""
    mag = np.logspace(-300, 300, 6001)
    kpi = np.arange(-10**4, 10**4 + 1) * math.pi
    x = np.concatenate([mag, -mag, kpi, np.nextafter(kpi, -math.inf),
                        np.nextafter(kpi, math.inf)])
    rem = np.fmod(x + math.pi, TWO_PI)
    assert np.count_nonzero((rem == 0.0) & np.signbit(rem))    # fmod's -0.0 case is met
    assert np.count_nonzero(rem < 0.0)                          # and so is the 2*pi fix-up
    assert wrap_angle(x).tobytes() == where_wrap(x).tobytes()
    zeros = np.array([0.0, -0.0])
    w = wrap_angle(zeros)
    assert w.tobytes() == where_wrap(zeros).tobytes() and not np.signbit(w).any()
    for v in (0.0, -0.0, -math.pi, 3 * math.pi, -1e300, 1e-300):
        w = wrap_angle(np.array(v))
        assert w.shape == () and w.tobytes() == where_wrap(np.array(v)).tobytes(), v
    block = x[:40000].reshape(400, 100)
    view = block[::-3, 1::7]
    before = block.tobytes()
    assert not view.flags.c_contiguous
    assert wrap_angle(view).tobytes() == where_wrap(view).tobytes()
    assert block.tobytes() == before


def test_array_wrap_keeps_0d_and_non_finite_behaviour():
    w = wrap_angle(np.array(3 * math.pi))
    assert isinstance(w, np.ndarray) and w.shape == () and float(w) == -math.pi
    assert math.copysign(1.0, float(wrap_angle(np.array(-0.0)))) == 1.0
    bad = np.array([math.nan, math.inf, -math.inf, 1.0])
    with pytest.warns(RuntimeWarning, match="invalid value"):
        w = wrap_angle(bad)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        old = where_wrap(bad)
    assert np.isnan(w[:3]).all() and w[3] == 1.0
    assert w.tobytes() == old.tobytes()


def test_circular_distance_cases():
    assert circular_distance(0.0, 0.0) == 0.0
    assert circular_distance(0.0, math.pi / 2) == math.pi / 2
    assert abs(circular_distance(-math.pi + 0.01, math.pi - 0.01) - 0.02) < 1e-12


def test_circular_distance_properties(rng):
    a = rng.uniform(-8, 8, 2000)
    b = rng.uniform(-8, 8, 2000)
    d = np.array([circular_distance(x, y) for x, y in zip(a, b)])
    assert np.all(d >= 0.0) and np.all(d <= math.pi)
    d_sym = np.array([circular_distance(y, x) for x, y in zip(a, b)])
    assert np.allclose(d, d_sym)
    # invariant under full turns
    d_shift = np.array(
        [circular_distance(x + 2 * math.pi, y) for x, y in zip(a, b)]
    )
    assert np.allclose(d, d_shift, atol=1e-12)


def test_wrap_is_the_identity_on_every_uniform_draw(rng):
    """A ``uniform(-pi, pi)`` draw is -pi + 2pi * (k * 2**-53) for an integer
    0 <= k < 2**53 (``streams._uniforms``, pinned to numpy's arithmetic),
    and the wrap returns it bit for bit (the proof is in
    ``generate_scenario``'s docstring). Checked on windows of 10**5 k
    around the proof's case edges and ends, 0, 2**51 (y = pi/2), 2**52
    (y = pi), 3 * 2**51 and 2**53 - 1, on 10**6 random k, and on numpy's
    own draws."""
    top = 2 ** 53
    windows = [np.arange(max(c - 50_000, 0), min(c + 50_000, top), dtype=np.uint64)
               for c in (0, 2 ** 51, 2 ** 52, 3 * 2 ** 51, top - 1)]
    k = np.concatenate([*windows, rng.integers(0, top, 10 ** 6, dtype=np.uint64)])
    x = _uniforms(k << np.uint64(11), -math.pi, math.pi)
    assert x.tobytes() == wrap_angle(x).tobytes()
    assert x.min() == -math.pi and x.max() < math.pi
    draws = np.random.default_rng(7).uniform(-math.pi, math.pi, 10 ** 5)
    assert draws.tobytes() == wrap_angle(draws).tobytes()
    for v in np.concatenate([x[::997], draws[:1000]]).tolist():
        assert wrap_angle(v) == v and math.copysign(1.0, wrap_angle(v)) == math.copysign(1.0, v)


def test_draws_and_wrapped_phases_take_no_array_wrap(monkeypatch):
    """Fresh draws (``generate_scenario``, ``trial_stack``) and phases that
    are wraps' outputs already (``optimal_power``'s phase shifts,
    ``run_protocol``'s arc centres) make no array ``wrap_angle`` call,
    while the public ``PhaseAssignment`` still wraps a caller's phases."""
    calls = []

    def counted(x):
        if isinstance(x, np.ndarray):
            calls.append(x.shape)
        return wrap_angle(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("distbeam") and getattr(module, "wrap_angle", None) is wrap_angle:
            monkeypatch.setattr(module, "wrap_angle", counted)
    for m in (2, 5, 40):
        dist = ScenarioDistribution(num_transmitters=m)
        s, _ = generate_scenario(dist, rng_stream(3, m))
        trial_stack(dist, 3, m, trials=50)
        optimal_power(s)
        for n in (1, 4, 9):
            run_protocol(s, n)
            run_protocol(s, n, MeasurementModel(MODE_ADDITIVE_NOISE, 1e-9, rng_stream(4, m)))
    assert calls == []
    pa = PhaseAssignment([3 * math.pi, 0.5])
    assert calls == [(2,)] and pa.phases.tolist() == [-math.pi, 0.5]
