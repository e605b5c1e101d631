import math

import numpy as np
import pytest

from distbeam import circular_distance, wrap_angle

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
