import math

import numpy as np

from distbeam import circular_distance, wrap_angle


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
