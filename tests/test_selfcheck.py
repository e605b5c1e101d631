"""The ``verify`` suite's stacked checks against their per-instance loops,
and every check against a planted fault in what it verifies."""

import math

import numpy as np
import pytest

from distbeam import adapt, protocol, selfcheck
from distbeam.power import harvested_power

from conftest import per_instance_partial_power, per_instance_phasor_draws, phasor_power

PHASOR = dict(seed=20_240_101, instances=2000, max_m=32)
PARTIAL = dict(seed=20_240_102, instances=2000, max_m=16)


def _joined(windows):
    """The per-window (a, b) arrays of a stacked check, joined in draw order."""
    a, b = zip(*windows)
    return np.concatenate(a), np.concatenate(b)


def test_checks_default_to_the_oracle_draws():
    """The oracles below draw the data of the checks' own defaults."""
    assert selfcheck.check_phasor_oracle.__defaults__ == tuple(PHASOR.values())
    assert selfcheck.check_partial_power_consistency.__defaults__ == tuple(PARTIAL.values())


@pytest.mark.parametrize("window", [7, selfcheck.WINDOW])
def test_stacked_phasor_check_equals_per_instance_calls(monkeypatch, window):
    """Every stacked ``harvested_powers`` value of the phasor check equals the
    instance's own ``harvested_power`` call, bit for bit, whatever the
    window."""
    monkeypatch.setattr(selfcheck, "WINDOW", window)
    powers, _ = _joined(selfcheck.phasor_windows(**PHASOR))
    want = np.array([harvested_power(s, pa) for s, pa in per_instance_phasor_draws(**PHASOR)])
    assert powers.tobytes() == want.tobytes()


@pytest.mark.parametrize("window", [7, selfcheck.WINDOW])
def test_stacked_partial_check_equals_per_instance_calls(monkeypatch, window):
    """Both sides of the partial-power check equal the per-instance loop bit
    for bit: the scalar ``partial_power`` and the joined set's power."""
    monkeypatch.setattr(selfcheck, "WINDOW", window)
    partial, joined = _joined(selfcheck.partial_power_windows(**PARTIAL))
    want_partial, want_joined = per_instance_partial_power(**PARTIAL)
    assert partial.tobytes() == want_partial.tobytes()
    assert joined.tobytes() == want_joined.tobytes()


def test_stacked_phasor_oracle_agrees_with_scalar_cmath_sum():
    """The stacked ``np.exp`` phasor oracle and the scalar ``cmath`` loop
    round differently, by at most (6M + 24) u c S^2, with u = 2^-53,
    c = conversion_eff * transmit_power and S = sum sqrt(g).

    Both compute the same angles x = phi - theta and amplitudes sqrt(g)
    (one subtraction, one correctly rounded root). Each term's components
    are a cos x and a sin x with cos and sin within 1 ulp (2u) and one
    product rounding (u): 3u a each. A sum of M terms in any order adds at
    most (M - 1) u S per component. So each route's z is within
    sqrt(2) (M + 2) u S of the exact sum z*. Squaring the magnitude moves
    c|z|^2 by at most c |z - z*| (|z| + |z*|) <= 2 sqrt(2) (M + 2) u c S^2,
    and hypot (2u), the square (u) and the scale (u) add 6u c S^2. One
    route is within (2 sqrt(2) (M + 2) + 6) u c S^2 of the exact power, the
    two are within twice that, 4 sqrt(2) (M + 2) + 12 < 6M + 24 (the slack
    covers the O(u^2) terms)."""
    draws = per_instance_phasor_draws(**PHASOR)
    _, oracle = _joined(selfcheck.phasor_windows(**PHASOR))
    scalar = np.array([phasor_power(s, pa) for s, pa in draws])
    m = np.array([s.num_transmitters for s, _ in draws])
    c_s2 = np.array([s.conversion_eff * s.transmit_power * float(np.sum(np.sqrt(s.gains))) ** 2
                     for s, _ in draws])
    tol = (6 * m + 24) * 2.0**-53 * c_s2
    assert np.all(np.abs(oracle - scalar) <= tol)


def _flip_bit(bisect_arc):
    return lambda arc, bit: bisect_arc(arc, not bit)


#: (check, owner of the faulty attribute, its name, fault made from the original)
FAULTS = [
    ("check_phasor_oracle", selfcheck, "harvested_powers",
     lambda f: lambda stack, phases: f(stack, phases) * (1 + 1e-8)),
    ("check_partial_power_consistency", selfcheck, "partial_power",
     lambda f: lambda s, ss, m, phi_m: f(s, ss, m, phi_m) + 1e-12),
    ("check_bisection_grid", adapt, "bisect_arc", _flip_bit),
    ("check_error_bound", adapt, "bisect_arc", _flip_bit),
    ("check_efficiency_sandwich", selfcheck, "efficiency_lower_bound",
     lambda f: lambda s, n: f(s, n) + 1e-3),
    ("check_induction", protocol, "accumulated_power",
     lambda f: lambda gains, errors: f(gains, errors) * (1 - 1e-6)),
]


@pytest.mark.parametrize("check, owner, name, plant", FAULTS, ids=[f[0] for f in FAULTS])
def test_check_fails_on_a_planted_fault(monkeypatch, check, owner, name, plant):
    """Each check, at its defaults, reports a subtle fault in its target."""
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    result = getattr(selfcheck, check)()
    assert not result.ok, result.detail


def test_nan_mismatch_fails_the_check(monkeypatch):
    """A NaN power is a failed check, not a mismatch that max() skips."""
    monkeypatch.setattr(selfcheck, "harvested_powers",
                        lambda stack, phases: np.full(len(stack.scale), np.nan))
    result = selfcheck.check_phasor_oracle(instances=50)
    assert not result.ok and result.detail == "max relative mismatch nan"


def test_nan_phase_error_fails_the_error_bound(monkeypatch):
    """A bisection that returns a NaN centre once the half-width is below
    0.1 gives NaN phase errors from N = 5 on, and the bound check fails on
    them instead of dropping them from its maximum. ``Arc`` rejects a NaN
    centre, so the fault builds its tuple directly."""
    plain = adapt.bisect_arc

    def nan_centre(arc, bit):
        half = arc.half_width / 2.0
        if half < 0.1:
            return tuple.__new__(adapt.Arc, (math.nan, half))
        return plain(arc, bit)

    monkeypatch.setattr(adapt, "bisect_arc", nan_centre)
    result = selfcheck.check_error_bound(runs_per_n=20)
    assert not result.ok and result.detail == "worst error minus pi/2^N is nan"
