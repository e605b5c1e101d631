import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from distbeam import (
    Arc,
    MeasurementModel,
    PhaseAssignment,
    ProbePair,
    adapt_phase,
    bisect_arc,
    circular_distance,
    feedback_bit,
    initial_arc,
    partial_power,
    probe_pair,
    run_protocol,
    sum_signal,
    wrap_angle,
)
from distbeam import adapt
from distbeam.adapt import CONVERGENCE_FLOOR
from distbeam.power import MODE_ADDITIVE_NOISE
from distbeam.selfcheck import grid_oracle_violations

from conftest import per_stage_protocol, plain_bisect_arc, plain_probe_pair, random_scenario


def kept_side_grid(psi, psi_prime, bit, points=3600):
    """Independent route to a bisection step: grid points whose cosine
    comparison agrees with the feedback bit."""
    grid = np.linspace(-math.pi, math.pi, points, endpoint=False)
    lhs = np.cos(grid - psi)
    rhs = np.cos(grid - psi_prime)
    return grid[(lhs > rhs) if bit else (lhs < rhs)]


def test_initial_arc():
    arc = initial_arc()
    assert arc.half_width == math.pi
    probes = probe_pair(arc)
    assert probes.psi == 0.0
    assert probes.psi_prime == -math.pi
    # the full circle contains every candidate phase
    for phi in np.linspace(-math.pi, math.pi, 17, endpoint=False):
        assert arc.contains(phi)


def test_first_bisection_from_full_circle():
    arc = initial_arc()
    probes = probe_pair(arc)
    new = bisect_arc(arc, True)
    assert new.center == pytest.approx(0.0)
    assert new.half_width == math.pi / 2
    new_probes = probe_pair(new)
    assert new_probes.psi == pytest.approx(math.pi / 2)
    assert new_probes.psi_prime == pytest.approx(-math.pi / 2)
    # grid oracle: the kept points are exactly those closer to the winner
    kept = kept_side_grid(probes.psi, probes.psi_prime, True)
    assert all(new.contains(th, slack=1e-9) for th in kept)
    assert np.all(np.abs(kept) < math.pi / 2 + 1e-9)


def test_second_bisection():
    arc = Arc(0.0, math.pi / 2)
    probes = probe_pair(arc)
    assert probes == ProbePair(pytest.approx(math.pi / 2), pytest.approx(-math.pi / 2))
    new = bisect_arc(arc, True)
    assert new.center == pytest.approx(math.pi / 4)
    assert new.half_width == pytest.approx(math.pi / 4)
    kept = kept_side_grid(probes.psi, probes.psi_prime, True)
    inside_old = [th for th in kept if arc.contains(th, slack=1e-12)]
    assert all(new.contains(th, slack=1e-9) for th in inside_old)


def test_bisection_mirror_symmetry(rng):
    for _ in range(50):
        arc = Arc(rng.uniform(-math.pi, math.pi), rng.uniform(0.01, math.pi))
        up = bisect_arc(arc, True)
        down = bisect_arc(arc, False)
        assert up.half_width == down.half_width == arc.half_width / 2
        # mirror images about the old center
        assert circular_distance(up.center, arc.center) == pytest.approx(
            circular_distance(down.center, arc.center)
        )
        mirrored = wrap_angle(2 * arc.center - up.center)
        assert circular_distance(mirrored, down.center) < 1e-12


def test_arc_validation_and_floor():
    with pytest.raises(ValueError):
        Arc(0.0, 0.0)
    with pytest.raises(ValueError):
        Arc(0.0, 3.2)
    # a NaN centre built silently, an infinite one raised a bare math domain error
    for center in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        with pytest.raises(ValueError, match=f"arc center must be finite, got {float(center)}"):
            Arc(center, 0.1)
        with pytest.raises(ValueError, match="arc center must be finite"):
            Arc(0.0, 0.1)._replace(center=center)
    tiny = Arc(0.0, CONVERGENCE_FLOOR / 2)
    assert tiny.converged
    # bisecting a converged arc is a no-op, never an error
    assert bisect_arc(tiny, True) == tiny


def test_arc_is_an_immutable_value():
    arc = Arc(half_width=1.0, center=0.25)
    assert arc == Arc(0.25, 1.0) and hash(arc) == hash(Arc(0.25, 1.0))
    assert arc != Arc(0.25, 0.5)
    assert Arc(3 * math.pi, 1.0).center == wrap_angle(3 * math.pi)
    assert type(Arc(np.float64(0.5), 1.0).center) is float
    for bad in (0.0, math.nextafter(math.pi, 4.0), math.nan):
        with pytest.raises(ValueError):
            Arc(0.0, bad)
        with pytest.raises(ValueError):
            arc._replace(half_width=bad)
    for name in ("center", "half_width", "other"):
        with pytest.raises(AttributeError):
            setattr(arc, name, 0.5)
    assert arc._replace(center=7.0) == Arc(7.0, 1.0)
    assert not arc.converged and Arc(0.0, CONVERGENCE_FLOOR).converged
    assert arc.contains(1.2) and not arc.contains(1.3) and arc.contains(1.3, slack=0.1)
    assert initial_arc() is initial_arc()
    assert probe_pair(initial_arc()) == (0.0, -math.pi)


def count_interval_calls(monkeypatch) -> Counter:
    """Count the per-interval steps the stage loop looks up in ``adapt``."""
    counts = Counter()
    for name in ("probe_pair", "partial_power", "feedback_bit", "bisect_arc"):
        def counted(*args, _fn=getattr(adapt, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(adapt, name, counted)
    return counts


def interval_calls(intervals: int) -> dict:
    return {"probe_pair": intervals, "partial_power": 2 * intervals,
            "feedback_bit": intervals, "bisect_arc": intervals}


@pytest.mark.parametrize("std", [0.0, 1e-6])
@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("m", [2, 5, 50])
def test_protocol_interval_makes_one_call_per_step(monkeypatch, m, n, std):
    """Each of the N(M-1) intervals makes one probe_pair, two partial_power,
    one feedback_bit and one bisect_arc call, which the benchmark's counts
    (bisect_arc == intervals, probes == 2 * intervals) rely on."""
    s = random_scenario(np.random.default_rng(m), m)
    meas = (MeasurementModel(MODE_ADDITIVE_NOISE, std, np.random.default_rng(n))
            if std else MeasurementModel())
    counts = count_interval_calls(monkeypatch)
    run_protocol(s, n, meas)
    assert counts == interval_calls(n * (m - 1))


def test_repeated_probes_make_one_call_per_step(monkeypatch, rng):
    s, pa = two_transmitter_setup(rng)
    counts = count_interval_calls(monkeypatch)
    adapt_phase(s, pa, 1, 6, probe_repeats=3)
    assert counts == interval_calls(6)


@pytest.mark.parametrize("repeats", [1, 3])
def test_noisy_adapt_phase_makes_one_call_per_step(monkeypatch, rng, repeats):
    """The same per-interval calls where the stage's noise values come from
    adapt_phase's own draw, not run_protocol's."""
    s, pa = two_transmitter_setup(rng)
    meas = MeasurementModel(MODE_ADDITIVE_NOISE, 1e-6, np.random.default_rng(6))
    counts = count_interval_calls(monkeypatch)
    adapt_phase(s, pa, 1, 6, meas, probe_repeats=repeats)
    assert counts == interval_calls(6)


def _bits(x):
    """A value as comparable bits: each float by ``float.hex``, each array
    by its bytes, every type kept, so 0.0 differs from -0.0 and a Python
    float from a numpy one."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return type(x), tuple(_bits(v) for v in x)
    if isinstance(x, float):
        return type(x), float.hex(x)
    return type(x), x


@pytest.fixture
def fresh_tree(monkeypatch):
    """A new store of bisection-tree nodes for one test, built as at import."""
    tree = {}
    monkeypatch.setattr(adapt, "_TREE", tree)
    adapt._grow_tree(initial_arc(), 0)
    return tree


def test_tree_nodes_equal_plain_arithmetic(fresh_tree):
    """Every node two levels past the stored depth, both bits, gives the
    plain functions' probe pair and children. The store holds the nodes
    down to its depth, and walking it adds none."""
    level = [(initial_arc(), initial_arc())]    # (library node, oracle node)
    for depth in range(adapt._TREE_DEPTH + 3):
        children = []
        for node, ref in level:
            assert _bits(probe_pair(node)) == _bits(plain_probe_pair(ref)), depth
            for bit in (False, True):
                pair = bisect_arc(node, bit), plain_bisect_arc(ref, bit)
                assert _bits(pair[0]) == _bits(pair[1]), (depth, bit)
                children.append(pair)
        level = children
    assert len(fresh_tree) == 2 ** (adapt._TREE_DEPTH + 1) - 1
    assert min(a.half_width for a in fresh_tree) == math.pi / 2 ** adapt._TREE_DEPTH


_FRESH_INTERPRETER = """
import json, sys
import numpy as np
import distbeam
from distbeam import adapt, angles
from distbeam.channel import ScenarioDistribution, generate_scenario

nodes = len(adapt._TREE)
s, _ = generate_scenario(ScenarioDistribution(num_transmitters=5), np.random.default_rng(1))
calls = [0]
def counted(x, wrap=angles.wrap_angle):
    calls[0] += 1
    return wrap(x)
patched = sorted(name for name, mod in sys.modules.items() if name.startswith("distbeam")
                 and getattr(mod, "wrap_angle", None) is angles.wrap_angle)
for name in patched:
    sys.modules[name].wrap_angle = counted
counts = []
for _ in range(2):
    calls[0] = 0
    distbeam.run_protocol(s, 8)
    counts.append(calls[0])
print(json.dumps({"nodes": nodes, "counts": counts, "patched": patched}))
"""


def test_fresh_interpreter_imports_the_whole_tree():
    """Right after ``import distbeam`` the store holds all 511 nodes, so a
    process's first run does the same work as its second: equal
    ``wrap_angle`` counts, patched in every module that imports it."""
    src = str(Path(adapt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FRESH_INTERPRETER], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    got = json.loads(out)
    assert got["nodes"] == 2 ** (adapt._TREE_DEPTH + 1) - 1
    assert {"distbeam.adapt", "distbeam.protocol", "distbeam.power"} <= set(got["patched"])
    first, second = got["counts"]
    assert first == second > 0


def test_budgets_up_to_eight_stay_in_the_tree(monkeypatch, fresh_tree, rng):
    """The tree serves every probe and bisection of a run at N <= 8, the
    budget of every experiment default and benchmark workload."""
    s = random_scenario(rng, 5)

    def plain(*args):
        raise AssertionError("computed outside the stored tree")

    monkeypatch.setattr(adapt, "_probe_pair", plain)
    monkeypatch.setattr(adapt, "_bisect_arc", plain)
    for n in range(1, 9):
        run_protocol(s, n, MeasurementModel(MODE_ADDITIVE_NOISE, 1e-6, rng))


def test_caller_built_arcs_are_computed_not_stored(fresh_tree, rng):
    """10,000 arcs a caller builds, equal copies of stored nodes among them,
    give the plain functions' bits and leave the store as it was. A copy
    whose half-width is a numpy float keeps that type in its child."""
    before = dict(fresh_tree)
    nodes = list(fresh_tree)
    arcs = [Arc(rng.uniform(-4.0, 4.0), math.pi * 2.0 ** -rng.uniform(0.0, 45.0))
            for _ in range(9_000)]
    arcs += [Arc(-math.pi / 2, math.pi)]
    for k in range(999):
        arc = nodes[k % len(nodes)]
        arcs.append(Arc(*arc) if k % 2 else Arc(arc.center, np.float64(arc.half_width)))
    assert len(arcs) == 10_000
    for arc in arcs:
        assert _bits(probe_pair(arc)) == _bits(plain_probe_pair(arc)), arc
        for bit in (False, True):
            assert _bits(bisect_arc(arc, bit)) == _bits(plain_bisect_arc(arc, bit)), arc
    assert fresh_tree == before


def _meas(std, seed):
    return (MeasurementModel(MODE_ADDITIVE_NOISE, std, np.random.default_rng(seed))
            if std else MeasurementModel())


@pytest.mark.parametrize("m", [2, 5, 50])
def test_run_protocol_through_the_tree_matches_plain_stages(fresh_tree, m):
    """At budgets inside, at and past the stored depth, run_protocol equals
    the stage oracle with plain probes and bisections bit for bit,
    generator state included."""
    s = random_scenario(np.random.default_rng(3000 + m), m)
    for n, std in itertools.product((1, 8, adapt._TREE_DEPTH + 3), (0.0, 1e-6)):
        want_meas = _meas(std, n)
        want = per_stage_protocol(s, n, want_meas)
        meas = _meas(std, n)
        got = run_protocol(s, n, meas)
        where = (m, n, std)
        for name in ("final_phases", "q_d", "q_star", "eta", "target_phases", "errors",
                     "total_feedback_intervals"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), (where, name)
        for g, w in zip(got.traces, want.traces, strict=True):
            assert _bits(g.records) == _bits(w.records), where
            assert _bits([g.final_phase, g.target_phase, g.sum_gain]) == \
                _bits([w.final_phase, w.target_phase, w.sum_gain]), where
        if std:
            assert meas.rng.bit_generator.state == want_meas.rng.bit_generator.state, where


def test_feedback_bit_tie_resolution():
    assert feedback_bit(1.0, 1.0) is True
    assert feedback_bit(2.0, 1.0) is True
    assert feedback_bit(1.0, 2.0) is False


def two_transmitter_setup(rng):
    s = random_scenario(rng, 2)
    pa = PhaseAssignment(
        np.array([rng.uniform(-math.pi, math.pi), 0.0]),
        np.array([True, False]),
    )
    return s, pa


def test_adapt_error_bound_n5(rng):
    for _ in range(200):
        s, pa = two_transmitter_setup(rng)
        phi, trace = adapt_phase(s, pa, 1, 5)
        assert circular_distance(phi, trace.target_phase) <= math.pi / 32 + 1e-12


def test_adapt_error_bound_all_n(rng):
    """Worst-case error stays under pi/2^N, and the worst case over the
    instance set does not grow when N increases."""
    worst = []
    for n in range(1, 11):
        errs = []
        for _ in range(250):
            s, pa = two_transmitter_setup(rng)
            phi, trace = adapt_phase(s, pa, 1, n)
            errs.append(circular_distance(phi, trace.target_phase))
        assert max(errs) <= math.pi / 2**n + 1e-9
        worst.append(max(errs))
    assert all(worst[i + 1] <= worst[i] + 1e-12 for i in range(len(worst) - 1))


def test_adapt_target_matches_brute_force(rng):
    for _ in range(50):
        s, pa = two_transmitter_setup(rng)
        ss = sum_signal(s, pa)
        grid = np.linspace(-math.pi, math.pi, 720, endpoint=False)
        best = grid[np.argmax([partial_power(s, ss, 1, t) for t in grid])]
        phi, trace = adapt_phase(s, pa, 1, 10)
        # the bisection result and the brute-force argmax agree to grid width
        assert circular_distance(phi, best) <= 2 * math.pi / 720 + math.pi / 2**10


def test_adapt_with_no_other_signal(rng):
    s = random_scenario(rng, 2)
    pa = PhaseAssignment(np.zeros(2), np.zeros(2, dtype=bool))
    phi, trace = adapt_phase(s, pa, 1, 4)
    # power is flat in phase, so any outcome has the same value
    ss = sum_signal(s, pa)
    assert ss.gain == 0.0
    assert partial_power(s, ss, 1, phi) == pytest.approx(
        partial_power(s, ss, 1, 0.123), rel=1e-14
    )
    assert len(trace.records) == 4


def test_adapt_validation(rng):
    s, pa = two_transmitter_setup(rng)
    with pytest.raises(ValueError):
        adapt_phase(s, pa, 1, 0)
    bad = PhaseAssignment(np.zeros(2), np.ones(2, dtype=bool))
    with pytest.raises(ValueError):
        adapt_phase(s, bad, 1, 3)


def test_arcs_nest_and_halve(rng):
    for _ in range(100):
        s, pa = two_transmitter_setup(rng)
        _, trace = adapt_phase(s, pa, 1, 8)
        prev_center, prev_half = initial_arc().center, initial_arc().half_width
        for rec in trace.records:
            assert rec.arc_half_width == prev_half / 2
            # nested: center distance + new half-width within old half-width
            gap = circular_distance(rec.arc_center, prev_center)
            assert gap + rec.arc_half_width <= prev_half + 1e-12
            prev_center, prev_half = rec.arc_center, rec.arc_half_width


def test_target_contained_throughout(rng):
    for _ in range(200):
        s, pa = two_transmitter_setup(rng)
        _, trace = adapt_phase(s, pa, 1, 8)
        target = trace.target_phase
        for rec in trace.records:
            d = circular_distance(target, rec.arc_center)
            assert d <= rec.arc_half_width + 1e-9


def test_grid_oracle_on_full_runs(rng):
    for _ in range(20):
        s, pa = two_transmitter_setup(rng)
        _, trace = adapt_phase(s, pa, 1, 6)
        assert grid_oracle_violations(trace, grid_size=1440) == 0


def test_noisy_measurement_probe_averaging(rng):
    """Averaging repeated readings per probe recovers accuracy lost to
    measurement noise."""
    from distbeam import MeasurementModel
    from distbeam.power import MODE_ADDITIVE_NOISE

    errs = {1: [], 25: []}
    for trial in range(150):
        s, pa = two_transmitter_setup(rng)
        scale = float(np.mean(s.gains))
        for repeats in errs:
            meas = MeasurementModel(MODE_ADDITIVE_NOISE, 0.5 * scale,
                                    np.random.default_rng(trial))
            phi, trace = adapt_phase(s, pa, 1, 6, meas, probe_repeats=repeats)
            errs[repeats].append(circular_distance(phi, trace.target_phase))
    assert np.mean(errs[25]) < np.mean(errs[1])


def test_probe_repeats_validation(rng):
    s, pa = two_transmitter_setup(rng)
    with pytest.raises(ValueError):
        adapt_phase(s, pa, 1, 3, probe_repeats=0)


def test_trace_records_and_csv(rng):
    s, pa = two_transmitter_setup(rng)
    phi, trace = adapt_phase(s, pa, 1, 5)
    assert len(trace.records) == 5
    assert trace.final_phase == phi
    first = trace.records[0]
    assert (first.psi, first.psi_prime) == (0.0, -math.pi)
    csv = trace.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "n,psi,psi_prime,q_psi,q_psi_prime,bit,arc_center,arc_half_width"
    assert len(lines) == 6
    assert lines[1].startswith("1,")
    # interval powers: one value per record, the mean of the two probes
    powers = trace.interval_powers()
    assert len(powers) == 5
    assert powers[0] == pytest.approx(0.5 * (first.q_psi + first.q_psi_prime))
