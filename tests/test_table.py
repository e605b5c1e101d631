import itertools
import math

import numpy as np

from distbeam import (
    MeasurementModel,
    PerturbationConfig,
    PhaseAssignment,
    adapt_phase,
    run_random_perturbation,
)
from distbeam.baseline import DIST_GAUSSIAN, DIST_UNIFORM
from distbeam.experiments import Curve, ExperimentResult
from distbeam.power import MODE_ADDITIVE_NOISE
from distbeam.table import csv_text

from conftest import per_row_baseline_csv, per_row_trace_csv, per_row_write, random_scenario


def test_csv_text_rules():
    """A float64 array prints .15g, -0.0 and an integral 1e17 included; any
    other column prints ints exactly (past int64 too), bools as 0 or 1 and
    integer-valued floats as ints."""
    text = csv_text("x,y", [10**30, 2.0, 1e17, True, np.False_, 0.5, -0.0],
                    np.array([1e17, -0.0, 0.0, 1.0 / 3.0, math.inf, math.nan, 2.0]))
    assert text.splitlines() == ["x,y", "1000000000000000000000000000000,1e+17", "2,-0",
                                 "100000000000000000,0", "1,0.333333333333333", "0,inf",
                                 "0.5,nan", "0,2"]
    assert csv_text("a,b") == "a,b\n"


def _meas(std: float, seed: int) -> MeasurementModel:
    return (MeasurementModel(MODE_ADDITIVE_NOISE, std, np.random.default_rng(seed))
            if std else MeasurementModel())


def test_trace_csv_matches_per_row_writer():
    """TrainingTrace.to_csv equals the per-interval writer byte for byte:
    exact and noisy stages, noise of 1.0 W that clamps about half the
    readings at 0.0, and budgets past interval 43, where the stage fills
    its columns at once."""
    rng = np.random.default_rng(21)
    for m, n, std in itertools.product((2, 5), (5, 60), (0.0, 1e-6, 1.0)):
        s = random_scenario(rng, m)
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, m), np.arange(m) < m - 1)
        _, trace = adapt_phase(s, pa, m - 1, n, _meas(std, n))
        if std == 1.0:
            assert 0.0 in trace.q_psi + trace.q_psi_prime
        assert trace.to_csv() == per_row_trace_csv(trace), (m, n, std)


def test_baseline_csv_matches_per_row_writer():
    """BaselineTrace.to_csv equals the per-interval writer byte for byte,
    for both perturbation laws, exact and noisy."""
    s = random_scenario(np.random.default_rng(22), 5)
    for dist, std in itertools.product((DIST_UNIFORM, DIST_GAUSSIAN), (0.0, 1e-5)):
        cfg = PerturbationConfig(distribution=dist, max_intervals=200)
        trace = run_random_perturbation(s, cfg, _meas(std, 5), rng=np.random.default_rng(6))
        assert trace.to_csv() == per_row_baseline_csv(trace), (dist, std)


def test_float_columns_match_the_per_row_writer(tmp_path):
    """A float64 column is formatted once per run of equal bit patterns,
    and a ``range`` column by ``str``; the files equal the per-row writer's
    byte for byte. Columns: runs of one, two and many values, 0.0 next to
    -0.0, NaNs of either sign side by side, infinities, empty and one-value
    columns, and the 8-row columns of an efficiency sweep."""
    nan = np.copysign(np.nan, -1.0)
    steps = np.repeat([0.25, 1.0 / 3.0, 0.25, -0.0, 0.0, 7e-310], [1, 2, 500, 3, 1, 4])
    edges = np.array([0.0, -0.0, 0.0, -0.0, np.nan, nan, nan, np.nan, np.inf, np.inf, -np.inf])
    eta = np.array([0.6603, 0.9934, 0.99870, 0.99968, 0.99992, 0.999980, 0.999995, 0.9999988])
    result = ExperimentResult("columns", "x", {
        "steps": Curve(range(1, steps.size + 1), steps, steps[::-1]),
        "edges": Curve(range(edges.size), edges, edges[::-1]),
        "empty": Curve(range(0), np.array([]), np.array([])),
        "one": Curve(range(5, 6), np.array([0.1]), np.array([-0.0])),
        "eight": Curve(list(range(1, 9)), eta, np.sqrt(eta * (1.0 - eta) / 1000.0)),
    }, {})
    got = result.write(tmp_path / "new")
    want = per_row_write(result, tmp_path / "old")
    for a, b in zip(got, want, strict=True):
        assert a.read_bytes() == b.read_bytes(), a.name
