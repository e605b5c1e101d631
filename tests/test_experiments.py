import dataclasses
import json
import math
import re

import numpy as np
import pytest

import distbeam.power
import distbeam.protocol
from distbeam import (
    PhaseAssignment,
    Scenario,
    efficiency_lower_bound,
    experiments,
    generate_scenario,
    harvested_power,
    optimal_power,
    run_protocol,
)
from distbeam.experiments import (
    _DOMAIN,
    EXP_CONVERGENCE,
    EXP_EFFICIENCY,
    EXP_OVERHEAD,
    EXP_POWER,
    Curve,
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    _mean_stderr,
    config_from_mapping,
    config_hash,
    config_to_mapping,
    parse_config_text,
    rng_stream,
    run_experiment,
)

from conftest import per_row_write, per_run_efficiency, per_trial_overhead


def small_cfg(experiment, **kw):
    return ExperimentConfig.defaults_for(experiment, **kw)


def test_defaults_per_experiment():
    eff = small_cfg(EXP_EFFICIENCY)
    assert eff.trials == 1000 and eff.m_list == (5, 10)
    over = small_cfg(EXP_OVERHEAD)
    assert over.trials == 5000 and over.n_adapt == 5
    power = small_cfg(EXP_POWER)
    assert power.m_list == tuple(range(2, 11))
    conv = small_cfg(EXP_CONVERGENCE)
    assert conv.m_list == (5, 7) and conv.intervals == 300
    # the bare constructor takes the same per-experiment defaults
    for exp in (EXP_EFFICIENCY, EXP_POWER, EXP_CONVERGENCE, EXP_OVERHEAD):
        assert ExperimentConfig(experiment=exp) == small_cfg(exp)
    assert ExperimentConfig(experiment=EXP_OVERHEAD).m_list == (5,)
    assert ExperimentConfig(experiment=EXP_POWER).n_list == (1, 2, 3, 5)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment=EXP_EFFICIENCY, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment=EXP_EFFICIENCY, n_list=())
    for workers in (0, -3):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment=EXP_EFFICIENCY, workers=workers)
    with pytest.raises(ValueError, match="one system size"):
        small_cfg(EXP_OVERHEAD, m_list=(5, 10))
    # a budget of 0 divided by zero and a negative one wrote a row
    for budgets in ((0, 5), (-5,), (10, -1)):
        with pytest.raises(ValueError, match="budgets must be >= 1"):
            small_cfg(EXP_OVERHEAD, budgets=budgets)
    for fields in (dict(n_list=(1, 0)), dict(n_list=(-2,)), dict(n_adapt=0), dict(n_adapt=-1)):
        with pytest.raises(ValueError, match="n_intervals must be >= 1"):
            small_cfg(EXP_POWER, **fields)


@pytest.mark.parametrize("name", ["n_list", "m_list", "budgets"])
def test_config_rejects_repeated_sweep_entries(name):
    """A repeated sweep point would repeat its rows; the error names the
    list and the value, from the constructor and from a config mapping."""
    values = {"n_list": (1, 2, 1), "m_list": (3, 3), "budgets": (5, 10, 20, 10)}[name]
    with pytest.raises(ValueError, match=f"{name} repeats {values[-1]}"):
        small_cfg(EXP_POWER, **{name: values})
    with pytest.raises(ValueError, match=f"{name} repeats {values[-1]}"):
        config_from_mapping({"experiment": EXP_POWER, name: ",".join(map(str, values))})
    distinct = tuple(dict.fromkeys(values))
    assert getattr(small_cfg(EXP_POWER, **{name: distinct}), name) == distinct


def test_parse_config_text():
    text = """
    # comment
    experiment = efficiency-vs-N
    trials = 12
    n_list = 1,2,3   # inline comment
    perturb_scale = 0.5
    count_training_energy = true
    """
    mapping = parse_config_text(text)
    cfg = config_from_mapping(mapping)
    assert cfg.experiment == EXP_EFFICIENCY
    assert cfg.trials == 12
    assert cfg.n_list == (1, 2, 3)
    assert cfg.perturb_scale == 0.5
    assert cfg.count_training_energy is True


def test_parse_config_booleans():
    """Only the usual spellings parse, in any case; anything else raises
    rather than reading as false."""
    for raw, flag in (("1", True), ("0", False), ("TRUE", True), ("False", False),
                      ("yes", True), ("No", False), (" on ", True), ("OFF", False)):
        cfg = config_from_mapping({"experiment": EXP_OVERHEAD, "count_training_energy": raw})
        assert cfg.count_training_energy is flag, raw
    for raw in ("ture", "", "2", "y", "enabled"):
        with pytest.raises(ValueError, match="count_training_energy"):
            config_from_mapping({"experiment": EXP_OVERHEAD, "count_training_energy": raw})


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config_text("just words\n")
    with pytest.raises(ValueError):
        config_from_mapping({"trials": "5"})
    with pytest.raises(ValueError):
        config_from_mapping({"experiment": EXP_EFFICIENCY, "bogus_key": "1"})
    # a value that does not parse names its key and the type it expects
    for key, raw, expected in (("trials", "1e3", "an integer"),
                               ("ref_attenuation", "big", "a number"),
                               ("n_list", "1,x", "comma-separated integers"),
                               ("count_training_energy", "ture",
                                "one of 1/0/true/false/yes/no/on/off")):
        with pytest.raises(ValueError, match=re.escape(f"{key} must be {expected}; got {raw!r}")):
            config_from_mapping({"experiment": EXP_EFFICIENCY, key: raw})


def test_every_config_field_round_trips_through_its_strings():
    """Every field set away from its default survives ``config_to_mapping``
    as strings and back, so each field's declared type has a parser; a new
    field fails here until it is given a value below."""
    values = dict(experiment=EXP_POWER, trials=3, seed=99, workers=2, out_dir="elsewhere",
                  n_list=(2, 3), m_list=(4, 6), budgets=(7, 9), intervals=11, n_adapt=3,
                  perturb_scale=0.25, count_training_energy=True, ref_attenuation=0.5,
                  ref_distance=2.0, path_loss_exponent=2.5, distance_min=3.0,
                  distance_max=4.5, transmit_power=2.0, conversion_eff=0.75)
    assert set(values) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg = ExperimentConfig(**values)
    default = ExperimentConfig(EXP_POWER)
    for name in set(values) - {"experiment"}:
        assert getattr(cfg, name) != getattr(default, name), name
    rebuilt = config_from_mapping({k: str(v) for k, v in config_to_mapping(cfg).items()})
    assert rebuilt == cfg
    for name in values:
        assert type(getattr(rebuilt, name)) is type(getattr(cfg, name)), name


def test_config_hash_stability_and_sensitivity():
    a = small_cfg(EXP_EFFICIENCY, trials=5)
    b = small_cfg(EXP_EFFICIENCY, trials=5)
    c = small_cfg(EXP_EFFICIENCY, trials=6)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    # hash covers the fully-resolved mapping
    mapping = config_to_mapping(a)
    rebuilt = config_from_mapping({k: str(v) for k, v in mapping.items()})
    assert config_hash(rebuilt) == config_hash(a)


def test_rng_stream_counter_derived():
    a = rng_stream(3, 1, 42)
    b = rng_stream(3, 1, 42)
    c = rng_stream(3, 1, 43)
    assert a.uniform() == b.uniform()
    assert a.uniform() != c.uniform()


def test_efficiency_experiment_small():
    cfg = small_cfg(EXP_EFFICIENCY, trials=25, m_list=(3, 5), n_list=(1, 2, 4))
    res = run_experiment(cfg)
    assert res.x_name == "N"
    names = res.curve_names()
    assert names == ["eta_M3", "bound_M3", "eta_M5", "bound_M5"]
    assert len(res.rows) == len(names) * 3
    for m in (3, 5):
        etas = {r.x: r.mean for r in res.curve(f"eta_M{m}")}
        bounds = {r.x: r.mean for r in res.curve(f"bound_M{m}")}
        for n in (1, 2, 4):
            assert 0.0 < etas[n] <= 1.0
            assert bounds[n] <= etas[n] + 1e-12
        assert etas[4] > etas[1]
    # every row averages exactly the scalar path's per-trial runs
    domain = _DOMAIN[EXP_EFFICIENCY]
    for m in (3, 5):
        dist = cfg.distribution(m)
        scens = [generate_scenario(dist, rng_stream(cfg.seed, domain, m, t))[0]
                 for t in range(cfg.trials)]
        for n in (1, 2, 4):
            for curve, values in (
                (f"eta_M{m}", [run_protocol(s, n).eta for s in scens]),
                (f"bound_M{m}", [efficiency_lower_bound(s, n) for s in scens]),
            ):
                v = np.array(values)
                (row,) = [r for r in res.curve(curve) if r.x == n]
                assert row.mean == float(np.mean(v)), (curve, n)
                assert row.stderr == float(np.std(v, ddof=1) / math.sqrt(v.size)), (curve, n)


def test_efficiency_experiment_worker_invariance():
    base = small_cfg(EXP_EFFICIENCY, trials=12, m_list=(4,), n_list=(1, 3))
    seq = run_experiment(base)
    par = run_experiment(small_cfg(EXP_EFFICIENCY, trials=12, m_list=(4,),
                                   n_list=(1, 3), workers=4))
    assert [(r.curve, r.x, r.mean, r.stderr) for r in seq.rows] == [
        (r.curve, r.x, r.mean, r.stderr) for r in par.rows
    ]


def test_power_vs_m_experiment():
    cfg = small_cfg(EXP_POWER, m_list=(2, 3, 4, 5), n_list=(1, 5))
    res = run_experiment(cfg)
    assert res.x_name == "M"
    names = res.curve_names()
    assert set(names) == {"adapted_N1", "adapted_N5", "no_adaptation", "optimal"}
    assert len(res.rows) == 4 * 4
    optimal = {r.x: r.mean for r in res.curve("optimal")}
    for name in names:
        for r in res.curve(name):
            assert r.mean <= optimal[r.x] * (1 + 1e-12)
    # a bigger per-stage budget cannot lose at the realized scenario level
    n1 = {r.x: r.mean for r in res.curve("adapted_N1")}
    n5 = {r.x: r.mean for r in res.curve("adapted_N5")}
    assert all(n5[m] >= n1[m] * (1 - 1e-9) for m in (2, 3, 4, 5))


def test_power_vs_m_rows_equal_per_size_calls():
    """Each power-vs-M point equals optimal_power, harvested_power at zero
    phases and run_protocol on the sliced realization, bit for bit; curves
    come in name order and rows in increasing M for any m_list order."""
    cfg = small_cfg(EXP_POWER, m_list=(12, 1, 3, 2), n_list=(9, 1, 4))
    res = run_experiment(cfg)
    assert res.curve_names() == ["adapted_N1", "adapted_N4", "adapted_N9",
                                 "no_adaptation", "optimal"]
    full, _ = generate_scenario(cfg.distribution(12), rng_stream(cfg.seed, _DOMAIN[EXP_POWER]))
    for m in (1, 2, 3, 12):
        s = Scenario.from_arrays(full.transmit_power, full.carrier_freq, full.conversion_eff,
                                 full.gains[:m], full.phase_shifts[:m])
        want = {"optimal": optimal_power(s),
                "no_adaptation": harvested_power(s, PhaseAssignment(np.zeros(m)))}
        for n in cfg.n_list:
            want[f"adapted_N{n}"] = want["optimal"] if m < 2 else run_protocol(s, n).q_d
        got = {r.curve: r.mean for r in res.rows if r.x == m}
        assert got == want, m
    for name in res.curve_names():
        assert [r.x for r in res.curve(name)] == [1, 2, 3, 12]


def test_result_rows_are_the_curves_in_order():
    """rows is every curve's rows, curve after curve; curve() gives one
    curve's rows (none for an unknown name) and curve_names() the order."""
    res = run_experiment(small_cfg(EXP_CONVERGENCE, m_list=(3, 4), intervals=7))
    names = [f"{c}_M{m}" for m in (3, 4) for c in ("proposed", "baseline", "optimal")]
    assert res.curve_names() == names
    assert res.rows == [r for name in names for r in res.curve(name)]
    assert [len(res.curve(name)) for name in names] == [7, 7, 1] * 2
    assert all(r.curve == name for name in names for r in res.curve(name))
    assert res.curve("baseline_M5") == []
    row = res.curve("proposed_M3")[0]
    assert row == ResultRow("proposed_M3", 1, row.mean, 0.0) and type(row.mean) is float


def test_write_matches_per_row_writer(tmp_path, monkeypatch):
    """Every file write produces, and the list of paths, equals the per-row
    writer's byte for byte: all four experiments, and hand-made curves whose
    x values are non-integral, integral floats or large, and whose columns
    hold 0.0 next to -0.0, NaNs of either sign, infinities, the smallest
    subnormal, 0.1 next to the float after it, and a run of 1,000 equal
    values."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    edges = np.array([0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 5e-324,
                      -5e-324, 0.1, np.nextafter(0.1, 1.0), 0.0, 0.1, -0.0, *[1.0 / 3.0] * 1000])
    results = [run_experiment(small_cfg(EXP_EFFICIENCY, trials=6, m_list=(3, 5), n_list=(2, 1))),
               run_experiment(small_cfg(EXP_POWER, m_list=(4, 2), n_list=(1, 3))),
               run_experiment(small_cfg(EXP_CONVERGENCE, m_list=(3,), intervals=40)),
               run_experiment(small_cfg(EXP_OVERHEAD, trials=20, budgets=(300, 1, 25))),
               ExperimentResult("handmade", "x", {
                   "a": Curve([0.5, 2.0, 1e17, -3, 10**16 + 1, np.int64(7)],
                              np.array([1.0 / 3.0, -1e-300, 0.1, math.pi, 2.0, 0.2]),
                              np.array([0.0, 1e300, 2.5e-9, 1.0, 0.0, 0.0])),
                   "b": Curve([1], np.array([2.0]), np.array([3.0])),
                   "edges": Curve(range(edges.size), edges, edges[::-1])},
                   {"note": "hand-made"})]
    for res in results:
        got = res.write(tmp_path / "new")
        want = per_row_write(res, tmp_path / "old")
        assert [p.relative_to(tmp_path / "new") for p in got] == \
            [p.relative_to(tmp_path / "old") for p in want]
        for a, b in zip(got, want):
            assert a.read_bytes() == b.read_bytes(), a.name


def test_row_views_keep_types_and_are_fresh():
    """For every experiment, curve() gives a fresh list of rows whose mean
    and stderr are Python floats and whose x keeps its sweep value's type."""
    results = [run_experiment(cfg) for cfg in (
        small_cfg(EXP_EFFICIENCY, trials=6, m_list=(3, 5), n_list=(2, 1)),
        small_cfg(EXP_POWER, m_list=(4, 2), n_list=(1, 3)),
        small_cfg(EXP_CONVERGENCE, m_list=(3,), intervals=40),
        small_cfg(EXP_OVERHEAD, trials=8, budgets=(300, 1, 25), count_training_energy=True))]
    for res in results:
        rows = res.rows
        for name in res.curve_names():
            view = res.curve(name)
            assert view and all(type(r.mean) is float and type(r.stderr) is float
                                and type(r.x) is int for r in view), name
            kept = list(view)
            view.clear()
            assert res.curve(name) == kept
        assert res.rows == rows


def test_power_vs_m_qualitative_shapes():
    """On the pinned realization the adapted curve grows with every added
    transmitter while the no-adaptation curve is not monotone (random
    channel phases interfere both ways)."""
    cfg = small_cfg(EXP_POWER)
    res = run_experiment(cfg)
    adapted = [r.mean for r in res.curve("adapted_N5")]
    assert all(b > a for a, b in zip(adapted, adapted[1:]))
    zero = [r.mean for r in res.curve("no_adaptation")]
    assert any(b < a for a, b in zip(zero, zero[1:]))


def test_convergence_experiment_staircase():
    cfg = small_cfg(EXP_CONVERGENCE, m_list=(5,), intervals=60)
    res = run_experiment(cfg)
    proposed = [r.mean for r in res.curve("proposed_M5")]
    assert len(proposed) == 60
    # training ends after n_adapt * (M - 1) = 20 intervals; flat afterwards
    tail = proposed[20:]
    assert max(tail) == pytest.approx(min(tail))
    baseline = [r.mean for r in res.curve("baseline_M5")]
    assert len(baseline) == 60
    assert all(b2 >= b1 for b1, b2 in zip(baseline, baseline[1:]))
    q_star = res.curve("optimal_M5")[0].mean
    assert tail[0] <= q_star
    assert tail[0] >= 0.95 * q_star


def test_overhead_experiment_structure():
    cfg = small_cfg(EXP_OVERHEAD, trials=40, budgets=(10, 25, 50, 300))
    res = run_experiment(cfg)
    names = res.curve_names()
    assert names == ["all_on", "drop_weakest_1", "drop_weakest_2",
                     "no_adaptation", "optimal"]
    assert len(res.rows) == 5 * 4
    allon = {r.x: r.mean for r in res.curve("all_on")}
    # training needs 20 intervals; with a 10-interval budget nothing is credited
    assert allon[10] == 0.0
    assert allon[300] > allon[50] > allon[25] > 0.0
    opt = {r.x: r.mean for r in res.curve("optimal")}
    assert allon[300] <= opt[300]


def test_overhead_policies_relative_to_m():
    """all_on keeps every transmitter on and the drop policies one and two
    fewer, for any M; a policy needs two transmitters left on."""
    small = run_experiment(small_cfg(EXP_OVERHEAD, trials=3, m_list=(2,), budgets=(10,)))
    assert small.curve_names() == ["all_on", "no_adaptation", "optimal"]
    three = run_experiment(small_cfg(EXP_OVERHEAD, trials=3, m_list=(3,), budgets=(10,)))
    assert three.curve_names() == ["all_on", "drop_weakest_1", "no_adaptation", "optimal"]
    # at M=7, N=5 all-on trains 30 intervals, drop_weakest_1 25: a budget
    # of exactly 30 credits nothing to all-on and something to the other
    res = run_experiment(small_cfg(EXP_OVERHEAD, trials=3, m_list=(7,), budgets=(30, 31)))
    allon = {r.x: r.mean for r in res.curve("all_on")}
    drop1 = {r.x: r.mean for r in res.curve("drop_weakest_1")}
    assert allon[30] == 0.0 < allon[31]
    assert drop1[30] > 0.0


@pytest.mark.parametrize("m", (2, 3, 5, 7))
def test_overhead_rows_equal_per_trial_runs(m, monkeypatch):
    """Every overhead row equals the per-trial run_protocol sweep's, with
    and without training credit, at budgets around each policy's training
    length t = n_adapt * (M_on - 1): short of it, at it, just past it, and
    n_adapt = 45 runs past the convergence floor. The experiment itself
    never calls run_protocol."""
    cfgs = []
    for n_adapt in (1, 5, 45):
        budgets = {1, 300}
        for m_on in range(max(2, m - 2), m + 1):
            t = n_adapt * (m_on - 1)
            budgets |= {t - 1, t, t + 1}
        for count in (False, True):
            cfgs.append(small_cfg(EXP_OVERHEAD, trials=8, m_list=(m,), n_adapt=n_adapt,
                                  budgets=tuple(sorted(b for b in budgets if b >= 1)),
                                  count_training_energy=count))
    # links at one distance have equal gains, so sorting by gain meets ties
    cfgs.append(small_cfg(EXP_OVERHEAD, trials=8, m_list=(m,), n_adapt=5, budgets=(1, 5, 300),
                          count_training_energy=True, distance_min=10.0, distance_max=10.0))
    # budgets out of order keep their given order
    cfgs.append(small_cfg(EXP_OVERHEAD, trials=8, m_list=(m,), budgets=(300, 1, 25),
                          count_training_energy=True))
    underflow = small_cfg(EXP_OVERHEAD, trials=8, m_list=(m,), n_adapt=5, budgets=(1, 5, 300),
                          count_training_energy=True, path_loss_exponent=UNDERFLOW_EXPONENT)
    with pytest.raises(ValueError, match=UNDERFLOW_ERROR):
        run_experiment(underflow)
    want = [per_trial_overhead(cfg) for cfg in cfgs]
    _forbid_per_run_calls(monkeypatch)
    for cfg, rows in zip(cfgs, want):
        assert run_experiment(cfg).rows == rows, (cfg.n_adapt, cfg.count_training_energy)


#: Gains 1e-2 * d**-280 underflow to 0 beyond d ~ 14 of the default 5-15 m,
#: and the others lie far below 2**-511, where a stage's sqrt(g_m * G)
#: underflowed (an efficiency below the bound); a gain error now.
UNDERFLOW_EXPONENT = 280.0
UNDERFLOW_ERROR = r"is nonzero but below 2\*\*-511"


def _forbid_per_run_calls(monkeypatch):
    """Make every per-run path a Monte Carlo experiment could take raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a Monte Carlo experiment made a per-run call")

    for module in (experiments, distbeam.power, distbeam.protocol):
        for name in ("run_protocol", "harvested_power", "optimal_power",
                     "efficiency_lower_bound"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("m", (2, 3, 5, 10, 50))
def test_efficiency_rows_equal_per_run_calls(m, monkeypatch):
    """Every efficiency-vs-N row equals the one from per-run harvested_power,
    optimal_power and efficiency_lower_bound calls, with none of those
    made: N 1-12 and past the convergence floor (41-45), M >= 8 where numpy
    sums in blocks, and equal gains. Links whose gain underflows towards 0
    are a gain error."""
    n_list = tuple(range(1, 13)) + tuple(range(41, 46))
    cfgs = [small_cfg(EXP_EFFICIENCY, trials=12, m_list=(m,), n_list=n_list, seed=seed,
                      **extra)
            for seed, extra in ((12345, {}), (7, {}),
                                (5, {"distance_min": 10.0, "distance_max": 10.0}))]
    # an n_list out of order keeps its given order
    cfgs.append(small_cfg(EXP_EFFICIENCY, trials=6, m_list=(m,), n_list=(2, 1)))
    underflow = small_cfg(EXP_EFFICIENCY, trials=12, m_list=(m,), n_list=n_list, seed=5,
                          path_loss_exponent=UNDERFLOW_EXPONENT)
    with pytest.raises(ValueError, match=UNDERFLOW_ERROR):
        run_experiment(underflow)
    want = [per_run_efficiency(cfg) for cfg in cfgs]
    _forbid_per_run_calls(monkeypatch)
    for cfg, rows in zip(cfgs, want):
        assert run_experiment(cfg).rows == rows, cfg.seed


def test_overhead_training_energy_flag():
    base = small_cfg(EXP_OVERHEAD, trials=25, budgets=(10, 25, 300))
    credit = small_cfg(EXP_OVERHEAD, trials=25, budgets=(10, 25, 300),
                       count_training_energy=True)
    res0 = run_experiment(base)
    res1 = run_experiment(credit)
    for name in ("all_on", "drop_weakest_1", "drop_weakest_2"):
        a = {r.x: r.mean for r in res0.curve(name)}
        b = {r.x: r.mean for r in res1.curve(name)}
        assert all(b[x] >= a[x] for x in a)
        assert b[10] > 0.0
    # the no-adaptation reference is unaffected by the accounting
    a = {r.x: r.mean for r in res0.curve("no_adaptation")}
    b = {r.x: r.mean for r in res1.curve("no_adaptation")}
    assert a == b


def test_write_outputs_and_metadata(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = small_cfg(EXP_EFFICIENCY, trials=4, m_list=(3,), n_list=(1, 2),
                    out_dir=str(tmp_path))
    res = run_experiment(cfg)
    written = res.write(cfg.out_dir)
    base = tmp_path / EXP_EFFICIENCY
    assert (base / "eta_M3.csv") in written
    assert (base / "metadata.json") in written
    header = (base / "eta_M3.csv").read_text().splitlines()[0]
    assert header == "N,mean,stderr"
    meta = json.loads((base / "metadata.json").read_text())
    assert meta["config_hash"] == config_hash(cfg)
    assert meta["timestamp"] == "2023-11-14T22:13:20+00:00"
    assert meta["trials"] == 4
    # re-parsing the recorded config reproduces the hash
    rebuilt = config_from_mapping(
        {k: str(meta[k]) for k in config_to_mapping(cfg)}
    )
    assert config_hash(rebuilt) == meta["config_hash"]


def test_all_emitted_means_finite_and_in_range():
    cfg = small_cfg(EXP_EFFICIENCY, trials=10, m_list=(5,), n_list=(1, 4, 8))
    res = run_experiment(cfg)
    for r in res.rows:
        assert math.isfinite(r.mean) and math.isfinite(r.stderr)
        if r.curve.startswith("eta"):
            assert 0.0 < r.mean <= 1.0


def test_mean_stderr_scales_by_powers_of_two_exactly(rng):
    """At ordinary magnitudes the result equals the unscaled numpy form bit
    for bit, and scaling the values by 2**k scales both outputs by 2**k,
    also where the unscaled squared deviations would overflow."""
    for scale in (1e-3, 1.0, 1e5):
        v = scale * rng.uniform(0.5, 1.5, 101)
        assert _mean_stderr(v) == (float(np.mean(v)),
                                   float(np.std(v, ddof=1) / math.sqrt(v.size)))
    v = rng.uniform(-1.0, 3.0, 64)
    mean, se = _mean_stderr(v)
    for k in (-900, -1, 1, 900):
        assert _mean_stderr(np.ldexp(v, k)) == (math.ldexp(mean, k), math.ldexp(se, k))
    assert _mean_stderr(np.array([1e308])) == (1e308, 0.0)
