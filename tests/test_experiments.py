import json
import math

import numpy as np
import pytest

import distbeam.power
import distbeam.protocol
from distbeam import efficiency_lower_bound, experiments, generate_scenario, run_protocol
from distbeam.experiments import (
    _DOMAIN,
    EXP_CONVERGENCE,
    EXP_EFFICIENCY,
    EXP_OVERHEAD,
    EXP_POWER,
    ExperimentConfig,
    config_from_mapping,
    config_hash,
    config_to_mapping,
    parse_config_text,
    rng_stream,
    run_experiment,
)

from conftest import per_run_efficiency, per_trial_overhead


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
    # a path-loss exponent this large underflows the farther links' gains
    # to 0, so sorting by gain meets ties
    cfgs.append(small_cfg(EXP_OVERHEAD, trials=8, m_list=(m,), n_adapt=5, budgets=(1, 5, 300),
                          count_training_energy=True, path_loss_exponent=UNDERFLOW_EXPONENT))
    want = [per_trial_overhead(cfg) for cfg in cfgs]
    _forbid_per_run_calls(monkeypatch)
    for cfg, rows in zip(cfgs, want):
        assert run_experiment(cfg).rows == rows, (cfg.n_adapt, cfg.count_training_energy)


#: Gains 1e-2 * d**-280 underflow to 0 beyond d ~ 14 of the default 5-15 m.
UNDERFLOW_EXPONENT = 280.0


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
    sums in blocks, and links whose gain underflows to 0."""
    n_list = tuple(range(1, 13)) + tuple(range(41, 46))
    cfgs = [small_cfg(EXP_EFFICIENCY, trials=12, m_list=(m,), n_list=n_list, seed=seed,
                      **extra)
            for seed, extra in ((12345, {}), (7, {}),
                                (5, {"path_loss_exponent": UNDERFLOW_EXPONENT}))]
    underflow = cfgs[-1]
    gains = np.array([generate_scenario(underflow.distribution(m),
                                        rng_stream(underflow.seed, _DOMAIN[EXP_EFFICIENCY],
                                                   m, t))[0].gains
                      for t in range(underflow.trials)])
    assert (gains == 0.0).any() and (gains > 0.0).any()
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
