import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import distbeam.power
import distbeam.protocol
from distbeam import (
    PhaseAssignment,
    Scenario,
    ScenarioDistribution,
    channel,
    efficiency_lower_bound,
    experiments,
    generate_scenario,
    harvested_power,
    optimal_power,
    run_protocol,
    streams,
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
    _mean_stderr,
    config_from_mapping,
    config_hash,
    config_to_mapping,
    parse_config_text,
    rng_stream,
    run_experiment,
)
from distbeam.power import TrialStack
from distbeam.streams import trial_stack

from conftest import (
    assert_curves_equal,
    per_row_write,
    per_run_efficiency,
    per_trial_overhead,
    per_trial_stack,
)


def small_cfg(experiment, **kw):
    return ExperimentConfig(experiment=experiment, **kw)


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


def test_rng_stream_rejects_a_negative_seed_and_aliases_no_seed():
    """A seed used to be masked to 63 bits, so -1 drew 2**63 - 1's stream and
    2**63 drew 0's. Seeds below 2**63 keep their streams bit for bit."""
    with pytest.raises(ValueError, match=re.escape("seed must be >= 0; got -1")):
        rng_stream(-1, 1)
    for seed in (0, 12345, 2**63 - 1):
        want = np.random.default_rng(np.random.SeedSequence([seed, 1, 7]))
        assert rng_stream(seed, 1, 7).bit_generator.state == want.bit_generator.state, seed
    for seed, other in ((2**63, 0), (2**64 - 1, 2**63 - 1)):
        assert rng_stream(seed, 1).uniform() != rng_stream(other, 1).uniform(), seed


@pytest.mark.parametrize("seed", [5.7, np.float64(7.9), 7.0, True, np.True_, "5", None])
def test_rng_stream_and_trial_stack_reject_a_non_integer_seed(seed):
    """A float seed used to be truncated (5.7 drew seed 5's stream) and True
    drew seed 1's; now it is a TypeError, in both stream functions."""
    dist = ScenarioDistribution(num_transmitters=2)
    for draw in (lambda: rng_stream(seed, 1), lambda: trial_stack(dist, seed, 1, trials=2)):
        with pytest.raises(TypeError, match=re.escape(f"seed must be an integer; got {seed!r}")):
            draw()


@pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), np.uint64(7)])
def test_rng_stream_and_trial_stack_take_a_numpy_integer_seed(seed):
    dist = ScenarioDistribution(num_transmitters=3)
    assert rng_stream(seed, 1, 2).uniform() == rng_stream(7, 1, 2).uniform()
    for got, want in zip(trial_stack(dist, seed, 1, trials=3), trial_stack(dist, 7, 1, trials=3)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("entry", [1.7, np.float64(2.0), 2.0, True, np.True_, "1", None])
def test_rng_stream_and_trial_stack_reject_a_non_integer_path_entry(entry):
    """trial_stack used to truncate a path entry: 1.7 and True drew path
    1's stack, np.float64(2.0) path 2's; rng_stream drew path 1's stream
    for True. Now each is the seed rule's TypeError, first or later in the
    path, in both stream functions."""
    dist = ScenarioDistribution(num_transmitters=3)
    message = re.escape(f"stream path entry must be an integer; got {entry!r}")
    for path in ((entry,), (1, entry)):
        for draw in (lambda: rng_stream(5, *path), lambda: trial_stack(dist, 5, *path, trials=2)):
            with pytest.raises(TypeError, match=message):
                draw()


@pytest.mark.parametrize("entry", [-1, np.int64(-1)])
def test_rng_stream_and_trial_stack_reject_a_negative_path_entry(entry):
    dist = ScenarioDistribution(num_transmitters=3)
    for path in ((entry,), (1, entry)):
        for draw in (lambda: rng_stream(5, *path), lambda: trial_stack(dist, 5, *path, trials=2)):
            with pytest.raises(ValueError, match=re.escape("stream path entry must be >= 0; "
                                                           "got -1")):
                draw()


@pytest.mark.parametrize("entry", [np.int64(2), np.uint32(2), np.uint64(2)])
def test_rng_stream_and_trial_stack_take_a_numpy_integer_path_entry(entry):
    dist = ScenarioDistribution(num_transmitters=3)
    assert rng_stream(5, 1, entry).uniform() == rng_stream(5, 1, 2).uniform()
    _assert_stacks_equal(trial_stack(dist, 5, 1, entry, trials=3),
                         trial_stack(dist, 5, 1, 2, trials=3))


#: Seeds of one, two and three 32-bit words, and 0
STREAM_SEEDS = (0, 1, 12345, 2**32 - 1, 2**32, 2**40 + 7, 2**63 - 1, 2**64 + 1)
#: Stream paths of one and two entries, and one entry of two words
STREAM_PATHS = ((4,), (1, 5), (1, 10), (1, 2**33))


def _assert_stacks_equal(got, want):
    for name, a, b in zip(TrialStack._fields, got, want):
        assert a.shape == b.shape and np.array_equal(a, b), name


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_stack_equals_the_per_trial_draws(seed):
    """trial_stack equals one rng_stream + generate_scenario per trial, bit
    for bit, for M from 1 to 50 and distance ranges that are not the
    default, a single point and int-valued. Trial 0 (entropy word [0])
    alone too."""
    dists = [ScenarioDistribution(num_transmitters=m) for m in (1, 2, 3, 5, 10, 17, 50)]
    dists += [ScenarioDistribution(num_transmitters=4, distance_range=r, path_loss_exponent=2.2)
              for r in ((0.5, 1e3), (10.0, 10.0), (3, 7))]
    for path in STREAM_PATHS:
        for dist in dists:
            _assert_stacks_equal(trial_stack(dist, seed, *path, trials=23),
                                 per_trial_stack(dist, seed, *path, trials=23))
        _assert_stacks_equal(trial_stack(dists[3], seed, *path, trials=1),
                             per_trial_stack(dists[3], seed, *path, trials=1))


@pytest.mark.parametrize("seed", [0, 12345, 2**40 + 7, 2**64 + 1])
@pytest.mark.parametrize("path", [(4,), (1, 5)])
def test_stream_arithmetic_pins_numpys_seeding_and_uniform(seed, path):
    """numpy's own behaviour, which trial_stack reproduces: NEP 19 keeps a
    bit generator's stream stable, not SeedSequence's hash or Generator's
    methods, and Generator.uniform's affine map depends on the C build
    (no fused multiply-add). So each is checked against the limb
    arithmetic on its own: generate_state, PCG64's raw outputs, and
    uniform draws of distances and then phases."""
    trials, n = 300, 2 * 50
    states = streams._seed_states([seed, *path], 0, trials)
    outputs = streams._pcg64_outputs(*states, n)
    for t in range(trials):
        seq = np.random.SeedSequence([seed, *path, t])
        assert [int(w[t]) for w in states] == seq.generate_state(4, np.uint64).tolist(), t
        if t % 10 == 0:
            assert outputs[t].tolist() == np.random.PCG64(seq).random_raw(n).tolist(), t
            for m, lo, hi in ((1, 5.0, 15.0), (50, 0.5, 1e3)):
                rng = np.random.default_rng(seq)
                for k, (a, b) in enumerate(((lo, hi), (-math.pi, math.pi))):
                    want = rng.uniform(a, b, size=m)
                    got = streams._uniforms(outputs[t, k * m:(k + 1) * m], a, b)
                    assert np.array_equal(got, want), (t, m, k)


def test_trial_stack_rejects_trial_indices_past_one_word():
    """A trial index of 2**32 has two entropy words, and the batched seeding
    takes one: the call raises before it allocates anything."""
    dist = ScenarioDistribution(num_transmitters=5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("trials must be in [1, 2**32 = "
                                                       "4294967296]")):
            trial_stack(dist, 1, 2, trials=2**32 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match=re.escape("got 0")):
        trial_stack(dist, 1, 2, trials=0)


#: Draws that fail the gain screen. The first three fail at trial 0: gains
#: below 2**-511, gain sums past 2**511 and a ``pow`` past the float range;
#: the next two first fail at trial 1, a faint gain and an overflowing
#: ``pow``. The sixth first fails at trial 3 with a faint gain, while trial
#: 34's ``pow`` overflows and makes every gain of the batch inf. The last
#: fails the screen in many rows yet passes the check.
SCREENED_DRAWS = (
    dict(num_transmitters=5, ref_attenuation=1e-160),
    dict(num_transmitters=5, ref_attenuation=1e306),
    dict(num_transmitters=5, ref_distance=1e300),
    dict(num_transmitters=1, ref_attenuation=1000 * 2.0**-511),
    dict(num_transmitters=5, ref_distance=5e103, ref_attenuation=1e-300),
    dict(num_transmitters=5, ref_attenuation=1e-300, ref_distance=2500.0,
         path_loss_exponent=100.0, distance_range=(0.1, 100.0)),
    dict(num_transmitters=5, ref_attenuation=7.5 * 2.0**510),
)


@pytest.mark.parametrize("kwargs", SCREENED_DRAWS)
def test_trial_stack_checks_screened_rows_as_generate_scenario(kwargs):
    """A row that fails the gain screen goes to _check_gains, in trial
    order, so trial_stack raises the message of the first scenario that
    generate_scenario rejects, or draws the stack when none is rejected."""
    dist = ScenarioDistribution(**kwargs)
    try:
        want = per_trial_stack(dist, 12345, 1, dist.num_transmitters, trials=40)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            trial_stack(dist, 12345, 1, dist.num_transmitters, trials=40)
    else:
        assert kwargs is SCREENED_DRAWS[-1]
        assert not channel._clears_screen(want.gains.min(axis=1), want.gains.max(axis=1),
                                          dist.num_transmitters).all()
        _assert_stacks_equal(trial_stack(dist, 12345, 1, dist.num_transmitters, trials=40), want)


@pytest.mark.parametrize("links", [1, 7, 16])
def test_trial_stack_equals_the_per_trial_draws_across_chunks(links, monkeypatch):
    """Drawn in chunks of ``links // M`` trials (at least one), the stack
    still equals the per-trial draws: chunks of one trial and of several,
    and a last chunk that is short."""
    monkeypatch.setattr(streams, "_CHUNK_LINKS", links)
    for m in (1, 3, 5):
        dist = ScenarioDistribution(num_transmitters=m)
        _assert_stacks_equal(trial_stack(dist, 12345, 1, m, trials=23),
                             per_trial_stack(dist, 12345, 1, m, trials=23))


@pytest.mark.parametrize("chunk_trials", [1, 2, 3])
@pytest.mark.parametrize("kwargs", SCREENED_DRAWS)
def test_trial_stack_checks_screened_rows_across_chunks(kwargs, chunk_trials, monkeypatch):
    """In chunks of one to three trials, the first rejected trial raises
    generate_scenario's message from a later chunk than trial 0's: a faint
    gain and an overflowing ``pow`` at trial 1, and a faint gain at trial
    3. The draw that passes the check still equals the per-trial stack."""
    dist = ScenarioDistribution(**kwargs)
    monkeypatch.setattr(streams, "_CHUNK_LINKS", chunk_trials * dist.num_transmitters)
    try:
        want = per_trial_stack(dist, 12345, 1, dist.num_transmitters, trials=40)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            trial_stack(dist, 12345, 1, dist.num_transmitters, trials=40)
    else:
        _assert_stacks_equal(trial_stack(dist, 12345, 1, dist.num_transmitters, trials=40), want)


def test_trial_stack_peak_excess_does_not_grow_with_trials(monkeypatch):
    """Drawn in chunks, trial_stack's traced peak exceeds its result by an
    amount that does not grow with the trial count: 20 and 79 chunks of
    512 trials give the same excess to within a quarter. Undrawn in chunks,
    the excess grew as ~150 bytes per trial-link."""
    monkeypatch.setattr(streams, "_CHUNK_LINKS", 2 ** 12)
    dist = ScenarioDistribution(num_transmitters=8)
    excess = []
    for trials in (10_000, 40_000):
        tracemalloc.start()
        try:
            stack = trial_stack(dist, 1, 2, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess.append(peak - sum(a.nbytes for a in stack))
    assert 0 < excess[1] < 1.25 * excess[0], excess


@pytest.mark.parametrize("key, value", [("trials", 5.7), ("n_list", (1, 2)),
                                        ("count_training_energy", True)])
def test_config_values_must_be_strings(key, value):
    """A non-string value raises a TypeError naming its key and value: 5.7
    trials built 5, and a tuple or a bool ended in an AttributeError."""
    with pytest.raises(TypeError, match=re.escape(f"{key} must be given as a string; "
                                                  f"got {value!r}")):
        config_from_mapping({"experiment": EXP_OVERHEAD, key: value})


@pytest.mark.parametrize("experiment", sorted(_DOMAIN))
def test_config_scenario_defaults_are_the_distributions(experiment):
    """ExperimentConfig's scenario fields default to ScenarioDistribution's."""
    cfg = ExperimentConfig(experiment=experiment)
    for m in (1, 5):
        assert cfg.distribution(m) == ScenarioDistribution(num_transmitters=m)


def test_efficiency_experiment_small():
    cfg = small_cfg(EXP_EFFICIENCY, trials=25, m_list=(3, 5), n_list=(1, 2, 4))
    res = run_experiment(cfg)
    assert res.x_name == "N"
    assert list(res.curves) == ["eta_M3", "bound_M3", "eta_M5", "bound_M5"]
    assert all(len(c.xs) == 3 for c in res.curves.values())
    means = {name: dict(zip(c.xs, c.means.tolist())) for name, c in res.curves.items()}
    for m in (3, 5):
        etas, bounds = means[f"eta_M{m}"], means[f"bound_M{m}"]
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
                xs, got_means, got_stderrs = res.curves[curve]
                j = xs.index(n)
                assert got_means[j] == float(np.mean(v)), (curve, n)
                assert got_stderrs[j] == float(np.std(v, ddof=1) / math.sqrt(v.size)), (curve, n)


def test_efficiency_experiment_worker_invariance():
    base = small_cfg(EXP_EFFICIENCY, trials=12, m_list=(4,), n_list=(1, 3))
    seq = run_experiment(base)
    par = run_experiment(small_cfg(EXP_EFFICIENCY, trials=12, m_list=(4,),
                                   n_list=(1, 3), workers=4))
    assert_curves_equal(par.curves, seq.curves)


def test_power_vs_m_experiment():
    cfg = small_cfg(EXP_POWER, m_list=(2, 3, 4, 5), n_list=(1, 5))
    res = run_experiment(cfg)
    assert res.x_name == "M"
    assert set(res.curves) == {"adapted_N1", "adapted_N5", "no_adaptation", "optimal"}
    assert all(len(c.xs) == 4 for c in res.curves.values())
    means = {name: dict(zip(c.xs, c.means.tolist())) for name, c in res.curves.items()}
    optimal = means["optimal"]
    for curve in means.values():
        for m, mean in curve.items():
            assert mean <= optimal[m] * (1 + 1e-12)
    # a bigger per-stage budget cannot lose at the realized scenario level
    n1, n5 = means["adapted_N1"], means["adapted_N5"]
    assert all(n5[m] >= n1[m] * (1 - 1e-9) for m in (2, 3, 4, 5))


def test_power_vs_m_rows_equal_per_size_calls():
    """Each power-vs-M point equals optimal_power, harvested_power at zero
    phases and run_protocol on the sliced realization, bit for bit; curves
    come in name order and rows in increasing M for any m_list order."""
    cfg = small_cfg(EXP_POWER, m_list=(12, 1, 3, 2), n_list=(9, 1, 4))
    res = run_experiment(cfg)
    assert list(res.curves) == ["adapted_N1", "adapted_N4", "adapted_N9",
                                "no_adaptation", "optimal"]
    full, _ = generate_scenario(cfg.distribution(12), rng_stream(cfg.seed, _DOMAIN[EXP_POWER]))
    for m in (1, 2, 3, 12):
        s = Scenario(full.transmit_power, full.carrier_freq, full.conversion_eff,
                     full.gains[:m], full.phase_shifts[:m])
        want = {"optimal": optimal_power(s),
                "no_adaptation": harvested_power(s, PhaseAssignment(np.zeros(m)))}
        for n in cfg.n_list:
            want[f"adapted_N{n}"] = want["optimal"] if m < 2 else run_protocol(s, n).q_d
        got = {name: c.means[c.xs.index(m)] for name, c in res.curves.items()}
        assert got == want, m
    for c in res.curves.values():
        assert c.xs == [1, 2, 3, 12]


def test_result_curves_come_in_emission_order():
    """curves maps each curve name, in the order the experiment emits them,
    to its columns: a trajectory's intervals from 1, standard errors 0, and
    the optimum's one point at the last interval."""
    res = run_experiment(small_cfg(EXP_CONVERGENCE, m_list=(3, 4), intervals=7))
    names = [f"{c}_M{m}" for m in (3, 4) for c in ("proposed", "baseline", "optimal")]
    assert list(res.curves) == names
    assert [len(res.curves[name].xs) for name in names] == [7, 7, 1] * 2
    assert list(res.curves["proposed_M3"].xs) == [1, 2, 3, 4, 5, 6, 7]
    assert tuple(res.curves["optimal_M4"].xs) == (7,)
    assert all(not c.stderrs.any() for c in res.curves.values())


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


def test_curve_columns_keep_types():
    """For every experiment, each curve's x values keep their sweep values'
    type, int, and its means and standard errors are 1-D float64 arrays,
    one entry per x."""
    results = [run_experiment(cfg) for cfg in (
        small_cfg(EXP_EFFICIENCY, trials=6, m_list=(3, 5), n_list=(2, 1)),
        small_cfg(EXP_POWER, m_list=(4, 2), n_list=(1, 3)),
        small_cfg(EXP_CONVERGENCE, m_list=(3,), intervals=40),
        small_cfg(EXP_OVERHEAD, trials=8, budgets=(300, 1, 25), count_training_energy=True))]
    for res in results:
        for name, (xs, means, stderrs) in res.curves.items():
            assert len(xs) and all(type(x) is int for x in xs), name
            for column in (means, stderrs):
                assert type(column) is np.ndarray and column.dtype == np.float64, name
                assert column.shape == (len(xs),), name


def test_power_vs_m_qualitative_shapes():
    """On the pinned realization the adapted curve grows with every added
    transmitter while the no-adaptation curve is not monotone (random
    channel phases interfere both ways)."""
    cfg = small_cfg(EXP_POWER)
    res = run_experiment(cfg)
    adapted = res.curves["adapted_N5"].means.tolist()
    assert all(b > a for a, b in zip(adapted, adapted[1:]))
    zero = res.curves["no_adaptation"].means.tolist()
    assert any(b < a for a, b in zip(zero, zero[1:]))


def test_convergence_experiment_staircase():
    cfg = small_cfg(EXP_CONVERGENCE, m_list=(5,), intervals=60)
    res = run_experiment(cfg)
    proposed = res.curves["proposed_M5"].means.tolist()
    assert len(proposed) == 60
    # training ends after n_adapt * (M - 1) = 20 intervals; flat afterwards
    tail = proposed[20:]
    assert max(tail) == pytest.approx(min(tail))
    baseline = res.curves["baseline_M5"].means.tolist()
    assert len(baseline) == 60
    assert all(b2 >= b1 for b1, b2 in zip(baseline, baseline[1:]))
    (q_star,) = res.curves["optimal_M5"].means.tolist()
    assert tail[0] <= q_star
    assert tail[0] >= 0.95 * q_star


def test_overhead_experiment_structure():
    cfg = small_cfg(EXP_OVERHEAD, trials=40, budgets=(10, 25, 50, 300))
    res = run_experiment(cfg)
    assert list(res.curves) == ["all_on", "drop_weakest_1", "drop_weakest_2",
                                "no_adaptation", "optimal"]
    assert all(len(c.xs) == 4 for c in res.curves.values())
    means = {name: dict(zip(c.xs, c.means.tolist())) for name, c in res.curves.items()}
    allon = means["all_on"]
    # training needs 20 intervals; with a 10-interval budget nothing is credited
    assert allon[10] == 0.0
    assert allon[300] > allon[50] > allon[25] > 0.0
    opt = means["optimal"]
    assert allon[300] <= opt[300]


def test_overhead_policies_relative_to_m():
    """all_on keeps every transmitter on and the drop policies one and two
    fewer, for any M; a policy needs two transmitters left on."""
    small = run_experiment(small_cfg(EXP_OVERHEAD, trials=3, m_list=(2,), budgets=(10,)))
    assert list(small.curves) == ["all_on", "no_adaptation", "optimal"]
    three = run_experiment(small_cfg(EXP_OVERHEAD, trials=3, m_list=(3,), budgets=(10,)))
    assert list(three.curves) == ["all_on", "drop_weakest_1", "no_adaptation", "optimal"]
    # at M=7, N=5 all-on trains 30 intervals, drop_weakest_1 25: a budget
    # of exactly 30 credits nothing to all-on and something to the other
    res = run_experiment(small_cfg(EXP_OVERHEAD, trials=3, m_list=(7,), budgets=(30, 31)))
    means = {name: dict(zip(c.xs, c.means.tolist())) for name, c in res.curves.items()}
    allon, drop1 = means["all_on"], means["drop_weakest_1"]
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
    for cfg, curves in zip(cfgs, want):
        assert_curves_equal(run_experiment(cfg).curves, curves)


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
    for cfg, curves in zip(cfgs, want):
        assert_curves_equal(run_experiment(cfg).curves, curves)


def test_overhead_training_energy_flag():
    base = small_cfg(EXP_OVERHEAD, trials=25, budgets=(10, 25, 300))
    credit = small_cfg(EXP_OVERHEAD, trials=25, budgets=(10, 25, 300),
                       count_training_energy=True)
    res0 = run_experiment(base)
    res1 = run_experiment(credit)
    means0, means1 = ({name: dict(zip(c.xs, c.means.tolist())) for name, c in res.curves.items()}
                      for res in (res0, res1))
    for name in ("all_on", "drop_weakest_1", "drop_weakest_2"):
        a, b = means0[name], means1[name]
        assert all(b[x] >= a[x] for x in a)
        assert b[10] > 0.0
    # the no-adaptation reference is unaffected by the accounting
    assert means0["no_adaptation"] == means1["no_adaptation"]


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
    for name, (_, means, stderrs) in res.curves.items():
        assert np.isfinite(means).all() and np.isfinite(stderrs).all()
        if name.startswith("eta"):
            assert ((0.0 < means) & (means <= 1.0)).all()


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
