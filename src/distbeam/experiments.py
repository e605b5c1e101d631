"""Seeded Monte Carlo experiment drivers and CSV/metadata emission.

Each experiment sweeps a parameter, averages over independent trials and
emits one CSV file per curve plus a JSON run record. Trial randomness is
counter-derived (one stream per trial index, :mod:`distbeam.streams`; the
Monte Carlo experiments draw a sweep point's trials in one
:func:`~distbeam.streams.trial_stack` call) and trials run in order in
the calling thread, so results are byte-identical across runs. The
``workers`` setting is validated and recorded but does not change how
trials run, so it cannot change a result either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .baseline import DEFAULT_SCALE, PerturbationConfig, run_random_perturbation
from .channel import Scenario, ScenarioDistribution, generate_scenario
from .power import (
    PhaseAssignment,
    TrialStack,
    checked_optima,
    harvested_power,
    harvested_powers,
    optimal_power,
    optimal_powers,
)
from .protocol import efficiency_lower_bounds, exact_phases, exact_runs, run_protocol
from .streams import rng_stream, trial_stack

EXP_EFFICIENCY = "efficiency-vs-N"
EXP_POWER = "power-vs-M"
EXP_CONVERGENCE = "convergence-comparison"
EXP_OVERHEAD = "overhead-tradeoff"

# stream-domain tags keeping the experiments' random draws disjoint
_DOMAIN = {
    EXP_EFFICIENCY: 1,
    EXP_POWER: 2,
    EXP_CONVERGENCE: 3,
    EXP_OVERHEAD: 4,
}

_N_LIST = (1, 2, 3, 4, 5, 6, 7, 8)

# per-experiment defaults of the sweep fields ExperimentConfig leaves at None
_SWEEP_DEFAULTS = {
    EXP_EFFICIENCY: dict(trials=1000, m_list=(5, 10), n_list=_N_LIST),
    EXP_POWER: dict(trials=1, m_list=tuple(range(2, 11)), n_list=(1, 2, 3, 5)),
    EXP_CONVERGENCE: dict(trials=1, m_list=(5, 7), n_list=_N_LIST),
    EXP_OVERHEAD: dict(trials=5000, m_list=(5,), n_list=_N_LIST),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on; hashable to a run fingerprint."""

    experiment: str
    # None takes the experiment's own default from _SWEEP_DEFAULTS
    trials: int | None = None
    seed: int = 12345
    workers: int = 1
    out_dir: str = "out"
    n_list: tuple[int, ...] | None = None
    m_list: tuple[int, ...] | None = None
    budgets: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100, 150, 200, 300)
    intervals: int = PerturbationConfig.max_intervals
    n_adapt: int = 5
    perturb_scale: float = DEFAULT_SCALE
    # whether probe transmissions during training count as harvested energy
    # in the overhead averages; the receiver is busy measuring, so not by default
    count_training_energy: bool = False
    # the scenario family, at ScenarioDistribution's defaults
    ref_attenuation: float = ScenarioDistribution.ref_attenuation
    ref_distance: float = ScenarioDistribution.ref_distance
    path_loss_exponent: float = ScenarioDistribution.path_loss_exponent
    distance_min: float = ScenarioDistribution.distance_range[0]
    distance_max: float = ScenarioDistribution.distance_range[1]
    transmit_power: float = ScenarioDistribution.transmit_power
    conversion_eff: float = ScenarioDistribution.conversion_eff

    def __post_init__(self):
        if self.experiment not in _DOMAIN:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name, value in _SWEEP_DEFAULTS[self.experiment].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.n_list or not self.m_list or not self.budgets:
            raise ValueError("sweep lists must be non-empty")
        if min(self.budgets) < 1:
            raise ValueError(f"budgets must be >= 1; got {min(self.budgets)}")
        for name, n in (("n_list", min(self.n_list)), ("n_adapt", self.n_adapt)):
            if n < 1:
                raise ValueError(f"n_intervals must be >= 1; got {name} {n}")
        # the baseline's rules, under this config's names, for every experiment
        for name, rule in (("intervals", "max_intervals"), ("perturb_scale", "scale")):
            try:
                PerturbationConfig(**{rule: getattr(self, name)})
            except ValueError as exc:
                raise ValueError(f"{name} {getattr(self, name)}: {exc}") from None
        for name in ("n_list", "m_list", "budgets"):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} repeats {repeated[0]}: each sweep point must be "
                                 f"distinct; got {','.join(map(str, values))}")
        if self.experiment == EXP_OVERHEAD and len(self.m_list) > 1:
            raise ValueError(f"{EXP_OVERHEAD} runs one system size; got m_list "
                             f"{','.join(map(str, self.m_list))}")

    @classmethod
    def defaults_for(cls, experiment: str, **overrides) -> "ExperimentConfig":
        """Same as ``ExperimentConfig(experiment=experiment, **overrides)``."""
        return cls(experiment=experiment, **overrides)

    def distribution(self, num_transmitters: int) -> ScenarioDistribution:
        return ScenarioDistribution(
            num_transmitters=num_transmitters,
            ref_attenuation=self.ref_attenuation,
            ref_distance=self.ref_distance,
            path_loss_exponent=self.path_loss_exponent,
            distance_range=(self.distance_min, self.distance_max),
            transmit_power=self.transmit_power,
            conversion_eff=self.conversion_eff,
        )


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        out[f.name] = val
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    """Fingerprint of the fully-resolved configuration."""
    mapping = config_to_mapping(cfg)
    canon = "\n".join(f"{k}={_canon_value(mapping[k])}" for k in sorted(mapping))
    return hashlib.sha256(canon.encode()).hexdigest()


def _canon_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def parse_config_text(text: str) -> dict:
    """Parse the flat key=value config format ('#' starts a comment)."""
    mapping, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in mapping:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {lines[key]}: "
                             f"each key may appear once")
        mapping[key], lines[key] = val, lineno
    return mapping


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from string-valued keys, applying per-experiment defaults."""
    if "experiment" not in mapping:
        raise ValueError("config requires an 'experiment' key")
    kwargs = {}
    types = {f.name: f.type.removesuffix(" | None")
             for f in dataclasses.fields(ExperimentConfig)}
    for key, raw in mapping.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = _parse_value(key, types[key], raw)
    return ExperimentConfig(**kwargs)


_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}

#: Parser of a config value and what the value must be, by declared type
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
    "bool": (lambda raw: _WORDS[raw.strip().lower()], "one of 1/0/true/false/yes/no/on/off"),
    "tuple[int, ...]": (lambda raw: tuple(int(v) for v in raw.split(",") if v.strip()),
                        "comma-separated integers"),
}


def _parse_value(key: str, type_name: str, raw: str):
    """``raw`` parsed as the declared type of field ``key``, less a sweep
    field's "| None". ``raw`` must be a string, as a config file's value is."""
    if not isinstance(raw, str):
        raise TypeError(f"{key} must be given as a string; got {raw!r}")
    parse, expected = _PARSERS[type_name]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ValueError(f"{key} must be {expected}; got {raw!r}") from None


class Curve(NamedTuple):
    """One curve as three columns: the x values exactly as given (ints stay
    ints) and float64 arrays of the means and standard errors at them."""

    xs: Sequence
    means: np.ndarray
    stderrs: np.ndarray


@dataclass
class ExperimentResult:
    """Tabular sweep output plus the run record that reproduces it.

    ``curves`` maps each curve name to its :class:`Curve`, curves in
    emission order.
    """

    experiment: str
    x_name: str
    curves: dict[str, Curve]
    metadata: dict

    def write(self, out_dir: str | Path) -> list[Path]:
        """Write <out>/<experiment>/<curve>.csv files plus metadata.json.

        Each column is formatted once: x through ``_fmt``, the means and
        standard errors through :func:`_fmt_column`, so a value that repeats
        (a step-function trajectory, a constant 0 standard error) is
        formatted once per curve, not once per row.
        """
        base = Path(out_dir) / self.experiment
        base.mkdir(parents=True, exist_ok=True)
        written = []
        for name, (xs, means, stderrs) in self.curves.items():
            path = base / f"{name}.csv"
            columns = zip([_fmt(x) for x in xs], _fmt_column(means), _fmt_column(stderrs))
            with open(path, "w") as fh:
                fh.write(f"{self.x_name},mean,stderr\n"
                         + "".join([f"{x},{mean},{se}\n" for x, mean, se in columns]))
            written.append(path)
        meta_path = base / "metadata.json"
        with open(meta_path, "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(meta_path)
        return written


def _fmt(x) -> str:
    if type(x) is int:
        return str(x)
    if float(x).is_integer():
        return str(int(x))
    return format(float(x), ".15g")


def _fmt_column(values: np.ndarray) -> list[str]:
    """``.15g`` of each float64 value, formatted once per distinct bit
    pattern. Keyed on bits, not on float equality, so 0.0 and -0.0, equal
    as floats, keep their own strings. A dict rather than ``np.unique``:
    the first int64 sort in a process adds ~0.5 MB of peak RSS."""
    text = {}
    return [text[b] if b in text else text.setdefault(b, format(v, ".15g"))
            for b, v in zip(values.view(np.int64).tolist(), values.tolist())]


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        dt = datetime.now(tz=timezone.utc)
    return dt.isoformat()


def _metadata(cfg: ExperimentConfig) -> dict:
    meta = dict(config_to_mapping(cfg))
    meta["config_hash"] = config_hash(cfg)
    meta["timestamp"] = _timestamp()
    meta["version"] = __version__
    return meta


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the mean.

    Both are taken of the values scaled by the power of two that puts the
    largest magnitude in [0.5, 1), then scaled back, so squared deviations
    cannot overflow. Power-of-two scaling is exact for normal numbers.
    """
    _, e = math.frexp(float(np.max(np.abs(values))))
    unit = np.ldexp(values, -e)
    mean = math.ldexp(float(np.mean(unit)), e)
    if values.size < 2:
        return mean, 0.0
    return mean, math.ldexp(float(np.std(unit, ddof=1) / math.sqrt(values.size)), e)


def _averaged(xs, table: np.ndarray) -> Curve:
    """One point per column of ``table`` (trials by len(xs)): the column's
    mean and standard error at its x."""
    means, stderrs = zip(*[_mean_stderr(table[:, j]) for j in range(len(xs))])
    return Curve(xs, np.array(means), np.array(stderrs))


def _single_run(xs, values) -> Curve:
    """One single-run value per x, each with standard error 0."""
    return Curve(xs, np.asarray(values, dtype=np.float64), np.zeros(len(xs)))


def run_efficiency_vs_n(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean efficiency and its closed-form lower bound versus the per-stage
    feedback budget, one curve pair per system size.

    Each system size stacks its trials once, takes every Q* and bound from
    the stack, and runs the exact protocol for all trials at once through
    :func:`exact_phases` per budget; the delivered powers come from the
    stacked phases. Each value equals the per-run one bit for bit.
    """
    domain = _DOMAIN[cfg.experiment]
    curves = {}
    for m in cfg.m_list:
        dist = cfg.distribution(m)
        stack = trial_stack(dist, cfg.seed, domain, m, trials=cfg.trials)
        q_star = optimal_powers(stack)
        etas = np.zeros((cfg.trials, len(cfg.n_list)))
        for j, n in enumerate(cfg.n_list):
            etas[:, j] = harvested_powers(stack, exact_phases(stack, n)) / q_star
        bounds = efficiency_lower_bounds(stack, cfg.n_list)
        curves[f"eta_M{m}"] = _averaged(cfg.n_list, etas)
        curves[f"bound_M{m}"] = _averaged(cfg.n_list, bounds)
    return ExperimentResult(cfg.experiment, "N", curves, _metadata(cfg))


def _optima(scenarios: list[Scenario], m_list) -> list[float]:
    """:func:`optimal_power` of one scenario per system size, checked by
    :func:`checked_optima` before any run divides by it."""
    return checked_optima(np.array([optimal_power(s) for s in scenarios]),
                          np.array([s.power_scale for s in scenarios]),
                          [f"M = {m}" for m in m_list]).tolist()


def run_power_vs_m(cfg: ExperimentConfig) -> ExperimentResult:
    """Delivered power versus system size on one pinned realization, with
    the no-adaptation and optimal references."""
    domain = _DOMAIN[cfg.experiment]
    full, _ = generate_scenario(cfg.distribution(max(cfg.m_list)), rng_stream(cfg.seed, domain))
    scens = [Scenario(full.transmit_power, full.carrier_freq, full.conversion_eff,
                      full.gains[:m], full.phase_shifts[:m]) for m in cfg.m_list]
    columns = {}
    for m, scen, q_star in sorted(zip(cfg.m_list, scens, _optima(scens, cfg.m_list)),
                                  key=lambda t: t[0]):
        zero = harvested_power(scen, PhaseAssignment(np.zeros(m)))
        points = [("optimal", q_star), ("no_adaptation", zero)]
        points += [(f"adapted_N{n}", q_star if m < 2 else run_protocol(scen, n).q_d)
                   for n in cfg.n_list]
        for name, q in points:
            columns.setdefault(name, []).append(q)
    curves = {name: _single_run(sorted(cfg.m_list), columns[name])
              for name in sorted(columns)}
    return ExperimentResult(cfg.experiment, "M", curves, _metadata(cfg))


def protocol_trajectory(res, total_intervals: int) -> np.ndarray:
    """Per-interval received power of a protocol run: the two probe powers
    averaged while a stage trains, then the delivered power once done."""
    parts = [tr.interval_powers() for tr in res.traces]
    traj = np.concatenate(parts) if parts else np.zeros(0)
    if total_intervals > traj.size:
        tail = np.full(total_intervals - traj.size, res.q_d)
        traj = np.concatenate([traj, tail])
    return traj[:total_intervals]


def run_convergence_comparison(cfg: ExperimentConfig) -> ExperimentResult:
    """Power trajectories of the sequential protocol and the perturbation
    baseline on one pinned realization per system size."""
    domain = _DOMAIN[cfg.experiment]
    scens = [generate_scenario(cfg.distribution(m), rng_stream(cfg.seed, domain, m))[0]
             for m in cfg.m_list]
    curves = {}
    for m, scen, q_star in zip(cfg.m_list, scens, _optima(scens, cfg.m_list)):
        proposed = protocol_trajectory(run_protocol(scen, cfg.n_adapt), cfg.intervals)
        pert = PerturbationConfig(scale=cfg.perturb_scale,
                                  max_intervals=cfg.intervals)
        trace = run_random_perturbation(
            scen, pert, rng=rng_stream(cfg.seed, domain, m, 1)
        )
        for name, powers in ((f"proposed_M{m}", proposed), (f"baseline_M{m}", trace.best_power)):
            curves[name] = _single_run(range(1, powers.size + 1), powers)
        curves[f"optimal_M{m}"] = _single_run((cfg.intervals,), [q_star])
    meta = _metadata(cfg)
    # one feedback bit per interval for both schemes; the sequential
    # protocol transmits two probes per interval, the baseline one
    meta["probes_per_interval"] = {"proposed": 2, "baseline": 1}
    return ExperimentResult(cfg.experiment, "interval", curves, meta)


#: Fig-8-style policies: number of weakest transmitters switched off, by
#: curve. A policy runs only if it leaves at least two transmitters on.
OVERHEAD_POLICIES = (
    ("all_on", 0),
    ("drop_weakest_1", 1),
    ("drop_weakest_2", 2),
)


def run_overhead_tradeoff(cfg: ExperimentConfig) -> ExperimentResult:
    """Average power per interval versus the total interval budget, for
    policies that switch off the weakest transmitters to shorten training.

    Each budget splits into a training prefix and an energy-delivery
    remainder. Probe transmissions during training deliver energy only when
    ``count_training_energy`` is set; by default the receiver spends those
    intervals measuring, so a budget shorter than the training phase
    averages to the truncated (training-only) credit.

    Each policy runs the gain-sorted stack of all trials at once through
    :func:`exact_runs`, whose interval powers are the training credit.
    """
    domain = _DOMAIN[cfg.experiment]
    (m,) = cfg.m_list
    dist = cfg.distribution(m)
    stack = trial_stack(dist, cfg.seed, domain, trials=cfg.trials)
    order = np.argsort(-stack.gains, axis=1)
    gains, shifts = (np.take_along_axis(a, order, axis=1)
                     for a in (stack.gains, stack.phase_shifts))
    # Q* first: the runs below overflow where it does, and it checks them
    q_star = optimal_powers(stack)
    budgets = np.array(cfg.budgets)
    # a budget's energy, and a sum of two probe powers, reach budget * 2 * Q*
    limit = sys.float_info.max / (2 * budgets.max())
    over = np.flatnonzero(q_star > limit)
    if over.size:
        t = int(over[0])
        raise ValueError(f"trial {t}'s optimal power {float(q_star[t])} is above the limit "
                         f"{limit} = float max / (2 * largest budget {budgets.max()}), "
                         f"past which a budget's energy overflows")
    tables = {}
    for name, off in OVERHEAD_POLICIES:
        if m - off < 2:
            continue
        sub = TrialStack(gains[:, :m - off], shifts[:, :m - off], stack.scale)
        phases, powers = exact_runs(sub, cfg.n_adapt)
        t_train = powers.shape[1]
        q_d = harvested_powers(sub, phases)
        energy = q_d[:, None] * np.maximum(budgets - t_train, 0)
        if cfg.count_training_energy:
            spans = np.minimum(budgets, t_train).tolist()
            credit = {k: np.sum(powers[:, :k], axis=1) for k in set(spans)}
            energy += np.stack([credit[k] for k in spans], axis=1)
        tables[name] = energy / budgets
    n_budgets = len(cfg.budgets)
    tables["no_adaptation"] = np.repeat(
        harvested_powers(stack, np.zeros_like(stack.phase_shifts))[:, None], n_budgets, axis=1)
    tables["optimal"] = np.repeat(q_star[:, None], n_budgets, axis=1)
    curves = {name: _averaged(cfg.budgets, table) for name, table in tables.items()}
    return ExperimentResult(cfg.experiment, "budget", curves, _metadata(cfg))


EXPERIMENTS = {
    EXP_EFFICIENCY: run_efficiency_vs_n,
    EXP_POWER: run_power_vs_m,
    EXP_CONVERGENCE: run_convergence_comparison,
    EXP_OVERHEAD: run_overhead_tradeoff,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return EXPERIMENTS[cfg.experiment](cfg)
