"""Seeded Monte Carlo experiment drivers and CSV/metadata emission.

Each experiment sweeps a parameter, averages over independent trials and
emits one CSV file per curve plus a JSON run record. Trial randomness is
counter-derived (one stream per trial index, :mod:`distbeam.streams`; the
Monte Carlo experiments draw a sweep point's trials in one
:func:`~distbeam.streams.trial_stack` call) and trials run in order in
the calling thread, so results are byte-identical across runs. The
``workers`` setting is validated and recorded but does not change how
trials run, so it cannot change a result either. Each experiment reads
the shared keys (``seed``, ``workers``, ``out_dir``, the scenario fields)
and its own, declared with their defaults in ``EXPERIMENT_KEYS``; a
config parses each of them from a config file's text and sets, checks
and records no other key. :func:`run_experiment` is the one entry point.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .baseline import DEFAULT_SCALE, PerturbationConfig, run_random_perturbation
from .channel import Scenario, ScenarioDistribution, generate_scenario
from .power import (
    TrialStack,
    checked_optima,
    harvested_powers,
    optimal_power,
    optimal_powers,
)
from .protocol import _check_run, efficiency_lower_bounds, exact_phases, exact_runs, run_protocol
from .streams import rng_stream, trial_stack
from .table import csv_text

EXP_EFFICIENCY = "efficiency-vs-N"
EXP_POWER = "power-vs-M"
EXP_CONVERGENCE = "convergence-comparison"
EXP_OVERHEAD = "overhead-tradeoff"

_N_LIST = (1, 2, 3, 4, 5, 6, 7, 8)

#: The keys each experiment reads besides the shared ones, with their
#: defaults. Any other experiment-specific key stays None.
EXPERIMENT_KEYS = {
    EXP_EFFICIENCY: dict(trials=1000, m_list=(5, 10), n_list=_N_LIST),
    EXP_POWER: dict(m_list=tuple(range(2, 11)), n_list=(1, 2, 3, 5)),
    EXP_CONVERGENCE: dict(m_list=(5, 7), n_adapt=5, intervals=PerturbationConfig.max_intervals,
                          perturb_scale=DEFAULT_SCALE),
    EXP_OVERHEAD: dict(trials=5000, m_list=(5,), n_adapt=5,
                       budgets=(5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100, 150, 200, 300),
                       count_training_energy=False),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on; hashable to a run fingerprint."""

    experiment: str
    # an experiment-specific key left at None takes its default from
    # EXPERIMENT_KEYS if the experiment reads it, and must stay None if not
    trials: int | None = None
    seed: int = 12345
    workers: int = 1
    out_dir: str = "out"
    n_list: tuple[int, ...] | None = None
    m_list: tuple[int, ...] | None = None
    budgets: tuple[int, ...] | None = None
    intervals: int | None = None
    n_adapt: int | None = None
    perturb_scale: float | None = None
    # whether probe transmissions during training count as harvested energy
    # in the overhead averages; the receiver is busy measuring, so not by default
    count_training_energy: bool | None = None
    # the scenario family, at ScenarioDistribution's defaults
    ref_attenuation: float = ScenarioDistribution.ref_attenuation
    ref_distance: float = ScenarioDistribution.ref_distance
    path_loss_exponent: float = ScenarioDistribution.path_loss_exponent
    distance_min: float = ScenarioDistribution.distance_range[0]
    distance_max: float = ScenarioDistribution.distance_range[1]
    transmit_power: float = ScenarioDistribution.transmit_power
    conversion_eff: float = ScenarioDistribution.conversion_eff

    def __post_init__(self):
        if (keys := EXPERIMENT_KEYS.get(self.experiment)) is None:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        # the shared keys and the experiment's own; a field that defaults to
        # None is experiment-specific, and one set but unread is named first
        fields = dataclasses.fields(self)[1:]
        reads = [f for f in fields if f.default is not None or f.name in keys]
        if unread := [f.name for f in fields
                      if f not in reads and getattr(self, f.name) is not None]:
            raise ValueError(f"{self.experiment} does not read {', '.join(unread)}; "
                             f"it reads {', '.join(f.name for f in reads)}")
        # each value read, set or defaulted, is parsed from its text in a
        # config file by its declared type (less a sweep field's "| None"),
        # so a keyword, a file line and a flag take one parser
        for f in reads:
            if (value := getattr(self, f.name)) is None:
                value = keys.get(f.name)
            parse, expected = _PARSERS[f.type.removesuffix(" | None")]
            try:
                parsed = parse(text := _config_text(value))
            except (KeyError, ValueError):
                raise ValueError(f"{f.name} must be {expected}; got {text!r}") from None
            object.__setattr__(self, f.name, parsed)
        if "trials" in keys and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.out_dir:
            raise ValueError("out_dir must not be empty")
        sweeps = [name for name in ("n_list", "m_list", "budgets") if name in keys]
        if bad := [b for b in self.budgets or () if not 1 <= b <= 2**53]:   # float64 holds counts exactly to 2**53
            raise ValueError(f"budgets must be >= 1 and <= 2**53; got {bad[0]}")
        for name, n in (("n_list", self.n_list and min(self.n_list)), ("n_adapt", self.n_adapt)):
            if name in keys and n < 1:
                raise ValueError(f"n_intervals must be >= 1; got {name} {n}")
        # the protocol's rule at every listed size, before any draw (power-vs-M
        # reports a lone transmitter's optimum); the budgets are checked above
        m = min(self.m_list)
        if self.experiment != EXP_POWER:
            _check_run(m, 1)
        # the scenario family's rules at that size: its fields', and at least one
        # transmitter, which only power-vs-M reaches here without
        try:
            self.distribution(m)
        except ValueError as exc:
            raise ValueError(f"m_list {m}: {exc}" if m < 1 else str(exc)) from None
        # the baseline's rules, under this config's names
        for name, rule in (("intervals", "max_intervals"), ("perturb_scale", "scale")):
            if name in keys:
                try:
                    PerturbationConfig(**{rule: getattr(self, name)})
                except ValueError as exc:
                    raise ValueError(f"{name} {getattr(self, name)}: {exc}") from None
        for name in sweeps:
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
    """The experiment and the keys it reads; an unread key is None and left out."""
    out = {}
    for f in dataclasses.fields(cfg):
        if (val := getattr(cfg, f.name)) is not None:
            out[f.name] = _config_text(val) if isinstance(val, tuple) else val
    return out


def _config_text(value) -> str:
    """``value`` as a config file holds it: a sequence comma-joined, anything else ``str``."""
    return ",".join(map(str, value)) if isinstance(value, (tuple, list)) else str(value)


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
    if unknown := [key for key in mapping if key not in ExperimentConfig.__dataclass_fields__]:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    if typed := [key for key, raw in mapping.items() if not isinstance(raw, str)]:
        raise TypeError(f"{typed[0]} must be given as a string; got {mapping[typed[0]]!r}")
    return ExperimentConfig(**mapping)


_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}

#: Parser of a config value and what the value must be, by declared type
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
    "bool": (lambda raw: _WORDS[raw.strip().lower()], "one of 1/0/true/false/yes/no/on/off"),
    "tuple[int, ...]": (lambda raw: tuple(int(v) for v in raw.split(",")),
                        "comma-separated integers"),
}


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
        """Write <out>/<experiment>/<curve>.csv files plus metadata.json,
        each curve through :func:`~distbeam.table.csv_text`."""
        base = Path(out_dir) / self.experiment
        base.mkdir(parents=True, exist_ok=True)
        written = []
        for name, columns in self.curves.items():
            path = base / f"{name}.csv"
            path.write_text(csv_text(f"{self.x_name},mean,stderr", *columns))
            written.append(path)
        meta_path = base / "metadata.json"
        with open(meta_path, "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(meta_path)
        return written


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return datetime.now(tz=timezone.utc).isoformat()
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"SOURCE_DATE_EPOCH must be a whole number of seconds "
                         f"within the calendar's range; got {epoch!r}") from None


def _metadata(cfg: ExperimentConfig) -> dict:
    """The run record; :func:`run_experiment` takes it before any trial, so
    a bad ``SOURCE_DATE_EPOCH`` fails the run before it starts."""
    meta = dict(config_to_mapping(cfg))
    meta["config_hash"] = config_hash(cfg)
    meta["timestamp"] = _timestamp()
    meta["version"] = __version__
    return meta


def _averaged(xs, table: np.ndarray) -> Curve:
    """One point per column of ``table`` (trials by len(xs)): the column's
    mean and standard error of the mean at its x.

    Both are taken of the column scaled by the power of two that puts its
    largest magnitude in [0.5, 1), then scaled back, so squared deviations
    cannot overflow. Power-of-two scaling is exact for normal numbers. The
    columns are the rows of one contiguous transposed copy, so each
    reduction over them is one call that sums every column as a 1-D array.
    """
    columns = np.ascontiguousarray(table.T)
    _, e = np.frexp(np.max(np.abs(columns), axis=1))
    unit = np.ldexp(columns, -e[:, None])
    means = np.ldexp(np.mean(unit, axis=1), e)
    trials = columns.shape[1]
    if trials < 2:
        return Curve(xs, means, np.zeros(len(xs)))
    return Curve(xs, means, np.ldexp(np.std(unit, axis=1, ddof=1) / math.sqrt(trials), e))


def _single_run(xs, values) -> Curve:
    """One single-run value per x, each with standard error 0."""
    return Curve(xs, np.asarray(values, dtype=np.float64), np.zeros(len(xs)))


def _efficiency_vs_n(cfg: ExperimentConfig, domain: int) -> dict[str, Curve]:
    """Mean efficiency and its closed-form lower bound versus the per-stage
    feedback budget, one curve pair per system size.

    Each system size stacks its trials once, takes every Q* and bound from
    the stack, and runs the exact protocol for all trials and budgets at
    once through :func:`exact_phases`; the delivered powers come from the
    stacked phases. Each value equals the per-run one bit for bit.
    """
    curves = {}
    for m in cfg.m_list:
        dist = cfg.distribution(m)
        stack = trial_stack(dist, cfg.seed, domain, m, trials=cfg.trials)
        q_star = optimal_powers(stack)
        etas = np.zeros((cfg.trials, len(cfg.n_list)))
        for j, phases in enumerate(exact_phases(stack, cfg.n_list)):
            etas[:, j] = harvested_powers(stack, phases) / q_star
        bounds = efficiency_lower_bounds(stack, cfg.n_list)
        curves[f"eta_M{m}"] = _averaged(cfg.n_list, etas)
        curves[f"bound_M{m}"] = _averaged(cfg.n_list, bounds)
    return curves


def _optima(scenarios: list[Scenario], m_list) -> list[float]:
    """:func:`optimal_power` of one scenario per system size, checked by
    :func:`checked_optima` before any run divides by it."""
    return checked_optima(np.array([optimal_power(s) for s in scenarios]),
                          np.array([s.power_scale for s in scenarios]),
                          [f"M = {m}" for m in m_list]).tolist()


def _power_vs_m(cfg: ExperimentConfig, domain: int) -> dict[str, Curve]:
    """Delivered power versus system size on one pinned realization, with
    the no-adaptation and optimal references."""
    full, _ = generate_scenario(cfg.distribution(max(cfg.m_list)), rng_stream(cfg.seed, domain))
    scens = [Scenario(full.transmit_power, full.conversion_eff, full.gains[:m],
                      full.phase_shifts[:m]) for m in cfg.m_list]
    columns = {}
    for m, scen, q_star in sorted(zip(cfg.m_list, scens, _optima(scens, cfg.m_list)),
                                  key=lambda t: t[0]):
        zero = harvested_powers(TrialStack(scen.gains, scen.phase_shifts, scen.power_scale),
                                np.zeros(m))
        points = [("optimal", q_star), ("no_adaptation", zero)]
        points += [(f"adapted_N{n}", q_star if m < 2 else run_protocol(scen, n).q_d)
                   for n in cfg.n_list]
        for name, q in points:
            columns.setdefault(name, []).append(q)
    return {name: _single_run(sorted(cfg.m_list), columns[name]) for name in sorted(columns)}


def _protocol_trajectory(res, total_intervals: int) -> np.ndarray:
    """Per-interval received power of a protocol run: the two probe powers
    averaged while a stage trains, then the delivered power once done."""
    traj = np.concatenate([tr.interval_powers() for tr in res.traces])
    if total_intervals > traj.size:
        tail = np.full(total_intervals - traj.size, res.q_d)
        traj = np.concatenate([traj, tail])
    return traj[:total_intervals]


def _convergence_comparison(cfg: ExperimentConfig, domain: int) -> dict[str, Curve]:
    """Power trajectories of the sequential protocol and the perturbation
    baseline on one pinned realization per system size."""
    scens = [generate_scenario(cfg.distribution(m), rng_stream(cfg.seed, domain, m))[0]
             for m in cfg.m_list]
    curves = {}
    for m, scen, q_star in zip(cfg.m_list, scens, _optima(scens, cfg.m_list)):
        proposed = _protocol_trajectory(run_protocol(scen, cfg.n_adapt), cfg.intervals)
        pert = PerturbationConfig(scale=cfg.perturb_scale,
                                  max_intervals=cfg.intervals)
        trace = run_random_perturbation(
            scen, pert, rng=rng_stream(cfg.seed, domain, m, 1)
        )
        for name, powers in ((f"proposed_M{m}", proposed), (f"baseline_M{m}", trace.best_power)):
            curves[name] = _single_run(range(1, powers.size + 1), powers)
        curves[f"optimal_M{m}"] = _single_run((cfg.intervals,), [q_star])
    return curves


#: Fig-8-style policies: number of weakest transmitters switched off, by
#: curve. A policy runs only if it leaves at least two transmitters on.
OVERHEAD_POLICIES = (
    ("all_on", 0),
    ("drop_weakest_1", 1),
    ("drop_weakest_2", 2),
)


def _overhead_tradeoff(cfg: ExperimentConfig, domain: int) -> dict[str, Curve]:
    """Average power per interval versus the total interval budget, for
    policies that switch off the weakest transmitters to shorten training.

    Each budget splits into a training prefix and an energy-delivery
    remainder. Probe transmissions during training deliver energy only when
    ``count_training_energy`` is set; by default the receiver spends those
    intervals measuring, so a budget shorter than the training phase
    averages to the truncated (training-only) credit.

    Each policy runs the gain-sorted stack of all trials at once through
    :func:`exact_phases`, or through :func:`exact_runs` when its interval
    powers are the training credit. Training takes N (M - 1) intervals.
    """
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
        if cfg.count_training_energy:
            phases, powers = exact_runs(sub, cfg.n_adapt)
        else:
            (phases,) = exact_phases(sub, [cfg.n_adapt])
        t_train = cfg.n_adapt * (m - off - 1)
        q_d = harvested_powers(sub, phases)
        # Python ints: t_train may pass int64, each budget's remainder is at most 2**53
        energy = q_d[:, None] * np.array([max(b - t_train, 0) for b in cfg.budgets])
        if cfg.count_training_energy:
            spans = np.minimum(budgets, t_train).tolist()
            credit = {k: np.sum(powers[:, :k], axis=1) for k in set(spans)}
            energy += np.stack([credit[k] for k in spans], axis=1)
        tables[name] = energy / budgets
    n_budgets = len(cfg.budgets)
    tables["no_adaptation"] = np.repeat(
        harvested_powers(stack, np.zeros_like(stack.phase_shifts))[:, None], n_budgets, axis=1)
    tables["optimal"] = np.repeat(q_star[:, None], n_budgets, axis=1)
    return {name: _averaged(cfg.budgets, table) for name, table in tables.items()}


class Experiment(NamedTuple):
    """A runner, which returns the curves by name; the stream-domain tag
    that keeps its draws disjoint from the other experiments'; the name of
    its x column; and what its run record holds besides the config's."""

    run: Callable[[ExperimentConfig, int], dict[str, Curve]]
    domain: int
    x_name: str
    notes: dict


EXPERIMENTS = {
    EXP_EFFICIENCY: Experiment(_efficiency_vs_n, 1, "N", {}),
    EXP_POWER: Experiment(_power_vs_m, 2, "M", {}),
    # one feedback bit per interval for both schemes; the sequential
    # protocol transmits two probes per interval, the baseline one
    EXP_CONVERGENCE: Experiment(_convergence_comparison, 3, "interval",
                                {"probes_per_interval": {"proposed": 2, "baseline": 1}}),
    EXP_OVERHEAD: Experiment(_overhead_tradeoff, 4, "budget", {}),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run ``cfg``'s experiment: its run record, taken before any draw, and its curves."""
    run, domain, x_name, notes = EXPERIMENTS[cfg.experiment]
    meta = _metadata(cfg) | copy.deepcopy(notes)
    return ExperimentResult(cfg.experiment, x_name, run(cfg, domain), meta)
