"""Seeded Monte Carlo experiment drivers and CSV/metadata emission.

Each experiment sweeps a parameter, averages over independent trials and
emits one CSV file per curve plus a JSON run record. Trial randomness is
counter-derived (one stream per trial index) and trials run in order in
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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .baseline import DEFAULT_SCALE, PerturbationConfig, run_random_perturbation
from .channel import Scenario, ScenarioDistribution, generate_scenario
from .power import (
    PhaseAssignment,
    TrialStack,
    harvested_power,
    harvested_powers,
    optimal_power,
    optimal_powers,
    stack_scenarios,
)
from .protocol import efficiency_lower_bounds, exact_runs, run_protocol

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


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator addressed by (seed, *path); order-insensitive
    with respect to when streams are created or consumed."""
    seed = int(seed) & (2**63 - 1)
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


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
    intervals: int = 300
    n_adapt: int = 5
    perturb_scale: float = DEFAULT_SCALE
    # whether probe transmissions during training count as harvested energy
    # in the overhead averages; the receiver is busy measuring, so not by default
    count_training_energy: bool = False
    ref_attenuation: float = 1e-2
    ref_distance: float = 1.0
    path_loss_exponent: float = 3.0
    distance_min: float = 5.0
    distance_max: float = 15.0
    transmit_power: float = 1.0
    conversion_eff: float = 1.0

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
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        mapping[key] = val
    return mapping


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from string-valued keys, applying per-experiment defaults."""
    mapping = dict(mapping)
    if "experiment" not in mapping:
        raise ValueError("config requires an 'experiment' key")
    experiment = mapping.pop("experiment")
    kwargs = {}
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    for key, raw in mapping.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = _parse_value(key, raw)
    return ExperimentConfig.defaults_for(experiment, **kwargs)


def _parse_value(key: str, raw):
    if not isinstance(raw, str):
        return raw
    if key in ("trials", "seed", "workers", "intervals", "n_adapt"):
        return int(raw)
    if key in ("n_list", "m_list", "budgets"):
        return tuple(int(v) for v in raw.split(",") if v.strip())
    if key == "count_training_energy":
        word = raw.strip().lower()
        if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ValueError(f"{key} must be one of 1/0/true/false/yes/no/on/off; got {raw!r}")
        return word in ("1", "true", "yes", "on")
    if key == "out_dir":
        return raw
    return float(raw)


@dataclass(frozen=True)
class ResultRow:
    curve: str
    x: float
    mean: float
    stderr: float


@dataclass
class ExperimentResult:
    """Tabular sweep output plus the run record that reproduces it."""

    experiment: str
    x_name: str
    rows: list[ResultRow]
    metadata: dict

    def curve(self, name: str) -> list[ResultRow]:
        return [r for r in self.rows if r.curve == name]

    def curves(self) -> dict[str, list[ResultRow]]:
        """Rows grouped per curve in one pass, curves in first-seen order."""
        grouped: dict[str, list[ResultRow]] = {}
        for r in self.rows:
            grouped.setdefault(r.curve, []).append(r)
        return grouped

    def curve_names(self) -> list[str]:
        return list(self.curves())

    def write(self, out_dir: str | Path) -> list[Path]:
        """Write <out>/<experiment>/<curve>.csv files plus metadata.json."""
        base = Path(out_dir) / self.experiment
        base.mkdir(parents=True, exist_ok=True)
        written = []
        for name, rows in self.curves().items():
            path = base / f"{name}.csv"
            with open(path, "w") as fh:
                fh.write("".join([f"{self.x_name},mean,stderr\n"] + [
                    f"{_fmt(r.x)},{r.mean:.15g},{r.stderr:.15g}\n" for r in rows]))
            written.append(path)
        meta_path = base / "metadata.json"
        with open(meta_path, "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(meta_path)
        return written


def _fmt(x) -> str:
    if float(x).is_integer():
        return str(int(x))
    return format(float(x), ".15g")


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
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def run_efficiency_vs_n(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean efficiency and its closed-form lower bound versus the per-stage
    feedback budget, one curve pair per system size.

    Each system size stacks its trials once, takes every Q* and bound from
    the stack, and runs the exact protocol for all trials at once through
    :func:`exact_runs` per budget; the delivered powers come from the
    stacked phases. Each value equals the per-run one bit for bit.
    """
    domain = _DOMAIN[cfg.experiment]
    rows = []
    for m in cfg.m_list:
        dist = cfg.distribution(m)
        stack = stack_scenarios([generate_scenario(dist, rng_stream(cfg.seed, domain, m, t))[0]
                                 for t in range(cfg.trials)])
        q_star = optimal_powers(stack)
        etas = np.zeros((cfg.trials, len(cfg.n_list)))
        for j, n in enumerate(cfg.n_list):
            phases, _ = exact_runs(stack, n)
            etas[:, j] = harvested_powers(stack, phases) / q_star
        bounds = efficiency_lower_bounds(stack, cfg.n_list)
        for curve, table in ((f"eta_M{m}", etas), (f"bound_M{m}", bounds)):
            for j, n in enumerate(cfg.n_list):
                mean, se = _mean_stderr(table[:, j])
                rows.append(ResultRow(curve, n, mean, se))
    return ExperimentResult(cfg.experiment, "N", rows, _metadata(cfg))


def run_power_vs_m(cfg: ExperimentConfig) -> ExperimentResult:
    """Delivered power versus system size on one pinned realization, with
    the no-adaptation and optimal references."""
    domain = _DOMAIN[cfg.experiment]
    m_max = max(cfg.m_list)
    dist = cfg.distribution(m_max)
    full, _ = generate_scenario(dist, rng_stream(cfg.seed, domain))
    rows = []
    for m in cfg.m_list:
        scen = Scenario(
            transmit_power=full.transmit_power,
            carrier_freq=full.carrier_freq,
            conversion_eff=full.conversion_eff,
            channels=full.channels[:m],
        )
        rows.append(ResultRow("optimal", m, optimal_power(scen), 0.0))
        zero = harvested_power(scen, PhaseAssignment(np.zeros(m)))
        rows.append(ResultRow("no_adaptation", m, zero, 0.0))
        for n in cfg.n_list:
            if m < 2:
                q = optimal_power(scen)
            else:
                q = run_protocol(scen, n).q_d
            rows.append(ResultRow(f"adapted_N{n}", m, q, 0.0))
    # group rows per curve in sweep order
    rows.sort(key=lambda r: (r.curve, r.x))
    return ExperimentResult(cfg.experiment, "M", rows, _metadata(cfg))


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
    rows = []
    for m in cfg.m_list:
        dist = cfg.distribution(m)
        scen, _ = generate_scenario(dist, rng_stream(cfg.seed, domain, m))
        res = run_protocol(scen, cfg.n_adapt)
        traj = protocol_trajectory(res, cfg.intervals)
        for i, p in enumerate(traj, start=1):
            rows.append(ResultRow(f"proposed_M{m}", i, float(p), 0.0))
        pert = PerturbationConfig(scale=cfg.perturb_scale,
                                  max_intervals=cfg.intervals)
        trace = run_random_perturbation(
            scen, pert, rng=rng_stream(cfg.seed, domain, m, 1)
        )
        for i in range(cfg.intervals):
            rows.append(ResultRow(f"baseline_M{m}", i + 1,
                                  float(trace.best_power[i]), 0.0))
        rows.append(ResultRow(f"optimal_M{m}", cfg.intervals,
                              optimal_power(scen), 0.0))
    meta = _metadata(cfg)
    # one feedback bit per interval for both schemes; the sequential
    # protocol transmits two probes per interval, the baseline one
    meta["probes_per_interval"] = {"proposed": 2, "baseline": 1}
    return ExperimentResult(cfg.experiment, "interval", rows, meta)


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
    stack = stack_scenarios([generate_scenario(dist, rng_stream(cfg.seed, domain, t))[0]
                             for t in range(cfg.trials)])
    order = np.argsort(-stack.gains, axis=1)
    gains, shifts = (np.take_along_axis(a, order, axis=1)
                     for a in (stack.gains, stack.phase_shifts))
    budgets = np.array(cfg.budgets)
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
    tables["optimal"] = np.repeat(optimal_powers(stack)[:, None], n_budgets, axis=1)
    rows = []
    for name, table in tables.items():
        for j, b in enumerate(cfg.budgets):
            mean, se = _mean_stderr(table[:, j])
            rows.append(ResultRow(name, b, mean, se))
    return ExperimentResult(cfg.experiment, "budget", rows, _metadata(cfg))


EXPERIMENTS = {
    EXP_EFFICIENCY: run_efficiency_vs_n,
    EXP_POWER: run_power_vs_m,
    EXP_CONVERGENCE: run_convergence_comparison,
    EXP_OVERHEAD: run_overhead_tradeoff,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return EXPERIMENTS[cfg.experiment](cfg)
