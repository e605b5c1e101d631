"""Command-line interface.

Subcommands: ``adapt`` (one bisection run, prints its trace), ``protocol``
(full sequential run, prints the summary row), ``baseline`` (random
perturbation run), ``exp <name>`` (Monte Carlo experiment writing CSV
curves), ``verify`` (built-in oracle suite) and ``bound`` (closed-form
bound evaluation). Every command is deterministic; those that draw a random
scenario take --seed.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .baseline import DEFAULT_SCALE, DIST_GAUSSIAN, DIST_UNIFORM, PerturbationConfig, run_random_perturbation
from .channel import Scenario, ScenarioDistribution, generate_scenario
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    config_from_mapping,
    config_hash,
    parse_config_text,
    run_experiment,
)
from .power import EXACT, MODE_ADDITIVE_NOISE, MeasurementModel, PhaseAssignment
from .protocol import (
    InfeasibleEfficiencyTarget,
    efficiency_lower_bound,
    required_intervals,
    run_protocol,
)
from .selfcheck import run_all
from .streams import rng_stream
from .table import csv_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


#: Flags defined once; each subcommand accepts only the ones it reads.
_SHARED_FLAGS = {
    "--seed": dict(type=int, default=ExperimentConfig.seed,
                   help=f"default {ExperimentConfig.seed}"),
    "--out": dict(dest="out_dir", default=None, help="output directory"),
    "--format": dict(choices=("csv", "json"), default="csv"),
}


def _subcommand(sub, name: str, summary: str, *flags: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every
    :func:`cli_main` call: parsing stores nothing in it."""
    parser = _Parser(prog="distbeam", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "adapt", "run one phase-adaptation stage and print its trace",
                    "--seed", "--format")
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--N", type=int, default=5)
    p.add_argument("--adapter", type=int, default=None,
                   help="1-based transmitter index that adapts (default: the last)")
    p.add_argument("--noise-std", type=float, default=0.0)

    p = _subcommand(sub, "protocol", "run the full sequential protocol",
                    "--seed", "--format", "--out")
    p.add_argument("--M", type=int, default=5)
    p.add_argument("--N", type=int, default=5)
    p.add_argument("--noise-std", type=float, default=0.0)

    p = _subcommand(sub, "baseline", "run the random-perturbation baseline",
                    "--seed", "--format")
    p.add_argument("--M", type=int, default=5)
    p.add_argument("--intervals", type=int, default=PerturbationConfig.max_intervals)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--dist", choices=("uniform", "gaussian"), default="uniform")

    p = _subcommand(sub, "exp", "run a Monte Carlo experiment and write CSV curves")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--seed", default=None, help=f"default {ExperimentConfig.seed}")
    p.add_argument("--trials", default=None)
    p.add_argument("--out", **_SHARED_FLAGS["--out"])
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--workers", default=None,
                   help="recorded in metadata.json; trials run in the calling thread")
    p.add_argument("--n-list", default=None, help="comma-separated feedback budgets")
    p.add_argument("--m-list", default=None, help="comma-separated system sizes")
    p.add_argument("--budgets", default=None, help="comma-separated interval budgets")
    p.add_argument("--intervals", default=None)
    p.add_argument("--n-adapt", default=None)
    p.add_argument("--perturb-scale", default=None)
    p.add_argument("--count-training-energy", action="store_const", const="true", default=None)

    _subcommand(sub, "verify", "run the built-in oracle and property suite")

    p = _subcommand(sub, "bound", "evaluate the closed-form efficiency bounds")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--eta-hat", type=float, default=None,
                   help="target efficiency: print the required per-stage intervals")
    p.add_argument("--N", type=int, default=None,
                   help="per-stage intervals: print the efficiency lower bound")
    gains = p.add_mutually_exclusive_group()
    gains.add_argument("--equal-gains", action="store_true")
    gains.add_argument("--gains", default=None, help="comma-separated channel power gains")
    return parser


def _scenario_for(args, m: int) -> Scenario:
    dist = ScenarioDistribution(num_transmitters=m)
    scen, _ = generate_scenario(dist, rng_stream(args.seed, 0))
    return scen


def _measurement(args) -> MeasurementModel:
    if args.noise_std == 0.0:
        return EXACT
    return MeasurementModel(MODE_ADDITIVE_NOISE, args.noise_std, rng_stream(args.seed, 2))


_TRACE_KEYS = ("psi", "psi_prime", "q_psi", "q_psi_prime", "bit", "arc_center", "arc_half_width")


def _cmd_adapt(args) -> int:
    from .adapt import adapt_phase

    m_total = args.M
    if m_total < 2:
        raise _UsageError("adapt needs --M >= 2: the adapting transmitter "
                          "aligns to the signal of the others")
    adapter = (args.adapter if args.adapter is not None else m_total) - 1
    if not 0 <= adapter < m_total:
        raise _UsageError(f"--adapter must be in 1..{m_total}")
    scen = _scenario_for(args, m_total)
    active = np.ones(m_total, dtype=bool)
    active[adapter] = False
    pa = PhaseAssignment(np.zeros(m_total), active)
    phi, trace = adapt_phase(scen, pa, adapter, args.N, _measurement(args))
    if args.format == "json":
        columns = [getattr(trace, key) for key in _TRACE_KEYS]
        payload = {
            "final_phase": phi,
            "target_phase": trace.target_phase,
            "records": [dict(zip(_TRACE_KEYS, row), interval=n)
                        for n, row in enumerate(zip(*columns), start=1)],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        sys.stdout.write(trace.to_csv())
    return EXIT_OK


def _cmd_protocol(args) -> int:
    scen = _scenario_for(args, args.M)
    meas = _measurement(args)
    res = run_protocol(scen, args.N, meas)
    # the bound assumes exact comparisons; under noise it is only a reference
    summary = {
        "M": args.M,
        "N": args.N,
        "Q_d": res.q_d,
        "Q_star": res.q_star,
        "eta": res.eta,
        "bound_exact" if meas.noisy else "bound": efficiency_lower_bound(scen, args.N),
        "max_abs_error": float(np.max(np.abs(res.errors))),
    }
    # one float64 column per value, so the ints M and N print as floats do
    csv = csv_text(",".join(summary), *np.array(list(summary.values()))[:, None])
    if args.format == "json":
        payload = summary | {"final_phases": [float(p) for p in res.final_phases]}
        if meas.noisy:
            payload["bound_valid"] = False
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        sys.stdout.write(csv)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.csv").write_text(csv)
        for i, trace in enumerate(res.traces, start=2):
            (out / f"trace_ET{i}.csv").write_text(trace.to_csv())
    return EXIT_OK


def _cmd_baseline(args) -> int:
    scen = _scenario_for(args, args.M)
    dist = DIST_UNIFORM if args.dist == "uniform" else DIST_GAUSSIAN
    cfg = PerturbationConfig(distribution=dist, scale=args.scale,
                             max_intervals=args.intervals)
    trace = run_random_perturbation(scen, cfg, rng=rng_stream(args.seed, 1))
    if args.format == "json":
        payload = {
            "final_power": float(trace.best_power[-1]),
            "best_power": [float(p) for p in trace.best_power],
            "measured_power": [float(p) for p in trace.measured_power],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        sys.stdout.write(trace.to_csv())
    return EXIT_OK


def _cmd_exp(args) -> int:
    mapping = parse_config_text(Path(args.config).read_text()) if args.config else {}
    if mapping.setdefault("experiment", args.name) != args.name:
        raise _UsageError(f"the config file is for experiment {mapping['experiment']!r}, "
                          f"not {args.name!r}")
    # a flag whose dest is a config field's name sets that field, with a string
    # parsed as a config file's; None leaves the file's value or the default
    for f in dataclasses.fields(ExperimentConfig):
        if getattr(args, f.name, None) is not None:
            mapping[f.name] = getattr(args, f.name)
    cfg = config_from_mapping(mapping)
    result = run_experiment(cfg)
    written = result.write(cfg.out_dir)
    print(f"config_hash {config_hash(cfg)}")
    for path in written:
        print(path.as_posix())
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all()
    failed = 0
    for r in results:
        tag = "ok" if r.ok else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        failed += 0 if r.ok else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def _cmd_bound(args) -> int:
    if args.equal_gains:
        if args.M is None:
            raise _UsageError("--equal-gains requires --M")
        gains = [1.0] * args.M
    elif args.M is not None:
        raise _UsageError("--M needs --equal-gains; with --gains the size is the gain count")
    elif args.gains:
        gains = [float(g) for g in args.gains.split(",") if g.strip()]
    else:
        raise _UsageError("bound needs --gains or --equal-gains with --M")
    scen = Scenario(1.0, 1.0, 1.0, gains, [0.0] * len(gains))
    if (args.eta_hat is None) == (args.N is None):
        raise _UsageError("bound needs exactly one of --eta-hat or --N")
    if args.eta_hat is not None:
        try:
            value = required_intervals(scen, args.eta_hat)
        except InfeasibleEfficiencyTarget as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        print(f"{value:.4f}")
    else:
        print(f"{efficiency_lower_bound(scen, args.N):.15g}")
    return EXIT_OK


_COMMANDS = {
    "adapt": _cmd_adapt,
    "protocol": _cmd_protocol,
    "baseline": _cmd_baseline,
    "exp": _cmd_exp,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's error names the array it could not allocate
        print(f"error: out of memory: {str(exc) or 'the run is too large'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
