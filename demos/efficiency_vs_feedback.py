#!/usr/bin/env python3
"""How much feedback does near-optimal beamforming need?

Sweeps the per-transmitter feedback budget N, averaging the delivered
power's fraction of the optimum over random scenarios, and compares the
measured efficiency with its closed-form worst-case lower bound. Writes
the curves as CSV and plots them when matplotlib is available.

Run: python3 demos/efficiency_vs_feedback.py [trials]
"""

import sys

from distbeam import ExperimentConfig, required_intervals_equal_gains
from distbeam.experiments import EXP_EFFICIENCY, run_efficiency_vs_n

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 300
cfg = ExperimentConfig(experiment=EXP_EFFICIENCY, trials=trials, seed=42, out_dir="demo_out")
print(f"Averaging over {cfg.trials} random scenarios for M in {cfg.m_list} ...")
result = run_efficiency_vs_n(cfg)

for m in cfg.m_list:
    eta, bound = result.curves[f"eta_M{m}"], result.curves[f"bound_M{m}"]
    print(f"\nM = {m}:")
    print(f"{'N':>3} {'mean efficiency':>16} {'stderr':>9} {'lower bound':>12}")
    for n, mean, se, low in zip(eta.xs, eta.means.tolist(), eta.stderrs.tolist(),
                                bound.means.tolist()):
        print(f"{n:>3} {mean:>16.5f} {se:>9.1e} {low:>12.5f}")

written = result.write(cfg.out_dir)
print("\nWrote:")
for path in written:
    print(f"  {path}")

for eta_hat in (0.99, 0.999):
    n_req = required_intervals_equal_gains(5, eta_hat)
    print(f"Budget for {eta_hat:.1%} of optimum with 5 equal links: "
          f"N >= {n_req:.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for m, color in zip(cfg.m_list, ("tab:blue", "tab:orange")):
        eta = result.curves[f"eta_M{m}"].means
        bound = result.curves[f"bound_M{m}"].means
        ax.plot(cfg.n_list, eta, "o-", color=color, label=f"measured, M={m}")
        ax.plot(cfg.n_list, bound, "s--", color=color, alpha=0.6,
                label=f"lower bound, M={m}")
    ax.set_xlabel("feedback intervals per transmitter N")
    ax.set_ylabel("efficiency (delivered / optimal power)")
    ax.set_ylim(0.5, 1.01)
    ax.grid(alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_out/efficiency_vs_feedback.png", dpi=150)
    print("Saved demo_out/efficiency_vs_feedback.png")
