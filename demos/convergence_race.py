#!/usr/bin/env python3
"""Sequential one-bit alignment versus simultaneous random perturbation.

Both schemes spend one feedback bit per interval. The sequential protocol
aligns one transmitter at a time and is done after N(M-1) intervals; the
perturbation baseline jitters every phase at once and keeps lucky draws,
typically needing well over 100 intervals to flatten out.

Run: python3 demos/convergence_race.py
"""

from distbeam import ExperimentConfig
from distbeam.experiments import EXP_CONVERGENCE, run_convergence_comparison

cfg = ExperimentConfig(experiment=EXP_CONVERGENCE, seed=3, intervals=300, out_dir="demo_out")
result = run_convergence_comparison(cfg)

for m in cfg.m_list:
    proposed = result.curves[f"proposed_M{m}"].means.tolist()
    baseline = result.curves[f"baseline_M{m}"].means.tolist()
    (optimum,) = result.curves[f"optimal_M{m}"].means.tolist()
    done = cfg.n_adapt * (m - 1)
    print(f"\nM = {m} (training ends at interval {done}):")
    print(f"{'interval':>9} {'sequential':>12} {'baseline':>12}")
    for n in (1, 5, 10, done, done + 1, 50, 100, 200, 300):
        print(f"{n:>9} {proposed[n-1]/optimum:>11.1%} {baseline[n-1]/optimum:>11.1%}")
    reach99 = next((i + 1 for i, p in enumerate(baseline) if p >= 0.99 * baseline[-1]),
                   None)
    print(f"baseline reaches 99% of its final level at interval {reach99}")

written = result.write(cfg.out_dir)
print("\nWrote:")
for path in written:
    print(f"  {path}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    fig, axes = plt.subplots(1, 2, figsize=(11, 4), sharey=True)
    for ax, m in zip(axes, cfg.m_list):
        x = list(range(1, cfg.intervals + 1))
        proposed = result.curves[f"proposed_M{m}"].means.tolist()
        baseline = result.curves[f"baseline_M{m}"].means.tolist()
        (optimum,) = result.curves[f"optimal_M{m}"].means.tolist()
        ax.plot(x, [p / optimum for p in proposed], label="sequential one-bit")
        ax.plot(x, [p / optimum for p in baseline], label="random perturbation")
        ax.axvline(cfg.n_adapt * (m - 1), ls=":", color="gray",
                   label="training complete")
        ax.set_title(f"M = {m}")
        ax.set_xlabel("feedback interval")
        ax.grid(alpha=0.3)
    axes[0].set_ylabel("fraction of optimal power")
    axes[0].legend(loc="lower right")
    fig.tight_layout()
    fig.savefig("demo_out/convergence_race.png", dpi=150)
    print("Saved demo_out/convergence_race.png")
