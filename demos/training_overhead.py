#!/usr/bin/env python3
"""When is training worth it, and which transmitters should bother?

Every transmitter that trains costs N feedback intervals before delivery
starts. With a short horizon that overhead never pays for itself, and
weak links are not worth aligning at all: switching them off shortens the
training phase more than their power contribution is worth. This sweep
averages delivered power per interval against the total interval budget
for several switch-off policies.

Run: python3 demos/training_overhead.py [trials]
"""

import sys

from distbeam import ExperimentConfig
from distbeam.experiments import EXP_OVERHEAD, run_experiment

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
cfg = ExperimentConfig(experiment=EXP_OVERHEAD, trials=trials, seed=11, out_dir="demo_out")
print(f"Averaging over {cfg.trials} random 5-transmitter scenarios "
      f"(N = {cfg.n_adapt} per trained transmitter) ...")
result = run_experiment(cfg)

curves = {name: dict(zip(c.xs, c.means.tolist())) for name, c in result.curves.items()}
labels = {
    "all_on": "train all 5",
    "drop_weakest_1": "drop weakest",
    "drop_weakest_2": "drop two weakest",
    "no_adaptation": "no training",
}
print(f"\n{'budget':>7}", *(f"{lab:>18}" for lab in labels.values()))
for b in cfg.budgets:
    opt = curves["optimal"][b]
    row = [f"{curves[name][b] / opt:>17.1%} " for name in labels]
    print(f"{b:>7}", *row)
print("(fractions of the mean optimal power; training intervals deliver "
      "nothing while the receiver measures)")

best = {b: max(labels, key=lambda name: curves[name][b]) for b in cfg.budgets}
print("\nBest policy by budget:")
for b in cfg.budgets:
    print(f"  {b:>4} intervals -> {labels[best[b]]}")

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
    fig, ax = plt.subplots(figsize=(7.5, 4.5))
    for name, lab in labels.items():
        ax.plot(cfg.budgets, [curves[name][b] for b in cfg.budgets],
                "o-", ms=3, label=lab)
    ax.plot(cfg.budgets, [curves["optimal"][b] for b in cfg.budgets],
            "k--", alpha=0.5, label="optimum (free alignment)")
    ax.set_xlabel("total interval budget (training + delivery)")
    ax.set_ylabel("mean delivered power per interval [W]")
    ax.set_xscale("log")
    ax.grid(alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_out/training_overhead.png", dpi=150)
    print("Saved demo_out/training_overhead.png")
