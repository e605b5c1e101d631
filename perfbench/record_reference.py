"""Record every workload's outputs at the pinned seed into reference.json.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs are the reference; ``run.py`` then
compares each run's pinned-seed execution against this file at a relative
tolerance of 1e-12. Re-recording is a deliberate change of the expected
outputs and belongs in its own commit.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402


def main() -> int:
    run.pin_environment()
    import workloads

    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            w = cls(workloads.PINNED_SEED, Path(tmp), run.nproc())
            summary = w.summarize(w.execute())
            w.check(summary)
            reference[name] = summary
            print(f"recorded {name}", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
