"""The demos and the README's library example run as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = (
    ("efficiency_vs_feedback.py", "20"),
    ("training_overhead.py", "20"),
    ("convergence_race.py",),
    ("phase_bisection.py",),
)


@pytest.mark.parametrize("demo", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs_with_warnings_as_errors(demo, tmp_path):
    """Each demo exits 0 in a fresh process with every warning an error,
    writing its output under its working directory."""
    script, *args = demo
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr


def test_readme_library_example_prints_its_interval_count(capsys):
    """The README's one ``python`` block runs and its last line prints the
    20 feedback intervals its comment promises."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "20"
