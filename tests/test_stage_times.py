"""The per-stage timer (``tools/stage_times.py``) loads two checkouts under
names of their own; run on the working tree against itself, it times every
stage on every spec."""

import subprocess
import sys
from pathlib import Path

import wotsim

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"


def test_stage_times_runs_the_working_tree_against_itself():
    src = str(Path(wotsim.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, str(TOOL), "--parent", src, "--change", src,
                           "--count", "2"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["stage", "spec", "parent_us", "change_us", "ratio"]
    stages = ["all_final_states", "_completeness", "pair_kernel", "_purified_success",
              "cheat_report"]
    specs = ["cks", "trivial", "leaky-0.3", "mixture-0.25", "rotated-x10", "register-2",
             "register-16"]
    assert [row.split()[:2] for row in rows] == [[st, sp] for sp in specs for st in stages]
    assert all(float(row.split()[4]) > 0 for row in rows)
