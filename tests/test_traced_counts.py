"""The benchmark's traced operation counts, pinned exactly.

``bench/run.py --trace 1`` runs each workload's first seed-1 cycle under a
tracer that counts the calls of every layer's public functions and a few
work counters.  Bland's rule makes those counts exact, so a change that
repeats work, or saves it, shows as a diff against ``traced_counts.json``.
Times and ratios are not pinned.

After a change that moves a count on purpose, rewrite the file from the
runs' JSON lines and say why in CHANGES.md:

    python3 bench/run.py --workload rect-hull --seed 1 --seconds 1 --trace 1
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "tests" / "traced_counts.json").read_text())


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_counts_match_the_pinned_file(workload):
    if workload == "wide-maxmin":
        pytest.importorskip("scipy")  # its ops are checked against HiGHS
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=ROOT)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stderr
    counts = {name: result["metrics"][name]["value"] for name in PINNED[workload]}
    assert counts == PINNED[workload]
