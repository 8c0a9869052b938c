"""Fail when a traced benchmark run's per-layer counts exceed their caps.

Reads the JSON result line of ``bench/run.py --trace 1`` on stdin; each
argument is ``metric=cap``.  The counts are exact under Bland's rule, so a
cap set at a seed's traced count catches repeated work coming back.

    python3 bench/run.py --workload rect-hull --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 | python3 .github/scripts/check_counts.py exactmath.lp_solve.calls=30
"""

import json
import sys

metrics = json.load(sys.stdin)["metrics"]
over = []
for arg in sys.argv[1:]:
    name, cap = arg.split("=")
    if metrics[name]["value"] > int(cap):
        over.append(f"{name} = {metrics[name]['value']} exceeds {cap}")
for line in over:
    print(line)
sys.exit(1 if over else 0)
