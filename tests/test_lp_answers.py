"""The LP workloads' exact answers, pinned by digest.

The paper's scenarios never reach the value LP or the optimal-face step, so
the goldens elsewhere cannot see a change there.  This test builds the first
seed-1 cycle of the wide-maxmin and rect-hull benchmark workloads (through
``bench/workloads.py``, read-only), runs every op and compares a digest of
each op's output with the one pinned here: for wide-maxmin the solution's
``to_json()``, for rect-hull the hull's vertices, the rectangularity
witness and the consistency report's ``to_json()``.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from credalgames import beliefs, dynamics, exactmath, maxmin

ROOT = Path(__file__).resolve().parent.parent
CG = SimpleNamespace(beliefs=beliefs, dynamics=dynamics, exactmath=exactmath, maxmin=maxmin)

PINNED = {
    "wide-maxmin": [
        "b757767d91fef4ec", "17777c7df489345a", "42c09fddb36a9680", "24d8e6f8f35199ca",
        "1ca320367f627957", "9e3f4cdcce359625", "95d79a41922eec37", "3ad5a2583bc18677",
        "8e6f020dff6e8635", "9ebe519b0bf8b411", "8f47d96f54dbfee1", "22956c089cc4fd92",
        "b2914facf8324ef8", "8492817d31078a04", "bf319bcbc57fb1a4", "b690d075febe41b4",
        "56e2c86d2cd0ffb9", "c5fe0678bea06387", "61a82df9b80cace9", "b5f785803a9562ac",
    ],
    "rect-hull": [
        "ca80062de28d3600", "345aee9ad8466534", "e25f4ddbf3b2bb48", "eeeebc2203af3e4e",
        "1bc029e133af4d05", "b1ea1bf836f0eaf7", "8bb0c0bafd44dd9d", "5377fede7eaa3c7c",
        "7ac1342982fd115f", "45c818391ae3f06f", "03bc92a91ca636d0", "59b0d3ce6b194a09",
        "95a717e1d2d5252e", "9be7fbb88e14a98a", "ec2e870d28336c54",
    ],
}


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _answer(name, out):
    if name == "wide-maxmin":
        return out.to_json()
    hull, rect, report = out
    witness = None if rect.witness is None else rect.witness.to_json()
    return [[v.to_json() for v in hull.vertices], witness, report.to_json()]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_first_seed_one_cycle_gives_the_pinned_answers(name):
    workload = _workloads().WORKLOADS[name](scratch=None)
    cycle = workload.build(CG, random.Random(1))[0]
    digests = [_digest(_answer(name, workload.run(CG, op))) for op in cycle]
    assert digests == PINNED[name]
