"""Bland's pivot path, pinned by digest.

Every pivot the exact simplex makes is recorded as (leaving column,
entering column), read from the basis before and after the pivot, so the
path does not depend on how the tableau lays out its rows.  Three runs are
pinned: the first seed-1 cycle of the wide-maxmin and rect-hull benchmark
workloads (built read-only through ``bench/workloads.py``) and the classic
degenerate program of ``test_degenerate_cycling_guard``.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from credalgames.exactmath import linprog
from credalgames.exactmath.linprog import LESS_EQUAL, LinearProgram, lp_solve
from test_lp_answers import CG, _workloads

PINNED = {
    "wide-maxmin": (233, "fc3dbc10ebdb314b"),
    "rect-hull": (172, "0e2457c466bb4953"),
    "degenerate": (6, "9da66850da8e9be5"),
}


def _runs(name):
    """The solves whose pivots are recorded, as a function of no arguments;
    building the cycle pivots too, so it happens here, before recording."""
    if name == "degenerate":
        lp = LinearProgram.build(
            [F(3, 4), -150, F(1, 50), -6],
            [
                ([F(1, 4), -60, F(-1, 25), 9], LESS_EQUAL, 0),
                ([F(1, 2), -90, F(-1, 50), 3], LESS_EQUAL, 0),
                ([0, 0, 1, 0], LESS_EQUAL, 1),
            ],
        )
        return lambda: lp_solve(lp)
    workload = _workloads().WORKLOADS[name](scratch=None)
    cycle = workload.build(CG, random.Random(1))[0]
    return lambda: [workload.run(CG, op) for op in cycle]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bland_pivot_path_is_pinned(name, monkeypatch):
    run, path = _runs(name), []
    pivot = linprog._Tableau.pivot

    def recording(self, *args):
        before = list(self.basis)
        pivot(self, *args)
        (step,) = [(old, new) for old, new in zip(before, self.basis) if old != new]
        path.append(step)

    monkeypatch.setattr(linprog._Tableau, "pivot", recording)
    run()
    digest = hashlib.sha256(json.dumps(path).encode()).hexdigest()[:16]
    assert (len(path), digest) == PINNED[name]
