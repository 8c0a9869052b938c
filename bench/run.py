"""credalgames benchmark: one closed-loop client, speed-normalised timings.

Run from the root of a checkout:

    python3 bench/run.py --workload wide-maxmin --seed 1 --seconds 10 --trace 0

The program is imported from the checkout's ``src/`` and nowhere else.  Each
workload runs in this one process: every op starts when the previous one has
finished, and its output is checked against an exact oracle outside the
timed region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``# audit ...``) holds the raw wall times and calibration figures behind
the normalised metrics.

Speed normalisation: the host's speed drifts between and within runs, so a
fixed exact-``Fraction`` kernel (CALIBRATION) runs interleaved with the ops,
taking about CAL_SHARE of the op time.  Each op's wall time is multiplied by
REFERENCE_S divided by the mean kernel time of the samples taken within
WINDOW_S of the op.  Normalised seconds are seconds on a host where one
kernel run takes REFERENCE_S.

``--trace 1`` runs the first cycle of inputs four times: untraced, traced,
traced, untraced.  The traced passes record spans around the public
functions of every layer (see tracing.py) and report per-layer metrics; the
two traced passes must agree exactly on every count and ratio, and the
tracing overhead is their time over the untraced passes' time, minus one.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer, exact_metric_names, metric_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYER_MODULES = ("exactmath", "gametree", "beliefs", "maxmin", "dynamics", "render", "cli")

REFERENCE_S = 0.0025
CAL_SHARE = 0.2
WINDOW_S = 0.5
SETUPS = 5
MIN_OPS = 100
# stop starting cycles after this long, so a run on a very slow host still
# ends well inside its time limit
HARD_STOP_S = 120.0


def _calibration_matrix() -> list[list[Fraction]]:
    state = 12345
    rows = []
    for _ in range(7):
        row = []
        for _ in range(8):
            state = (state * 1103515245 + 12345) % 2**31
            row.append(Fraction(state % 19 - 9, state % 7 + 1))
        rows.append(row)
    return rows


CALIBRATION = _calibration_matrix()


def _kernel() -> Fraction:
    """Gauss-Jordan elimination of CALIBRATION, twice: the same Fraction
    arithmetic (products, sums, gcd of growing integers) the LP does."""
    total = Fraction(0)
    for _ in range(2):
        aug = [list(row) for row in CALIBRATION]
        n = len(aug)
        for col in range(n):
            pivot = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [c * inv for c in aug[col]]
            for r in range(n):
                factor = aug[r][col]
                if r != col and factor != 0:
                    aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
        total += aug[0][n]
    return total


class Calibration:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.total = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            _kernel()
            t1 = perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))
            self.total += t1 - t0

    def keep_up(self, op_seconds: float) -> None:
        while self.total < CAL_SHARE * op_seconds:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        near = [s for mid, s in self.samples if t0 - WINDOW_S <= mid <= t1 + WINDOW_S]
        if len(near) < 8:
            near = [s for _, s in self.samples]
        return REFERENCE_S / statistics.fmean(near)

    def mean(self) -> float:
        return statistics.fmean(s for _, s in self.samples)


def load_program() -> SimpleNamespace:
    """Import every credalgames layer afresh from the checkout's src/."""
    for key in [k for k in sys.modules if k == "credalgames" or k.startswith("credalgames.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(f"credalgames.{name}") for name in LAYER_MODULES}
    for module in modules.values():
        if SRC not in Path(module.__file__).resolve().parents:
            raise ImportError(f"{module.__name__} was not imported from {SRC}")
    return SimpleNamespace(**modules)


class Loop:
    """Runs ops one after another, timing each and checking its output."""

    def __init__(self, workload, cg, cal: Calibration):
        self.workload, self.cg, self.cal = workload, cg, cal
        self.timings: list[tuple[float, float]] = []  # (start, end) per op
        self.deferred: list[tuple] = []
        self.attempted = self.failed = 0
        self.op_seconds = 0.0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"error: op {self.attempted}: {message}", file=sys.stderr)

    def run(self, op, tracer: Tracer | None = None) -> None:
        if tracer is not None:
            tracer.op = len(self.timings)
            tracer.active = True
        error = None
        t0 = perf_counter()
        try:
            out = self.workload.run(self.cg, op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
        self.attempted += 1
        self.timings.append((t0, t1))
        self.op_seconds += t1 - t0
        if error is None:
            try:
                error = self.workload.check(self.cg, op, out)
            except Exception as exc:  # a malformed output fails its oracle
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is None:
            self.deferred.append((op, out))
        else:
            self._fail(error)
        self.cal.keep_up(self.op_seconds)

    def finish_checks(self) -> None:
        """Oracles too heavy for the loop (scipy), run after peak RSS is read."""
        for op, out in self.deferred:
            error = self.workload.deferred_check(self.cg, op, out)
            if error is not None:
                self._fail(error)
        self.deferred.clear()

    def normalised(self, first: int = 0, last: int | None = None) -> list[float]:
        return [(t1 - t0) * self.cal.factor(t0, t1) for t0, t1 in self.timings[first:last]]


def setup(workload, seed: int, cal: Calibration, count: int = SETUPS):
    """Import the program and build the seeded inputs ``count`` times; return
    the last program and inputs, and the (start, end) of every set-up."""
    times = []
    for _ in range(count):
        cal.sample(8)
        t0 = perf_counter()
        cg = load_program()
        cycles = workload.build(cg, random.Random(seed))
        t1 = perf_counter()
        cal.sample(8)
        times.append((t0, t1))
    # the collector no longer scans the program's modules and the input pool,
    # so its cost inside an op does not grow with the size of the pool
    gc.collect()
    gc.freeze()
    return cg, cycles, times


def timed_run(workload, seed: int, seconds: float) -> dict:
    cal = Calibration()
    cg, cycles, setup_times = setup(workload, seed, cal)
    loop = Loop(workload, cg, cal)
    start = perf_counter()
    ncycles = 0
    while True:
        for op in cycles[ncycles % len(cycles)]:
            loop.run(op)
        ncycles += 1
        elapsed = perf_counter() - start
        if (elapsed >= seconds and loop.attempted >= MIN_OPS) or elapsed >= HARD_STOP_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.finish_checks()

    ops = loop.normalised()
    setups = [(t1 - t0) * cal.factor(t0, t1) for t0, t1 in setup_times]
    metrics = {
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_ms_p50": (statistics.median(ops) * 1000, "ms"),
        "op_ms_p90": (statistics.quantiles(ops, n=10, method="inclusive")[8] * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    audit = {
        "samples": len(ops),
        "beyond_p90": sum(1 for x in ops if x * 1000 > metrics["op_ms_p90"][0]),
        "cycles": ncycles,
        "raw_op_s": loop.op_seconds,
        "raw_op_ms_p50": statistics.median(t1 - t0 for t0, t1 in loop.timings) * 1000,
        "raw_setup_s": statistics.median(t1 - t0 for t0, t1 in setup_times),
        "reference_s": REFERENCE_S,
        "calibration_mean_s": cal.mean(),
        "calibration_samples": len(cal.samples),
        "failed_ratio": loop.failed / loop.attempted,
    }
    return _result(loop, metrics, audit)


def traced_run(workload, seed: int) -> dict:
    cal = Calibration()
    cg, cycles, _ = setup(workload, seed, cal, count=1)
    loop = Loop(workload, cg, cal)
    ops = cycles[0]
    passes = []
    tracers = []
    for traced in (False, True, True, False):
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install(cg)
            tracers.append(tracer)
        first = len(loop.timings)
        try:
            for op in ops:
                loop.run(op, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append((first, len(loop.timings)))
    loop.finish_checks()

    def factor(op):
        return cal.factor(*loop.timings[op])

    first, second = (t.metrics(factor) for t in tracers)
    mismatched = [n for n in exact_metric_names() if first[n] != second[n]]
    for name in mismatched:
        print(f"error: traced passes disagree on {name}: {first[name]} vs {second[name]}", file=sys.stderr)
    pass_s = [sum(loop.normalised(a, b)) for a, b in passes]
    metrics = {}
    for name in metric_names():
        value = first[name]
        if name.endswith(".self_s"):
            value = (first[name] + second[name]) / 2
        metrics[name] = (value, _unit(name))
    overhead = (pass_s[1] + pass_s[2]) / (pass_s[0] + pass_s[3]) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    audit = {
        "ops_per_pass": len(ops),
        "pass_normalised_s": pass_s,
        "spans_per_pass": len(tracers[0].spans),
        "reference_s": REFERENCE_S,
        "calibration_mean_s": cal.mean(),
        "determinism_mismatches": len(mismatched),
    }
    result = _result(loop, metrics, audit)
    result["correct"] = result["correct"] and not mismatched
    return result


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _result(loop: Loop, metrics: dict, audit: dict) -> dict:
    print("# audit " + json.dumps(audit, sort_keys=True))
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "credalgames" / "__init__.py").is_file():
        print(f"error: no credalgames sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the sweep's worker pool is sized by the host by default; pin the
    # default of a 2-core host so the op mix is the same everywhere
    os.environ["CREDALGAMES_WORKERS"] = "2"
    scratch = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](scratch)
        if args.trace:
            result = traced_run(workload, args.seed)
        else:
            result = timed_run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
