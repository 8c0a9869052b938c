"""Span recording around the public functions of each credalgames layer.

The tracer rebinds every wrapped name in every ``credalgames`` module that
holds it (so calls between modules and inside a module both pass through the
wrapper), and puts the originals back on ``uninstall``.  Nothing in the
program changes; an untraced run installs nothing.

A span records its name, parent span, op id, thread and start/end times.
Spans opened on a worker thread with no open span of their own take the op
thread's innermost open span as parent, so work the CLI sweep hands to its
thread pool is still attributed to the op.  Self time is a span's duration
minus the part of it that its child spans cover (children on two threads may
overlap, so the union is subtracted, not the sum).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter

# layer -> public functions wrapped in that layer.  GameTree.pure_strategies
# is a method and is wrapped on the class.
LAYERS = {
    "exactmath": (
        "lp_solve",
        "lp_feasible",
        "solve_square_system",
        "polytope_minimize",
        "polytope_contains",
        "affine_image",
    ),
    "maxmin": ("maxmin_solve", "constrained_maxmin"),
    "beliefs": (
        "full_bayes_update",
        "one_step_ahead",
        "compose",
        "rectangular_hull",
        "is_rectangular",
    ),
    "gametree": ("pure_strategies", "validate_perfect_recall", "builtin_game"),
    "dynamics": (
        "build_player_problem",
        "check_dynamic_consistency",
        "find_dc_violation_payoffs",
        "induce_downstream",
    ),
    "cli": ("main", "run", "validate_scenario", "sweep_eps"),
    "render": ("render_triangle",),
}

MAXMIN_SPANS = ("maxmin.maxmin_solve", "maxmin.constrained_maxmin")


def _lp_extra(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return len(lp.constraints) * lp.objective.dimension


def _minimize_extra(args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    return (len(set(p.vertices)), len(result.vertices))


def _compose_extra(args, kwargs, result):
    marginal, conditionals = args[2], args[3]
    candidates = len(marginal.vertices)
    for cond in conditionals.values():
        candidates *= len(cond.vertices)
    return (candidates, len(result.vertices))


def _face_extra(args, kwargs, result):
    return len(result.optimal_face.vertices)


# measures taken from a wrapped call's arguments and result
EXTRAS = {
    "exactmath.lp_solve": _lp_extra,
    "exactmath.polytope_minimize": _minimize_extra,
    "beliefs.compose": _compose_extra,
    "maxmin.maxmin_solve": _face_extra,
    "maxmin.constrained_maxmin": _face_extra,
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name in span_names():
        names += [f"{name}.calls", f"{name}.self_s"]
    return names + [
        "exactmath.lp_solve.tableau_cells",
        "exactmath.polytope_minimize.kept_ratio",
        "maxmin.face.useful_ratio",
        "beliefs.compose.candidates",
        "beliefs.compose.kept_ratio",
    ]


def exact_metric_names() -> list[str]:
    """The metrics that must repeat exactly when the same ops run again."""
    return [n for n in metric_names() if not n.endswith(".self_s")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, thread, name, t0, t1, extra)
        self.op = None
        self.active = False  # spans are recorded only while an op runs
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_thread = threading.get_ident()
        self._op_stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._op_thread:
            return self._op_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        extra_of = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                op_stack = tracer._op_stack
                parent = op_stack[-1] if op_stack else None
            sid = next(tracer._ids)
            head = (sid, parent, tracer.op, threading.get_ident(), name)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # a span that raised is still recorded, without its extras
                tracer.spans.append(head + (t0, perf_counter(), None))
                raise
            finally:
                stack.pop()
            t1 = perf_counter()
            extra = None if extra_of is None else extra_of(args, kwargs, result)
            tracer.spans.append(head + (t0, t1, extra))
            return result

        return traced

    def install(self, cg) -> None:
        """Wrap every function of LAYERS, rebinding it wherever it is imported."""
        modules = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == "credalgames" or key.startswith("credalgames."))
        ]
        for layer, fns in LAYERS.items():
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if fn_name == "pure_strategies":
                    cls = cg.gametree.GameTree
                    original = cls.__dict__[fn_name]
                    self._installed.append((cls, fn_name, original))
                    setattr(cls, fn_name, self._wrap(name, original))
                    continue
                original = getattr(getattr(cg, layer), fn_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._installed.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def metrics(self, op_factor) -> dict[str, float]:
        """Per-layer metrics; self times are scaled by ``op_factor(op)``."""
        children: dict[int, list[tuple[float, float]]] = {}
        parent_of: dict[int, int | None] = {}
        name_of: dict[int, str] = {}
        for sid, parent, _op, _thread, name, t0, t1, _extra in self.spans:
            parent_of[sid] = parent
            name_of[sid] = name
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))

        calls = dict.fromkeys(span_names(), 0)
        self_s = dict.fromkeys(span_names(), 0.0)
        cells = min_in = min_out = candidates = kept = faces = square = 0
        for sid, _parent, op, _thread, name, t0, t1, extra in self.spans:
            calls[name] += 1
            covered = _union_length(children.get(sid, ()), t0, t1)
            self_s[name] += (t1 - t0 - covered) * op_factor(op)
            if extra is None:
                pass
            elif name == "exactmath.lp_solve":
                cells += extra
            elif name == "exactmath.polytope_minimize":
                min_in += extra[0]
                min_out += extra[1]
            elif name == "beliefs.compose":
                candidates += extra[0]
                kept += extra[1]
            elif name in MAXMIN_SPANS:
                faces += extra
            if name == "exactmath.solve_square_system":
                up = parent_of.get(sid)
                while up is not None and name_of.get(up) not in MAXMIN_SPANS:
                    up = parent_of.get(up)
                if up is not None:
                    square += 1

        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["exactmath.lp_solve.tableau_cells"] = cells
        out["exactmath.polytope_minimize.kept_ratio"] = _ratio(min_out, min_in)
        out["maxmin.face.useful_ratio"] = _ratio(faces, square)
        out["beliefs.compose.candidates"] = candidates
        out["beliefs.compose.kept_ratio"] = _ratio(kept, candidates)
        return out


def _ratio(part: int, base: int) -> float:
    """part/base, or 0 when the layer did no such work."""
    return part / base if base else 0.0


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
