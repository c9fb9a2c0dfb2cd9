"""Spans around hessbif's public functions, timed from outside the package.

``Tracer.install()`` replaces each function in ``BOUNDARIES`` by a wrapper in
every ``hessbif`` module that holds it, because ``branch``, ``system``, ``cli``
and the package itself bind their own copies with ``from .x import name``.
Each call becomes one span (function, operation id, parent span, start, end,
summary), kept in memory.  Step counts come from the returned ``RKResult``
rather than from wrapping the right-hand side, which would double the cost of
the innermost loop.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (layer, module, function); the layer is the module's short name
BOUNDARIES = (
    ("cli", "hessbif.cli", "main"),
    ("rk", "hessbif.rk", "integrate"),
    ("shooting", "hessbif.shooting", "shoot_boundary_value"),
    ("shooting", "hessbif.shooting", "solve_lambda"),
    ("shooting", "hessbif.shooting", "integrate_profile"),
    ("shooting", "hessbif.shooting", "first_eigenvalue"),
    ("branch", "hessbif.branch", "trace_branch"),
    ("branch", "hessbif.branch", "verify_predictions"),
    ("system", "hessbif.system", "system_boundary_values"),
    ("system", "hessbif.system", "solve_system_shooting"),
    ("system", "hessbif.system", "trace_system_branch"),
    ("system", "hessbif.system", "power_pair_constant"),
    ("core", "hessbif.core", "classify_limits"),
    ("plotting", "hessbif.plotting", "render_branches_svg"),
)
LAYERS = ("cli", "rk", "shooting", "branch", "system", "core", "plotting")
_FN = [fn for _, _, fn in BOUNDARIES]
_LAYER = [layer for layer, _, _ in BOUNDARIES]


def _summary(fn):
    """What a call's result says about the work it did, kept with its span."""
    if fn == "integrate":
        return lambda r: (r.n_steps, r.n_rejected, r.grid_states is not None)
    if fn == "trace_branch":
        return lambda b: (len(b.points), sum(p.seed for p in b.points), len(b.gaps))
    if fn == "trace_system_branch":
        return lambda b: (len(b.points), len(b.gaps))
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = [-1]
        self._patched = []

    def _wrap(self, idx, fn, summarize):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                info = summarize(result) if summarize and result is not None else None
                spans[sid] = (idx, tracer.op, parent, t0, t1, info)

        return wrapper

    def install(self):
        hessbif_modules = [m for name, m in sys.modules.items()
                           if name == "hessbif" or name.startswith("hessbif.")]
        for idx, (_, modname, fn_name) in enumerate(BOUNDARIES):
            orig = getattr(sys.modules[modname], fn_name)
            wrapper = self._wrap(idx, orig, _summary(fn_name))
            for mod in hessbif_modules:
                if getattr(mod, fn_name, None) is orig:
                    self._patched.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self):
        for mod, fn_name, orig in reversed(self._patched):
            setattr(mod, fn_name, orig)
        self._patched.clear()

    def take(self):
        """The spans recorded since the last call."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Each layer's self time: its spans' durations less the time of their child spans."""
    out = dict.fromkeys(LAYERS, 0.0)
    for idx, _, parent, t0, t1, _ in spans:
        out[_LAYER[idx]] += t1 - t0
        if parent >= 0:
            out[_LAYER[spans[parent][0]]] -= t1 - t0
    return out


def layer_metrics(spans):
    """Per-layer counts, times and ratios of one round's spans."""
    n = len(spans)
    self_s = self_times(spans)
    busy = {}
    calls = {}
    # nearest enclosing span of each kind whose IVPs are counted
    enclosing = {fn: [-1] * n for fn in ("solve_lambda", "first_eigenvalue",
                                          "trace_branch", "trace_system_branch")}
    ivps_under = dict.fromkeys(enclosing, 0)
    steps = rejected = grid = 0
    br_points = br_base = br_gaps = sys_points = sys_gaps = 0
    for sid, (idx, _, parent, t0, t1, info) in enumerate(spans):
        fn = _FN[idx]
        dur = t1 - t0
        busy[fn] = busy.get(fn, 0.0) + dur
        calls[fn] = calls.get(fn, 0) + 1
        for name, arr in enclosing.items():
            arr[sid] = sid if fn == name else (arr[parent] if parent >= 0 else -1)
        if fn == "integrate":
            for name, arr in enclosing.items():
                if arr[sid] >= 0:
                    ivps_under[name] += 1
            if info is not None:
                steps += info[0]
                rejected += info[1]
                grid += info[2]
        elif fn == "trace_branch" and info is not None:
            br_points += info[0]
            br_base += info[1]
            br_gaps += info[2]
        elif fn == "trace_system_branch" and info is not None:
            sys_points += info[0]
            sys_gaps += info[1]
    attempts = steps + rejected
    rk_busy = busy.get("integrate", 0.0)
    c = calls.get
    return {
        "rk.ivps": c("integrate", 0),
        "rk.grid_ivps": grid,
        "rk.steps": steps,
        "rk.rejected": rejected,
        "rk.accept_ratio": _ratio(steps, attempts),
        "rk.rhs_evals": 6 * attempts,
        "rk.busy_s": rk_busy,
        "rk.us_per_step": 1e6 * _ratio(rk_busy, attempts),
        "shooting.bv_calls": c("shoot_boundary_value", 0),
        "shooting.lambda_solves": c("solve_lambda", 0),
        "shooting.ivps_per_lambda_solve": _ratio(ivps_under["solve_lambda"],
                                                 c("solve_lambda", 0)),
        "shooting.profiles": c("integrate_profile", 0),
        "shooting.profile_s": busy.get("integrate_profile", 0.0),
        "shooting.eigen_solves": c("first_eigenvalue", 0),
        "shooting.ivps_per_eigen": _ratio(ivps_under["first_eigenvalue"],
                                          c("first_eigenvalue", 0)),
        "shooting.self_s": self_s["shooting"],
        "branch.points": br_points,
        "branch.base_points": br_base,
        "branch.inserted_points": br_points - br_base,
        "branch.gaps": br_gaps,
        "branch.ivps_per_point": _ratio(ivps_under["trace_branch"], br_points),
        "branch.trace_s": busy.get("trace_branch", 0.0),
        "branch.verify_s": busy.get("verify_predictions", 0.0),
        "branch.self_s": self_s["branch"],
        "system.points": sys_points,
        "system.gaps": sys_gaps,
        "system.newton_solves": c("solve_system_shooting", 0),
        "system.bv_calls": c("system_boundary_values", 0),
        "system.ivps_per_point": _ratio(ivps_under["trace_system_branch"], sys_points),
        "system.trace_s": busy.get("trace_system_branch", 0.0),
        "system.power_pair_s": busy.get("power_pair_constant", 0.0),
        "system.self_s": self_s["system"],
        "core.classify_s": busy.get("classify_limits", 0.0),
        "cli.self_s": self_s["cli"],
        "plotting.svg_s": busy.get("render_branches_svg", 0.0),
    }


# metrics whose value is a count or a ratio of counts; they repeat exactly for a seed
COUNT_METRICS = frozenset({
    "rk.ivps", "rk.grid_ivps", "rk.steps", "rk.rejected", "rk.accept_ratio", "rk.rhs_evals",
    "shooting.bv_calls", "shooting.lambda_solves", "shooting.ivps_per_lambda_solve",
    "shooting.profiles", "shooting.eigen_solves", "shooting.ivps_per_eigen",
    "branch.points", "branch.base_points", "branch.inserted_points", "branch.gaps",
    "branch.ivps_per_point", "system.points", "system.gaps", "system.newton_solves",
    "system.bv_calls", "system.ivps_per_point", "cli.artifact_bytes",
})


def combine(rounds):
    """One value per metric over traced rounds: counts from the first, times as medians.

    Returns (metrics, mismatched) where mismatched names the counts that differ
    between rounds.
    """
    first = rounds[0]
    mismatched = sorted(k for k in COUNT_METRICS if k in first
                        and any(r[k] != first[k] for r in rounds[1:]))
    out = {}
    for key, value in first.items():
        out[key] = value if key in COUNT_METRICS else statistics.median(r[key] for r in rounds)
    return out, mismatched


def write_spans(path, spans, op_names):
    """Write one round's spans, relative to the first start, with each layer's self time."""
    base = spans[0][3] if spans else 0.0
    with open(path, "w") as fh:
        json.dump({
            "columns": ["layer", "function", "op", "parent", "start_s", "end_s", "summary"],
            "ops": op_names,
            "layer_self_s": self_times(spans),
            "spans": [[_LAYER[idx], _FN[idx], op, parent, round(t0 - base, 7),
                       round(t1 - base, 7), info]
                      for idx, op, parent, t0, t1, info in spans],
        }, fh)
