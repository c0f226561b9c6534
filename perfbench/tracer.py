"""Layer spans recorded from outside the qrl package.

Callers inside qrl resolve their collaborators through module globals at call
time (``_h2_for_probe`` looks up ``qrl.capacity.h2_conditional``,
``_refined_avg`` looks up ``qrl.fisher.avg_trace_qfi``), so replacing those
module attributes with timing wrappers puts a span at every layer boundary
without touching the package.  Spans are kept in memory as
``[name, start_ns, end_ns, parent, info]`` and analysed after the run.

Self time of a span is its duration minus the time its child spans cover.
The objective that a Nelder-Mead call evaluates is the caller's code, so the
wrapper times it and credits that time, less the child spans inside it, to
the calling span instead of to the optimizer.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

_now = time.perf_counter_ns

NM = "optimize.nelder_mead"
LAYERS = ("channel", "optimize", "capacity", "fisher", "harness")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, info(args, kwargs) if info else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()

        return traced

    def wrap_nelder_mead(self, fn):
        spans, stack = self.spans, self._stack

        def traced(f, *args, **kwargs):
            spent = [0]

            def timed_f(x):
                t = _now()
                try:
                    return f(x)
                finally:
                    spent[0] += _now() - t

            rec = [NM, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            res = None
            rec[1] = _now()
            try:
                res = fn(timed_f, *args, **kwargs)
                return res
            finally:
                rec[2] = _now()
                stack.pop()
                rec[4] = (spent[0], getattr(res, "iterations", 0), bool(getattr(res, "converged", False)))

        return traced

    def install(self, qrl):
        """Wrap the module attributes through which each layer is entered.
        Raises AttributeError, before wrapping any, if one of them or a
        stage config is missing, so that a rename cannot pass as a layer
        that was never entered."""
        cap, fis, har = qrl.capacity, qrl.fisher, qrl.harness
        missing = [f"qrl.capacity.{a}" for a in ("_COARSE", "_MEDIUM") if not hasattr(cap, a)]
        patches = [
            (cap, "stinespring_isometry", lambda f: self.wrap("channel.isometry", f)),
            (fis, "stinespring_isometry", lambda f: self.wrap("channel.isometry", f)),
            (cap, "nelder_mead", self.wrap_nelder_mead),
            (fis, "nelder_mead", self.wrap_nelder_mead),
            (cap, "choi_bf", lambda f: self.wrap("channel.choi", f)),
            (fis, "apply_channel", lambda f: self.wrap("channel.apply", f)),
            (cap, "h2_conditional", lambda f: self.wrap("capacity.h2_conditional", f, stage)),
            (har, "best_probe_h2", lambda f: self.wrap("capacity.best_probe_h2", f)),
            (fis, "avg_trace_qfi", lambda f: self.wrap("fisher.avg_trace_qfi", f, grid)),
            (fis, "avg_qfi_at_probe", lambda f: self.wrap("fisher.avg_qfi_at_probe", f)),
            (har, "avg_qfi_at_probe", lambda f: self.wrap("fisher.avg_qfi_at_probe", f)),
            (har, "maximize_over_probe", lambda f: self.wrap("fisher.maximize_over_probe", f)),
            (har, "_eval_point", lambda f: self.wrap("harness.point", f)),
        ]
        missing += [f"{mod.__name__}.{attr}" for mod, attr, _ in patches if not callable(getattr(mod, attr, None))]
        if missing:
            raise AttributeError(f"cannot trace: qrl has no {', '.join(missing)}")
        coarse, medium = cap._COARSE, cap._MEDIUM

        def stage(args, kwargs):
            cfg = args[1] if len(args) > 1 else kwargs.get("config")
            if cfg is coarse:
                return "scan"
            if cfg is medium:
                return "refine"
            return "final"

        def grid(args, kwargs):
            q = args[2] if len(args) > 2 else kwargs["quad"]
            return (q.nr, q.n_theta1, q.n_theta2)

        for mod, attr, make in patches:
            orig = getattr(mod, attr)
            setattr(mod, attr, make(orig))
            self._undo.append((mod, attr, orig))

    def uninstall(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def root(self, name):
        """Wrapper factory for the benchmark's own call into the front end."""
        return lambda fn: self.wrap(name, fn)


def _bytes_model(nr, n1, n2) -> int:
    """float64 bytes one avg_trace_qfi call materialises, counted from array
    shapes: 12 angular-node arrays once (three 3-vectors and three norms)
    plus 13 per radial slice (b, its three dot products and their squares,
    the denominator, mask and integrand temporaries)."""
    return 8 * n1 * n2 * (12 + 13 * nr)


def analyse(spans, points: int, base_grid: tuple, divergent_rows: int, scale: float = 1.0) -> tuple:
    """Per-point layer metrics from the spans, the ladder-depth histogram,
    and each layer's self and inclusive share of all traced time.  Times
    are multiplied by `scale`, the run's reference-speed factor."""
    n = len(spans)
    child = [0] * n
    for name, s, e, parent, _ in spans:
        if parent >= 0:
            child[parent] += e - s
    own = [spans[i][2] - spans[i][1] - child[i] for i in range(n)]
    for i, (name, s, e, parent, info) in enumerate(spans):
        if name == NM:
            # the objective's time outside child spans moves to the caller
            moved = info[0] - child[i]
            own[i] -= moved
            if parent >= 0:
                own[parent] += moved

    # inclusive time of a layer: its spans with no ancestor in the layer
    entered_ns = defaultdict(int)
    above = []  # layers of each span's ancestors
    for name, s, e, parent, _ in spans:
        layer = name.split(".")[0]
        anc = above[parent] | {spans[parent][0].split(".")[0]} if parent >= 0 else frozenset()
        above.append(anc)
        if layer not in anc:
            entered_ns[layer] += e - s

    per = float(max(points, 1))
    layer_ns = defaultdict(int)
    count = Counter()
    incl_ns = defaultdict(int)
    stage_calls, stage_ns, stage_incl_ns = Counter(), defaultdict(int), defaultdict(int)
    nm = {k: [0, 0, 0, 0] for k in ("sigma", "probe")}  # calls, iterations, converged, self ns
    base_calls = ladder_calls = 0
    base_ns = ladder_ns = 0
    qfi_self_ns = nodes = bytes_ = 0
    depths, run = [], 0
    for i, (name, s, e, parent, info) in enumerate(spans):
        layer_ns[name.split(".")[0]] += own[i]
        count[name] += 1
        incl_ns[name] += e - s
        if name == "capacity.h2_conditional":
            stage_calls[info] += 1
            stage_ns[info] += own[i]
            stage_incl_ns[info] += e - s
        elif name == NM:
            kind = "sigma" if parent >= 0 and spans[parent][0] == "capacity.h2_conditional" else "probe"
            nm[kind][0] += 1
            nm[kind][1] += info[1]
            nm[kind][2] += info[2]
            nm[kind][3] += own[i]
        elif name == "fisher.avg_trace_qfi":
            nr, n1, n2 = info
            nodes += nr * n1 * n2
            bytes_ += _bytes_model(nr, n1, n2)
            qfi_self_ns += own[i]
            if nr == base_grid[0] and n1 > base_grid[1]:
                ladder_calls += 1
                ladder_ns += e - s
                run += 1
            else:
                if info == base_grid:
                    base_calls += 1
                    base_ns += e - s
                if run:
                    depths.append(run)
                run = 0
    if run:
        depths.append(run)

    ms = lambda ns: ns * scale / 1e6 / per
    total_ns = sum(layer_ns.values())
    metrics = {
        "channel.isometry.calls": (count["channel.isometry"] / per, "count"),
        "channel.choi.calls": (count["channel.choi"] / per, "count"),
        "channel.self_ms": (ms(layer_ns["channel"]), "ms"),
        "optimize.self_ms": (ms(layer_ns["optimize"]), "ms"),
    }
    for kind in ("sigma", "probe"):
        calls, iters, conv, own_ns = nm[kind]
        metrics[f"optimize.nelder_mead.{kind}.calls"] = (calls / per, "count")
        metrics[f"optimize.nelder_mead.{kind}.iterations"] = (iters / per, "count")
        metrics[f"optimize.nelder_mead.{kind}.converged_ratio"] = (conv / calls if calls else 0.0, "ratio")
        metrics[f"optimize.nelder_mead.{kind}.self_ms"] = (ms(own_ns), "ms")
    metrics["capacity.self_ms"] = (ms(layer_ns["capacity"]), "ms")
    metrics["capacity.best_probe_h2.ms"] = (ms(incl_ns["capacity.best_probe_h2"]), "ms")
    for st in ("scan", "refine", "final"):
        metrics[f"capacity.h2_conditional.{st}.calls"] = (stage_calls[st] / per, "count")
        metrics[f"capacity.h2_conditional.{st}.self_ms"] = (ms(stage_ns[st]), "ms")
        metrics[f"capacity.h2_conditional.{st}.ms"] = (ms(stage_incl_ns[st]), "ms")
    metrics.update({
        "fisher.self_ms": (ms(layer_ns["fisher"]), "ms"),
        "fisher.maximize_over_probe.ms": (ms(incl_ns["fisher.maximize_over_probe"]), "ms"),
        "fisher.avg_qfi_at_probe.ms": (ms(incl_ns["fisher.avg_qfi_at_probe"]), "ms"),
        "fisher.avg_trace_qfi.base.calls": (base_calls / per, "count"),
        "fisher.avg_trace_qfi.base.ms": (ms(base_ns), "ms"),
        "fisher.avg_trace_qfi.ladder.calls": (ladder_calls / per, "count"),
        "fisher.avg_trace_qfi.ladder.ms": (ms(ladder_ns), "ms"),
        "fisher.ladder.depth_mean": (sum(depths) / len(depths) if depths else 0.0, "count"),
        "fisher.avg_trace_qfi.nodes": (nodes / per, "count"),
        "fisher.avg_trace_qfi.ns_per_node": (qfi_self_ns * scale / nodes if nodes else 0.0, "ns"),
        "fisher.avg_trace_qfi.bytes_computed": (bytes_ / per, "bytes"),
        "fisher.divergent_ratio": (divergent_rows / per, "ratio"),
        "harness.self_ms": (ms(layer_ns["harness"]), "ms"),
    })
    hist = Counter(base_grid[1] * 2 ** d for d in depths)
    shares = {
        kind: {layer: ns[layer] / total_ns if total_ns else 0.0 for layer in LAYERS}
        for kind, ns in (("self", layer_ns), ("inclusive", entered_ns))
    }
    return metrics, {f"{k}x{k}": hist[k] for k in sorted(hist)}, shares
