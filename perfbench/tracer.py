"""Per-layer tracing, loaded only by a run with ``--trace 1``.

The wrappers live here, in the benchmark; negafib is not changed.  Every
public function of every negafib module is replaced, under every name any
negafib module binds it to (modules import functions by name, so
``negafib.solvers.kfib`` and ``negafib.sequence.kfib`` are two bindings of one
function), by a wrapper that records a span: name, start, end and the index
of the enclosing span.  ``IntPoly.__call__`` records spans too.  The
arithmetic dunders of ``RBall`` and ``CBall`` only count calls, since a span
per ball operation would cost more than the operation.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

BALL_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__abs__")
EVAL = "intpoly.IntPoly.__call__"


def _negafib_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "negafib" or name.startswith("negafib.")}


class Tracer:
    def __init__(self, default_prec: int):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.ball_calls = Counter()
        self.tallies = Counter()
        self.default_prec = default_prec
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, label=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name if label is None else name + label(args, kwargs),
                    clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    def _count(self, fn, key):
        calls = self.ball_calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def _hooks(self) -> dict:
        """name -> (span label, action on the result) for functions whose
        arguments or results feed a metric."""
        t = self.tallies

        def profile(args, kwargs, result):
            requested = args[1] if len(args) > 1 else kwargs.get("prec", self.default_prec)
            t["requested_prec_bits"] = max(t["requested_prec_bits"], requested)
            t["effective_prec_bits"] = max(t["effective_prec_bits"], result.precision)

        def roots(args, kwargs, result):
            t["roots_certified"] += len(result)

        def value(args, kwargs, result):
            t["value_bits"] += abs(result).bit_length()

        def window(args, kwargs, result):
            t["value_bits"] += sum(abs(v).bit_length() for v in result.values)

        return {
            "charpoly.compute_roots": (lambda a, kw: f".k{int(a[0])}", profile),
            "charpoly.certified_roots": (None, roots),
            "sequence.kfib": (None, value),
            "sequence.kfib_window": (None, window),
        }

    def install(self) -> None:
        mods = _negafib_modules()
        hooks = self._hooks()
        wrapped = {}  # id(original) -> wrapper
        for modname, mod in mods.items():
            short = modname.partition(".")[2]
            for attr, obj in vars(mod).items():
                if (short and inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self._span(obj, name, *hooks.get(name, (None, None)))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        balls, intpoly = mods["negafib.balls"], mods["negafib.intpoly"]
        for cls in (balls.RBall, balls.CBall):
            for attr in BALL_DUNDERS:
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._count(original, f"balls.{cls.__name__}"))
        poly = intpoly.IntPoly
        self._undo.append((poly, "__call__", poly.__dict__["__call__"]))
        poly.__call__ = self._span(poly.__dict__["__call__"], EVAL)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _parent), inner in zip(spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return dict(out)

    def stages(self, parent_name: str) -> dict:
        """Total seconds of the direct children of every `parent_name` span."""
        spans = self.spans
        out = Counter()
        for name, start, end, parent in spans:
            if parent >= 0 and spans[parent][0] == parent_name:
                out[name] += end - start
        return dict(out)

    def layer_metrics(self, rounds: int, orders, run_facts: dict, speed: float) -> dict:
        """Per-round values of every per-layer metric named in BENCHMARK.json;
        span times are multiplied by `speed`, the run's reference-speed factor."""
        stats = self.by_name()

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0] / rounds

        def total(name):
            return stats.get(name, (0, 0.0, 0.0))[1] * speed / rounds

        def own(name):
            return stats.get(name, (0, 0.0, 0.0))[2] * speed / rounds

        t = self.tallies
        evals, roots = calls(EVAL), t["roots_certified"] / rounds
        m = {
            "cli.format_s": own("cli.run"),
            "cli.output_bytes": run_facts["output_bytes"],
            "cli.roots_cached_s": run_facts["roots_cached_s"],
            "balls.cball_ops": self.ball_calls["balls.CBall"] / rounds,
            "balls.rball_ops": self.ball_calls["balls.RBall"] / rounds,
            "intpoly.evals": evals,
            "intpoly.eval_s": total(EVAL),
            "intpoly.evals_per_root": evals / roots if roots else 0.0,
            "charpoly.certified_roots_calls": calls("charpoly.certified_roots"),
            "charpoly.certified_roots_s": total("charpoly.certified_roots"),
            "charpoly.roots_certified": roots,
        }
        for k in orders:
            m[f"charpoly.compute_roots_s.k{k}"] = total(f"charpoly.compute_roots.k{k}")
        m.update({
            "charpoly.effective_prec_bits": t["effective_prec_bits"],
            "charpoly.requested_prec_bits": t["requested_prec_bits"],
            "charpoly.smallest_root_check_s": total("charpoly.smallest_root_check"),
            "charpoly.dominance_constants_s": total("charpoly.dominance_constants"),
            "charpoly.cross_k_monotonicity_s": total("charpoly.cross_k_monotonicity"),
            "linforms.weil_height_s": total("linforms.weil_height"),
            "linforms.mixed_sign_instance_s": total("linforms.mixed_sign_instance"),
            "linforms.crossing_bound_s": total("linforms.crossing_bound"),
            "reduction.bd_iterate_s": total("reduction.bd_iterate"),
            "reduction.passes": calls("reduction.bd_reduce"),
            "sequence.kfib_calls": calls("sequence.kfib"),
            "sequence.kfib_s": total("sequence.kfib"),
            "sequence.kfib_window_s": total("sequence.kfib_window"),
            "sequence.value_bits": t["value_bits"] / rounds,
            "sequence.binet_eval_s": total("sequence.binet_eval"),
            "solvers.power_scan_s": total("solvers.power_scan"),
            "solvers.pm_intersection_s": total("solvers.pm_intersection"),
            "solvers.repeats_scan_s": total("solvers.repeats_scan"),
            "solvers.k4_pipeline_s": total("solvers.k4_pipeline"),
            "solvers.negative_pair_bounds_s": total("solvers.negative_pair_bounds"),
            "solvers.tail_lower_threshold_s": total("solvers.tail_lower_threshold"),
            "solvers.k4_pipeline_self_s": own("solvers.k4_pipeline"),
            "trace.round_s": run_facts["round_s"],
        })
        return m

    def write(self, path, rounds: int, first_round_spans: int, speed: float) -> None:
        """Aggregates per span name, the stages of k4_pipeline, and the raw
        spans of the first round, all in wall seconds; `speed` converts them
        to the reference speed of the metrics."""
        doc = {
            "rounds": rounds,
            "speed": speed,
            "by_name": {name: {"calls": c, "total_s": tot, "self_s": own}
                        for name, (c, tot, own) in sorted(self.by_name().items())},
            "k4_pipeline_stages_s": self.stages("solvers.k4_pipeline"),
            "ball_calls": dict(self.ball_calls),
            "tallies": dict(self.tallies),
            "first_round_spans": self.spans[:first_round_spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
