"""Traced runs: spans around the calls into each freecert module.

The layers are the package's modules.  ``install`` wraps their public
functions and the model methods from outside the program, rebinding the
defining module's attribute and every importer's name (``cli`` and
``certifier`` import by name), and ``uninstall`` puts the originals back.

Layer functions are called a few times per op, so each call is kept as a
span: name, start, end, self time, parent span and op id.  Model methods
(``canon``, ``compose``, ...) run millions of times in a pass, so they are
aggregated per name instead of kept one by one; their time still counts as
child time of the span that called them.  A span's self time is its
duration minus the time of its direct children, and the self time of
model calls is also credited to the nearest layer above them ("owned"),
which answers which layer a workload loads.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

# (module, attribute, span name); several functions may share a span name.
LAYER_FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("certifier", "analyze_pair", "certifier.analyze_pair"),
    ("certifier", "nielsen_certify", "certifier.certify"),
    ("certifier", "prop6_certify", "certifier.certify"),
    ("certifier", "prop7_certify", "certifier.certify"),
    ("certifier", "prop8_certify", "certifier.certify"),
    ("certifier", "theorem9_certify", "certifier.certify"),
    ("certifier", "build_witness_chain", "certifier.witness_chain"),
    ("certifier", "chain_base_points", "certifier.chain_base_points"),
    ("isometry", "classify", "isometry.classify"),
    ("isometry", "quasi_axis", "isometry.quasi_axis"),
    ("isometry", "overlap_diameter", "isometry.overlap_diameter"),
    ("isometry", "independence_test", "isometry.independence_test"),
    ("hyperbolicity", "compute_delta", "hyperbolicity.compute_delta"),
    ("acylindricity", "acyl_profile", "acylindricity.acyl_profile"),
    ("acylindricity", "acyl_constants", "acylindricity.acyl_constants"),
    ("oracle", "freeness_to_depth", "oracle.freeness_to_depth"),
    ("oracle", "exceptional_sweep", "oracle.exceptional_sweep"),
]

MODEL_METHODS = ("canon", "compose", "distance", "geodesic", "apply")

LAYERS = ("cli", "certifier", "isometry", "hyperbolicity", "acylindricity", "oracle", "models")


class Tracer:
    """Span stack with per-name totals; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list = []
        self.spans: list = []  # (id, name, start, end, self_s, parent id, op id)
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.owned_s: defaultdict = defaultdict(float)  # layer -> self time incl. model calls beneath
        self.calls_under: Counter = Counter()  # (name, parent name) -> calls
        self.counts: Counter = Counter()  # events and seconds seen by the hooks
        self.op: Optional[int] = None
        self._last_id = 0

    def enter(self, name: str, layer: str, keep: bool) -> list:
        parent = self.stack[-1] if self.stack else None
        owner = parent[2] if layer == "models" and parent is not None else layer
        span_id = None
        if keep:
            self._last_id += 1
            span_id = self._last_id
        frame = [name, parent, owner, self.clock(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = self.clock()
        self.stack.pop()
        name, parent, owner, start, child_s, span_id = frame
        duration = end - start
        own = duration - child_s
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += own
        self.owned_s[owner] += own
        parent_id = None
        if parent is not None:
            parent[4] += duration
            parent_id = parent[5]
            self.calls_under[(name, parent[0])] += 1
        if span_id is not None:
            self.spans.append((span_id, name, start, end, own, parent_id, self.op))
        return duration

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "self_s", "parent", "op"), span))))
                fh.write("\n")


def traced(fn: Callable, tracer: Tracer, name: str, keep: bool, hook: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span; ``hook(tracer, seconds, args, result, exc)`` sees each call."""
    layer = name.split(".")[0]
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name, layer, keep)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            seconds = exit_(frame)
            if hook is not None:
                hook(tracer, seconds, args, None, exc)
            raise
        seconds = exit_(frame)
        if hook is not None:
            hook(tracer, seconds, args, result, None)
        return result

    return wrapper


# ---------------------------------------------------------------------------
# Hooks: counts measured where the work happens
# ---------------------------------------------------------------------------


def _hooks(freecert) -> dict:
    refused_type = freecert.certifier.CertificateRefused
    cap_type = freecert.models.CapExceeded

    def certify(tracer, seconds, args, result, exc):
        if isinstance(exc, refused_type):
            tracer.counts["certifier.refused"] += 1

    def freeness(tracer, seconds, args, result, exc):
        if result is not None and result.verdict == "relation-found":
            tracer.counts["oracle.relation_found"] += 1

    def delta(tracer, seconds, args, result, exc):
        if result is None:
            return
        branch = "tree" if args[0].is_tree else "graph"
        tracer.counts[f"hyperbolicity.{branch}.triples"] += result.triple_count
        tracer.counts[f"hyperbolicity.{branch}.s"] += seconds
        tracer.counts["hyperbolicity.exhaustive"] += bool(result.exhaustive)

    def axis(tracer, seconds, args, result, exc):
        if result is not None:
            tracer.counts["isometry.axis_points"] += len(result.path)

    def model(tracer, seconds, args, result, exc):
        # Count each cap error once, where it is raised, not at every frame
        # it passes through.
        if isinstance(exc, cap_type) and not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            tracer.counts["models.cap_exceeded"] += 1

    def compose(tracer, seconds, args, result, exc):
        tracer.counts["models.compose.letters"] += sum(len(e) for e in args[1:] if isinstance(e, (tuple, list)))
        model(tracer, seconds, args, result, exc)

    return {
        "certifier.certify": certify,
        "oracle.freeness_to_depth": freeness,
        "hyperbolicity.compute_delta": delta,
        "isometry.quasi_axis": axis,
        "models.compose": compose,
        "models": model,
    }


def install(freecert, tracer: Tracer, methods: bool) -> list:
    """Wrap every layer function, and the model methods too when ``methods``.

    Returns the undo list for ``uninstall``.
    """
    hooks = _hooks(freecert)
    modules = [m for name, m in sys.modules.items() if name == "freecert" or name.startswith("freecert.")]
    undo: list = []
    for module_name, attr, name in LAYER_FUNCTIONS:
        original = getattr(getattr(freecert, module_name), attr)
        wrapper = traced(original, tracer, name, True, hooks.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)
    models = freecert.models
    classes = [c for c in vars(models).values() if isinstance(c, type) and issubclass(c, models.ActionModel)]
    for cls in classes if methods else ():
        for method in MODEL_METHODS:
            if method in vars(cls):
                name = f"models.{method}"
                original = vars(cls)[method]
                undo.append((cls, method, original))
                setattr(cls, method, traced(original, tracer, name, False, hooks.get(name, hooks["models"])))
    return undo


def uninstall(undo: list) -> None:
    for target, key, original in reversed(undo):
        setattr(target, key, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, mt: Tracer) -> dict:
    """Per-layer metrics as name -> (value, unit); every name on every workload.

    ``t`` traced layer calls only.  ``mt`` also traced the model methods,
    whose per-call cost would inflate the self time of layers that make
    many cheap model calls, so only the ``models.*`` and word counts come
    from it.
    """
    c, s, calls, counts = t.total_s, t.self_s, t.calls, t.counts
    tree_s, graph_s = counts["hyperbolicity.tree.s"], counts["hyperbolicity.graph.s"]
    words = mt.calls_under[("models.compose", "oracle.freeness_to_depth")]
    owned_total = sum(t.owned_s.values())
    m = {
        "cli.calls": (calls["cli.main"], "count"),
        "cli.self_s": (s["cli.main"], "s"),
        "certifier.analyze_pair.calls": (calls["certifier.analyze_pair"], "count"),
        "certifier.analyze_pair.s": (c["certifier.analyze_pair"], "s"),
        "certifier.certify.calls": (calls["certifier.certify"], "count"),
        "certifier.certify.self_s": (s["certifier.certify"], "s"),
        "certifier.refused_ratio": (_ratio(counts["certifier.refused"], calls["certifier.certify"]), "ratio"),
        "certifier.witness_chain.calls": (calls["certifier.witness_chain"], "count"),
        "certifier.witness_chain.s": (c["certifier.witness_chain"], "s"),
        "certifier.chain_base_points.s": (c["certifier.chain_base_points"], "s"),
        "isometry.classify.calls": (calls["isometry.classify"], "count"),
        "isometry.classify.s": (c["isometry.classify"], "s"),
        "isometry.quasi_axis.calls": (calls["isometry.quasi_axis"], "count"),
        "isometry.quasi_axis.s": (c["isometry.quasi_axis"], "s"),
        "isometry.overlap_diameter.s": (c["isometry.overlap_diameter"], "s"),
        "isometry.axis_points": (counts["isometry.axis_points"], "count"),
        "isometry.independence_test.s": (c["isometry.independence_test"], "s"),
        "hyperbolicity.compute_delta.calls": (calls["hyperbolicity.compute_delta"], "count"),
        "hyperbolicity.compute_delta.s": (c["hyperbolicity.compute_delta"], "s"),
        "hyperbolicity.tree.triples": (counts["hyperbolicity.tree.triples"], "count"),
        "hyperbolicity.tree.s": (tree_s, "s"),
        "hyperbolicity.tree.triples_per_s": (_ratio(counts["hyperbolicity.tree.triples"], tree_s), "1/s"),
        "hyperbolicity.graph.triples": (counts["hyperbolicity.graph.triples"], "count"),
        "hyperbolicity.graph.s": (graph_s, "s"),
        "hyperbolicity.graph.triples_per_s": (_ratio(counts["hyperbolicity.graph.triples"], graph_s), "1/s"),
        "hyperbolicity.exhaustive_ratio": (
            _ratio(counts["hyperbolicity.exhaustive"], calls["hyperbolicity.compute_delta"]), "ratio"),
        "acylindricity.acyl_constants.calls": (calls["acylindricity.acyl_constants"], "count"),
        "acylindricity.acyl_constants.s": (c["acylindricity.acyl_constants"], "s"),
        "oracle.freeness_to_depth.calls": (calls["oracle.freeness_to_depth"], "count"),
        "oracle.freeness_to_depth.s": (c["oracle.freeness_to_depth"], "s"),
        "oracle.self_s": (s["oracle.freeness_to_depth"] + s["oracle.exceptional_sweep"], "s"),
        "oracle.words": (words, "count"),
        "oracle.words_per_s": (_ratio(words, c["oracle.freeness_to_depth"]), "1/s"),
        "oracle.relation_found_ratio": (
            _ratio(counts["oracle.relation_found"], calls["oracle.freeness_to_depth"]), "ratio"),
        "models.compose.calls": (mt.calls["models.compose"], "count"),
        "models.compose.letters": (mt.counts["models.compose.letters"], "count"),
        "models.canon.calls": (mt.calls["models.canon"], "count"),
        "models.canon.self_s": (mt.self_s["models.canon"], "s"),
        "models.distance.calls": (mt.calls["models.distance"], "count"),
        "models.distance.s": (mt.total_s["models.distance"], "s"),
        "models.geodesic.calls": (mt.calls["models.geodesic"], "count"),
        "models.geodesic.s": (mt.total_s["models.geodesic"], "s"),
        "models.apply.calls": (mt.calls["models.apply"], "count"),
        "models.cap_exceeded": (mt.counts["models.cap_exceeded"], "count"),
        "trace.self_s": (owned_total, "s"),
    }
    for layer in LAYERS[:-1]:
        m[f"{layer}.owned_share"] = (_ratio(t.owned_s[layer], owned_total), "ratio")
    return m
