"""Spans around the program's layer boundaries, installed from outside.

Each traced function is replaced on the module through which its caller looks
it up (for example `relurepair.repair.train`, since repair imported `train`
by name), and restored by `Tracer.uninstall`. A span records name, start,
end, parent span and query id; spans stay in memory until `write`.

Time metrics `<layer>.<function>_s` are inclusive times of that function's
spans; `<layer>.self_s` is the self time of all the layer's spans (duration
minus the part covered by child spans), so the self times of the six layers
add up to the traced query time. All metrics are per round of queries.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "model", "fvim", "vzono", "reach", "repair")

# (name, unit, better); the order is the order of the printed metrics
METRICS = [
    ("fvim.split_by_neuron_s", "s", "lower"),
    ("fvim.split_by_neuron_calls", "count", "lower"),
    ("fvim.two_way_splits", "count", "lower"),
    ("fvim.vertices_out", "count", "lower"),
    ("fvim.affine_map_s", "s", "lower"),
    ("fvim.keep_leq_s", "s", "lower"),
    ("fvim.facet_halfspaces_s", "s", "lower"),
    ("fvim.facet_rows", "count", "lower"),
    ("vzono.relu_layer_s", "s", "lower"),
    ("vzono.relu_layer_calls", "count", "lower"),
    ("vzono.base_vectors_out", "count", "lower"),
    ("vzono.is_provably_safe_s", "s", "lower"),
    ("reach.layer_output_s", "s", "lower"),
    ("reach.output_overapprox_s", "s", "lower"),
    ("reach.backtrack_s", "s", "lower"),
    ("reach.exact_final_sets_s", "s", "lower"),
    ("reach.projection_polygon_s", "s", "lower"),
    ("reach.explored_sets", "count", "lower"),
    ("reach.pruned_sets", "count", "higher"),
    ("reach.final_sets", "count", "lower"),
    ("reach.peak_live_sets", "count", "lower"),
    ("reach.prune_yield", "ratio", "higher"),
    ("model.train_s", "s", "lower"),
    ("model.train_calls", "count", "lower"),
    ("model.accuracy_s", "s", "lower"),
    ("model.load_nnet_s", "s", "lower"),
    ("repair.iterations", "count", "lower"),
    ("repair.reach_s", "s", "lower"),
    ("repair.unsafe_volume_ratio_s", "s", "lower"),
    ("repair.representative_pairs_s", "s", "lower"),
    ("repair.pairs_corrected", "count", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("cli.load_s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.query_id = -1
        self._stack = []  # [span index, seconds covered by children]
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.peak_live_sets = 0
        self._patches = []

    # ------------------------------------------------------------ spans

    def _open(self, nid):
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def _close(self, nid):
        t = time.perf_counter()
        idx, covered = self._stack.pop()
        dur = t - self.start[idx]
        self.end[idx] = t
        name = self.names[nid]
        self.inclusive[name] += dur
        self.self_time[name] += dur - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, module, attr, name, before=None, after=None):
        """Replace module.attr by a spanned call until `uninstall`.
        `before(bound_args)` may rewrite the arguments and returns what
        `after(context, result)` receives; without `before` the context is
        the positional args."""
        original = getattr(module, attr)
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        sig = inspect.signature(original) if before else None

        def traced(*args, **kwargs):
            context = args
            if before:
                bound = sig.bind(*args, **kwargs)
                context = before(bound)
                args, kwargs = bound.args, bound.kwargs
            self._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(nid)
            if after:
                after(context, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original, traced))

    def install(self):
        """Span every layer boundary of relurepair, under the caller's names."""
        if not self._patches:
            self._wrap_program()
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self):
        """Put the program's own functions back."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # ------------------------------------------------------------ program

    def _wrap_program(self):
        # by module path: the package re-exports a function named `repair`
        cli, fvim, reach, repair, vzono = (
            importlib.import_module(f"relurepair.{m}")
            for m in ("cli", "fvim", "reach", "repair", "vzono"))
        ReachStats = reach.ReachStats

        counts = self.counts

        def with_stats(bound):
            # callers that pass no ReachStats get one, so every exploration counts
            if bound.arguments.get("stats") is None:
                bound.arguments["stats"] = ReachStats()
            stats = bound.arguments["stats"]
            return stats, (stats.explored_sets, stats.pruned_sets, stats.final_sets)

        def read_stats(context, result):
            stats, (e, p, f) = context
            counts["reach.explored_sets"] += stats.explored_sets - e
            counts["reach.pruned_sets"] += stats.pruned_sets - p
            counts["reach.final_sets"] += stats.final_sets - f
            self.peak_live_sets = max(self.peak_live_sets, stats.peak_live_sets)

        def emitted(args, result):
            out = args[1] if len(args) > 1 else None
            if out:
                counts["cli.out_bytes"] += os.path.getsize(out)

        def split(args, result):
            counts["fvim.two_way_splits"] += len(result) == 2
            counts["fvim.vertices_out"] += sum(s.num_vertices for s in result)

        def facets(args, result):
            counts["fvim.facet_rows"] += result[0].shape[0]

        def relaxed(args, result):
            counts["vzono.base_vectors_out"] += result.num_base_vectors

        def pairs(args, result):
            counts["repair.pairs_corrected"] += len(result)

        def repaired(args, result):
            counts["repair.iterations"] += len(result[1].iterations)

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "_emit", "cli.emit", after=emitted)
        self.wrap(cli, "_load_properties", "cli.load_properties")
        self.wrap(cli, "_load_dataset", "cli.load_dataset")
        self.wrap(cli, "load_nnet", "model.load_nnet")
        self.wrap(cli, "save_nnet", "model.save_nnet")
        self.wrap(cli, "reach_unsafe", "reach.reach_unsafe", with_stats, read_stats)
        self.wrap(cli, "exact_final_sets", "reach.exact_final_sets", with_stats, read_stats)
        self.wrap(cli, "projection_polygon", "reach.projection_polygon")
        self.wrap(cli, "repair", "repair.repair", after=repaired)
        self.wrap(repair, "reach_unsafe_all", "reach.reach_unsafe_all", with_stats, read_stats)
        self.wrap(repair, "train", "model.train")
        self.wrap(repair, "accuracy", "model.accuracy")
        self.wrap(repair, "unsafe_volume_ratio", "repair.unsafe_volume_ratio")
        self.wrap(repair, "representative_pairs", "repair.representative_pairs", after=pairs)
        self.wrap(reach, "layer_output", "reach.layer_output")
        self.wrap(reach, "output_overapprox", "reach.output_overapprox")
        self.wrap(reach, "backtrack", "reach.backtrack")
        self.wrap(fvim, "box_polytope", "fvim.box_polytope")
        self.wrap(fvim, "affine_map", "fvim.affine_map")
        self.wrap(fvim, "split_by_neuron", "fvim.split_by_neuron", after=split)
        self.wrap(fvim, "keep_leq", "fvim.keep_leq")
        self.wrap(fvim, "facet_halfspaces", "fvim.facet_halfspaces", after=facets)
        self.wrap(vzono, "from_tracked", "vzono.from_tracked")
        self.wrap(vzono, "interval_hull", "vzono.interval_hull")
        self.wrap(vzono, "affine_map", "vzono.affine_map")
        self.wrap(vzono, "relu_layer", "vzono.relu_layer", after=relaxed)
        self.wrap(vzono, "is_provably_safe", "vzono.is_provably_safe")

    # ------------------------------------------------------------ results

    def metrics(self, rounds, overhead_pct):
        """Every METRICS entry, per round of queries."""
        inc, calls, counts = self.inclusive, self.calls, self.counts
        values = {name: counts[name] for name, unit, _ in METRICS if unit != "s"}
        for name, unit, _ in METRICS:
            if unit == "s" and not name.endswith(".self_s"):
                values[name] = inc[name[:-2]]
        values["fvim.split_by_neuron_calls"] = calls["fvim.split_by_neuron"]
        values["vzono.relu_layer_calls"] = calls["vzono.relu_layer"]
        values["model.train_calls"] = calls["model.train"]
        values["repair.reach_s"] = inc["reach.reach_unsafe_all"]
        values["cli.load_s"] = (inc["cli.load_properties"] + inc["cli.load_dataset"]
                                + inc["model.load_nnet"])
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                t for name, t in self.self_time.items() if name.split(".")[0] == layer)
        values["trace.spans"] = len(self.start)
        out = {name: values[name] / rounds for name, _, _ in METRICS}
        overapprox = calls["reach.output_overapprox"]
        out["reach.prune_yield"] = counts["reach.pruned_sets"] / overapprox if overapprox else 0.0
        out["reach.peak_live_sets"] = self.peak_live_sets
        out["trace.overhead_pct"] = overhead_pct
        return {name: {"value": out[name], "unit": unit} for name, unit, _ in METRICS}

    def write(self, path):
        """All spans as columns: name id, start, end, parent index, query id."""
        with open(path, "w") as f:
            json.dump({
                "names": self.names,
                "name": self.span_name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "query": self.query.tolist(),
            }, f)
