"""Depth-first exact reachability with over-approximation pruning.

The engine explores the tree of linear regions produced by splitting on each
ReLU neuron. Before expanding a branch it can propagate a cheap relaxed set
through the remaining layers; a branch whose relaxed output provably misses
every unsafe domain is dropped, which prunes the whole subtree while leaving
the union of discovered unsafe regions unchanged.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import fvim
from . import vzono
from .model import IDENTITY


@dataclass(frozen=True)
class UnsafeDomain:
    """Conjunction of halfspaces alpha . y + beta <= 0 describing unsafe outputs."""

    constraints: tuple

    def __init__(self, constraints):
        cons = []
        for a, b in constraints:
            a = np.asarray(a, float)
            if not np.any(a):
                raise ValueError("constraint normal must be nonzero")
            cons.append((a, float(b)))
        object.__setattr__(self, "constraints", tuple(cons))

    def holds(self, y, tol=0.0):
        """True when y satisfies every constraint (is inside the unsafe set)."""
        y = np.asarray(y, float)
        return all(float(a @ y) + b <= tol for a, b in self.constraints)

    def margins(self, ys):
        """(n_points, n_constraints) matrix of alpha . y + beta values."""
        ys = np.atleast_2d(np.asarray(ys, float))
        return np.stack([ys @ a + b for a, b in self.constraints], axis=1)


@dataclass(frozen=True)
class SafetyProperty:
    """Input box plus the unsafe output domain the network must avoid."""

    name: str
    input_lb: np.ndarray
    input_ub: np.ndarray
    unsafe: UnsafeDomain

    def __init__(self, name, input_lb, input_ub, unsafe):
        lb = np.asarray(input_lb, float)
        ub = np.asarray(input_ub, float)
        if lb.shape != ub.shape or lb.ndim != 1:
            raise ValueError("input bounds must be vectors of equal length")
        if not (lb < ub).all():
            raise ValueError("input_lb must be strictly below input_ub componentwise")
        if not unsafe.constraints:
            raise ValueError("unsafe domain must be nonempty")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "input_lb", lb)
        object.__setattr__(self, "input_ub", ub)
        object.__setattr__(self, "unsafe", unsafe)


@dataclass(frozen=True)
class UnsafeRegion:
    """One unsafe input polytope paired with its output polytope, row by row.

    input_halfspaces: bounding halfspaces (A, b), A x + b <= 0, of the input
        polytope. May be passed in; otherwise left None until the first
        contains_inputs call fits them from `incidence` and caches them here.
    incidence: bool facet-vertex incidence matrix over the rows of
        input_poly (the restricted set's fvim), from which the halfspaces
        are fitted. Exploration only fills this field, so regions that are
        never tested for membership pay no fit.
    """

    input_poly: np.ndarray
    output_poly: np.ndarray
    property_name: str
    input_halfspaces: tuple = None
    incidence: np.ndarray = None

    def contains_inputs(self, points, tol=1e-9):
        if self.input_halfspaces is None:
            if self.incidence is None:
                raise ValueError(
                    "region has neither input_halfspaces nor an incidence matrix to fit them from"
                )
            s = fvim.TrackedSet(self.incidence, self.input_poly, self.output_poly)
            object.__setattr__(self, "input_halfspaces", fvim.facet_halfspaces(s))
        return fvim.contains(self.input_halfspaces, points, tol)


@dataclass(frozen=True)
class ReachOptions:
    use_filter: bool = True
    worker_count: int = 1
    max_sets: int = 10**6
    # base-vertex cap before the relaxed set falls back to its interval hull
    vzono_cap: int = 512

    def __post_init__(self):
        if self.max_sets < 1:
            raise ValueError("max_sets must be at least 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")


@dataclass
class ReachStats:
    explored_sets: int = 0
    pruned_sets: int = 0
    final_sets: int = 0
    peak_live_sets: int = 0

    def merge_from(self, other):
        self.explored_sets += other.explored_sets
        self.pruned_sets += other.pruned_sets
        self.final_sets += other.final_sets
        self.peak_live_sets = max(self.peak_live_sets, other.peak_live_sets)


class MaxSetsExceeded(RuntimeError):
    """Exploration hit the max_sets guardrail; carries partial results."""

    def __init__(self, limit, regions, stats):
        super().__init__(f"exceeded max_sets={limit} explored sets")
        self.regions = regions
        self.stats = stats


def layer_output(net, s, layer):
    """Exact reachable sets of one layer: affine map, then a fold of neuron
    splits in ascending index order (none for an identity output layer).

    Neurons whose sign the mapped set already settles skip the fold: dead
    ones (max <= ON_PLANE_TOL) are zeroed in one write and those with
    min > ON_PLANE_TOL pass unchanged. Split children interpolate the mapped
    set's vertices and a split or clamp touches only its own column, so such
    a neuron would be treated alike in every descendant (a zeroed column
    interpolates to exactly 0). The output is bit-identical to the full fold
    unless an interpolation weight rounds to within an ulp of 1, which needs
    neuron values about 2^52 apart. A min in [0, ON_PLANE_TOL] stays in the
    fold: a split child can lose the part above ON_PLANE_TOL and turn dead.
    """
    if s.layer_cursor != layer:
        raise ValueError(f"set cursor is at layer {s.layer_cursor}, not {layer}")
    ly = net.layers[layer]
    mapped = fvim.affine_map(s, ly.weights, ly.bias)
    sets = [mapped]
    if ly.activation != IDENTITY:
        vals = mapped.current_vertices
        dead = vals.max(axis=0) <= fvim.ON_PLANE_TOL
        vals[:, dead] = 0.0  # affine_map returned a fresh array
        unsettled = ~dead & (vals.min(axis=0) <= fvim.ON_PLANE_TOL)
        for i in np.flatnonzero(unsettled).tolist():
            sets = [child for cur in sets for child in fvim.split_by_neuron(cur, i)]
    return [replace(cur, layer_cursor=layer + 1) for cur in sets]


def output_overapprox(net, s, from_layer, cap=None):
    """Relaxed output set for the remaining layers of one tracked set."""
    if s.layer_cursor != from_layer:
        raise ValueError(f"set cursor is at layer {s.layer_cursor}, not {from_layer}")
    z = vzono.from_tracked(s)
    if cap is not None and z.num_base_vertices > cap:
        z = vzono.interval_hull(z)
    for k in range(from_layer, net.num_layers):
        ly = net.layers[k]
        z = vzono.affine_map(z, ly.weights, ly.bias)
        if ly.activation != IDENTITY:
            z = vzono.relu_layer(z)
    return z


def backtrack(s, unsafe, property_name=""):
    """Intersect a fully propagated set with the unsafe output domain and pull
    the result back to input space through the tracked vertices.

    Returns the unsafe region, or None when the set misses the domain. The
    region shares the restricted set's arrays, which are never written again
    (a fresh keep_leq child, or the final set itself), and carries its
    incidence matrix instead of fitted halfspaces.
    """
    rest = s
    for a, b in unsafe.constraints:
        rest = fvim.keep_leq(rest, a, b)
        if rest is None:
            return None
    return UnsafeRegion(
        input_poly=rest.input_vertices,
        output_poly=rest.current_vertices,
        property_name=property_name,
        incidence=rest.fvim,
    )


class _LiveGauge:
    """Counts sets held for later processing; tracks the high-water mark."""

    def __init__(self, start=0):
        self.current = start
        self.peak = start

    def note(self, delta):
        self.current += delta
        if self.current > self.peak:
            self.peak = self.current


class _Collector:
    """Shared result sink for DFS branches; the one mutex in the engine."""

    def __init__(self, props, opts, collect_final, collect_safe):
        self.lock = threading.Lock()
        self.regions = {p.name: [] for p in props}
        self.safe_sets = [] if collect_safe else None
        self.final_sets = [] if collect_final else None
        self.stats = ReachStats()
        self.opts = opts

    def note_explored(self):
        with self.lock:
            self.stats.explored_sets += 1
            if self.stats.explored_sets > self.opts.max_sets:
                raise MaxSetsExceeded(self.opts.max_sets, self.regions, self.stats)

    def note_pruned(self):
        with self.lock:
            self.stats.pruned_sets += 1

    def add_final(self, s, found):
        with self.lock:
            self.stats.final_sets += 1
            for name, region in found:
                self.regions[name].append(region)
            if not found and self.safe_sets is not None:
                # a final set's arrays are never written again: no copy
                self.safe_sets.append((s.input_vertices, s.current_vertices))
            if self.final_sets is not None:
                self.final_sets.append(s)


def _process_node(net, s, props, opts, col):
    """Handle one DFS node; returns the children still to explore."""
    col.note_explored()
    if s.layer_cursor == net.num_layers:
        found = []
        for p in props:
            region = backtrack(s, p.unsafe, p.name)
            if region is not None:
                found.append((p.name, region))
        col.add_final(s, found)
        return []
    if opts.use_filter and props:
        z = output_overapprox(net, s, s.layer_cursor, cap=opts.vzono_cap)
        if all(vzono.is_provably_safe(z, p.unsafe) for p in props):
            col.note_pruned()
            return []
    return layer_output(net, s, s.layer_cursor)


def _dfs_serial(net, roots, props, opts, col, gauge):
    stack = list(roots)
    while stack:
        s = stack.pop()
        gauge.note(-1)
        children = _process_node(net, s, props, opts, col)
        stack.extend(children)
        gauge.note(len(children))
    return gauge.peak


def _run_dfs(net, lb, ub, props, opts, collect_final=False, collect_safe=False):
    root = fvim.box_polytope(lb, ub)
    col = _Collector(props, opts, collect_final, collect_safe)
    gauge = _LiveGauge(start=1)
    if opts.worker_count <= 1:
        try:
            _dfs_serial(net, [root], props, opts, col, gauge)
        finally:
            col.stats.peak_live_sets = gauge.peak
        return col
    # grow a frontier of independent branches, then fan out to workers
    frontier = [root]
    target = 4 * opts.worker_count
    while frontier and len(frontier) < target:
        s = frontier.pop(0)
        gauge.note(-1)
        children = _process_node(net, s, props, opts, col)
        frontier.extend(children)
        gauge.note(len(children))
    peak = gauge.peak
    if frontier:
        with ThreadPoolExecutor(max_workers=opts.worker_count) as pool:
            futures = [
                pool.submit(_dfs_serial, net, [s], props, opts, col, _LiveGauge(start=1))
                for s in frontier
            ]
            branch_peaks = [f.result() for f in futures]
        # schedule-independent high-water: branches drained in submission
        # order while the rest of the frontier waits
        n = len(frontier)
        peak = max([peak] + [n - 1 - i + p for i, p in enumerate(branch_peaks)])
    col.stats.peak_live_sets = peak
    return col


def _canonical_key(region):
    arr = np.round(region.input_poly, 12) + 0.0
    return (arr.shape[0], arr.tobytes())


def canonical_sort(regions):
    """Schedule-independent ordering: lexicographic by rounded vertex values."""
    return sorted(regions, key=_canonical_key)


def reach_unsafe(net, prop, opts=None, stats=None):
    """All unsafe input regions of one property, in canonical order.

    Raises MaxSetsExceeded (carrying partial results) past the exploration cap.
    """
    result = reach_unsafe_all(net, [prop], opts, stats)
    return result[prop.name]


def reach_unsafe_all(net, properties, opts=None, stats=None, safe_collector=None):
    """Unsafe regions for several properties, grouping properties that share
    an input box into one exploration; a branch is pruned only when provably
    safe for every property of its group.

    Returns {property name: canonically sorted regions}. The regions carry
    no fitted halfspaces until they are asked for: each fits them on its
    first contains_inputs call. When a list is passed as safe_collector it
    receives (input_vertices, output_vertices) pairs of fully-propagated
    sets that are safe for all properties of their group; the arrays are
    the sets' own, so copy before writing to them.
    """
    opts = opts or ReachOptions()
    groups = {}
    for p in properties:
        if len(p.input_lb) != net.input_dim:
            raise ValueError(
                f"property {p.name!r} is {len(p.input_lb)}-dimensional, "
                f"network expects {net.input_dim}"
            )
        key = (p.input_lb.tobytes(), p.input_ub.tobytes())
        groups.setdefault(key, []).append(p)

    regions = {}
    for group in groups.values():
        try:
            col = _run_dfs(
                net, group[0].input_lb, group[0].input_ub, group, opts,
                collect_safe=safe_collector is not None,
            )
        except MaxSetsExceeded as exc:
            # carry everything found so far: finished groups plus this partial one
            partial = dict(regions)
            for name, rs in exc.regions.items():
                partial[name] = canonical_sort(rs)
            exc.regions = partial
            raise
        for p in group:
            regions[p.name] = canonical_sort(col.regions[p.name])
        if safe_collector is not None:
            safe_collector.extend(col.safe_sets)
        if stats is not None:
            stats.merge_from(col.stats)
    return regions


def exact_output_domain(net, prop, opts=None, stats=None):
    """Every final set's output vertices from full exact propagation (no
    pruning); the union of their hulls is the exact output reachable domain."""
    sets = exact_final_sets(net, prop, opts, stats)
    return [np.array(s.current_vertices) for s in sets]


def exact_final_sets(net, prop, opts=None, stats=None, regions=None):
    """Fully propagated tracked sets of the exact analysis, one per linear
    region of the input box.

    When a list is passed as `regions`, the same unpruned exploration also
    backtracks every final set through the property's unsafe domain, and the
    list receives the unsafe regions in canonical order. They are the regions
    reach_unsafe returns: the filter prunes only subtrees that hold none.
    """
    opts = replace(opts or ReachOptions(), use_filter=False)
    props = [] if regions is None else [prop]
    col = _run_dfs(net, prop.input_lb, prop.input_ub, props, opts, collect_final=True)
    if stats is not None:
        stats.merge_from(col.stats)
    if regions is not None:
        regions.extend(canonical_sort(col.regions[prop.name]))
    return sorted(
        col.final_sets, key=lambda s: (np.round(s.input_vertices, 12) + 0.0).tobytes()
    )


def projection_polygon(points, i, j):
    """Convex hull of output vertices projected on axes (i, j), as a vertex
    list for plotting; degenerate projections collapse to their extremes."""
    pts = np.asarray(points, float)[:, [i, j]]
    pts = np.unique(np.round(pts, 12) + 0.0, axis=0)
    if pts.shape[0] <= 2:
        return pts.tolist()
    try:
        from scipy.spatial import ConvexHull

        return pts[ConvexHull(pts).vertices].tolist()
    except Exception:  # collinear points: qhull has no 2-d hull to build
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        return [pts[order[0]].tolist(), pts[order[-1]].tolist()]


def property_to_dict(prop):
    return {
        "name": prop.name,
        "lb": [float(v) for v in prop.input_lb],
        "ub": [float(v) for v in prop.input_ub],
        "unsafe": [
            {"a": [float(v) for v in a], "b": float(b)} for a, b in prop.unsafe.constraints
        ],
    }


def property_from_dict(d):
    unsafe = UnsafeDomain([(np.asarray(c["a"], float), float(c["b"])) for c in d["unsafe"]])
    return SafetyProperty(d["name"], d["lb"], d["ub"], unsafe)
