"""Depth-first exact reachability with over-approximation pruning.

The engine explores the tree of linear regions produced by splitting on each
ReLU neuron. It can propagate a cheap relaxed set through the remaining
layers for each branch, for all the sibling branches of one expansion at
once; a branch whose relaxed output provably misses every unsafe domain is
dropped, which prunes the whole subtree while leaving the union of
discovered unsafe regions unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import fvim
from . import vzono
from .model import IDENTITY

# base-vertex cap before a relaxed set falls back to its interval hull
VZONO_CAP = 512


@dataclass(frozen=True)
class UnsafeDomain:
    """Conjunction of halfspaces alpha . y + beta <= 0 describing unsafe outputs."""

    constraints: tuple
    normals: np.ndarray = field(init=False, repr=False, compare=False)  # (dim, k), one column per constraint
    offsets: np.ndarray = field(init=False, repr=False, compare=False)  # (k,)

    def __init__(self, constraints):
        cons = []
        for a, b in constraints:
            a = np.asarray(a, float)
            b = float(b)
            if a.ndim != 1:
                raise ValueError(f"constraint normal must be a vector, got shape {a.shape}")
            if not (np.isfinite(a).all() and np.isfinite(b)):
                raise ValueError("constraint coefficients must be finite")
            if not np.any(a):
                raise ValueError("constraint normal must be nonzero")
            if cons and a.shape != cons[0][0].shape:
                raise ValueError(
                    f"constraint normals have unequal shapes {cons[0][0].shape} and {a.shape}"
                )
            cons.append((a, b))
        if not cons:
            raise ValueError("unsafe domain must be nonempty")
        object.__setattr__(self, "constraints", tuple(cons))
        # stacked once here for vzono.is_provably_safe, which runs per set
        normals, offsets = vzono.stack_constraints(cons, cons[0][0].size)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

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
        if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
            raise ValueError("input bounds must be finite")
        if not (lb < ub).all():
            raise ValueError("input_lb must be strictly below input_ub componentwise")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "input_lb", lb)
        object.__setattr__(self, "input_ub", ub)
        object.__setattr__(self, "unsafe", unsafe)


@dataclass(frozen=True)
class ReachOptions:
    """Exploration settings.

    max_sets caps the sets one call explores, over all its input boxes. The
    relaxed filter's base-vertex cap is the module constant VZONO_CAP.
    With keep_regions=False the unsafe regions are counted in
    ReachStats.unsafe_regions and dropped as they are found, so the result
    maps every property name to an empty list and memory is bounded by the
    depth-first stack (peak_live_sets), not by the number of regions.
    """

    use_filter: bool = True
    max_sets: int = 10**6
    keep_regions: bool = True

    def __post_init__(self):
        if self.max_sets < 1:
            raise ValueError("max_sets must be at least 1")


@dataclass
class ReachStats:
    """Exploration counters. unsafe_regions counts the regions found over
    all properties, whether or not ReachOptions.keep_regions kept them."""

    explored_sets: int = 0
    pruned_sets: int = 0
    final_sets: int = 0
    peak_live_sets: int = 0
    unsafe_regions: int = 0

    def merge_from(self, other):
        self.explored_sets += other.explored_sets
        self.pruned_sets += other.pruned_sets
        self.final_sets += other.final_sets
        self.peak_live_sets = max(self.peak_live_sets, other.peak_live_sets)
        self.unsafe_regions += other.unsafe_regions


class MaxSetsExceeded(RuntimeError):
    """Exploration hit the max_sets guardrail; carries partial results."""

    def __init__(self, limit, regions, stats):
        found = stats.unsafe_regions
        super().__init__(
            f"exceeded max_sets={limit} explored sets; "
            f"{found} unsafe region{'' if found == 1 else 's'} found before the cap"
        )
        self.regions = regions
        self.stats = stats


def layer_output(net, s):
    """Exact reachable sets of the layer at the set's cursor: affine map, then
    a fold of neuron splits in ascending index order (none for an identity
    output layer).

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
    layer = s.layer_cursor
    ly = net.layers[layer]
    mapped = fvim.affine_map(s, ly.weights, ly.bias)
    vals = mapped.current_vertices
    # the mapped set takes the next layer's cursor; split children inherit it
    sets = [fvim.TrackedSet(mapped.fvim, mapped.input_vertices, vals, layer + 1)]
    if ly.activation != IDENTITY:
        dead = vals.max(axis=0) <= fvim.ON_PLANE_TOL
        vals[:, dead] = 0.0  # affine_map returned a fresh array
        unsettled = ~dead & (vals.min(axis=0) <= fvim.ON_PLANE_TOL)
        for i in np.flatnonzero(unsettled).tolist():
            sets = [child for cur in sets for child in fvim.split_by_neuron(cur, i)]
    return sets


def output_overapprox(net, sets):
    """Relaxed output sets for the remaining layers of sibling tracked sets,
    one member per set, in one batch. The sets must share their layer
    cursor. A set with more than VZONO_CAP vertices starts from its interval
    hull.

    Only live neurons are relaxed (see model.Network): the sets' vertices
    are taken at the live inputs of the cursor's layer and mapped through
    net.live_layers. A dead neuron meets a zero weight in every live neuron
    of the next layer, so dropping it changes no live pre-activation; in the
    full pass its base vectors vanish by the output layer, where affine_map
    drops them. The result is the full pass's but for the rounding of sums
    that skip the zero terms."""
    cursors = {s.layer_cursor for s in sets}
    if len(cursors) != 1:
        raise ValueError(f"sets must share one layer cursor, got {sorted(cursors)}")
    cursor = cursors.pop()
    z = vzono.from_tracked(sets, net.live_neurons[cursor])
    big = z.vertex_counts > VZONO_CAP
    if big.any():
        z = vzono.interval_hull(z, big)
    for ly in net.live_layers[cursor:]:
        z = vzono.affine_map(z, ly.weights, ly.bias)
        if ly.activation != IDENTITY:
            z = vzono.relu_layer(z)
    return z


def backtrack(s, unsafe):
    """Intersect a fully propagated set with the unsafe output domain and pull
    the result back to input space through the tracked vertices.

    Returns the set restricted to the domain, which is the unsafe region, or
    None when the set misses the domain. Its input vertices span the unsafe
    input polytope and its current vertices are their images; its arrays are
    never written again (a fresh keep_leq child, or the final set itself).
    """
    rest = s
    for a, b in unsafe.constraints:
        rest = fvim.keep_leq(rest, a, b)
        if rest is None:
            return None
    return rest


def _vertex_key(vertices):
    """Bytes of the vertex rows rounded to 1e-12, with -0.0 folded into 0.0."""
    return (np.round(vertices, 12) + 0.0).tobytes()


def _canonical_key(region):
    """Canonical region order: by vertex count, then by rounded vertex values."""
    return (region.num_vertices, _vertex_key(region.input_vertices))


def _provably_safe(net, sets, props):
    """Per sibling set, whether its relaxed output provably misses the unsafe
    domain of every property: one output_overapprox for all the siblings,
    one is_provably_safe per property while some sibling is still safe."""
    z = output_overapprox(net, sets)
    safe = vzono.is_provably_safe(z, props[0].unsafe)
    for p in props[1:]:
        if not safe.any():
            break
        safe &= vzono.is_provably_safe(z, p.unsafe)
    return safe.tolist()


def _explore(net, groups, opts, stats, collect_final=False):
    """Explore each (lb, ub, props) group's input box depth-first, one stack
    of tracked sets per box; props is nonempty, and a branch is pruned only
    when provably safe for every property of its group.

    Returns (regions by property name, final sets in exploration order or
    None). Every call follows one policy:
    - opts.max_sets caps the sets explored over all groups. Past it,
      MaxSetsExceeded carries every region found so far (finished groups and
      the partial one) and the call's totals;
    - the call's totals are added to `stats`, when given, however the call
      ends, so on MaxSetsExceeded they equal exc.stats;
    - regions are canonically sorted, in the result and in the exception.
    peak_live_sets is the high-water mark of any group's stack, counting
    its root. Each region backtrack returns adds one to unsafe_regions; with
    opts.keep_regions off it is then dropped, and the lists stay empty.

    With the filter on, the relaxed check runs once per expansion, on all
    the children of one layer_output together, and each child is pushed with
    its verdict. A set is counted when it is popped: explored, then the
    max_sets check, then pruned if its verdict says so. Final sets are never
    checked.

    layer_output, output_overapprox and backtrack are called through their
    module-global names, so a tracer that replaces them sees every call.
    """
    total = ReachStats()
    regions = {}
    final_sets = [] if collect_final else None

    def push(stack, sets, props):
        """Push sibling sets, each with whether it is provably safe."""
        if opts.use_filter and sets[0].layer_cursor < net.num_layers:
            stack.extend(zip(sets, _provably_safe(net, sets, props)))
        else:
            stack.extend((s, False) for s in sets)
        total.peak_live_sets = max(total.peak_live_sets, len(stack))

    try:
        for lb, ub, props in groups:
            for p in props:
                regions[p.name] = []
            stack = []
            push(stack, [fvim.box_polytope(lb, ub)], props)
            while stack:
                s, pruned = stack.pop()
                total.explored_sets += 1
                if total.explored_sets > opts.max_sets:
                    raise MaxSetsExceeded(opts.max_sets, regions, total)
                if s.layer_cursor == net.num_layers:
                    total.final_sets += 1
                    for p in props:
                        region = backtrack(s, p.unsafe)
                        if region is not None:
                            total.unsafe_regions += 1
                            if opts.keep_regions:
                                regions[p.name].append(region)
                    if final_sets is not None:
                        final_sets.append(s)
                    continue
                if pruned:
                    total.pruned_sets += 1
                    continue
                push(stack, layer_output(net, s), props)
    finally:
        # in place: an exception's regions are this same dict
        for found in regions.values():
            found.sort(key=_canonical_key)
        if stats is not None:
            stats.merge_from(total)
    return regions, final_sets


def _check_dims(net, prop):
    """Reject a property whose box or unsafe normals do not fit the network."""
    if len(prop.input_lb) != net.input_dim:
        raise ValueError(
            f"property {prop.name!r} is {len(prop.input_lb)}-dimensional, "
            f"network expects {net.input_dim}"
        )
    for a, _ in prop.unsafe.constraints:
        if a.shape != (net.output_dim,):
            raise ValueError(
                f"property {prop.name!r} has an unsafe normal of length {a.size}, "
                f"network has {net.output_dim} outputs"
            )


def check_unique_names(properties):
    """Reject properties that share a name: results are keyed by name."""
    seen = set()
    for p in properties:
        if p.name in seen:
            raise ValueError(f"duplicate property name {p.name!r}")
        seen.add(p.name)


def reach_unsafe(net, prop, opts=None, stats=None):
    """All unsafe input regions of one property, in canonical order.

    With opts.keep_regions off the list is empty and the regions are only
    counted, in stats.unsafe_regions. Raises MaxSetsExceeded (carrying
    partial results) past the exploration cap.
    """
    return reach_unsafe_all(net, [prop], opts, stats)[prop.name]


def reach_unsafe_all(net, properties, opts=None, stats=None):
    """Unsafe regions for several properties, grouping properties that share
    an input box, bit for bit, into one exploration; a branch is pruned only
    when provably safe for every property of its group.

    Returns {property name: canonically sorted regions}, each a
    fvim.TrackedSet restricted to the unsafe domain; property names must be
    unique. Exploration fits no halfspaces; a caller that tests membership
    fits them once per region with fvim.facet_halfspaces. With
    opts.keep_regions off every list is empty, and stats.unsafe_regions
    counts the regions over all properties.

    opts.max_sets caps the sets explored by the whole call, across groups.
    On MaxSetsExceeded, exc.stats holds the call's totals, and so does
    `stats` once they are added to it.
    """
    check_unique_names(properties)
    groups = {}
    for p in properties:
        _check_dims(net, p)
        groups.setdefault((p.input_lb.tobytes(), p.input_ub.tobytes()), []).append(p)
    regions, _ = _explore(
        net,
        [(g[0].input_lb, g[0].input_ub, g) for g in groups.values()],
        opts or ReachOptions(),
        stats,
    )
    return regions


def exact_final_sets(net, prop, opts=None, stats=None):
    """(final sets, unsafe regions) of one unpruned exploration of the
    property's input box. There is one final set per linear region of the
    box, and the union of their output hulls is the exact reachable output
    domain. The regions are canonically sorted and equal reach_unsafe's: the
    filter prunes only subtrees that hold none.
    """
    _check_dims(net, prop)
    opts = replace(opts or ReachOptions(), use_filter=False)
    regions, final_sets = _explore(
        net, [(prop.input_lb, prop.input_ub, [prop])], opts, stats, collect_final=True
    )
    return sorted(final_sets, key=lambda s: _vertex_key(s.input_vertices)), regions[prop.name]


def _half_hull(pts):
    """One chain of Andrew's monotone chain over lexicographically sorted
    distinct points; a turn that is not strictly left is popped, so
    collinear boundary points are dropped."""
    chain = []
    for p in pts:
        x, y = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def check_projection_axes(axes, output_dim):
    """Reject projection axes other than two integer output indices."""
    text = "(" + ",".join(map(str, axes)) + ")"
    if len(axes) != 2 or not all(isinstance(k, (int, np.integer)) for k in axes):
        raise ValueError(f"projection axes {text} must be two integers")
    if min(axes) < 0 or max(axes) >= output_dim:
        raise ValueError(f"projection axes {text} out of range for {output_dim} outputs")


def projection_polygon(points, i, j):
    """Convex hull of output vertices projected on axes (i, j), as a vertex
    list for plotting: counter-clockwise from the lexicographically smallest
    vertex, with coordinates rounded to 1e-12. Collinear boundary points are
    dropped, so a degenerate projection collapses to its two lexicographic
    extremes (or its one distinct point). Raises ValueError on non-finite
    points."""
    pts = np.asarray(points, float)[:, [i, j]]
    if not np.isfinite(pts).all():
        raise ValueError("projection points must be finite")
    pts = np.round(pts, 12) + 0.0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.ones(len(pts), bool)
    distinct[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[distinct].tolist()
    if len(pts) <= 2:
        return pts
    return _half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1]


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
    cons = d["unsafe"]
    if not (isinstance(cons, list) and all(isinstance(c, dict) for c in cons)):
        raise ValueError('unsafe must be a list of {"a", "b"} objects')
    unsafe = UnsafeDomain([(np.asarray(c["a"], float), float(c["b"])) for c in cons])
    return SafetyProperty(d["name"], d["lb"], d["ub"], unsafe)
