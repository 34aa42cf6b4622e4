"""Over-approximation sets encoded as base vertices plus-minus base vectors.

A set is <C, V>: every signed sum of the base vectors added to each base
vertex is a vertex of the set, so (m, n) arrays stand in for m * 2^n points.
ReLU linear relaxation, affine mapping and linear-constraint minimization all
operate directly on the compact form.

A VZono is a batch of such sets, its members, so that the siblings of one
exact expansion are relaxed together in one pass of numpy calls. A single set
is a batch of one. Each member's base vertices are contiguous rows of the
stacked base vertices, and its base vectors contiguous rows of the stacked
base vectors; the per-member row counts say where each member's rows are.
Per-member minima, maxima and sums reduce each member's rows at once; a
member's column sum adds the member's rows in the order numpy adds that
column of the member alone.

A relaxed set holds no all-zero base vector after an affine map, so none
is left in a network's relaxed output: affine_map drops the base vectors it
maps to zero, as when a layer ignores some of its inputs. That is exact,
since a zero base vector adds nothing to any signed sum, and it would stay
zero under every later affine map and ReLU scaling. One that relu_layer
zeroes, because it lives only in dead columns, goes at the next affine map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VZono:
    """Batch of k sets with stacked base vertices (M, d) and base vectors
    (N, d); member j's vertices are its rows of C +- its rows of V.
    vertex_counts (k,) and vector_counts (k,) give each member's row counts,
    in member order; they default to one member holding every row."""

    base_vertices: np.ndarray
    base_vectors: np.ndarray
    vertex_counts: np.ndarray = None
    vector_counts: np.ndarray = None

    def __post_init__(self):
        c, v = self.base_vertices, self.base_vectors
        if c.ndim != 2 or v.ndim != 2:
            raise ValueError("base vertices and base vectors must be 2-d arrays")
        if v.shape[0] > 0 and v.shape[1] != c.shape[1]:
            raise ValueError("base vectors must match base vertex dimension")
        vc = np.asarray([c.shape[0]] if self.vertex_counts is None else self.vertex_counts, np.intp)
        sc = np.asarray([v.shape[0]] if self.vector_counts is None else self.vector_counts, np.intp)
        if vc.ndim != 1 or vc.shape != sc.shape or vc.size < 1:
            raise ValueError("need one vertex count and one vector count per member")
        # ufunc reductions skip the ndarray-method wrappers, whose overhead
        # outweighs the arithmetic at these sizes
        if np.minimum.reduce(vc) < 1:
            raise ValueError("need at least one base vertex per member")
        if (np.minimum.reduce(sc) < 0 or np.add.reduce(vc) != c.shape[0]
                or np.add.reduce(sc) != v.shape[0]):
            raise ValueError("member row counts must add up to the stacked rows")
        object.__setattr__(self, "vertex_counts", vc)
        object.__setattr__(self, "vector_counts", sc)

    @property
    def dim(self):
        return self.base_vertices.shape[1]

    @property
    def num_members(self):
        return self.vertex_counts.size

    @property
    def num_base_vertices(self):
        """Base vertices of all members."""
        return self.base_vertices.shape[0]

    @property
    def num_base_vectors(self):
        """Base vectors of all members."""
        return self.base_vectors.shape[0]


def _starts(counts):
    """Index of each member's first row."""
    return counts.cumsum() - counts


def _member_sums(rows, counts):
    """(k, cols) sums of each member's rows, each column summed as numpy sums
    that member's column alone (pairwise, as np.abs(v[:, i]).sum() does).

    Every member's segment is given a leading zero row, so a member without
    rows sums to 0 and reduceat, which adds a segment's first row to the sum
    of the rest, adds 0 to the sum of the member's own rows.
    """
    k = counts.size
    starts = _starts(counts + 1)
    padded = np.empty((rows.shape[0] + k, rows.shape[1]))
    padded[starts] = 0.0
    padded[np.arange(rows.shape[0]) + np.arange(1, k + 1).repeat(counts)] = rows
    return np.add.reduceat(padded, starts, axis=0)


def _ranges(starts, counts):
    """Concatenation of arange(start, start + count) over the members."""
    return (starts - _starts(counts)).repeat(counts) + np.arange(counts.sum())


def from_tracked(sets):
    """Exact conversion of tracked sets, one member each: its current
    vertices and no base vectors."""
    vertices = [s.current_vertices for s in sets]
    if not vertices:
        raise ValueError("need at least one tracked set")
    counts = np.array([len(a) for a in vertices], np.intp)
    if np.minimum.reduce(counts) < 1:
        raise ValueError("tracked set has no vertices")
    c = np.concatenate(vertices, dtype=float)
    return VZono(c, np.zeros((0, c.shape[1])), counts, np.zeros(counts.size, np.intp))


def affine_map(z, w, b):
    """Map every member by y = W x + b: base vertices affinely, base vectors
    linearly. The result holds no all-zero base vector: one that W maps to
    zero is dropped, which leaves every member's point set as it is. A
    member may be left with no base vectors, only its base vertices."""
    w = np.asarray(w, float)
    b = np.asarray(b, float)
    if w.shape[1] != z.dim:
        raise ValueError(f"W has {w.shape[1]} columns, set is {z.dim}-dimensional")
    v = z.base_vectors @ w.T
    sc = z.vector_counts
    live = v.any(axis=1)
    if not live.all():
        sc = np.bincount(np.arange(sc.size).repeat(sc)[live], minlength=sc.size)
        v = v[live]
    return VZono(z.base_vertices @ w.T + b, v, z.vertex_counts, sc)


def column_bounds(z):
    """(lb, ub) arrays (k, d) of every member's every coordinate at once."""
    radius = _member_sums(np.abs(z.base_vectors), z.vector_counts)
    starts = _starts(z.vertex_counts)
    return (np.minimum.reduceat(z.base_vertices, starts, axis=0) - radius,
            np.maximum.reduceat(z.base_vertices, starts, axis=0) + radius)


def _relax_coeffs(lb, ub):
    """Slope and half-gap (lam, mu) of the ReLU band over [lb, ub] with
    lb < 0 < ub: the relaxed coordinate is lam*x + mu with one fresh
    generator mu*e_i."""
    return ub / (ub - lb), -ub * lb / (2.0 * (ub - lb))


def relu_layer(z):
    """Apply ReLU across all coordinates of every member: zero the surely-
    negative ones, keep the surely-positive ones, relax the spanning ones.
    Always one output set per member.

    Each member's bounds decide its own columns. Relaxing neuron i of a
    member reads and writes column i of that member's rows only, and its
    fresh generator is zero outside column i, so the result equals relaxing
    the member neuron by neuron in ascending order: with slope
    lam = ub/(ub-lb) and half-gap mu = -ub*lb/(2(ub-lb)) > 0 the column
    becomes lam*x_i + mu, existing base vectors keep their i-components
    scaled by lam, and one fresh base vector mu*e_i is appended after the
    member's own base vectors, in ascending column order. The given set's
    arrays are not written. A zeroed coordinate of a base vector may be -0.0.
    """
    lb, ub = column_bounds(z)
    dead = ub <= 0.0
    span = ~dead & (lb < 0.0)
    if not (dead.any() or span.any()):
        return z
    jj, cols = span.nonzero()  # by member, then ascending column
    lam, mu = _relax_coeffs(lb[jj, cols], ub[jj, cols])
    # per member and column: x -> scale * x + shift, with scale 0 on dead
    # columns, lam on spanning ones and 1 elsewhere, shift mu or 0; scaling
    # by 1 and adding 0 keep every value
    scale = (~dead).astype(float)
    scale[jj, cols] = lam
    shift = np.zeros_like(lb)
    shift[jj, cols] = mu
    vc, sc = z.vertex_counts, z.vector_counts
    c = z.base_vertices * scale.repeat(vc, axis=0)
    c += shift.repeat(vc, axis=0)
    v = z.base_vectors * scale.repeat(sc, axis=0)
    if not jj.size:
        return VZono(c, v, vc, sc)
    fresh = np.add.reduce(span, axis=1)
    # member j's own rows move down by the fresh rows of earlier members; its
    # fresh rows follow its own, so the t-th fresh row lands t rows past the
    # end of its member's own rows
    out = np.zeros((v.shape[0] + jj.size, z.dim))
    out[np.arange(v.shape[0]) + _starts(fresh).repeat(sc)] = v
    out[sc.cumsum()[jj] + np.arange(jj.size), cols] = mu
    return VZono(c, out, vc, sc + fresh)


def is_provably_safe(z, unsafe):
    """Per member, True iff it provably misses the unsafe domain, a
    reach.UnsafeDomain (a conjunction of halfspaces alpha . y + beta <= 0):
    some constraint is violated everywhere on it, that is, alpha . y + beta
    has a positive minimum over the member. Returns a (k,) bool array. All
    constraints are minimised at once against the domain's stacked normals
    (dim, k) and offsets (k,); normals of another dimension than the set's
    raise ValueError.

    False means "possibly unsafe" and exact exploration must go on.
    """
    normals, offsets = unsafe.normals, unsafe.offsets
    if normals.shape[0] != z.dim:
        raise ValueError(f"unsafe normal has length {normals.shape[0]}, set is {z.dim}-dimensional")
    # Rounding is monotone, so adding the offsets after the minimum gives the
    # bits of adding them per vertex. A member without base vectors has
    # radius 0, and subtracting 0 changes no bit.
    mins = np.minimum.reduceat(z.base_vertices @ normals, _starts(z.vertex_counts), axis=0)
    mins += offsets
    mins -= _member_sums(np.abs(z.base_vectors @ normals), z.vector_counts)
    return (mins > 0.0).any(axis=1)


def interval_hull(z, members=None):
    """Coarsen members to their axis-aligned bounding boxes: one base vertex
    and at most d generators each, in ascending column order. Sound but
    looser; used to cap base-vertex growth. `members` is a (k,) bool mask of
    the members to coarsen, all of them by default; the others are kept."""
    los, his = column_bounds(z)
    if members is None:
        members = np.ones(z.num_members, bool)
    mid = 0.5 * (los[members] + his[members])
    half = 0.5 * (his[members] - los[members])
    jj, cols = np.nonzero(half > 0.0)
    gens = np.zeros((jj.size, z.dim))
    gens[np.arange(jj.size), cols] = half[jj, cols]
    # each member's rows come from its own arrays or, when coarsened, from
    # its hull's, which are stacked after them
    vc, sc = z.vertex_counts.copy(), z.vector_counts.copy()
    vstart, sstart = _starts(vc), _starts(sc)
    vc[members] = 1
    sc[members] = np.add.reduce(half > 0.0, axis=1)
    vstart[members] = z.num_base_vertices + np.arange(mid.shape[0])
    sstart[members] = z.num_base_vectors + _starts(sc[members])
    c = np.concatenate([z.base_vertices, mid])[_ranges(vstart, vc)]
    v = np.concatenate([z.base_vectors, gens])[_ranges(sstart, sc)]
    return VZono(c, v, vc, sc)
