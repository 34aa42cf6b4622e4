"""Exact polytope engine: facet-vertex incidence matrices over tracked vertices.

A tracked set carries one linear-region polytope of the input space (its
vertices plus the facet-vertex incidence matrix) together with the images of
those vertices at the current point of propagation. Hyperplane splits operate
on the incidence structure directly, so no LP solving is ever needed.

A split interpolates each new vertex once, in input and current coordinates
together, into one block that both children gather from. Every child owns
exact-size arrays: none is a view that would keep a larger block, or an
ancestor's vertices, alive. keep_leq builds only the side it keeps. No
function writes to the arrays of a set it is given.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Vertices with |value| at or below this are treated as lying on a split
# hyperplane and are shared by both children.
ON_PLANE_TOL = 1e-9


class DegenerateSetError(ValueError):
    """Polytope has too few vertices to be full-dimensional."""


@dataclass(frozen=True)
class TrackedSet:
    """One input-space linear-region polytope plus its current-layer image.

    fvim: bool matrix (num_facets, num_vertices); entry (f, v) marks that
        facet f contains vertex v.
    input_vertices: (num_vertices, input_dim) vertices of the input region.
    current_vertices: (num_vertices, current_dim) images of the same rows at
        the current point of propagation; the map between the two is affine
        on the region.
    layer_cursor: index of the next network layer to process.
    """

    fvim: np.ndarray
    input_vertices: np.ndarray
    current_vertices: np.ndarray
    layer_cursor: int = 0

    @property
    def num_vertices(self):
        return self.input_vertices.shape[0]

    @property
    def input_dim(self):
        return self.input_vertices.shape[1]

    @property
    def current_dim(self):
        return self.current_vertices.shape[1]


def box_polytope(lb, ub):
    """Build the tracked set of an axis-aligned box: 2^d vertices, 2d facets."""
    lb = np.asarray(lb, float)
    ub = np.asarray(ub, float)
    if lb.ndim != 1 or lb.shape != ub.shape:
        raise ValueError("lb and ub must be vectors of equal length")
    d = lb.shape[0]
    if d == 0:
        raise ValueError("box dimension must be at least 1")
    if d > 20:
        raise ValueError(f"box dimension {d} too large for vertex enumeration")
    if not (lb < ub).all():
        bad = int(np.argmax(lb >= ub))
        raise ValueError(f"lb[{bad}]={lb[bad]} is not below ub[{bad}]={ub[bad]}")

    nv = 1 << d
    idx = np.arange(nv)
    bits = (idx[:, None] >> np.arange(d)[None, :]) & 1  # (nv, d)
    vertices = np.where(bits == 1, ub, lb).astype(float)

    fvim = np.zeros((2 * d, nv), dtype=bool)
    for i in range(d):
        fvim[2 * i] = bits[:, i] == 0  # facet x_i = lb_i
        fvim[2 * i + 1] = bits[:, i] == 1  # facet x_i = ub_i
    return TrackedSet(fvim, vertices, vertices.copy(), layer_cursor=0)


def affine_map(s, w, b):
    """Map the current vertices by y = W x + b; incidence and inputs unchanged."""
    w = np.asarray(w, float)
    b = np.asarray(b, float)
    if w.shape[1] != s.current_dim:
        raise ValueError(f"W has {w.shape[1]} columns, set is {s.current_dim}-dimensional")
    return TrackedSet(s.fvim, s.input_vertices, s.current_vertices @ w.T + b, s.layer_cursor)


def _dedupe_rows(mat):
    """Drop duplicate rows, keeping first occurrences in order. A matrix with
    no duplicate row is returned as it is."""
    n = mat.shape[0]
    width = mat.shape[1] * mat.itemsize
    raw = mat.tobytes()
    keys = [raw[k:k + width] for k in range(0, n * width, width)]
    if len(set(keys)) == n:
        return mat
    first = {}
    for r, key in enumerate(keys):
        first.setdefault(key, r)
    return mat[list(first.values())]


def _cut(s, values):
    """The part of a split both children share.

    A negative/positive vertex pair is an edge iff its columns share >= d-1
    facets; each edge gives one new vertex on the hyperplane, interpolated
    in input and current coordinates at once. Returns (rows, incidence, neg,
    pos): rows stacks [input | current] of the parent's vertices and then the
    new ones, and incidence holds the parent's facets over the same columns
    plus a last row for the split hyperplane.
    """
    neg = values < -ON_PLANE_TOL
    pos = values > ON_PLANE_TOL
    d = s.input_dim
    nf, nv = s.fvim.shape
    neg_idx = neg.nonzero()[0]
    pos_idx = pos.nonzero()[0]

    # The shared-facet counts are small integers, exact in float32 (BLAS-backed,
    # unlike integer matmul). Row-major nonzero order is negative-major,
    # positive-minor, the order in which the new vertices are appended.
    f = s.fvim.astype(np.float32)
    ei, ej = (f.take(neg_idx, axis=1).T @ f.take(pos_idx, axis=1) >= d - 1).nonzero()
    p = neg_idx.take(ei)
    q = pos_idx.take(ej)
    n = nv + len(p)
    rows = np.empty((n, d + s.current_dim))
    rows[:nv, :d] = s.input_vertices
    rows[:nv, d:] = s.current_vertices
    vp = values.take(p)
    t = (vp / (vp - values.take(q)))[:, None]
    a = rows.take(p, axis=0)
    np.add(a, t * (rows.take(q, axis=0) - a), out=rows[nv:])

    incidence = np.empty((nf + 1, n), dtype=bool)
    incidence[:nf, :nv] = s.fvim
    np.logical_and(s.fvim.take(p, axis=1), s.fvim.take(q, axis=1), out=incidence[:nf, nv:])
    incidence[nf, :nv] = ~(neg | pos)  # the split-hyperplane row
    incidence[nf, nv:] = True
    return rows, incidence, neg, pos


def _side(s, rows, incidence, drop):
    """One child of a cut: every vertex but the parent's `drop` ones, new
    vertices last. Facet rows with fewer than d vertices are dropped, as are
    repeated rows. None when too few vertices are left to span the space."""
    d = s.input_dim
    keep = np.empty(rows.shape[0], dtype=bool)
    keep[:len(drop)] = ~drop
    keep[len(drop):] = True
    cols = keep.nonzero()[0]
    if len(cols) < d + 1:
        logger.warning("discarding degenerate split child with %d vertices in %d-d", len(cols), d)
        return None
    fv = incidence.take(cols, axis=1)
    fv = fv[np.add.reduce(fv, axis=1) >= max(d, 1)]
    # one exact-size array each: a slice of the gathered rows would keep the
    # other half alive as long as the child
    vertices = rows.take(cols, axis=0)
    return TrackedSet(_dedupe_rows(fv), vertices[:, :d].copy(), vertices[:, d:].copy(),
                      s.layer_cursor)


def _split(s, values):
    """Split a tracked set by the hyperplane {values = 0}.

    `values` holds one scalar per vertex (an affine function of the current
    vertices). Vertices within ON_PLANE_TOL of zero are shared by both
    children. Returns (negative_child, positive_child); either may be None
    when degenerate. Callers guarantee both strict sides are populated.
    """
    rows, incidence, neg, pos = _cut(s, values)
    return _side(s, rows, incidence, pos), _side(s, rows, incidence, neg)


def _with_column(s, i, values):
    cur = s.current_vertices.copy()
    cur[:, i] = values
    return TrackedSet(s.fvim, s.input_vertices, cur, s.layer_cursor)


def split_by_neuron(s, i):
    """Process ReLU neuron i: one set if its input range has a single sign,
    otherwise split by the hyperplane x_i = 0 and zero the negative child.

    Returns the resulting tracked sets (one or two). The input set is never
    written: a dead or clamped neuron gets a copy of the current vertices.
    """
    if s.num_vertices < s.input_dim + 1:
        raise DegenerateSetError(
            f"set has {s.num_vertices} vertices, below the {s.input_dim + 1} needed"
        )
    col = s.current_vertices[:, i]
    lo, hi = col.min(), col.max()
    if hi <= ON_PLANE_TOL:
        return [_with_column(s, i, 0.0)]
    if lo >= -ON_PLANE_TOL:
        # clamp sub-tolerance negatives exactly as ReLU would
        return [s] if lo >= 0.0 else [_with_column(s, i, np.maximum(col, 0.0))]
    neg_child, pos_child = _split(s, col)
    out = []
    if neg_child is not None:
        neg_child.current_vertices[:, i] = 0.0  # fresh from the gather
        out.append(neg_child)
    if pos_child is not None:
        out.append(pos_child)
    return out


def keep_leq(s, alpha, beta):
    """Restrict a tracked set to the halfspace alpha . current + beta <= 0.

    Returns the restricted tracked set, or None when the intersection has no
    interior. Only the kept side of a split is built. Used to pull
    output-space constraints back to input regions.
    """
    alpha = np.asarray(alpha, float)
    values = s.current_vertices @ alpha + beta
    if values.max() <= ON_PLANE_TOL:
        return s
    if values.min() >= -ON_PLANE_TOL:
        return None
    rows, incidence, _, pos = _cut(s, values)
    return _side(s, rows, incidence, pos)


def facet_halfspaces(s):
    """Derive the bounding halfspaces A x + b <= 0 of the input region.

    Each incidence row spans a supporting hyperplane of the input polytope;
    the normal is fit by SVD through the facet's vertices and oriented so the
    vertex centroid satisfies the inequality. A row whose vertices have
    affine rank below d - 1 (relative tolerance 1e-9) spans less than a
    facet, fixes no normal and is skipped. One SVD per facet row, so
    exploration never calls this: only a caller testing membership does.
    """
    pts_all = s.input_vertices
    d = s.input_dim
    centroid = pts_all.mean(axis=0)
    rows_a = []
    rows_b = []
    for r in range(s.fvim.shape[0]):
        pts = pts_all[s.fvim[r]]
        c = pts.mean(axis=0)
        _, sv, vt = np.linalg.svd(pts - c, full_matrices=True)
        if d > 1 and (sv.size < d - 1 or sv[d - 2] <= 1e-9 * sv[0]):
            continue
        normal = vt[-1]
        offset = -float(normal @ c)
        side = float(normal @ centroid) + offset
        if side > 0:
            normal, offset = -normal, -offset
        rows_a.append(normal)
        rows_b.append(offset)
    return np.array(rows_a), np.array(rows_b)
