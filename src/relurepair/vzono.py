"""Over-approximation sets encoded as base vertices plus-minus base vectors.

A set is <C, V>: every signed sum of the base vectors added to each base
vertex is a vertex of the set, so (m, n) arrays stand in for m * 2^n points.
ReLU linear relaxation, affine mapping and linear-constraint minimization all
operate directly on the compact form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VZono:
    """Base vertices (m, d) and base vectors (n, d); vertices are C +- V."""

    base_vertices: np.ndarray
    base_vectors: np.ndarray

    def __post_init__(self):
        c, v = self.base_vertices, self.base_vectors
        if c.ndim != 2 or v.ndim != 2:
            raise ValueError("base vertices and base vectors must be 2-d arrays")
        if c.shape[0] < 1:
            raise ValueError("need at least one base vertex")
        if v.shape[0] > 0 and v.shape[1] != c.shape[1]:
            raise ValueError("base vectors must match base vertex dimension")

    @property
    def dim(self):
        return self.base_vertices.shape[1]

    @property
    def num_base_vertices(self):
        return self.base_vertices.shape[0]

    @property
    def num_base_vectors(self):
        return self.base_vectors.shape[0]


def from_tracked(s):
    """Exact conversion of a tracked set: its current vertices, no base vectors."""
    if s.num_vertices < 1:
        raise ValueError("tracked set has no vertices")
    c = np.array(s.current_vertices, float)
    return VZono(c, np.zeros((0, c.shape[1])))


def affine_map(z, w, b):
    """Map by y = W x + b: base vertices affinely, base vectors linearly."""
    w = np.asarray(w, float)
    b = np.asarray(b, float)
    if w.shape[1] != z.dim:
        raise ValueError(f"W has {w.shape[1]} columns, set is {z.dim}-dimensional")
    return VZono(z.base_vertices @ w.T + b, z.base_vectors @ w.T)


def neuron_bounds(z, i):
    """(lb, ub) of coordinate i over all encoded vertices, without enumeration."""
    radius = float(np.abs(z.base_vectors[:, i]).sum()) if z.num_base_vectors else 0.0
    col = z.base_vertices[:, i]
    return float(col.min()) - radius, float(col.max()) + radius


def column_bounds(z):
    """(lb, ub) arrays of every coordinate at once; neuron_bounds per column."""
    radius = np.abs(z.base_vectors).sum(axis=0)
    return z.base_vertices.min(axis=0) - radius, z.base_vertices.max(axis=0) + radius


def _relax_coeffs(lb, ub):
    """Slope and half-gap (lam, mu) of the ReLU band over [lb, ub]; see relu_relax."""
    return ub / (ub - lb), -ub * lb / (2.0 * (ub - lb))


def relu_relax(z, i, lb, ub):
    """Zonotope relaxation of ReLU on coordinate i for a range spanning zero.

    With slope lam = ub/(ub-lb) and half-gap mu = -ub*lb/(2(ub-lb)) > 0, the
    relaxed coordinate is lam*x_i + mu with one fresh generator mu*e_i;
    existing base vectors keep their i-components scaled by lam so the band
    stays sound after earlier affine mixing.
    """
    if not (lb < 0.0 < ub):
        raise ValueError(f"relaxation needs lb < 0 < ub, got ({lb}, {ub})")
    lam, mu = _relax_coeffs(lb, ub)
    c = z.base_vertices.copy()
    c[:, i] = lam * c[:, i] + mu
    v = z.base_vectors.copy()
    if v.shape[0]:
        v[:, i] = lam * v[:, i]
    fresh = np.zeros((1, z.dim))
    fresh[0, i] = mu
    return VZono(c, np.vstack([v, fresh]) if v.shape[0] else fresh)


def relu_layer(z):
    """Apply ReLU across all coordinates: zero the surely-negative ones, keep
    the surely-positive ones, relax the spanning ones. Always one output set.

    All columns are handled in one pass. Relaxing neuron i reads and writes
    column i only, and its fresh generator is zero outside column i, so the
    result equals relaxing neuron by neuron in ascending order; the fresh
    generators are appended in that order.
    """
    lb, ub = column_bounds(z)
    dead = ub <= 0.0
    span = ~dead & (lb < 0.0)
    if not (dead.any() or span.any()):
        return z
    c = z.base_vertices.copy()
    v = z.base_vectors.copy()
    c[:, dead] = 0.0
    v[:, dead] = 0.0
    cols = np.flatnonzero(span)
    lam, mu = _relax_coeffs(lb[cols], ub[cols])
    c[:, cols] = lam * c[:, cols] + mu
    v[:, cols] = lam * v[:, cols]
    fresh = np.zeros((cols.size, z.dim))
    fresh[np.arange(cols.size), cols] = mu
    return VZono(c, np.vstack([v, fresh]))


def _normal(alpha, dim):
    alpha = np.asarray(alpha, float)
    if alpha.shape != (dim,):
        raise ValueError(f"alpha has shape {alpha.shape}, expected ({dim},)")
    return alpha


def constraint_min(z, alpha, beta):
    """Exact minimum of alpha . y + beta over all encoded vertices."""
    alpha = _normal(alpha, z.dim)
    base = z.base_vertices @ alpha + beta
    radius = float(np.abs(z.base_vectors @ alpha).sum()) if z.num_base_vectors else 0.0
    return float(base.min()) - radius


def support(z, alpha):
    """Exact maximum of alpha . y over all encoded vertices."""
    alpha = np.asarray(alpha, float)
    base = z.base_vertices @ alpha
    radius = float(np.abs(z.base_vectors @ alpha).sum()) if z.num_base_vectors else 0.0
    return float(base.max()) + radius


def stack_constraints(constraints, dim):
    """The k constraints (alpha, beta) as a (dim, k) matrix with the normals
    as columns and the (k,) offsets. Every normal must have shape (dim,)."""
    constraints = list(constraints)
    if not constraints:
        raise ValueError("empty conjunction would mark the whole space unsafe")
    normals = np.empty((dim, len(constraints)))
    offsets = np.empty(len(constraints))
    for k, (a, b) in enumerate(constraints):
        normals[:, k] = _normal(a, dim)
        offsets[k] = b
    return normals, offsets


def is_provably_safe(z, unsafe):
    """True iff the set provably misses the unsafe domain (a conjunction of
    halfspaces alpha . y + beta <= 0): some constraint is violated everywhere,
    that is, some constraint_min is positive. All constraints are minimised
    at once against the stacked normals, which an UnsafeDomain holds from
    its construction; a plain list of (alpha, beta) pairs is stacked here.

    A False result means "possibly unsafe" and exact exploration must go on.
    """
    if hasattr(unsafe, "normals") and unsafe.normals.shape[0] == z.dim:
        normals, offsets = unsafe.normals, unsafe.offsets
    else:  # stacking a domain of another dimension raises the shape error
        normals, offsets = stack_constraints(getattr(unsafe, "constraints", unsafe), z.dim)
    # ufunc reductions skip the ndarray-method wrappers, whose overhead
    # outweighs the arithmetic at these sizes. Rounding is monotone, so adding
    # the offsets after the minimum gives the bits of adding them per vertex.
    mins = np.minimum.reduce(z.base_vertices @ normals) + offsets
    if z.num_base_vectors:
        mins -= np.add.reduce(np.abs(z.base_vectors @ normals))
    return any(m > 0.0 for m in mins.tolist())


def interval_hull(z):
    """Coarsen to the axis-aligned bounding box: one base vertex, at most d
    generators. Sound but looser; used to cap base-vertex growth."""
    los, his = column_bounds(z)
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    gens = np.diag(half)
    gens = gens[half > 0.0]
    return VZono(mid[None, :], gens)
