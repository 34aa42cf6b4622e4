"""Shared oracles and generators for the test suite.

The helpers here are deliberately independent of the library paths they
check: brute-force vertex enumeration, straight-line forward evaluation,
least-squares affine fits.
"""

import itertools

import numpy as np
import pytest

from relurepair.fvim import TrackedSet
from relurepair.model import RELU
from relurepair import fixtures as fx
from relurepair.reach import SafetyProperty, UnsafeDomain
from relurepair.vzono import VZono, _relax_coeffs


def triangle_tracked(vertices):
    """TrackedSet of a 2-d triangle given its three vertices."""
    verts = np.asarray(vertices, float)
    assert verts.shape == (3, 2)
    incidence = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
    return TrackedSet(incidence, verts, verts.copy(), layer_cursor=0)


def enum_vzono_vertices(z):
    """All m * 2^n encoded vertices, materialized. Oracle only; n <= 20."""
    c = z.base_vertices
    v = z.base_vectors
    n = v.shape[0]
    assert n <= 20, "oracle would materialize too many vertices"
    if n == 0:
        return c.copy()
    out = []
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        out.append(c + np.asarray(signs) @ v)
    return np.vstack(out)


# One-neuron forms of the relaxed set, kept as references for vzono's batched
# functions: bounds and relaxation of one coordinate, and the support
# function. They read a VZono as one set.


def neuron_bounds(z, i):
    """(lb, ub) of coordinate i over all encoded vertices, without enumeration."""
    radius = float(np.abs(z.base_vectors[:, i]).sum()) if z.num_base_vectors else 0.0
    col = z.base_vertices[:, i]
    return float(col.min()) - radius, float(col.max()) + radius


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


def support(z, alpha):
    """Exact maximum of alpha . y over all encoded vertices."""
    alpha = np.asarray(alpha, float)
    base = z.base_vertices @ alpha
    radius = float(np.abs(z.base_vectors @ alpha).sum()) if z.num_base_vectors else 0.0
    return float(base.max()) + radius


def straight_forward(net, x):
    """Independent straight-line evaluation with explicit loops."""
    vec = [float(t) for t in x]
    for ly in net.layers:
        w, b = ly.weights, ly.bias
        nxt = []
        for r in range(w.shape[0]):
            acc = float(b[r])
            for c in range(w.shape[1]):
                acc += float(w[r, c]) * vec[c]
            if ly.activation == RELU and acc < 0.0:
                acc = 0.0
            nxt.append(acc)
        vec = nxt
    return np.array(vec)


def forward_from_layer(net, pts, from_layer):
    """Propagate current-space points through layers from_layer..end."""
    x = np.atleast_2d(np.asarray(pts, float))
    for k in range(from_layer, net.num_layers):
        ly = net.layers[k]
        x = x @ ly.weights.T + ly.bias
        if ly.activation == RELU:
            x = np.maximum(x, 0.0)
    return x


def region_points(rng, vertices, count):
    """Random points of a polytope as Dirichlet convex combinations."""
    w = rng.dirichlet(np.ones(vertices.shape[0]), size=count)
    return w @ vertices


def fit_affine(inputs, outputs):
    """Least-squares affine fit outputs ~ A inputs + c; returns (A, c, max residual)."""
    n = inputs.shape[0]
    design = np.hstack([inputs, np.ones((n, 1))])
    coef, *_ = np.linalg.lstsq(design, outputs, rcond=None)
    resid = design @ coef - outputs
    return coef[:-1].T, coef[-1], float(np.abs(resid).max())


def acceptance_networks():
    """The 20 fixed random networks shared by the randomized acceptance
    criteria: 3-4 layers, at most 8 neurons per layer, at most 4 inputs,
    each with a random single-constraint unsafe domain over the unit box."""
    cases = []
    for trial in range(20):
        seed = 100 + trial
        g = np.random.default_rng(seed)
        n_hidden = int(g.integers(2, 4))
        sizes = (
            [int(g.integers(2, 5))]
            + [int(g.integers(2, 9)) for _ in range(n_hidden)]
            + [2]
        )
        net = fx.random_network(sizes, seed=seed)
        alpha = g.normal(size=2)
        beta = float(g.normal() * 0.3)
        prop = SafetyProperty(
            f"rand-{trial}",
            -np.ones(sizes[0]),
            np.ones(sizes[0]),
            UnsafeDomain([(alpha, beta)]),
        )
        cases.append((net, prop))
    return cases


@pytest.fixture(scope="session")
def acceptance_cases():
    return acceptance_networks()
