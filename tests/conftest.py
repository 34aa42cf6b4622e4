"""Shared oracles and generators for the test suite.

The helpers here are deliberately independent of the library paths they
check: brute-force vertex enumeration, straight-line forward evaluation,
least-squares affine fits.
"""

import itertools

import numpy as np
import pytest

from relurepair.fvim import ON_PLANE_TOL, TrackedSet
from relurepair.model import IDENTITY, RELU, Layer, Network, NNetFormatError, forward_batch
from relurepair import fixtures as fx
from relurepair import vzono
from relurepair.reach import VZONO_CAP, SafetyProperty, UnsafeDomain
from relurepair.vzono import VZono, _normal, _relax_coeffs


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


# Forms no command calls, kept as references and oracles: bounds, invariants
# and membership of a tracked set, the one-set constraint minimum, one-vector
# evaluation, the MSE loss, and membership of an unsafe domain.


def validate(s):
    """Check incidence-structure invariants; raises AssertionError on failure."""
    d = s.input_dim
    nf, nv = s.fvim.shape
    assert s.fvim.dtype == bool
    assert nv == s.num_vertices == s.current_vertices.shape[0]
    col_counts = s.fvim.sum(axis=0)
    assert (col_counts >= d).all(), "every vertex must lie on at least d facets"
    if d >= 2:
        row_counts = s.fvim.sum(axis=1)
        assert (row_counts >= d).all(), "every facet must contain at least d vertices"
    rows = {s.fvim[r].tobytes() for r in range(nf)}
    assert len(rows) == nf, "duplicate facet rows"
    return True


def dim_bounds(s, i):
    """Exact (min, max) of current coordinate i, read off the vertices."""
    col = s.current_vertices[:, i]
    return float(col.min()), float(col.max())


def contains(halfspaces, points, tol=ON_PLANE_TOL):
    """Membership mask of points against (A, b) halfspaces A x + b <= tol."""
    a, b = halfspaces
    points = np.atleast_2d(np.asarray(points, float))
    return (points @ a.T + b <= tol).all(axis=1)


def constraint_min(z, alpha, beta):
    """Exact minimum of alpha . y + beta over all encoded vertices of a
    one-member set."""
    if z.num_members != 1:
        raise ValueError(f"constraint_min takes one set, got a batch of {z.num_members}")
    alpha = _normal(alpha, z.dim)
    base = z.base_vertices @ alpha + beta
    radius = float(np.abs(z.base_vectors @ alpha).sum()) if z.num_base_vectors else 0.0
    return float(base.min()) - radius


def forward(net, x):
    """Evaluate the network on one input vector."""
    x = np.asarray(x, float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.input_dim},)")
    for ly in net.layers:
        x = ly.weights @ x + ly.bias
        if ly.activation == RELU:
            x = np.maximum(x, 0.0)
    return x


def mse_loss(net, xs, ys):
    """Mean squared error over all output entries of a batch."""
    pred = forward_batch(net, xs)
    return float(np.mean((pred - ys) ** 2))


def holds(u, y, tol=0.0):
    """True when y satisfies every constraint of the unsafe domain u (is
    inside the unsafe set)."""
    y = np.asarray(y, float)
    return all(float(a @ y) + b <= tol for a, b in u.constraints)


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


# The relaxed pass as it was before it mapped live neurons only: every
# neuron of every remaining layer. Kept as the reference for
# reach.output_overapprox.


def full_output_overapprox(net, sets):
    """Relaxed output sets over every neuron of the remaining layers, dead
    ones too."""
    z = vzono.from_tracked(sets)
    big = z.vertex_counts > VZONO_CAP
    if big.any():
        z = vzono.interval_hull(z, big)
    for ly in net.layers[sets[0].layer_cursor:]:
        z = vzono.affine_map(z, ly.weights, ly.bias)
        if ly.activation != IDENTITY:
            z = vzono.relu_layer(z)
    return z


# The NNet loader as it was before it read each layer block with
# numpy.loadtxt: one row at a time, one float() per field. Kept verbatim as
# the reference for the block reader's arrays and error messages.


def _reference_parse_numbers(line, lineno, kind=float):
    # float and int strip whitespace themselves, so each field takes one
    # call; blank fields, such as the one after a trailing comma, are skipped
    try:
        return list(map(kind, filter(str.strip, line.split(","))))
    except ValueError:
        raise NNetFormatError(f"line {lineno}: non-numeric token in {line.strip()!r}") from None


def reference_load_nnet(path):
    """Load a network from an NNet text file.

    Layout: '//' comment lines; a counts line (num_layers, input_dim,
    output_dim, max_layer_size); a layer-sizes line; a symmetric flag;
    input mins, maxes, means, ranges lines; then per layer the weight rows
    (row-major) followed by one bias value per row, all comma-separated.
    """
    with open(path) as f:
        raw = f.readlines()

    lineno = 0
    n = len(raw)

    def next_line():
        nonlocal lineno
        while lineno < n:
            lineno += 1
            text = raw[lineno - 1]
            if text.startswith("//") or text.strip() == "":
                continue
            return text
        raise NNetFormatError(f"line {n}: file ended early")

    counts = _reference_parse_numbers(next_line(), lineno, int)
    if len(counts) < 3:
        raise NNetFormatError(f"line {lineno}: header needs at least 3 counts, got {len(counts)}")
    num_layers, input_dim, output_dim = counts[0], counts[1], counts[2]
    if num_layers < 1 or input_dim < 1 or output_dim < 1:
        raise NNetFormatError(f"line {lineno}: non-positive count in header")

    sizes = _reference_parse_numbers(next_line(), lineno, int)
    if len(sizes) != num_layers + 1:
        raise NNetFormatError(
            f"line {lineno}: expected {num_layers + 1} layer sizes, got {len(sizes)}"
        )
    if sizes[0] != input_dim or sizes[-1] != output_dim:
        raise NNetFormatError(f"line {lineno}: layer sizes disagree with header counts")
    if min(sizes) < 1:
        raise NNetFormatError(f"line {lineno}: layer sizes must be at least 1, got {sizes}")

    next_line()  # symmetric flag, unused
    header = {}
    for name, want in (
        ("mins", input_dim),
        ("maxes", input_dim),
        ("means", input_dim + 1),
        ("ranges", input_dim + 1),
    ):
        vals = _reference_parse_numbers(next_line(), lineno)
        if len(vals) != want:
            raise NNetFormatError(f"line {lineno}: expected {want} {name} values, got {len(vals)}")
        header[name] = vals

    layers = []
    for k in range(num_layers):
        rows, cols = sizes[k + 1], sizes[k]
        w = np.empty((rows, cols))
        row_lines = []  # line of each weight row, then of each bias row
        for r in range(rows):
            vals = _reference_parse_numbers(next_line(), lineno)
            row_lines.append(lineno)
            if len(vals) != cols:
                raise NNetFormatError(
                    f"line {lineno}: layer {k} weight row {r} has {len(vals)} values, expected {cols}"
                )
            w[r] = vals
        b = np.empty(rows)
        for r in range(rows):
            vals = _reference_parse_numbers(next_line(), lineno)
            row_lines.append(lineno)
            if len(vals) != 1:
                raise NNetFormatError(
                    f"line {lineno}: layer {k} bias row {r} has {len(vals)} values, expected 1"
                )
            b[r] = vals[0]
        # float() parses "nan" and "inf"; one check per layer rejects them
        finite = np.concatenate([np.isfinite(w).all(axis=1), np.isfinite(b)])
        if not finite.all():
            raise NNetFormatError(
                f"line {row_lines[int(np.argmin(finite))]}: layer {k} has a non-finite value"
            )
        act = IDENTITY if k == num_layers - 1 else RELU
        layers.append(Layer(w, b, act))

    return Network(layers, **header)
