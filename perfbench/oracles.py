"""Checks of the CLI's outputs that do not use the program under test.

Verdicts come from a big-M mixed-integer program over this module's own
interval bounds (scipy.optimize.milp); region geometry is checked with this
module's own numpy forward pass and a Monte-Carlo volume estimate; repaired
networks are read back with this module's own NNet parser.

Every check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import json

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.spatial import ConvexHull, QhullError

from workloads import forward

# |t*| below this is a measure-zero touch of the unsafe set: either verdict holds
MILP_TOL = 1e-7
# a region vertex may sit this far outside the unsafe set or off its image
VERTEX_TOL = 1e-6
MC_SAMPLES = 200_000


def read_nnet(path):
    """Layers [(W, b), ...] of an NNet file, parsed without the program."""
    with open(path) as f:
        rows = [ln.strip() for ln in f if ln.strip() and not ln.startswith("//")]

    def nums(line):
        return [float(t) for t in line.split(",") if t.strip()]

    num_layers = int(nums(rows[0])[0])
    sizes = [int(v) for v in nums(rows[1])]
    pos = 7  # counts, sizes, flag, mins, maxes, means, ranges
    layers = []
    for k in range(num_layers):
        n_out, n_in = sizes[k + 1], sizes[k]
        w = np.array([nums(r) for r in rows[pos:pos + n_out]])
        pos += n_out
        b = np.array([nums(r)[0] for r in rows[pos:pos + n_out]])
        pos += n_out
        if w.shape != (n_out, n_in):
            raise ValueError(f"{path}: layer {k} weights have shape {w.shape}")
        layers.append((w, b))
    return layers


def interval_bounds(layers, lb, ub):
    """Pre-activation (lo, hi) of every hidden layer by interval arithmetic."""
    lo, hi = np.asarray(lb, float), np.asarray(ub, float)
    out = []
    for w, b in layers[:-1]:
        wp, wn = np.maximum(w, 0.0), np.minimum(w, 0.0)
        zlo = wp @ lo + wn @ hi + b
        zhi = wp @ hi + wn @ lo + b
        out.append((zlo, zhi))
        lo, hi = np.maximum(zlo, 0.0), np.maximum(zhi, 0.0)
    return out


def min_violation(layers, lb, ub, unsafe):
    """Solve t* = min over the box of max_j (a_j . f(x) + b_j).

    t* < 0 means an open set of inputs reaches the unsafe domain. Returns
    (t*, x*) with x* the minimizing input.
    """
    n0 = layers[0][0].shape[1]
    bounds = interval_bounds(layers, lb, ub)
    # variable layout: x, then per hidden layer the post-activations, then the
    # binaries of unstable neurons, then t
    post_idx = []
    nvar = n0
    for zlo, _ in bounds:
        post_idx.append(np.arange(nvar, nvar + len(zlo)))
        nvar += len(zlo)
    bin_idx = []
    for zlo, zhi in bounds:
        unstable = (zlo < 0) & (zhi > 0)
        ids = np.full(len(zlo), -1)
        ids[unstable] = np.arange(nvar, nvar + unstable.sum())
        nvar += int(unstable.sum())
        bin_idx.append(ids)
    t_idx = nvar
    nvar += 1

    lo = np.full(nvar, -np.inf)
    hi = np.full(nvar, np.inf)
    lo[:n0], hi[:n0] = lb, ub
    integrality = np.zeros(nvar)
    rows, cols, vals, rlo, rhi = [], [], [], [], []
    r = 0

    def add(terms, low, high):
        nonlocal r
        for c, v in terms:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        rlo.append(low)
        rhi.append(high)
        r += 1

    prev = np.arange(n0)
    for k, (zlo, zhi) in enumerate(bounds):
        w, b = layers[k]
        for i in range(len(zlo)):
            a_i = post_idx[k][i]
            lin = [(int(prev[j]), w[i, j]) for j in np.nonzero(w[i])[0]]
            if zhi[i] <= 0:  # always off
                lo[a_i], hi[a_i] = 0.0, 0.0
            elif zlo[i] >= 0:  # always on: a = z
                lo[a_i], hi[a_i] = zlo[i], zhi[i]
                add([(a_i, 1.0)] + [(c, -v) for c, v in lin], b[i], b[i])
            else:
                d_i = int(bin_idx[k][i])
                lo[a_i], hi[a_i] = 0.0, zhi[i]
                lo[d_i], hi[d_i], integrality[d_i] = 0.0, 1.0, 1
                # a >= z
                add([(a_i, 1.0)] + [(c, -v) for c, v in lin], b[i], np.inf)
                # a <= z - zlo (1 - d)
                add([(a_i, 1.0), (d_i, -zlo[i])] + [(c, -v) for c, v in lin],
                    -np.inf, b[i] - zlo[i])
                # a <= zhi d
                add([(a_i, 1.0), (d_i, -zhi[i])], -np.inf, 0.0)
        prev = post_idx[k]
    w, b = layers[-1]
    for a, beta in unsafe:
        coef = np.asarray(a, float) @ w
        off = float(np.asarray(a, float) @ b) + beta
        terms = [(int(prev[j]), coef[j]) for j in np.nonzero(coef)[0]]
        add(terms + [(t_idx, -1.0)], -np.inf, -off)

    mat = sparse.csr_array((vals, (rows, cols)), shape=(r, nvar))
    cost = np.zeros(nvar)
    cost[t_idx] = 1.0
    res = milp(cost, constraints=LinearConstraint(mat, rlo, rhi), bounds=Bounds(lo, hi),
               integrality=integrality,
               options={"mip_rel_gap": 1e-9, "time_limit": 120.0})
    if res.status != 0:
        raise RuntimeError(f"MILP did not solve: {res.message}")
    return float(res.fun), res.x[:n0]


def max_margin(layers, xs, unsafe):
    """Per input: max_j (a_j . f(x) + b_j); <= 0 means inside the unsafe set."""
    ys = forward(layers, np.atleast_2d(xs))
    return np.max(np.stack([ys @ np.asarray(a) + b for a, b in unsafe], axis=1), axis=1)


def milp_verdict(layers, lb, ub, unsafe):
    """'unsafe', 'safe' or 'boundary' (|t*| within MILP_TOL).

    An 'unsafe' verdict is confirmed on the MILP's witness by the forward pass.
    """
    t, x = min_violation(layers, lb, ub, unsafe)
    if t < -MILP_TOL:
        if max_margin(layers, x, unsafe)[0] > -0.5 * MILP_TOL:
            raise RuntimeError(f"MILP witness does not reach the unsafe set (t*={t})")
        return "unsafe"
    return "safe" if t > MILP_TOL else "boundary"


def check_verify(out_path, expected):
    """The CLI verify output against the MILP verdict of the same instance."""
    with open(out_path) as f:
        results = json.load(f)["results"]
    if len(results) != 1:
        return [f"{out_path}: expected one result, got {len(results)}"]
    got = results[0]["verdict"]
    if expected != "boundary" and got != expected:
        return [f"{out_path}: verdict {got}, MILP says {expected}"]
    if (got == "unsafe") != (results[0]["region_count"] > 0):
        return [f"{out_path}: verdict {got} with {results[0]['region_count']} regions"]
    return []


def box_unsafe_fraction(layers, lb, ub, unsafe, seed):
    """Monte-Carlo share of the box whose image lies in the unsafe set, and
    its standard error."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lb, ub, size=(MC_SAMPLES, len(lb)))
    p = float(np.mean(max_margin(layers, xs, unsafe) <= 0.0))
    return p, np.sqrt(max(p * (1.0 - p), 1.0 / MC_SAMPLES) / MC_SAMPLES)


def check_reach(out_path, layers, lb, ub, unsafe, seed=0):
    """Every unsafe region's input vertices map onto its output vertices and
    into the unsafe set; the regions' summed hull volume matches the
    Monte-Carlo unsafe share of the box within 5 standard errors."""
    with open(out_path) as f:
        props = json.load(f)["properties"]
    if len(props) != 1:
        return [f"{out_path}: expected one property, got {len(props)}"]
    regions = props[0]["unsafe_regions"]
    lb, ub = np.asarray(lb, float), np.asarray(ub, float)
    scale = max(1.0, float(np.max(np.abs(forward(layers, np.stack([lb, ub]))))))
    errors = []
    volume = 0.0
    for n, reg in enumerate(regions):
        xin = np.asarray(reg["input_vertices"], float)
        yout = np.asarray(reg["output_vertices"], float)
        image = forward(layers, xin)
        if image.shape != yout.shape or np.max(np.abs(image - yout)) > VERTEX_TOL * scale:
            errors.append(f"{out_path}: region {n} output vertices are not the images of its inputs")
        worst = float(np.max(max_margin(layers, xin, unsafe)))
        if worst > VERTEX_TOL * scale:
            errors.append(f"{out_path}: region {n} has a vertex {worst:.3g} outside the unsafe set")
        if np.any(xin < lb - VERTEX_TOL) or np.any(xin > ub + VERTEX_TOL):
            errors.append(f"{out_path}: region {n} leaves the input box")
        try:
            volume += ConvexHull(xin).volume
        except QhullError:
            errors.append(f"{out_path}: region {n} is not full-dimensional")
    share = volume / float(np.prod(ub - lb))
    p, se = box_unsafe_fraction(layers, lb, ub, unsafe, seed)
    if abs(share - p) > 5.0 * se + 1e-9:
        errors.append(f"{out_path}: regions cover {share:.5f} of the box, sampling gives "
                      f"{p:.5f} +- {se:.5f}")
    return errors


def accuracy(layers, xs, targets):
    """Share of rows whose predicted argmax is the target's argmax."""
    pred = np.argmax(forward(layers, xs), axis=1)
    return float(np.mean(pred == np.argmax(targets, axis=1)))


def check_repair(out_path, out_net, original, lb, ub, unsafe, test, epsilon):
    """The repaired network is safe by MILP and its test accuracy, recomputed
    here, loses no more than -epsilon against the original network."""
    with open(out_path) as f:
        verdict = json.load(f)["report"]["verdict"]
    if verdict != "repaired":
        return [f"{out_path}: repair verdict {verdict}"]
    fixed = read_nnet(out_net)
    errors = []
    if milp_verdict(fixed, lb, ub, unsafe) == "unsafe":
        errors.append(f"{out_net}: MILP finds the repaired network unsafe")
    xs, ys = test
    before, after = accuracy(original, xs, ys), accuracy(fixed, xs, ys)
    if after - before < epsilon:
        errors.append(f"{out_net}: test accuracy {after:.4f} against {before:.4f} "
                      f"breaks the {epsilon} gate")
    return errors
