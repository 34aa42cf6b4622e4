"""Seeded workload generators: networks, properties, datasets and query lists.

Nothing here imports relurepair. Networks are plain lists of (W, b) pairs with
ReLU on every layer but the last, written to NNet files by this module's own
writer, so a change to the program (its fixtures included) cannot change a
workload.

Each workload is a fixed recipe of base instances (documented in README.md).
The run seed does not draw new base networks: the query time of a random net
of one shape spreads over more than an order of magnitude, and a run holds
only a handful of nets, so per-run medians would move with the seed by far
more than any regression bound. Instead the seed draws a presentation of each
base instance: a permutation of the hidden neurons, sign flips of the input
axes (every box is symmetric), positive per-neuron rescaling and, where noted,
a small multiplicative weight jitter. The program sees different files,
different split orders and different numbers, while the amount of work per
round stays close to the recipe's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("controller-5d", "corridor-deep", "repair-3d", "reach-dump")

# relative Gaussian jitter of weights and biases on the verify/reach workloads
JITTER = 0.01


@dataclass
class Instance:
    """One network plus the single property it is queried with."""

    name: str
    layers: list  # [(W, b), ...]; ReLU on all but the last layer
    lb: np.ndarray
    ub: np.ndarray
    unsafe: list  # [(a, b), ...]: unsafe iff a . y + b <= 0 for every pair
    files: dict = field(default_factory=dict)
    train: tuple = None  # (inputs, targets) for repair instances
    test: tuple = None


@dataclass
class Query:
    """One CLI call; `argv` is passed to relurepair.cli.main."""

    name: str
    kind: str  # "verify", "reach" or "repair"
    instance: Instance
    argv: list
    out: str
    out_net: str = None


@dataclass
class Workload:
    queries: list
    heaviest: Query  # run once, untimed, during set-up


# ---------------------------------------------------------------- networks


def random_layers(sizes, seed):
    """Gaussian net: W ~ N(0, 1/fan_in), b ~ N(0, 0.2^2), drawn layer by layer."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        b = rng.normal(0.0, 0.2, size=fan_out)
        layers.append((w, b))
    return layers


def corridor_layers(depth, gain=40.0):
    """The pruning corridor on [-1,1]^2: layer k splits x1 at the odd multiples
    of 2^(1-k); only x1 above about 0.925 reaches y0 >= 0."""
    layers = []
    for k in range(1, depth + 1):
        thresholds = [(2 * j + 1) / 2 ** (k - 1) - 1.0 for j in range(2 ** (k - 1))]
        if k == depth:
            thresholds.append(0.9)
        n = 1 + len(thresholds)
        if k == 1:
            w = np.zeros((n, 2))
            w[:, 0] = 1.0
            b = np.array([2.0] + [-t for t in thresholds])
        else:
            w = np.zeros((n, 1 + 2 ** (k - 2)))
            w[:, 0] = 1.0
            b = np.array([0.0] + [-(t + 2.0) for t in thresholds])
        layers.append((w, b))
    w = np.zeros((2, layers[-1][0].shape[0]))
    w[0, -1] = gain
    w[1, 0] = 1.0
    layers.append((w, np.array([-1.0, 0.0])))
    return layers


def present(layers, rng, jitter=0.0, rescale=False):
    """A seeded presentation of a network on a symmetric box.

    Input axes change sign and hidden neurons are permuted within each layer;
    with `rescale` each hidden neuron's row is also scaled by c in [0.5, 2]
    and its outgoing column by 1/c (exact for ReLU). Returns the new layers
    and the sign flips, which map data into the new input coordinates.
    """
    layers = [(np.array(w, float), np.array(b, float)) for w, b in layers]
    signs = rng.choice([-1.0, 1.0], size=layers[0][0].shape[1])
    layers[0] = (layers[0][0] * signs, layers[0][1])
    for k in range(len(layers) - 1):
        w, b = layers[k]
        nw = layers[k + 1][0]
        perm = rng.permutation(w.shape[0])
        w, b, nw = w[perm], b[perm], nw[:, perm]
        if rescale:
            c = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=w.shape[0]))
            w, b, nw = w * c[:, None], b * c, nw / c
        layers[k], layers[k + 1] = (w, b), (nw, layers[k + 1][1])
    if jitter:
        layers = [
            (w * (1.0 + jitter * rng.standard_normal(w.shape)),
             b * (1.0 + jitter * rng.standard_normal(b.shape)))
            for w, b in layers
        ]
    return layers, signs


def forward(layers, xs):
    """Batch forward pass; ReLU on every layer but the last."""
    a = np.asarray(xs, float)
    for k, (w, b) in enumerate(layers):
        a = a @ w.T + b
        if k < len(layers) - 1:
            a = np.maximum(a, 0.0)
    return a


# ---------------------------------------------------------------- files


def _row(vals):
    return ",".join(repr(float(v)) for v in vals) + ","


def write_nnet(layers, path):
    """NNet text: header counts, sizes, flag, min/max/mean/range, then each
    layer's weight rows followed by one bias per line."""
    sizes = [layers[0][0].shape[1]] + [w.shape[0] for w, _ in layers]
    d = sizes[0]
    lines = [
        "// perfbench network",
        f"{len(layers)},{d},{sizes[-1]},{max(sizes)},",
        ",".join(str(s) for s in sizes) + ",",
        "0,",
        _row([-1.0] * d),
        _row([1.0] * d),
        _row([0.0] * (d + 1)),
        _row([1.0] * (d + 1)),
    ]
    for w, b in layers:
        lines.extend(_row(r) for r in w)
        lines.extend(_row([v]) for v in b)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_props(inst, path):
    prop = {
        "name": inst.name,
        "lb": [float(v) for v in inst.lb],
        "ub": [float(v) for v in inst.ub],
        "unsafe": [{"a": [float(v) for v in a], "b": float(b)} for a, b in inst.unsafe],
    }
    with open(path, "w") as f:
        json.dump([prop], f)


def write_data(xs, ys, path):
    with open(path, "w") as f:
        json.dump({"inputs": np.asarray(xs).tolist(), "targets": np.asarray(ys).tolist()}, f)


def write_instance(inst, out_dir):
    base = os.path.join(out_dir, inst.name)
    inst.files = {"net": base + ".nnet", "props": base + ".props.json"}
    write_nnet(inst.layers, inst.files["net"])
    write_props(inst, inst.files["props"])
    if inst.train is not None:
        inst.files["train"] = base + ".train.json"
        inst.files["test"] = base + ".test.json"
        write_data(*inst.train, inst.files["train"])
        write_data(*inst.test, inst.files["test"])


# ---------------------------------------------------------------- recipes


def not_minimum(dim, advisory):
    """Unsafe when output `advisory` is the minimum: y_adv - y_k <= 0 for all k."""
    cons = []
    for k in range(dim):
        if k != advisory:
            a = np.zeros(dim)
            a[advisory], a[k] = 1.0, -1.0
            cons.append((a, 0.0))
    return cons


CONTROLLER_BASES = (12, 16, 18)
CORRIDOR_DEPTHS = (9, 10, 10)
REACH_BASES = (1, 2, 5)
REPAIR_BASES = (((3, 10, 10, 2), 3), ((3, 10, 10, 2), 4), ((3, 10, 10, 2), 6),
                ((3, 12, 12, 12, 2), 2), ((3, 12, 12, 12, 2), 4))
# accuracy may drop by at most 0.05 against the original network
REPAIR_EPSILON = -0.05
REPAIR_FLAGS = ["--alpha", "0.5", "--lr", "0.05", "--epochs", "20", f"--epsilon={REPAIR_EPSILON}"]


def _controller(rng):
    out = []
    for base in CONTROLLER_BASES:
        layers, _ = present(random_layers((5, 8, 8, 5), base), rng, jitter=JITTER)
        for adv in range(5):
            out.append(Instance(f"ctrl{base}-adv{adv}", layers, -np.ones(5), np.ones(5),
                                not_minimum(5, adv)))
    return out


def _corridor(rng):
    out = []
    for k, depth in enumerate(CORRIDOR_DEPTHS):
        layers, _ = present(corridor_layers(depth), rng, rescale=True)
        unsafe = [(np.array([-1.0, 0.0]), 0.0)]  # y0 >= 0
        out.append(Instance(f"corridor{depth}-{k}", layers, -np.ones(2), np.ones(2), unsafe))
    return out


def _reach(rng):
    out = []
    for base in REACH_BASES:
        layers, _ = present(random_layers((3, 12, 12, 12, 2), base), rng, jitter=JITTER)
        unsafe = [(np.array([-1.0, 1.0]), 0.0)]  # y0 >= y1
        out.append(Instance(f"reach{base}", layers, -np.ones(3), np.ones(3), unsafe))
    return out


def _repair(rng):
    """Property: y0 - y1 >= t is unsafe, t the 97th percentile of y0 - y1 over
    box samples. Data are box samples labelled by the net, unsafe ones
    dropped. Only exact presentations (permutation, axis flips) are drawn, so
    the training trajectory, and with it convergence, is the recipe's own."""
    out = []
    for sizes, base in REPAIR_BASES:
        layers = random_layers(sizes, base)
        d = sizes[0]
        data_rng = np.random.default_rng(1000 + base)
        probe = data_rng.uniform(-1.0, 1.0, size=(4000, d))
        gap = forward(layers, probe) @ np.array([1.0, -1.0])
        t = float(np.quantile(gap, 0.97))
        xs = data_rng.uniform(-1.0, 1.0, size=(900, d))
        ys = forward(layers, xs)
        keep = ys @ np.array([1.0, -1.0]) < t
        xs, ys = xs[keep], ys[keep]
        shown, signs = present(layers, rng)
        xs = xs * signs
        inst = Instance(f"repair{base}-{'x'.join(map(str, sizes))}", shown, -np.ones(d),
                        np.ones(d), [(np.array([-1.0, 1.0]), t)])
        inst.train = (xs[:600], ys[:600])
        inst.test = (xs[600:], ys[600:])
        out.append(inst)
    return out


def build(workload, seed, out_dir):
    """Generate, write and return the workload's query list for one seed."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    os.makedirs(out_dir, exist_ok=True)
    make = {"controller-5d": _controller, "corridor-deep": _corridor,
            "repair-3d": _repair, "reach-dump": _reach}[workload]
    instances = make(rng)
    queries = []
    for inst in instances:
        write_instance(inst, out_dir)
        out = os.path.join(out_dir, inst.name + ".out.json")
        common = ["--net", inst.files["net"], "--props", inst.files["props"], "--out", out]
        if workload == "repair-3d":
            out_net = os.path.join(out_dir, inst.name + ".repaired.nnet")
            argv = ["repair", *common, "--train-data", inst.files["train"],
                    "--test-data", inst.files["test"], "--out-net", out_net,
                    "--no-timing", *REPAIR_FLAGS]
            queries.append(Query(inst.name, "repair", inst, argv, out, out_net))
        elif workload == "reach-dump":
            queries.append(Query(inst.name, "reach", inst, ["reach", *common], out))
        else:
            queries.append(Query(inst.name, "verify", inst,
                                 ["verify", *common, "--no-timing"], out))
    heaviest = {"controller-5d": "ctrl16-adv4", "corridor-deep": "corridor10-1",
                "repair-3d": "repair4-3x12x12x12x2", "reach-dump": "reach5"}[workload]
    return Workload(queries, next(q for q in queries if q.name == heaviest))
