"""Built-in fixture networks, properties and datasets for demos and benchmarks.

Desk-scale stand-ins for collision-avoidance-style controllers: the property
shapes follow the usual "advisory must not be the minimum" pattern, the
networks are small enough for exhaustive exact analysis.
"""

from __future__ import annotations

import math

import numpy as np

from .model import IDENTITY, RELU, LabeledDataset, Layer, Network, forward_batch
from .reach import SafetyProperty, UnsafeDomain


def random_network(layer_sizes, seed=0):
    """Gaussian-initialized network: weights with standard deviation
    1/sqrt(fan-in), biases with 0.2; hidden ReLU, identity output."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(layer_sizes) - 1):
        fan_in, fan_out = layer_sizes[k], layer_sizes[k + 1]
        w = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_out, fan_in))
        b = rng.normal(0.0, 0.2, size=fan_out)
        act = IDENTITY if k == len(layer_sizes) - 2 else RELU
        layers.append(Layer(w, b, act))
    return Network(layers)


def not_minimum_domain(dim, advisory=0):
    """Unsafe outputs where the advisory coordinate is the minimum: the
    conjunction y_adv <= y_k over all other coordinates k."""
    cons = []
    for k in range(dim):
        if k == advisory:
            continue
        a = np.zeros(dim)
        a[advisory] = 1.0
        a[k] = -1.0
        cons.append((a, 0.0))
    return UnsafeDomain(cons)


def toy_property():
    """2-d box with 'first output must exceed the second' semantics."""
    return SafetyProperty(
        "toy-y1-not-below-y2",
        input_lb=[-1.0, -1.0],
        input_ub=[1.0, 1.0],
        unsafe=UnsafeDomain([(np.array([1.0, -1.0]), 0.0)]),
    )


def toy_safe_network():
    """2-2-2 network with y1 - y2 >= 1.5 everywhere on the toy box."""
    hidden = Layer(np.eye(2), np.array([2.0, 2.0]), RELU)
    out = Layer(np.array([[1.0, 1.0], [0.5, 0.0]]), np.zeros(2), IDENTITY)
    return Network([hidden, out])


def toy_unsafe_network():
    """2-2-2 network mapping the toy box to y = x + 1, so y1 <= y2 on half of it."""
    hidden = Layer(np.eye(2), np.array([1.0, 1.0]), RELU)
    out = Layer(np.eye(2), np.zeros(2), IDENTITY)
    return Network([hidden, out])


def collision_avoidance_properties():
    """Three collision-avoidance-style properties over the 5-d sensor box
    [distance, bearing, heading, ownship speed, intruder speed]; in each, the
    clear-of-conflict advisory (output 0) must not be the minimum."""
    pi = math.pi
    unsafe = not_minimum_domain(5, advisory=0)
    p1 = SafetyProperty(
        "property-1",
        input_lb=[50000.0, -pi, -pi, 900.0, 0.0],
        input_ub=[56000.0, pi, pi, 1000.0, 60.0],
        unsafe=unsafe,
    )
    p2 = SafetyProperty(
        "property-2",
        input_lb=[1500.0, -0.06, 3.10, 880.0, 860.0],
        input_ub=[1800.0, 0.06, pi, 1000.0, 1000.0],
        unsafe=unsafe,
    )
    # the heading pin psi = 0 is widened to a thin interval: boxes need lb < ub
    p3 = SafetyProperty(
        "property-3",
        input_lb=[1500.0, -0.06, -0.01, 900.0, 700.0],
        input_ub=[1800.0, 0.06, 0.01, 1000.0, 1000.0],
        unsafe=unsafe,
    )
    return [p1, p2, p3]


def collision_avoidance_network(seed=0):
    """Small random [5, 8, 8, 5] stand-in for a collision-avoidance controller."""
    net = random_network([5, 8, 8, 5], seed=seed)
    pi = math.pi
    mins = [0.0, -pi, -pi, 100.0, 0.0]
    maxes = [56000.0, pi, pi, 1000.0, 1000.0]
    means = [0.0] * 6
    ranges = [1.0] * 6
    return Network(net.layers, mins, maxes, means, ranges)


def bench_network(depth=6):
    """Pruning benchmark: layer k splits the first input coordinate at the
    odd multiples of 2^(1-k), so exact search builds a full binary tree of
    2^depth intervals, while only the topmost sliver of the box can reach the
    unsafe side. Branches become provably safe one layer after they split,
    so filtered search walks a single corridor of the tree.
    """
    layers = []
    for k in range(1, depth + 1):
        thresholds = [(2 * j + 1) / 2 ** (k - 1) - 1.0 for j in range(2 ** (k - 1))]
        if k == depth:
            thresholds.append(0.9)  # gates the unsafe output sliver
        if k == 1:
            # reads x = (x1, x2); the carry channel keeps x1 + 2 > 0
            rows = [[1.0, 0.0]] * (1 + len(thresholds))
            bias = [2.0] + [-t for t in thresholds]
        else:
            width = 1 + 2 ** (k - 2)  # carry + previous layer's splitters
            rows = [[1.0] + [0.0] * (width - 1)] * (1 + len(thresholds))
            bias = [0.0] + [-(t + 2.0) for t in thresholds]
        layers.append(Layer(np.array(rows), np.array(bias), RELU))
    # y1 crosses zero only where the 0.9 gate neuron is active enough
    last_width = 1 + 2 ** (depth - 1) + 1
    out_w = np.zeros((2, last_width))
    out_w[0, -1] = 40.0
    out_w[1, 0] = 1.0
    layers.append(Layer(out_w, np.array([-1.0, 0.0]), IDENTITY))
    return Network(layers)


def bench_property():
    """Unsafe when the first output is nonnegative; only x1 above ~0.925
    reaches it, so over 90 percent of the box is provably safe."""
    return SafetyProperty(
        "bench-output-stays-negative",
        input_lb=[-1.0, -1.0],
        input_ub=[1.0, 1.0],
        unsafe=UnsafeDomain([(np.array([-1.0, 0.0]), 0.0)]),
    )


def sampled_dataset(net, lb, ub, count, seed=0):
    """Uniform box samples labeled by the given network's outputs."""
    rng = np.random.default_rng(seed)
    lb = np.asarray(lb, float)
    ub = np.asarray(ub, float)
    xs = rng.uniform(lb, ub, size=(count, lb.shape[0]))
    return LabeledDataset(xs, forward_batch(net, xs))
