"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
success). The randomized criteria share the 20 fixed networks from
conftest.acceptance_networks.
"""

import functools
import time

import numpy as np
import pytest

import relurepair as rr
from relurepair import fixtures as fx
from relurepair.fvim import box_polytope, facet_halfspaces
from relurepair.model import Layer, Network, TrainConfig, accuracy, forward_batch
from relurepair.reach import ReachOptions, ReachStats, layer_output, output_overapprox
from relurepair.repair import RepairConfig, repair
from relurepair.vzono import VZono

from conftest import (
    constraint_min,
    contains,
    enum_vzono_vertices,
    holds,
    mse_loss,
    region_points,
    relu_relax,
)
from test_repair import desk_repair_fixture


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {num:2d} {label}: PASS")
            return result

        return run

    return wrap


def all_intermediate_sets(net, lb, ub):
    stack = [box_polytope(lb, ub)]
    nodes = []
    while stack:
        s = stack.pop()
        nodes.append(s)
        if s.layer_cursor < net.num_layers:
            stack.extend(layer_output(net, s))
    return nodes


@criterion(1, "over-approximation soundness at every depth")
def test_overapprox_soundness(acceptance_cases):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = np.inf
    for net, prop in acceptance_cases:
        for s in all_intermediate_sets(net, prop.input_lb, prop.input_ub):
            z = output_overapprox(net, [s])
            dirs = rng.normal(size=(50, net.output_dim))
            pts = region_points(rng, s.current_vertices, 200)
            for k in range(s.layer_cursor, net.num_layers):
                ly = net.layers[k]
                pts = pts @ ly.weights.T + ly.bias
                if ly.activation == "relu":
                    pts = np.maximum(pts, 0.0)
            proj = pts @ dirs.T  # (200, 50)
            base = z.base_vertices @ dirs.T
            radius = np.abs(z.base_vectors @ dirs.T).sum(axis=0) if z.num_base_vectors else 0.0
            sup = base.max(axis=0) + radius
            slack = float((sup - proj.max(axis=0)).min())
            worst = min(worst, slack)
            assert slack >= -1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"soundness sweep took {elapsed:.1f}s"
    print(f"    worst support slack {worst:.3e}, {elapsed:.1f}s")


@criterion(2, "constraint minimum equals vertex enumeration")
def test_constraint_min_exact():
    rng = np.random.default_rng(77)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        n = int(rng.integers(0, 11))
        z = VZono(rng.normal(size=(m, dim)), rng.normal(size=(n, dim)))
        a = rng.normal(size=dim)
        b = float(rng.normal())
        want = float((enum_vzono_vertices(z) @ a + b).min())
        assert constraint_min(z, a, b) == pytest.approx(want, abs=1e-12)


@criterion(3, "worked relaxation example reproduces frozen values")
def test_worked_relaxation_example():
    from conftest import triangle_tracked
    from relurepair.vzono import from_tracked

    z = from_tracked([triangle_tracked([[-1.0, 2.0], [-1.0, 0.0], [1.0, 0.0]])])
    relaxed = relu_relax(z, 0, -1.0, 1.0)
    got = sorted(relaxed.base_vertices[:, 0].tolist())
    assert got == pytest.approx([-0.25, -0.25, 0.75], abs=0.0)
    assert abs(float(relaxed.base_vectors[0, 0])) == pytest.approx(0.25, abs=0.0)
    # projected set: the relaxed value replaces the old coordinate in place
    assert np.array_equal(
        relaxed.base_vertices, np.array([[-0.25, 2.0], [-0.25, 0.0], [0.75, 0.0]])
    )
    assert np.array_equal(relaxed.base_vectors, np.array([[0.25, 0.0]]))


@criterion(4, "exact unsafe regions classify box samples faithfully")
def test_exact_analysis_faithfulness(acceptance_cases):
    rng = np.random.default_rng(404)
    for net, prop in acceptance_cases:
        regions = rr.reach_unsafe(net, prop)
        pts = rng.uniform(prop.input_lb, prop.input_ub, size=(10_000, net.input_dim))
        margins = prop.unsafe.margins(forward_batch(net, pts))
        inside_fwd = (margins <= -1e-6).all(axis=1)
        outside_fwd = (margins >= 1e-6).any(axis=1)
        geo_strict = np.zeros(len(pts), dtype=bool)
        geo_loose = np.zeros(len(pts), dtype=bool)
        for region in regions:
            halfspaces = facet_halfspaces(region)
            geo_strict |= contains(halfspaces, pts, tol=-1e-6)
            geo_loose |= contains(halfspaces, pts, tol=1e-6)
        assert not (geo_strict & outside_fwd).any(), "region point with safe output"
        assert not (inside_fwd & ~geo_loose).any(), "unsafe output outside all regions"


@criterion(5, "filter on and off return identical unsafe unions")
def test_filter_consistency(acceptance_cases):
    for net, prop in acceptance_cases:
        on = rr.reach_unsafe(net, prop, ReachOptions(use_filter=True))
        off = rr.reach_unsafe(net, prop, ReachOptions(use_filter=False))
        assert len(on) == len(off)
        for a, b in zip(on, off):  # both canonically sorted
            assert a.input_vertices.shape == b.input_vertices.shape
            assert np.allclose(a.input_vertices, b.input_vertices, atol=1e-9)
            assert np.allclose(a.current_vertices, b.current_vertices, atol=1e-9)


@criterion(6, "pruning halves exploration on a mostly-safe net")
def test_pruning_effectiveness():
    net = fx.bench_network(depth=7)
    prop = fx.bench_property()
    stats_on, stats_off = ReachStats(), ReachStats()
    t0 = time.monotonic()
    on = rr.reach_unsafe(net, prop, ReachOptions(use_filter=True), stats_on)
    t_on = time.monotonic() - t0
    t0 = time.monotonic()
    off = rr.reach_unsafe(net, prop, ReachOptions(use_filter=False), stats_off)
    t_off = time.monotonic() - t0
    # construction check: at least 90% of the box is provably safe
    vol = rr.unsafe_volume_ratio(net, prop, 20_000, seed=0)
    assert vol <= 0.10
    ratio = stats_on.explored_sets / stats_off.explored_sets
    assert ratio <= 0.5, f"filtered explored {ratio:.0%} of unfiltered sets"
    assert t_on < t_off, f"filtered {t_on:.3f}s not faster than {t_off:.3f}s"
    print(
        f"    explored {stats_on.explored_sets}/{stats_off.explored_sets} sets"
        f" ({ratio:.1%}), speedup {t_off / t_on:.2f}x"
    )


@criterion(7, "repair converges on the desk-scale unsafe network")
def test_repair_convergence():
    t0 = time.monotonic()
    candidate, prop, train_data, test_data = desk_repair_fixture()
    base = accuracy(candidate, test_data)
    cfg = RepairConfig(
        alpha=0.02,
        max_iterations=50,
        train=TrainConfig(learning_rate=0.05, batch_size=32, epochs_per_iteration=5, seed=1),
    )
    fixed, report = repair(candidate, [prop], train_data, test_data, cfg)
    elapsed = time.monotonic() - t0
    assert report.verdict == rr.REPAIRED
    assert len(report.iterations) <= 50
    assert rr.reach_unsafe(fixed, prop) == []
    final = accuracy(fixed, test_data)
    assert final >= base - 0.05, f"accuracy dropped {base - final:.3f}"
    assert elapsed < 300.0, f"repair took {elapsed:.1f}s"
    print(
        f"    {len(report.iterations)} iteration(s), accuracy {base:.3f} -> {final:.3f},"
        f" {elapsed:.2f}s"
    )


@criterion(8, "corrections exit the domain with exact overshoot")
def test_correction_contract():
    rng = np.random.default_rng(88)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(2, 6))
        n_cons = int(rng.integers(1, 5))
        cons = [(rng.normal(size=dim), float(rng.normal() * 0.5)) for _ in range(n_cons)]
        u = rr.UnsafeDomain(cons)
        y = rng.normal(size=dim) * 2.0
        if not holds(u, y):
            continue
        checked += 1
        alpha = 0.02
        got = rr.correct(y, u, alpha)
        assert not holds(u, got), "corrected point still unsafe"
        nearest = min(-(float(a @ y) + b) / np.linalg.norm(a) for a, b in cons)
        assert np.linalg.norm(got - y) == pytest.approx((1 + alpha) * nearest, abs=1e-12)


@criterion(9, "training gradients match central finite differences")
def test_gradient_check():
    from relurepair.model import _loss_gradients

    net = fx.random_network([3, 5, 4, 2], seed=90)
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(12, 3))
    ys = rng.normal(size=(12, 2))
    _, grads = _loss_gradients(list(net.layers), xs, ys)
    h = 1e-5
    for k, ly in enumerate(net.layers):
        for r in range(ly.weights.shape[0]):
            for c in range(ly.weights.shape[1]):
                layers = list(net.layers)
                wp = ly.weights.copy(); wp[r, c] += h
                wm = ly.weights.copy(); wm[r, c] -= h
                layers[k] = Layer(wp, ly.bias, ly.activation)
                up = mse_loss(Network(layers), xs, ys)
                layers[k] = Layer(wm, ly.bias, ly.activation)
                down = mse_loss(Network(layers), xs, ys)
                fd = (up - down) / (2 * h)
                an = grads[k][0][r, c]
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)
        for r in range(ly.bias.shape[0]):
            layers = list(net.layers)
            bp = ly.bias.copy(); bp[r] += h
            bm = ly.bias.copy(); bm[r] -= h
            layers[k] = Layer(ly.weights, bp, ly.activation)
            up = mse_loss(Network(layers), xs, ys)
            layers[k] = Layer(ly.weights, bm, ly.activation)
            down = mse_loss(Network(layers), xs, ys)
            fd = (up - down) / (2 * h)
            an = grads[k][1][r]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)


@criterion(10, "search and seeded repair are deterministic")
def test_determinism():
    net = fx.random_network([3, 7, 6, 2], seed=55)
    prop = rr.SafetyProperty(
        "det", -np.ones(3), np.ones(3), rr.UnsafeDomain([(np.array([1.0, -1.0]), 0.0)])
    )
    first = rr.reach_unsafe(net, prop)
    second = rr.reach_unsafe(net, prop)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.input_vertices, b.input_vertices)
        assert np.array_equal(a.current_vertices, b.current_vertices)

    candidate, p, train_data, test_data = desk_repair_fixture()
    cfg = RepairConfig(
        max_iterations=20,
        train=TrainConfig(learning_rate=0.05, batch_size=32, epochs_per_iteration=5, seed=3),
    )
    _, r1 = repair(candidate, [p], train_data, test_data, cfg)
    _, r2 = repair(candidate, [p], train_data, test_data, cfg)
    assert r1.to_dict(include_timing=False) == r2.to_dict(include_timing=False)
