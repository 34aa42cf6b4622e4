"""Reachability engine: layer propagation, pruning, backtracking, determinism."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from relurepair import fixtures as fx
from relurepair import fvim
from relurepair import reach as reach_mod
from relurepair import vzono
from relurepair.cli import main as cli_main
from relurepair.fvim import (
    ON_PLANE_TOL,
    affine_map,
    box_polytope,
    facet_halfspaces,
    keep_leq,
    split_by_neuron,
)
from relurepair.model import IDENTITY, RELU, Layer, Network, TrainConfig, forward_batch
from relurepair.reach import (
    MaxSetsExceeded,
    ReachOptions,
    ReachStats,
    SafetyProperty,
    UnsafeDomain,
    backtrack,
    VZONO_CAP,
    exact_final_sets,
    layer_output,
    output_overapprox,
    projection_polygon,
    reach_unsafe,
    reach_unsafe_all,
)
from relurepair.repair import RepairConfig, repair, unsafe_volume_ratio

from conftest import contains, fit_affine, forward, full_output_overapprox, region_points, support
from test_repair import desk_repair_fixture


def single_constraint(a, b=0.0):
    return UnsafeDomain([(np.asarray(a, float), b)])


def unit_prop(dim, unsafe, name="p"):
    return SafetyProperty(name, -np.ones(dim), np.ones(dim), unsafe)


class TestLayerOutput:
    def test_identity_output_layer_maps_once(self):
        net = Network([Layer(np.eye(2), np.zeros(2), IDENTITY)])
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        outs = layer_output(net, s)
        assert len(outs) == 1
        assert outs[0].layer_cursor == 1
        assert np.array_equal(outs[0].current_vertices, s.current_vertices)

    def test_relu_layer_with_no_spanning_neuron(self):
        net = Network([Layer(np.eye(2), np.array([5.0, 5.0]), RELU), Layer(np.eye(2), np.zeros(2), IDENTITY)])
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        outs = layer_output(net, s)
        assert len(outs) == 1

    def test_single_spanning_neuron_splits_in_two(self):
        net = Network([Layer(np.array([[1.0, 0.0]]), np.zeros(1), RELU), Layer(np.eye(1), np.zeros(1), IDENTITY)])
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        outs = layer_output(net, s)
        assert len(outs) == 2

    def test_two_neuron_layer_partitions_inputs(self):
        rng = np.random.default_rng(0)
        net = Network(
            [Layer(rng.normal(size=(2, 2)), rng.normal(size=2) * 0.1, RELU), Layer(np.eye(2), np.zeros(2), IDENTITY)]
        )
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        outs = layer_output(net, s)
        assert 1 <= len(outs) <= 4
        pts = rng.uniform(-1, 1, size=(500, 2))
        hs = [facet_halfspaces(o) for o in outs]
        hits_strict = np.stack([contains(h, pts, tol=-1e-7) for h in hs]).sum(axis=0)
        hits_loose = np.stack([contains(h, pts, tol=1e-7) for h in hs]).sum(axis=0)
        assert (hits_strict <= 1).all()
        assert (hits_loose >= 1).all()


def fold_layer_output(net, s, layer):
    """Reference: affine map, then split every neuron in ascending order."""
    ly = net.layers[layer]
    sets = [affine_map(s, ly.weights, ly.bias)]
    if ly.activation != IDENTITY:
        for i in range(ly.weights.shape[0]):
            sets = [child for cur in sets for child in split_by_neuron(cur, i)]
    return [replace(cur, layer_cursor=layer + 1) for cur in sets]


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.layer_cursor == w.layer_cursor
        for a, b in ((g.fvim, w.fvim), (g.input_vertices, w.input_vertices),
                     (g.current_vertices, w.current_vertices)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


# row scales and biases that put neuron ranges on, inside and just outside
# the +-ON_PLANE_TOL band
ROW_SCALES = [1.0, 0.0, ON_PLANE_TOL, 2 * ON_PLANE_TOL]
BIASES = [-1.0, -0.5, 0.0, 0.5, 1.0] + [
    k * ON_PLANE_TOL for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
]


@st.composite
def hidden_layer(draw, fan_in):
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=fan_in, max_size=fan_in),
                         min_size=width, max_size=width))
    scales = draw(st.lists(st.sampled_from(ROW_SCALES), min_size=width, max_size=width))
    w = np.array(rows, float) * np.array(scales)[:, None]
    b = np.array(draw(st.lists(st.sampled_from(BIASES), min_size=width, max_size=width)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, width - 1), st.integers(0, width - 1)),
                                  max_size=2)):
        w[dst], b[dst] = w[src], b[src]  # duplicate neuron
    return Layer(w, b, RELU)


@st.composite
def small_relu_nets(draw):
    dim = draw(st.integers(1, 3))
    first = draw(hidden_layer(dim))
    second = draw(hidden_layer(first.weights.shape[0]))
    out = Layer(np.ones((1, second.weights.shape[0])), np.zeros(1), IDENTITY)
    return Network([first, second, out])


class TestLayerOutputMatchesFold:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(net=small_relu_nets())
    def test_bit_identical_to_per_neuron_fold(self, net):
        sets = [box_polytope(-np.ones(net.input_dim), np.ones(net.input_dim))]
        for layer in range(net.num_layers):
            nxt = []
            for s in sets:
                want = fold_layer_output(net, s, layer)
                assert_bit_identical(layer_output(net, s), want)
                nxt.extend(want)
            sets = nxt

    def test_small_positive_range_can_die_in_a_split_child(self):
        # neuron 1 spans [0, 4e-9] on the box, but only [0, 5e-10] on the
        # child x <= -0.75 that neuron 0 cuts off, where ReLU treats it as dead
        w = np.array([[1.0], [2 * ON_PLANE_TOL]])
        b = np.array([0.75, 2 * ON_PLANE_TOL])
        net = Network([Layer(w, b, RELU), Layer(np.ones((1, 2)), np.zeros(1), IDENTITY)])
        s = box_polytope([-1.0], [1.0])
        got = layer_output(net, s)
        assert_bit_identical(got, fold_layer_output(net, s, 0))
        assert len(got) == 2
        assert not got[0].current_vertices[:, 1].any()


class TestOutputOverapprox:
    def test_from_last_layer_is_exact_affine_image(self):
        net = Network([Layer(np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([1.0, 0.0]), IDENTITY)])
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        z = output_overapprox(net, [s])
        assert z.num_base_vectors == 0
        assert np.allclose(z.base_vertices, s.current_vertices @ net.layers[0].weights.T + net.layers[0].bias)

    def test_no_spanning_neurons_keeps_exact_support(self):
        net = Network([Layer(np.eye(2), np.array([3.0, 3.0]), RELU), Layer(np.array([[1.0, -1.0]]), np.zeros(1), IDENTITY)])
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        z = output_overapprox(net, [s])
        rng = np.random.default_rng(1)
        exact_out = forward_batch(net, s.input_vertices)
        for _ in range(20):
            a = rng.normal(size=1)
            assert support(z, a) == pytest.approx(float((exact_out @ a).max()), abs=1e-9)

    def test_above_vertex_cap_starts_from_interval_hull(self):
        # a d-dimensional box has 2^d vertices: d is the first past the cap
        d = int(np.ceil(np.log2(VZONO_CAP + 1)))
        w = np.arange(1.0, d * d + 1).reshape(d, d) % 7 - 3
        for dim, base_vertices in ((d - 1, 2 ** (d - 1)), (d, 1)):
            net = Network([Layer(w[:dim, :dim], np.ones(dim), IDENTITY)])
            s = box_polytope(-np.ones(dim), np.ones(dim))
            z = output_overapprox(net, [s])
            assert z.num_base_vertices == base_vertices
            # the hull of a box is the box: supports stay exact
            exact_out = forward_batch(net, s.input_vertices)
            for a in np.eye(dim)[:3]:
                assert support(z, a) == pytest.approx(float((exact_out @ a).max()), abs=1e-9)

    def test_sound_on_sampled_points(self):
        rng = np.random.default_rng(2)
        net = fx.random_network([3, 5, 4, 2], seed=12)
        s = box_polytope([-1.0] * 3, [1.0] * 3)
        z = output_overapprox(net, [s])
        pts = rng.uniform(-1, 1, size=(300, 3))
        outs = forward_batch(net, pts)
        for _ in range(40):
            a = rng.normal(size=2)
            assert support(z, a) >= float((outs @ a).max()) - 1e-9


def batch_member(z, j):
    """Rows of member j of a relaxed batch: (base vertices, base vectors)."""
    vs = np.cumsum(z.vertex_counts) - z.vertex_counts
    ss = np.cumsum(z.vector_counts) - z.vector_counts
    return (z.base_vertices[vs[j] : vs[j] + z.vertex_counts[j]],
            z.base_vectors[ss[j] : ss[j] + z.vector_counts[j]])


def assert_member_matches_alone(z, j, alone):
    """Member j of batch z has the rows of the batch of one `alone`, in order,
    equal to 1e-12 of the largest entry: a stacked matrix product may round
    a row apart from the same row multiplied alone."""
    assert alone.num_members == 1
    for got, want in zip(batch_member(z, j), (alone.base_vertices, alone.base_vectors)):
        assert got.shape == want.shape
        scale = max(float(np.abs(want).max(initial=0.0)), 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


class TestOutputOverapproxBatch:
    """output_overapprox relaxes sibling sets together, one member each."""

    @pytest.mark.parametrize("sizes, seed", [([3, 7, 6, 2], 55), ([5, 8, 8, 5], 3)])
    def test_siblings_match_sets_alone(self, sizes, seed):
        net = fx.random_network(sizes, seed=seed)
        a = np.zeros(sizes[-1])
        a[:2] = [1.0, -1.0]
        unsafe = single_constraint(a, 0.5)
        sets = [box_polytope(-np.ones(sizes[0]), np.ones(sizes[0]))]
        for layer in range(net.num_layers - 1):
            siblings = layer_output(net, sets[0])
            z = output_overapprox(net, siblings)
            assert z.num_members == len(siblings)
            verdicts = vzono.is_provably_safe(z, unsafe)
            for j, s in enumerate(siblings):
                alone = output_overapprox(net, [s])
                assert_member_matches_alone(z, j, alone)
                assert verdicts[j] == vzono.is_provably_safe(alone, unsafe)[0]
            sets = siblings

    def test_member_above_vertex_cap_starts_from_its_hull(self):
        d = int(np.ceil(np.log2(VZONO_CAP + 1)))
        big = box_polytope(-np.ones(d), np.ones(d))
        # the corner x . 1 <= 1 - d: the corner vertex and one point per edge
        small = keep_leq(big, np.ones(d), d - 1.0)
        assert big.num_vertices > VZONO_CAP >= small.num_vertices == d + 1
        net = fx.random_network([d, 4, 2], seed=1)
        z = output_overapprox(net, [big, small])
        assert z.vertex_counts.tolist() == [1, d + 1]
        assert_member_matches_alone(z, 0, output_overapprox(net, [big]))
        assert_member_matches_alone(z, 1, output_overapprox(net, [small]))

    def test_rejects_sets_at_different_layers(self):
        net = fx.random_network([2, 5, 4, 2], seed=21)
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        child = layer_output(net, s)[0]
        with pytest.raises(ValueError, match="share one layer cursor, got \\[0, 1\\]"):
            output_overapprox(net, [s, child])
        with pytest.raises(ValueError):
            output_overapprox(net, [])


# Weights of 0 or +-2^k make every product exact, and with at most two
# nonzero weights per row each pre-activation is one rounding of exact terms
# whatever their order, so a matrix product that skips the zero terms, or
# sums in another order, rounds it alike.
POWERS_OF_TWO = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]


@st.composite
def sparse_layer(draw, fan_in, width, activation):
    w = np.zeros((width, fan_in))
    for r in range(width):
        cols = draw(st.lists(st.integers(0, fan_in - 1), min_size=1, max_size=2, unique=True))
        w[r, cols] = draw(st.lists(st.sampled_from(POWERS_OF_TWO), min_size=len(cols),
                                   max_size=len(cols)))
    b = draw(st.lists(st.integers(-4, 4), min_size=width, max_size=width))
    return Layer(w, np.array(b) * 0.25, activation)


@st.composite
def nets_with_dead_neurons(draw):
    """Nets whose neurons a row reads or not at random, so some feed nothing;
    maybe with input 0 unread, and maybe with a hidden layer whose every
    outgoing weight is zero, which leaves it and the layers before it with
    no live neuron."""
    sizes = ([draw(st.integers(1, 3))] + draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
             + [draw(st.integers(1, 2))])
    layers = [draw(sparse_layer(sizes[k], sizes[k + 1], RELU if k + 2 < len(sizes) else IDENTITY))
              for k in range(len(sizes) - 1)]
    if draw(st.booleans()):
        layers[0].weights[:, 0] = 0.0
    if draw(st.integers(0, 3)) == 3:
        layers[draw(st.integers(1, len(layers) - 1))].weights[:] = 0.0
    return Network(layers)


class TestRestrictedOverapprox:
    """output_overapprox relaxes live neurons only, and gives what relaxing
    every neuron gives, but for all-zero base vectors."""

    @staticmethod
    def assert_same_relaxation(got, want):
        assert got.base_vertices.shape == want.base_vertices.shape
        assert got.base_vertices.tobytes() == want.base_vertices.tobytes()
        assert got.vertex_counts.tolist() == want.vertex_counts.tolist()
        for j in range(want.num_members):
            g, w = batch_member(got, j)[1], batch_member(want, j)[1]
            assert np.array_equal(g[g.any(axis=1)], w[w.any(axis=1)])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(net=nets_with_dead_neurons(), data=st.data())
    def test_matches_the_pass_over_every_neuron(self, net, data):
        cons = [(np.array(data.draw(st.lists(st.sampled_from(POWERS_OF_TWO), min_size=net.output_dim,
                                             max_size=net.output_dim))),
                 data.draw(st.integers(-4, 4)) * 0.25)
                for _ in range(data.draw(st.integers(1, 2)))]
        unsafe = UnsafeDomain(cons)
        # the siblings of one expansion per layer, down the first child
        sets = [box_polytope(-np.ones(net.input_dim), np.ones(net.input_dim))]
        by_cursor = {0: sets}
        for cursor in range(1, net.num_layers + 1):
            sets = layer_output(net, sets[0])
            by_cursor[cursor] = sets
        for cursor in sorted({0, net.num_layers // 2, net.num_layers}):
            got = output_overapprox(net, by_cursor[cursor])
            want = full_output_overapprox(net, by_cursor[cursor])
            self.assert_same_relaxation(got, want)
            assert (vzono.is_provably_safe(got, unsafe).tolist()
                    == vzono.is_provably_safe(want, unsafe).tolist())

    def test_bench_net_relaxes_the_carry_and_the_gate_only(self, monkeypatch):
        # every hidden neuron reads the carry neuron 0 of the layer before,
        # and the output reads the carry and the last, gating, neuron
        net = fx.bench_network(depth=6)
        live = [np.asarray(n).tolist() for n in net.live_neurons[:-1]]
        assert live == [[0]] * 6 + [[0, net.layers[-1].weights.shape[1] - 1]]
        assert net.live_neurons[-1] == slice(None)
        relax, calls = reach_mod.output_overapprox, []

        def checked(net, sets):
            got = relax(net, sets)
            self.assert_same_relaxation(got, full_output_overapprox(net, sets))
            calls.append(got.num_base_vectors)
            return got

        monkeypatch.setattr(reach_mod, "output_overapprox", checked)
        stats = ReachStats()
        reach_unsafe(net, fx.bench_property(), ReachOptions(), stats)
        assert stats.pruned_sets > 0 and len(calls) > 1
        assert max(calls) <= 2


class TestOneFilterCallPerExpansion:
    @pytest.mark.parametrize("sizes, seed", [([3, 7, 6, 2], 55), ([2, 5, 4, 2], 21)])
    def test_each_expansion_is_relaxed_once(self, monkeypatch, sizes, seed):
        net = fx.random_network(sizes, seed=seed)
        a = np.zeros(sizes[-1])
        a[:2] = [1.0, -1.0]
        prop = unit_prop(sizes[0], single_constraint(a))
        batches, expansions = [], []
        relax, expand = reach_mod.output_overapprox, reach_mod.layer_output

        def spy_relax(net, sets):
            batches.append(sets)
            return relax(net, sets)

        def spy_expand(net, s):
            expansions.append(expand(net, s))
            return expansions[-1]

        monkeypatch.setattr(reach_mod, "output_overapprox", spy_relax)
        monkeypatch.setattr(reach_mod, "layer_output", spy_expand)
        stats = ReachStats()
        reach_unsafe(net, prop, ReachOptions(), stats)
        # the root, then every expansion whose children are not final, each
        # relaxed as the very list layer_output returned
        inner = [c for c in expansions if c[0].layer_cursor < net.num_layers]
        assert len(batches) == 1 + len(inner)
        assert batches[0][0].layer_cursor == 0
        assert all(b is c for b, c in zip(batches[1:], inner))
        # every set that is not final is relaxed exactly once
        assert sum(map(len, batches)) == stats.explored_sets - stats.final_sets
        assert stats.pruned_sets > 0


class TestBacktrack:
    def _propagated_toy(self):
        net = fx.toy_unsafe_network()
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        for k in range(net.num_layers):
            (s,) = layer_output(net, s)
        return net, s

    def test_entirely_inside_returns_same_vertices(self):
        net, s = self._propagated_toy()
        u = single_constraint([1.0, 1.0], -10.0)  # y1 + y2 <= 10 holds everywhere
        assert backtrack(s, u) is s

    def test_entirely_outside_returns_none(self):
        net, s = self._propagated_toy()
        u = single_constraint([-1.0, -1.0], 5.0)  # unsafe iff y1 + y2 >= 5: unreachable
        assert backtrack(s, u) is None

    def test_half_in_case_faithful(self):
        net, s = self._propagated_toy()
        u = single_constraint([1.0, -1.0])  # y1 <= y2
        region = backtrack(s, u)
        rng = np.random.default_rng(3)
        pts = region_points(rng, region.input_vertices, 200)
        margins = u.margins(forward_batch(net, pts))
        assert (margins <= 1e-9).all()
        # points clearly outside the region violate the constraint
        outside = rng.uniform(-1, 1, size=(400, 2))
        outside = outside[~contains(facet_halfspaces(region), outside, tol=1e-7)]
        out_margins = u.margins(forward_batch(net, outside))
        assert (out_margins.max(axis=1) > -1e-9).all()

    def test_output_rows_are_images_of_input_rows(self):
        net, s = self._propagated_toy()
        region = backtrack(s, single_constraint([1.0, -1.0]))
        for x, y in zip(region.input_vertices, region.current_vertices):
            assert np.allclose(forward(net, x), y, atol=1e-9)


class TestReachUnsafe:
    def test_constant_safe_net_finds_nothing(self):
        net = Network([Layer(np.zeros((2, 2)), np.array([5.0, 1.0]), IDENTITY)])
        prop = unit_prop(2, single_constraint([1.0, -1.0]))  # unsafe iff y1 <= y2
        assert reach_unsafe(net, prop) == []

    def test_identity_net_yields_half_box(self):
        net = Network([Layer(np.eye(2), np.zeros(2), IDENTITY)])
        prop = unit_prop(2, single_constraint([1.0, 0.0]))  # y1 <= 0
        regions = reach_unsafe(net, prop)
        assert len(regions) == 1
        got = {tuple(np.round(v, 9) + 0.0) for v in regions[0].input_vertices}
        assert got == {(-1, -1), (-1, 1), (0, -1), (0, 1)}

    def test_filter_on_off_same_regions(self, acceptance_cases):
        for net, prop in acceptance_cases[:6]:
            on = reach_unsafe(net, prop, ReachOptions(use_filter=True))
            off = reach_unsafe(net, prop, ReachOptions(use_filter=False))
            assert len(on) == len(off)
            for r_on, r_off in zip(on, off):
                assert np.allclose(r_on.input_vertices, r_off.input_vertices, atol=1e-9)

    def test_max_sets_carries_partial_results(self):
        net = fx.random_network([3, 6, 6, 2], seed=20)
        prop = unit_prop(3, single_constraint([1.0, -1.0]))
        with pytest.raises(MaxSetsExceeded) as err:
            reach_unsafe(net, prop, ReachOptions(max_sets=10, use_filter=False))
        assert hasattr(err.value, "regions")

    @staticmethod
    def _runs(sizes, seed, n):
        """n default-option runs of unsafe y0 - y1 <= 0 over [-1, 1]^d, each
        with its own stats."""
        net = fx.random_network(sizes, seed=seed)
        prop = unit_prop(sizes[0], single_constraint([1.0, -1.0]))
        runs = []
        for _ in range(n):
            stats = ReachStats()
            runs.append((reach_unsafe(net, prop, stats=stats), stats))
        return runs

    def test_serial_results_bit_stable(self):
        (a, _), (b, _) = self._runs([2, 5, 4, 2], 21, 2)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.input_vertices, rb.input_vertices)
            assert np.array_equal(ra.current_vertices, rb.current_vertices)

    def test_workers_match_serial(self):
        """There is one serial loop: two runs on a deeper net give
        bit-equal regions."""
        (a, _), (b, _) = self._runs([3, 6, 5, 2], 22, 2)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.input_vertices, rb.input_vertices)
            assert np.array_equal(ra.current_vertices, rb.current_vertices)

    def test_parallel_stats_schedule_independent(self):
        """Every counter, the peak included, is equal over three runs."""
        runs = [stats for _, stats in self._runs([3, 7, 6, 2], 55, 3)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0].explored_sets > 0 and runs[0].peak_live_sets > 1

    def test_max_sets_keeps_finished_and_partial_groups(self):
        net = fx.random_network([2, 5, 4, 2], seed=21)
        unsafe = single_constraint([1.0, -1.0])
        small = SafetyProperty("small", [-1.0, -1.0], [0.0, 0.0], unsafe)
        full = unit_prop(2, unsafe, name="full")
        opts = ReachOptions(use_filter=False)
        solo = {p.name: [r.input_vertices.tobytes() for r in reach_unsafe(net, p, opts)]
                for p in (small, full)}
        with pytest.raises(MaxSetsExceeded) as err:
            # the small box's group needs 52 sets, the full box's 92
            reach_unsafe_all(net, [small, full], replace(opts, max_sets=60))
        exc = err.value
        assert exc.stats.explored_sets == 60 + 1
        assert exc.stats.peak_live_sets >= 1
        # the finished group carries all its regions, the partial one some
        assert [r.input_vertices.tobytes() for r in exc.regions["small"]] == solo["small"]
        partial = [r.input_vertices.tobytes() for r in exc.regions["full"]]
        assert 0 < len(partial) < len(solo["full"])
        assert set(partial) <= set(solo["full"])

    def test_max_sets_is_one_budget_and_one_total_per_call(self):
        net = fx.random_network([2, 5, 4, 2], seed=21)
        unsafe = single_constraint([1.0, -1.0])
        small = SafetyProperty("small", [-1.0, -1.0], [0.0, 0.0], unsafe)
        full = unit_prop(2, unsafe, name="full")
        stats = ReachStats()
        with pytest.raises(MaxSetsExceeded) as err:
            reach_unsafe_all(net, [small, full], ReachOptions(use_filter=False, max_sets=60), stats)
        # the small box's group finishes in 52 sets, the full box's stops at 9
        assert stats == err.value.stats
        assert stats.explored_sets == 61

    def test_exact_final_sets_max_sets_total_and_sorted_partial_regions(self):
        net = fx.random_network([2, 5, 4, 2], seed=21)
        prop = unit_prop(2, single_constraint([1.0, -1.0]))
        stats = ReachStats()
        with pytest.raises(MaxSetsExceeded) as err:
            exact_final_sets(net, prop, ReachOptions(max_sets=30), stats)
        assert stats == err.value.stats
        assert stats.explored_sets == 31
        partial = err.value.regions["p"]
        assert len(partial) > 1
        keys = [(r.input_vertices.shape[0], (np.round(r.input_vertices, 12) + 0.0).tobytes()) for r in partial]
        assert keys == sorted(keys)

    def test_grouped_stats_add_up_solo_runs(self):
        net = fx.random_network([2, 5, 4, 2], seed=21)
        unsafe = single_constraint([1.0, -1.0])
        props = [SafetyProperty("small", [-1.0, -1.0], [0.0, 0.0], unsafe), unit_prop(2, unsafe)]
        solo = [ReachStats() for _ in props]
        for p, st in zip(props, solo):
            reach_unsafe(net, p, stats=st)
        together = ReachStats()
        reach_unsafe_all(net, props, stats=together)
        assert together.explored_sets == sum(st.explored_sets for st in solo)
        assert together.pruned_sets == sum(st.pruned_sets for st in solo)
        assert together.final_sets == sum(st.final_sets for st in solo)
        assert together.peak_live_sets == max(st.peak_live_sets for st in solo)

    def test_grouped_properties_match_solo_runs(self):
        net = fx.random_network([2, 6, 4, 3], seed=23)
        p1 = unit_prop(2, single_constraint([1.0, -1.0, 0.0]), name="a")
        p2 = unit_prop(2, single_constraint([0.0, 1.0, -1.0]), name="b")
        together = reach_unsafe_all(net, [p1, p2])
        for p in (p1, p2):
            solo = reach_unsafe(net, p)
            assert len(together[p.name]) == len(solo)
            for ra, rb in zip(together[p.name], solo):
                assert np.allclose(ra.input_vertices, rb.input_vertices, atol=1e-9)


def forward_cases():
    """Random nets over [-1, 1]^d with two properties sharing the box:
    y0 - y1 <= q, near the net's lower quartile of y0 - y1, and the corner
    y0 >= t0, y1 >= t1, near the medians, so both domains are hit and some
    final sets miss both."""
    cases = []
    for sizes, seed, q, t0, t1 in [
        ([2, 5, 4, 2], 21, -0.66, -0.1, 0.0),
        ([3, 6, 5, 2], 22, 0.17, 0.28, -0.06),
        ([4, 6, 6, 3], 7, -0.44, -0.05, 0.34),
    ]:
        e = np.eye(sizes[-1])
        one = single_constraint(e[0] - e[1], -q)
        two = UnsafeDomain([(-e[0], t0), (-e[1], t1)])
        props = [unit_prop(sizes[0], one, "one"), unit_prop(sizes[0], two, "two")]
        cases.append((fx.random_network(sizes, seed=seed), props))
    return cases


class TestRegionsMatchForwardPass:
    """Every region is a set of network input/output rows inside the unsafe
    domain."""

    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("case", range(len(forward_cases())))
    def test_rows_match_forward_pass(self, case, use_filter):
        net, props = forward_cases()[case]
        regions = reach_unsafe_all(net, props, ReachOptions(use_filter=use_filter))
        for p in props:
            for region in regions[p.name]:
                want = forward_batch(net, region.input_vertices)
                assert (np.abs(region.current_vertices - want) <= 1e-9 * np.maximum(1.0, np.abs(want))).all()
                assert (p.unsafe.margins(region.current_vertices) <= 1e-9).all()
        assert all(regions.values())


class TestCountWithoutKeeping:
    """keep_regions=False counts the regions the keeping path returns, keeps
    none of them, and leaves every other counter as it was."""

    @staticmethod
    def _both(call, opts):
        """(result, stats) of call(opts, stats) keeping and counting."""
        out = []
        for keep in (True, False):
            stats = ReachStats()
            out.append((call(replace(opts, keep_regions=keep), stats), stats))
        return out

    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("case", range(len(forward_cases())))
    def test_count_equals_kept_regions(self, case, use_filter):
        net, props = forward_cases()[case]
        for p in props:
            (kept, k_stats), (dropped, c_stats) = self._both(
                lambda o, st: reach_unsafe(net, p, o, st), ReachOptions(use_filter=use_filter))
            assert kept and dropped == []
            assert c_stats.unsafe_regions == k_stats.unsafe_regions == len(kept)
            assert c_stats == k_stats

    @pytest.mark.parametrize("use_filter", [True, False])
    def test_grouped_boxes_count_every_property(self, use_filter):
        net, shared = forward_cases()[0]  # "one" and "two" share the full box
        props = [SafetyProperty("small", [-1.0, -1.0], [0.0, 0.0], shared[0].unsafe), *shared]
        (kept, k_stats), (dropped, c_stats) = self._both(
            lambda o, st: reach_unsafe_all(net, props, o, st), ReachOptions(use_filter=use_filter))
        assert all(kept.values())
        assert dropped == {p.name: [] for p in props}
        assert c_stats.unsafe_regions == sum(len(r) for r in kept.values())
        assert c_stats == k_stats

    def test_repeated_calls_add_up(self):
        net, props = forward_cases()[1]
        opts = ReachOptions(keep_regions=False)
        stats = ReachStats()
        for _ in range(2):
            for p in props:
                assert reach_unsafe(net, p, opts, stats) == []
        once = sum(len(reach_unsafe(net, p)) for p in props)
        assert once > 0
        assert stats.unsafe_regions == 2 * once

    @pytest.mark.parametrize("use_filter", [True, False])
    def test_cut_off_counts_the_partial_regions(self, use_filter):
        net = fx.random_network([2, 5, 4, 2], seed=21)
        unsafe = single_constraint([1.0, -1.0])
        small = SafetyProperty("small", [-1.0, -1.0], [0.0, 0.0], unsafe)
        full = unit_prop(2, unsafe, name="full")
        excs = []
        for keep in (True, False):
            stats = ReachStats()
            opts = ReachOptions(use_filter=use_filter, max_sets=40, keep_regions=keep)
            with pytest.raises(MaxSetsExceeded) as err:
                reach_unsafe_all(net, [small, full], opts, stats)
            assert stats == err.value.stats
            excs.append(err.value)
        kept, dropped = excs
        partial = sum(len(r) for r in kept.regions.values())
        assert partial > 0
        assert dropped.stats.unsafe_regions == kept.stats.unsafe_regions == partial
        assert dropped.regions == {name: [] for name in kept.regions}
        assert dropped.stats == kept.stats
        assert str(dropped) == str(kept)
        assert str(kept).endswith(f"; {partial} unsafe regions found before the cap")

    def test_message_counts_one_region_in_the_singular(self):
        net = Network([Layer(np.eye(2), np.zeros(2), IDENTITY)])
        unsafe = single_constraint([1.0, 0.0])
        # the first box takes two sets and yields one region; the second
        # box's root is the third set
        props = [unit_prop(2, unsafe), SafetyProperty("q", [-1.0, -1.0], [0.5, 0.5], unsafe)]
        with pytest.raises(MaxSetsExceeded) as err:
            reach_unsafe_all(net, props, ReachOptions(max_sets=2))
        assert str(err.value) == "exceeded max_sets=2 explored sets; 1 unsafe region found before the cap"


class TestSerialEngineCounters:
    """Counters of the depth-first loop on fixed nets, unsafe y0 - y1 <= 0
    over [-1, 1]^d. `calls` back-to-back calls into one ReachStats add up
    the counts and keep the peak: no call leaves state behind for the next."""

    @pytest.mark.parametrize("calls", [1, 8])
    @pytest.mark.parametrize(
        "sizes, seed, use_filter, want",
        [
            # (explored, pruned, final, peak live) sets, then unsafe regions
            ([5, 8, 8, 5], 3, True, (2621, 1283, 613, 235, 613)),
            ([5, 8, 8, 5], 3, False, (4713, 0, 2254, 235, 613)),
            ([2, 5, 4, 2], 21, True, (67, 11, 23, 17, 23)),
            ([2, 5, 4, 2], 21, False, (92, 0, 38, 17, 23)),
            ([3, 7, 6, 2], 55, True, (416, 17, 173, 54, 173)),
            ([3, 7, 6, 2], 55, False, (433, 0, 190, 54, 173)),
        ],
    )
    def test_pinned_counters(self, sizes, seed, use_filter, want, calls):
        net = fx.random_network(sizes, seed=seed)
        a = np.zeros(sizes[-1])
        a[:2] = [1.0, -1.0]
        prop = unit_prop(sizes[0], single_constraint(a))
        stats = ReachStats()
        for _ in range(calls):
            regions = reach_unsafe(net, prop, ReachOptions(use_filter=use_filter), stats)
        got = (stats.explored_sets, stats.pruned_sets, stats.final_sets,
               stats.peak_live_sets, len(regions))
        explored, pruned, final, peak, n_regions = want
        assert got == (calls * explored, calls * pruned, calls * final, peak, n_regions)


def qhull_polygon(points):
    """Reference hull: Qhull on the distinct rounded points, with a collinear
    or two-point set collapsed to its lexicographic extremes."""
    pts = np.unique(np.round(np.asarray(points, float), 12) + 0.0, axis=0)
    if len(pts) <= 2:
        return pts.tolist()
    try:
        return pts[ConvexHull(pts).vertices].tolist()
    except QhullError:  # collinear: no 2-d hull
        return [pts[0].tolist(), pts[-1].tolist()]


@st.composite
def hull_clouds(draw):
    """3-40 small-integer 2-d points: free clouds with duplicates, points on
    one line (vertical lines included), each nudged by an offset that the
    1e-12 rounding removes."""
    n = draw(st.integers(3, 40))
    small = st.integers(-3, 3)
    kind = draw(st.sampled_from(["cloud", "line", "vertical"]))
    if kind == "cloud":
        pts = draw(st.lists(st.tuples(small, small), min_size=n, max_size=n))
    else:
        x0, y0 = draw(small), draw(small)
        dx, dy = (0, 1) if kind == "vertical" else (draw(st.integers(1, 3)), draw(small))
        ts = draw(st.lists(small, min_size=n, max_size=n))
        pts = [(x0 + t * dx, y0 + t * dy) for t in ts]
    nudge = draw(st.lists(st.sampled_from([0.0, 1e-14, -1e-14, 4e-13, -4e-13]),
                          min_size=2 * n, max_size=2 * n))
    return np.asarray(pts, float) + np.reshape(nudge, (n, 2))


class TestProjectionPolygon:
    def test_triangle_keeps_hull_vertices(self):
        pts = np.array([[0.0, 0.0, 7.0], [2.0, 0.0, 7.0], [0.0, 2.0, 7.0], [0.5, 0.5, 7.0]])
        got = projection_polygon(pts, 0, 1)
        assert sorted(map(tuple, got)) == [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0)]

    def test_collinear_points_collapse_to_lexicographic_extremes(self):
        pts = np.array([[1.0, 9.0, 2.0], [0.0, 9.0, 0.0], [2.0, 9.0, 4.0], [0.5, 9.0, 1.0]])
        assert projection_polygon(pts, 0, 2) == [[0.0, 0.0], [2.0, 4.0]]
        # on a vertical line the first axis ties and the second orders
        vertical = np.array([[0.0, 1.0], [0.0, -3.0], [0.0, 2.0]])
        assert projection_polygon(vertical, 0, 1) == [[0.0, -3.0], [0.0, 2.0]]

    def test_non_qhull_errors_propagate(self):
        pts = np.array([[np.nan, 0.0], [1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            projection_polygon(pts, 0, 1)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(pts=hull_clouds())
    def test_matches_qhull(self, pts):
        got = projection_polygon(pts, 0, 1)
        want = qhull_polygon(pts)
        assert sorted(map(tuple, got)) == sorted(map(tuple, want))
        if len(got) <= 2:
            assert got == want  # lexicographic extremes, smallest first
        else:
            assert got[0] == min(got)
            x, y = np.asarray(got).T
            assert np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) > 0



class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unsafe_domain_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            UnsafeDomain([(np.array([1.0, bad]), 0.0)])
        with pytest.raises(ValueError, match="finite"):
            UnsafeDomain([(np.array([1.0, -1.0]), bad)])

    def test_property_rejects_infinite_bounds(self):
        with pytest.raises(ValueError, match="finite"):
            SafetyProperty("p", [-np.inf, -1.0], [1.0, 1.0], single_constraint([1.0, 0.0]))


class TestUnsafeNormalLength:
    def test_unsafe_domain_rejects_non_vector_normals(self):
        with pytest.raises(ValueError, match=r"must be a vector, got shape \(2, 1\)"):
            UnsafeDomain([(np.array([[1.0], [-1.0]]), 0.0)])

    def test_unsafe_domain_rejects_empty_conjunction(self):
        with pytest.raises(ValueError, match="nonempty"):
            UnsafeDomain([])

    def test_unsafe_domain_rejects_unequal_normals(self):
        with pytest.raises(ValueError, match="unequal shapes"):
            UnsafeDomain([(np.array([1.0, -1.0]), 0.0), (np.array([1.0, 0.0, 0.5]), 0.0)])

    @pytest.mark.parametrize("use_filter", [True, False])
    def test_reach_unsafe_names_the_property(self, use_filter):
        prop = unit_prop(2, single_constraint([1.0, -1.0, 0.5]), name="toy-3-out")
        with pytest.raises(ValueError, match="'toy-3-out' has an unsafe normal of length 3, "
                                             "network has 2 outputs"):
            reach_unsafe(fx.toy_unsafe_network(), prop, ReachOptions(use_filter=use_filter))

    @pytest.mark.parametrize("regions", [None, []])
    def test_exact_final_sets_names_the_property(self, regions):
        """Rejected before any set is explored, whether the caller drops the
        returned regions (None) or gathers them into a list."""
        prop = unit_prop(2, single_constraint([1.0]), name="toy-1-out")
        stats = ReachStats()
        with pytest.raises(ValueError, match="'toy-1-out' has an unsafe normal of length 1"):
            _, found = exact_final_sets(fx.toy_unsafe_network(), prop, stats=stats)
            regions is None or regions.extend(found)
        assert stats.explored_sets == 0
        assert not regions


def lazy_fit_cases():
    cases = [
        (fx.toy_unsafe_network(), fx.toy_property()),
        (fx.bench_network(), fx.bench_property()),
    ]
    cases += [(fx.collision_avoidance_network(), p) for p in fx.collision_avoidance_properties()]
    cases.append((fx.random_network([3, 6, 6, 2], seed=27), unit_prop(3, single_constraint([1.0, -1.0]))))
    return cases


def eagerly_fitted_halfspaces(net, prop):
    """Halfspaces fitted as soon as each final set is restricted to the unsafe
    domain, keyed by the restricted set's exact input vertices."""
    fitted = {}
    finals, _ = exact_final_sets(net, prop)
    for s in finals:
        rest = s
        for a, b in prop.unsafe.constraints:
            rest = keep_leq(rest, a, b)
            if rest is None:
                break
        if rest is not None:
            fitted[rest.input_vertices.tobytes()] = facet_halfspaces(rest)
    return fitted


class TestLazyFacetFit:
    """Exploration fits nothing; a region is the restricted set itself, so
    the fit a caller makes from it equals the fit made at backtrack time."""

    @pytest.mark.parametrize("case", range(len(lazy_fit_cases())))
    def test_cached_fit_matches_eager_fit(self, case):
        net, prop = lazy_fit_cases()[case]
        regions = reach_unsafe(net, prop)
        eager = eagerly_fitted_halfspaces(net, prop)
        assert sorted(eager) == sorted(r.input_vertices.tobytes() for r in regions)
        for region in regions:
            a_want, b_want = eager[region.input_vertices.tobytes()]
            a_got, b_got = facet_halfspaces(region)
            assert np.array_equal(a_got, a_want) and np.array_equal(b_got, b_want)


class TestFacetFitOnlyOnMembership:
    @pytest.fixture
    def fits(self, monkeypatch):
        """The incidence matrix of every set that facet_halfspaces fits."""
        calls = []
        real = fvim.facet_halfspaces

        def spy(s):
            calls.append(s.fvim)
            return real(s)

        monkeypatch.setattr(fvim, "facet_halfspaces", spy)
        return calls

    def test_reach_unsafe_fits_nothing(self, fits):
        for net, prop in lazy_fit_cases():
            reach_unsafe(net, prop)
        assert fits == []

    def test_cli_verify_and_reach_fit_nothing(self, fits, tmp_path):
        assert cli_main(["fixtures", "--out", str(tmp_path), "--seed", "0"]) == 0
        for net_name, props_name in [("toy_unsafe.nnet", "toy_props.json"), ("bench.nnet", "bench_props.json")]:
            files = ["--net", str(tmp_path / net_name), "--props", str(tmp_path / props_name)]
            assert cli_main(["verify", *files, "--out", str(tmp_path / "v.json")]) == 1
            assert cli_main(["reach", *files, "--dump-sets", "--out", str(tmp_path / "r.json")]) == 0
        assert fits == []

    def test_repair_fits_nothing(self, fits):
        candidate, prop, train_data, test_data = desk_repair_fixture()
        cfg = RepairConfig(
            max_iterations=3,
            train=TrainConfig(learning_rate=0.05, batch_size=32, epochs_per_iteration=5, seed=1),
        )
        _, report = repair(candidate, [prop], train_data, test_data, cfg)
        assert sum(sum(rec.unsafe_region_counts.values()) for rec in report.iterations) > 0
        assert fits == []


def region_volume_ratio(regions, box, samples, seed=0):
    """Reference estimator: the fraction of the same samples that lie in some
    region's input polytope, tested region by region."""
    lb, ub = (np.asarray(v, float) for v in box)
    pts = np.random.default_rng(seed).uniform(lb, ub, size=(samples, lb.shape[0]))
    inside = np.zeros(samples, dtype=bool)
    for region in regions:
        remaining = ~inside
        if not remaining.any():
            break
        inside[remaining] = contains(facet_halfspaces(region), pts[remaining])
    return float(inside.mean())


def volume_cases():
    candidate, desk_prop, _, _ = desk_repair_fixture()
    cases = lazy_fit_cases() + [(candidate, desk_prop)]
    # partly unsafe boxes: about 25% and 88% of [-1, 1]^3
    shifted = single_constraint([-1.0, 1.0], 0.1)
    cases += [(fx.random_network([3, 8, 8, 2], seed=s), unit_prop(3, shifted)) for s in (2, 3)]
    return cases


class TestForwardVolumeMatchesRegions:
    """The exact regions cover exactly {x in box : f(x) unsafe}, so a forward
    pass and the region-by-region test agree on every sample."""

    @pytest.mark.parametrize("case", range(len(volume_cases())))
    def test_equal_on_identical_samples(self, case):
        net, prop = volume_cases()[case]
        regions = reach_unsafe(net, prop)
        box = (prop.input_lb, prop.input_ub)
        for seed in (0, 1):
            assert unsafe_volume_ratio(net, prop, 4000, seed) == region_volume_ratio(
                regions, box, 4000, seed
            )


class TestExactOutputDomain:
    def test_linear_net_single_affine_image(self):
        w = np.array([[1.0, 2.0], [0.0, 1.0]])
        net = Network([Layer(w, np.array([0.5, 0.0]), IDENTITY)])
        prop = unit_prop(2, single_constraint([1.0, 0.0]))
        finals, _ = exact_final_sets(net, prop)
        assert len(finals) == 1
        box = box_polytope(prop.input_lb, prop.input_ub)
        assert np.allclose(
            np.sort(finals[0].current_vertices, axis=0),
            np.sort(box.input_vertices @ w.T + [0.5, 0.0], axis=0),
        )

    @pytest.mark.parametrize("regions", [None, []])
    def test_rejects_property_of_wrong_dimension(self, regions):
        """Rejected before any set is explored, whether the caller drops the
        returned regions (None) or gathers them into a list."""
        net = fx.toy_unsafe_network()
        prop = unit_prop(3, single_constraint([1.0, -1.0]), name="toy-3d")
        stats = ReachStats()
        with pytest.raises(ValueError, match="'toy-3d' is 3-dimensional, network expects 2"):
            _, found = exact_final_sets(net, prop, stats=stats)
            regions is None or regions.extend(found)
        assert stats.explored_sets == 0
        assert not regions

    @pytest.mark.parametrize("seed", [21, 25])
    def test_regions_are_those_of_reach_unsafe(self, seed):
        net = fx.random_network([2, 5, 4, 2], seed=seed)
        prop = unit_prop(2, single_constraint([1.0, -1.0]))
        _, regions = exact_final_sets(net, prop)
        want = reach_unsafe(net, prop)
        assert regions and len(regions) == len(want)
        for r, w in zip(regions, want):
            assert np.array_equal(r.input_vertices, w.input_vertices)
            assert np.array_equal(r.current_vertices, w.current_vertices)

    def test_set_count_bounded_by_relu_count(self):
        net = fx.random_network([2, 4, 3, 2], seed=24)
        prop = unit_prop(2, single_constraint([1.0, 0.0]))
        finals, _ = exact_final_sets(net, prop)
        assert all(s.current_vertices.shape[1] == 2 for s in finals)
        assert len(finals) <= 2 ** 7

    def test_sampled_outputs_interpolate_in_containing_region(self):
        net = fx.random_network([2, 5, 4, 2], seed=25)
        prop = unit_prop(2, single_constraint([1.0, 0.0]))
        finals, _ = exact_final_sets(net, prop)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(150, 2))
        outs = forward_batch(net, pts)
        halfspaces = [facet_halfspaces(s) for s in finals]
        for x, y in zip(pts, outs):
            owners = [k for k, h in enumerate(halfspaces) if contains(h, x[None, :], tol=1e-9)[0]]
            assert owners, "sample must land in some region"
            s = finals[owners[0]]
            a, c, resid = fit_affine(s.input_vertices, s.current_vertices)
            assert resid <= 1e-9
            assert np.allclose(a @ x + c, y, atol=1e-9)

    def test_forward_is_piecewise_linear_on_regions(self):
        net = fx.random_network([2, 4, 4, 2], seed=26)
        prop = unit_prop(2, single_constraint([1.0, 0.0]))
        finals, _ = exact_final_sets(net, prop)
        rng = np.random.default_rng(5)
        for s in finals[:10]:
            w = rng.dirichlet(np.ones(s.num_vertices), size=20)
            combo_in = w @ s.input_vertices
            combo_out = w @ s.current_vertices
            for x, y in zip(combo_in, combo_out):
                assert np.allclose(forward(net, x), y, atol=1e-9)
