"""Over-approximation sets: conversion, relaxation, bounds, safety check."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relurepair.fvim import TrackedSet, box_polytope
from relurepair import vzono
from relurepair.reach import UnsafeDomain
from relurepair.vzono import (
    VZono,
    affine_map,
    column_bounds,
    from_tracked,
    interval_hull,
    is_provably_safe,
    relu_layer,
)

from conftest import (
    constraint_min,
    enum_vzono_vertices,
    neuron_bounds,
    region_points,
    relu_relax,
    support,
    triangle_tracked,
)

FIG5_TRIANGLE = [[-1.0, 2.0], [-1.0, 0.0], [1.0, 0.0]]


def random_vzono(rng, dim=None, n_max=6):
    dim = dim or int(rng.integers(2, 5))
    m = int(rng.integers(1, 6))
    n = int(rng.integers(0, n_max + 1))
    return VZono(rng.normal(size=(m, dim)), rng.normal(size=(n, dim)))


class TestFromTracked:
    def test_unit_square(self):
        z = from_tracked([box_polytope([0.0, 0.0], [1.0, 1.0])])
        assert z.num_base_vertices == 4
        assert z.num_base_vectors == 0

    def test_single_vertex_set(self):
        point = TrackedSet(np.ones((1, 1), bool), np.array([[0.5]]), np.array([[0.5]]), 0)
        z = from_tracked([point])
        assert z.num_base_vertices == 1

    def test_support_matches_vertex_max(self):
        rng = np.random.default_rng(0)
        s = box_polytope([-1.0] * 3, [1.0] * 3)
        from relurepair.fvim import affine_map as tracked_affine

        s = tracked_affine(s, rng.normal(size=(3, 3)), rng.normal(size=3))
        z = from_tracked([s])
        for _ in range(25):
            a = rng.normal(size=3)
            assert support(z, a) == pytest.approx(float((s.current_vertices @ a).max()), abs=1e-12)


class TestAffineMap:
    def test_identity(self):
        rng = np.random.default_rng(1)
        z = random_vzono(rng, dim=3)
        out = affine_map(z, np.eye(3), np.zeros(3))
        assert np.array_equal(out.base_vertices, z.base_vertices)
        assert np.array_equal(out.base_vectors, z.base_vectors)

    def test_direct_arithmetic(self):
        z = VZono(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        out = affine_map(z, np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, 1.0]))
        assert np.array_equal(out.base_vertices, [[3.0, 1.0]])
        assert np.array_equal(out.base_vectors, [[0.0, 3.0]])

    def test_support_function_duality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = random_vzono(rng, dim=3)
            w = rng.normal(size=(4, 3))
            b = rng.normal(size=4)
            out = affine_map(z, w, b)
            a = rng.normal(size=4)
            assert support(out, a) == pytest.approx(support(z, w.T @ a) + float(a @ b), abs=1e-9)

    def test_dimension_mismatch(self):
        z = VZono(np.zeros((1, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            affine_map(z, np.eye(3), np.zeros(3))

    def test_drops_base_vectors_mapped_to_zero(self):
        # W ignores axis 1: member 0 keeps one of its two base vectors and
        # member 1 is left with none
        z = VZono(np.array([[1.0, 2.0], [0.0, 5.0]]),
                  np.array([[0.0, 1.0], [3.0, 1.0], [0.0, -2.0]]), [1, 1], [2, 1])
        out = affine_map(z, np.array([[2.0, 0.0]]), np.array([1.0]))
        assert out.base_vertices.tolist() == [[3.0], [1.0]]
        assert out.base_vectors.tolist() == [[6.0]]
        assert out.vector_counts.tolist() == [1, 0]
        lo, hi = column_bounds(out)
        assert lo.tolist() == [[-3.0], [1.0]] and hi.tolist() == [[9.0], [1.0]]


class TestNeuronBounds:
    def test_generator_cross(self):
        z = VZono(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert neuron_bounds(z, 0) == (-1.0, 1.0)

    def test_worked_triangle(self):
        z = from_tracked([triangle_tracked(FIG5_TRIANGLE)])
        assert neuron_bounds(z, 0) == (-1.0, 1.0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            z = random_vzono(rng)
            verts = enum_vzono_vertices(z)
            for i in range(z.dim):
                lo, hi = neuron_bounds(z, i)
                assert lo == pytest.approx(float(verts[:, i].min()), abs=1e-12)
                assert hi == pytest.approx(float(verts[:, i].max()), abs=1e-12)


class TestReluRelax:
    def test_worked_example_values(self):
        z = from_tracked([triangle_tracked(FIG5_TRIANGLE)])
        out = relu_relax(z, 0, -1.0, 1.0)
        assert np.allclose(out.base_vertices, [[-0.25, 2.0], [-0.25, 0.0], [0.75, 0.0]])
        assert np.allclose(out.base_vectors, [[0.25, 0.0]])

    def test_lower_endpoint_contained(self):
        lb, ub = -1.0, 1.0
        lam = ub / (ub - lb)
        mu = -ub * lb / (2 * (ub - lb))
        lo_band = lam * lb + mu - mu
        hi_band = lam * lb + mu + mu
        assert lo_band == ub * lb / (ub - lb)
        assert hi_band == 0.0
        assert lo_band <= 0.0 <= hi_band  # ReLU(lb) = 0 sits in the band

    def test_pointwise_containment(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = random_vzono(rng, n_max=5)
            i = int(rng.integers(0, z.dim))
            lb, ub = neuron_bounds(z, i)
            if not (lb < 0 < ub):
                continue
            lam = ub / (ub - lb)
            mu = -ub * lb / (2 * (ub - lb))
            verts = enum_vzono_vertices(z)
            take = rng.integers(0, verts.shape[0], size=1000)
            for v in verts[take]:
                mid = lam * v[i] + mu
                assert mid - mu - 1e-12 <= max(v[i], 0.0) <= mid + mu + 1e-12

    def test_rejects_single_sign_ranges(self):
        z = VZono(np.array([[1.0, 1.0]]), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            relu_relax(z, 0, 0.5, 1.0)
        with pytest.raises(ValueError):
            relu_relax(z, 0, -1.0, -0.5)


class TestReluLayer:
    def test_positive_orthant_unchanged(self):
        z = VZono(np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([[0.1, 0.0]]))
        out = relu_layer(z)
        assert np.array_equal(out.base_vertices, z.base_vertices)
        assert np.array_equal(out.base_vectors, z.base_vectors)

    def test_negative_orthant_zeroed(self):
        z = VZono(np.array([[-1.0, -2.0], [-3.0, -1.0]]), np.array([[0.1, 0.0]]))
        out = relu_layer(z)
        assert np.array_equal(out.base_vertices, np.zeros((2, 2)))
        assert np.array_equal(out.base_vectors, np.zeros((1, 2)))

    def test_worked_mixed_case(self):
        # spanning first neuron, nonnegative second neuron
        z = from_tracked([triangle_tracked(FIG5_TRIANGLE)])
        out = relu_layer(z)
        assert np.allclose(out.base_vertices, [[-0.25, 2.0], [-0.25, 0.0], [0.75, 0.0]])
        assert np.allclose(out.base_vectors, [[0.25, 0.0]])

    def test_generator_count_grows_per_spanning_neuron(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = random_vzono(rng)
            spanning = sum(lo < 0 < hi for lo, hi in (neuron_bounds(z, i) for i in range(z.dim)))
            out = relu_layer(z)
            assert out.dim == z.dim
            assert out.num_base_vectors == z.num_base_vectors + spanning


def relu_layer_by_neuron(z):
    """Reference fold: relax one neuron at a time in ascending order."""
    for i in range(z.dim):
        lo, hi = neuron_bounds(z, i)
        if hi <= 0.0:
            c = z.base_vertices.copy()
            c[:, i] = 0.0
            v = z.base_vectors.copy()
            v[:, i] = 0.0
            z = VZono(c, v)
        elif lo < 0.0:
            z = relu_relax(z, i, lo, hi)
    return z


def assert_close_vzono(got, want):
    """Same shapes (generator count and order) and values within 1e-12 of
    the largest entry: per-column sums may round differently by an ulp."""
    for a, b in ((got.base_vertices, want.base_vertices), (got.base_vectors, want.base_vectors)):
        assert a.shape == b.shape
        scale = max(float(np.abs(b).max(initial=0.0)), 1.0)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)


def assert_relu_image_inside(z, out, rng):
    """Every ReLU image of an encoded vertex or an interior point of z lies
    under out's support function in random and axis directions."""
    verts = enum_vzono_vertices(z)
    pts = np.vstack([verts, region_points(rng, verts, 200)])
    images = np.maximum(pts, 0.0)
    dirs = np.vstack([np.eye(z.dim), -np.eye(z.dim), rng.normal(size=(30, z.dim))])
    for a in dirs:
        assert float((images @ a).max()) <= support(out, a) + 1e-9


class TestReluLayerMatchesPerNeuronFold:
    CASES = {
        # coordinate 0's upper bound and coordinate 1's lower bound are exactly 0
        "bounds_touch_zero": VZono(np.array([[-1.0, 0.5], [0.0, 2.0]]), np.array([[0.0, 0.5]])),
        "all_dead": VZono(np.array([[-1.0, -2.0, -0.5]]), np.array([[0.25, 0.5, 0.0]])),
        "all_positive": VZono(np.array([[1.0, 2.0], [3.0, 0.5]]), np.array([[0.5, 0.25]])),
        "no_base_vectors": VZono(np.array([[-1.0, 2.0, -3.0], [1.0, -1.0, -1.0]]), np.zeros((0, 3))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_edge_cases(self, name):
        z = self.CASES[name]
        got, want = relu_layer(z), relu_layer_by_neuron(z)
        assert np.array_equal(got.base_vertices, want.base_vertices)
        assert np.array_equal(got.base_vectors, want.base_vectors)
        assert_relu_image_inside(z, got, np.random.default_rng(0))

    def test_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            z = random_vzono(rng, n_max=6)
            got = relu_layer(z)
            assert_close_vzono(got, relu_layer_by_neuron(z))
            assert_relu_image_inside(z, got, rng)

    def test_more_than_eight_generators(self):
        # past 8 summands numpy's pairwise sum blocks differently from the
        # column reduction, so bounds may differ in the last ulp
        rng = np.random.default_rng(12)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            z = VZono(rng.normal(size=(3, dim)), rng.normal(size=(int(rng.integers(9, 12)), dim)))
            got = relu_layer(z)
            assert got.num_base_vectors > 8
            assert_close_vzono(got, relu_layer_by_neuron(z))
            assert_relu_image_inside(z, got, rng)

    def test_interval_hull_uses_per_neuron_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            z = random_vzono(rng)
            (lo,), (hi,) = column_bounds(z)
            for i in range(z.dim):
                assert (lo[i], hi[i]) == neuron_bounds(z, i)
            hull = interval_hull(z)
            assert np.array_equal(hull.base_vertices[0], 0.5 * (lo + hi))


class TestConstraintMin:
    def test_generator_cross(self):
        z = VZono(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert constraint_min(z, np.array([1.0, 1.0]), 0.0) == -2.0

    def test_zero_direction_returns_offset(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = random_vzono(rng, dim=3)
            assert constraint_min(z, np.zeros(3), 0.7) == 0.7

    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            z = random_vzono(rng)
            a = rng.normal(size=z.dim)
            b = float(rng.normal())
            want = float((enum_vzono_vertices(z) @ a + b).min())
            assert constraint_min(z, a, b) == pytest.approx(want, abs=1e-12)


class TestIsProvablySafe:
    def test_separated_halfspace(self):
        z = VZono(np.array([[2.0, 0.0]]), np.array([[0.1, 0.0]]))
        u = UnsafeDomain([(np.array([1.0, 0.0]), 0.0)])  # unsafe iff y1 <= 0
        assert is_provably_safe(z, u)  # y1 >= 1.9 everywhere: misses the domain

    def test_witness_point_inside(self):
        z = VZono(np.array([[-1.0, 0.0], [2.0, 0.0]]), np.zeros((0, 2)))
        u = UnsafeDomain([(np.array([1.0, 0.0]), 0.0)])
        assert not is_provably_safe(z, u)

    def test_advisory_not_minimum_instance(self):
        # y1 minimum (4.9) strictly above every other coordinate's maximum
        c = np.array([[5.0, 1.0, 0.5, -1.0, 0.0]])
        gens = 0.1 * np.eye(5)[:2]
        z = VZono(c, gens)
        cons = []
        for k in range(1, 5):
            a = np.zeros(5)
            a[0], a[k] = 1.0, -1.0
            cons.append((a, 0.0))
        assert is_provably_safe(z, UnsafeDomain(cons))

    def test_empty_conjunction_rejected(self):
        z = VZono(np.zeros((1, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            is_provably_safe(z, [])


COORD = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def vzono_and_constraints(draw):
    """A VZono with no base vector or with several, and 1-5 constraints."""
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    n = draw(st.sampled_from([0, 2, 3, 6]))

    def matrix(rows):
        return np.array(draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim),
                                      min_size=rows, max_size=rows)), float).reshape(rows, dim)

    z = VZono(matrix(m), matrix(n))
    k = draw(st.integers(1, 5))
    cons = list(zip(matrix(k), draw(st.lists(COORD, min_size=k, max_size=k))))
    return z, cons


# Bound on the rounding error of one constraint minimum over COORD-sized
# inputs: at most a dozen float64 roundings of sums below 500 in magnitude.
ROUNDING = 1e-11


class TestIsProvablySafeMatchesConstraintMin:
    """The stacked check against the per-constraint minima it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=vzono_and_constraints())
    def test_any_positive_minimum(self, case):
        z, cons = case
        mins = [constraint_min(z, a, b) for a, b in cons]
        # one matrix product and one product per normal may round apart, so
        # the two can disagree only on a minimum within rounding of zero
        if is_provably_safe(z, cons) != any(m > 0.0 for m in mins):
            assert min(abs(m) for m in mins) <= ROUNDING

    def test_zero_minimum_is_not_provably_safe(self):
        # every product is exact: the minimum is 0, which the domain touches
        z = VZono(np.array([[1.0, 0.0], [2.0, 1.0]]), np.array([[0.0, 1.0]]))
        assert constraint_min(z, np.array([0.0, 1.0]), 1.0) == 0.0
        assert not is_provably_safe(z, [(np.array([0.0, 1.0]), 1.0)])
        assert is_provably_safe(z, [(np.array([0.0, 1.0]), 1.5), (np.array([1.0, 0.0]), 0.0)])

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(case=vzono_and_constraints(), data=st.data())
    def test_wrong_length_normal_raises_constraint_min_error(self, case, data):
        z, cons = case
        bad = np.ones(data.draw(st.sampled_from([z.dim - 1, z.dim + 1])))
        cons[data.draw(st.integers(0, len(cons) - 1))] = (bad, 0.0)
        with pytest.raises(ValueError) as want:
            constraint_min(z, bad, 0.0)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            is_provably_safe(z, cons)


class TestIsProvablySafeOnDomain:
    """An UnsafeDomain stacks its normals and offsets once, at construction."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=vzono_and_constraints())
    def test_domain_matches_plain_list(self, case):
        z, cons = case
        assume(all(np.any(a) for a, _ in cons))
        assert is_provably_safe(z, UnsafeDomain(cons)) == is_provably_safe(z, cons)

    def test_domain_is_not_restacked(self, monkeypatch):
        u = UnsafeDomain([(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), -1.0)])

        def restack(constraints, dim):
            raise AssertionError("stacked again")

        monkeypatch.setattr(vzono, "stack_constraints", restack)
        z = VZono(np.array([[2.0, 0.0]]), np.array([[0.1, 0.0]]))
        assert is_provably_safe(z, u)

    def test_wrong_dimension_raises_constraint_min_error(self):
        z = VZono(np.zeros((1, 2)), np.zeros((0, 2)))
        a = np.ones(3)
        with pytest.raises(ValueError) as want:
            constraint_min(z, a, 0.0)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            is_provably_safe(z, UnsafeDomain([(a, 0.0)]))


class TestIntervalHull:
    def test_is_sound_superset(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            z = random_vzono(rng)
            hull = interval_hull(z)
            verts = enum_vzono_vertices(z)
            for i in range(z.dim):
                lo, hi = neuron_bounds(hull, i)
                assert lo <= verts[:, i].min() + 1e-12
                assert hi >= verts[:, i].max() - 1e-12
            assert hull.num_base_vertices == 1


# ---------------------------------------------------------------- batches


def stack_members(members):
    """One batch VZono holding the given one-member VZonos, in order."""
    return VZono(
        np.concatenate([z.base_vertices for z in members]),
        np.concatenate([z.base_vectors for z in members]),
        [z.num_base_vertices for z in members],
        [z.num_base_vectors for z in members],
    )


def member(z, j):
    """Member j of a batch as a batch of one, its rows copied out."""
    vs = np.cumsum(z.vertex_counts) - z.vertex_counts
    ss = np.cumsum(z.vector_counts) - z.vector_counts
    c = z.base_vertices[vs[j] : vs[j] + z.vertex_counts[j]]
    v = z.base_vectors[ss[j] : ss[j] + z.vector_counts[j]]
    return VZono(c.copy(), v.reshape(-1, z.dim).copy())


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_vzono(got, want):
    assert_same_bits(got.base_vertices, want.base_vertices)
    assert_same_bits(got.base_vectors, want.base_vectors)


# member kinds: "dead" has every upper bound <= 0, "positive" every lower
# bound >= 0 (no spanning column), "grid" small dyadic values whose sums are
# exact, so bounds can be exactly 0
KINDS = ("mixed", "dead", "positive", "grid", "bare", "many")


def draw_member(rng, kind, dim):
    m = int(rng.integers(1, 6))
    n = {"bare": 0, "many": int(rng.integers(9, 30))}.get(kind, int(rng.integers(0, 4)))
    if kind == "grid":
        c = rng.integers(-4, 5, size=(m, dim)) * 0.5
        v = rng.integers(-2, 3, size=(n, dim)) * 0.25
    else:
        c = rng.normal(size=(m, dim))
        v = rng.normal(size=(n, dim)) * rng.uniform(0.05, 1.0)
    radius = np.abs(v).sum(axis=0)
    if kind == "dead":
        c = -np.abs(c) - radius
    elif kind == "positive":
        c = np.abs(c) + radius
    # + 0.0 folds -0.0 into 0.0: relu_layer scales a column it keeps by 1
    # and adds 0 in a batch, which drops the sign of a zero
    return VZono(c + 0.0, v + 0.0)


@st.composite
def sibling_batches(draw):
    """1-6 members of one dimension, of the KINDS in any order, then 0-2
    trailing members without base vectors; values from a drawn seed."""
    dim = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    kinds += ["bare"] * draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [draw_member(rng, kind, dim) for kind in kinds], rng


class TestBatchMatchesBatchOfOne:
    """Every batched function treats each member exactly as a batch of one."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=sibling_batches())
    def test_column_bounds(self, case):
        members, _ = case
        lo, hi = column_bounds(stack_members(members))
        assert lo.shape == hi.shape == (len(members), members[0].dim)
        for j, z in enumerate(members):
            want_lo, want_hi = column_bounds(z)
            assert_same_bits(lo[j], want_lo[0])
            assert_same_bits(hi[j], want_hi[0])
            # the bounds of the per-neuron reference, in its summation order
            for i in range(z.dim):
                assert (lo[j, i], hi[j, i]) == neuron_bounds(z, i)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=sibling_batches())
    def test_relu_layer(self, case):
        members, _ = case
        batch = stack_members(members)
        before = (batch.base_vertices.copy(), batch.base_vectors.copy())
        out = relu_layer(batch)
        assert_same_bits(batch.base_vertices, before[0])
        assert_same_bits(batch.base_vectors, before[1])
        assert out.num_members == len(members)
        for j, z in enumerate(members):
            assert_same_vzono(member(out, j), relu_layer(z))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=sibling_batches(), k=st.integers(1, 3))
    def test_is_provably_safe(self, case, k):
        members, rng = case
        dim = members[0].dim
        cons = [(rng.integers(-2, 3, size=dim) * 0.5, float(rng.integers(-4, 5)) * 0.5)
                for _ in range(k)]
        got = is_provably_safe(stack_members(members), cons)
        assert got.shape == (len(members),)
        assert got.tolist() == [bool(is_provably_safe(z, cons)[0]) for z in members]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=sibling_batches(), data=st.data())
    def test_interval_hull_of_some_members(self, case, data):
        # output_overapprox coarsens only the members above VZONO_CAP
        members, _ = case
        which = np.array(data.draw(st.lists(st.booleans(), min_size=len(members),
                                            max_size=len(members))))
        out = interval_hull(stack_members(members), which)
        assert out.num_members == len(members)
        for j, z in enumerate(members):
            assert_same_vzono(member(out, j), interval_hull(z) if which[j] else z)

    def test_trailing_members_without_base_vectors(self):
        # reduceat over the raw rows would read the last member's rows for
        # the empty ones after it, or fail on a start past the last row
        members = [VZono(np.array([[1.0, -2.0]]), np.array([[0.5, 3.0], [1.0, 1.0]])),
                   VZono(np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros((0, 2))),
                   VZono(np.array([[-1.0, 2.0]]), np.zeros((0, 2)))]
        lo, hi = column_bounds(stack_members(members))
        assert lo.tolist() == [[-0.5, -6.0], [0.0, 0.0], [-1.0, 2.0]]
        assert hi.tolist() == [[2.5, 2.0], [1.0, 1.0], [-1.0, 2.0]]


def affine_map_keeping_zero_rows(z, w, b):
    """affine_map without its compaction: every base vector is mapped, the
    ones W sends to zero too."""
    return VZono(z.base_vertices @ w.T + b, z.base_vectors @ w.T, z.vertex_counts, z.vector_counts)


@st.composite
def nets_ignoring_inputs(draw):
    """A sibling batch and 1-3 affine layers, each of which ignores some of
    its inputs (zero weight columns) and may hold dead neurons (a zero
    weight row with a negative bias, which the next relu_layer zeroes)."""
    members, rng = draw(sibling_batches())
    dims = [members[0].dim] + draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    layers = []
    for d_in, d_out in zip(dims, dims[1:]):
        w = rng.normal(size=(d_out, d_in))
        w[:, rng.random(d_in) < 0.4] = 0.0
        b = rng.normal(size=d_out)
        dead = rng.random(d_out) < 0.3
        w[dead] = 0.0
        b[dead] = -1.0
        layers.append((w, b))
    return members, layers, rng


class TestAffineMapDropsZeroBaseVectors:
    """Dropping the base vectors an affine map zeroes keeps every member's
    point set: the kept rows are the mapped nonzero rows, bit for bit, the
    bounds agree up to summation order, and no verdict changes."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=nets_ignoring_inputs())
    def test_same_sets_bounds_and_verdicts(self, case):
        members, layers, rng = case
        z = stack_members(members)
        for w, b in layers:
            out = affine_map(z, w, b)
            full = affine_map_keeping_zero_rows(z, w, b)
            assert out.base_vectors.any(axis=1).all()
            assert out.num_members == full.num_members
            for j in range(out.num_members):
                kept = member(full, j).base_vectors
                assert_same_vzono(member(out, j), VZono(member(full, j).base_vertices,
                                                        kept[kept.any(axis=1)]))
            # np.add.reduceat groups a member's rows differently once its
            # zero rows are gone, which can move the last bits of a sum
            scale = max(1.0, np.abs(full.base_vertices).max(),
                        np.abs(full.base_vectors).sum(axis=0).max(initial=0.0))
            for got, want in zip(column_bounds(out), column_bounds(full)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
            dim = out.dim
            for _ in range(3):
                cons = [(rng.integers(-2, 3, size=dim) * 0.5, float(rng.integers(-4, 5)) * 0.5)
                        for _ in range(int(rng.integers(1, 3)))]
                assert is_provably_safe(out, cons).tolist() == is_provably_safe(full, cons).tolist()
            z = relu_layer(out)


class TestBatchConstruction:
    def test_single_set_is_a_batch_of_one(self):
        z = VZono(np.ones((3, 2)), np.ones((4, 2)))
        assert z.num_members == 1
        assert z.vertex_counts.tolist() == [3]
        assert z.vector_counts.tolist() == [4]

    @pytest.mark.parametrize(
        "vc, sc",
        [
            ([1, 2], [1]),  # one vector count for two members
            ([3, 0], [1, 0]),  # a member without base vertices
            ([1, 3], [1, 0]),  # vertex rows do not add up
            ([2, 1], [2, -1]),  # a negative count
            ([], []),  # no member
        ],
    )
    def test_rejects_row_counts_that_do_not_fit(self, vc, sc):
        with pytest.raises(ValueError):
            VZono(np.ones((3, 2)), np.ones((1, 2)), vc, sc)

    def test_from_tracked_stacks_siblings(self):
        a = box_polytope([0.0, 0.0], [1.0, 1.0])
        b = triangle_tracked(FIG5_TRIANGLE)
        z = from_tracked([a, b])
        assert z.vertex_counts.tolist() == [4, 3]
        assert z.vector_counts.tolist() == [0, 0]
        assert np.array_equal(z.base_vertices, np.vstack([a.current_vertices, b.current_vertices]))
        with pytest.raises(ValueError):
            from_tracked([])

    def test_constraint_min_takes_one_set(self):
        z = stack_members([VZono(np.zeros((1, 2)), np.zeros((0, 2)))] * 2)
        with pytest.raises(ValueError, match="batch of 2"):
            constraint_min(z, np.ones(2), 0.0)
