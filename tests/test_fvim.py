"""Polytope engine: box construction, splits, bounds, derived halfspaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relurepair.fvim import (
    ON_PLANE_TOL,
    DegenerateSetError,
    TrackedSet,
    _dedupe_rows,
    affine_map,
    box_polytope,
    facet_halfspaces,
    keep_leq,
    split_by_neuron,
)

from conftest import contains, dim_bounds, fit_affine, region_points, triangle_tracked, validate

FIG5_TRIANGLE = [[-1.0, 2.0], [-1.0, 0.0], [1.0, 0.0]]


def as_row_set(arr, decimals=9):
    return {tuple(np.round(row, decimals) + 0.0) for row in arr}


class TestBoxPolytope:
    def test_unit_square(self):
        s = box_polytope([0.0, 0.0], [1.0, 1.0])
        assert s.num_vertices == 4
        assert s.fvim.shape == (4, 4)
        assert as_row_set(s.input_vertices) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert (s.fvim.sum(axis=1) == 2).all()
        # the row for facet x_i = lb_i marks exactly the vertices at lb_i
        for i in range(2):
            low_row = s.fvim[2 * i]
            assert np.array_equal(low_row, s.input_vertices[:, i] == 0.0)
        validate(s)

    def test_five_dimensional_sensor_box(self):
        pi = math.pi
        s = box_polytope([0.0, -pi, -pi, 100.0, 0.0], [56000.0, pi, pi, 1000.0, 1000.0])
        assert s.num_vertices == 32
        assert s.fvim.shape[0] == 10
        validate(s)

    def test_unit_cube_incidence_counts(self):
        s = box_polytope([0.0] * 3, [1.0] * 3)
        assert s.num_vertices == 8
        assert s.fvim.shape[0] == 6
        assert (s.fvim.sum(axis=0) == 3).all()  # every vertex on exactly 3 facets
        assert (s.fvim.sum(axis=1) == 4).all()  # every facet holds 4 vertices

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            box_polytope([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            box_polytope([], [])

    def test_current_equals_input_at_start(self):
        s = box_polytope([-1.0, 0.0], [2.0, 3.0])
        assert np.array_equal(s.input_vertices, s.current_vertices)


class TestAffineMap:
    def test_identity(self):
        s = box_polytope([0.0, 0.0], [1.0, 1.0])
        out = affine_map(s, np.eye(2), np.zeros(2))
        assert np.array_equal(out.current_vertices, s.current_vertices)
        assert out.fvim is s.fvim

    def test_axis_scaling(self):
        s = box_polytope([0.0, 0.0], [1.0, 1.0])
        out = affine_map(s, np.array([[2.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        assert as_row_set(out.current_vertices) == {(0, 0), (0, 1), (2, 0), (2, 1)}
        assert np.array_equal(out.fvim, s.fvim)
        assert np.array_equal(out.input_vertices, s.input_vertices)

    def test_affine_consistency_invariant(self):
        rng = np.random.default_rng(0)
        s = box_polytope([-1.0] * 3, [1.0] * 3)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        out = affine_map(s, w, b)
        _, _, resid = fit_affine(out.input_vertices, out.current_vertices)
        assert resid <= 1e-9

    def test_dimension_mismatch(self):
        s = box_polytope([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            affine_map(s, np.eye(3), np.zeros(3))


class TestDimBounds:
    def test_unit_square(self):
        assert dim_bounds(box_polytope([0.0, 0.0], [1.0, 1.0]), 0) == (0.0, 1.0)

    def test_worked_triangle(self):
        assert dim_bounds(triangle_tracked(FIG5_TRIANGLE), 0) == (-1.0, 1.0)

    def test_matches_vertex_scan_after_splits(self):
        rng = np.random.default_rng(1)
        s = box_polytope([-1.0] * 3, [1.0] * 3)
        s = affine_map(s, rng.normal(size=(3, 3)), rng.normal(size=3) * 0.1)
        for part in split_by_neuron(s, 1):
            for i in range(part.current_dim):
                lo, hi = dim_bounds(part, i)
                col = [float(v) for v in part.current_vertices[:, i]]
                assert lo == min(col) and hi == max(col)


class TestSplitByNeuron:
    def test_symmetric_square_split(self):
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        parts = split_by_neuron(s, 0)
        assert len(parts) == 2
        neg, pos = parts
        assert neg.num_vertices == 4 and pos.num_vertices == 4
        assert np.array_equal(neg.current_vertices[:, 0], np.zeros(4))
        assert as_row_set(pos.input_vertices) == {(0, -1), (0, 1), (1, -1), (1, 1)}
        assert as_row_set(neg.input_vertices) == {(-1, -1), (-1, 1), (0, -1), (0, 1)}
        for p in parts:
            validate(p)

    def test_worked_triangle_split(self):
        s = triangle_tracked(FIG5_TRIANGLE)
        parts = split_by_neuron(s, 0)
        assert len(parts) == 2
        neg, pos = parts
        # positive child: interpolation of edge (-1,2)-(1,0) at t = 0.5 gives (0,1)
        assert as_row_set(pos.current_vertices) == {(0, 1), (0, 0), (1, 0)}
        assert neg.num_vertices == 4
        assert as_row_set(neg.input_vertices) == {(-1, 2), (-1, 0), (0, 1), (0, 0)}
        # negative child's current x0 column is zeroed
        assert np.array_equal(neg.current_vertices[:, 0], np.zeros(4))

    def test_single_sign_cases(self):
        s = box_polytope([1.0, 1.0], [2.0, 2.0])
        assert split_by_neuron(s, 0) == [s]  # all positive: unchanged
        shifted = affine_map(s, np.eye(2), np.array([-5.0, 0.0]))
        (neg,) = split_by_neuron(shifted, 0)
        assert np.array_equal(neg.current_vertices[:, 0], np.zeros(4))

    def test_interpolated_vertices_on_plane(self):
        rng = np.random.default_rng(2)
        s = box_polytope([-1.0] * 3, [1.0] * 3)
        s = affine_map(s, rng.normal(size=(3, 3)), rng.normal(size=3) * 0.2)
        parts = split_by_neuron(s, 0)
        assert len(parts) == 2
        for part in parts[1:]:  # positive child keeps raw interpolants
            new_rows = np.abs(part.current_vertices[:, 0]) <= 1e-9
            assert new_rows.any()

    def test_partition_of_input_region(self):
        rng = np.random.default_rng(3)
        s = box_polytope([-1.0] * 3, [1.0] * 3)
        s = affine_map(s, rng.normal(size=(4, 3)), rng.normal(size=4) * 0.1)
        parts = split_by_neuron(s, 2)
        assert len(parts) == 2
        hs = [facet_halfspaces(p) for p in parts]
        pts = region_points(rng, s.input_vertices, 500)
        # drop points within tolerance of the split plane
        a, c, _ = fit_affine(s.input_vertices, s.current_vertices[:, 2:3])
        plane_vals = pts @ a.T[:, 0] + c[0]
        keep = np.abs(plane_vals) > 1e-7
        inside = np.stack([contains(h, pts, tol=1e-9) for h in hs])
        assert (inside[:, keep].sum(axis=0) == 1).all()

    def test_split_through_corner_shares_vertex(self):
        s = box_polytope([0.0, 0.0], [1.0, 1.0])
        # current value x0 - x1 vanishes at two corners: the diagonal split
        s = affine_map(s, np.array([[1.0, -1.0], [0.0, 1.0]]), np.zeros(2))
        parts = split_by_neuron(s, 0)
        assert len(parts) == 2
        assert {p.num_vertices for p in parts} == {3}
        both = as_row_set(parts[0].input_vertices) & as_row_set(parts[1].input_vertices)
        assert both == {(0, 0), (1, 1)}

    def test_affine_consistency_through_split_sequences(self):
        rng = np.random.default_rng(4)
        s = box_polytope([-1.0] * 3, [1.0] * 3)
        frontier = [s]
        for step in range(3):
            w = rng.normal(size=(3, 3))
            b = rng.normal(size=3) * 0.2
            nxt = []
            for cur in frontier:
                mapped = affine_map(cur, w, b)
                nxt.extend(split_by_neuron(mapped, step % 3))
            frontier = nxt
        assert len(frontier) > 3
        for cur in frontier:
            validate(cur)
            _, _, resid = fit_affine(cur.input_vertices, cur.current_vertices)
            assert resid <= 1e-9

    def test_new_facet_row_present_in_both_children(self):
        rng = np.random.default_rng(5)
        s = box_polytope([-1.0] * 3, [1.0] * 3)
        s = affine_map(s, rng.normal(size=(3, 3)), np.zeros(3))
        neg, pos = split_by_neuron(s, 0)
        for child, col in ((neg, None), (pos, 0)):
            d = child.input_dim
            assert (child.fvim.sum(axis=1) >= d).all()
        # the appended split facet contains every on-plane vertex
        on_pos = np.abs(pos.current_vertices[:, 0]) <= 1e-9
        assert any(
            np.array_equal(pos.fvim[r] & on_pos, on_pos) and pos.fvim[r][~on_pos].sum() == 0
            for r in range(pos.fvim.shape[0])
        )

    def test_degenerate_input_rejected(self):
        bad = TrackedSet(
            np.ones((2, 2), bool), np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros((2, 2)), 0
        )
        with pytest.raises(DegenerateSetError):
            split_by_neuron(bad, 0)


class TestKeepLeq:
    def test_entirely_inside(self):
        s = box_polytope([0.0, 0.0], [1.0, 1.0])
        assert keep_leq(s, np.array([1.0, 0.0]), -2.0) is s

    def test_entirely_outside(self):
        s = box_polytope([0.0, 0.0], [1.0, 1.0])
        assert keep_leq(s, np.array([1.0, 0.0]), 0.5) is None

    def test_half_restriction(self):
        s = box_polytope([-1.0, -1.0], [1.0, 1.0])
        cut = keep_leq(s, np.array([1.0, 0.0]), 0.0)
        assert as_row_set(cut.input_vertices) == {(-1, -1), (-1, 1), (0, -1), (0, 1)}


class TestFacetHalfspaces:
    def test_cube_recovers_box(self):
        s = box_polytope([-1.0, 0.0, 2.0], [1.0, 3.0, 5.0])
        hs = facet_halfspaces(s)
        rng = np.random.default_rng(6)
        inside = rng.uniform([-1, 0, 2], [1, 3, 5], size=(200, 3))
        assert contains(hs, inside, tol=1e-9).all()
        outside = inside.copy()
        outside[:, 0] += 2.5
        assert not contains(hs, outside, tol=1e-9).any()

    def test_split_child_halfspaces_tight(self):
        rng = np.random.default_rng(7)
        s = box_polytope([-1.0] * 2, [1.0] * 2)
        s = affine_map(s, rng.normal(size=(2, 2)), np.zeros(2))
        for part in split_by_neuron(s, 0):
            hs = facet_halfspaces(part)
            pts = region_points(rng, part.input_vertices, 300)
            assert contains(hs, pts, tol=1e-9).all()


# ---------------------------------------------------------------------------
# The vectorised split against the per-pair loop it replaced. Children must be
# bit-equal: same incidence, same vertex values, same row order.


def reference_split(s, values):
    """One Python iteration per negative x positive vertex pair."""
    neg = values < -ON_PLANE_TOL
    pos = values > ON_PLANE_TOL
    on = ~neg & ~pos
    d = s.input_dim
    shared = s.fvim.T.astype(np.int32) @ s.fvim.astype(np.int32)
    new_incidence, new_inputs, new_currents = [], [], []
    for p in np.where(neg)[0]:
        for q in np.where(pos)[0]:
            if shared[p, q] < d - 1:
                continue
            t = values[p] / (values[p] - values[q])
            new_inputs.append(s.input_vertices[p] + t * (s.input_vertices[q] - s.input_vertices[p]))
            new_currents.append(s.current_vertices[p] + t * (s.current_vertices[q] - s.current_vertices[p]))
            new_incidence.append(s.fvim[:, p] & s.fvim[:, q])

    def child(keep):
        cols = s.fvim[:, keep]
        inputs = s.input_vertices[keep].copy()
        currents = s.current_vertices[keep].copy()
        if new_inputs:
            cols = np.hstack([cols, np.stack(new_incidence, axis=1)])
            inputs = np.vstack([inputs, new_inputs])
            currents = np.vstack([currents, new_currents])
        split_row = np.concatenate([on[keep], np.ones(len(new_inputs), dtype=bool)])
        mat = np.vstack([cols, split_row])
        mat = mat[mat.sum(axis=1) >= max(d, 1)]
        seen, rows = set(), []
        for r in range(mat.shape[0]):
            if mat[r].tobytes() not in seen:
                seen.add(mat[r].tobytes())
                rows.append(r)
        if inputs.shape[0] < d + 1:
            return None
        return TrackedSet(mat[rows], inputs, currents, s.layer_cursor)

    return child(np.where(neg | on)[0]), child(np.where(pos | on)[0])


def spans(values):
    return values.min() < -ON_PLANE_TOL and values.max() > ON_PLANE_TOL


ARRAYS = ("fvim", "input_vertices", "current_vertices")


def assert_bit_equal(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    for name in ARRAYS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    assert got.layer_cursor == want.layer_cursor


def snapshot(s):
    return [getattr(s, name).tobytes() for name in ARRAYS]


def assert_owns_arrays(children):
    """A split child's arrays are its own: no view that keeps a larger
    gathered block (or the parent's arrays) alive."""
    for child in children:
        for name in ARRAYS:
            assert getattr(child, name).base is None, name


def checked_split_by_neuron(s, i):
    """split_by_neuron, checked against the reference when neuron i spans;
    the parent's arrays must come back unchanged."""
    before = snapshot(s)
    got = split_by_neuron(s, i)
    assert snapshot(s) == before
    col = s.current_vertices[:, i]
    if spans(col):
        neg, pos = reference_split(s, col)
        want = []
        if neg is not None:
            cur = neg.current_vertices.copy()
            cur[:, i] = 0.0
            want.append(TrackedSet(neg.fvim, neg.input_vertices, cur, neg.layer_cursor))
        if pos is not None:
            want.append(pos)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_bit_equal(g, w)
        assert_owns_arrays(got)
    return got


def checked_keep_leq(s, alpha, beta):
    """keep_leq, checked against the reference's negative child on a split;
    the parent's arrays must come back unchanged."""
    before = snapshot(s)
    got = keep_leq(s, alpha, beta)
    assert snapshot(s) == before
    values = s.current_vertices @ alpha + beta
    if spans(values):
        assert_bit_equal(got, reference_split(s, values)[0])
        assert_owns_arrays([got] if got is not None else [])
    return got


# offsets that put vertex values exactly on, inside and just outside the
# on-plane band around an integer
TOL_OFFSETS = [0.0, 0.5 * ON_PLANE_TOL, -0.5 * ON_PLANE_TOL, 2 * ON_PLANE_TOL, -2 * ON_PLANE_TOL]


@st.composite
def box_split_chains(draw):
    """A box of dimension 1-5 and a few integer affine maps to split it by."""
    d = draw(st.integers(1, 5))
    steps = []
    cur_dim = d
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 3))
        w = draw(st.lists(st.lists(st.integers(-2, 2), min_size=cur_dim, max_size=cur_dim),
                          min_size=m, max_size=m))
        b = [draw(st.integers(-2, 2)) + draw(st.sampled_from(TOL_OFFSETS)) for _ in range(m)]
        steps.append((np.array(w, float), np.array(b)))
        cur_dim = m
    cut = draw(st.lists(st.integers(-2, 2), min_size=cur_dim, max_size=cur_dim))
    cut_b = draw(st.integers(-2, 2)) + draw(st.sampled_from(TOL_OFFSETS))
    return d, steps, np.array(cut, float), cut_b


@st.composite
def arbitrary_incidence_sets(draw):
    """Small sets with any incidence pattern: the split only reads the
    incidence matrix and the vertex values, so this reaches duplicate rows
    and degenerate children that box splits rarely produce."""
    d = draw(st.integers(1, 4))
    nv = draw(st.integers(2, 8))
    nf = draw(st.integers(1, 6))
    fvim = np.array(draw(st.lists(st.lists(st.booleans(), min_size=nv, max_size=nv),
                                  min_size=nf, max_size=nf)), dtype=bool)
    inputs = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                                    min_size=nv, max_size=nv)), float)
    values = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 3.0] + TOL_OFFSETS),
                                    min_size=nv, max_size=nv)))
    currents = np.stack([values, inputs[:, 0] * 0.5], axis=1)
    return TrackedSet(fvim, inputs, currents, 1)


class TestSplitMatchesPairLoop:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=box_split_chains())
    def test_box_split_chains(self, case):
        d, steps, cut, cut_b = case
        frontier = [box_polytope([-1.0] * d, [1.0] * d)]
        for w, b in steps:
            nxt = []
            for cur in frontier:
                sets = [affine_map(cur, w, b)]
                for i in range(w.shape[0]):
                    sets = [c for s in sets for c in checked_split_by_neuron(s, i)]
                nxt.extend(sets)
            frontier = nxt[:8]
        for cur in frontier:
            checked_keep_leq(cur, cut, cut_b)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(s=arbitrary_incidence_sets())
    def test_arbitrary_incidence(self, s):
        checked_keep_leq(s, np.array([1.0, 0.0]), 0.0)
        if s.num_vertices >= s.input_dim + 1:
            checked_split_by_neuron(s, 0)

    def test_one_dimensional_every_pair_is_an_edge(self):
        # d - 1 = 0 shared facets: every negative/positive pair is an edge,
        # even two vertices that share no facet row
        s = TrackedSet(np.array([[1, 0, 0], [0, 1, 0]], bool),
                       np.array([[-1.0], [2.0], [3.0]]), np.array([[-1.0], [2.0], [3.0]]), 0)
        neg, pos = checked_split_by_neuron(s, 0)
        assert neg.num_vertices == 3 and pos.num_vertices == 4
        assert np.array_equal(pos.input_vertices[2:, 0], [0.0, 0.0])

    def test_on_plane_vertices_shared_by_both_children(self):
        for h in (0.5 * ON_PLANE_TOL, -0.5 * ON_PLANE_TOL):
            s = affine_map(box_polytope([-1.0, -1.0], [1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([h]))
            neg, pos = checked_split_by_neuron(s, 0)
            # the two anti-diagonal corners lie within tolerance of the plane
            assert neg.num_vertices == pos.num_vertices == 3
            both = as_row_set(neg.input_vertices) & as_row_set(pos.input_vertices)
            assert both == {(-1, 1), (1, -1)}

    def test_split_through_a_vertex(self):
        s = box_polytope([-1.0] * 3, [1.0] * 3)
        cut = checked_keep_leq(s, np.array([1.0, 1.0, 1.0]), -1.0)
        # x0 + x1 + x2 = 1 passes through the three corners with one -1
        on = np.isclose(cut.input_vertices.sum(axis=1), 1.0)
        assert on.sum() == 3 and cut.num_vertices == 7

    def test_degenerate_child_discarded(self, caplog):
        # vertex 0 shares no facet with any positive vertex: no edge leaves
        # it, so the negative side is a single vertex of a 2-d set
        fvim = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1]], bool)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        s = TrackedSet(fvim, verts, np.array([[-1.0], [1.0], [1.0], [1.0]]), 0)
        with caplog.at_level("WARNING", logger="relurepair.fvim"):
            (pos,) = checked_split_by_neuron(s, 0)
        assert "degenerate" in caplog.text
        assert pos.num_vertices == 3
        assert checked_keep_leq(s, np.array([1.0]), 0.0) is None

    def test_duplicate_rows_dropped_in_first_occurrence_order(self):
        # facets 0 and 1 differ only at vertex 0, which the negative child drops
        s = TrackedSet(np.array([[1, 0, 1], [0, 0, 1]], bool),
                       np.array([[2.0], [-1.0], [0.0]]), np.array([[2.0], [-1.0], [0.0]]), 0)
        neg, _ = checked_split_by_neuron(s, 0)
        assert neg.fvim.astype(int).tolist() == [[0, 1, 0], [0, 1, 1]]
        rows = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0]], bool)
        assert _dedupe_rows(rows).astype(int).tolist() == [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
        head = rows[:2]
        assert _dedupe_rows(head) is head
