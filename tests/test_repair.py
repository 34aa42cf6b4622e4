"""Repair loop: correction geometry, vertex pairs, volume, convergence."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from relurepair import fixtures as fx
from relurepair import reach as reach_mod
from relurepair.model import (
    IDENTITY,
    RELU,
    LabeledDataset,
    Layer,
    Network,
    TrainConfig,
    accuracy,
    forward_batch,
    save_nnet,
)
from relurepair.reach import (
    ReachOptions,
    SafetyProperty,
    UnsafeDomain,
    projection_polygon,
    reach_unsafe,
    reach_unsafe_all,
)
from relurepair.repair import (
    EXHAUSTED,
    REPAIRED,
    RepairAborted,
    RepairConfig,
    _TrainingPool,
    correct,
    repair,
    representative_pairs,
    unsafe_volume_ratio,
)

from conftest import forward, holds, triangle_tracked

# by module path: the package re-exports the function `repair`
repair_mod = importlib.import_module("relurepair.repair")


def identity_prop(a, b):
    """Property on [-1, 1]^2 whose unsafe set is a . y + b <= 0, for the
    2-d identity network."""
    unsafe = UnsafeDomain([(np.asarray(a, float), b)])
    return SafetyProperty("id", [-1.0, -1.0], [1.0, 1.0], unsafe)


IDENTITY_NET = Network([Layer(np.eye(2), np.zeros(2), IDENTITY)])


def desk_repair_fixture():
    """Teacher with a shifted output bias as the unsafe candidate; the
    property box sits where the teacher is reliably first-advisory."""
    teacher = Network(
        [
            Layer(np.eye(2), np.array([1.0, 1.0]), RELU),
            Layer(np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([0.3, 0.0]), IDENTITY),
        ]
    )
    candidate = Network(
        [
            Layer(np.eye(2), np.array([1.0, 1.0]), RELU),
            Layer(np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([-2.0, 0.0]), IDENTITY),
        ]
    )
    prop = SafetyProperty(
        "desk-p1",
        [0.2, -1.0],
        [1.0, -0.2],
        UnsafeDomain([(np.array([1.0, -1.0]), 0.0)]),  # unsafe iff y1 <= y2
    )
    train_data = fx.sampled_dataset(teacher, [-1, -1], [1, 1], 600, seed=5)
    test_data = fx.sampled_dataset(teacher, [-1, -1], [1, 1], 400, seed=6)
    return candidate, prop, train_data, test_data


class TestRepresentativePairs:
    def test_empty(self):
        assert representative_pairs([]) == []

    def test_triangle_gives_three_pairs(self):
        region = triangle_tracked([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        region = replace(region, current_vertices=region.input_vertices * 2.0)
        pairs = representative_pairs([region])
        assert len(pairs) == 3
        assert np.array_equal(pairs[1][1], [2.0, 0.0])

    def test_deduplicates_across_regions(self):
        tri = triangle_tracked([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        shifted = triangle_tracked([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        pairs = representative_pairs([tri, shifted])
        assert len(pairs) == 4

    def test_pairs_are_forward_images(self):
        net = fx.toy_unsafe_network()
        prop = fx.toy_property()
        regions = reach_unsafe(net, prop)
        for x, y in representative_pairs(regions):
            assert np.allclose(forward(net, x), y, atol=1e-9)


class TestCorrect:
    def test_closed_form_single_constraint(self):
        u = UnsafeDomain([(np.array([1.0, -1.0]), 0.0)])
        got = correct(np.array([0.2, 0.5]), u, 0.02)
        assert np.allclose(got, [0.353, 0.347], atol=1e-12)

    def test_boundary_point_pushed_to_alpha_slack(self):
        u = UnsafeDomain([(np.array([2.0, 0.0]), 0.0)])
        got = correct(np.array([0.0, 1.0]), u, 0.02)
        a = np.array([2.0, 0.0])
        assert float(a @ got) == pytest.approx(0.02, abs=1e-12)

    def test_advisory_domain_correction_restores_competitiveness(self):
        cons = []
        for k in range(1, 5):
            a = np.zeros(5)
            a[0], a[k] = 1.0, -1.0
            cons.append((a, 0.0))
        u = UnsafeDomain(cons)
        y = np.array([0.0, 0.1, 0.5, 0.9, 0.2])  # y1 below every other advisory
        got = correct(y, u, 0.02)
        assert (got[0] > got[1:]).any()
        assert not holds(u, got)

    def test_exits_domain_with_exact_overshoot(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 300:
            dim = int(rng.integers(2, 5))
            cons = [(rng.normal(size=dim), float(rng.normal() * 0.5)) for _ in range(int(rng.integers(1, 4)))]
            u = UnsafeDomain(cons)
            y = rng.normal(size=dim) * 2
            if not holds(u, y):
                continue
            checked += 1
            got = correct(y, u, 0.02)
            assert not holds(u, got)
            dists = [-(float(a @ y) + b) / np.linalg.norm(a) for a, b in cons]
            assert np.linalg.norm(got - y) == pytest.approx(1.02 * min(dists), abs=1e-12)

    def test_rejects_point_outside_domain(self):
        u = UnsafeDomain([(np.array([1.0, 0.0]), 0.0)])
        with pytest.raises(ValueError):
            correct(np.array([1.0, 0.0]), u, 0.02)


class TestUnsafeVolumeRatio:
    def test_no_regions(self):
        # unsafe iff y0 >= 2, out of reach of the box
        assert unsafe_volume_ratio(IDENTITY_NET, identity_prop([-1.0, 0.0], 2.0), 100) == 0.0

    def test_whole_box(self):
        # unsafe iff y0 <= 2, everywhere on the box
        assert unsafe_volume_ratio(IDENTITY_NET, identity_prop([1.0, 0.0], -2.0), 2000) == 1.0

    def test_half_box(self):
        # unsafe iff y0 <= 0, the left half of the box
        got = unsafe_volume_ratio(IDENTITY_NET, identity_prop([1.0, 0.0], 0.0), 10_000, seed=1)
        assert got == pytest.approx(0.5, abs=0.02)

    def test_needs_a_sample(self):
        with pytest.raises(ValueError, match="sample"):
            unsafe_volume_ratio(IDENTITY_NET, identity_prop([1.0, 0.0], 0.0), 0)


class TestTrainingPool:
    def test_corrected_pairs_overwrite_stale_targets(self):
        from relurepair.model import LabeledDataset

        data = LabeledDataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        pool = _TrainingPool(data)
        pool.upsert([(np.array([0.0, 0.0]), np.array([5.0, 5.0]))])
        ds = pool.dataset()
        assert len(ds) == 2
        assert np.array_equal(ds.targets[0], [5.0, 5.0])
        # keys match to 1e-9: a sub-tolerance nudge hits the same slot
        pool.upsert([(np.array([0.0, 1e-12]), np.array([7.0, 7.0]))])
        assert len(pool.dataset()) == 2


class TestRepair:
    def test_already_safe_returns_after_one_pass(self):
        net = fx.toy_safe_network()
        prop = fx.toy_property()
        data = fx.sampled_dataset(net, prop.input_lb, prop.input_ub, 100, seed=0)
        out, report = repair(net, [prop], data, data, RepairConfig(max_iterations=5))
        assert report.verdict == REPAIRED
        assert len(report.iterations) == 1
        assert report.iterations[0].unsafe_region_counts == {prop.name: 0}
        assert out is net

    def test_desk_fixture_repairs(self):
        candidate, prop, train_data, test_data = desk_repair_fixture()
        cfg = RepairConfig(
            alpha=0.02,
            max_iterations=50,
            train=TrainConfig(learning_rate=0.05, batch_size=32, epochs_per_iteration=5, seed=1),
        )
        base = accuracy(candidate, test_data)
        fixed, report = repair(candidate, [prop], train_data, test_data, cfg)
        assert report.verdict == REPAIRED
        assert reach_unsafe(fixed, prop) == []
        assert accuracy(fixed, test_data) >= base - 0.05
        # one record per iteration, final record clean
        assert [r.iteration for r in report.iterations] == list(range(1, len(report.iterations) + 1))
        assert report.iterations[-1].unsafe_region_counts == {prop.name: 0}

    def test_sensor_style_fixture_small_accuracy_change(self):
        # 5-d desk analog of a collision-avoidance controller repair, in
        # normalized sensor units; gate is the absolute-floor form
        unsafe = fx.not_minimum_domain(5, advisory=0)
        props = [
            SafetyProperty("n1", [0.893, 0, 0, 0.889, 0], [1, 1, 1, 1, 0.06], unsafe),
            SafetyProperty("n2", [0.0268, 0.4905, 0.9934, 0.867, 0.86], [0.0321, 0.5095, 1, 1, 1], unsafe),
            SafetyProperty("n3", [0.0268, 0.4905, 0.498, 0.889, 0.7], [0.0321, 0.5095, 0.502, 1, 1], unsafe),
        ]
        net = fx.random_network([5, 8, 8, 5], seed=1)
        baseline = reach_unsafe(net, props[0])
        assert baseline, "fixture must start out unsafe"
        train_data = fx.sampled_dataset(net, np.zeros(5), np.ones(5), 1500, seed=101)
        test_data = fx.sampled_dataset(net, np.zeros(5), np.ones(5), 800, seed=201)
        cfg = RepairConfig(
            alpha=0.1,
            epsilon=-1.0,  # disable the delta form
            accuracy_floor=0.93,
            max_iterations=50,
            train=TrainConfig(learning_rate=0.1, batch_size=32, epochs_per_iteration=30, seed=1),
        )
        base = accuracy(net, test_data)
        fixed, report = repair(net, props, train_data, test_data, cfg)
        assert report.verdict == REPAIRED
        for p in props:
            assert reach_unsafe(fixed, p) == []
        # accuracy change stays within a few percentage points
        assert abs(accuracy(fixed, test_data) - base) <= 0.05

    def test_unreachable_gate_exhausts_iterations(self):
        net = fx.toy_safe_network()
        prop = fx.toy_property()
        data = fx.sampled_dataset(net, prop.input_lb, prop.input_ub, 60, seed=2)
        cfg = RepairConfig(
            epsilon=1.0,  # impossible accuracy gain
            max_iterations=3,
            train=TrainConfig(learning_rate=0.01, batch_size=16, epochs_per_iteration=1, seed=0),
        )
        _, report = repair(net, [prop], data, data, cfg)
        assert report.verdict == EXHAUSTED
        assert len(report.iterations) == 3

    def test_reach_blowup_aborts_with_partial_report(self):
        candidate, prop, train_data, test_data = desk_repair_fixture()
        cfg = RepairConfig(reach=ReachOptions(max_sets=1), max_iterations=5)
        with pytest.raises(RepairAborted) as err:
            repair(candidate, [prop], train_data, test_data, cfg)
        assert err.value.report.iterations == []

    def test_seeded_repair_reports_identical(self):
        candidate, prop, train_data, test_data = desk_repair_fixture()
        cfg = RepairConfig(
            max_iterations=10,
            train=TrainConfig(learning_rate=0.05, batch_size=32, epochs_per_iteration=5, seed=1),
        )
        _, r1 = repair(candidate, [prop], train_data, test_data, cfg)
        _, r2 = repair(candidate, [prop], train_data, test_data, cfg)
        assert r1.to_dict(include_timing=False) == r2.to_dict(include_timing=False)

    def test_stall_after_verifying_safe_is_visible_in_records(self):
        # once the candidate verifies safe but the gate fails, nothing is
        # corrected, so nothing is merged and the loop retrains on a fixed pool
        candidate, prop, train_data, test_data = desk_repair_fixture()
        cfg = RepairConfig(
            epsilon=1.0,  # impossible accuracy gain
            max_iterations=10,
            train=TrainConfig(learning_rate=0.05, batch_size=32, epochs_per_iteration=5, seed=1),
        )
        _, report = repair(candidate, [prop], train_data, test_data, cfg)
        assert report.verdict == EXHAUSTED
        recs = report.iterations
        first_safe = next(i for i, r in enumerate(recs) if r.unsafe_region_counts[prop.name] == 0)
        assert 0 < first_safe < len(recs) - 1
        assert recs[0].pairs_corrected > 0
        assert recs[0].pool_size == len(train_data) + recs[0].pairs_corrected
        stalled_pool = recs[first_safe - 1].pool_size
        for rec in recs[first_safe:]:
            assert rec.pairs_corrected == 0
            assert rec.pool_size == stalled_pool
        entry = report.to_dict(include_timing=False)["iterations"][-1]
        assert (entry["pairs_corrected"], entry["pool_size"]) == (0, stalled_pool)

    def test_volume_ratio_recorded_in_unit_interval(self):
        candidate, prop, train_data, test_data = desk_repair_fixture()
        cfg = RepairConfig(
            max_iterations=10,
            train=TrainConfig(learning_rate=0.05, batch_size=32, epochs_per_iteration=5, seed=1),
        )
        _, report = repair(candidate, [prop], train_data, test_data, cfg)
        for rec in report.iterations:
            for v in rec.unsafe_volume_ratios.values():
                assert 0.0 <= v <= 1.0


def duplicate_named_properties():
    """Two properties named "dup" on the toy unsafe network, y0 - y1 <= 0
    unsafe: the box [-1,1]^2 alone holds one unsafe region, [5,6]x[0,1]
    none."""
    unsafe = UnsafeDomain([(np.array([1.0, -1.0]), 0.0)])
    return [
        SafetyProperty("dup", [-1.0, -1.0], [1.0, 1.0], unsafe),
        SafetyProperty("dup", [5.0, 0.0], [6.0, 1.0], unsafe),
    ]


def must_not_run(*args, **kwargs):
    raise AssertionError("repair went past its input checks")


class TestRepairIgnoresFilter:
    def test_filter_on_and_off_repair_identically(self, tmp_path):
        # the top 5% of y0 - y1 over the box is unsafe; the data are the
        # network's own outputs on samples below it. Exact exploration reaches
        # wholly safe final sets that the filter prunes, so a repair that
        # learned from them would depend on the filter.
        net = fx.random_network([3, 8, 8, 2], seed=3)
        xs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(1500, 3))
        ys = forward_batch(net, xs)
        t = float(np.percentile(ys[:, 0] - ys[:, 1], 95))
        prop = SafetyProperty("top", -np.ones(3), np.ones(3),
                              UnsafeDomain([(np.array([-1.0, 1.0]), t)]))
        below = ys[:, 0] - ys[:, 1] < t
        xs, ys = xs[below], ys[below]
        train_data = LabeledDataset(xs[:300], ys[:300])
        test_data = LabeledDataset(xs[300:500], ys[300:500])
        out = []
        for use_filter in (True, False):
            cfg = RepairConfig(
                alpha=0.5,
                epsilon=-0.05,
                reach=ReachOptions(use_filter=use_filter),
                train=TrainConfig(learning_rate=0.05, epochs_per_iteration=5),
            )
            fixed, report = repair(net, [prop], train_data, test_data, cfg)
            assert report.verdict == REPAIRED
            path = tmp_path / f"filter-{use_filter}.nnet"
            save_nnet(fixed, path)
            out.append((path.read_bytes(), report.to_dict(include_timing=False)))
        assert out[0][1]["iterations"][0]["pairs_corrected"] > 0
        assert out[0] == out[1]


class TestRepairConfig:
    @pytest.mark.parametrize("name", ["alpha", "epsilon", "accuracy_floor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_setting_rejected(self, name, value):
        # NaN passes `alpha <= 0` and makes every accuracy-gate comparison false
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            RepairConfig(**{name: value})


class TestRepairInputChecks:
    def test_fixture_regions_differ_by_box(self):
        net = fx.toy_unsafe_network()
        p1, p2 = duplicate_named_properties()
        assert len(reach_unsafe(net, p1)) == 1
        assert reach_unsafe(net, p2) == []

    @pytest.mark.parametrize("order", [1, -1])
    def test_reach_rejects_duplicate_names(self, order):
        props = duplicate_named_properties()[::order]
        with pytest.raises(ValueError, match="duplicate property name 'dup'"):
            reach_unsafe_all(fx.toy_unsafe_network(), props)

    def test_reach_rejects_duplicate_names_on_one_box(self):
        p1, _ = duplicate_named_properties()
        other = SafetyProperty("dup", p1.input_lb, p1.input_ub, UnsafeDomain([(np.array([-1.0, 1.0]), 0.0)]))
        with pytest.raises(ValueError, match="duplicate property name 'dup'"):
            reach_unsafe_all(fx.toy_unsafe_network(), [p1, other])

    def test_repair_rejects_duplicate_names_before_training(self, monkeypatch):
        net = fx.toy_unsafe_network()
        data = fx.sampled_dataset(fx.toy_safe_network(), [-1, -1], [1, 1], 100, seed=0)
        monkeypatch.setattr(repair_mod, "train", must_not_run)
        with pytest.raises(ValueError, match="duplicate property name 'dup'"):
            repair(net, duplicate_named_properties(), data, data, RepairConfig(max_iterations=3))

    @pytest.mark.parametrize(
        "which, field, width, want",
        [
            ("training", "inputs", 3, "training inputs are 3 wide, network expects 2"),
            ("training", "targets", 1, "training targets are 1 wide, network has 2 outputs"),
            ("test", "inputs", 1, "test inputs are 1 wide, network expects 2"),
            ("test", "targets", 3, "test targets are 3 wide, network has 2 outputs"),
        ],
    )
    def test_repair_rejects_datasets_of_the_wrong_width(self, monkeypatch, which, field, width, want):
        net = fx.toy_unsafe_network()
        good = fx.sampled_dataset(fx.toy_safe_network(), [-1, -1], [1, 1], 50, seed=0)
        cols = {"inputs": good.inputs, "targets": good.targets}
        cols[field] = np.zeros((len(good), width))
        bad = LabeledDataset(cols["inputs"], cols["targets"])
        train_data, test_data = (bad, good) if which == "training" else (good, bad)
        monkeypatch.setattr(repair_mod, "reach_unsafe_all", must_not_run)
        monkeypatch.setattr(repair_mod, "train", must_not_run)
        with pytest.raises(ValueError, match=f"^{want}$"):
            repair(net, [fx.toy_property()], train_data, test_data, RepairConfig(max_iterations=3))

    def test_safe_network_with_one_column_targets_is_rejected(self):
        # every label of one-column targets is 0, so accuracy alone cannot tell
        net = fx.toy_safe_network()
        prop = fx.toy_property()
        data = fx.sampled_dataset(net, prop.input_lb, prop.input_ub, 100, seed=0)
        cut = LabeledDataset(data.inputs, data.targets[:, :1])
        with pytest.raises(ValueError, match="training targets are 1 wide, network has 2 outputs"):
            repair(net, [prop], cut, cut, RepairConfig(max_iterations=3))

    @pytest.mark.parametrize(
        "axes, want",
        [
            ((0, 9), r"projection axes \(0,9\) out of range for 2 outputs"),
            ((-1, 0), r"projection axes \(-1,0\) out of range for 2 outputs"),
            ((0.5, 1), r"projection axes \(0.5,1\) must be two integers"),
        ],
        ids=["0,9", "-1,0", "0.5,1"],
    )
    def test_repair_rejects_bad_projection_axes_before_exploring(self, monkeypatch, axes, want):
        net = fx.toy_unsafe_network()
        data = fx.sampled_dataset(fx.toy_safe_network(), [-1, -1], [1, 1], 50, seed=0)
        monkeypatch.setattr(repair_mod, "reach_unsafe_all", must_not_run)
        with pytest.raises(ValueError, match=f"^{want}$"):
            repair(net, [fx.toy_property()], data, data,
                   RepairConfig(max_iterations=3, projection_axes=axes))


class TestProjectionPass:
    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("axes", [None, (0, 1)])
    def test_one_exploration_per_iteration(self, monkeypatch, axes, use_filter):
        net = fx.toy_unsafe_network()
        p1 = fx.toy_property()
        p2 = SafetyProperty("reverse", p1.input_lb, p1.input_ub,
                            UnsafeDomain([(np.array([-1.0, 1.0]), 0.5)]))
        train_data = fx.sampled_dataset(fx.toy_safe_network(), p1.input_lb, p1.input_ub, 400, seed=0)
        test_data = fx.sampled_dataset(fx.toy_safe_network(), p1.input_lb, p1.input_ub, 200, seed=1)
        cfg = RepairConfig(
            max_iterations=3,
            projection_axes=axes,
            reach=ReachOptions(use_filter=use_filter),
            train=TrainConfig(learning_rate=0.05, epochs_per_iteration=5, seed=0),
        )
        filters = []
        explore = reach_mod._explore

        def spy_explore(net, groups, opts, *args, **kwargs):
            filters.append(opts.use_filter)
            return explore(net, groups, opts, *args, **kwargs)

        candidates = [net]
        train = repair_mod.train

        def spy_train(*args):
            candidates.append(train(*args))
            return candidates[-1]

        monkeypatch.setattr(reach_mod, "_explore", spy_explore)
        monkeypatch.setattr(repair_mod, "train", spy_train)
        _, report = repair(net, [p1, p2], train_data, test_data, cfg)
        assert len(report.iterations) == 3
        assert filters == [use_filter] * 3  # one pass per iteration, as configured
        if axes is None:
            assert all(rec.projections is None for rec in report.iterations)
            return

        # the polygons of the regions one exploration per property finds
        for rec, candidate in zip(report.iterations, candidates):
            want = {
                p.name: {"unsafe": [projection_polygon(r.current_vertices, 0, 1)
                                    for r in reach_unsafe(candidate, p)]}
                for p in (p1, p2)
            }
            assert rec.projections == want
        assert report.iterations[0].projections[p1.name]["unsafe"]

    def test_budget_the_filtered_pass_fits_is_enough(self):
        # max_sets=106 fits the filtered pass (19 sets) but not an unfiltered
        # one (193 sets), so projections must come from the filtered pass
        net, prop = fx.bench_network(), fx.bench_property()
        train_data = fx.sampled_dataset(net, prop.input_lb, prop.input_ub, 200, seed=0)
        test_data = fx.sampled_dataset(net, prop.input_lb, prop.input_ub, 100, seed=1)
        cfg = RepairConfig(max_iterations=3, reach=ReachOptions(max_sets=106),
                           projection_axes=(0, 1), train=TrainConfig(epochs_per_iteration=2))
        _, report = repair(net, [prop], train_data, test_data, cfg)
        first = report.iterations[0].projections[prop.name]["unsafe"]
        assert first == [projection_polygon(r.current_vertices, 0, 1)
                         for r in reach_unsafe(net, prop)]
        assert first

