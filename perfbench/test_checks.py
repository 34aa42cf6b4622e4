"""Tests of the benchmark's own checks: each must pass a correct output and
fail a corrupted one. Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BOX = (-np.ones(2), np.ones(2))
# y = relu(x + 2) - 2, the identity on the box
IDENTITY = [(np.eye(2), np.full(2, 2.0)), (np.eye(2), np.full(2, -2.0))]
# y = (relu(x + 2) - 2) / 4, so y0 <= 0.25 on the box
SHRUNK = [(np.eye(2), np.full(2, 2.0)), (0.25 * np.eye(2), np.full(2, -0.5))]
Y0_ABOVE_HALF = [(np.array([-1.0, 0.0]), 0.5)]  # unsafe: y0 >= 0.5


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return str(path)


def verify_output(tmp_path, verdict, regions):
    return write_json(tmp_path / "verify.json", {"results": [
        {"property": "p", "verdict": verdict, "region_count": regions}]})


def test_milp_decides_known_instances():
    assert oracles.milp_verdict(IDENTITY, *BOX, Y0_ABOVE_HALF) == "unsafe"
    assert oracles.milp_verdict(SHRUNK, *BOX, Y0_ABOVE_HALF) == "safe"
    # y0 >= 1 touches the box only on its edge x0 = 1: no open set is unsafe
    assert oracles.milp_verdict(IDENTITY, *BOX, [(np.array([-1.0, 0.0]), 1.0)]) == "boundary"


def test_milp_agrees_with_sampling_on_random_nets():
    for seed in range(6):
        layers = workloads.random_layers((3, 6, 6, 2), seed)
        unsafe = [(np.array([-1.0, 1.0]), 0.3)]
        xs = np.random.default_rng(seed).uniform(-1, 1, size=(20000, 3))
        hit = bool((oracles.max_margin(layers, xs, unsafe) < 0).any())
        verdict = oracles.milp_verdict(layers, -np.ones(3), np.ones(3), unsafe)
        if hit:
            assert verdict == "unsafe"


def test_verify_check_fails_a_flipped_verdict(tmp_path):
    assert oracles.check_verify(verify_output(tmp_path, "unsafe", 3), "unsafe") == []
    assert oracles.check_verify(verify_output(tmp_path, "safe", 0), "unsafe")
    assert oracles.check_verify(verify_output(tmp_path, "unsafe", 3), "safe")
    assert oracles.check_verify(verify_output(tmp_path, "unsafe", 0), "unsafe")


def region(xs):
    xs = np.asarray(xs, float)
    return {"input_vertices": xs.tolist(),
            "output_vertices": workloads.forward(IDENTITY, xs).tolist()}


def reach_output(tmp_path, regions):
    return write_json(tmp_path / "reach.json", {"properties": [
        {"property": "p", "reachable_sets": [], "unsafe_regions": regions}]})


UNSAFE_BOX = [[0.5, -1.0], [1.0, -1.0], [1.0, 1.0], [0.5, 1.0]]


def test_reach_check_passes_the_exact_region(tmp_path):
    out = reach_output(tmp_path, [region(UNSAFE_BOX)])
    assert oracles.check_reach(out, IDENTITY, *BOX, Y0_ABOVE_HALF) == []
    halves = [region([[0.5, -1], [1, -1], [1, 0], [0.5, 0]]),
              region([[0.5, 0], [1, 0], [1, 1], [0.5, 1]])]
    out = reach_output(tmp_path, halves)
    assert oracles.check_reach(out, IDENTITY, *BOX, Y0_ABOVE_HALF) == []


def test_reach_check_fails_a_nudged_vertex(tmp_path):
    nudged = [[0.4, -1.0]] + UNSAFE_BOX[1:]
    errors = oracles.check_reach(reach_output(tmp_path, [region(nudged)]),
                                 IDENTITY, *BOX, Y0_ABOVE_HALF)
    assert any("outside the unsafe set" in e for e in errors)


def test_reach_check_fails_outputs_that_are_not_images(tmp_path):
    bad = region(UNSAFE_BOX)
    bad["output_vertices"][2][1] += 1e-3
    errors = oracles.check_reach(reach_output(tmp_path, [bad]), IDENTITY, *BOX, Y0_ABOVE_HALF)
    assert any("not the images" in e for e in errors)


def test_reach_check_fails_missing_or_doubled_volume(tmp_path):
    half = region([[0.5, -1], [1, -1], [1, 0], [0.5, 0]])
    for regions in ([half], [region(UNSAFE_BOX), half]):
        errors = oracles.check_reach(reach_output(tmp_path, regions),
                                     IDENTITY, *BOX, Y0_ABOVE_HALF)
        assert any("cover" in e for e in errors)


def repair_case(tmp_path, layers, verdict="repaired"):
    out = write_json(tmp_path / "report.json", {"report": {"verdict": verdict}})
    net = str(tmp_path / "fixed.nnet")
    workloads.write_nnet(layers, net)
    xs = np.random.default_rng(0).uniform(-1, 1, size=(200, 2))
    test = (xs, workloads.forward(IDENTITY, xs))
    return out, net, test


def test_repair_check_passes_a_safe_accurate_net(tmp_path):
    out, net, test = repair_case(tmp_path, SHRUNK)
    assert oracles.check_repair(out, net, IDENTITY, *BOX, Y0_ABOVE_HALF, test, -0.05) == []


def test_repair_check_fails_a_net_with_a_known_unsafe_point(tmp_path):
    # x = (1, 0) maps to y0 = 1 >= 0.5
    out, net, test = repair_case(tmp_path, IDENTITY)
    errors = oracles.check_repair(out, net, IDENTITY, *BOX, Y0_ABOVE_HALF, test, -0.05)
    assert any("unsafe" in e for e in errors)


def test_repair_check_fails_the_accuracy_gate_and_the_verdict(tmp_path):
    swapped = [(np.eye(2), np.full(2, 2.0)), (0.25 * np.eye(2)[::-1], np.full(2, -0.5))]
    out, net, test = repair_case(tmp_path, swapped)
    errors = oracles.check_repair(out, net, IDENTITY, *BOX, Y0_ABOVE_HALF, test, -0.05)
    assert any("gate" in e for e in errors)
    out, net, test = repair_case(tmp_path, SHRUNK, verdict="max-iterations-exhausted")
    assert oracles.check_repair(out, net, IDENTITY, *BOX, Y0_ABOVE_HALF, test, -0.05)


def test_nnet_round_trip(tmp_path):
    layers = workloads.random_layers((5, 8, 8, 5), 3)
    path = str(tmp_path / "n.nnet")
    workloads.write_nnet(layers, path)
    for (w, b), (w2, b2) in zip(layers, oracles.read_nnet(path)):
        assert np.array_equal(w, w2) and np.array_equal(b, b2)


@pytest.mark.parametrize("rescale", [False, True])
def test_presentation_keeps_the_function(rescale):
    layers = workloads.random_layers((3, 12, 12, 2), 1)
    shown, signs = workloads.present(layers, np.random.default_rng(7), rescale=rescale)
    xs = np.random.default_rng(1).uniform(-1, 1, size=(500, 3))
    assert np.allclose(workloads.forward(shown, xs * signs), workloads.forward(layers, xs))


def test_build_is_a_function_of_the_seed(tmp_path):
    def files(seed, sub):
        wl = workloads.build("repair-3d", seed, str(tmp_path / sub))
        return [open(q.instance.files["net"]).read() for q in wl.queries]

    assert files(4, "a") == files(4, "b")
    assert files(4, "a") != files(5, "c")


def test_tracer_self_time_and_restore():
    class Mod:
        @staticmethod
        def inner():
            return sum(range(20000))

        @staticmethod
        def outer():
            return Mod.inner() + Mod.inner()

    tr = tracing.Tracer()
    original = Mod.inner
    tr.wrap(Mod, "inner", "fvim.inner")
    tr.wrap(Mod, "outer", "reach.outer")
    Mod.outer()
    tr.uninstall()
    assert Mod.inner is original
    assert tr.calls["fvim.inner"] == 2 and list(tr.parent) == [-1, 0, 0]
    child = tr.inclusive["fvim.inner"]
    assert tr.self_time["reach.outer"] == pytest.approx(tr.inclusive["reach.outer"] - child)


def test_benchmark_json_lists_the_tracer_metrics():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
