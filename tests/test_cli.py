"""Command-line interface: exit codes, JSON outputs, file round trips."""

import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import relurepair
from relurepair import fixtures as fx
from relurepair.cli import _load_properties, build_parser, main
from relurepair.model import load_nnet, save_nnet
from relurepair.reach import (
    MaxSetsExceeded,
    ReachOptions,
    ReachStats,
    exact_final_sets,
    projection_polygon,
    reach_unsafe,
)

from conftest import forward


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fx")
    assert main(["fixtures", "--out", str(out), "--seed", "0"]) == 0
    return out


def run(args):
    return main([str(a) for a in args])


IO_FLAGS = ["--net", "--props", "--max-sets", "--out"]
FLAGS = {
    "verify": IO_FLAGS + ["--filter", "--no-timing"],
    "reach": IO_FLAGS + ["--project", "--dump-sets"],
    "repair": IO_FLAGS + ["--filter", "--no-timing", "--seed", "--train-data", "--test-data",
                          "--project", "--out-net", "--alpha", "--epsilon", "--floor",
                          "--max-iterations", "--lr", "--batch-size", "--epochs"],
    "bench": IO_FLAGS + ["--no-timing"],
    "fixtures": ["--out", "--seed"],
}


@pytest.mark.parametrize("command", list(FLAGS))
def test_each_subcommand_registers_only_flags_it_reads(command):
    subparsers = next(a for a in build_parser()._actions if a.choices and command in a.choices)
    got = [a.option_strings[0] for a in subparsers.choices[command]._actions if a.dest != "help"]
    assert got == FLAGS[command]


class TestVerify:
    def test_safe_network_exits_zero(self, fixture_dir, tmp_path):
        out = tmp_path / "v.json"
        code = run(["verify", "--net", fixture_dir / "toy_safe.nnet", "--props", fixture_dir / "toy_props.json", "--out", out])
        assert code == 0
        data = json.loads(out.read_text())
        assert all(r["verdict"] == "safe" for r in data["results"])

    def test_unsafe_network_exits_one(self, fixture_dir, tmp_path):
        out = tmp_path / "v.json"
        code = run(["verify", "--net", fixture_dir / "toy_unsafe.nnet", "--props", fixture_dir / "toy_props.json", "--out", out])
        assert code == 1
        data = json.loads(out.read_text())
        assert data["results"][0]["verdict"] == "unsafe"
        assert data["results"][0]["region_count"] >= 1

    def test_missing_file_exits_two(self, tmp_path):
        assert run(["verify", "--net", tmp_path / "nope.nnet", "--props", tmp_path / "nope.json"]) == 2

    def test_no_timing_output_is_byte_identical(self, fixture_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--net", fixture_dir / "toy_unsafe.nnet", "--props", fixture_dir / "toy_props.json", "--no-timing"]
        assert run(args + ["--out", a]) == 1
        assert run(args + ["--out", b]) == 1
        assert a.read_bytes() == b.read_bytes()


class TestReach:
    def test_emits_sets_and_projections(self, fixture_dir, tmp_path):
        out = tmp_path / "r.json"
        code = run(["reach", "--net", fixture_dir / "toy_unsafe.nnet", "--props", fixture_dir / "toy_props.json", "--project", "0,1", "--out", out])
        assert code == 0
        data = json.loads(out.read_text())
        entry = data["properties"][0]
        assert entry["reachable_sets"], "exact sets must be present"
        assert entry["unsafe_regions"], "toy unsafe net must violate"
        poly = entry["unsafe_regions"][0]["projection"]
        assert len(poly) >= 3
        assert data["projection_axes"] == [0, 1]

    def test_dump_sets_includes_incidence(self, fixture_dir, tmp_path):
        out = tmp_path / "r.json"
        run(["reach", "--net", fixture_dir / "toy_safe.nnet", "--props", fixture_dir / "toy_props.json", "--dump-sets", "--out", out])
        data = json.loads(out.read_text())
        s = data["properties"][0]["reachable_sets"][0]
        assert "incidence" in s and "input_vertices" in s

    def test_bad_projection_axes_exit_two(self, fixture_dir):
        assert run(["reach", "--net", fixture_dir / "toy_safe.nnet", "--props", fixture_dir / "toy_props.json", "--project", "0,9"]) == 2

    @pytest.mark.parametrize("axes", ["-1,0", "0,-1", "-5,0"])
    def test_negative_projection_axis_exits_two(self, fixture_dir, tmp_path, capsys, axes):
        out = tmp_path / "r.json"
        code = run(["reach", "--net", fixture_dir / "toy_unsafe.nnet", "--props", fixture_dir / "toy_props.json", f"--project={axes}", "--out", out])
        assert code == 2
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "reach"])
    def test_property_of_wrong_dimension_exits_two(self, fixture_dir, tmp_path, capsys, command):
        props = json.loads((fixture_dir / "toy_props.json").read_text())
        props[0]["lb"].append(-1.0)
        props[0]["ub"].append(1.0)
        path = tmp_path / "props3.json"
        path.write_text(json.dumps(props))
        out = tmp_path / "r.json"
        assert run([command, "--net", fixture_dir / "toy_unsafe.nnet", "--props", path, "--out", out]) == 2
        want = "error: property 'toy-y1-not-below-y2' is 3-dimensional, network expects 2"
        assert capsys.readouterr().err.strip() == want
        assert not out.exists()

    @pytest.mark.parametrize("command", [["verify"], ["verify", "--filter", "off"], ["reach"]])
    def test_unsafe_normal_of_wrong_length_exits_two(self, fixture_dir, tmp_path, capsys, command):
        props = json.loads((fixture_dir / "toy_props.json").read_text())
        props[0]["unsafe"][0]["a"].append(0.5)
        path = tmp_path / "props3.json"
        path.write_text(json.dumps(props))
        out = tmp_path / "r.json"
        assert run([*command, "--net", fixture_dir / "toy_unsafe.nnet", "--props", path, "--out", out]) == 2
        want = ("error: property 'toy-y1-not-below-y2' has an unsafe normal of length 3, "
                "network has 2 outputs")
        assert capsys.readouterr().err.strip() == want
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "reach", "repair"])
    def test_duplicate_property_names_exit_two(self, fixture_dir, tmp_path, capsys, command):
        props = json.loads((fixture_dir / "toy_props.json").read_text())
        path = tmp_path / "dup.json"
        far = dict(props[0], name="dup", lb=[5.0, 0.0], ub=[6.0, 1.0])
        path.write_text(json.dumps([dict(props[0], name="dup"), far]))
        out, out_net = tmp_path / "r.json", tmp_path / "fixed.nnet"
        args = [command, "--net", fixture_dir / "toy_unsafe.nnet", "--props", path, "--out", out]
        if command == "repair":
            args += ["--train-data", fixture_dir / "toy_train.json",
                     "--test-data", fixture_dir / "toy_test.json", "--out-net", out_net]
        assert run(args) == 2
        assert capsys.readouterr().err.strip() == "error: duplicate property name 'dup'"
        assert not out.exists() and not out_net.exists()

    @pytest.mark.parametrize("shape", ["object", "wrapped"])
    @pytest.mark.parametrize("command", ["verify", "reach"])
    def test_property_file_that_is_not_a_list_exits_two(self, fixture_dir, tmp_path, capsys,
                                                        command, shape):
        props = json.loads((fixture_dir / "toy_props.json").read_text())
        path = tmp_path / "props.json"
        path.write_text(json.dumps(props[0] if shape == "object" else {"properties": props}))
        out = tmp_path / "r.json"
        assert run([command, "--net", fixture_dir / "toy_unsafe.nnet", "--props", path, "--out", out]) == 2
        want = f"error: {path}: a property file holds a JSON list of properties"
        assert capsys.readouterr().err.strip() == want
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "reach", "repair", "bench"])
    def test_empty_property_file_exits_two(self, fixture_dir, tmp_path, capsys, command):
        path = tmp_path / "props.json"
        path.write_text("[]")
        out, out_net = tmp_path / "r.json", tmp_path / "fixed.nnet"
        args = [command, "--net", fixture_dir / "toy_unsafe.nnet", "--props", path, "--out", out]
        if command == "repair":
            args += ["--train-data", fixture_dir / "toy_train.json",
                     "--test-data", fixture_dir / "toy_test.json", "--out-net", out_net]
        assert run(args) == 2
        want = f"error: {path}: a property file needs at least one property"
        assert capsys.readouterr().err.strip() == want
        assert not out.exists() and not out_net.exists()

    @pytest.mark.parametrize(
        "case", ["name", "lb", "ub", "unsafe", "a", "b", "entry", "unsafe=5", "unsafe=ab", "unsafe=[5]"]
    )
    def test_malformed_property_names_file_entry_and_key(self, fixture_dir, tmp_path, capsys, case):
        props = json.loads((fixture_dir / "toy_props.json").read_text())
        want = f"property 0 has no {case!r}"
        if case == "entry":
            props[0] = [1, 2]
            want = "property 0 is not a JSON object"
        elif case.startswith("unsafe="):
            props[0]["unsafe"] = {"unsafe=5": 5, "unsafe=ab": "ab", "unsafe=[5]": [5]}[case]
            want = 'property 0: unsafe must be a list of {"a", "b"} objects'
        elif case in ("a", "b"):
            del props[0]["unsafe"][0][case]
        else:
            del props[0][case]
        path = tmp_path / "props.json"
        path.write_text(json.dumps(props))
        out = tmp_path / "r.json"
        assert run(["verify", "--net", fixture_dir / "toy_unsafe.nnet", "--props", path, "--out", out]) == 2
        assert capsys.readouterr().err.strip() == f"error: {path}: {want}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "reach", "repair", "bench"])
    @pytest.mark.parametrize("text, want", [
        ('[{"name": "p1",\n', "Expecting property name enclosed in double quotes: line 2 column 1 (char 16)"),
        (b'[{"name": "caf\xe9"}]', "'utf-8' codec can't decode byte 0xe9 in position 14: invalid continuation byte"),
    ], ids=["cut-json", "latin-1"])
    def test_property_file_that_is_not_json_names_the_file(self, fixture_dir, tmp_path, capsys,
                                                           command, text, want):
        path = tmp_path / "props.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        out, out_net = tmp_path / "r.json", tmp_path / "fixed.nnet"
        args = [command, "--net", fixture_dir / "toy_unsafe.nnet", "--props", path, "--out", out]
        if command == "repair":
            args += ["--train-data", fixture_dir / "toy_train.json",
                     "--test-data", fixture_dir / "toy_test.json", "--out-net", out_net]
        assert run(args) == 2
        assert capsys.readouterr().err.strip() == f"error: {path}: {want}"
        assert not out.exists() and not out_net.exists()

    def test_non_finite_weight_exits_two(self, fixture_dir, tmp_path, capsys):
        lines = (fixture_dir / "toy_unsafe.nnet").read_text().splitlines()
        lines[8] = "nan," + lines[8].split(",", 1)[1]  # first weight row
        net = tmp_path / "nan.nnet"
        net.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        assert run(["reach", "--net", net, "--props", fixture_dir / "toy_props.json", "--out", out]) == 2
        assert "line 9: layer 0 has a non-finite value" in capsys.readouterr().err
        assert not out.exists()


def two_pass_reach(net_path, props_path, dump_sets=True):
    """`reach` output (`--dump-sets` by default) built as one dict from two
    explorations per property: unfiltered final sets plus the filtered
    unsafe regions."""
    net = load_nnet(str(net_path))
    i, j = 0, 1
    out = {"projection_axes": [i, j], "properties": []}
    for prop in _load_properties(str(props_path)):
        sets = []
        finals, _ = exact_final_sets(net, prop)
        for s in finals:
            entry = {
                "output_vertices": s.current_vertices.tolist(),
                "projection": projection_polygon(s.current_vertices, i, j),
            }
            if dump_sets:
                entry["input_vertices"] = s.input_vertices.tolist()
                entry["incidence"] = s.fvim.astype(int).tolist()
            sets.append(entry)
        regions = [
            {
                "property": prop.name,
                "input_vertices": r.input_vertices.tolist(),
                "output_vertices": r.current_vertices.tolist(),
                "projection": projection_polygon(r.current_vertices, i, j),
            }
            for r in reach_unsafe(net, prop)
        ]
        out["properties"].append(
            {"property": prop.name, "reachable_sets": sets, "unsafe_regions": regions}
        )
    return out


class TestReachSinglePass:
    CASES = [("bench.nnet", "bench_props.json"), ("toy_unsafe.nnet", "toy_props.json")]

    @pytest.mark.parametrize("net_name,props_name", CASES)
    def test_dump_equals_two_pass_assembly(self, fixture_dir, tmp_path, net_name, props_name):
        net, props = fixture_dir / net_name, fixture_dir / props_name
        out = tmp_path / "r.json"
        assert run(["reach", "--net", net, "--props", props, "--dump-sets", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data == json.loads(json.dumps(two_pass_reach(net, props)))
        assert all(p["reachable_sets"] and p["unsafe_regions"] for p in data["properties"])

    @pytest.mark.parametrize("net_name,props_name", CASES)
    def test_each_property_explored_once(self, fixture_dir, tmp_path, monkeypatch, net_name, props_name):
        explored = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                stats = ReachStats()
                kwargs["stats"] = stats
                result = fn(*args, **kwargs)
                explored.append(stats.explored_sets)
                return result
            return wrapper

        # every exploration the CLI starts goes through one of these two names
        monkeypatch.setattr("relurepair.cli.exact_final_sets", counted(exact_final_sets))
        monkeypatch.setattr("relurepair.cli.reach_unsafe", counted(reach_unsafe))
        net, props = fixture_dir / net_name, fixture_dir / props_name
        assert run(["reach", "--net", net, "--props", props, "--out", tmp_path / "r.json"]) == 0

        unfiltered = []
        for prop in _load_properties(str(props)):
            stats = ReachStats()
            exact_final_sets(load_nnet(str(net)), prop, stats=stats)
            unfiltered.append(stats.explored_sets)
        assert explored == unfiltered


@pytest.fixture()
def two_props(fixture_dir, tmp_path):
    """toy_props.json plus a second property, the reverse inequality, whose
    name needs JSON escaping."""
    props = json.loads((fixture_dir / "toy_props.json").read_text())
    second = dict(props[0], name='y2 "not" below y1 é\\')
    second["unsafe"] = [{"a": [-1.0, 1.0], "b": 0.0}]
    path = tmp_path / "two_props.json"
    path.write_text(json.dumps(props + [second]))
    return path


def reach_args(fixture_dir, props, *extra):
    return ["reach", "--net", fixture_dir / "toy_unsafe.nnet", "--props", props, *extra]


class TestStreamedReach:
    @pytest.mark.parametrize("dump_sets", [False, True])
    @pytest.mark.parametrize("count", [1, 2])
    def test_file_parses_to_the_dict(self, fixture_dir, two_props, tmp_path, count, dump_sets):
        props = fixture_dir / "toy_props.json" if count == 1 else two_props
        flags = ["--dump-sets"] if dump_sets else []
        out = tmp_path / "r.json"
        assert run(reach_args(fixture_dir, props, *flags, "--out", out)) == 0
        want = json.loads(json.dumps(two_pass_reach(fixture_dir / "toy_unsafe.nnet", props, dump_sets)))
        data = json.loads(out.read_text())
        assert data == want
        assert len(data["properties"]) == count
        assert all(p["reachable_sets"] and p["unsafe_regions"] for p in data["properties"])

    @pytest.mark.parametrize("dump_sets", [False, True])
    def test_stdout_parses_to_the_dict(self, fixture_dir, two_props, capsys, dump_sets):
        flags = ["--dump-sets"] if dump_sets else []
        capsys.readouterr()
        assert run(reach_args(fixture_dir, two_props, *flags)) == 0
        text = capsys.readouterr().out
        assert text.endswith("\n") and text.count("\n") == 1
        want = two_pass_reach(fixture_dir / "toy_unsafe.nnet", two_props, dump_sets)
        assert json.loads(text) == json.loads(json.dumps(want))

    @pytest.mark.parametrize("earlier", [None, "an earlier document\n"])
    def test_failure_mid_stream_leaves_out_alone(self, fixture_dir, two_props, tmp_path,
                                                  monkeypatch, capsys, earlier):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "r.json"
        if earlier is not None:
            out.write_text(earlier)
        calls = []

        def failing(points, i, j):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("projection failed")
            return projection_polygon(points, i, j)

        monkeypatch.setattr("relurepair.cli.projection_polygon", failing)
        assert run(reach_args(fixture_dir, two_props, "--out", out)) == 2
        assert len(calls) == 3, "the stream must have started before the failure"
        assert "projection failed" in capsys.readouterr().err
        if earlier is None:
            assert list(out_dir.iterdir()) == []
        else:
            assert list(out_dir.iterdir()) == [out]
            assert out.read_text() == earlier

    def test_peak_memory_below_three_times_output(self, tmp_path):
        # building the whole document as Python lists and floats before
        # encoding it peaked at 13.2 MB on this network; streaming one entry
        # at a time peaks near 1.3 MB for the 0.9 MB it writes
        net = tmp_path / "n.nnet"
        save_nnet(fx.random_network([3, 12, 12, 12, 2], seed=0), net)
        props = tmp_path / "p.json"
        props.write_text(json.dumps([{"name": "y0-above-y1", "lb": [-1.0] * 3, "ub": [1.0] * 3,
                                      "unsafe": [{"a": [-1.0, 1.0], "b": 0.0}]}]))
        out = tmp_path / "r.json"
        args = ["reach", "--net", net, "--props", props, "--out", out]
        tracemalloc.start()
        try:
            assert run(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = out.stat().st_size
        assert written > 500_000
        assert peak < 3 * written, f"peak {peak} bytes for {written} bytes written"


class TestEmit:
    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_dict_output_is_one_compact_line(self, fixture_dir, tmp_path, command):
        out = tmp_path / "o.json"
        run([command, "--net", fixture_dir / "toy_unsafe.nnet", "--props", fixture_dir / "toy_props.json",
             "--no-timing", "--out", out])
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    def test_missing_out_directory_names_the_out_path(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "v.json"
        code = run(["verify", "--net", fixture_dir / "toy_safe.nnet", "--props", fixture_dir / "toy_props.json",
                    "--out", out])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: [Errno 2] No such file or directory: '{out}'"
        assert not out.parent.exists()


def verify_args(fixture_dir, out):
    return ["verify", "--net", fixture_dir / "toy_safe.nnet", "--props", fixture_dir / "toy_props.json",
            "--no-timing", "--out", out]


class TestEmitTargets:
    """--out may name a symlink, a device, a pipe or a shared file: each is
    written as it is, never renamed over."""

    def test_symlink_target_is_written_and_link_kept(self, fixture_dir, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert run(verify_args(fixture_dir, link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["results"][0]["verdict"] == "safe"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_dangling_symlink_creates_its_target(self, fixture_dir, tmp_path):
        target = tmp_path / "new.json"
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert run(verify_args(fixture_dir, link)) == 0
        assert link.is_symlink() and json.loads(target.read_text())["results"]

    def test_devnull_stays_a_character_device(self, fixture_dir):
        assert run(verify_args(fixture_dir, os.devnull)) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_fifo_is_written_into(self, fixture_dir, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()))
        reader.start()
        try:
            assert run(verify_args(fixture_dir, fifo)) == 0
        finally:
            reader.join(timeout=30)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert json.loads(got[0])["results"][0]["verdict"] == "safe"

    def test_existing_file_keeps_its_mode(self, fixture_dir, tmp_path):
        out = tmp_path / "v.json"
        out.write_text("old\n")
        out.chmod(0o640)
        assert run(verify_args(fixture_dir, out)) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert json.loads(out.read_text())["results"]

    def test_new_file_gets_the_umask_mode(self, fixture_dir, tmp_path):
        out = tmp_path / "v.json"
        umask = os.umask(0o027)
        try:
            assert run(verify_args(fixture_dir, out)) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_hard_linked_file_is_written_in_place(self, fixture_dir, tmp_path):
        out = tmp_path / "v.json"
        out.write_text("old\n")
        twin = tmp_path / "twin.json"
        os.link(out, twin)
        assert run(verify_args(fixture_dir, out)) == 0
        assert os.path.samefile(out, twin)
        assert json.loads(twin.read_text())["results"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["twin.json", "v.json"]

    def test_temporary_names_do_not_collide(self, fixture_dir, tmp_path):
        # a leftover from an earlier run under the same pid is no obstacle
        out = tmp_path / "v.json"
        (tmp_path / f"v.json.{os.getpid()}.tmp").write_text("leftover\n")
        assert run(verify_args(fixture_dir, out)) == 0
        assert json.loads(out.read_text())["results"]


class TestRepair:
    def test_toy_repair_round_trip(self, fixture_dir, tmp_path):
        out = tmp_path / "rep.json"
        out_net = tmp_path / "fixed.nnet"
        code = run(
            [
                "repair",
                "--net", fixture_dir / "toy_unsafe.nnet",
                "--props", fixture_dir / "toy_props.json",
                "--train-data", fixture_dir / "toy_train.json",
                "--test-data", fixture_dir / "toy_test.json",
                "--lr", "0.05", "--epochs", "5", "--seed", "1",
                "--out", out, "--out-net", out_net,
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["verdict"] == "repaired"
        # the written network re-verifies safe
        assert run(["verify", "--net", out_net, "--props", fixture_dir / "toy_props.json"]) == 0

    def test_repair_with_projection_records_polygons(self, fixture_dir, tmp_path):
        out = tmp_path / "rep.json"
        code = run(
            [
                "repair",
                "--net", fixture_dir / "toy_unsafe.nnet",
                "--props", fixture_dir / "toy_props.json",
                "--train-data", fixture_dir / "toy_train.json",
                "--test-data", fixture_dir / "toy_test.json",
                "--lr", "0.05", "--epochs", "5", "--seed", "1",
                "--project", "0,1",
                "--out", out, "--out-net", tmp_path / "fixed.nnet",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())["report"]
        first = report["iterations"][0]["projections"]
        assert list(first.values())[0].keys() == {"unsafe"}
        assert list(first.values())[0]["unsafe"], "first pass must show the violation"

    def test_impossible_gate_exits_three(self, fixture_dir, tmp_path):
        code = run(
            [
                "repair",
                "--net", fixture_dir / "toy_safe.nnet",
                "--props", fixture_dir / "toy_props.json",
                "--train-data", fixture_dir / "toy_train.json",
                "--test-data", fixture_dir / "toy_test.json",
                "--epsilon", "1.0", "--max-iterations", "2", "--epochs", "1",
                "--out", tmp_path / "rep.json",
                "--out-net", tmp_path / "fixed.nnet",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("flag, value, name", [("--alpha", "nan", "alpha"),
                                                   ("--epsilon", "nan", "epsilon"),
                                                   ("--floor", "inf", "accuracy_floor"),
                                                   ("--lr", "nan", "learning_rate")])
    def test_non_finite_setting_exits_two(self, fixture_dir, tmp_path, capsys, flag, value, name):
        # before any training: the message names the setting, not a diverged loss
        out = tmp_path / "rep.json"
        code = run(
            [
                "repair",
                "--net", fixture_dir / "toy_unsafe.nnet",
                "--props", fixture_dir / "toy_props.json",
                "--train-data", fixture_dir / "toy_train.json",
                "--test-data", fixture_dir / "toy_test.json",
                flag, value, "--max-iterations", "5",
                "--out", out, "--out-net", tmp_path / "fixed.nnet",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("net_name, cut", [("toy_unsafe.nnet", ["train"]),
                                               ("toy_safe.nnet", ["train", "test"])])
    def test_one_column_targets_exit_two(self, fixture_dir, tmp_path, capsys, net_name, cut):
        data = {}
        for which in ("train", "test"):
            doc = json.loads((fixture_dir / f"toy_{which}.json").read_text())
            if which in cut:
                doc["targets"] = [row[:1] for row in doc["targets"]]
            data[which] = tmp_path / f"{which}.json"
            data[which].write_text(json.dumps(doc))
        out, out_net = tmp_path / "rep.json", tmp_path / "fixed.nnet"
        code = run(
            [
                "repair",
                "--net", fixture_dir / net_name,
                "--props", fixture_dir / "toy_props.json",
                "--train-data", data["train"],
                "--test-data", data["test"],
                "--out", out, "--out-net", out_net,
            ]
        )
        assert code == 2
        want = "error: training targets are 1 wide, network has 2 outputs"
        assert capsys.readouterr().err.strip() == want
        assert not out.exists() and not out_net.exists()

    def test_negative_projection_axis_exits_two(self, fixture_dir, tmp_path, capsys):
        out, out_net = tmp_path / "rep.json", tmp_path / "fixed.nnet"
        code = run(
            [
                "repair",
                "--net", fixture_dir / "toy_unsafe.nnet",
                "--props", fixture_dir / "toy_props.json",
                "--train-data", fixture_dir / "toy_train.json",
                "--test-data", fixture_dir / "toy_test.json",
                "--project=-1,0",
                "--out", out, "--out-net", out_net,
            ]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err
        assert not out.exists() and not out_net.exists()

    @pytest.mark.parametrize("axes", ["0,9", "0.5,1", "1,2,3"])
    def test_bad_projection_axes_exit_two(self, fixture_dir, tmp_path, capsys, axes):
        want = {"0,9": "error: projection axes (0,9) out of range for 2 outputs"}.get(
            axes, "argument --project: expected two comma-separated integer axes, e.g. 0,1")
        out, out_net = tmp_path / "rep.json", tmp_path / "fixed.nnet"
        for command in ("reach", "repair"):
            args = [
                command,
                "--net", fixture_dir / "toy_unsafe.nnet",
                "--props", fixture_dir / "toy_props.json",
                f"--project={axes}",
                "--out", out,
            ]
            if command == "repair":
                args += ["--train-data", fixture_dir / "toy_train.json",
                         "--test-data", fixture_dir / "toy_test.json", "--out-net", out_net]
            try:
                code = run(args)
            except SystemExit as exc:  # argparse rejects axes that are not two integers
                code = exc.code
            assert code == 2
            err = capsys.readouterr().err
            assert want in err
            assert "_parse_project" not in err
            assert not out.exists() and not out_net.exists()

    @pytest.mark.parametrize("key", ["inputs", "targets", "list"])
    def test_dataset_without_key_names_file_and_key(self, fixture_dir, tmp_path, capsys, key):
        doc = json.loads((fixture_dir / "toy_train.json").read_text())
        want = f"dataset has no {key!r}"
        if key == "list":
            doc = [doc["inputs"], doc["targets"]]
            want = "a dataset is a JSON object with 'inputs' and 'targets'"
        else:
            del doc[key]
        train = tmp_path / "train.json"
        train.write_text(json.dumps(doc))
        out, out_net = tmp_path / "rep.json", tmp_path / "fixed.nnet"
        code = run(
            [
                "repair",
                "--net", fixture_dir / "toy_unsafe.nnet",
                "--props", fixture_dir / "toy_props.json",
                "--train-data", train,
                "--test-data", fixture_dir / "toy_test.json",
                "--out", out, "--out-net", out_net,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {train}: {want}"
        assert not out.exists() and not out_net.exists()

    @pytest.mark.parametrize("which, case", [("train", "nan input"), ("test", "inf target"),
                                             ("train", "1-d inputs"), ("test", "unpaired rows"),
                                             ("test", "cut json")])
    def test_bad_dataset_values_name_the_file(self, fixture_dir, tmp_path, capsys, which, case):
        # each is rejected while loading, before any training, and names the
        # file: not a diverged loss, a repaired network or a bare JSON column
        doc = json.loads((fixture_dir / f"toy_{which}.json").read_text())
        if case == "nan input":
            doc["inputs"][3][1] = float("nan")
            want = "inputs row 3 is not finite"
        elif case == "inf target":
            doc["targets"][5][0] = float("inf")
            want = "targets row 5 is not finite"
        elif case == "1-d inputs":
            doc["inputs"] = [row[0] for row in doc["inputs"]]
            want = "inputs and targets must be 2-d arrays"
        elif case == "unpaired rows":
            del doc["targets"][-1]
            want = "inputs and targets must pair up row by row"
        text = json.dumps(doc)
        if case == "cut json":
            text = text[:-1]
            with pytest.raises(ValueError) as exc:
                json.loads(text)
            want = str(exc.value)
        data = {w: fixture_dir / f"toy_{w}.json" for w in ("train", "test")}
        data[which] = tmp_path / f"{which}.json"
        data[which].write_text(text)
        out, out_net = tmp_path / "rep.json", tmp_path / "fixed.nnet"
        code = run(
            [
                "repair",
                "--net", fixture_dir / "toy_unsafe.nnet",
                "--props", fixture_dir / "toy_props.json",
                "--train-data", data["train"],
                "--test-data", data["test"],
                "--lr", "0.05", "--epochs", "5",
                "--out", out, "--out-net", out_net,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {data[which]}: {want}"
        assert not out.exists() and not out_net.exists()


NO_SCIPY = """
import json, os, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
from relurepair.cli import main
fx, out = sys.argv[1], sys.argv[2]
common = ["--net", os.path.join(fx, "toy_unsafe.nnet"), "--props", os.path.join(fx, "toy_props.json"),
          "--project", "0,1"]
codes = [
    main(["fixtures", "--out", fx]),
    main(["reach", *common, "--out", os.path.join(out, "reach.json")]),
    main(["repair", *common, "--train-data", os.path.join(fx, "toy_train.json"),
          "--test-data", os.path.join(fx, "toy_test.json"), "--lr", "0.05", "--epochs", "5",
          "--seed", "1", "--max-iterations", "2", "--out", os.path.join(out, "repair.json"),
          "--out-net", os.path.join(out, "fixed.nnet")]),
]
print(json.dumps(codes))
"""


def test_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(relurepair.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path / "fx"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    fixtures_code, reach_code, repair_code = json.loads(proc.stdout.splitlines()[-1])
    assert (fixtures_code, reach_code) == (0, 0), proc.stderr
    assert repair_code in (0, 3), proc.stderr
    reach = json.loads((tmp_path / "reach.json").read_text())["properties"][0]
    assert reach["reachable_sets"] and reach["unsafe_regions"]
    assert all(e["projection"] for e in reach["reachable_sets"] + reach["unsafe_regions"])
    first = json.loads((tmp_path / "repair.json").read_text())["report"]["iterations"][0]
    for proj in first["projections"].values():
        assert proj["unsafe"] and all(proj["unsafe"])


class TestBench:
    def test_linear_net_has_nothing_to_prune(self, fixture_dir, tmp_path):
        net_path = tmp_path / "linear.nnet"
        save_nnet(fx.random_network([2, 2], seed=1), net_path)
        out = tmp_path / "b.json"
        assert run(["bench", "--net", net_path, "--props", fixture_dir / "toy_props.json", "--out", out]) == 0
        data = json.loads(out.read_text())
        row = data["properties"][0]
        assert row["filtered"]["explored_sets"] == row["unfiltered"]["explored_sets"]

    def test_mostly_safe_net_prunes(self, fixture_dir, tmp_path):
        out = tmp_path / "b.json"
        assert run(["bench", "--net", fixture_dir / "bench.nnet", "--props", fixture_dir / "bench_props.json", "--out", out]) == 0
        data = json.loads(out.read_text())
        row = data["properties"][0]
        assert row["filtered"]["explored_sets"] < row["unfiltered"]["explored_sets"]
        assert set(data["summary"]) == {
            "explored_ratio", "peak_sets_filtered", "peak_sets_unfiltered",
            "speedup", "wall_time_ms_filtered", "wall_time_ms_unfiltered",
        }


@pytest.fixture(scope="module")
def many_regions(tmp_path_factory):
    """A [4,6,6,6,6,2] net whose property y0 <= y1 over [-1, 1]^4 has 886
    unsafe regions, with its property file."""
    out = tmp_path_factory.mktemp("many")
    net = out / "n.nnet"
    save_nnet(fx.random_network([4, 6, 6, 6, 6, 2], seed=0), net)
    props = out / "p.json"
    props.write_text(json.dumps([{"name": "y0-not-above-y1", "lb": [-1.0] * 4, "ub": [1.0] * 4,
                                  "unsafe": [{"a": [-1.0, 1.0], "b": 0.0}]}]))
    return net, props


def keeping_path_documents(net_path, props_path, use_filter):
    """The --no-timing `verify` and `bench` outputs, built from the regions
    that reach_unsafe keeps: region_count is their number."""
    net = load_nnet(str(net_path))
    props = _load_properties(str(props_path))

    def counts(prop, on):
        stats = ReachStats()
        regions = reach_unsafe(net, prop, ReachOptions(use_filter=on), stats)
        return {"explored_sets": stats.explored_sets, "peak_sets": stats.peak_live_sets,
                "region_count": len(regions)}

    results = []
    for prop in props:
        row = counts(prop, use_filter)
        results.append({"property": prop.name, "verdict": "unsafe" if row["region_count"] else "safe",
                        **row})
    rows = [{"property": p.name, "filtered": counts(p, True), "unfiltered": counts(p, False)}
            for p in props]
    explored = {k: sum(r[k]["explored_sets"] for r in rows) for k in ("filtered", "unfiltered")}
    summary = {
        "explored_ratio": explored["filtered"] / max(explored["unfiltered"], 1),
        "peak_sets_filtered": max(r["filtered"]["peak_sets"] for r in rows),
        "peak_sets_unfiltered": max(r["unfiltered"]["peak_sets"] for r in rows),
    }
    return [json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            for doc in ({"results": results}, {"properties": rows, "summary": summary})]


class TestCountedRegions:
    """verify and bench count unsafe regions without keeping them."""

    FIXTURES = [("toy_safe.nnet", "toy_props.json"), ("toy_unsafe.nnet", "toy_props.json"),
                ("bench.nnet", "bench_props.json"),
                ("collision_avoidance.nnet", "collision_avoidance_props.json")]

    def _paths(self, fixture_dir, many_regions, case):
        if case == len(self.FIXTURES):
            return many_regions
        return tuple(fixture_dir / name for name in self.FIXTURES[case])

    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("case", range(len(FIXTURES) + 1))
    def test_no_timing_output_equals_the_keeping_path(self, fixture_dir, many_regions, tmp_path,
                                                      case, use_filter):
        net, props = self._paths(fixture_dir, many_regions, case)
        want_verify, want_bench = keeping_path_documents(net, props, use_filter)
        common = ["--net", net, "--props", props, "--no-timing"]
        v, b = tmp_path / "v.json", tmp_path / "b.json"
        code = run(["verify", *common, "--filter", "on" if use_filter else "off", "--out", v])
        assert code == (1 if '"verdict":"unsafe"' in want_verify else 0)
        assert v.read_text() == want_verify
        if use_filter:  # bench runs both
            assert run(["bench", *common, "--out", b]) == 0
            assert b.read_text() == want_bench

    def test_verify_peak_memory_below_the_regions_it_counts(self, many_regions, tmp_path):
        # keeping them, verify held every region's arrays; counting them, its
        # peak is the depth-first stack's (0.37 MB here against 0.83 MB of
        # region arrays)
        net, props = many_regions
        regions = reach_unsafe(load_nnet(str(net)), _load_properties(str(props))[0])
        assert len(regions) > 500
        kept = sum(a.nbytes for r in regions for a in (r.fvim, r.input_vertices, r.current_vertices))
        del regions
        out = tmp_path / "v.json"
        tracemalloc.start()
        try:
            assert run(["verify", "--net", net, "--props", props, "--out", out]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(out.read_text())["results"][0]["region_count"] > 500
        assert peak < kept, f"peak {peak} bytes, regions hold {kept}"

    def test_capped_verify_reports_the_regions_found(self, many_regions, tmp_path, capsys):
        net, props = many_regions
        prop = _load_properties(str(props))[0]
        with pytest.raises(MaxSetsExceeded) as err:
            reach_unsafe(load_nnet(str(net)), prop, ReachOptions(max_sets=300))
        found = len(err.value.regions[prop.name])
        assert found > 1
        out = tmp_path / "v.json"
        assert run(["verify", "--net", net, "--props", props, "--max-sets", 300, "--out", out]) == 2
        want = f"error: exceeded max_sets=300 explored sets; {found} unsafe regions found before the cap"
        assert capsys.readouterr().err.strip() == want
        assert not out.exists()


class TestRoundTrip:
    def test_written_nnet_reloads_with_identical_forward(self, tmp_path):
        net = fx.random_network([4, 7, 6, 3], seed=13)
        p = tmp_path / "net.nnet"
        save_nnet(net, p)
        loaded = load_nnet(p)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=4)
            assert np.allclose(forward(net, x), forward(loaded, x), atol=1e-12)
