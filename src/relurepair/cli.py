"""Command line for verification, reachability dumps, repair and benchmarks.

All machine-readable output is compact JSON; networks travel as NNet files.
Exit codes: 0 success (verify: all safe), 1 verify found violations, 2 error,
3 repair ran out of iterations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import stat
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from . import fixtures as fx
from .model import LabeledDataset, TrainConfig, load_nnet, save_nnet
from .reach import (
    ReachOptions,
    ReachStats,
    check_projection_axes,
    check_unique_names,
    exact_final_sets,
    projection_polygon,
    property_from_dict,
    property_to_dict,
    reach_unsafe,
)
from .repair import REPAIRED, RepairConfig, repair


def _load_properties(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except ValueError as exc:  # bad JSON, or bytes that do not decode
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: a property file holds a JSON list of properties")
    if not data:
        raise ValueError(f"{path}: a property file needs at least one property")
    props = []
    for k, d in enumerate(data):
        where = f"{path}: property {k}"
        if not isinstance(d, dict):
            raise ValueError(f"{where} is not a JSON object")
        try:
            props.append(property_from_dict(d))
        except KeyError as exc:
            raise ValueError(f"{where} has no {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    check_unique_names(props)
    return props


def _save_properties(props, path):
    with open(path, "w") as f:
        json.dump([property_to_dict(p) for p in props], f, indent=2, sort_keys=True)
        f.write("\n")


def _load_dataset(path):
    try:
        with open(path) as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("a dataset is a JSON object with 'inputs' and 'targets'")
        return LabeledDataset(np.asarray(data["inputs"], float), np.asarray(data["targets"], float))
    except KeyError as exc:
        raise ValueError(f"{path}: dataset has no {exc}") from None
    except ValueError as exc:  # bad JSON too: name the file, not only the column
        raise ValueError(f"{path}: {exc}") from None


def _save_dataset(data, path):
    with open(path, "w") as f:
        json.dump(
            {"inputs": data.inputs.tolist(), "targets": data.targets.tolist()},
            f,
            sort_keys=True,
        )
        f.write("\n")


def _dumps(obj):
    # the C encoder runs only without indent; no spaces after separators
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(doc, out_path):
    """Write one compact JSON document to out_path, or to stdout without one.

    doc is a dict, or an iterable of JSON text chunks that together form one
    document (see _reach_chunks). Into a new or regular file (through any
    symlinks) the document goes first to a temporary file in the same
    directory, so an error part-way never leaves a truncated document and
    leaves any earlier file untouched. A device or a pipe is written in place.
    """
    chunks = [_dumps(doc)] if isinstance(doc, dict) else doc
    if not out_path:
        _write(sys.stdout, chunks)
        return
    try:
        st = os.stat(out_path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(out_path, "w") as f:
            _write(f, chunks)
        return
    target = os.path.realpath(out_path)
    directory, name = os.path.split(target)
    try:
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=name + ".", dir=directory)
    except OSError as exc:  # name the path the user gave, not the temporary one
        raise OSError(exc.errno, exc.strerror, out_path) from None
    try:
        with open(fd, "w") as f:
            _write(f, chunks)
        if st is None or (st.st_nlink, st.st_uid, st.st_gid) == (1, os.geteuid(), os.getegid()):
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask if st is None else stat.S_IMODE(st.st_mode))
            os.replace(tmp, target)
        else:  # a file with other links or another owner keeps its inode
            shutil.copyfile(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write(f, chunks):
    f.writelines(chunks)
    f.write("\n")


def _reach_options(args):
    return ReachOptions(
        use_filter=args.filter == "on",
        max_sets=args.max_sets,
    )


def _timed_reach(net, prop, opts, args):
    """reach_unsafe on one property, counting its unsafe regions without
    keeping them; returns a row of its counters plus, unless --no-timing,
    its wall time."""
    stats = ReachStats()
    t0 = time.monotonic()
    reach_unsafe(net, prop, replace(opts, keep_regions=False), stats)
    elapsed_ms = 1000.0 * (time.monotonic() - t0)
    row = {
        "explored_sets": stats.explored_sets,
        "peak_sets": stats.peak_live_sets,
        "region_count": stats.unsafe_regions,
    }
    if not args.no_timing:
        row["wall_time_ms"] = elapsed_ms
    return row


def cmd_verify(args):
    net = load_nnet(args.net)
    props = _load_properties(args.props)
    ropts = _reach_options(args)
    results = []
    any_unsafe = False
    for prop in props:
        row = _timed_reach(net, prop, ropts, args)
        unsafe = row["region_count"] > 0
        any_unsafe = any_unsafe or unsafe
        results.append({"property": prop.name, "verdict": "unsafe" if unsafe else "safe", **row})
    _emit({"results": results}, args.out)
    return 1 if any_unsafe else 0


def cmd_reach(args):
    net = load_nnet(args.net)
    props = _load_properties(args.props)
    ropts = ReachOptions(max_sets=args.max_sets)
    axes = args.project if args.project is not None else (0, 1 if net.output_dim > 1 else 0)
    check_projection_axes(axes, net.output_dim)
    explored = [(prop.name, *exact_final_sets(net, prop, ropts)) for prop in props]
    _emit(_reach_chunks(explored, axes, args.dump_sets), args.out)
    return 0


def _reach_chunks(explored, axes, dump_sets):
    """The reach document as JSON text: the framing, then one chunk per
    reachable set and per unsafe region, each encoded from that set's own
    arrays, so only one entry exists as Python objects at a time. Keys come
    in the sorted order that _dumps writes."""
    i, j = axes

    def entry(s, **fields):
        fields["output_vertices"] = s.current_vertices.tolist()
        fields["projection"] = projection_polygon(s.current_vertices, i, j)
        return _dumps(fields)

    def set_entry(s):
        if not dump_sets:
            return entry(s)
        return entry(s, input_vertices=s.input_vertices.tolist(),
                     incidence=s.fvim.astype(int).tolist())

    yield '{"projection_axes":' + _dumps([i, j]) + ',"properties":['
    for k, (name, finals, regions) in enumerate(explored):
        yield ("," if k else "") + '{"property":' + _dumps(name) + ',"reachable_sets":['
        yield from _comma_separated(set_entry(s) for s in finals)
        yield '],"unsafe_regions":['
        yield from _comma_separated(
            entry(r, property=name, input_vertices=r.input_vertices.tolist()) for r in regions
        )
        yield "]}"
    yield "]}"


def _comma_separated(chunks):
    for k, chunk in enumerate(chunks):
        yield "," + chunk if k else chunk


def cmd_repair(args):
    net = load_nnet(args.net)
    props = _load_properties(args.props)
    train_data = _load_dataset(args.train_data)
    test_data = _load_dataset(args.test_data)
    cfg = RepairConfig(
        alpha=args.alpha,
        epsilon=args.epsilon,
        accuracy_floor=args.floor,
        max_iterations=args.max_iterations,
        train=TrainConfig(
            learning_rate=args.lr,
            batch_size=args.batch_size,
            epochs_per_iteration=args.epochs,
            seed=args.seed,
        ),
        reach=_reach_options(args),
        projection_axes=args.project,
    )
    repaired_net, report = repair(net, props, train_data, test_data, cfg)
    save_nnet(repaired_net, args.out_net)
    payload = {
        "report": report.to_dict(include_timing=not args.no_timing),
        "repaired_network": args.out_net,
    }
    _emit(payload, args.out)
    return 0 if report.verdict == REPAIRED else 3


def cmd_bench(args):
    """Time exact search with the over-approximation filter on versus off."""
    net = load_nnet(args.net)
    props = _load_properties(args.props)
    rows = []
    totals = {"filtered": [0.0, 0, 0], "unfiltered": [0.0, 0, 0]}
    for prop in props:
        row = {"property": prop.name}
        for label, use_filter in (("filtered", True), ("unfiltered", False)):
            opts = ReachOptions(use_filter=use_filter, max_sets=args.max_sets)
            counts = _timed_reach(net, prop, opts, args)
            row[label] = counts
            totals[label][0] += counts.get("wall_time_ms", 0.0)
            totals[label][1] += counts["explored_sets"]
            totals[label][2] = max(totals[label][2], counts["peak_sets"])
        rows.append(row)
    summary = {
        "explored_ratio": totals["filtered"][1] / max(totals["unfiltered"][1], 1),
        "peak_sets_filtered": totals["filtered"][2],
        "peak_sets_unfiltered": totals["unfiltered"][2],
    }
    if not args.no_timing:
        summary["speedup"] = totals["unfiltered"][0] / max(totals["filtered"][0], 1e-6)
        summary["wall_time_ms_filtered"] = totals["filtered"][0]
        summary["wall_time_ms_unfiltered"] = totals["unfiltered"][0]
    _emit({"properties": rows, "summary": summary}, args.out)
    return 0


def cmd_fixtures(args):
    """Write the built-in fixture networks, properties and datasets."""
    os.makedirs(args.out, exist_ok=True)

    def p(name):
        return os.path.join(args.out, name)

    save_nnet(fx.toy_safe_network(), p("toy_safe.nnet"))
    save_nnet(fx.toy_unsafe_network(), p("toy_unsafe.nnet"))
    _save_properties([fx.toy_property()], p("toy_props.json"))

    save_nnet(fx.bench_network(), p("bench.nnet"))
    _save_properties([fx.bench_property()], p("bench_props.json"))

    save_nnet(fx.collision_avoidance_network(seed=args.seed), p("collision_avoidance.nnet"))
    _save_properties(fx.collision_avoidance_properties(), p("collision_avoidance_props.json"))

    teacher = fx.toy_safe_network()
    prop = fx.toy_property()
    _save_dataset(
        fx.sampled_dataset(teacher, prop.input_lb, prop.input_ub, 400, seed=args.seed),
        p("toy_train.json"),
    )
    _save_dataset(
        fx.sampled_dataset(teacher, prop.input_lb, prop.input_ub, 200, seed=args.seed + 1),
        p("toy_test.json"),
    )
    _emit({"written_to": args.out}, None)
    return 0


def _parse_project(text):
    try:  # a wrong field count fails the unpacking with ValueError too
        i, j = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected two comma-separated integer axes, e.g. 0,1") from None
    return i, j


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relurepair",
        description="Verify, analyze and repair small feed-forward ReLU networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--net", required=True, help="NNet network file")
        sp.add_argument("--props", required=True, help="property JSON file")
        sp.add_argument("--max-sets", type=int, default=10**6)
        sp.add_argument("--out", help="output JSON path (default stdout)")

    def add_filter(sp):
        sp.add_argument("--filter", choices=["on", "off"], default="on")

    def add_no_timing(sp):
        sp.add_argument("--no-timing", action="store_true", help="omit wall times")

    sp = sub.add_parser("verify", help="check each property; exit 1 on any violation")
    add_common(sp)
    add_filter(sp)
    add_no_timing(sp)

    sp = sub.add_parser("reach", help="dump exact reachable sets and unsafe regions")
    add_common(sp)
    sp.add_argument("--project", type=_parse_project, default=None, help="output axes i,j")
    sp.add_argument("--dump-sets", action="store_true", help="include vertices and incidence")

    sp = sub.add_parser("repair", help="retrain until all properties verify safe")
    add_common(sp)
    add_filter(sp)
    add_no_timing(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--train-data", required=True, help="training data JSON")
    sp.add_argument("--test-data", required=True, help="test data JSON")
    sp.add_argument("--project", type=_parse_project, default=None,
                    help="record per-iteration projections of the unsafe regions on axes i,j")
    sp.add_argument("--out-net", default="repaired.nnet",
                    help="path for the repaired NNet (default repaired.nnet)")
    sp.add_argument("--alpha", type=float, default=0.02)
    sp.add_argument("--epsilon", type=float, default=0.0)
    sp.add_argument("--floor", type=float, default=None, help="absolute accuracy floor")
    sp.add_argument("--max-iterations", type=int, default=50)
    sp.add_argument("--lr", type=float, default=0.01)
    sp.add_argument("--batch-size", type=int, default=32)
    sp.add_argument("--epochs", type=int, default=10)

    sp = sub.add_parser("bench", help="compare search with the filter on and off")
    add_common(sp)
    add_no_timing(sp)

    sp = sub.add_parser("fixtures", help="write built-in demo networks and properties")
    sp.add_argument("--out", default="fixtures", help="output directory (default ./fixtures)")
    sp.add_argument("--seed", type=int, default=0)
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "reach": cmd_reach,
    "repair": cmd_repair,
    "bench": cmd_bench,
    "fixtures": cmd_fixtures,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # surface everything as a diagnostic, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
