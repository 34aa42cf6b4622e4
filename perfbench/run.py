"""Benchmark of the relurepair command line, run in-process.

    python3 perfbench/run.py --workload controller-5d --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
One process, no extra threads. Set-up generates the workload's inputs from
the seed, writes them under perfbench/out/<workload>/ and runs the
workload's heaviest query once, untimed. The timed phase then repeats whole
rounds of the workload's queries (one CLI call each, closed loop: the next
starts when the previous returns) until --seconds have passed. Every output
is checked afterwards by the independent oracles in oracles.py.

With --trace 0 the last stdout line reports the end-to-end metrics. With
--trace 1 every query runs once untraced and once traced, back to back; the
line reports the per-layer metrics of tracing.py, including the tracing
overhead, and the spans go to perfbench/out/<workload>/trace-seed<n>.json.
"""

import os
import sys
import time

START = time.perf_counter()
# pinned before numpy loads: BLAS threads only add CPU time on these sizes
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def digest(*paths):
    h = hashlib.sha1()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class Runner:
    """Runs queries through relurepair.cli.main and records what came back."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.times = {q.name: [] for q in workload.queries}
        self.outcomes = {q.name: set() for q in workload.queries}
        self.failed = 0

    def call(self, query):
        t = time.perf_counter()
        rc = self.cli.main(query.argv)
        return rc, time.perf_counter() - t

    def record(self, query, rc, dt):
        ok = {"verify": (0, 1)}.get(query.kind, (0,))
        if rc not in ok:
            self.failed += 1
            return
        self.times[query.name].append(dt)
        files = [query.out] + ([query.out_net] if query.out_net else [])
        self.outcomes[query.name].add((rc, digest(*files)))

    def rounds(self, seconds, tracer=None):
        """Whole rounds for about `seconds`: another round starts only if it
        should end less than half a round past the deadline.

        With a tracer every query runs untraced and then traced, back to
        back, so that drift in machine speed cancels out of the overhead.
        Returns (rounds, untraced seconds, traced seconds) spent inside CLI
        calls.
        """
        t0 = time.perf_counter()
        n = 0
        plain = traced = 0.0
        while True:
            for k, q in enumerate(self.workload.queries):
                rc, dt = self.call(q)
                plain += dt
                self.record(q, rc, dt)
                if tracer is not None:
                    tracer.query_id = n * len(self.workload.queries) + k
                    tracer.install()
                    try:
                        rc, dt = self.call(q)
                    finally:
                        tracer.uninstall()
                    traced += dt
                    self.record(q, rc, dt)
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / n >= seconds:
                return n, plain, traced


def check(workload, runner, oracles, epsilon):
    """Independent checks of every query's last output; returns error strings."""
    errors = []
    for q in workload.queries:
        seen = runner.outcomes[q.name]
        if len(seen) > 1:
            errors.append(f"{q.name}: {len(seen)} different outputs across rounds")
        if not seen:
            continue
        inst = q.instance
        if q.kind == "verify":
            expected = oracles.milp_verdict(inst.layers, inst.lb, inst.ub, inst.unsafe)
            errors += oracles.check_verify(q.out, expected)
            rc = next(iter(seen))[0]
            if (rc == 1) != (expected == "unsafe") and expected != "boundary":
                errors.append(f"{q.name}: exit code {rc}, MILP says {expected}")
        elif q.kind == "reach":
            errors += oracles.check_reach(q.out, inst.layers, inst.lb, inst.ub, inst.unsafe)
        else:
            errors += oracles.check_repair(q.out, q.out_net, inst.layers, inst.lb, inst.ub,
                                           inst.unsafe, inst.test, epsilon)
    return errors


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "relurepair" / "__init__.py").is_file():
        print(f"error: no relurepair sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import workloads
    from relurepair import cli
    import relurepair

    if Path(relurepair.__file__).resolve().parent != (SRC / "relurepair").resolve():
        print(f"error: imported relurepair from {relurepair.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, str(out_dir))
        gen_times.append(time.perf_counter() - t)

    runner = Runner(cli, wl)
    warm = wl.heaviest
    rc, warm_s = runner.call(warm)
    runner.record(warm, rc, warm_s)
    runner.times[warm.name].clear()
    runner.failed = 0  # the warm-up is set-up, not an attempted query
    setup_s = import_s + statistics.median(gen_times) + warm_s

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        rounds, plain, traced = runner.rounds(args.seconds, tracer)
        tracer.write(out_dir / f"trace-seed{args.seed}.json")
        metrics = tracer.metrics(rounds, 100.0 * (traced / plain - 1.0))
    else:
        runner.rounds(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times = [t for ts in runner.times.values() for t in ts]
        if not times:
            print(f"error: all {runner.failed} queries failed", file=sys.stderr)
            return 1
        metrics = {
            "query_s_p50": {"value": statistics.median(times), "unit": "s"},
            "queries_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    import oracles

    try:
        errors = check(wl, runner, oracles, workloads.REPAIR_EPSILON)
    except RuntimeError as exc:  # an oracle that cannot decide is a failed check
        errors = [f"oracle error: {exc}"]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    with open(out_dir / f"times-seed{args.seed}.json", "w") as f:
        json.dump(runner.times, f, indent=1)
    attempted = sum(len(ts) for ts in runner.times.values()) + runner.failed
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
