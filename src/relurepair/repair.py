"""Repair loop: verify, extract representative unsafe vertex pairs, correct
outputs to the nearest safe point, merge only those corrected pairs into the
training data, retrain.

The loop terminates when a candidate verifies safe on every property while
holding the accuracy gate, or when the iteration budget runs out.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    LabeledDataset,
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    forward_batch,
    train,
)
from .reach import (
    MaxSetsExceeded,
    ReachOptions,
    check_projection_axes,
    projection_polygon,
    reach_unsafe_all,
)

logger = logging.getLogger(__name__)

REPAIRED = "repaired"
EXHAUSTED = "max-iterations-exhausted"

# a point is accepted as unsafe when every constraint margin is below this
CONTRACT_TOL = 1e-9

# uniform input samples behind each iteration's unsafe volume estimate
VOLUME_SAMPLES = 10_000


class RepairAborted(RuntimeError):
    """Repair stopped early (reach blow-up or diverging loss); carries the
    partial report."""

    def __init__(self, msg, report):
        super().__init__(msg)
        self.report = report


@dataclass(frozen=True)
class RepairConfig:
    # boundary push factor of the output correction
    alpha: float = 0.02
    # required accuracy delta against the original network
    epsilon: float = 0.0
    # optional absolute test-accuracy floor, e.g. 0.93
    accuracy_floor: float | None = None
    max_iterations: int = 50
    train: TrainConfig = field(default_factory=TrainConfig)
    reach: ReachOptions = field(default_factory=ReachOptions)
    # output axes (i, j); when set, each iteration records the 2-d projections
    # of its unsafe regions for plotting
    projection_axes: tuple | None = None

    def __post_init__(self):
        for name in ("alpha", "epsilon", "accuracy_floor"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha <= 0:
            raise ValueError("alpha must be a small positive scalar")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class IterationRecord:
    iteration: int
    unsafe_region_counts: dict
    unsafe_volume_ratios: dict
    accuracy: float
    wall_time_s: float
    # per property: {"unsafe": [polygon, ...]}
    projections: dict | None = None
    # corrected unsafe pairs merged this iteration, and the training pool
    # size after the merge; once every property verifies safe while the
    # accuracy gate fails, the count is 0 and the pool is flat
    pairs_corrected: int = 0
    pool_size: int = 0


@dataclass
class RepairReport:
    iterations: list = field(default_factory=list)
    verdict: str = EXHAUSTED

    def to_dict(self, include_timing=True):
        out = {"verdict": self.verdict, "iterations": []}
        for rec in self.iterations:
            entry = {
                "iteration": rec.iteration,
                "unsafe_region_counts": dict(rec.unsafe_region_counts),
                "unsafe_volume_ratios": {k: float(v) for k, v in rec.unsafe_volume_ratios.items()},
                "accuracy": float(rec.accuracy),
                "pairs_corrected": rec.pairs_corrected,
                "pool_size": rec.pool_size,
            }
            if rec.projections is not None:
                entry["projections"] = rec.projections
            if include_timing:
                entry["wall_time_s"] = float(rec.wall_time_s)
            out["iterations"].append(entry)
        return out


def _input_key(x):
    """Hashable key of an input vertex rounded to 1e-9, -0.0 folded into 0.0."""
    return (np.round(x, 9) + 0.0).tobytes()


def representative_pairs(regions):
    """Vertex pairs (input row, output row) of the given regions, de-duplicated
    across regions by input vertex (1e-9 tolerance)."""
    seen = set()
    pairs = []
    for region in regions:
        for x, y in zip(region.input_vertices, region.current_vertices):
            key = _input_key(x)
            if key in seen:
                continue
            seen.add(key)
            pairs.append((np.array(x), np.array(y)))
    return pairs


def correct(y, unsafe, alpha):
    """Push an unsafe output just past the nearest boundary of the domain.

    The shortest move to each constraint hyperplane is computed in closed
    form; the closest one is taken and overshot by the factor (1 + alpha), so
    the result strictly violates that constraint and exits the conjunction.
    """
    y = np.asarray(y, float)
    margins = np.array([float(a @ y) + b for a, b in unsafe.constraints])
    if (margins > CONTRACT_TOL).any():
        raise ValueError("point is not inside the unsafe domain")
    norms = np.array([float(np.linalg.norm(a)) for a, _ in unsafe.constraints])
    distances = -margins / norms
    j = int(np.argmin(distances))
    a_j, _ = unsafe.constraints[j]
    if distances[j] <= 1e-12:
        # already on the boundary: step along the normal to slack alpha
        return y + (alpha / norms[j] ** 2) * a_j
    delta = -(margins[j] / norms[j] ** 2) * a_j
    return y + (1.0 + alpha) * delta


def unsafe_volume_ratio(net, prop, samples, seed=0):
    """Monte-Carlo fraction of the property's input box whose outputs lie in
    its unsafe domain (expected noise on the order of 1/sqrt(samples)).

    The exact unsafe regions cover exactly {x in box : f(x) unsafe}, so one
    forward pass estimates their coverage without testing any region.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(prop.input_lb, prop.input_ub, size=(samples, prop.input_lb.shape[0]))
    unsafe = (prop.unsafe.margins(forward_batch(net, pts)) <= 0.0).all(axis=1)
    return float(unsafe.mean())


class _TrainingPool:
    """Training pairs keyed by input vertex; re-corrected pairs overwrite
    stale targets for the same input."""

    def __init__(self, data):
        self.xs = [np.array(x) for x in data.inputs]
        self.ys = [np.array(y) for y in data.targets]
        self.index = {_input_key(x): i for i, x in enumerate(self.xs)}

    def __len__(self):
        return len(self.xs)

    def upsert(self, pairs):
        for x, y in pairs:
            key = _input_key(x)
            if key in self.index:
                i = self.index[key]
                self.xs[i] = np.array(x)
                self.ys[i] = np.array(y)
            else:
                self.index[key] = len(self.xs)
                self.xs.append(np.array(x))
                self.ys.append(np.array(y))

    def dataset(self):
        return LabeledDataset(np.array(self.xs), np.array(self.ys))


def repair(net, properties, train_data, test_data, cfg=None):
    """Run the full repair loop; returns (network, report).

    Each iteration verifies every property exactly, corrects the unsafe
    vertex pairs, merges them into the training pool, and retrains the
    running candidate. The corrected pairs come from the exact unsafe
    regions, which the relaxed filter never changes, so the repaired network
    does not depend on cfg.reach.use_filter.
    """
    cfg = cfg or RepairConfig()
    if not properties:
        raise ValueError("need at least one safety property")
    if len(train_data) == 0 or len(test_data) == 0:
        raise ValueError("training and test data must be nonempty")
    for label, data in (("training", train_data), ("test", test_data)):
        if data.inputs.shape[1] != net.input_dim:
            raise ValueError(
                f"{label} inputs are {data.inputs.shape[1]} wide, "
                f"network expects {net.input_dim}"
            )
        if data.targets.shape[1] != net.output_dim:
            raise ValueError(
                f"{label} targets are {data.targets.shape[1]} wide, "
                f"network has {net.output_dim} outputs"
            )
    if cfg.projection_axes is not None:
        check_projection_axes(cfg.projection_axes, net.output_dim)

    base_acc = accuracy(net, test_data)
    candidate = net
    pool = _TrainingPool(train_data)
    report = RepairReport(verdict=EXHAUSTED)

    for it in range(1, cfg.max_iterations + 1):
        t0 = time.monotonic()
        try:
            regions = reach_unsafe_all(candidate, properties, cfg.reach)
        except MaxSetsExceeded as exc:
            raise RepairAborted(f"reachability blew past max_sets: {exc}", report) from exc

        acc = accuracy(candidate, test_data)
        counts = {p.name: len(regions[p.name]) for p in properties}
        ratios = {
            p.name: unsafe_volume_ratio(candidate, p, VOLUME_SAMPLES, seed=cfg.train.seed + it)
            for p in properties
        }
        projections = None
        if cfg.projection_axes is not None:
            i, j = cfg.projection_axes
            projections = {
                p.name: {"unsafe": [projection_polygon(r.current_vertices, i, j)
                                    for r in regions[p.name]]}
                for p in properties
            }
        record = IterationRecord(it, counts, ratios, acc, 0.0, projections, pool_size=len(pool))
        report.iterations.append(record)

        if all(c == 0 for c in counts.values()):
            gate = acc - base_acc >= cfg.epsilon and (
                cfg.accuracy_floor is None or acc >= cfg.accuracy_floor
            )
            if gate:
                report.verdict = REPAIRED
                record.wall_time_s = time.monotonic() - t0
                logger.info("repaired after %d iteration(s), accuracy %.4f", it, acc)
                return candidate, report

        corrected = []
        for p in properties:
            for x, y in representative_pairs(regions[p.name]):
                corrected.append((x, correct(y, p.unsafe, cfg.alpha)))

        pool.upsert(corrected)
        record.pairs_corrected = len(corrected)
        record.pool_size = len(pool)
        try:
            candidate = train(candidate, pool.dataset(), cfg.train)
        except TrainingDivergedError as exc:
            raise RepairAborted(f"training diverged at iteration {it}: {exc}", report) from exc
        record.wall_time_s = time.monotonic() - t0

    return candidate, report
