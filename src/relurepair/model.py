"""Feed-forward ReLU networks: NNet file I/O, evaluation, SGD training, accuracy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RELU = "relu"
IDENTITY = "identity"


class NNetFormatError(ValueError):
    """Raised when an NNet file cannot be parsed; message carries the line number."""


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class Layer:
    """One affine layer: y = W x + b followed by an elementwise activation."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = RELU

    def __post_init__(self):
        if self.activation not in (RELU, IDENTITY):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-d and bias 1-d")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match "
                f"weight rows {self.weights.shape[0]}"
            )


class Network:
    """A layered affine+ReLU function. Treat instances as immutable values.

    Hidden layers use ReLU; only the last layer may use the identity
    activation. Normalization constants (means/ranges per input, plus one
    trailing entry for the output) are carried along when loaded from an
    NNet file and written back by `save_nnet`; nothing applies them.

    Construction also works out which neurons are live: every output neuron
    is, and so is any neuron that a live neuron of the next layer reads with
    a nonzero weight. live_neurons[k] indexes the live coordinates of the
    input of layer k (of the output for k = num_layers), as an index array,
    or slice(None) when all are live. live_layers[k] is layer k cut down to
    its live neurons and the live inputs they read; a layer that keeps every
    neuron and reads every input is the layer itself, not a copy. The relaxed
    filter runs over these: a dead neuron changes no live pre-activation.
    """

    def __init__(self, layers, mins=None, maxes=None, means=None, ranges=None):
        if not layers:
            raise ValueError("network needs at least one layer")
        for k, ly in enumerate(layers[:-1]):
            if ly.activation != RELU:
                raise ValueError(f"hidden layer {k} must use ReLU")
        for k in range(1, len(layers)):
            prev_out = layers[k - 1].weights.shape[0]
            cur_in = layers[k].weights.shape[1]
            if prev_out != cur_in:
                raise ValueError(
                    f"layer {k} expects {cur_in} inputs but layer {k - 1} produces {prev_out}"
                )
        self.layers = tuple(layers)
        self.input_dim = layers[0].weights.shape[1]
        self.output_dim = layers[-1].weights.shape[0]
        self.mins = None if mins is None else np.asarray(mins, float)
        self.maxes = None if maxes is None else np.asarray(maxes, float)
        self.means = None if means is None else np.asarray(means, float)
        self.ranges = None if ranges is None else np.asarray(ranges, float)
        live, live_layers = [slice(None)], []
        rows = np.arange(self.output_dim)
        for ly in reversed(self.layers):
            out_dim, in_dim = ly.weights.shape
            reads = np.flatnonzero(ly.weights[rows].any(axis=0))
            if rows.size < out_dim or reads.size < in_dim:
                ly = Layer(ly.weights[np.ix_(rows, reads)], ly.bias[rows], ly.activation)
            live_layers.insert(0, ly)
            live.insert(0, reads if reads.size < in_dim else slice(None))
            rows = reads
        self.live_neurons = tuple(live)
        self.live_layers = tuple(live_layers)

    @property
    def num_layers(self):
        return len(self.layers)

    def layer_sizes(self):
        return [self.input_dim] + [ly.weights.shape[0] for ly in self.layers]

    def with_layers(self, layers):
        """Same normalization constants, new weights (used by training)."""
        return Network(layers, self.mins, self.maxes, self.means, self.ranges)


@dataclass
class LabeledDataset:
    """Input/target pairs; the class label of a pair is argmax of its target."""

    inputs: np.ndarray  # (n, input_dim)
    targets: np.ndarray  # (n, output_dim)
    labels: np.ndarray = field(init=False)  # (n,) ints

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, float)
        self.targets = np.asarray(self.targets, float)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-d arrays")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must pair up row by row")
        for name in ("inputs", "targets"):
            finite = np.isfinite(getattr(self, name)).all(axis=1)
            if not finite.all():
                raise ValueError(f"{name} row {int(np.argmin(finite))} is not finite")
        self.labels = np.argmax(self.targets, axis=1)

    def __len__(self):
        return self.inputs.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs_per_iteration: int = 10
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs_per_iteration < 1:
            raise ValueError("epochs_per_iteration must be at least 1")


def _parse_numbers(line, lineno, kind=float):
    # float and int strip whitespace themselves, so each field takes one
    # call; blank fields, such as the one after a trailing comma, are skipped
    try:
        return list(map(kind, filter(str.strip, line.split(","))))
    except ValueError:
        raise NNetFormatError(f"line {lineno}: non-numeric token in {line.strip()!r}") from None


def load_nnet(path):
    """Load a network from an NNet text file.

    Layout: '//' comment lines; a counts line (num_layers, input_dim,
    output_dim, max_layer_size); a layer-sizes line; a symmetric flag;
    input mins, maxes, means, ranges lines; then per layer the weight rows
    (row-major) followed by one bias value per row, all comma-separated.
    Blank fields are skipped. Comment and blank lines may sit anywhere, also
    inside a weight or bias block; anything else after the last layer is
    rejected.
    """
    # a '//' line may hold any bytes; one that does not decode as UTF-8
    # elsewhere fails as a non-numeric token
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        raw = f.readlines()
    # (line number, text) of each data line; the header is rows[0:7], and
    # the layer sizes fix the index of every row after it
    rows = [(i, text) for i, text in enumerate(raw, 1) if not text.startswith("//") and text.strip()]

    def numbers(i, kind=float):
        if i >= len(rows):
            raise NNetFormatError(f"line {len(raw)}: file ended early")
        lineno, text = rows[i]
        return lineno, _parse_numbers(text, lineno, kind)

    lineno, counts = numbers(0, int)
    if len(counts) < 3:
        raise NNetFormatError(f"line {lineno}: header needs at least 3 counts, got {len(counts)}")
    num_layers, input_dim, output_dim = counts[0], counts[1], counts[2]
    if num_layers < 1 or input_dim < 1 or output_dim < 1:
        raise NNetFormatError(f"line {lineno}: non-positive count in header")

    lineno, sizes = numbers(1, int)
    if len(sizes) != num_layers + 1:
        raise NNetFormatError(
            f"line {lineno}: expected {num_layers + 1} layer sizes, got {len(sizes)}"
        )
    if sizes[0] != input_dim or sizes[-1] != output_dim:
        raise NNetFormatError(f"line {lineno}: layer sizes disagree with header counts")
    if min(sizes) < 1:
        raise NNetFormatError(f"line {lineno}: layer sizes must be at least 1, got {sizes}")

    header = {}  # rows[2] is the symmetric flag, unused
    for i, name, want in (
        (3, "mins", input_dim),
        (4, "maxes", input_dim),
        (5, "means", input_dim + 1),
        (6, "ranges", input_dim + 1),
    ):
        lineno, vals = numbers(i)
        if len(vals) != want:
            raise NNetFormatError(f"line {lineno}: expected {want} {name} values, got {len(vals)}")
        header[name] = vals

    def read_rows(at, count, width, k, kind):
        """rows[at:at+count], `width` numbers each, as a (count, width) array."""
        block = rows[at : at + count]
        # numpy's C reader parses the whole block at once. It rejects blank
        # fields mid-row and the spellings only float() accepts ("1_000",
        # non-ASCII digits); those rows, and every malformed one, go through
        # the per-row loop below. An all-blank row would be skipped, or make
        # loadtxt warn. Rows are trimmed one at a time and max_rows sizes the
        # array once: a list of trimmed copies and a growing array left the
        # heap of a long corridor-deep run 1.5 MB larger.
        trim = ", \t\r\n"
        if len(block) == count and all(text.rstrip(trim) for _, text in block):
            try:
                out = np.loadtxt(
                    (text.rstrip(trim) for _, text in block),
                    delimiter=",", comments=None, ndmin=2, max_rows=count,
                )
            except ValueError:
                pass
            else:
                if out.shape == (count, width):
                    return out
        # one row at a time, so the first bad row in the file is reported;
        # in a block the file ends inside, that comes before the early end
        out = np.empty((count, width))
        for r in range(count):
            lineno, vals = numbers(at + r)
            if len(vals) != width:
                raise NNetFormatError(
                    f"line {lineno}: layer {k} {kind} row {r} has {len(vals)} values, expected {width}"
                )
            out[r] = vals
        return out

    layers = []
    at = 7
    for k in range(num_layers):
        n, cols = sizes[k + 1], sizes[k]
        w = read_rows(at, n, cols, k, "weight")
        b = read_rows(at + n, n, 1, k, "bias").ravel()
        # both parsers accept "nan" and "inf"; one check per layer rejects
        # them. Weight row j is rows[at + j] and bias row j is rows[at + n + j]
        finite = np.concatenate([np.isfinite(w).all(axis=1), np.isfinite(b)])
        if not finite.all():
            raise NNetFormatError(
                f"line {rows[at + int(np.argmin(finite))][0]}: layer {k} has a non-finite value"
            )
        act = IDENTITY if k == num_layers - 1 else RELU
        layers.append(Layer(w, b, act))
        at += 2 * n

    if at < len(rows):
        raise NNetFormatError(f"line {rows[at][0]}: data after the last layer")
    return Network(layers, **header)


def save_nnet(net, path):
    """Write a network in NNet format with round-trip-exact decimals."""
    sizes = net.layer_sizes()
    input_dim = net.input_dim
    mins = net.mins if net.mins is not None else np.zeros(input_dim)
    maxes = net.maxes if net.maxes is not None else np.ones(input_dim)
    means = net.means if net.means is not None else np.zeros(input_dim + 1)
    ranges = net.ranges if net.ranges is not None else np.ones(input_dim + 1)

    def fmt(vals):
        return ",".join(repr(float(v)) for v in vals) + ","

    lines = ["// relurepair network"]
    lines.append(",".join(str(int(v)) for v in (net.num_layers, input_dim, net.output_dim, max(sizes))) + ",")
    lines.append(",".join(str(int(s)) for s in sizes) + ",")
    lines.append("0,")
    lines.append(fmt(mins))
    lines.append(fmt(maxes))
    lines.append(fmt(means))
    lines.append(fmt(ranges))
    for ly in net.layers:
        for row in ly.weights:
            lines.append(fmt(row))
        for v in ly.bias:
            lines.append(fmt([v]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def forward_batch(net, xs):
    """Evaluate the network on rows of a (n, input_dim) array."""
    xs = np.asarray(xs, float)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(f"inputs have shape {xs.shape}, expected (n, {net.input_dim})")
    for ly in net.layers:
        xs = xs @ ly.weights.T + ly.bias
        if ly.activation == RELU:
            xs = np.maximum(xs, 0.0)
    return xs


def _loss_gradients(layers, xs, ys):
    """Backprop the MSE loss; returns (loss, [(dW, db) per layer])."""
    acts = [xs]
    pre = []
    a = xs
    for ly in layers:
        z = a @ ly.weights.T + ly.bias
        pre.append(z)
        a = np.maximum(z, 0.0) if ly.activation == RELU else z
        acts.append(a)
    diff = acts[-1] - ys
    loss = float(np.mean(diff**2))
    # d loss / d pred for loss = mean over batch*out entries
    delta = 2.0 * diff / diff.size
    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        if layers[k].activation == RELU:
            delta = delta * (pre[k] > 0)
        grads[k] = (delta.T @ acts[k], delta.sum(axis=0))
        if k > 0:
            delta = delta @ layers[k].weights
    return loss, grads


def train(net, data, cfg):
    """Minibatch SGD on MSE loss; returns a new network, same architecture.

    With a fixed seed the shuffling and updates are bit-reproducible.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    layers = list(net.layers)
    rng = np.random.default_rng(cfg.seed)
    n = len(data)
    for _ in range(cfg.epochs_per_iteration):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = _loss_gradients(layers, data.inputs[idx], data.targets[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at batch starting index {start}"
                )
            layers = [
                Layer(
                    ly.weights - cfg.learning_rate * dw,
                    ly.bias - cfg.learning_rate * db,
                    ly.activation,
                )
                for ly, (dw, db) in zip(layers, grads)
            ]
    return net.with_layers(layers)


def accuracy(net, data):
    """Fraction of pairs whose predicted argmax equals the label (ties -> lowest index)."""
    if len(data) == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    pred = np.argmax(forward_batch(net, data.inputs), axis=1)
    return float(np.mean(pred == data.labels))
