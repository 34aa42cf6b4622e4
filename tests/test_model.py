"""Network model: NNet parsing, evaluation, training, accuracy."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relurepair import fixtures as fx
from relurepair.model import (
    IDENTITY,
    RELU,
    LabeledDataset,
    Layer,
    Network,
    NNetFormatError,
    TrainConfig,
    accuracy,
    forward_batch,
    load_nnet,
    save_nnet,
    train,
)

from conftest import forward, mse_loss, reference_load_nnet, straight_forward


def write_nnet(path, sizes, weights, biases, mins=None, maxes=None):
    d = sizes[0]
    lines = ["// test network"]
    lines.append(f"{len(sizes) - 1},{d},{sizes[-1]},{max(sizes)},")
    lines.append(",".join(str(s) for s in sizes) + ",")
    lines.append("0,")
    lines.append(",".join(str(v) for v in (mins or [0.0] * d)) + ",")
    lines.append(",".join(str(v) for v in (maxes or [1.0] * d)) + ",")
    lines.append(",".join("0.0" for _ in range(d + 1)) + ",")
    lines.append(",".join("1.0" for _ in range(d + 1)) + ",")
    for w, b in zip(weights, biases):
        for row in w:
            lines.append(",".join(repr(float(v)) for v in row) + ",")
        for v in b:
            lines.append(repr(float(v)) + ",")
    path.write_text("\n".join(lines) + "\n")


def assert_same_layers(got, want):
    assert len(got.layers) == len(want.layers)
    for g, w in zip(got.layers, want.layers):
        assert g.weights.shape == w.weights.shape and g.weights.tobytes() == w.weights.tobytes()
        assert g.bias.shape == w.bias.shape and g.bias.tobytes() == w.bias.tobytes()


class TestLoadNNet:
    def test_zero_network_maps_everything_to_zero(self, tmp_path):
        p = tmp_path / "zero.nnet"
        write_nnet(
            p,
            [2, 3, 2],
            [np.zeros((3, 2)), np.zeros((2, 3))],
            [np.zeros(3), np.zeros(2)],
        )
        net = load_nnet(p)
        assert net.input_dim == 2 and net.output_dim == 2
        for x in ([0.0, 0.0], [1.0, -1.0], [3.5, 2.25]):
            assert np.array_equal(forward(net, x), np.zeros(2))

    def test_identity_relu_composition(self, tmp_path):
        p = tmp_path / "ident.nnet"
        write_nnet(p, [2, 2, 2], [np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
        net = load_nnet(p)
        assert np.array_equal(forward(net, [1.0, -1.0]), [1.0, 0.0])

    def test_controller_scale_fixture_round_trip(self, tmp_path):
        net = fx.random_network([5] + [50] * 6 + [5], seed=3)
        # signed zero, subnormal and extreme magnitudes keep their bits too
        w0, b1 = net.layers[0].weights.copy(), net.layers[1].bias.copy()
        w0[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, -2.5e-7]
        b1[3] = -0.0
        net = net.with_layers([replace(net.layers[0], weights=w0), replace(net.layers[1], bias=b1),
                               *net.layers[2:]])
        p = tmp_path / "controller.nnet"
        save_nnet(net, p)
        loaded = load_nnet(p)
        assert loaded.input_dim == 5 and loaded.output_dim == 5
        assert loaded.layer_sizes() == net.layer_sizes()
        # decimal repr round-trips weights bit-exactly
        assert loaded.layers[2].weights[17, 31] == net.layers[2].weights[17, 31]
        assert_same_layers(loaded, net)

    def test_malformed_header_reports_line(self, tmp_path):
        p = tmp_path / "bad.nnet"
        p.write_text("// c\n2,5,\n")
        with pytest.raises(NNetFormatError, match="line 2"):
            load_nnet(p)

    def test_non_numeric_token_reports_line(self, tmp_path):
        p = tmp_path / "bad.nnet"
        p.write_text("1,1,1,1,\n1,1,\n0,\n0.0,\nx?,\n0.0,0.0,\n1.0,1.0,\n1.0,\n0.0,\n")
        with pytest.raises(NNetFormatError, match="line 5"):
            load_nnet(p)

    @pytest.mark.parametrize("comment", [b"// caf\xe9\n", b"// \xff\xfe\x80\n", "// café\n".encode()],
                             ids=["latin-1", "invalid-utf-8", "utf-8"])
    def test_comment_may_hold_any_bytes(self, tmp_path, comment):
        p = tmp_path / "net.nnet"
        net = fx.random_network([2, 3, 2], seed=0)
        save_nnet(net, p)
        lines = p.read_bytes().splitlines(keepends=True)
        p.write_bytes(comment + b"".join(lines[:9]) + comment + b"".join(lines[9:]))
        loaded = load_nnet(p)
        for got, want in zip(loaded.layers, net.layers):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()

    @pytest.mark.parametrize("lineno", [2, 9, 10, 13])
    def test_undecodable_byte_in_a_data_line_is_a_non_numeric_token(self, tmp_path, lineno):
        # the counts line, two weight rows of layer 0 and a bias row
        p = tmp_path / "bad.nnet"
        save_nnet(fx.random_network([2, 3, 2], seed=0), p)
        lines = p.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1][:3] + b"\xe9" + lines[lineno - 1][3:]
        p.write_bytes(b"".join(lines))
        with pytest.raises(NNetFormatError, match=f"^line {lineno}: non-numeric token in '.*\\\\udce9"):
            load_nnet(p)

    def test_weight_row_length_mismatch(self, tmp_path):
        p = tmp_path / "bad.nnet"
        write_nnet(p, [2, 2], [np.eye(2)], [np.zeros(2)])
        text = p.read_text().splitlines()
        text[8] = "1.0,0.0,9.0,"  # first weight row, one value too many
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="line 9"):
            load_nnet(p)

    @pytest.mark.parametrize("hidden", ["-1", "0"])
    def test_layer_size_below_one_reports_sizes_line(self, tmp_path, hidden):
        p = tmp_path / "bad.nnet"
        write_nnet(p, [2, 3, 2], [np.eye(3, 2), np.eye(2, 3)], [np.zeros(3), np.zeros(2)])
        text = p.read_text().splitlines()
        text[2] = f"2,{hidden},2,"  # the layer-sizes line
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="^line 3: layer sizes must be at least 1"):
            load_nnet(p)

    @pytest.mark.parametrize(
        "lineno, name, want", [(5, "mins", 2), (6, "maxes", 2), (7, "means", 3), (8, "ranges", 3)]
    )
    def test_short_header_vector_reports_its_line(self, tmp_path, lineno, name, want):
        p = tmp_path / "bad.nnet"
        save_nnet(fx.random_network([2, 3, 2], seed=0), p)
        text = p.read_text().splitlines()
        text[lineno - 1] = "0.0,"
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match=f"^line {lineno}: expected {want} {name} values, got 1$"):
            load_nnet(p)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_weight_reports_line(self, tmp_path, token):
        p = tmp_path / "bad.nnet"
        write_nnet(p, [2, 3, 2], [np.eye(3, 2), np.eye(2, 3)], [np.zeros(3), np.zeros(2)])
        text = p.read_text().splitlines()
        text[15] = f"0.0,{token},0.0,"  # second weight row of layer 1
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="line 16: layer 1 has a non-finite value"):
            load_nnet(p)

    def test_non_finite_bias_reports_line(self, tmp_path):
        p = tmp_path / "bad.nnet"
        write_nnet(p, [2, 3, 2], [np.eye(3, 2), np.eye(2, 3)], [np.zeros(3), np.zeros(2)])
        text = p.read_text().splitlines()
        text[13] = "nan,"  # last bias row of layer 0
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="line 14: layer 0 has a non-finite value"):
            load_nnet(p)
        text[9] = "inf,0.0,"  # second weight row of layer 0: the first bad row
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="line 10: layer 0 has a non-finite value"):
            load_nnet(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "bad.nnet"
        write_nnet(p, [2, 2], [np.eye(2)], [np.zeros(2)])
        text = p.read_text().splitlines()[:-2]
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError):
            load_nnet(p)

    def test_blank_mid_row_field_is_skipped(self, tmp_path):
        # blank fields are dropped anywhere on a line, not only at its end
        p = tmp_path / "blank.nnet"
        write_nnet(p, [2, 2], [[[1.0, 2.0], [3.0, 4.0]]], [[5.0, 6.0]])
        text = p.read_text().splitlines()
        text[8] = "1.0, ,2.0,"
        text[11] = ",6.0"
        p.write_text("\n".join(text) + "\n")
        net = load_nnet(p)
        assert net.layers[0].weights.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert net.layers[0].bias.tolist() == [5.0, 6.0]

    def test_first_bad_row_wins_within_a_layer(self, tmp_path):
        p = tmp_path / "bad.nnet"
        write_nnet(p, [2, 2], [np.eye(2)], [np.zeros(2)])
        text = p.read_text().splitlines()
        text[8] = "1.0,"  # first weight row, one value short
        text[10] = "x?,"  # first bias row, non-numeric
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="^line 9: layer 0 weight row 0 has 1 values, expected 2$"):
            load_nnet(p)
        text[8] = "1.0,0.0,"
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="^line 11: non-numeric token"):
            load_nnet(p)

    def test_bad_row_before_early_end_is_reported(self, tmp_path):
        p = tmp_path / "bad.nnet"
        write_nnet(p, [2, 2], [np.eye(2)], [np.zeros(2)])
        text = p.read_text().splitlines()[:-1]  # drop the last bias row
        text[9] = "0.0,1.0,7.0,"  # second weight row, one value too many
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="^line 10: layer 0 weight row 1 has 3 values"):
            load_nnet(p)
        text[9] = "0.0,1.0,"
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="file ended early"):
            load_nnet(p)

    def test_bad_row_before_an_end_inside_the_weight_block_is_reported(self, tmp_path):
        p = tmp_path / "bad.nnet"
        write_nnet(p, [2, 3, 2], [np.eye(3, 2), np.eye(2, 3)], [np.zeros(3), np.zeros(2)])
        text = p.read_text().splitlines()[:10]  # ends after 2 of layer 0's 3 weight rows
        text[8] = "1.0,x?,"  # weight row 0
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="^line 9: non-numeric token in '1.0,x\\?,'$"):
            load_nnet(p)

    def test_blank_bias_rows_report_the_count_without_warning(self, tmp_path):
        p = tmp_path / "bad.nnet"
        write_nnet(p, [2, 2], [np.eye(2)], [np.zeros(2)])
        text = p.read_text().splitlines()
        text[10] = text[11] = ","  # both bias rows of layer 0
        p.write_text("\n".join(text) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NNetFormatError, match="^line 11: layer 0 bias row 0 has 0 values, expected 1$"):
                load_nnet(p)

    @pytest.mark.parametrize("tail", ["9.0,9.0,", "rubbish"])
    def test_data_after_the_last_layer_is_rejected(self, tmp_path, tail):
        net = fx.random_network([2, 3, 2], seed=0)
        p = tmp_path / "net.nnet"
        save_nnet(net, p)
        with open(p, "a") as f:
            f.write("// comments and blank lines may follow\n\n")
        assert_same_layers(load_nnet(p), net)
        end = len(p.read_text().splitlines())
        with open(p, "a") as f:
            f.write(tail + "\n")
        with pytest.raises(NNetFormatError, match=f"^line {end + 1}: data after the last layer$"):
            load_nnet(p)

    def test_too_few_layers_in_the_header_is_rejected(self, tmp_path):
        p = tmp_path / "net.nnet"
        write_nnet(p, [2, 2, 2], [np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
        text = p.read_text().splitlines()
        text[1], text[2] = "1,2,2,2,", "2,2,"  # one layer, so layer 1's rows are left over
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(NNetFormatError, match="^line 13: data after the last layer$"):
            load_nnet(p)

    def test_normalization_stored(self, tmp_path):
        p = tmp_path / "norm.nnet"
        write_nnet(p, [2, 2], [np.eye(2)], [np.zeros(2)], mins=[-5.0, 0.0], maxes=[5.0, 9.0])
        net = load_nnet(p)
        assert np.array_equal(net.mins, [-5.0, 0.0])


# each data line rewritten as another writer might leave it
ROW_VARIANTS = {
    "crlf": lambda row: row + "\r",
    "space after last comma": lambda row: row + " ",
    "no trailing comma": lambda row: row.rstrip(","),
    "spaces around fields": lambda row: " " + row.replace(",", " ,\t"),
}


@pytest.mark.parametrize("variant", sorted(ROW_VARIANTS))
def test_rewritten_rows_load_as_the_plain_file(tmp_path, variant):
    net = fx.random_network([5, 64, 64, 5], seed=7)
    p = tmp_path / "net.nnet"
    save_nnet(net, p)
    lines = p.read_text().splitlines()
    edit = ROW_VARIANTS[variant]
    q = tmp_path / "variant.nnet"
    with open(q, "w", newline="") as f:  # keep the \r of the crlf rows
        f.write("".join((ln if ln.startswith("//") else edit(ln)) + "\n" for ln in lines))
    assert q.read_bytes() != p.read_bytes()
    got = load_nnet(q)
    assert_same_layers(got, net)
    plain = load_nnet(p)
    for name in ("mins", "maxes", "means", "ranges"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(plain, name)).tobytes()


FAULTS = ["token", "short", "long", "non-finite", "truncate"]
ODD_TOKENS = ["x?", "1_000", "\u0661", "0x10", "1.0.0", "--1", "1e", "nan(1)"]
# lines the loader skips wherever they sit
FILLERS = ["// note", "//", "", " ", "\t", " \r"]


def random_layers(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    layers = []
    for k in range(len(sizes) - 1):
        rows, cols = sizes[k + 1], sizes[k]
        w = draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))
        b = draw(st.lists(finite, min_size=rows, max_size=rows))
        act = IDENTITY if k == len(sizes) - 2 else RELU
        layers.append(Layer(np.reshape(w, (rows, cols)), np.array(b), act))
    return layers


def rewrite(draw, lines):
    """Saved NNet lines with rewritten rows and at most one fault, as text.

    Every data row may get a blank field and one of ROW_VARIANTS. The fault
    is a bad token, a missing or extra field, a non-finite value or a cut,
    inside a line or at a line boundary; it never adds data after the last
    layer, which the loader rejects and the reference ignores. Comment and
    blank lines go in at drawn positions: inside weight and bias blocks,
    between layers and after the last layer.
    """
    for i, line in enumerate(lines):
        if line.startswith("//"):
            continue
        fields = line.split(",")
        if draw(st.booleans()):
            fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(["", " ", "\t"])))
        variant = draw(st.sampled_from([None] + sorted(ROW_VARIANTS)))
        line = ",".join(fields)
        lines[i] = ROW_VARIANTS[variant](line) if variant else line
    fault = draw(st.sampled_from([None] + FAULTS))
    if fault not in (None, "truncate"):
        # a weight or bias row: the first follows the comment, 3 header lines and 4 vectors
        i = draw(st.integers(8, len(lines) - 1))
        fields = lines[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        if fault == "token":
            any_char = st.characters(exclude_categories=["Cs"], exclude_characters="\r\n")
            fields[j] = draw(st.sampled_from(ODD_TOKENS) | st.text(any_char, max_size=4))
        elif fault == "short":
            del fields[j]
        elif fault == "long":
            fields.insert(j, "1.0")
        else:
            fields[j] = draw(st.sampled_from(["nan", "-inf", "1e999", "NaN", "infinity", "-1E+999"]))
        lines[i] = ",".join(fields)
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(draw(st.integers(8, len(lines))), draw(st.sampled_from(FILLERS)))
    if fault == "truncate" and draw(st.booleans()):
        return "".join(line + "\n" for line in lines[: draw(st.integers(0, len(lines) - 1))])
    text = "\n".join(lines) + "\n"
    if fault == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    return text


def load_outcome(load, path):
    """Every array of the loaded net as bytes, or the loader's error message."""
    try:
        net = load(path)
    except NNetFormatError as exc:
        return str(exc)
    header = [np.asarray(getattr(net, name)).tobytes() for name in ("mins", "maxes", "means", "ranges")]
    layers = [
        (ly.weights.shape, ly.weights.tobytes(), ly.bias.shape, ly.bias.tobytes(), ly.activation)
        for ly in net.layers
    ]
    return header, layers


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_reader_matches_the_per_row_reference(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("nnet")
    saved, p = d / "saved.nnet", d / "net.nnet"
    save_nnet(Network(random_layers(data.draw)), saved)
    with open(p, "w", newline="") as f:  # keep the \r of the crlf rows
        f.write(rewrite(data.draw, saved.read_text().splitlines()))
    want = load_outcome(reference_load_nnet, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_outcome(load_nnet, p)
    assert got == want


class TestLiveNeurons:
    def test_dense_net_keeps_its_own_layers(self):
        net = fx.random_network([3, 5, 4, 2], seed=9)
        assert net.live is net

    def test_cuts_dead_neurons_and_unread_inputs(self):
        # neuron 1 of layer 1 feeds nothing; neuron 1 of layer 0 feeds only
        # it, and only that neuron reads input 1; output neuron 0 reads nothing.
        # Layer 0 keeps input 1 all the same: the live network has the input
        # space of the full one
        w0 = np.array([[1.0, 0.0], [2.0, 3.0], [-1.0, 0.0]])
        w1 = np.array([[4.0, 0.0, 0.0], [0.0, 5.0, 0.0], [6.0, 0.0, 7.0]])
        w2 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
        net = Network([Layer(w0, np.arange(3.0)), Layer(w1, np.arange(3.0)),
                       Layer(w2, np.arange(2.0), IDENTITY)], mins=[0.0, 1.0], maxes=[2.0, 3.0])
        live = net.live
        assert live is not net and live.live is live
        assert live.layer_sizes() == [2, 2, 2, 2]
        assert live.mins.tolist() == [0.0, 1.0] and live.maxes.tolist() == [2.0, 3.0]
        want = [(w0[[0, 2]], [0.0, 2.0]), (w1[np.ix_([0, 2], [0, 2])], [0.0, 2.0]),
                (w2[:, [0, 2]], [0.0, 1.0])]
        for ly, full, (w, b) in zip(live.layers, net.layers, want):
            assert ly.weights.tolist() == w.tolist() and ly.bias.tolist() == b
            assert ly.activation == full.activation
        xs = np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 2))
        assert np.array_equal(forward_batch(live, xs), forward_batch(net, xs))

    def test_layer_arrays_are_read_only(self):
        # the output reads hidden neuron 0 only, so the live network holds a
        # cut copy of layer 1; an in-place edit of layer 1 would leave the
        # exploration on the old weights, and it would miss unsafe inputs of
        # the edited net
        w0, b0 = np.eye(2), np.zeros(2)
        w1, b1 = np.array([[1.0, 0.0]]), np.array([-0.25])
        net = Network([Layer(w0, b0), Layer(w1, b1, IDENTITY)])
        assert net.live.layers[1].weights.shape == (1, 1)
        for ly in net.layers + net.live.layers:
            for a in (ly.weights, ly.bias):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            w1[0, 1] = 5.0  # the caller's array is the layer's
        assert w1.tolist() == [[1.0, 0.0]]

    def test_layer_without_live_neurons(self):
        net = Network([Layer(np.ones((2, 2)), np.ones(2)), Layer(np.zeros((1, 2)), np.ones(1), IDENTITY)])
        assert net.live.layer_sizes() == [2, 0, 1]
        assert net.live.layers[0].weights.shape == (0, 2)
        assert net.live.layers[1].weights.shape == (1, 0)
        assert net.live.layers[1].bias.tolist() == [1.0]
        assert forward_batch(net.live, np.zeros((1, 2))).tolist() == [[1.0]]


class TestForward:
    def test_zero_network(self):
        net = Network([Layer(np.zeros((3, 2)), np.zeros(3), RELU), Layer(np.zeros((2, 3)), np.zeros(2), IDENTITY)])
        assert np.array_equal(forward(net, [7.0, -2.0]), np.zeros(2))

    def test_single_identity_layer_arithmetic(self):
        net = Network([Layer(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, 1.0]), IDENTITY)])
        assert np.array_equal(forward(net, [1.0, 1.0]), [3.0, 4.0])

    def test_matches_straight_line_oracle(self):
        net = fx.random_network([3, 5, 4, 2], seed=9)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=3)
            assert np.allclose(forward(net, x), straight_forward(net, x), atol=1e-12)
        xs = rng.normal(size=(10, 3))
        batch = forward_batch(net, xs)
        for k in range(10):
            assert np.allclose(batch[k], straight_forward(net, xs[k]), atol=1e-12)

    def test_dimension_mismatch(self):
        net = fx.random_network([3, 2], seed=0)
        with pytest.raises(ValueError):
            forward(net, [1.0, 2.0])


class TestLabeledDataset:
    @pytest.mark.parametrize("name", ["inputs", "targets"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, name, value):
        arrays = {"inputs": np.zeros((4, 2)), "targets": np.eye(4, 3)}
        arrays[name][2, 1] = value
        with pytest.raises(ValueError, match=f"^{name} row 2 is not finite$"):
            LabeledDataset(**arrays)


class TestTrain:
    def test_exact_fit_is_a_fixed_point(self):
        net = Network([Layer(np.array([[1.0]]), np.array([0.0]), IDENTITY)])
        data = LabeledDataset(np.array([[2.0]]), np.array([[2.0]]))
        out = train(net, data, TrainConfig(learning_rate=0.1, batch_size=1, epochs_per_iteration=5, seed=0))
        assert np.array_equal(out.layers[0].weights, net.layers[0].weights)
        assert np.array_equal(out.layers[0].bias, net.layers[0].bias)

    def test_linear_regression_approaches_least_squares(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(60, 2))
        ys = xs @ np.array([[1.5], [-0.5]]) + 0.3 + 0.01 * rng.normal(size=(60, 1))
        data = LabeledDataset(xs, ys)
        net = Network([Layer(np.zeros((1, 2)), np.zeros(1), IDENTITY)])
        cfg = TrainConfig(learning_rate=0.1, batch_size=60, epochs_per_iteration=1, seed=0)
        losses = [mse_loss(net, xs, ys)]
        for _ in range(200):
            net = train(net, data, cfg)
            losses.append(mse_loss(net, xs, ys))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        # closed-form least squares residual (independent oracle)
        design = np.hstack([xs, np.ones((60, 1))])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        best = float(np.mean((design @ coef - ys) ** 2))
        assert best - 1e-12 <= losses[-1] <= 1.05 * best + 1e-12

    def test_gradients_match_central_differences(self):
        net = fx.random_network([3, 4, 2], seed=11)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(8, 3))
        ys = rng.normal(size=(8, 2))
        from relurepair.model import _loss_gradients

        _, grads = _loss_gradients(list(net.layers), xs, ys)
        h = 1e-5
        for k, ly in enumerate(net.layers):
            for r in range(ly.weights.shape[0]):
                for c in range(ly.weights.shape[1]):
                    layers = list(net.layers)
                    wp = ly.weights.copy(); wp[r, c] += h
                    wm = ly.weights.copy(); wm[r, c] -= h
                    layers[k] = Layer(wp, ly.bias, ly.activation)
                    up = mse_loss(Network(layers), xs, ys)
                    layers[k] = Layer(wm, ly.bias, ly.activation)
                    down = mse_loss(Network(layers), xs, ys)
                    fd = (up - down) / (2 * h)
                    an = grads[k][0][r, c]
                    assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

    def test_architecture_preserved(self):
        net = fx.random_network([2, 5, 3], seed=2)
        data = LabeledDataset(np.random.default_rng(0).normal(size=(10, 2)), np.zeros((10, 3)))
        out = train(net, data, TrainConfig(learning_rate=0.01, batch_size=4, epochs_per_iteration=2, seed=1))
        assert out.layer_sizes() == net.layer_sizes()

    def test_seeded_training_is_bit_reproducible(self):
        net = fx.random_network([2, 4, 2], seed=5)
        rng = np.random.default_rng(8)
        data = LabeledDataset(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)))
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs_per_iteration=3, seed=42)
        a = train(net, data, cfg)
        b = train(net, data, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    def test_empty_dataset_rejected(self):
        net = fx.random_network([2, 2], seed=0)
        with pytest.raises(ValueError):
            train(net, LabeledDataset(np.zeros((0, 2)), np.zeros((0, 2))), TrainConfig())

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        # NaN passes a bare `<= 0` test and inf overflows the first step
        with pytest.raises(ValueError, match=f"^learning_rate must be finite and positive, got {lr}$"):
            TrainConfig(learning_rate=lr)


class TestAccuracy:
    def test_self_consistent_dataset_scores_one(self):
        net = fx.random_network([3, 4, 3], seed=6)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(40, 3))
        data = LabeledDataset(xs, forward_batch(net, xs))
        assert accuracy(net, data) == 1.0

    def test_constant_net_on_balanced_labels(self):
        net = Network([Layer(np.zeros((2, 2)), np.array([1.0, 0.0]), IDENTITY)])
        xs = np.random.default_rng(0).normal(size=(100, 2))
        labels = np.array([0, 1] * 50)
        data = LabeledDataset(xs, np.eye(2)[labels])
        assert accuracy(net, data) == 0.5

    def test_matches_loop_and_count_oracle(self):
        net = fx.random_network([2, 5, 3], seed=7)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(50, 2))
        labels = rng.integers(0, 3, size=50)
        data = LabeledDataset(xs, np.eye(3)[labels])
        hits = 0
        for k in range(50):
            out = straight_forward(net, xs[k])
            best = 0
            for j in range(1, 3):
                if out[j] > out[best]:
                    best = j
            hits += int(best == labels[k])
        assert accuracy(net, data) == hits / 50

    def test_permutation_invariant(self):
        net = fx.random_network([2, 4, 2], seed=1)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(30, 2))
        data = LabeledDataset(xs, rng.normal(size=(30, 2)))
        perm = rng.permutation(30)
        shuffled = LabeledDataset(data.inputs[perm], data.targets[perm])
        assert accuracy(net, data) == accuracy(net, shuffled)

    def test_empty_dataset_rejected(self):
        net = fx.random_network([2, 2], seed=0)
        with pytest.raises(ValueError):
            accuracy(net, LabeledDataset(np.zeros((0, 2)), np.zeros((0, 2))))
