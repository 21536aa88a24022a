import itertools

import numpy as np
import pytest

from dcq.errors import ConfigError, ShapeError
from dcq.model import extract_features, init_extractor
from dcq.numerics import Tape, Tensor, finite_difference_check, sum_all


def test_same_seed_is_bit_identical():
    a = init_extractor([8, 16, 4], seed=5)
    b = init_extractor([8, 16, 4], seed=5)
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data), name


def test_different_seed_differs():
    a = init_extractor([8, 16, 4], seed=5)
    b = init_extractor([8, 16, 4], seed=6)
    assert not np.array_equal(a.layers[0].weight.data, b.layers[0].weight.data)


def test_parameter_count_formula():
    # sum over layers of in*out + out, plus one slope per hidden layer
    params = init_extractor([8, 16, 4], seed=0)
    count = sum(t.data.size for _, t in params.named_parameters())
    assert count == 8 * 16 + 16 + 1 + 16 * 4 + 4 == 213


def test_final_layer_has_no_slope():
    params = init_extractor([8, 16, 4], seed=0)
    names = [name for name, _ in params.named_parameters()]
    assert names == ["layer0.weight", "layer0.bias", "layer0.slope", "layer1.weight", "layer1.bias"]
    assert params.layers[-1].slope is None
    assert params.copy().layers[-1].slope is None


def test_biases_zero_and_slopes_quarter_at_init():
    params = init_extractor([6, 5, 3], seed=1)
    for layer in params.layers:
        np.testing.assert_array_equal(layer.bias.data, np.zeros_like(layer.bias.data))
    for layer in params.layers[:-1]:
        assert layer.slope.data == 0.25
        assert layer.slope.shape == ()


def test_invalid_dims_rejected():
    with pytest.raises(ConfigError):
        init_extractor([8, 4], seed=0)  # no hidden layer
    with pytest.raises(ConfigError):
        init_extractor([8, 16, 1], seed=0)  # embedding too narrow
    with pytest.raises(ConfigError):
        init_extractor([8, 0, 4], seed=0)


def test_output_shape():
    params = init_extractor([8, 16, 4], seed=0)
    for batch in (1, 3, 17):
        out = extract_features(params, Tensor(np.zeros((batch, 8))))
        assert out.shape == (batch, 4)


def test_input_width_mismatch():
    params = init_extractor([8, 16, 4], seed=0)
    with pytest.raises(ShapeError):
        extract_features(params, Tensor(np.zeros((2, 7))))


def test_forward_deterministic():
    params = init_extractor([8, 16, 4], seed=3)
    x = Tensor(np.random.default_rng(0).standard_normal((5, 8)))
    a = extract_features(params, x).data
    b = extract_features(params, x).data
    np.testing.assert_array_equal(a, b)


def test_local_linearity_on_positive_region():
    # zero biases + inputs constructed to keep every preactivation positive:
    # doubling the input doubles the embedding
    params = init_extractor([4, 6, 3], seed=2)
    rng = np.random.default_rng(4)
    # positive inputs against non-negative hidden weights keep every
    # preactivation in the PReLU's identity region
    params.layers[0].weight.data[...] = np.abs(params.layers[0].weight.data)
    x = np.abs(rng.standard_normal((1, 4)))
    h = extract_features(params, Tensor(x)).data
    h2 = extract_features(params, Tensor(2 * x)).data
    np.testing.assert_allclose(h2, 2 * h, rtol=1e-12)


def test_gradients_match_finite_differences():
    params = init_extractor([5, 6, 4], seed=7)
    rng = np.random.default_rng(8)
    # move off the zero-bias init so no degenerate invariances hide errors
    for layer in params.layers:
        layer.bias.data += 0.3 * rng.standard_normal(layer.bias.data.shape)
    x = Tensor(rng.standard_normal((3, 5)))
    probe = Tensor(rng.standard_normal((3, 4)))

    def fn(tape):
        from dcq.numerics import rowwise_dot

        return sum_all(rowwise_dot(extract_features(params, x, tape), probe, tape), tape)

    leaves = [p for _, p in params.named_parameters()]
    assert finite_difference_check(fn, leaves) < 1e-5


class TestFlatLayout:
    def test_parameters_are_views_of_one_buffer(self):
        params = init_extractor([8, 16, 12, 4], seed=0)
        assert params.flat.dtype == np.float64 and params.flat.flags["C_CONTIGUOUS"]
        named = params.named_parameters()
        assert sum(p.data.size for _, p in named) == params.flat.size
        for name, p in named:
            assert np.shares_memory(p.data, params.flat), name
        for (name_a, a), (name_b, b) in itertools.combinations(named, 2):
            assert not np.shares_memory(a.data, b.data), (name_a, name_b)

    def test_weights_lead_and_biases_and_slopes_form_the_exempt_tail(self):
        params = init_extractor([8, 16, 12, 4], seed=0)
        weights, tail = params.flat[: params.n_decayed], params.flat[params.n_decayed :]
        assert params.n_decayed == 8 * 16 + 16 * 12 + 12 * 4
        for name, p in params.named_parameters():
            exempt = name.endswith((".bias", ".slope"))
            assert np.shares_memory(p.data, tail) == exempt, name
            assert np.shares_memory(p.data, weights) != exempt, name

    def test_copy_shares_no_memory(self):
        params = init_extractor([8, 16, 4], seed=0)
        dup = params.copy()
        assert not np.shares_memory(dup.flat, params.flat)
        np.testing.assert_array_equal(dup.flat, params.flat)
        for (name, a), (_, b) in zip(dup.named_parameters(), params.named_parameters()):
            assert np.shares_memory(a.data, dup.flat), name
            assert not np.shares_memory(a.data, params.flat), name
            assert not a.requires_grad and b.requires_grad

    def test_views_and_gather_follow_the_layout(self):
        params = init_extractor([8, 16, 4], seed=0)
        buf = np.arange(params.flat.size, dtype=np.float64)
        for (name, view), (_, p) in zip(params.views(buf), params.named_parameters()):
            assert np.shares_memory(view, buf) and view.shape == p.shape, name
        np.testing.assert_array_equal(params.gather(lambda p: p.data), params.flat)
        with pytest.raises(ShapeError):
            params.views(buf[:-1])


def test_extract_features_records_one_tape_node_per_layer():
    for dims in ([8, 16, 4], [5, 6, 7, 3]):
        params = init_extractor(dims, seed=0)
        tape = Tape()
        extract_features(params, Tensor(np.ones((3, dims[0]))), tape)
        assert len(tape._nodes) == len(params.layers)
