import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamedit.errors import InvalidRequestError, ShapeError
from lamedit.model import (
    ACTIVATIONS,
    LN_EPS,
    NORMS,
    LamLayer,
    HiddenTrace,
    ToyModel,
    compute_key,
    compute_target_values,
    default_layer,
    forward,
    forward_batch,
    keys_and_targets,
    predict,
    predict_batch,
    _normalize,
)


def oracle_forward(model, x):
    """Straight-line reimplementation of the residual stack, loop per layer."""
    h = np.array(x, dtype=float)
    hidden = [h.copy()]
    keys = []
    for layer in model.layers:
        v = h.copy()
        if model.norm == "layernorm":
            v = (v - v.mean()) / np.sqrt(v.var() + LN_EPS)
        v = v * layer.norm_scale + layer.norm_bias
        pre = layer.w_in @ v
        k = np.maximum(pre, 0.0) if model.activation == "relu" else pre
        h = h + layer.w_out @ k
        hidden.append(h.copy())
        keys.append(k)
    return np.array(hidden), np.array(keys)


def random_model(rng, d=8, h=12, n_layers=3, vocab=10, edit_layers=(2, 3), **kwargs):
    layers = tuple(
        default_layer(
            rng.standard_normal((h, d)) / np.sqrt(d),
            rng.standard_normal((d, h)) * 0.2,
        )
        for _ in range(n_layers)
    )
    codebook = rng.standard_normal((d, vocab))
    codebook /= np.linalg.norm(codebook, axis=0)
    return ToyModel(layers=layers, codebook=codebook, edit_layers=edit_layers, **kwargs)


def zero_model(d=4, h=6, n_layers=2, vocab=5):
    layers = tuple(default_layer(np.zeros((h, d)), np.zeros((d, h))) for _ in range(n_layers))
    codebook = np.zeros((d, vocab))
    for j in range(vocab):
        codebook[j % d, j] = 1.0
    return ToyModel(layers=layers, codebook=codebook, edit_layers=(1,))


class TestForward:
    def test_zero_weights_identity_residual(self):
        model = zero_model()
        x = np.array([0.3, -1.2, 0.7, 2.0])
        trace = forward(model, x)
        assert np.array_equal(trace.final, x)
        assert np.array_equal(trace.keys, np.zeros((2, 6)))

    def test_hand_example_identity_activation_and_norm(self):
        layer = default_layer(np.eye(2), np.eye(2))
        codebook = np.eye(2)
        model = ToyModel(
            layers=(layer,), codebook=codebook, edit_layers=(1,),
            activation="identity", norm="identity",
        )
        trace = forward(model, np.array([1.0, 0.0]))
        assert np.allclose(trace.key(1), [1.0, 0.0])
        assert np.allclose(trace.hidden[1], [2.0, 0.0])

    def test_matches_oracle_reimplementation(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            model = random_model(rng)
            x = rng.standard_normal(8)
            trace = forward(model, x)
            hidden, keys = oracle_forward(model, x)
            scale = np.linalg.norm(hidden[-1])
            assert np.linalg.norm(trace.final - hidden[-1]) <= 1e-6 * scale
            assert np.allclose(trace.hidden, hidden, atol=1e-12)
            assert np.allclose(trace.keys, keys, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        model = zero_model()
        with pytest.raises(ShapeError):
            forward(model, np.zeros(5))
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros((5, 3)))

    def test_residual_additivity(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            model = random_model(rng)
            x = rng.standard_normal(8)
            trace = forward(model, x)
            acc = x.copy()
            for l in range(1, model.n_layers + 1):
                acc = acc + model.layer(l).w_out @ trace.key(l)
            assert np.max(np.abs(acc - trace.final)) <= 1e-10


    def test_normalize_bit_identical_to_numpy_var(self):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        states = rng.standard_normal((8, 257)) * 3.0 + 1.5
        mean = states.mean(axis=0, keepdims=True)
        reference = (states - mean) / np.sqrt(states.var(axis=0, keepdims=True) + LN_EPS)
        assert np.array_equal(_normalize(model, states), reference)


class TestComputeKey:
    def test_consistency_with_trace(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        x = rng.standard_normal(8)
        trace = forward(model, x)
        for l in range(1, model.n_layers + 1):
            key = compute_key(model, l, trace.hidden[l - 1])
            assert np.array_equal(key, trace.key(l))

    def test_relu_gate(self):
        w_in = np.array([[1.0, -1.0], [0.0, 1.0]])
        layer = default_layer(w_in, np.zeros((2, 2)))
        model = ToyModel(
            layers=(layer,), codebook=np.eye(2), edit_layers=(1,), norm="identity",
        )
        key = compute_key(model, 1, np.array([0.3, 0.5]))
        assert key[0] == 0.0  # max(0, 0.3 - 0.5)
        assert key[1] == 0.5

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        h_prev = rng.standard_normal(8)
        _, keys = oracle_forward(model, h_prev)
        key = compute_key(model, 1, h_prev)
        assert np.linalg.norm(key - keys[0]) <= 1e-6 * max(np.linalg.norm(keys[0]), 1e-12)

    def test_index_out_of_range(self):
        model = zero_model()
        with pytest.raises(IndexError):
            compute_key(model, 3, np.zeros(4))
        with pytest.raises(IndexError):
            compute_key(model, 0, np.zeros(4))


class TestPredict:
    def test_exact_codebook_column(self):
        model = zero_model()
        assert predict(model, model.codebook[:, 3].copy()) == 3

    def test_orthogonal_to_all_but_first(self):
        model = zero_model()
        assert predict(model, model.codebook[:, 0].copy()) == 0

    def test_matches_bruteforce_argmax(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, vocab=17)
        for trial in range(10):
            x = rng.standard_normal(8)
            trace = forward(model, x)
            scores = [float(model.codebook[:, j] @ trace.final) for j in range(17)]
            best, best_j = -np.inf, 0
            for j, s in enumerate(scores):
                if s > best:
                    best, best_j = s, j
            assert predict(model, x) == best_j

    def test_tie_breaks_to_lowest_index(self):
        d, vocab = 4, 5
        codebook = np.zeros((d, vocab))
        codebook[0, :] = 1.0  # all columns identical
        layers = (default_layer(np.zeros((6, d)), np.zeros((d, 6))),)
        model = ToyModel(layers=layers, codebook=codebook, edit_layers=(1,))
        assert predict(model, np.array([1.0, 0, 0, 0])) == 0

    def test_invariant_to_positive_rescaling(self):
        model = zero_model()
        x = np.array([0.4, -0.2, 0.9, 0.1])
        assert predict(model, x) == predict(model, 3.7 * x)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        inputs = rng.standard_normal((8, 6))
        batch = predict_batch(model, inputs)
        singles = [predict(model, inputs[:, i]) for i in range(6)]
        assert list(batch) == singles


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        norm=st.sampled_from(NORMS),
        activation=st.sampled_from(ACTIVATIONS),
    )
    def test_final_state_forward_equals_traced_forward(self, seed, n, norm, activation):
        rng = np.random.default_rng(seed)
        model = random_model(rng, vocab=23, norm=norm, activation=activation)
        inputs = rng.standard_normal((8, n))
        hidden, _ = forward_batch(model, inputs)
        expected = np.argmax(model.codebook.T @ hidden[-1], axis=0)
        assert np.array_equal(predict_batch(model, inputs), expected)

    def test_batch_checks_inputs(self):
        model = zero_model()
        with pytest.raises(ShapeError):
            predict_batch(model, np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            predict_batch(model, np.full((4, 2), np.nan))


class TestComputeTargetValues:
    def test_single_edit_layer_full_residual(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, edit_layers=(2,))
        inputs = rng.standard_normal((8, 3))
        tokens = np.array([1, 4, 2])
        hidden, keys = forward_batch(model, inputs)
        targets = compute_target_values(model, inputs, tokens, 2)
        current = model.layer(2).w_out @ keys[1]
        residual = model.codebook[:, tokens] - hidden[-1]
        assert np.allclose(targets, current + residual, atol=1e-12)

    def test_zero_residual_noop(self):
        model = zero_model()
        token = 2
        x = model.codebook[:, token].copy()  # h_final == codebook column exactly
        targets = compute_target_values(model, x[:, None], np.array([token]), 1)
        current = model.layer(1).w_out @ forward(model, x).key(1)
        assert np.array_equal(targets[:, 0], current)

    def test_two_layer_split_shares(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, n_layers=4, edit_layers=(2, 3))
        inputs = rng.standard_normal((8, 2))
        tokens = np.array([0, 3])
        hidden, keys = forward_batch(model, inputs)
        residual = model.codebook[:, tokens] - hidden[-1]
        t2 = compute_target_values(model, inputs, tokens, 2)
        current2 = model.layer(2).w_out @ keys[1]
        assert np.allclose(t2 - current2, residual / 2, atol=1e-12)
        t3 = compute_target_values(model, inputs, tokens, 3)
        current3 = model.layer(3).w_out @ keys[2]
        assert np.allclose(t3 - current3, residual, atol=1e-12)

    def test_end_to_end_recompute_hits_target(self):
        # Solve both edit layers bottom-to-top with a near-zero ridge and no
        # constraints; the final state must land on the target column.
        from lamedit.solvers import solve_memit

        rng = np.random.default_rng(8)
        model = random_model(rng, d=6, h=10, n_layers=3, vocab=8, edit_layers=(2, 3))
        x = rng.standard_normal(6)
        token = np.array([5])
        current = model
        for layer in current.edit_layers:
            targets = compute_target_values(current, x[:, None], token, layer)
            key = compute_key(current, layer, forward(current, x).hidden[layer - 1])[:, None]
            dm = solve_memit(
                current.layer(layer).w_out, key, targets,
                np.eye(10), key @ key.T, 1e-9,
            )
            current = current.with_w_out(layer, current.layer(layer).w_out + dm.delta)
        final = forward(current, x).final
        assert np.linalg.norm(final - current.codebook[:, 5]) <= 1e-5

    def test_keys_and_targets_from_one_forward(self):
        # The keys are the layer's forward keys and the targets equal
        # compute_target_values, bit for bit.
        rng = np.random.default_rng(9)
        model = random_model(rng, n_layers=4, edit_layers=(2, 3))
        inputs = rng.standard_normal((8, 5))
        tokens = np.array([0, 3, 1, 1, 6])
        _, keys = forward_batch(model, inputs)
        for layer in model.edit_layers:
            layer_keys, targets = keys_and_targets(model, inputs, tokens, layer)
            assert np.array_equal(layer_keys, keys[layer - 1])
            assert np.array_equal(targets, compute_target_values(model, inputs, tokens, layer))

    def test_unknown_token_rejected(self):
        model = zero_model()
        with pytest.raises(InvalidRequestError):
            compute_target_values(model, np.zeros((4, 1)), np.array([99]), 1)

    def test_non_edit_layer_rejected(self):
        model = zero_model()
        with pytest.raises(ShapeError):
            compute_target_values(model, np.zeros((4, 1)), np.array([0]), 2)


class TestValidation:
    def test_layer_shape_rules(self):
        with pytest.raises(ShapeError):
            LamLayer(np.zeros((2, 4)), np.zeros((4, 2)), np.zeros(4), np.zeros(4))  # h < d
        with pytest.raises(ShapeError):
            default_layer(np.zeros((6, 4)), np.zeros((4, 5)))  # w_out mismatch
        with pytest.raises(ShapeError):
            default_layer(np.full((6, 4), np.nan), np.zeros((4, 6)))

    def test_model_rules(self):
        layer = default_layer(np.zeros((6, 4)), np.zeros((4, 6)))
        good_cb = np.eye(4)
        with pytest.raises(ShapeError):
            ToyModel(layers=(layer,), codebook=2 * good_cb, edit_layers=(1,))
        with pytest.raises(ShapeError):
            ToyModel(layers=(layer,), codebook=good_cb, edit_layers=())
        with pytest.raises(ShapeError):
            ToyModel(layers=(layer,), codebook=good_cb, edit_layers=(1, 1))
        with pytest.raises(ShapeError):
            ToyModel(layers=(layer,), codebook=good_cb, edit_layers=(2,))

    def test_trace_length_rule(self):
        with pytest.raises(ShapeError):
            HiddenTrace(hidden=np.zeros((3, 4)), keys=np.zeros((3, 6)))
