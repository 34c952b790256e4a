import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamedit import container, model as model_module
from lamedit.covariance import preserved_keys
from lamedit.errors import InvalidRequestError, ShapeError
from lamedit.model import (
    LN_EPS,
    PREDICT_BLOCK,
    LamLayer,
    Prefix,
    ToyModel,
    compute_prefix,
    forward_batch,
    keys_and_targets,
    keys_and_targets_stack,
    keys_at,
    predict_batch,
    predict_stack,
    stack_width,
    _normalize,
    _run_prefix,
    _stack_weights,
    _walk,
    _weights,
)


def oracle_forward(model, x):
    """Straight-line reimplementation of the residual stack, loop per layer."""
    h = np.array(x, dtype=float)
    hidden = [h.copy()]
    keys = []
    for layer in model.layers:
        v = (h - h.mean()) / np.sqrt(h.var() + LN_EPS)
        k = np.maximum(layer.w_in @ v, 0.0)
        h = h + layer.w_out @ k
        hidden.append(h.copy())
        keys.append(k)
    return np.array(hidden), np.array(keys)


def random_model(rng, d=8, h=12, n_layers=3, vocab=10, edit_layers=(2, 3)):
    layers = tuple(
        LamLayer(
            rng.standard_normal((h, d)) / np.sqrt(d),
            rng.standard_normal((d, h)) * 0.2,
        )
        for _ in range(n_layers)
    )
    codebook = rng.standard_normal((d, vocab))
    codebook /= np.linalg.norm(codebook, axis=0)
    return ToyModel(layers=layers, codebook=codebook, edit_layers=edit_layers)


def zero_model(d=4, h=6, n_layers=2, vocab=5):
    layers = tuple(LamLayer(np.zeros((h, d)), np.zeros((d, h))) for _ in range(n_layers))
    codebook = np.zeros((d, vocab))
    for j in range(vocab):
        codebook[j % d, j] = 1.0
    return ToyModel(layers=layers, codebook=codebook, edit_layers=(1,))


def forward_one(model, x):
    """``forward_batch`` on the one-column batch of ``x``: hidden (L+1, d) and keys (L, h)."""
    hidden, keys = forward_batch(model, np.asarray(x, dtype=float)[:, None])
    return hidden[:, :, 0], keys[:, :, 0]


def run_prefix(model, prefix, key_layer):
    """``model``'s final state on the prefix's batch and its keys at ``key_layer``, from the walk."""
    return _run_prefix(_stack_weights((model,), prefix), prefix, key_layer)


def predict_one(model, x):
    """``predict_batch`` on the one-column batch of ``x``."""
    return int(predict_batch(model, compute_prefix(model, np.asarray(x, dtype=float)[:, None]))[0])


def targets_one(model, x, token, layer):
    """The targets of ``keys_and_targets`` on the one-column batch of ``x``, as a vector."""
    prefix = compute_prefix(model, np.asarray(x, dtype=float)[:, None])
    return keys_and_targets(model, prefix, np.array([token]), layer)[1][:, 0]


class TestForward:
    def test_zero_weights_identity_residual(self):
        model = zero_model()
        x = np.array([0.3, -1.2, 0.7, 2.0])
        hidden, keys = forward_one(model, x)
        assert np.array_equal(hidden[-1], x)
        assert np.array_equal(keys, np.zeros((2, 6)))

    def test_hand_example_relu_layernorm(self):
        # layernorm([1, 0]) = [1, -1] / sqrt(1 + 4 eps); the ReLU drops the -1.
        layer = LamLayer(np.eye(2), np.eye(2))
        model = ToyModel(layers=(layer,), codebook=np.eye(2), edit_layers=(1,))
        hidden, keys = forward_one(model, np.array([1.0, 0.0]))
        unit = 1.0 / np.sqrt(1.0 + 4 * LN_EPS)
        assert np.allclose(keys[0], [unit, 0.0], rtol=1e-15, atol=0)
        assert np.allclose(hidden[1], [1.0 + unit, 0.0], rtol=1e-15, atol=0)

    def test_matches_oracle_reimplementation(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            model = random_model(rng)
            x = rng.standard_normal(8)
            got_hidden, got_keys = forward_one(model, x)
            hidden, keys = oracle_forward(model, x)
            scale = np.linalg.norm(hidden[-1])
            assert np.linalg.norm(got_hidden[-1] - hidden[-1]) <= 1e-6 * scale
            assert np.allclose(got_hidden, hidden, atol=1e-12)
            assert np.allclose(got_keys, keys, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        model = zero_model()
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros(4))
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros((5, 1)))
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros((5, 3)))

    def test_residual_additivity(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            model = random_model(rng)
            x = rng.standard_normal(8)
            hidden, keys = forward_one(model, x)
            acc = x.copy()
            for l in range(1, model.n_layers + 1):
                acc = acc + model.layer(l).w_out @ keys[l - 1]
            assert np.max(np.abs(acc - hidden[-1])) <= 1e-10


    def test_normalize_bit_identical_to_numpy_var(self):
        rng = np.random.default_rng(8)
        states = rng.standard_normal((8, 257)) * 3.0 + 1.5
        mean = states.mean(axis=0, keepdims=True)
        reference = (states - mean) / np.sqrt(states.var(axis=0, keepdims=True) + LN_EPS)
        assert np.array_equal(_normalize(states), reference)


class TestComputeKey:
    def test_consistency_with_trace(self):
        # The keys the edit path reads (the prefix's at the first edit layer,
        # keys_and_targets' at every edit layer) are the trace's, bit for bit.
        rng = np.random.default_rng(2)
        model = random_model(rng)
        x = rng.standard_normal(8)
        hidden, keys = forward_one(model, x)
        prefix = compute_prefix(model, x[:, None])
        first = model.edit_layers[0]
        assert np.array_equal(prefix.state[:, 0], hidden[first - 1])
        assert np.array_equal(prefix.key[:, 0], keys[first - 1])
        for l in model.edit_layers:
            key, _ = keys_and_targets(model, prefix, np.array([0]), l)
            assert np.array_equal(key[:, 0], keys[l - 1])

    def test_relu_gate(self):
        # layernorm([0.3, 0.5]) = [-u, u] with u = 0.1 / sqrt(0.01 + eps).
        w_in = np.array([[1.0, -1.0], [0.0, 1.0]])
        layer = LamLayer(w_in, np.zeros((2, 2)))
        model = ToyModel(layers=(layer,), codebook=np.eye(2), edit_layers=(1,))
        _, keys = forward_one(model, np.array([0.3, 0.5]))
        key = keys[0]
        assert key[0] == 0.0  # max(0, -u - u)
        assert np.isclose(key[1], 0.1 / np.sqrt(0.01 + LN_EPS), rtol=1e-12, atol=0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        h_prev = rng.standard_normal(8)
        _, keys = oracle_forward(model, h_prev)
        key = forward_one(model, h_prev)[1][0]
        assert np.linalg.norm(key - keys[0]) <= 1e-6 * max(np.linalg.norm(keys[0]), 1e-12)

    def test_index_out_of_range(self):
        model = zero_model()
        with pytest.raises(IndexError):
            model.layer(3)
        with pytest.raises(IndexError):
            model.layer(0)


class TestPredict:
    def test_exact_codebook_column(self):
        model = zero_model()
        assert predict_one(model, model.codebook[:, 3]) == 3

    def test_orthogonal_to_all_but_first(self):
        model = zero_model()
        assert predict_one(model, model.codebook[:, 0]) == 0

    def test_matches_bruteforce_argmax(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, vocab=17)
        for trial in range(10):
            x = rng.standard_normal(8)
            final = forward_one(model, x)[0][-1]
            scores = [float(model.codebook[:, j] @ final) for j in range(17)]
            best, best_j = -np.inf, 0
            for j, s in enumerate(scores):
                if s > best:
                    best, best_j = s, j
            assert predict_one(model, x) == best_j

    def test_tie_breaks_to_lowest_index(self):
        d, vocab = 4, 5
        codebook = np.zeros((d, vocab))
        codebook[0, :] = 1.0  # all columns identical
        layers = (LamLayer(np.zeros((6, d)), np.zeros((d, 6))),)
        model = ToyModel(layers=layers, codebook=codebook, edit_layers=(1,))
        assert predict_one(model, np.array([1.0, 0, 0, 0])) == 0

    def test_invariant_to_positive_rescaling(self):
        model = zero_model()
        x = np.array([0.4, -0.2, 0.9, 0.1])
        assert predict_one(model, x) == predict_one(model, 3.7 * x)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        inputs = rng.standard_normal((8, 6))
        batch = predict_batch(model, compute_prefix(model, inputs))
        singles = [predict_one(model, inputs[:, i]) for i in range(6)]
        assert list(batch) == singles


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
    )
    def test_final_state_forward_equals_traced_forward(self, seed, n):
        rng = np.random.default_rng(seed)
        model = random_model(rng, vocab=23)
        inputs = rng.standard_normal((8, n))
        hidden, _ = forward_batch(model, inputs)
        expected = np.argmax(model.codebook.T @ hidden[-1], axis=0)
        assert np.array_equal(predict_batch(model, compute_prefix(model, inputs)), expected)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 1600).filter(lambda n: n % PREDICT_BLOCK),
    )
    @example(seed=1, n=1)
    @example(seed=2, n=511)
    @example(seed=3, n=513)
    @example(seed=4, n=3072)
    def test_blocked_prediction_equals_the_whole_batch_argmax(self, seed, n):
        rng = np.random.default_rng(seed)
        model = random_model(rng, vocab=23)
        prefix = compute_prefix(model, rng.standard_normal((8, n)))
        state, _ = run_prefix(model, prefix, None)
        expected = np.argmax(state.T @ model.codebook, axis=1)
        assert np.array_equal(predict_batch(model, prefix), expected)

    @pytest.mark.parametrize("n", [513, 514, 516, 517, 521, 1030, 1543, 2047, 2500, 2561, 3071])
    def test_ragged_blocks_give_the_whole_batch_bits(self, monkeypatch, n):
        # A tail shorter than a block rides in the last block.  Run as its own
        # narrower product, it took other OpenBLAS kernels or column grouping,
        # and its final states other last bits, than the whole batch.
        rng = np.random.default_rng(n)
        model = random_model(rng, d=32, h=64, n_layers=4, vocab=64)
        inputs = rng.standard_normal((32, n))
        prefix = compute_prefix(model, inputs)
        states = []

        def watched(*args):
            state, keys = _run_prefix(*args)
            states.append(state)
            return state, keys

        monkeypatch.setattr(model_module, "_run_prefix", watched)
        predictions = predict_batch(model, prefix)
        whole, _ = run_prefix(model, prefix, None)
        hidden, _ = forward_batch(model, inputs)
        assert np.array_equal(np.hstack(states), whole)
        assert np.array_equal(whole, hidden[-1])
        scores = np.vstack([state.T @ model.codebook for state in states])
        assert np.array_equal(scores, whole.T @ model.codebook)
        assert np.array_equal(predictions, np.argmax(scores, axis=1))

    def test_batch_checks_inputs(self):
        # A batch reaches predict_batch through its prefix, which checks the inputs.
        model = zero_model()
        with pytest.raises(ShapeError):
            compute_prefix(model, np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            compute_prefix(model, np.full((4, 2), np.nan))


class TestComputeTargetValues:
    def test_single_edit_layer_full_residual(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, edit_layers=(2,))
        inputs = rng.standard_normal((8, 3))
        tokens = np.array([1, 4, 2])
        hidden, keys = forward_batch(model, inputs)
        _, targets = keys_and_targets(model, compute_prefix(model, inputs), tokens, 2)
        current = model.layer(2).w_out @ keys[1]
        residual = model.codebook[:, tokens] - hidden[-1]
        assert np.allclose(targets, current + residual, atol=1e-12)

    def test_zero_residual_noop(self):
        model = zero_model()
        token = 2
        x = model.codebook[:, token].copy()  # h_final == codebook column exactly
        targets = targets_one(model, x, token, 1)
        current = model.layer(1).w_out @ forward_one(model, x)[1][0]
        assert np.array_equal(targets, current)

    def test_two_layer_split_shares(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, n_layers=4, edit_layers=(2, 3))
        inputs = rng.standard_normal((8, 2))
        tokens = np.array([0, 3])
        hidden, keys = forward_batch(model, inputs)
        residual = model.codebook[:, tokens] - hidden[-1]
        prefix = compute_prefix(model, inputs)
        _, t2 = keys_and_targets(model, prefix, tokens, 2)
        current2 = model.layer(2).w_out @ keys[1]
        assert np.allclose(t2 - current2, residual / 2, atol=1e-12)
        _, t3 = keys_and_targets(model, prefix, tokens, 3)
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
        prefix = compute_prefix(model, x[:, None])
        current = model
        for layer in current.edit_layers:
            key, targets = keys_and_targets(current, prefix, token, layer)
            delta = solve_memit(
                current.layer(layer).w_out, key, targets,
                np.eye(10), key @ key.T, 1e-9,
            )
            current = current.with_w_out(layer, current.layer(layer).w_out + delta)
        final = forward_one(current, x)[0][-1]
        assert np.linalg.norm(final - current.codebook[:, 5]) <= 1e-5

    def test_keys_and_targets_from_one_forward(self):
        # The keys are the layer's forward keys, and the targets of each
        # column equal those of its one-column batch.
        rng = np.random.default_rng(9)
        model = random_model(rng, n_layers=4, edit_layers=(2, 3))
        inputs = rng.standard_normal((8, 5))
        tokens = np.array([0, 3, 1, 1, 6])
        _, keys = forward_batch(model, inputs)
        prefix = compute_prefix(model, inputs)
        for layer in model.edit_layers:
            layer_keys, targets = keys_and_targets(model, prefix, tokens, layer)
            assert np.array_equal(layer_keys, keys[layer - 1])
            for i in range(inputs.shape[1]):
                single = targets_one(model, inputs[:, i], tokens[i], layer)
                assert np.allclose(targets[:, i], single, rtol=1e-12, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        n_layers=st.integers(1, 5),
        data=st.data(),
    )
    def test_prefix_run_equals_full_forward(self, seed, n, n_layers, data):
        # The edit path never runs a full forward: it runs on from a prefix
        # computed once on the unedited model.  On that model and on any model
        # edited from it, each edit layer's keys and the final state must be
        # forward_batch's bits.
        edit_layers = tuple(
            sorted(data.draw(st.sets(st.integers(1, n_layers), min_size=1), label="edit_layers"))
        )
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_layers=n_layers, edit_layers=edit_layers)
        inputs = rng.standard_normal((8, n)) * 2.0
        tokens = rng.integers(0, model.vocab_size, size=n)
        prefix = compute_prefix(model, inputs)
        edited = model
        for l in edit_layers:
            edited = edited.with_w_out(l, edited.layer(l).w_out + 0.1 * rng.standard_normal((8, 12)))
        for current in (model, edited):
            hidden, keys = forward_batch(current, inputs)
            for l in edit_layers:
                final, run_keys = run_prefix(current, prefix, l)
                assert np.array_equal(final, hidden[-1])
                assert np.array_equal(run_keys, keys[l - 1])
                assert np.array_equal(keys_and_targets(current, prefix, tokens, l)[0], keys[l - 1])

    def test_prefix_column_count_must_match_tokens(self):
        model = zero_model()
        with pytest.raises(ShapeError):
            keys_and_targets(model, compute_prefix(model, np.zeros((4, 2))), np.array([0]), 1)

    def test_unknown_token_rejected(self):
        model = zero_model()
        with pytest.raises(InvalidRequestError):
            keys_and_targets(model, compute_prefix(model, np.zeros((4, 1))), np.array([99]), 1)

    def test_non_edit_layer_rejected(self):
        model = zero_model()
        with pytest.raises(ShapeError):
            keys_and_targets(model, compute_prefix(model, np.zeros((4, 1))), np.array([0]), 2)


class TestValidation:
    def test_layer_shape_rules(self):
        with pytest.raises(ShapeError):
            LamLayer(np.zeros((2, 4)), np.zeros((4, 2)))  # h < d
        with pytest.raises(ShapeError):
            LamLayer(np.zeros((6, 4)), np.zeros((4, 5)))  # w_out mismatch
        with pytest.raises(ShapeError):
            LamLayer(np.full((6, 4), np.nan), np.zeros((4, 6)))

    def test_model_rules(self):
        layer = LamLayer(np.zeros((6, 4)), np.zeros((4, 6)))
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
        # A trace holds L+1 hidden states (the input first) and L keys.
        rng = np.random.default_rng(10)
        model = random_model(rng)
        hidden, keys = forward_batch(model, rng.standard_normal((8, 2)))
        assert hidden.shape == (model.n_layers + 1, 8, 2)
        assert keys.shape == (model.n_layers, 12, 2)


def _edit_layers(data, n_layers):
    return tuple(sorted(data.draw(st.sets(st.integers(1, n_layers), min_size=1), label="edit_layers")))


class TestKeysAt:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        n_layers=st.integers(1, 5),
        data=st.data(),
    )
    def test_one_walk_gives_the_traced_keys(self, seed, n, n_layers, data):
        layers = _edit_layers(data, n_layers)
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_layers=n_layers, edit_layers=layers)
        inputs = rng.standard_normal((8, n)) * 2.0
        _, keys = forward_batch(model, inputs)
        walked = keys_at(model, inputs, layers)
        assert sorted(walked) == list(layers)
        for l in layers:
            assert np.array_equal(walked[l], keys[l - 1])
        preserved = preserved_keys(model, inputs, layers)
        assert all(np.array_equal(preserved[l], keys[l - 1]) for l in layers)


def _arrays(model):
    """Every array ``model`` holds, by name."""
    arrays = {"codebook": model.codebook}
    for l, layer in enumerate(model.layers, start=1):
        arrays[f"w_in{l}"] = layer.w_in
        arrays[f"w_out{l}"] = layer.w_out
    return arrays


class TestNoWrites:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        n_layers=st.integers(1, 4),
        data=st.data(),
    )
    def test_forward_helpers_never_write_into_their_inputs(self, seed, n, n_layers, data):
        # The forward helpers reuse their own temporaries in place; none of
        # them may reach an array it was given.
        edit_layers = _edit_layers(data, n_layers)
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_layers=n_layers, edit_layers=edit_layers)
        inputs = rng.standard_normal((8, n))
        tokens = rng.integers(0, model.vocab_size, size=n)
        prefix = compute_prefix(model, inputs)
        first = edit_layers[0]
        edited = model.with_w_out(first, model.layer(first).w_out + 0.1 * rng.standard_normal((8, 12)))
        watched = {
            "inputs": inputs,
            "state": prefix.state,
            "key": prefix.key,
            **{("base", name): a for name, a in _arrays(model).items()},
            **{("edited", name): a for name, a in _arrays(edited).items()},
        }
        before = {name: array.copy() for name, array in watched.items()}
        calls = [
            lambda: _walk(_weights((model,), range(1, n_layers + 1)), inputs, edit_layers),
            lambda: compute_prefix(model, inputs),
            lambda: keys_at(model, inputs, edit_layers),
            lambda: preserved_keys(model, inputs, edit_layers),
            lambda: predict_batch(edited, prefix),
            *(lambda l=l: run_prefix(edited, prefix, l) for l in (None, *edit_layers)),
            *(lambda l=l: keys_and_targets(edited, prefix, tokens, l) for l in edit_layers),
        ]
        for call in calls:
            call()
            for name, array in watched.items():
                assert np.array_equal(array, before[name]), name


class TestWithWOut:
    def test_rejects_a_misshapen_or_non_finite_matrix(self):
        model = random_model(np.random.default_rng(20))
        w_out = model.layer(2).w_out
        non_finite = w_out.copy()
        non_finite[3, 4] = np.inf
        for bad in (w_out[:, :-1], w_out.T, w_out[0], np.full_like(w_out, np.nan), non_finite):
            with pytest.raises(ShapeError):
                model.with_w_out(2, bad)
        with pytest.raises(IndexError):
            model.with_w_out(4, w_out)

    def test_shares_every_checked_array(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        original = model.layer(2).w_out.copy()
        new = original + 0.5
        edited = model.with_w_out(2, new)
        assert edited.layer(2).w_out is new
        assert edited.codebook is model.codebook
        assert edited.edit_layers == model.edit_layers
        assert all(edited.layer(l).w_in is model.layer(l).w_in for l in (1, 2, 3))
        assert edited.layer(1) is model.layer(1) and edited.layer(3) is model.layer(3)
        assert np.array_equal(model.layer(2).w_out, original)
        # The identities the prefix cache relies on hold.
        compute_prefix(model, rng.standard_normal((8, 3))).check(edited)
        # A list, or an integer matrix, comes in as floats.
        assert edited.with_w_out(2, np.ones((8, 12), dtype=int)).layer(2).w_out.dtype == float
        assert edited.with_w_out(2, original.tolist()).layer(2).w_out.dtype == float

    def test_saves_the_bytes_of_a_constructed_model(self, tmp_path):
        rng = np.random.default_rng(22)
        model = random_model(rng)
        new = {2: rng.standard_normal((8, 12)), 3: rng.standard_normal((8, 12))}
        edited = model
        for l, w_out in new.items():
            edited = edited.with_w_out(l, w_out)
        built = ToyModel(
            layers=tuple(
                LamLayer(layer.w_in, new.get(l, layer.w_out)) for l, layer in enumerate(model.layers, start=1)
            ),
            codebook=model.codebook,
            edit_layers=model.edit_layers,
        )
        container.save_model(tmp_path / "edited.lam", edited)
        container.save_model(tmp_path / "built.lam", built)
        assert (tmp_path / "edited.lam").read_bytes() == (tmp_path / "built.lam").read_bytes()

    def test_construction_still_rejects_a_bad_codebook(self):
        layer = LamLayer(np.zeros((6, 4)), np.zeros((4, 6)))
        bad = np.eye(4)
        bad[0, 0] = np.nan
        for codebook in (2 * np.eye(4), bad, np.eye(3), np.zeros((4, 0))):
            with pytest.raises(ShapeError):
                ToyModel(layers=(layer,), codebook=codebook, edit_layers=(1,))


def edited_stack(rng, model, k):
    """``k`` models edited from ``model``; about half of them keep the base's top edit layer."""
    models = []
    for _ in range(k):
        edited = model
        for l in model.edit_layers[: 1 + int(rng.integers(0, 2))]:
            edited = edited.with_w_out(l, edited.layer(l).w_out + 0.1 * rng.standard_normal((model.d, model.h)))
        models.append(edited)
    return models


# Batch widths: multiples of 64, and ragged ones, up to a few blocks.
STACK_WIDTHS = st.one_of(st.integers(1, 20).map(lambda b: 64 * b), st.integers(1, 1300))


class TestStack:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
        n=STACK_WIDTHS,
        wide=st.booleans(),
    )
    @example(seed=7, k=8, n=3072, wide=False)
    @example(seed=8, k=3, n=1536, wide=True)
    @example(seed=9, k=2, n=1030, wide=True)
    def test_stacked_walk_gives_each_models_bits(self, seed, k, n, wide):
        # Each slice of a stacked walk runs its model's kernels on the same
        # shapes, so its final state is that model's forward_batch bits and
        # its predictions are that model's own, whatever the stack's size.
        d, h = (128, 256) if wide else (32, 64)
        rng = np.random.default_rng(seed)
        model = random_model(rng, d=d, h=h, n_layers=4, vocab=64, edit_layers=(2, 3))
        models = edited_stack(rng, model, k)
        inputs = rng.standard_normal((d, n))
        prefix = compute_prefix(model, inputs)
        states, _ = _run_prefix(_stack_weights(models, prefix), prefix, None)
        states = model_module._as_stack(states, k)
        predictions = predict_stack(models, prefix)
        assert predictions.shape == (k, n)
        for i, edited in enumerate(models):
            hidden, _ = forward_batch(edited, inputs)
            assert np.array_equal(states[i], hidden[-1])
            assert np.array_equal(predictions[i], predict_batch(edited, prefix))
            assert np.array_equal(predictions[i], np.argmax(hidden[-1].T @ edited.codebook, axis=1))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
        n=st.integers(1, 80),
        layer=st.sampled_from([2, 3]),
    )
    def test_stacked_prefix_gives_each_models_own_batch(self, seed, k, n, layer):
        # A stacked prefix holds one batch per model, as the edit loop's
        # languages and mono's stacks have them.
        rng = np.random.default_rng(seed)
        model = random_model(rng, d=32, h=64, n_layers=4, vocab=64, edit_layers=(2, 3))
        models = edited_stack(rng, model, k)
        prefixes = [compute_prefix(model, rng.standard_normal((32, n))) for _ in range(k)]
        tokens = rng.integers(0, model.vocab_size, size=(k, n))
        stacked = Prefix.stack(prefixes)
        keys, targets = keys_and_targets_stack(models, stacked, tokens, layer)
        predictions = predict_stack(models, stacked)
        for i, (edited, prefix) in enumerate(zip(models, prefixes)):
            own_keys, own_targets = keys_and_targets(edited, prefix, tokens[i], layer)
            assert np.array_equal(keys[i], own_keys)
            assert np.array_equal(targets[i], own_targets)
            assert np.array_equal(predictions[i], predict_batch(edited, prefix))

    def test_stack_member_not_sharing_the_prefix_rejected(self):
        rng = np.random.default_rng(30)
        model = random_model(rng)
        prefix = compute_prefix(model, rng.standard_normal((8, 5)))
        edited = model.with_w_out(2, model.layer(2).w_out + 0.1)
        # Equal values in a new array: the prefix cannot tell them from an edit.
        layers = list(model.layers)
        layers[0] = LamLayer(layers[0].w_in.copy(), layers[0].w_out)
        stranger = ToyModel(layers=tuple(layers), codebook=model.codebook, edit_layers=model.edit_layers)
        tokens = np.zeros((3, 5), dtype=int)
        with pytest.raises(ShapeError, match="does not share"):
            predict_stack([edited, stranger, model], prefix)
        with pytest.raises(ShapeError, match="does not share"):
            keys_and_targets_stack([edited, stranger, model], prefix, tokens, 2)
        with pytest.raises(ShapeError):
            predict_stack([], prefix)
        with pytest.raises(ShapeError, match="2 batches for 3 models"):
            predict_stack([edited, edited, model], Prefix.stack([prefix, prefix]))
        with pytest.raises(InvalidRequestError):
            keys_and_targets_stack([edited, model], prefix, tokens, 2)

    def test_stacked_prefixes_must_share_base_and_width(self):
        rng = np.random.default_rng(31)
        model = random_model(rng)
        other = random_model(rng)
        a = compute_prefix(model, rng.standard_normal((8, 5)))
        with pytest.raises(ShapeError):
            Prefix.stack([a, compute_prefix(model, rng.standard_normal((8, 6)))])
        with pytest.raises(ShapeError):
            Prefix.stack([a, compute_prefix(other, rng.standard_normal((8, 5)))])
        with pytest.raises(ShapeError):
            Prefix.stack([Prefix.stack([a, a])])
        with pytest.raises(ShapeError):
            Prefix.stack([])

    def test_stack_width_keeps_a_blocks_keys_within_the_budget(self):
        rng = np.random.default_rng(32)
        for h, width in ((64, 3), (128, 1), (256, 1), (12, 16)):
            model = random_model(rng, d=8, h=h)
            assert stack_width(model) == width
            assert width == 1 or 8 * width * h * PREDICT_BLOCK <= model_module.STACK_BYTES
