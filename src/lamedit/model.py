"""Toy residual stack of key-value feedforward layers with a codebook readout.

Every model has one architecture, the shape MEMIT and AlphaEdit edit: each
layer layer-normalizes the running hidden state (no affine), projects up with
``w_in`` and applies a ReLU, so its *key* is ``relu(w_in @ layernorm(h))``,
and projects back down with ``w_out`` onto the residual stream.  There is no
attention path; the residual update is exactly ``h += w_out @ key``.  A
prediction is the index of the codebook column with the largest inner product
against the final hidden state.

Layers are addressed 1-based throughout the public API, so in
:func:`forward_batch`'s trace ``hidden[0]`` is the input and ``keys[l - 1]``
pairs with the transition ``hidden[l-1] -> hidden[l]``.

Edits change only the edit layers' ``w_out``.  A batch's :class:`Prefix` (the
state entering the first edit layer, and that layer's keys) is therefore the
same on the unedited model and on every model edited from it.  Target
computation (:func:`keys_and_targets_stack`) and prediction
(:func:`predict_stack`) always run on from a prefix computed once on the
unedited model, and :func:`keys_at` walks a batch to some layers' keys; all
keep only the running state.  :func:`forward_batch` is the full pass with
its per-layer trace, the reference their bits are held to.

One walk serves one model or a *stack* of K models edited from one base:
the running state is (K, d, n), a layer whose array every model shares runs
as that one (h, d) or (d, h) matrix broadcast over the stack, and a layer
whose ``w_out`` differs runs against the models' (K, d, h) stack.  Each
stacked numpy call runs the kernel of the one-model call on each slice, on
the same operand shapes, so every slice holds the bits of its model's own
walk; :func:`predict_batch` and :func:`keys_and_targets` are the stacks of
one.  The codebook readout and its argmax run one model at a time, so only
one (columns, vocab) score matrix is alive per stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IllConditionedError, InvalidRequestError, ShapeError

LN_EPS = 1e-5

# Columns per block of :func:`predict_stack`: one block's running states and
# (columns, vocab) score matrix, not the whole batch's, are alive at once.  A
# shorter tail joins the last whole block, so no block is narrower than this
# unless the batch is.
PREDICT_BLOCK = 512

# Bytes that one stack's largest arrays stay within: a scoring stack's keys
# of one block, (models, h, PREDICT_BLOCK) float64, so 3 models at h=64 and
# 1 from h=128 up (:func:`stack_width`), and an edit-loop stack's (h, h)
# systems (:func:`lamedit.solvers.edit_model`).  Wider stacks ran slower per
# model and raised the peak resident set (README, "Edited models run as
# stacks").
STACK_BYTES = 768 * 1024


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class LamLayer:
    """One feedforward layer: its up and down projections."""

    w_in: np.ndarray  # (h, d)
    w_out: np.ndarray  # (d, h)

    def __post_init__(self):
        w_in = np.asarray(self.w_in, dtype=float)
        w_out = np.asarray(self.w_out, dtype=float)
        if w_in.ndim != 2 or w_out.ndim != 2:
            raise ShapeError("layer weights must be matrices")
        h, d = w_in.shape
        if w_out.shape != (d, h):
            raise ShapeError(f"w_out shape {w_out.shape} does not match w_in shape {w_in.shape}")
        if d < 2 or h < d:
            raise ShapeError(f"need h >= d >= 2, got d={d}, h={h}")
        for name, arr in (("w_in", w_in), ("w_out", w_out)):
            _check_finite(name, arr)
        object.__setattr__(self, "w_in", w_in)
        object.__setattr__(self, "w_out", w_out)

    @property
    def d(self):
        return self.w_in.shape[1]

    @property
    def h(self):
        return self.w_in.shape[0]

    @property
    def norm_scale(self):
        """The layer norm's scale, fixed at one; ``model.lam`` still stores it."""
        return np.ones(self.d)

    @property
    def norm_bias(self):
        """The layer norm's bias, fixed at zero; ``model.lam`` still stores it."""
        return np.zeros(self.d)


@dataclass(frozen=True)
class ToyModel:
    """Residual stack plus codebook readout.

    ``edit_layers`` lists the 1-based layers whose ``w_out`` editing operates
    on; it must be nonempty and strictly increasing.  Codebook columns must
    have unit Euclidean norm so the argmax readout is also an argmax over
    cosines.
    """

    layers: tuple[LamLayer, ...]
    codebook: np.ndarray  # (d, vocab)
    edit_layers: tuple[int, ...]

    # The one architecture, by the names ``model.lam``'s meta records.
    activation = "relu"
    norm = "layernorm"

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ShapeError("model needs at least one layer")
        d, h = layers[0].d, layers[0].h
        for idx, layer in enumerate(layers):
            if layer.d != d or layer.h != h:
                raise ShapeError(f"layer {idx + 1} dims ({layer.d},{layer.h}) differ from ({d},{h})")
        codebook = np.asarray(self.codebook, dtype=float)
        if codebook.ndim != 2 or codebook.shape[0] != d or codebook.shape[1] < 1:
            raise ShapeError(f"codebook must be (d, vocab) with vocab >= 1, got {codebook.shape}")
        _check_finite("codebook", codebook)
        norms = np.linalg.norm(codebook, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ShapeError("codebook columns must have unit norm")
        edit_layers = tuple(int(l) for l in self.edit_layers)
        if not edit_layers:
            raise ShapeError("edit_layers must be nonempty")
        if any(b <= a for a, b in zip(edit_layers, edit_layers[1:])):
            raise ShapeError("edit_layers must be strictly increasing")
        if edit_layers[0] < 1 or edit_layers[-1] > len(layers):
            raise ShapeError(f"edit_layers {edit_layers} outside 1..{len(layers)}")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "codebook", codebook)
        object.__setattr__(self, "edit_layers", edit_layers)

    @property
    def d(self):
        return self.layers[0].d

    @property
    def h(self):
        return self.layers[0].h

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def vocab_size(self):
        return self.codebook.shape[1]

    def layer(self, index):
        """1-based layer access."""
        if not 1 <= index <= self.n_layers:
            raise IndexError(f"layer {index} outside 1..{self.n_layers}")
        return self.layers[index - 1]

    def with_w_out(self, index, w_out):
        """New model with layer ``index`` (1-based) carrying ``w_out``.

        Only the new matrix is checked: its shape and finiteness.  Every other
        array is this model's own, already checked, and shared by identity,
        which :meth:`Prefix.check` relies on.
        """
        old = self.layer(index)
        w_out = np.asarray(w_out, dtype=float)
        if w_out.shape != old.w_out.shape:
            raise ShapeError(f"w_out shape {w_out.shape} != {old.w_out.shape}")
        _check_finite("w_out", w_out)
        layer = _unchecked(old, w_out=w_out)
        return _unchecked(self, layers=self.layers[: index - 1] + (layer,) + self.layers[index:])


def _unchecked(instance, **changes):
    """A copy of the frozen dataclass ``instance`` with ``changes``, skipping ``__post_init__``."""
    copy = object.__new__(type(instance))
    copy.__dict__.update(instance.__dict__, **changes)
    return copy




def _normalize(states):
    """Layer-normalize ``states`` (d, n), or a stack (K, d, n), column-wise, with no affine."""
    # The variance from the centred states, as ``states.var`` computes it.
    centred = states - states.mean(axis=-2, keepdims=True)
    scale = np.square(centred).sum(axis=-2, keepdims=True)
    scale /= states.shape[-2]
    scale += LN_EPS
    centred /= np.sqrt(scale, out=scale)
    return centred


def _keys(w_in, states):
    """A layer's keys ``relu(w_in @ layernorm(states))``; either operand may be a stack."""
    keys = w_in @ _normalize(states)
    return np.maximum(keys, 0.0, out=keys)


def _check_inputs(model, inputs):
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != model.d:
        raise ShapeError(f"inputs must be (d, n) with d={model.d}, got {inputs.shape}")
    _check_finite("inputs", inputs)
    return inputs


@dataclass(frozen=True)
class Prefix:
    """A batch's unedited part on ``base``: the state entering the first edit
    layer, and that layer's keys, one column per input.

    Every model edited from ``base`` shares the layers below the first edit
    layer and that layer's ``w_in``, so it maps the batch to this same state
    and these same keys.  Running such a model on from here gives the
    bits of its full forward pass.  A stacked prefix (:meth:`stack`) holds
    one batch per model of a stack, all of one width, as (K, d, n) states
    and (K, h, n) keys.
    """

    base: ToyModel
    state: np.ndarray  # (d, n), or (K, d, n) stacked
    key: np.ndarray  # (h, n), or (K, h, n) stacked

    @classmethod
    def stack(cls, prefixes):
        """The stacked prefix of unstacked ``prefixes`` on one base, batches of one width, in order."""
        prefixes = list(prefixes)
        if not prefixes:
            raise ShapeError("a stacked prefix needs at least one prefix")
        base = prefixes[0].base
        if any(p.base is not base or p.state.ndim != 2 or p.n != prefixes[0].n for p in prefixes):
            raise ShapeError("stacked prefixes must be unstacked batches of one width on one base")
        return cls(base=base, state=np.stack([p.state for p in prefixes]), key=np.stack([p.key for p in prefixes]))

    @property
    def layer(self):
        """The 1-based layer the prefix enters: the base's first edit layer."""
        return self.base.edit_layers[0]

    @property
    def n(self):
        return self.state.shape[-1]

    def columns(self, start, stop):
        """The prefix of the batch's columns ``start:stop``."""
        return replace(self, state=self.state[..., start:stop], key=self.key[..., start:stop])

    def check(self, model):
        """Raise :class:`ShapeError` unless ``model`` shares the prefix's layers.

        The layers below :attr:`layer`, and that layer's ``w_in``, must be the
        base's own arrays (compared by identity, which
        :meth:`ToyModel.with_w_out` preserves), under the same edit layers.
        """
        base, first = self.base, self.layer
        shared = (
            model.edit_layers == base.edit_layers
            and all(a is b for a, b in zip(model.layers[: first - 1], base.layers[: first - 1]))
            and model.layer(first).w_in is base.layer(first).w_in
        )
        if not shared:
            raise ShapeError(
                f"model does not share the prefix's unedited layers 1..{first - 1} "
                f"and layer {first}'s w_in"
            )


def _weights(models, layers):
    """``(layer, w_in, w_out)`` of each 1-based layer of ``layers`` over ``models``.

    Where every model holds the very same array, as the models
    :meth:`ToyModel.with_w_out` makes share all but the new one, that one
    array; otherwise the models' arrays stacked, (K, h, d) or (K, d, h).
    """

    def one(arrays):
        return arrays[0] if all(a is arrays[0] for a in arrays) else np.stack(arrays)

    weights = []
    for l in layers:
        stacked = [model.layer(l) for model in models]
        weights.append((l, one([x.w_in for x in stacked]), one([x.w_out for x in stacked])))
    return weights


def _walk(weights, state, key_layers):
    """Run ``weights`` (:func:`_weights`, ascending) on ``state`` (d, n), keeping only the running state.

    A stacked weight or ``state`` (K, d, n) makes the running state a stack
    from there on.  Returns the state after the last layer and
    ``{layer: keys}`` for each of ``key_layers`` that is one of the walked
    layers.  ``state`` is never written.
    """
    keys = {}
    for l, w_in, w_out in weights:
        layer_keys = _keys(w_in, state)
        if l in key_layers:
            keys[l] = layer_keys
        update = w_out @ layer_keys
        update += state
        state = update
    return state, keys


def compute_prefix(model, inputs):
    """The :class:`Prefix` of ``inputs`` (d, n) on ``model``."""
    first = model.edit_layers[0]
    state, _ = _walk(_weights((model,), range(1, first)), _check_inputs(model, inputs), ())
    return Prefix(base=model, state=state, key=_keys(model.layer(first).w_in, state))


def keys_at(model, inputs, layers):
    """``{layer: keys (h, n)}`` of ``inputs`` (d, n) at each 1-based layer of ``layers``.

    One walk up to the last of them, keeping only the running state, gives
    the bits of :func:`forward_batch`'s keys at those layers without its
    per-layer trace.
    """
    last = max(layers)
    state, keys = _walk(_weights((model,), range(1, last)), _check_inputs(model, inputs), layers)
    keys[last] = _keys(model.layer(last).w_in, state)
    return keys


def _stack_weights(models, prefix):
    """The weights (:func:`_weights`) of ``models`` from the prefix's layer up.

    Every model must share the prefix's unedited layers
    (:meth:`Prefix.check`) and have one depth, and a stacked prefix must
    hold one batch per model; otherwise :class:`ShapeError` is raised.
    """
    if not models:
        raise ShapeError("a stack needs at least one model")
    for model in models:
        prefix.check(model)
    n_layers = models[0].n_layers
    if any(model.n_layers != n_layers for model in models):
        raise ShapeError("a stack's models must have one depth")
    if prefix.state.ndim == 3 and len(prefix.state) != len(models):
        raise ShapeError(f"stacked prefix holds {len(prefix.state)} batches for {len(models)} models")
    return _weights(models, range(prefix.layer, n_layers + 1))


def _run_prefix(weights, prefix, key_layer):
    """The final state on the prefix's batch, and the keys at ``key_layer``, of a stack's weights.

    ``weights`` are :func:`_stack_weights` of the stack on ``prefix``; the
    results are (d, n) and (h, n) unless a weight or the prefix is stacked.
    """
    (first, _, w_out), rest = weights[0], weights[1:]
    state = w_out @ prefix.key
    state += prefix.state
    state, keys = _walk(rest, state, (key_layer,))
    return state, prefix.key if key_layer == first else keys.get(key_layer)


def _as_stack(array, k):
    """``array`` as a stack of ``k``: itself when stacked, else views of it."""
    if array.ndim == 3:
        return array
    return array[None] if k == 1 else np.broadcast_to(array, (k, *array.shape))


def forward_batch(model, inputs):
    """Run the stack on a batch of column vectors.

    Parameters
    ----------
    inputs : ndarray (d, n)

    Returns
    -------
    hidden : ndarray (L+1, d, n)
    keys : ndarray (L, h, n)
    """
    inputs = _check_inputs(model, inputs)
    n = inputs.shape[1]
    hidden = np.empty((model.n_layers + 1, model.d, n))
    keys = np.empty((model.n_layers, model.h, n))
    hidden[0] = inputs
    for l in range(1, model.n_layers + 1):
        keys[l - 1] = _keys(model.layer(l).w_in, hidden[l - 1])
        hidden[l] = hidden[l - 1] + model.layer(l).w_out @ keys[l - 1]
    return hidden, keys


def stack_width(model):
    """Models per scoring stack on ``model``'s shape: one block's keys within :data:`STACK_BYTES`."""
    return max(1, STACK_BYTES // (8 * model.h * PREDICT_BLOCK))


def predict_stack(models, prefix):
    """Predicted token per column of ``prefix``'s batch for each of ``models``, (K, n).

    Ties resolve to the lowest index.  ``prefix`` is the batch's
    :class:`Prefix` on the unedited model every one of ``models`` was edited
    from (:func:`compute_prefix`), or a stack of batches, one per model
    (:meth:`Prefix.stack`); the run starts there.  The stack runs as one walk
    keeping only the running state (no per-layer trace), in blocks of
    :data:`PREDICT_BLOCK` columns, the last of which also takes a shorter
    tail.  Each block's state is scored one model at a time, as a (columns,
    vocab) matrix so the argmax runs along contiguous rows.  OpenBLAS may run
    a narrower product through other kernels or another column grouping: run
    as their own blocks, tails of 1 to 452 columns moved their final states
    off the whole batch's, by up to 1.2e-14 at d=128.  With no block
    narrower than :data:`PREDICT_BLOCK` unless the batch is, each model's
    block final states and score rows equal its whole batch's, and the
    states equal :func:`forward_batch`'s final state, bit for bit under
    OpenBLAS's SkylakeX, Haswell and Sandybridge kernels
    (``OPENBLAS_CORETYPE``), whatever the stack's size.  A forward pass that
    overflows, as an edit scaled by a huge weight makes it, raises
    :class:`IllConditionedError` rather than scoring a layer norm that
    divided by infinity.
    """
    models = tuple(models)
    weights = _stack_weights(models, prefix)
    predictions = np.empty((len(models), prefix.n), dtype=np.intp)
    n_blocks = max(prefix.n // PREDICT_BLOCK, 1)
    try:
        # numpy's error state is per thread, so this holds on a spread's workers too.
        with np.errstate(over="raise", invalid="raise"):
            for i in range(n_blocks):
                start = i * PREDICT_BLOCK
                stop = start + PREDICT_BLOCK if i + 1 < n_blocks else prefix.n
                state, _ = _run_prefix(weights, prefix.columns(start, stop), None)
                for k, (model, final) in enumerate(zip(models, _as_stack(state, len(models)))):
                    predictions[k, start:stop] = np.argmax(final.T @ model.codebook, axis=1)
    except FloatingPointError as exc:
        raise IllConditionedError(f"the scored model's forward pass overflows: {exc}") from exc
    return predictions


def predict_batch(model, prefix):
    """Predicted token per column of ``prefix``'s batch: :func:`predict_stack` of one model."""
    return predict_stack((model,), prefix)[0]


def keys_and_targets_stack(models, prefix, new_tokens, layer):
    """Keys and per-request target values of each of ``models`` at one edit layer, from one walk.

    For each request the desired final-state residual is
    ``codebook[new_token] - h_final(input)`` measured on the model.  The
    target value at ``layer`` is the layer's current value plus an equal
    share of that residual, where the share divides by the number of edit
    layers at or above ``layer``.  Solving edit layers bottom-to-top and
    recomputing between layers therefore walks the final state onto the new
    token's codebook column.

    Parameters
    ----------
    models : sequence of K ToyModel
        Edited from the unedited model ``prefix`` was computed on.
    prefix : :class:`Prefix`
        The requests' prefix on that model (:func:`compute_prefix`), shared
        by every model, or stacked, one batch per model (:meth:`Prefix.stack`);
        the walk starts there.
    new_tokens : int array (K, n)
        One row per model.
    layer : int
        1-based index; must be one of the models' edit layers.

    Returns
    -------
    keys : ndarray (K, h, n)
        The layer's keys for the prefix's batch.
    targets : ndarray (K, d, n)
    """
    models = tuple(models)
    weights = _stack_weights(models, prefix)
    if layer not in models[0].edit_layers:
        raise ShapeError(f"layer {layer} is not an edit layer {models[0].edit_layers}")
    new_tokens = np.asarray(new_tokens)
    if new_tokens.ndim != 2 or len(new_tokens) != len(models):
        raise InvalidRequestError(f"new_tokens must be a ({len(models)}, n) integer array, a row per model")
    vocab = min(model.vocab_size for model in models)
    if new_tokens.size and (new_tokens.min() < 0 or new_tokens.max() >= vocab):
        raise InvalidRequestError(
            f"token ids must be in 0..{vocab - 1}, got range [{new_tokens.min()}, {new_tokens.max()}]"
        )
    if prefix.n != new_tokens.shape[1]:
        raise ShapeError(f"prefix has {prefix.n} columns for {new_tokens.shape[1]} new tokens")

    final, layer_keys = _run_prefix(weights, prefix, layer)
    current = next(w_out for l, _, w_out in weights if l == layer) @ layer_keys
    wanted = np.stack([model.codebook[:, tokens] for model, tokens in zip(models, new_tokens)])
    remaining = sum(1 for l in models[0].edit_layers if l >= layer)
    return _as_stack(layer_keys, len(models)), current + (wanted - final) / remaining


def keys_and_targets(model, prefix, new_tokens, layer):
    """Keys (h, n) and targets (d, n) of ``model`` at one edit layer: :func:`keys_and_targets_stack` of one.

    ``new_tokens`` is a 1-d integer array (n,).
    """
    new_tokens = np.asarray(new_tokens)
    if new_tokens.ndim != 1:
        raise InvalidRequestError("new_tokens must be a 1-d integer array")
    keys, targets = keys_and_targets_stack((model,), prefix, new_tokens[None], layer)
    return keys[0], targets[0]
