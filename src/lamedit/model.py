"""Toy residual stack of key-value feedforward layers with a codebook readout.

Each layer reads the running hidden state, normalizes it, projects up with
``w_in``, applies the activation (the result is the layer's *key*), and
projects back down with ``w_out`` onto the residual stream.  There is no
attention path; the residual update is exactly ``h += w_out @ key``.  A
prediction is the index of the codebook column with the largest inner product
against the final hidden state.

Layers are addressed 1-based throughout the public API, so ``hidden[0]`` is
the input and ``key(l)`` pairs with the transition ``hidden[l-1] -> hidden[l]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidRequestError, ShapeError

LN_EPS = 1e-5

ACTIVATIONS = ("relu", "identity")
NORMS = ("layernorm", "identity")


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class LamLayer:
    """One feedforward layer: up/down projections plus normalization params."""

    w_in: np.ndarray  # (h, d)
    w_out: np.ndarray  # (d, h)
    norm_scale: np.ndarray  # (d,)
    norm_bias: np.ndarray  # (d,)

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
        scale = np.asarray(self.norm_scale, dtype=float)
        bias = np.asarray(self.norm_bias, dtype=float)
        if scale.shape != (d,) or bias.shape != (d,):
            raise ShapeError("norm parameters must be vectors of length d")
        for name, arr in (("w_in", w_in), ("w_out", w_out), ("norm_scale", scale), ("norm_bias", bias)):
            _check_finite(name, arr)
        object.__setattr__(self, "w_in", w_in)
        object.__setattr__(self, "w_out", w_out)
        object.__setattr__(self, "norm_scale", scale)
        object.__setattr__(self, "norm_bias", bias)

    @property
    def d(self):
        return self.w_in.shape[1]

    @property
    def h(self):
        return self.w_in.shape[0]


def default_layer(w_in, w_out):
    """Layer with normalization scale 1 and bias 0."""
    d = np.asarray(w_in).shape[1]
    return LamLayer(w_in=w_in, w_out=w_out, norm_scale=np.ones(d), norm_bias=np.zeros(d))


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
    activation: str = "relu"
    norm: str = "layernorm"

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
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")
        if self.norm not in NORMS:
            raise ShapeError(f"unknown norm {self.norm!r}")
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
        """New model with layer ``index`` (1-based) carrying ``w_out``."""
        old = self.layer(index)
        if np.asarray(w_out).shape != old.w_out.shape:
            raise ShapeError(f"w_out shape {np.asarray(w_out).shape} != {old.w_out.shape}")
        layers = list(self.layers)
        layers[index - 1] = replace(old, w_out=np.asarray(w_out, dtype=float))
        return replace(self, layers=tuple(layers))


@dataclass(frozen=True)
class HiddenTrace:
    """Forward-pass record: hidden states h^0..h^L and keys k^1..k^L."""

    hidden: np.ndarray  # (L+1, d)
    keys: np.ndarray  # (L, h)

    def __post_init__(self):
        hidden = np.asarray(self.hidden, dtype=float)
        keys = np.asarray(self.keys, dtype=float)
        if hidden.ndim != 2 or keys.ndim != 2 or hidden.shape[0] != keys.shape[0] + 1:
            raise ShapeError("trace needs L+1 hidden states and L keys")
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "keys", keys)

    @property
    def final(self):
        return self.hidden[-1]

    def key(self, layer):
        """Key at 1-based ``layer``."""
        if not 1 <= layer <= self.keys.shape[0]:
            raise IndexError(f"layer {layer} outside 1..{self.keys.shape[0]}")
        return self.keys[layer - 1]


def _normalize(model, states):
    """Apply the model's normalization column-wise to ``states`` (d, n)."""
    if model.norm == "identity":
        return states
    # The variance from the centred states, as ``states.var`` computes it.
    centred = states - states.mean(axis=0, keepdims=True)
    var = np.square(centred).sum(axis=0, keepdims=True) / states.shape[0]
    return centred / np.sqrt(var + LN_EPS)


def _activate(model, pre):
    if model.activation == "identity":
        return pre
    return np.maximum(pre, 0.0)


def _layer_keys(model, layer_index, states):
    """Keys of 1-based ``layer_index`` for a batch of hidden states (d, n)."""
    layer = model.layer(layer_index)
    normed = _normalize(model, states)
    normed = normed * layer.norm_scale[:, None] + layer.norm_bias[:, None]
    return _activate(model, layer.w_in @ normed)


def _check_inputs(model, inputs):
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != model.d:
        raise ShapeError(f"inputs must be (d, n) with d={model.d}, got {inputs.shape}")
    _check_finite("inputs", inputs)
    return inputs


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
        keys[l - 1] = _layer_keys(model, l, hidden[l - 1])
        hidden[l] = hidden[l - 1] + model.layer(l).w_out @ keys[l - 1]
    return hidden, keys


def forward(model, x):
    """Forward pass on a single input vector, returning a :class:`HiddenTrace`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ShapeError(f"input must have shape ({model.d},), got {x.shape}")
    hidden, keys = forward_batch(model, x[:, None])
    return HiddenTrace(hidden=hidden[:, :, 0], keys=keys[:, :, 0])


def compute_key(model, layer, h_prev):
    """Key of 1-based ``layer`` given the previous hidden state."""
    if not 1 <= layer <= model.n_layers:
        raise IndexError(f"layer {layer} outside 1..{model.n_layers}")
    h_prev = np.asarray(h_prev, dtype=float)
    if h_prev.shape != (model.d,):
        raise ShapeError(f"hidden state must have shape ({model.d},), got {h_prev.shape}")
    return _layer_keys(model, layer, h_prev[:, None])[:, 0]


def predict_batch(model, inputs):
    """Predicted token per input column; ties resolve to the lowest index.

    Runs the stack keeping only the running state (no per-layer trace), and
    scores it as an (n, vocab) matrix so the argmax runs along contiguous rows.
    The predictions equal those read from :func:`forward_batch`'s final state.
    """
    state = _check_inputs(model, inputs)
    for l in range(1, model.n_layers + 1):
        state = state + model.layer(l).w_out @ _layer_keys(model, l, state)
    return np.argmax(state.T @ model.codebook, axis=1)


def predict(model, x):
    """Predicted token for one input vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ShapeError(f"input must have shape ({model.d},), got {x.shape}")
    return int(predict_batch(model, x[:, None])[0])


def compute_target_values(model, inputs, new_tokens, layer):
    """Per-request target value columns for editing one layer.

    The targets of :func:`keys_and_targets`, without the keys.
    """
    return keys_and_targets(model, inputs, new_tokens, layer)[1]


def keys_and_targets(model, inputs, new_tokens, layer):
    """Keys and per-request target values at one edit layer, from one forward pass.

    For each request the desired final-state residual is
    ``codebook[new_token] - h_final(input)`` measured on the model passed in.
    The target value at ``layer`` is the layer's current value plus an equal
    share of that residual, where the share divides by the number of edit
    layers at or above ``layer``.  Solving edit layers bottom-to-top and
    recomputing between layers therefore walks the final state onto the new
    token's codebook column.

    Parameters
    ----------
    inputs : ndarray (d, n)
    new_tokens : int array (n,)
    layer : int
        1-based index; must be one of the model's edit layers.

    Returns
    -------
    keys : ndarray (h, n)
        The layer's keys for ``inputs``.
    targets : ndarray (d, n)
    """
    if layer not in model.edit_layers:
        raise ShapeError(f"layer {layer} is not an edit layer {model.edit_layers}")
    new_tokens = np.asarray(new_tokens)
    if new_tokens.ndim != 1:
        raise InvalidRequestError("new_tokens must be a 1-d integer array")
    if new_tokens.size and (new_tokens.min() < 0 or new_tokens.max() >= model.vocab_size):
        raise InvalidRequestError(
            f"token ids must be in 0..{model.vocab_size - 1}, got range "
            f"[{new_tokens.min()}, {new_tokens.max()}]"
        )
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape != (model.d, new_tokens.size):
        raise ShapeError(f"inputs must be (d, n) = ({model.d}, {new_tokens.size}), got {inputs.shape}")

    hidden, keys = forward_batch(model, inputs)
    layer_keys = keys[layer - 1]
    current = model.layer(layer).w_out @ layer_keys
    residual = model.codebook[:, new_tokens] - hidden[-1]
    remaining = sum(1 for l in model.edit_layers if l >= layer)
    return layer_keys, current + residual / remaining
