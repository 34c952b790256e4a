"""Request-key matrices and second-moment statistics for editing solvers.

Covariance here always means the uncentered second moment ``K @ K.T`` of a
key batch.  Request statistics can be gathered per language or summed across
all languages (the shared mode); preserved-knowledge statistics come from an
explicit sample of facts that must be disjoint from the edit requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_core
from .errors import ShapeError

PER_LANGUAGE = "per_language"
SHARED = "shared"
COV_MODES = (PER_LANGUAGE, SHARED)


@dataclass(frozen=True)
class KeyBatch:
    """Keys of one language's request batch at one layer, one column each."""

    language_id: int
    layer: int
    keys: np.ndarray  # (h, n)

    def __post_init__(self):
        keys = np.asarray(self.keys, dtype=float)
        if keys.ndim != 2 or keys.shape[1] < 1:
            raise ShapeError(f"keys must be (h, n) with n >= 1, got {keys.shape}")
        if not np.all(np.isfinite(keys)):
            raise ShapeError("keys contain non-finite entries")
        object.__setattr__(self, "keys", keys)

    @property
    def n(self):
        return self.keys.shape[1]


@dataclass(frozen=True)
class CovStats:
    """Symmetric PSD second-moment matrix plus its provenance."""

    cov: np.ndarray  # (h, h)
    sample_count: int
    mode: str

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ShapeError(f"covariance must be square, got {cov.shape}")
        scale = np.linalg.norm(cov)
        if scale > 0 and np.linalg.norm(cov - cov.T) > 1e-9 * scale:
            raise ShapeError("covariance is not symmetric")
        if self.mode not in COV_MODES:
            raise ShapeError(f"unknown covariance mode {self.mode!r}")
        object.__setattr__(self, "cov", cov)


def _second_moment(keys):
    cov = keys @ keys.T
    return 0.5 * (cov + cov.T)


def request_keys(model, language_id, inputs, layer):
    """Key batch for one language's request inputs at a 1-based layer."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] < 1:
        raise ShapeError("request batch must be a nonempty (d, n) matrix")
    _, keys = model_core.forward_batch(model, inputs)
    return KeyBatch(language_id=int(language_id), layer=int(layer), keys=keys[layer - 1])


def cov_per_language(key_batch):
    """Second moment of a single language's keys."""
    return CovStats(
        cov=_second_moment(key_batch.keys),
        sample_count=key_batch.n,
        mode=PER_LANGUAGE,
    )


def cov_shared(key_batches):
    """Second moment summed over languages, in ascending language order.

    All batches must share the layer and key dimension.  The fixed summation
    order makes the result bit-reproducible regardless of caller ordering.
    """
    batches = sorted(key_batches, key=lambda kb: kb.language_id)
    if not batches:
        raise ShapeError("cov_shared needs at least one key batch")
    layer = batches[0].layer
    h = batches[0].keys.shape[0]
    total = np.zeros((h, h))
    count = 0
    for kb in batches:
        if kb.layer != layer:
            raise ShapeError(f"mixed layers in cov_shared: {kb.layer} vs {layer}")
        if kb.keys.shape[0] != h:
            raise ShapeError("mixed key dimensions in cov_shared")
        total += _second_moment(kb.keys)
        count += kb.n
    return CovStats(cov=0.5 * (total + total.T), sample_count=count, mode=SHARED)


def preserved_keys(model, preserved_inputs, preserved_ids=None, request_ids=None):
    """Preserved-knowledge keys of every layer, from one forward pass.

    Parameters
    ----------
    preserved_inputs : ndarray (d, p)
        May be empty (p == 0); the keys are then empty too, and their
        statistics are explicit zeros, valid only for solvers that do not
        weight the preserved term.
    preserved_ids, request_ids : optional int sequences
        When both are given, any overlap raises, enforcing that preservation
        statistics never include facts under edit.

    Returns
    -------
    keys : ndarray (L, h, p)
        ``keys[layer - 1]`` holds the keys of 1-based ``layer``.
    """
    if preserved_ids is not None and request_ids is not None:
        overlap = set(int(i) for i in preserved_ids) & set(int(i) for i in request_ids)
        if overlap:
            raise ShapeError(f"preserved sample overlaps edit requests on fact ids {sorted(overlap)}")
    preserved_inputs = np.asarray(preserved_inputs, dtype=float)
    if preserved_inputs.ndim != 2 or preserved_inputs.shape[0] != model.d:
        raise ShapeError(f"preserved inputs must be (d, p) with d={model.d}")
    if preserved_inputs.shape[1] == 0:
        return np.zeros((model.n_layers, model.h, 0))
    return model_core.forward_batch(model, preserved_inputs)[1]


def preserved_stats(keys):
    """Second moment of one layer's preserved keys (h, p)."""
    return CovStats(cov=_second_moment(keys), sample_count=keys.shape[1], mode=SHARED)


def const_stats(model, preserved_inputs, layer, preserved_ids=None, request_ids=None):
    """Preserved-knowledge keys and covariance at a 1-based layer.

    The one-layer view of :func:`preserved_keys`, whose parameters it takes.

    Returns
    -------
    stats : CovStats
    keys : ndarray (h, p)
    """
    keys = preserved_keys(model, preserved_inputs, preserved_ids, request_ids)[layer - 1]
    return preserved_stats(keys), keys
