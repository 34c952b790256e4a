"""Request-key matrices and second-moment statistics for editing solvers.

Covariance here always means the uncentered second moment ``K @ K.T`` of a
key batch (h, n).  Request statistics can be gathered per language or summed
across all languages (the shared mode); preserved-knowledge statistics come
from a separate sample of preserved facts, none of them under edit.
"""

from __future__ import annotations

import numpy as np

from . import model as model_core
from .errors import ShapeError

PER_LANGUAGE = "per_language"
SHARED = "shared"
COV_MODES = (PER_LANGUAGE, SHARED)


def request_keys(model, inputs, layer):
    """Keys (h, n) of a request batch's inputs (d, n) at a 1-based layer."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] < 1:
        raise ShapeError("request batch must be a nonempty (d, n) matrix")
    _, keys = model_core.forward_batch(model, inputs)
    return keys[layer - 1]


def cov_per_language(keys):
    """Symmetrised second moment (h, h) of one key batch (h, n), or (K, h, h) of a stack (K, h, n).

    Each matrix of a stack is the bits of its batch's own call.
    """
    cov = keys @ np.swapaxes(keys, -1, -2)
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


def cov_shared(keys):
    """Second moment summed over several languages' key batches.

    The batches are summed in the order given, onto zeros; callers fix the
    order (ascending language id) so the result is bit-reproducible.  Each
    term is exactly symmetric, so the sum is too.
    """
    keys = list(keys)
    if not keys:
        raise ShapeError("cov_shared needs at least one key batch")
    h = keys[0].shape[0]
    total = np.zeros((h, h))
    for batch in keys:
        total += cov_per_language(batch)
    return total


def const_stats(model, preserved_inputs, layer):
    """Preserved-knowledge covariance and keys at a 1-based layer.

    The keys come from one walk of ``preserved_inputs`` (d, p) up to the
    layer (:func:`lamedit.model.keys_at`); an empty sample (p == 0) gives
    empty keys and a zero covariance.

    Returns
    -------
    cov : ndarray (h, h)
    keys : ndarray (h, p)
    """
    keys = model_core.keys_at(model, preserved_inputs, (layer,))[layer]
    return cov_per_language(keys), keys
