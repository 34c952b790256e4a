"""Rules for combining per-language editing matrices into one update.

Six methods: ``sum``, ``mean``, ``tsvm`` on deltas solved with per-language
request covariance, and their ``*_cov`` twins which accept only deltas solved
with the shared (summed over languages) covariance.  The tsvm rule truncates
each delta's SVD (:func:`delta_factors`, the one place a delta is factored),
concatenates factors across languages, re-orthogonalizes the stacked factors
through their orthogonal polar factor, and reconstructs.  A delta's factors
are held only as deep as the tsvm merges that read them: its leading
``depth`` singular triplets, the largest retained rank among those merges,
copied out of the full SVD so that the rest of it is freed at once.  Every
SVD is numpy's ``gesdd`` (:func:`_svd`), so no merge calls scipy, whichever
thread of a :func:`lamedit.blas.spread` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas
from .covariance import PER_LANGUAGE, SHARED
from .errors import ConfigError, IllConditionedError, RankRatioError, ShapeError

MERGE_METHODS = ("sum", "mean", "tsvm", "sum_cov", "mean_cov", "tsvm_cov")


def check_rank_ratio(rank_ratio, name="rank_ratio"):
    """Raise :class:`RankRatioError`, a :class:`ConfigError`, unless ``rank_ratio`` lies in (0, 1]."""
    if not 0 < rank_ratio <= 1:
        raise RankRatioError(f"{name} must lie in (0, 1], got {rank_ratio}")


@dataclass(frozen=True)
class MergeConfig:
    """Merge rule selection plus tsvm's rank ratio; the weight scale is the run's."""

    method: str
    rank_ratio: float = 1.0

    def __post_init__(self):
        if self.method not in MERGE_METHODS:
            raise ConfigError(f"unknown merge method {self.method!r}; expected one of {MERGE_METHODS}")
        check_rank_ratio(self.rank_ratio)

    @property
    def cov_mode(self):
        return SHARED if self.method.endswith("_cov") else PER_LANGUAGE

    @property
    def base_rule(self):
        return self.method.removesuffix("_cov")


def _common_shape(shapes):
    """The one shape every delta has; none, or two different ones, raise ShapeError."""
    shapes = list(shapes)
    if not shapes:
        raise ShapeError("merge needs at least one delta")
    for shape in shapes:
        if shape != shapes[0]:
            raise ShapeError(f"delta shape mismatch: {shape} vs {shapes[0]}")
    return shapes[0]


def _stack(deltas):
    mats = [np.asarray(m, dtype=float) for m in deltas]
    _common_shape(m.shape for m in mats)
    return mats


def merge_sum(deltas):
    """Elementwise sum in the given (ascending language) order, a (d, h) matrix."""
    mats = _stack(deltas)
    total = np.zeros_like(mats[0])
    for m in mats:
        total = total + m
    return total


def merge_mean(deltas):
    """Elementwise sum scaled by 1/m."""
    mats = _stack(deltas)
    return merge_sum(mats) / len(mats)


def _svd(matrix):
    """Thin SVD by LAPACK ``gesdd``, retried on the transpose when it fails.

    ``gesdd`` runs in numpy, on its one thread (:mod:`lamedit.blas`); the
    merge-and-score phase calls it from the threads of a
    :func:`lamedit.blas.spread` (every delta in :func:`delta_factors`, and
    tsvm's polar factors in each merge's item).  It fails to converge on
    some rank-deficient deltas (one alphaedit delta at d=128, seed
    647892279) that it factors on the transpose, to a reconstruction error
    of 2e-15 there; the transpose's factors ``(v, s, u^T)`` are returned as
    ``(u, s, v^T)``.  A second failure raises :class:`numpy.linalg.LinAlgError`.
    """
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        u, s, vt = np.linalg.svd(matrix.T, full_matrices=False)
        return vt.T, s, u.T


def _retained_rank(shape, rank_ratio):
    """``k = floor(rank_ratio * d)`` capped at ``min(d, h)``; k < 1 raises.

    The product is rounded to 9 decimals first: ``(1 / 49) * 49 < 1``.
    """
    d, h = shape
    check_rank_ratio(rank_ratio)
    k = int(np.floor(round(rank_ratio * d, 9)))
    if k < 1:
        raise RankRatioError(f"rank_ratio {rank_ratio} with d={d} floors to rank 0")
    return min(k, d, h)


def _truncate(factors, k):
    u, s, vt = factors
    return u[:, :k], s[:k], vt[:k, :]


def truncate_svd(matrix, rank_ratio):
    """Best rank-k approximation factors of one delta.

    The retained rank is ``k = floor(rank_ratio * d)`` capped at
    ``min(d, h)``; a ratio so small that k floors to zero raises.

    Returns
    -------
    u : ndarray (d, k), orthonormal columns
    s : ndarray (k,), singular values descending
    vt : ndarray (k, h), orthonormal rows
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError("truncate_svd needs a matrix")
    k = _retained_rank(matrix.shape, rank_ratio)
    return _truncate(_svd(matrix), k)


def _leading_triplets(matrix, depth):
    """The ``depth`` leading triplets of ``matrix``'s thin SVD, as arrays that own their data."""
    return tuple(factor.copy() for factor in _truncate(_svd(matrix), depth))


def delta_factors(delta_sets, depths):
    """Leading SVD triplets of every delta of each delta set, ``[{layer: (u, s, vt) per language}]``.

    The one place a delta is factored for a merge: :func:`merge_tsvm` slices
    these at any rank ratio whose retained rank is at most the set's depth,
    so each delta is factored once however many tsvm merges read it.
    ``depths`` holds one depth per set, the largest retained rank of the
    merges that read it; each delta keeps ``u`` (d, depth), ``s`` (depth,)
    and ``vt`` (depth, h), owned copies, so its full factors are freed in
    the item that computed them.  A layer's deltas of unequal shapes raise
    :class:`ShapeError`; the SVDs of every layer of every set form one
    :func:`lamedit.blas.spread`.
    """
    per_set = [[_stack(ds.layer_deltas(layer)) for layer in ds.layers] for ds in delta_sets]
    items = [(m, depth) for per_layer, depth in zip(per_set, depths) for deltas in per_layer for m in deltas]
    svds = iter(blas.spread(lambda item: _leading_triplets(*item), items))
    return [
        {layer: tuple(next(svds) for _ in deltas) for layer, deltas in zip(ds.layers, per_layer)}
        for ds, per_layer in zip(delta_sets, per_set)
    ]


def _orthogonal_polar_factor(matrix):
    """Nearest matrix with orthonormal columns (rows if wide), via SVD."""
    u, _, vt = _svd(matrix)
    return u @ vt


def merge_tsvm(factors, rank_ratio):
    """Truncate, concatenate across languages, re-orthogonalize, reconstruct.

    ``factors`` are one layer's SVD triplets ``(u, s, vt)`` in language
    order (:func:`delta_factors`), at least as deep as the retained rank k;
    shallower ones raise :class:`ShapeError`.  Left factors concatenate
    column-wise and right factors row-wise, with the retained singular
    values forming a block diagonal; both stacked factors are replaced by
    their orthogonal polar factor, on the calling thread, before
    reconstruction.  An over-complete concatenation (m * k exceeding
    min(d, h)) is allowed.
    """
    shape = _common_shape((u.shape[0], vt.shape[1]) for u, _, vt in factors)
    k = _retained_rank(shape, rank_ratio)
    if any(s.size < k for _, s, _ in factors):
        raise ShapeError(f"tsvm at rank {k} needs factors at least {k} deep")
    lefts, sigmas, rights = zip(*(_truncate(f, k) for f in factors))
    left_cat = np.hstack(lefts)
    sigma_cat = np.concatenate(sigmas)
    right_cat = np.vstack(rights)
    left_merged = _orthogonal_polar_factor(left_cat)
    return (left_merged * sigma_cat) @ _orthogonal_polar_factor(right_cat)


def merge(config, delta_set, factors=None):
    """Merge a delta set layer by layer according to ``config``.

    The delta set's covariance mode must match the method suffix: the plain
    rules take per-language-covariance deltas, the ``*_cov`` rules take
    shared-covariance deltas.  The tsvm rules slice ``factors``, the delta
    set's :func:`delta_factors` at least as deep as this merge's retained
    rank; when not given, they are computed here at exactly that depth.

    Returns
    -------
    dict mapping 1-based layer -> merged (d, h) matrix
    """
    if delta_set.cov_mode != config.cov_mode:
        raise ConfigError(
            f"merge method {config.method!r} needs deltas with {config.cov_mode!r} covariance, "
            f"got {delta_set.cov_mode!r}"
        )
    if config.base_rule == "tsvm":
        if factors is None:
            shape = _common_shape(np.shape(m) for m in delta_set.entries.values())
            (factors,) = delta_factors([delta_set], [_retained_rank(shape, config.rank_ratio)])
        return {layer: merge_tsvm(factors[layer], config.rank_ratio) for layer in delta_set.layers}
    rule = merge_sum if config.base_rule == "sum" else merge_mean
    return {layer: rule(delta_set.layer_deltas(layer)) for layer in delta_set.layers}


def apply_update(model, merged, alpha):
    """New model with ``w_out += alpha * merged[layer]`` on each merged layer.

    ``merged`` maps 1-based layer to a (d, h) matrix, as :func:`merge`
    returns.  ``alpha`` may be zero (the model comes back unchanged);
    negative scales are rejected, and a scale whose update overflows raises
    :class:`IllConditionedError`.  Every merged layer must be one of the
    model's edit layers with a matching shape.
    """
    if alpha < 0:
        raise ConfigError(f"alpha must be nonnegative, got {alpha}")
    out = model
    for layer in sorted(merged):
        matrix = merged[layer]
        if layer not in model.edit_layers:
            raise ShapeError(f"layer {layer} is not an edit layer {model.edit_layers}")
        w_out = out.layer(layer).w_out
        if matrix.shape != w_out.shape:
            raise ShapeError(f"merged delta shape {matrix.shape} != w_out shape {w_out.shape}")
        try:
            with np.errstate(over="raise"):
                updated = w_out + alpha * matrix
        except FloatingPointError:
            raise IllConditionedError(f"alpha {alpha!r} overflows the update of layer {layer}") from None
        out = out.with_w_out(layer, updated)
    return out
