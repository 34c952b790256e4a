"""Rules for combining per-language editing matrices into one update.

Six methods: ``sum``, ``mean``, ``tsvm`` on deltas solved with per-language
request covariance, and their ``*_cov`` twins which accept only deltas solved
with the shared (summed over languages) covariance.  The tsvm rule truncates
each delta by SVD, concatenates factors across languages, re-orthogonalizes
the stacked factors through their orthogonal polar factor, and reconstructs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .covariance import PER_LANGUAGE, SHARED
from .errors import ConfigError, RankRatioError, ShapeError

MERGE_METHODS = ("sum", "mean", "tsvm", "sum_cov", "mean_cov", "tsvm_cov")


@dataclass(frozen=True)
class MergeConfig:
    """Merge rule selection plus its scale and compression hyperparameters."""

    method: str
    alpha: float = 1.0
    rank_ratio: float = 1.0

    def __post_init__(self):
        if self.method not in MERGE_METHODS:
            raise ConfigError(f"unknown merge method {self.method!r}; expected one of {MERGE_METHODS}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if not 0 < self.rank_ratio <= 1:
            raise ConfigError(f"rank_ratio must lie in (0, 1], got {self.rank_ratio}")

    @property
    def cov_mode(self):
        return SHARED if self.method.endswith("_cov") else PER_LANGUAGE

    @property
    def base_rule(self):
        return self.method.removesuffix("_cov")


@dataclass(frozen=True)
class MergedDelta:
    """One layer's merged perturbation plus provenance."""

    layer: int
    matrix: np.ndarray  # (d, h)
    method: str
    rank_ratio: float
    language_ids: tuple[int, ...]

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise ShapeError("merged delta must be a matrix")
        object.__setattr__(self, "matrix", matrix)


def _stack(deltas):
    mats = [np.asarray(m, dtype=float) for m in deltas]
    if not mats:
        raise ShapeError("merge needs at least one delta")
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise ShapeError(f"delta shape mismatch: {m.shape} vs {shape}")
    return mats


def merge_sum(deltas, layer=-1, language_ids=()):
    """Elementwise sum in the given (ascending language) order."""
    mats = _stack(deltas)
    total = np.zeros_like(mats[0])
    for m in mats:
        total = total + m
    return MergedDelta(
        layer=layer, matrix=total, method="sum", rank_ratio=1.0, language_ids=tuple(language_ids)
    )


def merge_mean(deltas, layer=-1, language_ids=()):
    """Elementwise sum scaled by 1/m."""
    mats = _stack(deltas)
    merged = merge_sum(mats, layer=layer, language_ids=language_ids)
    return MergedDelta(
        layer=layer,
        matrix=merged.matrix / len(mats),
        method="mean",
        rank_ratio=1.0,
        language_ids=merged.language_ids,
    )


def _svd(matrix):
    """Thin SVD by LAPACK ``gesdd``, falling back to ``gesvd`` when it fails.

    ``gesdd`` fails to converge on some rank-deficient deltas (seen on
    alphaedit edits at d=128, rank ``n_facts``) that ``gesvd`` factors to
    machine precision.
    """
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")


def _retained_rank(shape, rank_ratio):
    """``k = floor(rank_ratio * d)`` capped at ``min(d, h)``; k < 1 raises."""
    d, h = shape
    if not 0 < rank_ratio <= 1:
        raise RankRatioError(f"rank_ratio must lie in (0, 1], got {rank_ratio}")
    k = int(np.floor(rank_ratio * d))
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


def delta_factors(delta_set):
    """Thin SVD of every delta, ``{layer: (u, s, vt) per language}``.

    :func:`merge` slices these at any rank ratio, so a tsvm rank sweep
    factors each delta once instead of once per grid point.
    """
    return {
        layer: tuple(_svd(m) for m in delta_set.layer_deltas(layer))
        for layer in delta_set.layers
    }


def _orthogonal_polar_factor(matrix):
    """Nearest matrix with orthonormal columns (rows if wide), via SVD."""
    u, _, vt = _svd(matrix)
    return u @ vt


def merge_tsvm(deltas, rank_ratio, layer=-1, language_ids=(), factors=None):
    """Truncate, concatenate across languages, re-orthogonalize, reconstruct.

    Left factors concatenate column-wise and right factors row-wise, with the
    retained singular values forming a block diagonal; both stacked factors
    are replaced by their orthogonal polar factor before reconstruction.  An
    over-complete concatenation (m * k exceeding min(d, h)) is allowed.
    ``factors``, the thin SVDs of ``deltas`` in order, are sliced when given
    instead of factoring each delta again.
    """
    mats = _stack(deltas)
    k = _retained_rank(mats[0].shape, rank_ratio)
    if factors is None:
        factors = [_svd(m) for m in mats]
    lefts, sigmas, rights = zip(*(_truncate(f, k) for f in factors))
    left_cat = np.hstack(lefts)
    sigma_cat = np.concatenate(sigmas)
    right_cat = np.vstack(rights)
    left_merged = _orthogonal_polar_factor(left_cat)
    right_merged = _orthogonal_polar_factor(right_cat)
    merged = (left_merged * sigma_cat) @ right_merged
    return MergedDelta(
        layer=layer,
        matrix=merged,
        method="tsvm",
        rank_ratio=float(rank_ratio),
        language_ids=tuple(language_ids),
    )


def merge(config, delta_set, factors=None):
    """Merge a delta set layer by layer according to ``config``.

    The delta set's covariance mode must match the method suffix: the plain
    rules take per-language-covariance deltas, the ``*_cov`` rules take
    shared-covariance deltas.  The tsvm rules slice ``factors`` (from
    :func:`delta_factors` on the same delta set) when given.

    Returns
    -------
    dict mapping 1-based layer -> MergedDelta
    """
    if delta_set.cov_mode != config.cov_mode:
        raise ConfigError(
            f"merge method {config.method!r} needs deltas with {config.cov_mode!r} covariance, "
            f"got {delta_set.cov_mode!r}"
        )
    merged = {}
    for layer in delta_set.layers:
        mats = delta_set.layer_deltas(layer)
        langs = delta_set.language_ids
        if config.base_rule == "sum":
            out = merge_sum(mats, layer=layer, language_ids=langs)
        elif config.base_rule == "mean":
            out = merge_mean(mats, layer=layer, language_ids=langs)
        else:
            out = merge_tsvm(
                mats,
                config.rank_ratio,
                layer=layer,
                language_ids=langs,
                factors=None if factors is None else factors[layer],
            )
        merged[layer] = MergedDelta(
            layer=layer,
            matrix=out.matrix,
            method=config.method,
            rank_ratio=out.rank_ratio,
            language_ids=out.language_ids,
        )
    return merged


def apply_update(model, merged, alpha):
    """New model with ``w_out += alpha * merged`` on each merged layer.

    ``alpha`` may be zero (the model comes back unchanged); negative scales
    are rejected.  Every merged layer must be one of the model's edit layers
    with a matching shape.
    """
    if alpha < 0:
        raise ConfigError(f"alpha must be nonnegative, got {alpha}")
    out = model
    for layer in sorted(merged):
        md = merged[layer]
        if layer not in model.edit_layers:
            raise ShapeError(f"layer {layer} is not an edit layer {model.edit_layers}")
        w_out = out.layer(layer).w_out
        if md.matrix.shape != w_out.shape:
            raise ShapeError(f"merged delta shape {md.matrix.shape} != w_out shape {w_out.shape}")
        out = out.with_w_out(layer, w_out + alpha * md.matrix)
    return out
