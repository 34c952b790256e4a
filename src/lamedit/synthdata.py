"""Synthetic multilingual editing benchmark.

A benchmark instance is a set of shared fact vectors, per-language orthogonal
input transforms whose mutual similarity is controlled by an overlap knob,
token assignments, and four probe families per request (the request itself,
a noisy rephrase, an unrelated preserved fact, and a one-hop variant reached
through a fixed rotation).  ``fit_initial_model`` then builds a backbone that
recalls every fact's original token by repeatedly solving the edit layers'
down-projections with the same normal-equation machinery the editors use.
Its floor, pass limit and retry count are the module's ``FIT_*`` constants.

All randomness derives from the config seed through fixed named streams, so
generation is bit-reproducible; retries after a failed fit derive fresh
streams from (seed, attempt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import covariance as cov_mod
from . import model as model_core
from .errors import ConfigError, FitError
from .solvers import LanguageRequests, solve_memit

LANGUAGE_CODES = ("en", "zh", "cz", "vi", "tr", "fr", "es", "de", "ru", "du", "pt", "th")

# Named sub-streams of the config seed.
STREAM_FACTS = 1
STREAM_TOKENS = 2
STREAM_TRANSFORMS = 3
STREAM_NOISE = 4
STREAM_PROBES = 5
STREAM_MODEL = 6

# How far the one-hop rotation travels from the identity toward a random
# rotation.  Edits are never constructed to satisfy hop probes; this keeps
# hop inputs correlated with their requests without making them rephrases.
HOP_BLEND = 0.5

FIT_RIDGE = 1e-5
FIT_MAX_PASSES = 16
FIT_STOP_AT = 0.995
FIT_FLOOR = 0.95
# build_benchmark's further attempts, each on a dataset from a derived seed.
FIT_RETRIES = 3
# Background down-projections stay small so the unfitted stack is a mild
# perturbation of the identity map; larger scales put the depth-6 stack in a
# chaotic regime where fact clusters are no longer linearly separable.
FIT_W_OUT_SCALE = 0.02
# Replacement-answer columns share a low-dimensional component (dimension
# d // NEW_TOKEN_SUBSPACE_DIV plus isotropic noise at NEW_TOKEN_NOISE).  At
# desk scale edits would otherwise span the whole value space, which buries
# the low-rank structure that editing vectors carry at language-model scale.
NEW_TOKEN_SUBSPACE_DIV = 4
NEW_TOKEN_NOISE = 0.4


@dataclass(frozen=True)
class GenConfig:
    """Benchmark shape, overlap and noise knobs, and the master seed."""

    n_facts: int = 64
    m_languages: int = 12
    d: int = 32
    h: int = 64
    n_layers: int = 6
    edit_layers: tuple[int, ...] = (2, 3, 4)
    overlap: float = 0.8
    rephrase_noise: float = 0.25
    n_preserved: int = 192
    vocab_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.n_facts < 1:
            raise ConfigError("n_facts must be >= 1")
        if self.m_languages < 1:
            raise ConfigError("m_languages must be >= 1")
        if not 0 <= self.overlap <= 1:
            raise ConfigError(f"overlap must lie in [0, 1], got {self.overlap}")
        if not (math.isfinite(self.rephrase_noise) and self.rephrase_noise >= 0):
            raise ConfigError(f"rephrase_noise must be finite and >= 0, got {self.rephrase_noise!r}")
        if self.n_preserved < 1:
            raise ConfigError("n_preserved must be >= 1")
        if self.d < 2 or self.h < self.d:
            raise ConfigError(f"need h >= d >= 2, got d={self.d}, h={self.h}")
        edit_layers = tuple(int(l) for l in self.edit_layers)
        if not edit_layers or any(b <= a for a, b in zip(edit_layers, edit_layers[1:])):
            raise ConfigError("edit_layers must be nonempty and strictly increasing")
        if edit_layers[0] < 1 or edit_layers[-1] > self.n_layers:
            raise ConfigError(f"edit_layers {edit_layers} outside 1..{self.n_layers}")
        # Old and new tokens of edited facts are kept distinct from each other
        # and from preserved-fact tokens, so metric hits are unambiguous.
        needed = 2 * self.n_facts + 1
        if self.vocab_size < needed:
            raise ConfigError(
                f"vocab_size {self.vocab_size} < {needed} distinct tokens needed "
                f"for {self.n_facts} edits plus preserved facts"
            )
        object.__setattr__(self, "edit_layers", edit_layers)

    def language_names(self):
        names = list(LANGUAGE_CODES[: self.m_languages])
        while len(names) < self.m_languages:
            names.append(f"l{len(names):02d}")
        return tuple(names)


@dataclass(frozen=True)
class MultilingualDataset:
    """Generated benchmark: facts, transforms, tokens, probe material."""

    config: GenConfig
    languages: tuple[str, ...]
    fact_vectors: np.ndarray  # (d, n) unit columns, the edited facts
    preserved_vectors: np.ndarray  # (d, p) unit columns
    old_tokens: np.ndarray  # (n,)
    new_tokens: np.ndarray  # (n,)
    preserved_tokens: np.ndarray  # (p,)
    transforms: np.ndarray  # (m, d, d) orthogonal
    hop_transform: np.ndarray  # (d, d) orthogonal
    rephrase_offsets: np.ndarray  # (m, d, n)
    unrelated_index: np.ndarray  # (m, n) indices into preserved facts

    @property
    def n_facts(self):
        return self.fact_vectors.shape[1]

    @property
    def n_preserved(self):
        return self.preserved_vectors.shape[1]

    @property
    def m_languages(self):
        return len(self.languages)

    def request_inputs(self, language_id):
        return self.transforms[language_id] @ self.fact_vectors

    def rephrase_inputs(self, language_id):
        return self.request_inputs(language_id) + self.rephrase_offsets[language_id]

    def hop_inputs(self, language_id):
        return self.hop_transform @ self.request_inputs(language_id)

    def unrelated_inputs(self, language_id):
        picks = self.unrelated_index[language_id]
        return self.transforms[language_id] @ self.preserved_vectors[:, picks]

    def unrelated_expected(self, language_id):
        return self.preserved_tokens[self.unrelated_index[language_id]]

    def preserved_inputs(self, language_id):
        return self.transforms[language_id] @ self.preserved_vectors

    def preserved_inputs_all(self):
        """Preserved inputs pooled over languages, ascending language order."""
        return np.hstack([self.preserved_inputs(i) for i in range(self.m_languages)])

    def language_requests(self, language_id):
        return LanguageRequests(
            language_id=language_id,
            inputs=self.request_inputs(language_id),
            new_tokens=self.new_tokens,
        )

    def all_language_requests(self):
        return [self.language_requests(i) for i in range(self.m_languages)]


def _random_rotation(rng, d):
    """Haar-distributed rotation (determinant +1) via QR of a Gaussian."""
    gauss = rng.standard_normal((d, d))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _rotation_log(rotation):
    log = scipy.linalg.logm(rotation)
    log = np.real(log)
    return 0.5 * (log - log.T)


def _geodesic(base, target, fraction):
    """Point ``fraction`` of the way from ``base`` to ``target`` on the rotations."""
    if fraction <= 0:
        return base.copy()
    if fraction >= 1:
        return target.copy()
    step = _rotation_log(base.T @ target)
    return base @ scipy.linalg.expm(fraction * step)


def _unit_columns(matrix):
    return matrix / np.linalg.norm(matrix, axis=0, keepdims=True)


def generate_dataset(cfg):
    """Build a benchmark instance deterministically from ``cfg.seed``."""
    d, n, p, m = cfg.d, cfg.n_facts, cfg.n_preserved, cfg.m_languages

    rng_facts = np.random.default_rng([cfg.seed, STREAM_FACTS])
    fact_vectors = _unit_columns(rng_facts.standard_normal((d, n)))
    preserved_vectors = _unit_columns(rng_facts.standard_normal((d, p)))

    rng_tokens = np.random.default_rng([cfg.seed, STREAM_TOKENS])
    perm = rng_tokens.permutation(cfg.vocab_size)
    old_tokens = perm[:n].astype(np.int64)
    new_tokens = perm[n : 2 * n].astype(np.int64)
    # Preserved facts cycle through the leftover tokens so multiplicity stays
    # even when there are more preserved facts than spare tokens.
    preserved_pool = perm[2 * n :]
    preserved_tokens = preserved_pool[np.arange(p) % preserved_pool.size].astype(np.int64)

    rng_transforms = np.random.default_rng([cfg.seed, STREAM_TRANSFORMS])
    shared = _random_rotation(rng_transforms, d)
    transforms = np.empty((m, d, d))
    for i in range(m):
        independent = _random_rotation(rng_transforms, d)
        transforms[i] = _geodesic(shared, independent, 1.0 - cfg.overlap)
    hop_transform = _geodesic(np.eye(d), _random_rotation(rng_transforms, d), HOP_BLEND)

    rng_noise = np.random.default_rng([cfg.seed, STREAM_NOISE])
    rephrase_offsets = rng_noise.standard_normal((m, d, n)) * (cfg.rephrase_noise / np.sqrt(d))

    rng_probes = np.random.default_rng([cfg.seed, STREAM_PROBES])
    unrelated_index = rng_probes.integers(0, p, size=(m, n), dtype=np.int64)

    return MultilingualDataset(
        config=cfg,
        languages=cfg.language_names(),
        fact_vectors=fact_vectors,
        preserved_vectors=preserved_vectors,
        old_tokens=old_tokens,
        new_tokens=new_tokens,
        preserved_tokens=preserved_tokens,
        transforms=transforms,
        hop_transform=hop_transform,
        rephrase_offsets=rephrase_offsets,
        unrelated_index=unrelated_index,
    )


def _all_fact_inputs(dataset):
    """Inputs and old tokens of every fact in every language, language-major."""
    all_vectors = np.hstack([dataset.fact_vectors, dataset.preserved_vectors])
    all_tokens = np.concatenate([dataset.old_tokens, dataset.preserved_tokens])
    inputs = np.hstack([dataset.transforms[i] @ all_vectors for i in range(dataset.m_languages)])
    return inputs, np.tile(all_tokens, dataset.m_languages)


def _recall_stats(model, prefix, dataset):
    """Old-token recall for edited and preserved facts, pooled over languages.

    ``prefix`` holds :func:`_all_fact_inputs`, scored as one batch.
    """
    n, width = dataset.n_facts, dataset.n_facts + dataset.n_preserved
    pred = model_core.predict_batch(model, prefix).reshape(dataset.m_languages, width)
    req_hits = int(np.sum(pred[:, :n] == dataset.old_tokens))
    pres_hits = int(np.sum(pred[:, n:] == dataset.preserved_tokens))
    return req_hits / (dataset.m_languages * n), pres_hits / (dataset.m_languages * dataset.n_preserved)


def _init_codebook(model, prefix, tokens, dataset, rng):
    """Unit codebook whose stored-fact columns sit at pre-fit activation centroids.

    The centroids average ``model``'s final states on ``prefix``, which holds
    :func:`_all_fact_inputs` with old tokens ``tokens``.  Replacement-answer columns are drawn around a shared low-dimensional
    subspace (see NEW_TOKEN_SUBSPACE_DIV); the remaining unused tokens keep
    plain random unit columns and act as distractors.
    """
    d = dataset.config.d
    codebook = _unit_columns(rng.standard_normal((d, dataset.config.vocab_size)))

    sub_dim = max(2, d // NEW_TOKEN_SUBSPACE_DIV)
    basis, _ = np.linalg.qr(rng.standard_normal((d, sub_dim)))
    n = dataset.n_facts
    low = basis @ rng.standard_normal((sub_dim, n))
    codebook[:, dataset.new_tokens] = _unit_columns(
        low + NEW_TOKEN_NOISE * rng.standard_normal((d, n))
    )

    final, _ = model_core._run_prefix(model_core._stack_weights((model,), prefix), prefix, None)
    sums = np.zeros((d, dataset.config.vocab_size))
    counts = np.zeros(dataset.config.vocab_size)
    # Language-major columns: the sums add in language order, as one pass per language would.
    np.add.at(sums.T, tokens, final.T)
    np.add.at(counts, tokens, 1.0)
    used = counts > 0
    centroids = sums[:, used] / counts[used]
    norms = np.linalg.norm(centroids, axis=0)
    ok = norms > 1e-12
    cols = np.where(used)[0][ok]
    codebook[:, cols] = centroids[:, ok] / norms[ok]
    return codebook


def fit_initial_model(cfg, dataset):
    """Backbone whose unedited predictions recall every fact's old token.

    Starts from random projections and a codebook anchored at the raw
    activation centroids of each stored token, then sweeps the edit layers
    bottom-to-top, solving each layer's down-projection with the ridge normal
    equations against the old-token targets; sweeps repeat, at most
    ``FIT_MAX_PASSES``, until recall reaches ``FIT_STOP_AT``.  Raises
    :class:`FitError` with per-pass diagnostics if the last pass's recall is
    below ``FIT_FLOOR``.

    One prefix of :func:`_all_fact_inputs` on the seed model serves the
    codebook's anchors and every pass's keys, targets and recall: the fit
    rewrites only edit layers' ``w_out``, so it holds for every model made.

    Returns ``(model, (request_recall, preserved_recall))``: the recall is
    that of the last pass, computed once on the returned model.
    """
    rng = np.random.default_rng([cfg.seed, STREAM_MODEL])
    layers = []
    for _ in range(cfg.n_layers):
        w_in = rng.standard_normal((cfg.h, cfg.d)) / np.sqrt(cfg.d)
        w_out = rng.standard_normal((cfg.d, cfg.h)) * (FIT_W_OUT_SCALE / np.sqrt(cfg.h))
        layers.append(model_core.LamLayer(w_in, w_out))
    seed_model = model_core.ToyModel(
        layers=tuple(layers),
        codebook=_unit_columns(rng.standard_normal((cfg.d, cfg.vocab_size))),
        edit_layers=cfg.edit_layers,
    )
    inputs, tokens = _all_fact_inputs(dataset)
    prefix = model_core.compute_prefix(seed_model, inputs)
    model = replace(seed_model, codebook=_init_codebook(seed_model, prefix, tokens, dataset, rng))
    identity = np.eye(cfg.h)
    history = []
    for pass_idx in range(FIT_MAX_PASSES):
        for layer in cfg.edit_layers:
            keys, targets = model_core.keys_and_targets(model, prefix, tokens, layer)
            cov_request = cov_mod.cov_per_language(keys)
            ridge = FIT_RIDGE * np.trace(cov_request) / cfg.h
            delta = solve_memit(model.layer(layer).w_out, keys, targets, identity, cov_request, ridge)
            model = model.with_w_out(layer, model.layer(layer).w_out + delta)
        recall = _recall_stats(model, prefix, dataset)
        history.append({"pass": pass_idx + 1, "request_recall": recall[0], "preserved_recall": recall[1]})
        if min(recall) >= FIT_STOP_AT:
            break
    req_recall, pres_recall = recall
    if min(recall) < FIT_FLOOR:
        raise FitError(
            f"fit recall {min(recall):.4f} below floor {FIT_FLOOR}",
            diagnostics={"history": history, "request_recall": req_recall, "preserved_recall": pres_recall},
        )
    return model, recall


def build_benchmark(cfg):
    """Generate a dataset and fit its backbone, retrying on a failed fit.

    A failed first attempt is followed by at most ``FIT_RETRIES`` more.
    Attempt ``k`` regenerates with the derived seed stream (seed, k); the
    retry path is therefore as deterministic as the first attempt.  Returns
    ``(dataset, model, info)`` where info records the attempt count and the
    achieved recall.
    """
    failures = []
    for attempt in range(FIT_RETRIES + 1):
        attempt_cfg = cfg if attempt == 0 else replace(cfg, seed=_derived_seed(cfg.seed, attempt))
        dataset = generate_dataset(attempt_cfg)
        try:
            model, (req_recall, pres_recall) = fit_initial_model(attempt_cfg, dataset)
        except FitError as exc:
            failures.append({"attempt": attempt, "diagnostics": exc.diagnostics})
            continue
        info = {
            "attempt": attempt,
            "seed": attempt_cfg.seed,
            "request_recall": req_recall,
            "preserved_recall": pres_recall,
            "failures": failures,
        }
        return dataset, model, info
    raise FitError(
        f"fit failed on {FIT_RETRIES + 1} attempts for seed {cfg.seed}",
        diagnostics={"failures": failures},
    )


def _derived_seed(seed, attempt):
    return int(np.random.SeedSequence([seed, 0xA77E, attempt]).generate_state(1)[0])
