"""Accuracy metrics over the four probe families, plus the mono baseline.

Answers are single tokens, so each probe contributes one indicator: the
prediction either hits the expected token or it does not.  Efficacy scores
the edited requests against their new tokens, generalization the rephrases,
specificity the unrelated preserved facts against their original tokens, and
portability the one-hop probes against the new tokens.

Scoring reads a :class:`ProbeBatch`: the probes, concatenated once, with
their prefix cached on the unedited model (:func:`probe_batch`).  Every
model edited from it (runs, sweeps, mono) is scored from that prefix, in
stacks of models that run through one walk.
:func:`accuracy`, the tests' reference, scores one probe family from its own
prefix on the model it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import merging, model as model_core
from .errors import ShapeError


def is_accuracy(value):
    """Whether ``value`` is a fraction in [0, 1], as every accuracy is; NaN is not."""
    return 0.0 <= value <= 1.0


@dataclass(frozen=True)
class MetricsRow:
    """The four accuracies for one language; ``averaged`` is their mean."""

    efficacy: float
    generalization: float
    specificity: float
    portability: float

    def __post_init__(self):
        for name in ("efficacy", "generalization", "specificity", "portability"):
            value = float(getattr(self, name))
            if not is_accuracy(value):
                raise ShapeError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)

    @property
    def averaged(self):
        return (self.efficacy + self.generalization + self.specificity + self.portability) / 4

    def as_dict(self):
        return {
            "efficacy": self.efficacy,
            "generalization": self.generalization,
            "specificity": self.specificity,
            "portability": self.portability,
            "averaged": self.averaged,
        }


@dataclass(frozen=True)
class MetricsReport:
    """Per-language rows plus run metadata; rows align with ``languages``."""

    method: str
    cov_mode: str
    alpha: float
    rank_ratio: float | None
    seed: int
    languages: tuple[str, ...]
    rows: tuple[MetricsRow, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.languages):
            raise ShapeError("one metrics row per language required")

    def mean_row(self):
        """Cross-language mean of each accuracy."""
        return MetricsRow(
            efficacy=float(np.mean([r.efficacy for r in self.rows])),
            generalization=float(np.mean([r.generalization for r in self.rows])),
            specificity=float(np.mean([r.specificity for r in self.rows])),
            portability=float(np.mean([r.portability for r in self.rows])),
        )

    def to_json_dict(self):
        return {
            "method": self.method,
            "cov_mode": self.cov_mode,
            "alpha": self.alpha,
            "rank_ratio": self.rank_ratio,
            "seed": self.seed,
            "languages": list(self.languages),
            "per_language": {
                lang: row.as_dict() for lang, row in zip(self.languages, self.rows)
            },
            "mean": self.mean_row().as_dict(),
        }


def accuracy(model, inputs, expected):
    """Fraction of probe columns whose prediction equals the expected token."""
    expected = np.asarray(expected)
    if expected.size == 0:
        raise ShapeError("accuracy needs at least one probe")
    predictions = model_core.predict_batch(model, model_core.compute_prefix(model, inputs))
    return float(np.mean(predictions == expected))


def _probe_families(dataset, language_id):
    """``(inputs, expected)`` of one language's probe families, in MetricsRow order."""
    return (
        (dataset.request_inputs(language_id), dataset.new_tokens),
        (dataset.rephrase_inputs(language_id), dataset.new_tokens),
        (dataset.unrelated_inputs(language_id), dataset.unrelated_expected(language_id)),
        (dataset.hop_inputs(language_id), dataset.new_tokens),
    )


@dataclass(frozen=True)
class ProbeBatch:
    """Some languages' probes, concatenated, with their prefix on the unedited model.

    Columns run language by language, each language's four families in
    MetricsRow order; ``stops`` holds the cumulative family ends.  Models
    edited from ``prefix.base`` are scored as one stack
    (:func:`lamedit.model.predict_stack`) that starts from the cached prefix
    (``state + w_out_edited @ key`` at the first edit layer), which gives
    each model the bits of its own full forward pass.  Predictions are per
    column (the stack runs in column blocks), so each (language, family)
    gets the predictions of its own :func:`accuracy` call.  Its final states
    and scores are that call's bits only when ``n_facts`` lines up with the
    BLAS kernels' column grouping: a narrower product may take other
    kernels, and the batch's blocks need not start where a family does.  A
    batch is never written after it is built: a run's or sweep's scores read
    one batch from every thread of a :func:`lamedit.blas.spread`, each on
    one-thread kernels whose bits match a serial score's.
    """

    dataset: object  # MultilingualDataset
    language_ids: tuple[int, ...]
    prefix: model_core.Prefix
    expected: np.ndarray  # (N,)
    stops: np.ndarray  # (4 * len(language_ids),)

    @property
    def n_facts(self):
        return self.dataset.n_facts

    @property
    def m_languages(self):
        return len(self.language_ids)

    @property
    def languages(self):
        return tuple(self.dataset.languages[i] for i in self.language_ids)

    def select(self, language_ids):
        """The batch of a consecutive run of its languages, sharing this prefix's columns."""
        language_ids = tuple(language_ids)
        first = self.language_ids.index(language_ids[0])
        last = first + len(language_ids) - 1
        if self.language_ids[first : last + 1] != language_ids:
            raise ShapeError(f"languages {language_ids} are not a consecutive run of {self.language_ids}")
        start = self.stops[4 * first - 1] if first else 0
        stop = self.stops[4 * last + 3]
        return ProbeBatch(
            dataset=self.dataset,
            language_ids=language_ids,
            prefix=self.prefix.columns(start, stop),
            expected=self.expected[start:stop],
            stops=self.stops[4 * first : 4 * last + 4] - start,
        )

    def language(self, language_id):
        """The batch of one of its languages, sharing this prefix's columns."""
        return self.select((language_id,))

    def _rows(self, hits):
        """One MetricsRow per language of the batch for each model's hits, (K, N), a tuple per model.

        Each score is its family's hit count over its length, the value
        ``np.mean`` gives the family's hits.
        """
        ends = np.cumsum(hits, axis=1)[:, self.stops - 1]
        counts = np.diff(ends, axis=1, prepend=0)
        scores = (counts / np.diff(self.stops, prepend=0)).tolist()
        return tuple(
            tuple(MetricsRow(*model_scores[4 * k : 4 * k + 4]) for k in range(self.m_languages))
            for model_scores in scores
        )

    def rows(self, models):
        """One MetricsRow per language of the batch for each of ``models``, a tuple per model.

        The models run as one stack.  Each must share the prefix's unedited
        layers (:meth:`~lamedit.model.Prefix.check`), or :class:`ShapeError`
        is raised.
        """
        return self._rows(model_core.predict_stack(models, self.prefix) == self.expected)


def probe_batch(model, dataset):
    """The :class:`ProbeBatch` of every language of ``dataset`` on ``model``."""
    language_ids = tuple(range(dataset.m_languages))
    families = [f for i in language_ids for f in _probe_families(dataset, i)]
    return ProbeBatch(
        dataset=dataset,
        language_ids=language_ids,
        prefix=model_core.compute_prefix(model, np.hstack([inputs for inputs, _ in families])),
        expected=np.concatenate([expected for _, expected in families]),
        stops=np.cumsum([len(expected) for _, expected in families]),
    )


def evaluate_all(models, probes):
    """Rows for every language of ``probes``, in its language order, for each of ``models``.

    ``probes`` is a :class:`ProbeBatch` from :func:`probe_batch` on the
    unedited model every one of ``models`` was edited from.  The models are
    scored as one stack, whose walk holds one block's states for each of
    them (:func:`lamedit.model.stack_width` bounds a caller's stacks).
    """
    return probes.rows(models)


def run_mono(model, probes, delta_set, alpha=1.0):
    """Each language of ``probes`` edited with its own deltas and evaluated in that language.

    For each language this is exactly the m=1 merge pipeline.  ``delta_set``
    must hold deltas solved with per-language covariance: each language's
    entries depend only on its own requests, so they equal a
    single-language solve.  They are scaled by ``alpha`` and applied, and
    the edited models run as one stack, each on its own language's columns
    of ``probes``, a :class:`ProbeBatch` on ``model`` whose languages have
    one column count.  Returns one MetricsRow per language, in its order.
    """
    batches = [probes.language(i) for i in probes.language_ids]
    edited = [
        merging.apply_update(model, {layer: delta_set.delta(layer, i) for layer in delta_set.layers}, alpha)
        for i in probes.language_ids
    ]
    predictions = model_core.predict_stack(edited, model_core.Prefix.stack(b.prefix for b in batches))
    return tuple(batch._rows([hits == batch.expected])[0][0] for batch, hits in zip(batches, predictions))
