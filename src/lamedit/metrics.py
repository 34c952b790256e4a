"""Accuracy metrics over the four probe families, plus the mono baseline.

Answers are single tokens, so each probe contributes one indicator: the
prediction either hits the expected token or it does not.  Efficacy scores
the edited requests against their new tokens, generalization the rephrases,
specificity the unrelated preserved facts against their original tokens, and
portability the one-hop probes against the new tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import merging, model as model_core
from .errors import ShapeError


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
            if not 0.0 <= value <= 1.0:
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
    predictions = model_core.predict_batch(model, inputs)
    return float(np.mean(predictions == expected))


def _probe_families(dataset, language_id):
    """``(inputs, expected)`` of one language's probe families, in MetricsRow order."""
    return (
        (dataset.request_inputs(language_id), dataset.new_tokens),
        (dataset.rephrase_inputs(language_id), dataset.new_tokens),
        (dataset.unrelated_inputs(language_id), dataset.unrelated_expected(language_id)),
        (dataset.hop_inputs(language_id), dataset.new_tokens),
    )


def _evaluate_languages(model, dataset, language_ids):
    """Rows for ``language_ids`` from one prediction over all of their probes.

    Predictions are per column, so one forward over the concatenated probe
    families gives the same hits as one forward per family.
    """
    families = [f for i in language_ids for f in _probe_families(dataset, i)]
    predictions = model_core.predict_batch(model, np.hstack([inputs for inputs, _ in families]))
    hits = predictions == np.concatenate([expected for _, expected in families])
    bounds = np.cumsum([len(expected) for _, expected in families])[:-1]
    scores = [float(np.mean(segment)) for segment in np.split(hits, bounds)]
    return tuple(MetricsRow(*scores[4 * k : 4 * k + 4]) for k in range(len(language_ids)))


def evaluate(model, dataset, language_id):
    """All four accuracies for one language."""
    return _evaluate_languages(model, dataset, (language_id,))[0]


def evaluate_all(model, dataset):
    """Rows for every language, ascending language order."""
    return _evaluate_languages(model, dataset, range(dataset.m_languages))


def run_mono(model, dataset, delta_set, language_id, alpha=1.0):
    """Edit with a single language's own deltas and evaluate in that language.

    This is exactly the m=1 merge pipeline.  ``delta_set`` must hold deltas
    solved with per-language covariance: each language's entries depend only
    on its own requests, so they equal a single-language solve.  They are
    scaled by ``alpha``, applied, and scored.
    """
    own = {
        layer: merging.MergedDelta(
            layer=layer,
            matrix=delta_set.delta(layer, language_id).delta,
            method="sum",
            rank_ratio=1.0,
            language_ids=(language_id,),
        )
        for layer in delta_set.layers
    }
    edited = merging.apply_update(model, own, alpha)
    return evaluate(edited, dataset, language_id)
