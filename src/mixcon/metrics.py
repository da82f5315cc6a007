"""Multi-label ranking and thresholded classification metrics.

Conventions, stated once and applied everywhere:
  - average precision ranks by descending score with ties broken by
    original sample order (stable), and a class with no positive truths
    is excluded from mAP (its AP is a NaN sentinel);
  - thresholded predictions are strict (score > threshold);
  - a per-class precision or recall with an empty denominator counts as
    1.0 toward the class-averaged means;
  - F1 is 2PR/(P+R), defined as 0.0 when P + R = 0.

Reductions over classes use math.fsum so that "equals the reference
implementation exactly" is a well-defined, order-independent statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import canonical_json
from .errors import InputError, NumericError


@dataclass(frozen=True)
class PredictionSet:
    """Confidence scores in [0, 1] paired with binary truths, one row per sample."""

    scores: np.ndarray
    truths: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        truths = np.asarray(self.truths)
        if scores.ndim != 2 or truths.shape != scores.shape:
            raise InputError("scores and truths must be matching 2-D arrays")
        if scores.shape[0] < 1 or scores.shape[1] < 1:
            raise InputError("need at least one sample and one class")
        if not np.all(np.isfinite(scores)):
            raise NumericError("non-finite scores")
        if np.any(scores < 0.0) or np.any(scores > 1.0):
            raise InputError("scores must lie in [0, 1]")
        if not ((truths == 0) | (truths == 1)).all():
            raise InputError("truths must be binary")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "truths", truths.astype(np.int64))


@dataclass(frozen=True)
class MetricsReport:
    """Seven headline numbers plus the per-class table they came from.

    The headline fields come first, in report order; ``or_`` reports
    under the key ``or``.
    """

    map: float
    cp: float
    cr: float
    cf1: float
    op: float
    or_: float
    of1: float
    per_class: tuple
    threshold: float

    def __post_init__(self):
        for name, value in self.headline().items():
            if not (0.0 <= value <= 1.0 or (name == "map" and math.isnan(value))):
                raise InputError(f"{name} outside [0, 1]")
        if abs(self.cf1 - _f1(self.cp, self.cr)) > 1e-12:
            raise InputError("cf1 inconsistent with cp and cr")
        if abs(self.of1 - _f1(self.op, self.or_)) > 1e-12:
            raise InputError("of1 inconsistent with op and or_")

    def headline(self) -> dict[str, float]:
        """The seven headline numbers under their report keys, in report order."""
        return {key: getattr(self, f.name) for key, f in zip(HEADLINE, fields(self))}


# Report keys of the seven fields MetricsReport declares first.
HEADLINE = tuple(f.name.rstrip("_") for f in fields(MetricsReport)[:7])


def _f1(p: float, r: float) -> float:
    return (2.0 * p * r) / (p + r) if p + r else 0.0


def average_precision(scores, truths) -> float:
    """AP of one class: mean precision at the rank of each positive.

    A class without positives has no defined AP and returns NaN so the
    caller can exclude it from mAP.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths)
    if scores.ndim != 1 or truths.shape != scores.shape:
        raise InputError("average_precision expects aligned 1-D arrays")
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite scores")
    if not ((truths == 0) | (truths == 1)).all():
        raise InputError("truths must be binary")
    hit = truths[np.argsort(-scores, kind="stable")] == 1
    if not hit.any():
        return float("nan")
    # Hits so far over 1-based rank at each hit: exact integer quotients.
    precisions = np.cumsum(hit)[hit] / (np.flatnonzero(hit) + 1)
    return math.fsum(precisions) / precisions.size


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0


def pr_f1_report(preds: PredictionSet, threshold: float = 0.5) -> MetricsReport:
    """Class-averaged and pooled precision/recall/F1 at a strict threshold."""
    if not 0.0 < threshold < 1.0:
        raise InputError("threshold must lie in (0, 1)")
    scores, truths = preds.scores, preds.truths
    num_classes = scores.shape[1]
    predicted = scores > threshold
    positive = truths == 1
    tp, fp, fn = (
        np.count_nonzero(hits, axis=0).tolist()
        for hits in (predicted & positive, predicted & ~positive, ~predicted & positive)
    )
    per_class = []
    for k in range(num_classes):
        precision = _ratio(tp[k], tp[k] + fp[k])
        recall = _ratio(tp[k], tp[k] + fn[k])
        per_class.append(
            {
                "ap": average_precision(scores[:, k], truths[:, k]),
                "precision": precision,
                "recall": recall,
                "f1": _f1(precision, recall),
            }
        )
    aps = [row["ap"] for row in per_class if not math.isnan(row["ap"])]
    cp = math.fsum(row["precision"] for row in per_class) / num_classes
    cr = math.fsum(row["recall"] for row in per_class) / num_classes
    op = _ratio(sum(tp), sum(tp) + sum(fp))
    or_ = _ratio(sum(tp), sum(tp) + sum(fn))
    return MetricsReport(
        map=math.fsum(aps) / len(aps) if aps else float("nan"),
        cp=cp,
        cr=cr,
        cf1=_f1(cp, cr),
        op=op,
        or_=or_,
        of1=_f1(op, or_),
        per_class=tuple(per_class),
        threshold=threshold,
    )


def report_to_json(report: MetricsReport, **extra) -> str:
    """Canonical JSON for machine diffing; NaN sentinels become null.

    The seven headline numbers live under a "metrics" object, keyed as
    ``MetricsReport.headline()``; provenance fields passed via ``extra``
    (config hash, seed, split) sit alongside it.
    """

    def clean(value):
        if isinstance(value, float) and math.isnan(value):
            return None
        return value

    payload = {
        "metrics": {key: clean(value) for key, value in report.headline().items()},
        "threshold": report.threshold,
        "per_class": [
            {name: clean(value) for name, value in row.items()}
            for row in report.per_class
        ],
    }
    for key, value in extra.items():
        payload[key] = value
    return canonical_json(payload)
