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
from dataclasses import dataclass

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
        if not np.isin(truths, (0, 1)).all():
            raise InputError("truths must be binary")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "truths", truths.astype(np.int64))


@dataclass(frozen=True)
class MetricsReport:
    """Seven headline numbers plus the per-class table they came from."""

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
        for name in ("cp", "cr", "cf1", "op", "or_", "of1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{name} outside [0, 1]")
        if not (math.isnan(self.map) or 0.0 <= self.map <= 1.0):
            raise InputError("map outside [0, 1]")
        if abs(self.cf1 - _f1(self.cp, self.cr)) > 1e-12:
            raise InputError("cf1 inconsistent with cp and cr")
        if abs(self.of1 - _f1(self.op, self.or_)) > 1e-12:
            raise InputError("of1 inconsistent with op and or_")


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
    if not np.isin(truths, (0, 1)).all():
        raise InputError("truths must be binary")
    hit = truths[np.argsort(-scores, kind="stable")] == 1
    if not hit.any():
        return float("nan")
    # Hits so far over 1-based rank at each hit: exact integer quotients.
    precisions = np.cumsum(hit)[hit] / (np.flatnonzero(hit) + 1)
    return math.fsum(precisions) / precisions.size


def pr_f1_report(preds: PredictionSet, threshold: float = 0.5) -> MetricsReport:
    """Class-averaged and pooled precision/recall/F1 at a strict threshold."""
    if not 0.0 < threshold < 1.0:
        raise InputError("threshold must lie in (0, 1)")
    scores, truths = preds.scores, preds.truths
    num_classes = scores.shape[1]
    predicted = (scores > threshold).astype(np.int64)
    per_class = []
    per_precision = []
    per_recall = []
    aps = []
    tp_total = fp_total = fn_total = 0
    for k in range(num_classes):
        tp = int(np.sum(predicted[:, k] & truths[:, k]))
        fp = int(np.sum(predicted[:, k] & (1 - truths[:, k])))
        fn = int(np.sum((1 - predicted[:, k]) & truths[:, k]))
        tp_total += tp
        fp_total += fp
        fn_total += fn
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        ap = average_precision(scores[:, k], truths[:, k])
        if not math.isnan(ap):
            aps.append(ap)
        per_precision.append(precision)
        per_recall.append(recall)
        per_class.append(
            {
                "ap": ap,
                "precision": precision,
                "recall": recall,
                "f1": _f1(precision, recall),
            }
        )
    cp = math.fsum(per_precision) / num_classes
    cr = math.fsum(per_recall) / num_classes
    op = tp_total / (tp_total + fp_total) if tp_total + fp_total else 1.0
    or_ = tp_total / (tp_total + fn_total) if tp_total + fn_total else 1.0
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

    The seven headline numbers live under a "metrics" object with exactly
    the keys map/cp/cr/cf1/op/or/of1; provenance fields passed via
    ``extra`` (config hash, seed, split) sit alongside it.
    """

    def clean(value):
        if isinstance(value, float) and math.isnan(value):
            return None
        return value

    payload = {
        "metrics": {
            "map": clean(report.map),
            "cp": report.cp,
            "cr": report.cr,
            "cf1": report.cf1,
            "op": report.op,
            "or": report.or_,
            "of1": report.of1,
        },
        "threshold": report.threshold,
        "per_class": [
            {name: clean(value) for name, value in row.items()}
            for row in report.per_class
        ],
    }
    for key, value in extra.items():
        payload[key] = value
    return canonical_json(payload)
