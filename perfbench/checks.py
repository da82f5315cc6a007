"""Correctness checks made apart from the program.

Each check recomputes an output with the benchmark's own code, or tests
a property the method promises, and raises :class:`CheckError` when the
program's output disagrees.  Nothing here compares against a stored copy
of earlier output.  The checkpoint reader, the encoder/classifier forward,
the metric formulas and the loss transcription are written out here on
purpose, so a change to the program's version cannot pass by changing
both sides at once.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REPORT_TOL = 1e-9
LOSS_RTOL = 1e-9
METRIC_KEYS = ("map", "cp", "cr", "cf1", "op", "or", "of1")


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's recomputation."""


# -- checkpoints ----------------------------------------------------------------


def read_checkpoint(path) -> tuple[dict, dict[str, bytes]]:
    """Header and raw little-endian float64 bytes of every tensor."""
    blob = Path(path).read_bytes()
    magic, header_line, data = blob.split(b"\n", 2)
    if magic != b"MIXCON1":
        raise CheckError(f"{path}: bad magic {magic!r}")
    header = json.loads(header_line)
    raw = {}
    offset = 0
    for entry in header["tensors"]:
        nbytes = 8 * math.prod(entry["shape"])
        raw[entry["name"]] = data[offset : offset + nbytes]
        offset += nbytes
    if offset != len(data):
        raise CheckError(f"{path}: {len(data) - offset} bytes after the tensors")
    return header, raw


def checkpoint_arrays(path) -> tuple[dict, dict[str, np.ndarray]]:
    header, raw = read_checkpoint(path)
    shapes = {e["name"]: tuple(e["shape"]) for e in header["tensors"]}
    return header, {
        name: np.frombuffer(data, dtype="<f8").reshape(shapes[name]) for name, data in raw.items()
    }


def check_frozen_encoder(contrastive_ckpt, classifier_ckpt) -> None:
    """Stage two leaves every ``enc.*`` byte of the stage-one checkpoint alone."""
    _, before = read_checkpoint(contrastive_ckpt)
    _, after = read_checkpoint(classifier_ckpt)
    names = sorted(n for n in before if n.startswith("enc."))
    if not names or names != sorted(n for n in after if n.startswith("enc.")):
        raise CheckError("encoder tensor names differ between the two checkpoints")
    moved = [n for n in names if before[n] != after[n]]
    if moved:
        raise CheckError(f"frozen encoder tensors changed in stage two: {moved}")


# -- metric reports ---------------------------------------------------------------


def numpy_scores(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Encoder (tanh MLP, unit-normalised output) then sigmoid classifier."""
    h = x
    layer = 0
    while f"enc.{layer}.w" in params:
        h = np.tanh(h @ params[f"enc.{layer}.w"] + params[f"enc.{layer}.b"])
        layer += 1
    h = h @ params["enc.out.w"] + params["enc.out.b"]
    h = h / np.sqrt(np.sum(h * h, axis=1, keepdims=True))
    logits = h @ params["cls.w"] + params["cls.b"]
    return 1.0 / (1.0 + np.exp(-logits))


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r else 0.0


def loop_report(scores: np.ndarray, truths: np.ndarray, threshold: float) -> dict:
    """Headline and per-class metrics from their definitions, one sample at a time.

    AP is the mean precision at the rank of each positive, ranking by
    descending score with ties in sample order; predictions are strict
    (score > threshold); an empty precision or recall denominator counts
    as 1.0.
    """
    n, c = scores.shape
    per_class, aps = [], []
    tp_all = fp_all = fn_all = 0
    for k in range(c):
        col = [float(s) for s in scores[:, k]]
        truth = [int(t) for t in truths[:, k]]
        order = sorted(range(n), key=lambda i: -col[i])
        hits, precisions = 0, []
        for rank, i in enumerate(order, start=1):
            if truth[i]:
                hits += 1
                precisions.append(hits / rank)
        ap = math.fsum(precisions) / len(precisions) if precisions else None
        if ap is not None:
            aps.append(ap)
        tp = fp = fn = 0
        for i in range(n):
            predicted = col[i] > threshold
            tp += predicted and truth[i] == 1
            fp += predicted and truth[i] == 0
            fn += (not predicted) and truth[i] == 1
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        p = tp / (tp + fp) if tp + fp else 1.0
        r = tp / (tp + fn) if tp + fn else 1.0
        per_class.append({"ap": ap, "precision": p, "recall": r, "f1": _f1(p, r)})
    cp = math.fsum(row["precision"] for row in per_class) / c
    cr = math.fsum(row["recall"] for row in per_class) / c
    op = tp_all / (tp_all + fp_all) if tp_all + fp_all else 1.0
    or_ = tp_all / (tp_all + fn_all) if tp_all + fn_all else 1.0
    return {
        "metrics": {
            "map": math.fsum(aps) / len(aps) if aps else None,
            "cp": cp,
            "cr": cr,
            "cf1": _f1(cp, cr),
            "op": op,
            "or": or_,
            "of1": _f1(op, or_),
        },
        "per_class": per_class,
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REPORT_TOL


def check_report(report_path, classifier_ckpt, features, labels, idx, *, split, cfg_hash) -> dict:
    """The written report equals one recomputed from the checkpoint tensors.

    Returns the written report.
    """
    written = json.loads(Path(report_path).read_text())
    header, params = checkpoint_arrays(classifier_ckpt)
    expected = loop_report(numpy_scores(params, features[idx]), labels[idx], written["threshold"])
    if written["split"] != split or written["config_hash"] != cfg_hash:
        raise CheckError(f"{report_path}: split or config hash is not {split!r}, {cfg_hash[:12]}")
    if written["seed"] != header["seed"] or written["config_hash"] != header["config_hash"]:
        raise CheckError(f"{report_path}: seed or config hash differs from {classifier_ckpt}")
    for key in METRIC_KEYS:
        if not _close(written["metrics"][key], expected["metrics"][key]):
            raise CheckError(
                f"{report_path}: {key} {written['metrics'][key]!r}, "
                f"recomputed {expected['metrics'][key]!r}"
            )
    if len(written["per_class"]) != len(expected["per_class"]):
        raise CheckError(f"{report_path}: per-class table has the wrong length")
    for k, (got, want) in enumerate(zip(written["per_class"], expected["per_class"])):
        for key, value in want.items():
            if not _close(got[key], value):
                raise CheckError(f"{report_path}: class {k} {key} {got[key]!r}, recomputed {value!r}")
    return written


def check_above_prevalence(holdout_map: float, holdout_labels: np.ndarray) -> None:
    """A trained classifier ranks better than the mean class prevalence
    (the mAP of scores that carry no information)."""
    prevalence = float(np.mean(holdout_labels))
    if not holdout_map > prevalence:
        raise CheckError(f"holdout mAP {holdout_map!r} is not above prevalence {prevalence!r}")


# -- sweeps -----------------------------------------------------------------------


def positive_count_mean(train_labels: np.ndarray, alpha: float) -> float:
    """Mean over anchors of |{j != i : jaccard(y_i, y_j) >= alpha}|."""
    y = train_labels.astype(np.int64)
    inter = y @ y.T
    sizes = y.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    member = inter / union >= alpha
    np.fill_diagonal(member, False)
    return int(member.sum()) / len(y)


def read_sweep(path) -> list[dict]:
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_sweep(sweep_csv, values, train_labels, alpha: float) -> None:
    """Every row is ``ok``, repeats its value's holdout report exactly, and
    carries the mean positive-set size counted here."""
    rows = read_sweep(sweep_csv)
    if [row["value"] for row in rows] != list(values):
        raise CheckError(f"{sweep_csv}: rows {[r['value'] for r in rows]} for values {list(values)}")
    expected_size = positive_count_mean(train_labels, alpha)
    for row in rows:
        if row["status"] != "ok":
            raise CheckError(f"{sweep_csv}: value {row['value']} has status {row['status']!r}")
        report_path = Path(sweep_csv).parent / f"{row['param']}={row['value']}" / "holdout_metrics.json"
        report = json.loads(report_path.read_text())["metrics"]
        for key in METRIC_KEYS:
            if float(row[key]) != report[key]:
                raise CheckError(f"{sweep_csv}: value {row['value']} {key} differs from {report_path}")
        if abs(float(row["mean_positive_set_size"]) - expected_size) > 1e-12:
            raise CheckError(
                f"{sweep_csv}: value {row['value']} mean_positive_set_size "
                f"{row['mean_positive_set_size']}, counted {expected_size!r}"
            )


# -- determinism ------------------------------------------------------------------


def tree_digest(root) -> dict[str, str]:
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_identical(rep_dirs) -> None:
    """Every repeat of a workload wrote the same files with the same bytes."""
    first = tree_digest(rep_dirs[0])
    if not first:
        raise CheckError(f"{rep_dirs[0]}: no artifacts")
    for other in rep_dirs[1:]:
        digest = tree_digest(other)
        if digest != first:
            differ = sorted(set(first.items()) ^ set(digest.items()))
            raise CheckError(f"{other} differs from {rep_dirs[0]}: {differ[:4]}")


# -- losses -----------------------------------------------------------------------


def _logsumexp(xs) -> float:
    top = max(xs)
    return top + math.log(math.fsum(math.exp(x - top) for x in xs))


def loop_nll(w, m, v, z) -> float:
    """Sum over rows of -log sum_k w_k N(z; m_k * 1, v_k * I)."""
    b, c = w.shape
    n = z.shape[1]
    total = []
    for i in range(b):
        terms = []
        for k in range(c):
            sq = math.fsum((z[i, d] - m[i, k]) ** 2 for d in range(n))
            terms.append(
                math.log(w[i, k]) - 0.5 * n * math.log(2.0 * math.pi * v[i, k]) - sq / (2.0 * v[i, k])
            )
        total.append(-_logsumexp(terms))
    return math.fsum(total)


def _cross(w, m, v, i, j, n) -> float:
    """Closed-form integral of the product of mixtures i and j, whose
    components are isotropic Gaussians in n dimensions with scalar means."""
    acc = []
    for k in range(w.shape[1]):
        for l in range(w.shape[1]):
            s = v[i, k] + v[j, l]
            delta = m[i, k] - m[j, l]
            acc.append(
                w[i, k] * w[j, l] * (2.0 * math.pi * s) ** (-0.5 * n)
                * math.exp(-0.5 * n * delta * delta / s)
            )
    return math.fsum(acc)


def loop_pcl(w, m, v, labels, n: int, tau: float, alpha: float) -> float:
    """Overlap-weighted contrastive loss over 2N views.

    Sim_ij is the correlation coefficient cross_ij / sqrt(cross_ii cross_jj);
    D_ij the jaccard overlap of label vectors.  Anchor i with positive set
    A(i) = {j != i : D_ij >= alpha} adds
    -(1/|A(i)|) sum_{j in A(i)} D_ij log softmax_{l != i}(Sim_il / tau)_j.
    """
    b = w.shape[0]
    cross = [[0.0] * b for _ in range(b)]
    for i in range(b):
        for j in range(i, b):
            cross[i][j] = cross[j][i] = _cross(w, m, v, i, j, n)
    y = [[int(t) for t in row] for row in labels]
    terms = []
    for i in range(b):
        logits = {
            l: cross[i][l] / math.sqrt(cross[i][i] * cross[l][l]) / tau for l in range(b) if l != i
        }
        log_denom = _logsumexp(list(logits.values()))
        positives = []
        for j in logits:
            inter = sum(a & c for a, c in zip(y[i], y[j]))
            union = sum(a | c for a, c in zip(y[i], y[j]))
            overlap = inter / union if union else 0.0
            if overlap >= alpha:
                positives.append(overlap * (logits[j] - log_denom))
        if positives:
            terms.append(-math.fsum(positives) / len(positives))
    return math.fsum(terms)


def check_losses(cfg, params: dict[str, np.ndarray], features, labels) -> None:
    """``losses.nll_loss_t`` and ``losses.pcl_loss_t`` on one contrastive batch
    agree with the loop transcription to a relative tolerance."""
    from mixcon import data, losses, model, tape

    batch = cfg.optim.batch_size
    views = data.make_contrastive_batch(features[:batch], labels[:batch], cfg.seed, cfg.augment)
    pt = model.params_to_tensors(params, trainable_prefixes=())
    h = model.encoder_forward_t(pt, tape.constant(views.views), cfg.model)
    w, m, v, z = model.mdn_forward_t(pt, h, cfg.model)
    got = {
        "nll_loss_t": float(losses.nll_loss_t(w, m, v, z).value),
        "pcl_loss_t": float(
            losses.pcl_loss_t(w, m, v, views.labels, cfg.model.mixture_dim, cfg.loss).value
        ),
    }
    w, m, v, z = w.value, m.value, v.value, z.value
    want = {
        "nll_loss_t": loop_nll(w, m, v, z),
        "pcl_loss_t": loop_pcl(
            w, m, v, views.labels, cfg.model.mixture_dim, cfg.loss.tau, cfg.loss.alpha
        ),
    }
    for name, value in got.items():
        if not math.isclose(value, want[name], rel_tol=LOSS_RTOL):
            raise CheckError(f"losses.{name} gives {value!r}, the transcription {want[name]!r}")
