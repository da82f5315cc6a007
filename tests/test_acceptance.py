"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Numeric criteria check the similarity kernel training runs,
``losses.similarity_matrix_t``, against quadrature and against the
equal-variance identity, the gradients against finite differences, the
contrastive loss against analytic fixtures and a brute-force
transcription, the metrics against a naive reference, and the asymmetric
loss against its degenerate forms.  The directional criteria run the
full two-stage pipeline on the synthetic benchmark with the contrastive
term on and off across paired seeds, then replay one seed for bit-level
determinism.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import acceptance_log
from mixcon.config import (
    AslConfig,
    ContrastiveLossConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    OptimConfig,
)
from mixcon.errors import InputError
from mixcon.losses import asl_loss_t, nll_loss_t, pcl_loss_t, similarity_matrix_t
from mixcon.metrics import PredictionSet, average_precision, pr_f1_report
from mixcon.model import encoder_forward_t, init_params, mdn_forward_t, params_to_tensors
from mixcon.overlap import overlap_matrix, positive_mask
from mixcon.pipeline import train_classifier, train_contrastive
from mixcon import tape

from reference import (
    Mixture,
    finite_diff_check,
    grads_of,
    naive_bce,
    naive_mixture_density,
    naive_pcl,
    naive_report,
    padded_blocks,
)

record = acceptance_log.record


def random_mixture(rng, max_components=5, dim=1, components=None):
    c = components if components is not None else int(rng.integers(1, max_components + 1))
    w = rng.random(c) + 0.05
    w /= w.sum()
    return Mixture(
        weights=w,
        means=rng.uniform(-5.0, 5.0, c),
        variances=rng.uniform(1.0, 4.0, c),
        dim=dim,
    )


def _stacked(mixtures):
    """(weights, means, variances) of a mixture batch as (B, C) constants,
    the smaller mixtures padded with zero-weight components."""
    return [tape.constant(block) for block in padded_blocks(mixtures)]


def _similarity(p, q):
    """The training kernel's similarity of one pair (a B=2 batch)."""
    return float(similarity_matrix_t(*_stacked([p, q]), p.dim).value[0, 1])


def _quad_overlap(p, q):
    """int p(x) q(x) dx over the line, for 1-d mixtures."""
    value, _ = quad(
        lambda x: naive_mixture_density(p.weights, p.means, p.variances, 1, [x])
        * naive_mixture_density(q.weights, q.means, q.variances, 1, [x]),
        -np.inf,
        np.inf,
        limit=200,
    )
    return value


def test_criterion_1_cross_integral_vs_quadrature():
    rng = np.random.default_rng(11)
    start = time.monotonic()
    worst = 0.0
    bounds_ok = True
    for _ in range(200):
        p = random_mixture(rng)
        q = random_mixture(rng)
        closed = _similarity(p, q)
        numeric = _quad_overlap(p, q) / math.sqrt(_quad_overlap(p, p) * _quad_overlap(q, q))
        worst = max(worst, abs(closed - numeric) / abs(numeric))
        bounds_ok = bounds_ok and 0.0 < closed <= 1.0 + 1e-12
    elapsed = time.monotonic() - start
    record(
        1,
        "closed-form similarity matches the quadrature correlation on 200 random pairs",
        worst < 0.01 and bounds_ok and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_equal_variance_identity():
    worst = 0.0
    for dim in (1, 2, 4, 8):
        for mu_a in (-2.0, -0.5, 0.0, 1.0, 3.0):
            for mu_b in (-1.5, 0.0, 0.25, 2.0):
                for var in (1.0, 1.7, 2.5, 4.0):
                    a = Mixture([1.0], [mu_a], [var], dim)
                    b = Mixture([1.0], [mu_b], [var], dim)
                    expected = math.exp(-dim * (mu_a - mu_b) ** 2 / (4.0 * var))
                    worst = max(worst, abs(_similarity(a, b) - expected))
    record(
        2,
        "equal-variance correlation equals exp(-n (d mu)^2 / (4 sigma^2))",
        worst < 1e-10,
        f"worst abs err {worst:.2e}",
    )


def _toy_total_loss(rng):
    """Random tiny model + batch; returns (params, loss_fn, param_count)."""
    mixture_dim = int(rng.integers(2, 4))
    num_classes = int(rng.integers(2, 4))
    views = int(rng.integers(2, 5)) * 2
    cfg = ModelConfig(
        input_dim=4,
        encoder_hidden=(5,),
        embed_dim=4,
        mixture_dim=mixture_dim,
        num_classes=num_classes,
        mdn_hidden=(5, 4),
    )
    params = init_params(cfg, seed=int(rng.integers(0, 2**31)))
    x = rng.standard_normal((views, 4))
    labels = rng.integers(0, 2, (views, num_classes))
    labels[labels.sum(axis=1) == 0, 0] = 1
    loss_cfg = ContrastiveLossConfig(tau=0.2, alpha=0.6, lam=0.3)

    def loss_fn(pt):
        h = encoder_forward_t(pt, tape.constant(x), cfg)
        w, m, v, z = mdn_forward_t(pt, h, cfg)
        nll = nll_loss_t(w, m, v, z)
        pcl = pcl_loss_t(w, m, v, labels, cfg.mixture_dim, loss_cfg)
        return nll + pcl * loss_cfg.lam

    return params, loss_fn, sum(v.size for v in params.values())


def test_criterion_3_gradient_suite():
    rng = np.random.default_rng(23)
    start = time.monotonic()
    worst = 0.0
    sizes_ok = True
    for _ in range(20):
        params, loss_fn, count = _toy_total_loss(rng)
        sizes_ok = sizes_ok and count <= 500
        worst = max(worst, finite_diff_check(params, loss_fn, step=1e-5))
    elapsed = time.monotonic() - start
    record(
        3,
        "total-loss gradients match finite differences on 20 toy instances",
        worst < 1e-4 and sizes_ok and elapsed < 120.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_pcl_closed_form_fixtures():
    shared = Mixture([0.6, 0.4], [0.3, -0.8], [1.2, 2.0], 3)
    identical = [shared] * 4
    labels_same = np.array([[1, 0, 1]] * 4)
    cfg_same = ContrastiveLossConfig(tau=0.2)
    value_same = float(pcl_loss_t(*_stacked(identical), labels_same, 3, cfg_same).value)
    fixture_err = abs(value_same - 4.0 * math.log(3.0))
    rng = np.random.default_rng(7)
    disjoint = [random_mixture(rng, dim=2, components=2) for _ in range(4)]
    labels_disjoint = np.eye(4, dtype=np.int64)
    cfg_disjoint = ContrastiveLossConfig()
    value_disjoint = float(
        pcl_loss_t(*_stacked(disjoint), labels_disjoint, 2, cfg_disjoint).value
    )
    record(
        4,
        "all-identical batch gives 4 log 3; all-disjoint batch gives 0",
        fixture_err < 1e-9 and value_disjoint == 0.0,
        f"identical err {fixture_err:.2e}, disjoint {value_disjoint!r}",
    )


def test_criterion_5_pcl_brute_force_equivalence():
    rng = np.random.default_rng(31)
    worst = 0.0
    for trial in range(50):
        views = int(rng.integers(2, 5)) * 2
        dim = int(rng.integers(1, 4))
        comps = int(rng.integers(1, 4))
        batch = [
            random_mixture(rng, dim=dim, components=comps) for _ in range(views)
        ]
        num_classes = int(rng.integers(2, 5))
        labels = rng.integers(0, 2, (views, num_classes))
        labels[labels.sum(axis=1) == 0, 0] = 1
        tau = float(rng.choice([0.2, 0.5, 1.0]))
        alpha = float(rng.choice([0.1, 0.4, 0.6, 0.9]))
        measure = "jaccard" if trial % 2 == 0 else "cosine"
        cfg = ContrastiveLossConfig(tau=tau, alpha=alpha, measure=measure)
        ours = float(pcl_loss_t(*_stacked(batch), labels, dim, cfg).value)
        theirs = naive_pcl(batch, labels, tau, alpha, measure)
        worst = max(worst, abs(ours - theirs))
    record(
        5,
        "contrastive loss equals a brute-force transcription on 50 instances",
        worst < 1e-10,
        f"worst abs err {worst:.2e}",
    )


def test_criterion_6_positive_set_nesting():
    rng = np.random.default_rng(41)
    nested = True
    for _ in range(200):
        num_classes = int(rng.integers(2, 5))
        batch = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, (batch, num_classes))
        labels[labels.sum(axis=1) == 0, 0] = 1
        overlap = overlap_matrix(labels, "jaccard")
        tight = positive_mask(overlap, 0.9)
        mid = positive_mask(overlap, 0.5)
        loose = positive_mask(overlap, 0.1)
        nested = nested and not (tight & ~mid).any() and not (mid & ~loose).any()
    record(
        6,
        "positive sets nest: alpha 0.9 within 0.5 within 0.1",
        nested,
    )


def test_criterion_7_metrics_oracle():
    rng = np.random.default_rng(2024)
    exact = True
    for _ in range(100):
        n = int(rng.integers(1, 51))
        c = int(rng.integers(1, 7))
        preds = PredictionSet(rng.random((n, c)), rng.integers(0, 2, (n, c)))
        report = pr_f1_report(preds, threshold=0.5)
        expected = naive_report(preds.scores, preds.truths, 0.5)
        got = {
            "map": report.map, "cp": report.cp, "cr": report.cr, "cf1": report.cf1,
            "op": report.op, "or": report.or_, "of1": report.of1,
        }
        for key, value in expected.items():
            if isinstance(value, float) and math.isnan(value):
                exact = exact and math.isnan(got[key])
            else:
                exact = exact and got[key] == value
    fixture = average_precision([0.9, 0.8, 0.1], [1, 0, 1])
    fixture_ok = math.isclose(fixture, 5.0 / 6.0, rel_tol=1e-12)
    record(
        7,
        "all seven metrics equal the naive reference exactly; AP fixture is 5/6",
        exact and fixture_ok,
    )


# -- directional experiment (criteria 8 and 9) ---------------------------------

DIRECTIONAL_SEEDS = (0, 1, 2, 3, 4)


def directional_config(seed: int, lam: float) -> ExperimentConfig:
    # noise 0.5 makes label structure hard enough to recover that the
    # contrastive term's supervision visibly helps the downstream head
    return ExperimentConfig(
        data=DataConfig(num_samples=2000, num_classes=6, input_dim=24, noise_scale=0.5),
        model=ModelConfig(
            input_dim=24, encoder_hidden=(128,), embed_dim=32,
            mixture_dim=4, num_classes=6, mdn_hidden=(128, 64),
        ),
        optim=OptimConfig(
            peak_lr=3e-3, batch_size=64,
            contrastive_epochs=10, classifier_epochs=8,
        ),
        loss=ContrastiveLossConfig(lam=lam),
        seed=seed,
    )


@pytest.fixture(scope="module")
def directional_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("directional")
    start = time.monotonic()
    results = {}
    for seed in DIRECTIONAL_SEEDS:
        for lam in (0.3, 0.0):
            cfg = directional_config(seed, lam)
            out = root / f"seed{seed}_lam{lam}"
            stage_one = train_contrastive(cfg, out)
            stage_two = train_classifier(cfg, stage_one.checkpoint, out)
            results[(seed, lam)] = {
                "out": out,
                "map": stage_two.report.map,
                "artifacts": (
                    stage_one.checkpoint, stage_one.curve,
                    stage_two.checkpoint, stage_two.curve, stage_two.report_path,
                ),
            }
    results["elapsed"] = time.monotonic() - start
    return results


def test_criterion_8_directional_improvement(directional_runs):
    with_pcl = [directional_runs[(s, 0.3)]["map"] for s in DIRECTIONAL_SEEDS]
    without = [directional_runs[(s, 0.0)]["map"] for s in DIRECTIONAL_SEEDS]
    mean_on = math.fsum(with_pcl) / len(DIRECTIONAL_SEEDS)
    mean_off = math.fsum(without) / len(DIRECTIONAL_SEEDS)
    elapsed = directional_runs["elapsed"]
    record(
        8,
        "mean holdout mAP with the contrastive term >= without, 5 paired seeds",
        mean_on >= mean_off and elapsed < 300.0,
        f"{mean_on:.4f} vs {mean_off:.4f}, {elapsed:.0f}s",
    )


def test_criterion_9_rerun_determinism(directional_runs, tmp_path):
    seed = DIRECTIONAL_SEEDS[0]
    cfg = directional_config(seed, 0.3)
    stage_one = train_contrastive(cfg, tmp_path)
    stage_two = train_classifier(cfg, stage_one.checkpoint, tmp_path)
    fresh = (
        stage_one.checkpoint, stage_one.curve,
        stage_two.checkpoint, stage_two.curve, stage_two.report_path,
    )
    original = directional_runs[(seed, 0.3)]["artifacts"]
    identical = all(
        Path(a).read_bytes() == Path(b).read_bytes()
        for a, b in zip(original, fresh)
    )
    record(
        9,
        "rerunning the first directional seed reproduces every artifact byte",
        identical,
    )


def test_criterion_10_asl_degeneracies():
    rng = np.random.default_rng(77)
    weight, bias = rng.normal(size=(5, 4)), rng.normal(size=4)
    embeddings = rng.normal(size=(6, 5))
    labels = rng.integers(0, 2, (6, 4)) == 1
    plain_cfg = AslConfig(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
    plain = asl_loss_t(tape.constant(weight), tape.constant(bias), embeddings, labels, plain_cfg)
    probs = tape.sigmoid_array(embeddings @ weight + bias)
    bce_err = abs(float(plain.value) - naive_bce(probs, labels))
    # A zero weight and this bias put every p at 0.03, under the default
    # margin of 0.05, on negatives.
    low_w, low_b = tape.leaf(np.zeros((3, 3))), tape.leaf(np.full(3, math.log(0.03 / 0.97)))
    zeros = np.zeros((2, 3), dtype=bool)
    clipped = asl_loss_t(low_w, low_b, rng.normal(size=(2, 3)), zeros, AslConfig())
    clipped_value = float(clipped.value)
    clipped_grads = grads_of(clipped, [low_w, low_b])
    clipped_ok = clipped_value == 0.0 and all(np.all(g == 0.0) for g in clipped_grads)
    record(
        10,
        "asymmetric loss degenerates to BCE; clipped negatives are flat zero",
        bce_err < 1e-12 and clipped_ok,
        f"bce err {bce_err:.2e}",
    )
