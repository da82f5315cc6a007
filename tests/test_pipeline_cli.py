"""Two-stage pipeline orchestration and CLI behavior.

Training runs here are deliberately tiny; the heavier directional and
determinism experiments live in the acceptance suite.
"""

import dataclasses
import gc
import json
from pathlib import Path

import numpy as np
import pytest

from mixcon import pipeline, tape
from mixcon.cli import main
from mixcon.config import (
    DataConfig,
    ExperimentConfig,
    OptimConfig,
    config_hash,
    load_config,
    save_config,
)
from mixcon.errors import InputError, NumericError
from mixcon.losses import ContrastiveLossConfig
from mixcon.model import ModelConfig, encoder_bytes, load_checkpoint
from mixcon.pipeline import ablate, evaluate, train_classifier, train_contrastive


def tiny_config(seed=5, **overrides) -> ExperimentConfig:
    base = dict(
        data=DataConfig(num_samples=120, num_classes=3, input_dim=10, holdout_frac=0.25),
        model=ModelConfig(
            input_dim=10, encoder_hidden=(16,), embed_dim=8,
            mixture_dim=2, num_classes=3, mdn_hidden=(16, 8),
        ),
        optim=OptimConfig(batch_size=30, contrastive_epochs=2, classifier_epochs=2),
        seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


class TestPipeline:
    def test_smoke_training_reduces_total_loss(self, tmp_path):
        cfg = ExperimentConfig(
            data=DataConfig(num_samples=512, num_classes=4, input_dim=12),
            model=ModelConfig(
                input_dim=12, encoder_hidden=(32,), embed_dim=16,
                mixture_dim=3, num_classes=4, mdn_hidden=(32, 16),
            ),
            optim=OptimConfig(batch_size=64, contrastive_epochs=5, classifier_epochs=1),
            seed=1,
        )
        result = train_contrastive(cfg, tmp_path)
        assert result.last_epoch_total < result.first_epoch_total
        assert result.checkpoint.exists() and result.curve.exists()

    def test_lambda_zero_keeps_pcl_column_unweighted(self, tmp_path):
        cfg = tiny_config(loss=ContrastiveLossConfig(lam=0.0))
        result = train_contrastive(cfg, tmp_path)
        rows = read_csv_rows(result.curve)
        assert len(rows) == 2
        for row in rows:
            assert float(row["pcl"]) > 0.0
            assert float(row["total"]) == float(row["nll"])

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path / "a")
        c1 = train_classifier(cfg, r1.checkpoint, tmp_path / "a")
        r2 = train_contrastive(cfg, tmp_path / "b")
        c2 = train_classifier(cfg, r2.checkpoint, tmp_path / "b")
        for pa, pb in [
            (r1.checkpoint, r2.checkpoint),
            (r1.curve, r2.curve),
            (c1.checkpoint, c2.checkpoint),
            (c1.curve, c2.curve),
            (c1.report_path, c2.report_path),
        ]:
            assert Path(pa).read_bytes() == Path(pb).read_bytes()

    def test_stage_two_trains_only_the_head(self, tmp_path):
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path)
        c1 = train_classifier(cfg, r1.checkpoint, tmp_path)
        before = load_checkpoint(r1.checkpoint).params
        after = load_checkpoint(c1.checkpoint).params
        assert encoder_bytes(after) == encoder_bytes(before)
        mdn_keys = [k for k in before if k.startswith("mdn.")]
        assert all(np.array_equal(before[k], after[k]) for k in mdn_keys)
        cls_keys = [k for k in before if k.startswith("cls.")]
        assert any(not np.array_equal(before[k], after[k]) for k in cls_keys)

    def test_stage_two_tapes_only_the_head(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path)
        wrapped = []
        wrap = pipeline.params_to_tensors

        def recording_wrap(params, *args, **kwargs):
            pt = wrap(params, *args, **kwargs)
            wrapped.append(sorted(pt))
            return pt

        monkeypatch.setattr(pipeline, "params_to_tensors", recording_wrap)
        train_classifier(cfg, r1.checkpoint, tmp_path)
        assert len(wrapped) == 6 and wrapped == [["cls.b", "cls.w"]] * 6

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_stage_two_non_finite_loss_names_epoch_and_step(self, tmp_path, monkeypatch):
        # 90 training rows in batches of 30: three steps per epoch.
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path)
        forward = pipeline.classifier_forward_t
        calls = []

        def zero_at_step_four(pt, h):
            calls.append(None)
            probs = forward(pt, h)
            return probs * 0.0 if len(calls) == 5 else probs

        monkeypatch.setattr(pipeline, "classifier_forward_t", zero_at_step_four)
        with pytest.raises(NumericError) as info:
            train_classifier(cfg, r1.checkpoint, tmp_path)
        assert str(info.value) == "loss is non-finite (classifier objective, epoch 1, step 4)"

    def test_backward_numeric_error_keeps_the_op_and_adds_where(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path)
        forward = pipeline.classifier_forward_t

        def infinite_slope(pt, h):
            # A finite value whose backward divides by sqrt(0).
            probs = forward(pt, h)
            return tape.sqrt(probs * 0.0) + 0.5

        monkeypatch.setattr(pipeline, "classifier_forward_t", infinite_slope)
        with pytest.raises(NumericError) as info:
            train_classifier(cfg, r1.checkpoint, tmp_path)
        assert str(info.value) == (
            "non-finite gradient produced by op 'sqrt' (classifier objective, epoch 0, step 0)"
        )

    def test_no_tape_tensor_outlives_its_step(self, tmp_path, monkeypatch):
        # At each batch build the previous step's graph must already be gone.
        live = []
        build = pipeline.make_contrastive_batch

        def counting_build(*args, **kwargs):
            gc.collect()
            live.append(sum(isinstance(o, tape.Tensor) for o in gc.get_objects()))
            return build(*args, **kwargs)

        monkeypatch.setattr(pipeline, "make_contrastive_batch", counting_build)
        train_contrastive(tiny_config(), tmp_path)
        assert len(live) == 6 and live == [live[0]] * 6

    def test_overfit_toy_run_ranks_training_split_well(self, tmp_path):
        cfg = ExperimentConfig(
            data=DataConfig(
                num_samples=128, num_classes=4, input_dim=12,
                noise_scale=0.05, holdout_frac=0.25,
            ),
            model=ModelConfig(
                input_dim=12, encoder_hidden=(32,), embed_dim=24,
                mixture_dim=3, num_classes=4, mdn_hidden=(24, 12),
            ),
            optim=OptimConfig(
                peak_lr=2e-2, batch_size=16,
                contrastive_epochs=16, classifier_epochs=250,
            ),
            seed=3,
        )
        r1 = train_contrastive(cfg, tmp_path)
        c1 = train_classifier(cfg, r1.checkpoint, tmp_path)
        report = evaluate(cfg, c1.checkpoint, tmp_path / "train.json", split="train")
        assert report.map > 0.95

    def test_checkpoint_config_mismatch_rejected(self, tmp_path):
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path)
        other = tiny_config(seed=6)
        with pytest.raises(InputError):
            train_classifier(other, r1.checkpoint, tmp_path)
        c1 = train_classifier(cfg, r1.checkpoint, tmp_path)
        with pytest.raises(InputError):
            train_classifier(cfg, c1.checkpoint, tmp_path)
        with pytest.raises(InputError):
            evaluate(cfg, r1.checkpoint, tmp_path / "r.json")

    def test_evaluate_reports_and_schema(self, tmp_path):
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path)
        c1 = train_classifier(cfg, r1.checkpoint, tmp_path)
        out = tmp_path / "holdout.json"
        evaluate(cfg, c1.checkpoint, out)
        payload = json.loads(out.read_text())
        assert set(payload["metrics"]) == {"map", "cp", "cr", "cf1", "op", "or", "of1"}
        assert payload["config_hash"] == config_hash(cfg)
        assert payload["seed"] == cfg.seed
        evaluate(cfg, c1.checkpoint, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == out.read_bytes()
        evaluate(cfg, c1.checkpoint, tmp_path / "train.json", split="train")
        assert (tmp_path / "train.json").read_text() != out.read_text()
        with pytest.raises(InputError):
            evaluate(cfg, c1.checkpoint, tmp_path / "x.json", split="test")


class TestAblate:
    def test_alpha_sweep_surfaces_nesting(self, tmp_path):
        cfg = tiny_config()
        result = ablate(cfg, "alpha", [0.1, 0.5, 0.9], tmp_path)
        assert not result.failed
        rows = read_csv_rows(result.table)
        assert [r["status"] for r in rows] == ["ok", "ok", "ok"]
        sizes = [float(r["mean_positive_set_size"]) for r in rows]
        assert sizes[0] >= sizes[1] >= sizes[2]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_partial_failure_marks_row_and_continues(self, tmp_path):
        cfg = tiny_config()
        result = ablate(cfg, "lambda", [0.3, 1e308], tmp_path)
        assert result.failed
        rows = read_csv_rows(result.table)
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("failed:")

    def test_sweep_validation(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(InputError):
            ablate(cfg, "batch_size", [16, 32], tmp_path)
        with pytest.raises(InputError):
            ablate(cfg, "tau", [0.2], tmp_path)
        with pytest.raises(InputError):
            ablate(cfg, "alpha", [0.2, 1.5], tmp_path)


class TestCli:
    def test_full_flow(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main([
            "train-classifier", "--config", str(cfg_path),
            "--checkpoint", str(out / "contrastive.ckpt"), "--out", str(out),
        ]) == 0
        report_path = tmp_path / "report.json"
        assert main([
            "evaluate", "--config", str(cfg_path),
            "--checkpoint", str(out / "classifier.ckpt"), "--out", str(report_path),
        ]) == 0
        payload = json.loads(report_path.read_text())
        assert set(payload["metrics"]) == {"map", "cp", "cr", "cf1", "op", "or", "of1"}
        assert main([
            "ablate", "--config", str(cfg_path), "--param", "measure",
            "--values", "jaccard,cosine", "--out", str(tmp_path / "sweep"),
        ]) == 0
        rows = read_csv_rows(tmp_path / "sweep" / "sweep.csv")
        assert [r["value"] for r in rows] == ["jaccard", "cosine"]
        assert all(r["status"] == "ok" for r in rows)
        assert "mAP" in capsys.readouterr().out

    def test_write_config_round_trips_defaults(self, tmp_path):
        path = tmp_path / "default.json"
        assert main(["write-config", "--out", str(path)]) == 0
        assert load_config(path) == ExperimentConfig()

    def test_seed_override_is_recorded(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config(seed=5))
        out = tmp_path / "run"
        assert main([
            "train-contrastive", "--config", str(cfg_path),
            "--seed", "9", "--out", str(out),
        ]) == 0
        ckpt = load_checkpoint(out / "contrastive.ckpt")
        assert ckpt.seed == 9
        assert ckpt.config_hash == config_hash(tiny_config(seed=9))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "run"
        # 3: missing config file (I/O family)
        assert main(["train-contrastive", "--config", str(tmp_path / "no.json"), "--out", str(out)]) == 3
        # 2: malformed config
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["train-contrastive", "--config", str(bad), "--out", str(out)]) == 2
        # 2: cross-field violation
        payload = json.loads(Path(cfg_path).read_text())
        payload["model"]["input_dim"] = 99
        bad.write_text(json.dumps(payload))
        assert main(["train-contrastive", "--config", str(bad), "--out", str(out)]) == 2
        # 4: numeric blowup
        boom = dataclasses.replace(tiny_config(), loss=ContrastiveLossConfig(lam=1e308))
        boom_path = tmp_path / "boom.json"
        save_config(boom_path, boom)
        assert main(["train-contrastive", "--config", str(boom_path), "--out", str(out)]) == 4
        # 1: sweep with one failing value
        assert main([
            "ablate", "--config", str(cfg_path), "--param", "lambda",
            "--values", "0.3,1e308", "--out", str(tmp_path / "psweep"),
        ]) == 1
        # 2: checkpoint/config mismatch
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main([
            "train-classifier", "--config", str(cfg_path), "--seed", "77",
            "--checkpoint", str(out / "contrastive.ckpt"), "--out", str(out),
        ]) == 2
        capsys.readouterr()

    def test_non_numeric_sweep_value_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "sweep"
        assert main([
            "ablate", "--config", str(cfg_path), "--param", "lambda",
            "--values", "0.3,abc", "--out", str(out),
        ]) == 2
        assert "abc" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_checkpoint_header_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 0
        magic, header, data = (out / "contrastive.ckpt").read_bytes().split(b"\n", 2)
        payload = json.loads(header)
        del payload["tensors"]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(magic + b"\n" + json.dumps(payload).encode() + b"\n" + data)
        assert main([
            "train-classifier", "--config", str(cfg_path),
            "--checkpoint", str(bad), "--out", str(out),
        ]) == 2
        assert "malformed checkpoint header" in capsys.readouterr().err

    def test_bad_seed_in_config_file_is_a_config_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(dataclasses.asdict(tiny_config())))
        payload["seed"] = "abc"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "malformed experiment config" in capsys.readouterr().err
