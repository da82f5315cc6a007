"""Two-stage pipeline orchestration and CLI behavior.

Training runs here are deliberately tiny; the heavier directional and
determinism experiments live in the acceptance suite.
"""

import ctypes
import dataclasses
import gc
import json
import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixcon import pipeline, tape
from mixcon.cli import main
from mixcon.config import (
    ContrastiveLossConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    OptimConfig,
    config_hash,
    load_config,
    save_config,
)
from mixcon.errors import InputError, NumericError
from mixcon.model import encoder_bytes, load_checkpoint
from mixcon.optim import one_cycle_lr
from mixcon.pipeline import ablate, evaluate, train_classifier, train_contrastive

from reference import PerArrayAdam


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
        loss_fn = pipeline.asl_loss_t
        calls = []

        def zero_at_step_four(weight, bias, embeddings, positive, asl):
            # A bias of -1000 rounds every p to exactly 0, so each
            # positive's log p is -inf.
            calls.append(None)
            if len(calls) == 5:
                bias = bias - 1000.0
            return loss_fn(weight, bias, embeddings, positive, asl)

        monkeypatch.setattr(pipeline, "asl_loss_t", zero_at_step_four)
        with pytest.raises(NumericError) as info:
            train_classifier(cfg, r1.checkpoint, tmp_path)
        assert str(info.value) == "loss is non-finite (classifier objective, epoch 1, step 4)"

    def test_backward_numeric_error_keeps_the_op_and_adds_where(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path)
        loss_fn = pipeline.asl_loss_t

        def infinite_slope(*args):
            # A finite value whose backward divides by sqrt(0).
            return tape.sqrt(loss_fn(*args) * 0.0) + 0.5

        monkeypatch.setattr(pipeline, "asl_loss_t", infinite_slope)
        with pytest.raises(NumericError) as info:
            train_classifier(cfg, r1.checkpoint, tmp_path)
        assert str(info.value) == (
            "non-finite gradient produced by op 'sqrt' (classifier objective, epoch 0, step 0)"
        )

    def test_a_stage_two_step_tapes_two_leaves_and_one_node(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path)
        built, steps = [], []
        init = tape.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.op)

        wrap, update = pipeline.params_to_tensors, pipeline.adam_step

        def wrap_from_scratch(*args):
            built.clear()
            return wrap(*args)

        def recording_update(*args):
            steps.append(list(built))
            return update(*args)

        monkeypatch.setattr(tape.Tensor, "__init__", counting_init)
        monkeypatch.setattr(pipeline, "params_to_tensors", wrap_from_scratch)
        monkeypatch.setattr(pipeline, "adam_step", recording_update)
        train_classifier(cfg, r1.checkpoint, tmp_path)
        assert steps == [["leaf", "leaf", "asl"]] * 6

    def test_labels_other_than_0_or_1_fail_before_the_first_step(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        r1 = train_contrastive(cfg, tmp_path)
        split = pipeline.dataset_split

        def two_in_the_labels(run_cfg):
            features, labels, train_idx, hold_idx = split(run_cfg)
            labels = labels.copy()
            labels[train_idx[-1], 0] = 2
            return features, labels, train_idx, hold_idx

        def no_step(*args):
            raise AssertionError("stage two took a step")

        monkeypatch.setattr(pipeline, "dataset_split", two_in_the_labels)
        monkeypatch.setattr(pipeline, "asl_loss_t", no_step)
        with pytest.raises(InputError, match="label entries must be 0 or 1"):
            train_classifier(cfg, r1.checkpoint, tmp_path / "two")
        assert not (tmp_path / "two").exists()

    def test_fit_wraps_the_leaves_after_adam_owns_the_parameters(self):
        # Adam trains its own copy of the trainable parameters; leaves
        # wrapped around the caller's arrays would hold values that never
        # change.
        start = np.array([1.0, -2.0, 0.5])
        params = {"w": start.copy(), "frozen": np.array([3.0])}
        frozen = params["frozen"]
        seen = []

        def batch_loss(pt, idx):
            assert sorted(pt) == ["w"]
            seen.append(pt["w"].value.copy())
            return (tape.tsum(pt["w"] * pt["w"]),)

        optim = OptimConfig(batch_size=2, peak_lr=0.1)
        pipeline._fit(
            params, optim, trainable=("w",), epochs=2, num_samples=4, drop_last=True,
            shuffle_seed=0, make_batch=lambda idx, step: idx, batch_loss=batch_loss,
            objective="toy",
        )
        expected = {"w": start.copy()}
        oracle = PerArrayAdam(expected, ("w",))
        for step, value in enumerate(seen):
            assert value.tobytes() == expected["w"].tobytes()
            oracle.step(expected, {"w": 2.0 * value}, one_cycle_lr(step, 4, optim))
        assert len(seen) == 4 and params["w"].tobytes() == expected["w"].tobytes()
        assert params["frozen"] is frozen and params["frozen"][0] == 3.0

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

    def test_stage_one_does_not_fault_its_heap_back_in_each_step(self, tmp_path):
        # Each step frees its tape graph; the next step must reuse those
        # pages instead of faulting them in again from the kernel.
        resource = pytest.importorskip("resource")
        if not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("the C library has no mallopt")
        cfg = ExperimentConfig(
            data=DataConfig(num_samples=600),
            optim=OptimConfig(batch_size=64, contrastive_epochs=2),
        )
        train_idx = pipeline.dataset_split(cfg)[2]
        steps = len(train_idx) // 64 * 2
        train_contrastive(cfg, tmp_path / "first")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_contrastive(cfg, tmp_path / "second")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 50 * steps, f"{faults / steps:.0f} minor faults per stage-one step"

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
        header, ok, failed = (
            l for l in result.table.read_text().splitlines() if not l.startswith("#")
        )
        assert header == "param,value,map,cp,cr,cf1,op,or,of1,mean_positive_set_size,status"
        assert len(ok.split(",")) == len(failed.split(",")) == len(header.split(","))
        # The failed value says why, with the objective, epoch and step.
        [message] = result.failures
        assert message.startswith("lambda=1e+308: NumericError: ")
        assert "(total objective, epoch 0, step 0)" in message

    def test_numpy_float_value_is_written_as_a_plain_float(self, tmp_path):
        # np.float64 is a float whose numpy 2 repr is "np.float64(0.3)".
        result = ablate(tiny_config(), "lambda", [np.float64(0.3), 0.0], tmp_path)
        assert [r["value"] for r in read_csv_rows(result.table)] == ["0.3", "0.0"]
        assert (tmp_path / "lambda=0.3").is_dir()

    def test_each_value_writes_the_bytes_of_an_in_process_run(self, tmp_path):
        cfg = tiny_config()
        result = ablate(cfg, "lambda", ["0.3", "0"], tmp_path / "sweep")
        assert not result.failed, result.rows
        names = (
            "contrastive.ckpt", "contrastive_loss.csv",
            "classifier.ckpt", "classifier_loss.csv", "holdout_metrics.json",
        )
        for value, lam in (("0.3", 0.3), ("0", 0.0)):
            run_cfg = dataclasses.replace(cfg, loss=dataclasses.replace(cfg.loss, lam=lam))
            here = tmp_path / f"here{value}"
            stage_one = train_contrastive(run_cfg, here)
            train_classifier(run_cfg, stage_one.checkpoint, here)
            swept = tmp_path / "sweep" / f"lambda={value}"
            assert sorted(p.name for p in swept.iterdir()) == sorted(names)
            for name in names:
                assert (swept / name).read_bytes() == (here / name).read_bytes(), (value, name)

    def test_every_value_runs_in_a_process_of_its_own(self, tmp_path, monkeypatch):
        # The forked children inherit the patched module attribute.
        train = pipeline.train_contrastive

        def recording_train(cfg, out_dir):
            result = train(cfg, out_dir)
            (Path(out_dir) / "pid").write_text(str(os.getpid()))
            return result

        monkeypatch.setattr(pipeline, "train_contrastive", recording_train)
        ablate(tiny_config(), "alpha", [0.1, 0.5, 0.9], tmp_path)
        pids = [int((tmp_path / f"alpha={v}" / "pid").read_text()) for v in (0.1, 0.5, 0.9)]
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_an_unexpected_error_in_a_value_keeps_its_type(self, tmp_path, monkeypatch):
        def broken_stage_two(cfg, checkpoint, out_dir):
            raise RuntimeError("stage two broke")

        monkeypatch.setattr(pipeline, "train_classifier", broken_stage_two)
        with pytest.raises(RuntimeError, match="stage two broke"):
            ablate(tiny_config(), "lambda", [0.3, 0.0], tmp_path)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "sweep.csv").exists()

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

    def test_underflowed_mixture_weight_is_a_numeric_failure(self, tmp_path, capsys):
        # At this learning rate a stage-one softmax weight underflows to 0
        # within the first epoch, at both λ = 0 and λ = 0.3: a runtime
        # failure (exit 4), not a config error (2).  A rate that fails only
        # late in a chaotic run would make the outcome depend on the last
        # bits of every sum along the way.
        cfg = ExperimentConfig(
            data=DataConfig(num_samples=400),
            optim=OptimConfig(peak_lr=10.0, batch_size=32, contrastive_epochs=5),
            seed=1,
        )
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, cfg)
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert "mixture weights" in err and "total objective, epoch" in err and "step" in err
        assert main([
            "ablate", "--config", str(cfg_path), "--param", "lambda",
            "--values", "0,0.3", "--out", str(tmp_path / "sweep"),
        ]) == 1
        rows = read_csv_rows(tmp_path / "sweep" / "sweep.csv")
        assert [r["status"] for r in rows] == ["failed:NumericError"] * 2

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

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("family", ["config", "io", "numeric"])
    def test_failure_is_one_stderr_line_and_its_exit_code(self, tmp_path, capsys, family):
        cfg_path = tmp_path / "cfg.json"
        if family == "config":
            cfg_path.write_text("{broken")
            code = 2
            line = ("error: config is not valid JSON: Expecting property name enclosed "
                    "in double quotes: line 1 column 2 (char 1)")
        elif family == "io":
            code, line = 3, f"i/o error: [Errno 2] No such file or directory: '{cfg_path}'"
        else:
            save_config(cfg_path, dataclasses.replace(tiny_config(), loss=ContrastiveLossConfig(lam=1e308)))
            code, line = 4, "numeric error: loss is non-finite (total objective, epoch 0, step 0)"
        out = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == code
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_sweep_value_says_why_on_stderr(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        assert main([
            "ablate", "--config", str(cfg_path), "--param", "lambda",
            "--values", "0.3,1e308", "--out", str(tmp_path / "sweep"),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "lambda=1e308: NumericError: loss is non-finite (total objective, epoch 0, step 0)"
        ]

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

    @pytest.mark.parametrize(
        "param, values, expected",
        [
            ("lambda", "0,,0.3,", "sweep value '' for lambda is not a number"),
            ("measure", "jaccard,,cosine", "unknown overlap measure ''"),
        ],
        ids=["lambda", "measure"],
    )
    def test_empty_sweep_value_is_a_config_error(self, tmp_path, capsys, param, values, expected):
        # An empty item is a typo, not a value to skip.
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "sweep"
        assert main([
            "ablate", "--config", str(cfg_path), "--param", param,
            "--values", values, "--out", str(out),
        ]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_sweep_value_is_a_config_error(self, tmp_path, capsys):
        # Both runs would write into the one directory lambda=0.3/.
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "sweep"
        assert main([
            "ablate", "--config", str(cfg_path), "--param", "lambda",
            "--values", "0.3,0,0.3", "--out", str(out),
        ]) == 2
        assert "sweep value '0.3' for lambda is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_two_spellings_of_one_sweep_value_are_a_config_error(self, tmp_path, capsys):
        # 0.3 and 0.30 parse to one config, which would be trained twice.
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "sweep"
        assert main([
            "ablate", "--config", str(cfg_path), "--param", "lambda",
            "--values", "0.3,0.30", "--out", str(out),
        ]) == 2
        assert "sweep value '0.30' for lambda is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_dataset_is_a_numeric_error_before_any_output(self, tmp_path, capsys):
        cfg = tiny_config(data=dataclasses.replace(tiny_config().data, noise_scale=1e308))
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, cfg)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "non-finite feature vector" in err and "noise_scale 1e+308" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edits, named",
        [
            ({"config.loss.lam": 7.0}, "loss.lam"),
            ({"config.seed": 42}, "seed"),
            ({"seed": 99}, "header seed"),
            ({"config.loss.lam": 7.0, "config.seed": 42, "seed": 99}, "loss.lam, seed, header seed"),
        ],
        ids=["lam", "config-seed", "header-seed", "all-three"],
    )
    def test_checkpoint_header_that_disagrees_with_its_hash_is_a_config_error(
        self, tmp_path, capsys, edits, named
    ):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        run = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(run)]) == 0
        assert main([
            "train-classifier", "--config", str(cfg_path),
            "--checkpoint", str(run / "contrastive.ckpt"), "--out", str(run),
        ]) == 0
        capsys.readouterr()
        for stage, kind in (("train-classifier", "contrastive"), ("evaluate", "classifier")):
            # Edit the header and keep its config_hash as it was.
            magic, header, data = (run / f"{kind}.ckpt").read_bytes().split(b"\n", 2)
            payload = json.loads(header)
            for dotted, value in edits.items():
                *parents, key = dotted.split(".")
                node = payload
                for name in parents:
                    node = node[name]
                node[key] = value
            bad = tmp_path / f"bad_{kind}.ckpt"
            bad.write_bytes(magic + b"\n" + json.dumps(payload).encode() + b"\n" + data)
            out = tmp_path / f"out_{kind}"
            target = out if stage == "train-classifier" else out / "eval.json"
            assert main([
                stage, "--config", str(cfg_path),
                "--checkpoint", str(bad), "--out", str(target),
            ]) == 2
            assert (
                f"checkpoint header disagrees with its config hash; fields that differ: {named}\n"
                in capsys.readouterr().err
            )
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

    def test_rejected_inputs_leave_no_output_directory(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        run = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(run)]) == 0
        capsys.readouterr()
        out = tmp_path / "rejected"
        # Another seed's checkpoint fails the config-hash check.
        assert main([
            "train-classifier", "--config", str(cfg_path), "--seed", "77",
            "--checkpoint", str(run / "contrastive.ckpt"), "--out", str(out),
        ]) == 2
        # The model's hidden sizes are tuples here and lists in the
        # checkpoint; only the seed differs.
        assert "config hash does not match this config; fields that differ: seed\n" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        # A marginal this small cannot draw a label vector with any label.
        hopeless = tiny_config(data=dataclasses.replace(tiny_config().data, marginal=1e-9))
        save_config(cfg_path, hopeless)
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "could not draw nonzero label vectors" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_in_a_float_field_is_a_config_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(dataclasses.asdict(tiny_config())))
        payload["loss"]["tau"] = True
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "must be a number, not True" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_float_in_config_file_is_a_config_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(dataclasses.asdict(tiny_config())))
        payload["optim"]["peak_lr"] = float("inf")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert "Infinity" in cfg_path.read_text()
        out = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "OptimConfig.peak_lr must be finite, not inf" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_non_finite_sweep_value_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "sweep"
        assert main([
            "ablate", "--config", str(cfg_path), "--param", "lambda",
            "--values", "0,nan", "--out", str(out),
        ]) == 2
        assert "must be finite, not nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["missing", "transposed", "renamed"])
    def test_checkpoint_tensors_that_do_not_fit_the_model_are_a_config_error(
        self, tmp_path, capsys, damage
    ):
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, tiny_config())
        run = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(run)]) == 0
        assert main([
            "train-classifier", "--config", str(cfg_path),
            "--checkpoint", str(run / "contrastive.ckpt"), "--out", str(run),
        ]) == 0
        capsys.readouterr()
        for stage, kind in (("train-classifier", "contrastive"), ("evaluate", "classifier")):
            magic, header, data = (run / f"{kind}.ckpt").read_bytes().split(b"\n", 2)
            payload = json.loads(header)
            tensors = payload["tensors"]
            cls_w = next(i for i, t in enumerate(tensors) if t["name"] == "cls.w")
            if damage == "missing":
                # Drop cls.w and its bytes; the bias after it is kept.
                offset = 8 * sum(int(np.prod(t["shape"])) for t in tensors[:cls_w])
                size = 8 * int(np.prod(tensors[cls_w]["shape"]))
                data = data[:offset] + data[offset + size:]
                del tensors[cls_w]
                named = "expected 'cls.w' of shape (8, 3), found 'cls.b' of shape (3,)"
            elif damage == "transposed":
                tensors[0]["shape"] = tensors[0]["shape"][::-1]
                named = "expected 'enc.0.w' of shape (10, 16), found 'enc.0.w' of shape (16, 10)"
            else:
                tensors[0]["name"] = "enc.0.weight"
                named = "expected 'enc.0.w' of shape (10, 16), found 'enc.0.weight'"
            bad = tmp_path / f"bad_{kind}.ckpt"
            bad.write_bytes(magic + b"\n" + json.dumps(payload).encode() + b"\n" + data)
            out = tmp_path / f"out_{kind}"
            target = out if stage == "train-classifier" else out / "eval.json"
            assert main([
                stage, "--config", str(cfg_path),
                "--checkpoint", str(bad), "--out", str(target),
            ]) == 2
            err = capsys.readouterr().err
            assert "checkpoint tensors do not fit the model" in err and named in err
            assert not out.exists()

    def test_string_threshold_is_a_config_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(dataclasses.asdict(tiny_config())))
        payload["threshold"] = "0.5"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "threshold must be a number, not '0.5'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_size_in_config_file_is_a_config_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(dataclasses.asdict(tiny_config())))
        payload["optim"]["batch_size"] = 16.5
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert main(["train-contrastive", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "16.5" in capsys.readouterr().err
        assert not out.exists()
