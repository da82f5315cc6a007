"""Spans around calls into mixcon's public functions, installed from outside.

:meth:`Tracer.install` replaces each function named in :data:`WRAPPED`,
in every ``mixcon`` module namespace that holds it, by a wrapper that
records a span: name, start, end, the span that caused it, and the
``tape.Tensor`` count and value bytes at start and end (the
``Tensor`` constructor is wrapped to count).  Spans stay in memory until
:func:`layer_metrics` turns them into per-layer figures.  A function that
a later change removes or renames is skipped: its span goes missing and
the metrics that need it read 0.
"""

from __future__ import annotations

import statistics
import sys
import time

WRAPPED = {
    "pipeline": ("train_contrastive", "train_classifier", "evaluate", "ablate", "dataset_split"),
    "data": ("generate_synthetic", "make_contrastive_batch"),
    "model": (
        "params_to_tensors",
        "encoder_forward_t",
        "mdn_forward_t",
        "encoder_forward",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "losses": ("nll_loss_t", "pcl_loss_t", "similarity_matrix_t", "total_loss_t", "asl_loss_t"),
    "overlap": ("overlap_matrix", "positive_sets"),
    "tape": ("backward",),
    "optim": ("adam_step", "one_cycle_lr"),
    "metrics": ("pr_f1_report",),
}
# ablate, total_loss_t and one_cycle_lr feed no metric of their own: their
# spans keep their time out of the self time of the loop that calls them.

UNITS = {
    "pipeline.train_contrastive_s": "s",
    "pipeline.train_classifier_s": "s",
    "pipeline.evaluate_s": "s",
    "pipeline.stage1_step_ms.p50": "ms",
    "pipeline.stage1_step_ms.tail": "ms",
    "pipeline.stage1_self_ms": "ms",
    "pipeline.dataset_split_s": "s",
    "data.make_contrastive_batch_ms": "ms/step",
    "data.generate_synthetic_s": "s",
    "model.params_to_tensors_ms": "ms/step",
    "model.encoder_forward_t_ms": "ms/step",
    "model.mdn_forward_t_ms": "ms/step",
    "model.encoder_forward_s": "s",
    "model.save_checkpoint_ms": "ms",
    "model.load_checkpoint_ms": "ms",
    "losses.similarity_matrix_t_ms": "ms/step",
    "losses.pcl_loss_t_self_ms": "ms/step",
    "losses.nll_loss_t_ms": "ms/step",
    "losses.asl_loss_t_ms": "ms/step",
    "overlap.overlap_matrix_ms": "ms/step",
    "overlap.positive_sets_s": "s",
    "tape.backward_ms.stage1": "ms/step",
    "tape.backward_ms.stage2": "ms/step",
    "tape.tensors_per_step": "count",
    "tape.value_mb_per_step": "MB",
    "optim.adam_step_ms": "ms/step",
    "metrics.pr_f1_report_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Span record fields.
NAME, PARENT, START, END, TENSORS0, TENSORS1, BYTES0, BYTES1 = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._tensors = [0, 0]  # Tensor constructions, bytes of their values
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mixcon" or n.startswith("mixcon.")]
        for module_name, names in WRAPPED.items():
            module = sys.modules[f"mixcon.{module_name}"]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        tensor = sys.modules["mixcon.tape"].Tensor
        self._patches.append((tensor, "__init__", tensor.__init__))
        tensor.__init__ = self._counting_init(tensor.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _counting_init(self, original):
        counts = self._tensors

        def init(tensor, *args, **kwargs):
            original(tensor, *args, **kwargs)
            counts[0] += 1
            counts[1] += tensor.value.nbytes

        return init

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self._tensors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, counts[0], 0, counts[1], 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                span[TENSORS1], span[BYTES1] = counts
                stack.pop()

        return wrapper


def _duration(span) -> float:
    return span[END] - span[START]


def layer_metrics(spans: list[list], repeats: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer figures from the spans of ``repeats`` traced repeats, and the
    step counts they rest on.

    ``*_s`` figures are seconds per repeat, summed over calls.  ``*_ms``
    figures of a step are milliseconds per stage-one step (or per stage-two
    step for ``asl_loss_t`` and ``backward_ms.stage2``) spent in that layer.
    A stage-one step runs from the start of ``make_contrastive_batch`` to
    the end of the step's ``adam_step``.  Layers that do not run read 0.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(index)

    def self_time(index: int) -> float:
        return _duration(spans[index]) - sum(_duration(spans[c]) for c in children.get(index, ()))

    # Stage-one steps, and which spans fall inside one.
    steps, loop_self, tensors, value_bytes = [], [], [], []
    stage_of: dict[int, int] = {}
    for index, span in enumerate(spans):
        if span[NAME] == "pipeline.train_classifier":
            for c in _descendants(children, index):
                stage_of[c] = 2
        if span[NAME] != "pipeline.train_contrastive":
            continue
        first = last = None
        step = None  # [first span of the step, time inside wrapped calls]
        for c in children.get(index, ()):
            s = spans[c]
            if s[NAME] == "data.make_contrastive_batch":
                step = [s, 0.0]
            if step is None:
                continue
            step[1] += _duration(s)
            if s[NAME] == "optim.adam_step":
                begin = step[0]
                duration = s[END] - begin[START]
                steps.append(duration)
                loop_self.append(duration - step[1])
                tensors.append(s[TENSORS1] - begin[TENSORS0])
                value_bytes.append(s[BYTES1] - begin[BYTES0])
                first = begin[START] if first is None else first
                last = s[END]
                step = None
        if first is None:
            continue
        for c in _descendants(children, index):
            if first <= spans[c][START] < last:
                stage_of[c] = 1

    def per_repeat(name: str) -> float:
        return sum(_duration(s) for s in spans if s[NAME] == name) / repeats

    def per_call_ms(name: str) -> float:
        times = [_duration(s) for s in spans if s[NAME] == name]
        return 1e3 * statistics.fmean(times) if times else 0.0

    stage_steps = {
        1: len(steps),
        2: sum(1 for i, s in enumerate(spans) if s[NAME] == "tape.backward" and stage_of.get(i) == 2),
    }

    def per_step_ms(name: str, stage: int = 1, own: bool = False) -> float:
        if not stage_steps[stage]:
            return 0.0
        total = sum(
            self_time(i) if own else _duration(s)
            for i, s in enumerate(spans)
            if s[NAME] == name and stage_of.get(i) == stage
        )
        return 1e3 * total / stage_steps[stage]

    ordered = sorted(steps)
    metrics = {
        "pipeline.train_contrastive_s": per_repeat("pipeline.train_contrastive"),
        "pipeline.train_classifier_s": per_repeat("pipeline.train_classifier"),
        "pipeline.evaluate_s": per_repeat("pipeline.evaluate"),
        "pipeline.stage1_step_ms.p50": 1e3 * statistics.median(steps) if steps else 0.0,
        # The slowest step with at least ten steps beyond it.
        "pipeline.stage1_step_ms.tail": 1e3 * ordered[-11] if len(steps) > 10 else 0.0,
        "pipeline.stage1_self_ms": 1e3 * statistics.fmean(loop_self) if steps else 0.0,
        "pipeline.dataset_split_s": per_repeat("pipeline.dataset_split"),
        "data.make_contrastive_batch_ms": per_step_ms("data.make_contrastive_batch"),
        "data.generate_synthetic_s": per_repeat("data.generate_synthetic"),
        "model.params_to_tensors_ms": per_step_ms("model.params_to_tensors"),
        "model.encoder_forward_t_ms": per_step_ms("model.encoder_forward_t"),
        "model.mdn_forward_t_ms": per_step_ms("model.mdn_forward_t"),
        "model.encoder_forward_s": per_repeat("model.encoder_forward"),
        "model.save_checkpoint_ms": per_call_ms("model.save_checkpoint"),
        "model.load_checkpoint_ms": per_call_ms("model.load_checkpoint"),
        "losses.similarity_matrix_t_ms": per_step_ms("losses.similarity_matrix_t"),
        "losses.pcl_loss_t_self_ms": per_step_ms("losses.pcl_loss_t", own=True),
        "losses.nll_loss_t_ms": per_step_ms("losses.nll_loss_t"),
        "losses.asl_loss_t_ms": per_step_ms("losses.asl_loss_t", stage=2),
        "overlap.overlap_matrix_ms": per_step_ms("overlap.overlap_matrix"),
        "overlap.positive_sets_s": per_repeat("overlap.positive_sets"),
        "tape.backward_ms.stage1": per_step_ms("tape.backward"),
        "tape.backward_ms.stage2": per_step_ms("tape.backward", stage=2),
        "tape.tensors_per_step": statistics.fmean(tensors) if steps else 0.0,
        "tape.value_mb_per_step": statistics.fmean(value_bytes) / 2**20 if steps else 0.0,
        "optim.adam_step_ms": per_step_ms("optim.adam_step"),
        "metrics.pr_f1_report_s": per_repeat("metrics.pr_f1_report"),
    }
    return metrics, {"stage1_steps": stage_steps[1], "stage2_steps": stage_steps[2]}


def _descendants(children: dict[int, list[int]], index: int):
    pending = list(children.get(index, ()))
    while pending:
        c = pending.pop()
        yield c
        pending.extend(children.get(c, ()))
