"""Spans and counters recorded from outside the library.

`Tracer.installed()` replaces each public entry point at the name its
caller resolves with a wrapper that records a span (name, start, end,
parent span, operation id), and restores every original on exit:

- `trainer` imports `compose_views`, `load_image`, `eer_threshold`, `auc`
  and `error_rates` by name, so those are patched on `crfas.trainer`;
- `model` calls `diffcore.conv2d` and the other kernels through the module
  attribute, so those are patched on `crfas.diffcore`;
- methods are patched on their class;
- per-op backward time comes from wrapping the closure handed to
  `Tape.record`.

Spans stay in memory until `write` is called. A span's self time is its
duration minus its children's. Counters that are derived from shapes
(conv FLOPs, im2col bytes, tape ops, EER candidates) are recorded at the
same boundaries.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from crfas import data, diffcore, losses, trainer
from crfas.diffcore import Tape
from crfas.model import SiameseDenseNet
from crfas.trainer import MomentumSGD

# diffcore kernels the model calls; every other taped op is a loss op.
KERNELS = ("conv2d", "batchnorm2d", "maxpool2d", "relu")

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self.ops: list[dict] = []
        self.counts: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []
        self._op = -1

    # operations: one closed-loop call, or one set-up ---------------------

    @contextmanager
    def op(self, kind: str, phase: str):
        rec = {"kind": kind, "phase": phase, "start": time.perf_counter(), "cpu_start": time.process_time()}
        self.ops.append(rec)
        outer, self._op = self._op, len(self.ops) - 1
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = time.process_time()
            self._op = outer

    # spans ------------------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        key = (self._op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, fn, before=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][_END] = time.perf_counter()
                stack.pop()

        return traced

    def _traced_conv2d(self, conv2d):
        timed = self._wrap("diffcore.conv2d.fwd", conv2d)

        def traced(x, weight, bias=None, stride=1, padding=0):
            out = timed(x, weight, bias, stride, padding)
            n, cin, h, w = x.shape
            cout, _, k, _ = weight.shape
            ho, wo = out.shape[2:]
            macs = n * cout * ho * wo * cin * k * k
            # forward, plus the weight gradient and (unless x is a leaf
            # input) the input gradient when the call was taped
            passes = 1 + (out.requires_grad + x.requires_grad if out.requires_grad else 0)
            self.count("diffcore.conv2d.flop", 2 * macs * passes)
            self.count("diffcore.conv2d.im2col_bytes", n * cin * k * k * ho * wo * x.dtype.itemsize)
            return out

        return traced

    def _targets(self):
        """(owner, attribute, span name, pre-call hook) for every wrapped entry point."""
        return [
            (data, "generate_synthetic", "data.generate_synthetic", None),
            (trainer, "load_image", "data.load_image", None),
            (trainer, "compose_views", "augment.compose_views", None),
            (SiameseDenseNet, "forward_views", "model.forward_views", None),
            (SiameseDenseNet, "encode", "model.encode", None),
            (losses, "loss_overall", "losses.loss_overall", None),
            (Tape, "backward", "diffcore.Tape.backward", None),
            (MomentumSGD, "step", "trainer.MomentumSGD.step", None),
            (trainer, "fit", "trainer.fit", None),
            (trainer, "train_step", "trainer.train_step", None),
            (trainer, "save_checkpoint", "trainer.save_checkpoint", None),
            (trainer, "evaluate", "trainer.evaluate", None),
            (trainer, "load_checkpoint", "trainer.load_checkpoint", None),
            (trainer, "score_records", "trainer.score_records",
             lambda _model, records, *a, **k: self.count("trainer.scored_samples", len(records))),
            (trainer, "eer_threshold", "metrics.eer_threshold",
             lambda dev: self.count("metrics.eer_threshold_candidates", len({s.score for s in dev}) + 1)),
            (trainer, "auc", "metrics.auc", None),
            (trainer, "error_rates", "metrics.error_rates", None),
            (diffcore, "batchnorm2d", "diffcore.batchnorm2d.fwd", None),
            (diffcore, "maxpool2d", "diffcore.maxpool2d.fwd", None),
            (diffcore, "relu", "diffcore.relu.fwd", None),
        ]

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, before in self._targets():
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, before))
            conv2d = diffcore.conv2d
            originals.append((diffcore, "conv2d", conv2d))
            diffcore.conv2d = self._traced_conv2d(conv2d)
            record = Tape.record

            def traced_record(tape, name, backward_fn):
                self.count("diffcore.tape_ops")
                record(tape, name, self._wrap(f"diffcore.{name}.bwd", backward_fn))

            originals.append((Tape, "record", record))
            Tape.record = traced_record
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def count_spans(self, kind: str, suffix: str) -> int:
        """Spans whose name ends with `suffix`, inside operations of `kind`."""
        return sum(
            1 for s in self.spans
            if s[_NAME].endswith(suffix) and s[_OP] >= 0 and self.ops[s[_OP]]["kind"] == kind
        )

    def write(self, path: Path) -> None:
        """Write the spans and operations as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, op in enumerate(self.ops):
                fh.write(json.dumps({"op": i, **op}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(tracer: Tracer, primary: str, phase: str = "traced") -> tuple[dict, list]:
    """Per-layer metrics of the `phase` operations, and the self-time ranking.

    Per-step metrics, backward self times among them, are normalised over
    the train steps of `fit` calls, per-sample ones over the records
    `evaluate` scored. `ms/item` metrics (forward self times) are normalised
    per item of the workload's primary operation: a train step when it is
    `fit`, a scored sample when it is `evaluate`.
    """
    spans, ops = tracer.spans, tracer.ops
    child = [0.0] * len(spans)
    for s in spans:
        if s[_PARENT] >= 0:
            child[s[_PARENT]] += s[_END] - s[_START]
    total: dict[tuple[str, str], float] = {}
    self_time: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    step_ms: list[float] = []
    generate_s: list[float] = []
    for i, s in enumerate(spans):
        op = ops[s[_OP]] if s[_OP] >= 0 else None
        d = s[_END] - s[_START]
        if s[_NAME] == "data.generate_synthetic" and op is not None and op["kind"] == "setup":
            generate_s.append(d)
        if op is None or op["phase"] != phase:
            continue
        key = (op["kind"], s[_NAME])
        total[key] = total.get(key, 0.0) + d
        self_time[key] = self_time.get(key, 0.0) + d - child[i]
        calls[key] = calls.get(key, 0) + 1
        if key == ("fit", "trainer.train_step"):
            step_ms.append(d * 1e3)
    counts: dict[tuple[str, str], float] = {}
    for (op_index, name), n in tracer.counts.items():
        op = ops[op_index] if op_index >= 0 else None
        if op is not None and op["phase"] == phase:
            counts[(op["kind"], name)] = counts.get((op["kind"], name), 0) + n

    def per(x, d):
        return x / d if d else 0.0

    prim_ops = [op for op in ops if op["kind"] == primary and op["phase"] == phase]
    fit_ops = [op for op in ops if op["kind"] == "fit" and op["phase"] == phase]
    fit_wall = sum(op["end"] - op["start"] for op in fit_ops)
    steps = calls.get(("fit", "trainer.train_step"), 0)
    samples = counts.get(("evaluate", "trainer.scored_samples"), 0)
    items = steps if primary == "fit" else samples
    root = "trainer.fit" if primary == "fit" else "trainer.evaluate"

    def ms(kind, name, by):
        return per(total.get((kind, name), 0.0) * 1e3, by)

    def ms_per_call(kind, name):
        return ms(kind, name, calls.get((kind, name), 0))

    deciles = statistics.quantiles(step_ms, n=10) if len(step_ms) >= 2 else [0.0] * 9
    m = {
        "data.generate_synthetic_s": (statistics.median(generate_s) if generate_s else 0.0, "s"),
        "data.load_image_calls": (per(calls.get((primary, "data.load_image"), 0), len(prim_ops)), "calls/op"),
        "data.load_image_ms": (ms(primary, "data.load_image", len(prim_ops)), "ms/op"),
        "augment.compose_views_calls_per_step": (per(calls.get(("fit", "augment.compose_views"), 0), steps), "calls/step"),
        "augment.compose_views_ms_per_step": (ms("fit", "augment.compose_views", steps), "ms/step"),
        "augment.compose_views_share": (per(total.get(("fit", "augment.compose_views"), 0.0), fit_wall), "ratio"),
        "model.forward_views_ms_per_step": (ms("fit", "model.forward_views", steps), "ms/step"),
        "model.encode_ms_per_sample": (ms("evaluate", "model.encode", samples), "ms/sample"),
        "losses.loss_overall_ms_per_step": (ms("fit", "losses.loss_overall", steps), "ms/step"),
        "diffcore.Tape.backward_ms_per_step": (ms("fit", "diffcore.Tape.backward", steps), "ms/step"),
        "diffcore.tape_ops_per_step": (per(counts.get(("fit", "diffcore.tape_ops"), 0), steps), "ops/step"),
    }
    for kernel in KERNELS:
        m[f"diffcore.{kernel}.fwd_ms"] = (per(self_time.get((primary, f"diffcore.{kernel}.fwd"), 0.0) * 1e3, items), "ms/item")
        m[f"diffcore.{kernel}.bwd_ms"] = (per(self_time.get(("fit", f"diffcore.{kernel}.bwd"), 0.0) * 1e3, steps), "ms/step")
    loss_bwd = sum(
        t for (kind, name), t in self_time.items()
        if kind == "fit" and name.endswith(".bwd") and name.split(".")[1] not in KERNELS
    )
    m.update({
        "diffcore.loss_ops.bwd_ms": (per(loss_bwd * 1e3, steps), "ms/step"),
        "diffcore.conv2d.gflop_per_step": (per(counts.get(("fit", "diffcore.conv2d.flop"), 0) / 1e9, steps), "GFLOP/step"),
        "diffcore.conv2d.im2col_mb_per_step": (per(counts.get(("fit", "diffcore.conv2d.im2col_bytes"), 0) / 1e6, steps), "MB/step"),
        "diffcore.cpu_s_per_wall_s": (per(sum(op["cpu_end"] - op["cpu_start"] for op in fit_ops), fit_wall), "ratio"),
        "trainer.train_steps": (steps, "count"),
        "trainer.train_step_ms_p50": (statistics.median(step_ms) if step_ms else 0.0, "ms"),
        "trainer.train_step_ms_p90": (deciles[8], "ms"),
        "trainer.data_wait_ms_per_step": (
            per((total.get(("fit", "augment.compose_views"), 0.0) + self_time.get(("fit", "trainer.fit"), 0.0)) * 1e3, steps),
            "ms/step",
        ),
        "trainer.MomentumSGD.step_ms_per_step": (ms("fit", "trainer.MomentumSGD.step", steps), "ms/step"),
        "trainer.save_checkpoint_ms": (ms_per_call("fit", "trainer.save_checkpoint"), "ms/call"),
        "trainer.load_checkpoint_ms": (ms_per_call("evaluate", "trainer.load_checkpoint"), "ms/call"),
        "trainer.score_records_ms": (ms("evaluate", "trainer.score_records", samples), "ms/sample"),
        "metrics.eer_threshold_ms": (ms_per_call("evaluate", "metrics.eer_threshold"), "ms/call"),
        "metrics.eer_threshold_candidates": (
            per(counts.get(("evaluate", "metrics.eer_threshold_candidates"), 0), calls.get(("evaluate", "metrics.eer_threshold"), 0)),
            "count",
        ),
        "metrics.auc_ms": (ms_per_call("evaluate", "metrics.auc"), "ms/call"),
        "metrics.error_rates_ms": (ms_per_call("evaluate", "metrics.error_rates"), "ms/call"),
        "bench.unattributed_share": (per(self_time.get((primary, root), 0.0), total.get((primary, root), 0.0)), "ratio"),
    })
    ranking = sorted(
        ((name, per(t * 1e3, items)) for (kind, name), t in self_time.items() if kind == primary),
        key=lambda item: -item[1],
    )
    return m, ranking
