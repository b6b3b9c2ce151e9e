"""Spans at modbind's layer boundaries, recorded from outside the package.

A traced operation replaces the module attributes through which one layer
calls another (for example `modbind.trainer.adamw_step`, the name the step
loop looks up) with wrappers that record one span per call. Every original is
put back when the operation ends, so untraced operations run the unmodified
code. Spans stay in memory and are written out once, at the end of the run.

A span is a list `[name, start, end, parent, op, info]`: `parent` is the index
of the enclosing span (-1 for a root), `op` the operation id (None for work
outside an operation), and `info` a small dict of facts about the call
(rows encoded, bytes written, whether it raised).

This module imports only the standard library, so the benchmark can pin the
BLAS thread count before NumPy is loaded.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _encode_info(source):
    def info(args, result):
        params, obs = args[0], args[1]
        widths = [out for _, out, act in params.arch.layer_plan() if act == "gelu"]
        return {"src": source, "rows": int(obs.shape[0]), "gelu": widths}

    return info


def _queries_info(args, result):
    return {"queries": int(len(args[1]))}


def _steps_info(args, result):
    return {"steps": int(result[0].step)}


def _bytes_info(args, result):
    return {"bytes": Path(args[1]).stat().st_size}


# (object whose attribute is replaced, attribute, span name, info function).
# The object is the caller's namespace: modules bind imported names at import
# time, so wrapping `modbind.trainer.encode` intercepts the trainer's calls
# and leaves the evaluation's, which go through `modbind.evaluation.encode`.
WRAPS = (
    ("modbind.contrastive", "softmax_rows", "numerics.softmax_rows", None),
    ("modbind.evaluation", "softmax_rows", "numerics.softmax_rows", None),
    ("modbind.encoders", "l2_normalize_rows", "numerics.l2_normalize_rows", None),
    ("modbind.encoders", "l2_normalize_rows_backward", "numerics.l2_normalize_rows_backward", None),
    ("modbind.trainer", "encode", "encoders.encode", _encode_info("trainer")),
    ("modbind.evaluation", "encode", "encoders.encode", _encode_info("evaluation")),
    ("modbind.trainer", "encode_backward", "encoders.encode_backward", None),
    ("modbind.trainer", "symmetric_info_nce", "contrastive.symmetric_info_nce", None),
    ("modbind.contrastive", "info_nce", "contrastive.info_nce", None),
    ("modbind.trainer", "l2_regression_loss", "contrastive.l2_regression_loss", None),
    ("modbind.cli", "train_run", "trainer.train_run", _steps_info),
    ("modbind.ablation", "train_run", "trainer.train_run", _steps_info),
    ("modbind.trainer", "adamw_step", "trainer.adamw_step", None),
    ("modbind.trainer", "clip_global_norm", "trainer.clip_global_norm", None),
    ("modbind.cli", "save_checkpoint", "trainer.save_checkpoint", _bytes_info),
    ("modbind.trainer", "save_checkpoint", "trainer.save_checkpoint", _bytes_info),
    ("modbind.cli", "load_checkpoint", "trainer.load_checkpoint", None),
    ("modbind.trainer", "load_checkpoint", "trainer.load_checkpoint", None),
    ("modbind.cli", "write_training_log", "trainer.write_training_log", None),
    ("modbind.cli", "run_eval_plan", "evaluation.run_eval_plan", None),
    ("modbind.ablation", "run_eval_plan", "evaluation.run_eval_plan", None),
    ("modbind.evaluation", "cross_modal_recall_at_k", "evaluation.cross_modal_recall_at_k", _queries_info),
    ("modbind.evaluation", "composed_retrieval_stats", "evaluation.composed_retrieval_stats", None),
    ("modbind.evaluation", "few_shot_probe", "evaluation.few_shot_probe", None),
    ("modbind.evaluation", "emergent_zero_shot_accuracy", "evaluation.emergent_zero_shot_accuracy", None),
    ("modbind.cli", "make_world", "world.make_world", None),
    ("modbind.ablation", "make_world", "world.make_world", None),
    ("modbind.trainer", "sample_training_batch", "world.sample_training_batch", None),
    ("modbind.evaluation", "make_eval_set", "world.make_eval_set", None),
    ("modbind.evaluation", "class_prototypes", "world.class_prototypes", None),
    ("modbind.cli", "parse_experiment_config", "config.parse_experiment_config", None),
    ("modbind.ablation", "parse_experiment_config", "config.parse_experiment_config", None),
    ("modbind.cli", "parse_ablation_suite", "config.parse_ablation_suite", None),
    ("modbind.ablation", "apply_axis", "config.apply_axis", None),
    ("modbind.cli", "run_ablation_suite", "ablation.run_ablation_suite", None),
    ("modbind.ablation", "run_cell", "ablation.run_cell", None),
    ("modbind.cli", "summarize", "ablation.summarize", None),
    ("modbind.cli", "write_long_csv", "ablation.write_long_csv", None),
    ("modbind.cli", "write_summary_csv", "ablation.write_summary_csv", None),
    ("modbind.report.MetricsReport", "to_json", "report.MetricsReport.to_json", None),
    ("modbind.report.MetricsReport", "to_csv", "report.MetricsReport.to_csv", None),
)

# The root span of every operation: the call into the CLI entry point.
OP_SPAN = "cli.main"


def resolve(dotted: str):
    """A module, or an attribute of one (`modbind.report.MetricsReport`)."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans while installed; restores every wrapped name on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, info: dict | None = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = info
        self._stack.pop()

    def wrap(self, fn, name: str, info=None):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, {"error": 1})
                raise
            self.end(idx)
            if info:
                self.spans[idx][5] = info(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, op=None):
        """Wrap every name in WRAPS for the duration; `op` tags the spans."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.op = op
        try:
            for owner_name, attr, name, info in WRAPS:
                owner = resolve(owner_name)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, info))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self.op = None
            self._stack.clear()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: name, start, end, parent, op, info."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["name", "start", "end", "parent", "op", "info"])
            for name, t0, t1, parent, op, info in self.spans:
                w.writerow([name, repr(t0), repr(t1), parent, "" if op is None else op,
                            json.dumps(info) if info else ""])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, edge = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], edge), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Summary:
    """Per-function and per-layer figures of the spans of `n_ops` operations.

    Counts and self times are per operation. Spans with `op` None (the
    benchmark's own checkpoint round trips) count towards per-call figures but
    not towards layer self time.
    """

    def __init__(self, spans: list[list], n_ops: int, kernels: dict | None = None,
                 overhead_ratio: float = 0.0):
        self.n_ops = max(1, n_ops)
        self.kernels = kernels or {}
        self.overhead_ratio = overhead_ratio
        self.calls_of: dict[str, list[tuple[float, dict]]] = defaultdict(list)
        self.layer_self: dict[str, float] = defaultdict(float)
        for span, self_s in zip(spans, self_times(spans)):
            name, start, end, _, op, info = span
            self.calls_of[name].append((end - start, info or {}))
            if op is not None:
                self.layer_self[layer_of(name)] += self_s

    def _select(self, name, src=None):
        calls = self.calls_of.get(name, [])
        return [c for c in calls if src is None or c[1].get("src") == src]

    def calls(self, name, src=None) -> float:
        return len(self._select(name, src)) / self.n_ops

    def per_call(self, name, scale, src=None) -> float:
        calls = self._select(name, src)
        return scale * sum(d for d, _ in calls) / len(calls) if calls else 0.0

    def info_mean(self, name, key) -> float:
        values = [i[key] for _, i in self._select(name) if key in i]
        return sum(values) / len(values) if values else 0.0

    def info_total(self, name, key) -> float:
        return sum(i.get(key, 0) for _, i in self._select(name)) / self.n_ops

    def per_item(self, name, key, scale) -> float:
        calls = self._select(name)
        items = sum(i.get(key, 0) for _, i in calls)
        return scale * sum(d for d, _ in calls) / items if items else 0.0

    def durations(self, name) -> list[float]:
        return [d for d, _ in self._select(name)]

    def self_s(self, layer) -> float:
        return self.layer_self.get(layer, 0.0) / self.n_ops


def _p50(values):
    return statistics.median(values) if values else 0.0


def _kernel(name, key):
    return lambda s: s.kernels.get(name, {}).get(key, 0.0)


# Per-layer metrics, in the order BENCHMARK.json lists them:
# (name, unit, better, value from a Summary).
METRICS = (
    ("numerics.softmax_rows.calls", "count", "lower", lambda s: s.calls("numerics.softmax_rows")),
    ("numerics.softmax_rows.us_per_call", "us", "lower",
     lambda s: s.per_call("numerics.softmax_rows", 1e6)),
    ("numerics.l2_normalize_rows.us_per_call", "us", "lower",
     lambda s: s.per_call("numerics.l2_normalize_rows", 1e6)),
    ("numerics.l2_normalize_rows_backward.us_per_call", "us", "lower",
     lambda s: s.per_call("numerics.l2_normalize_rows_backward", 1e6)),
    ("numerics.gelu_forward.kernel_us", "us", "lower", _kernel("gelu_forward", "us")),
    ("numerics.gelu_forward.flops", "flop", "lower", _kernel("gelu_forward", "flops")),
    ("numerics.gelu_forward.bytes", "B", "lower", _kernel("gelu_forward", "bytes")),
    ("numerics.gelu_backward.kernel_us", "us", "lower", _kernel("gelu_backward", "us")),
    ("numerics.gelu_backward.flops", "flop", "lower", _kernel("gelu_backward", "flops")),
    ("numerics.gelu_backward.bytes", "B", "lower", _kernel("gelu_backward", "bytes")),
    ("numerics.self_s", "s", "lower", lambda s: s.self_s("numerics")),
    ("encoders.encode.from_trainer.us_per_call", "us", "lower",
     lambda s: s.per_call("encoders.encode", 1e6, src="trainer")),
    ("encoders.encode.from_evaluation.us_per_call", "us", "lower",
     lambda s: s.per_call("encoders.encode", 1e6, src="evaluation")),
    ("encoders.encode.rows_per_call", "rows", "higher",
     lambda s: s.info_mean("encoders.encode", "rows")),
    ("encoders.encode_backward.us_per_call", "us", "lower",
     lambda s: s.per_call("encoders.encode_backward", 1e6)),
    ("encoders.self_s", "s", "lower", lambda s: s.self_s("encoders")),
    ("contrastive.symmetric_info_nce.us_per_call", "us", "lower",
     lambda s: s.per_call("contrastive.symmetric_info_nce", 1e6)),
    ("contrastive.info_nce.calls", "count", "lower", lambda s: s.calls("contrastive.info_nce")),
    ("contrastive.l2_regression_loss.us_per_call", "us", "lower",
     lambda s: s.per_call("contrastive.l2_regression_loss", 1e6)),
    ("contrastive.self_s", "s", "lower", lambda s: s.self_s("contrastive")),
    ("trainer.adamw_step.calls", "count", "lower", lambda s: s.calls("trainer.adamw_step")),
    ("trainer.adamw_step.us_per_call", "us", "lower",
     lambda s: s.per_call("trainer.adamw_step", 1e6)),
    ("trainer.clip_global_norm.us_per_call", "us", "lower",
     lambda s: s.per_call("trainer.clip_global_norm", 1e6)),
    ("trainer.steps", "count", "higher", lambda s: s.info_total("trainer.train_run", "steps")),
    ("trainer.save_checkpoint.ms_per_call", "ms", "lower",
     lambda s: s.per_call("trainer.save_checkpoint", 1e3)),
    ("trainer.save_checkpoint.bytes", "B", "lower",
     lambda s: s.info_mean("trainer.save_checkpoint", "bytes")),
    ("trainer.load_checkpoint.ms_per_call", "ms", "lower",
     lambda s: s.per_call("trainer.load_checkpoint", 1e3)),
    ("trainer.write_training_log.ms_per_call", "ms", "lower",
     lambda s: s.per_call("trainer.write_training_log", 1e3)),
    ("trainer.self_s", "s", "lower", lambda s: s.self_s("trainer")),
    ("evaluation.cross_modal_recall_at_k.us_per_query", "us", "lower",
     lambda s: s.per_item("evaluation.cross_modal_recall_at_k", "queries", 1e6)),
    ("evaluation.composed_retrieval_stats.ms_per_call", "ms", "lower",
     lambda s: s.per_call("evaluation.composed_retrieval_stats", 1e3)),
    ("evaluation.few_shot_probe.ms_per_call", "ms", "lower",
     lambda s: s.per_call("evaluation.few_shot_probe", 1e3)),
    ("evaluation.emergent_zero_shot_accuracy.ms_per_call", "ms", "lower",
     lambda s: s.per_call("evaluation.emergent_zero_shot_accuracy", 1e3)),
    ("evaluation.self_s", "s", "lower", lambda s: s.self_s("evaluation")),
    ("world.make_world.ms_per_call", "ms", "lower", lambda s: s.per_call("world.make_world", 1e3)),
    ("world.sample_training_batch.calls", "count", "lower",
     lambda s: s.calls("world.sample_training_batch")),
    ("world.sample_training_batch.ms_per_call", "ms", "lower",
     lambda s: s.per_call("world.sample_training_batch", 1e3)),
    ("world.make_eval_set.ms_per_call", "ms", "lower",
     lambda s: s.per_call("world.make_eval_set", 1e3)),
    ("world.self_s", "s", "lower", lambda s: s.self_s("world")),
    ("config.parse_experiment_config.calls", "count", "lower",
     lambda s: s.calls("config.parse_experiment_config")),
    ("config.parse_experiment_config.ms_per_call", "ms", "lower",
     lambda s: s.per_call("config.parse_experiment_config", 1e3)),
    ("config.self_s", "s", "lower", lambda s: s.self_s("config")),
    ("ablation.run_cell.s_p50", "s", "lower", lambda s: _p50(s.durations("ablation.run_cell"))),
    ("ablation.run_cell.s_max", "s", "lower",
     lambda s: max(s.durations("ablation.run_cell"), default=0.0)),
    ("ablation.cells_failed", "count", "lower", lambda s: s.info_total("ablation.run_cell", "error")),
    ("ablation.self_s", "s", "lower", lambda s: s.self_s("ablation")),
    ("cli.self_s", "s", "lower", lambda s: s.self_s("cli")),
    ("report.self_s", "s", "lower", lambda s: s.self_s("report")),
    ("trace.overhead_ratio", "ratio", "lower", lambda s: s.overhead_ratio),
)


def layer_metrics(summary: Summary) -> dict[str, float]:
    return {name: float(fn(summary)) for name, _, _, fn in METRICS}


def gelu_shape(spans: list[list]) -> tuple[int, int] | None:
    """The largest GELU input the trainer's encode calls made, by element count.

    Falls back to the evaluation's encode calls when the trainer made none.
    The shape is (rows encoded, width of a GELU layer).
    """
    for source in ("trainer", "evaluation"):
        shapes = {
            (span[5]["rows"], width)
            for span in spans
            if span[0] == "encoders.encode" and span[5] and span[5]["src"] == source
            for width in span[5]["gelu"]
        }
        if shapes:
            return max(shapes, key=lambda s: (s[0] * s[1], s[0]))
    return None
