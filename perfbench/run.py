#!/usr/bin/env python3
"""The modbind benchmark: `bind train`, `bind eval` and `bind ablate`, in-process.

Run from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 20 --trace 0

Workloads are closed loops with one client: each operation is one call of
`modbind.cli.main` and starts when the previous one has returned and been
checked. The run measures for `--seconds` seconds after set-up (and always
runs a workload's minimum number of operations). With `--trace 0` the last
line of standard output is the end-to-end result; with `--trace 1`, operations
alternate between untraced and traced, and the last line holds the per-layer
metrics from the traced ones (see spans.py). BLAS is pinned to one thread.

Metric names and units come from BENCHMARK.json at the repository root; the
run fails if what it computes does not match that list. Outputs go to
perfbench/out/<workload>/, which is emptied at the start of each run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import kernels
import spans

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path.cwd()
SRC = ROOT / "src"
CONFIGS = SRC / "modbind" / "configs"
OUT = Path(__file__).resolve().parent / "out"

# Emergent zero-shot accuracy every trained desk checkpoint must reach
# (spoke1 vs textlike, ten classes, so chance is 0.10).
EMERGENT_FLOOR = 0.6
EMERGENT_KEY = "emergent_zero_shot/spoke1_vs_textlike"
RECALL_KEY = "recall_at_10/spoke1_to_textlike"
X10_EVAL = {"retrieval_index_size": 2000, "arithmetic_queries": 2000, "n_per_class": 1000}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or set-up failed)."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def call_cli(argv: list[str]):
    """Exit code of `bind <argv>` run in-process, or the exception it raised."""
    from modbind import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except (Exception, SystemExit) as e:
            return f"{type(e).__name__}: {e}"


def start_interpreter() -> None:
    """Start a fresh interpreter that imports modbind.cli, as every `bind` command does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # No timeout: with one, the wait polls on a back-off schedule and the
    # measured time snaps to its steps.
    subprocess.run([sys.executable, "-c", "import modbind.cli"], cwd=ROOT, env=env, check=True)


def roundtrip(path: Path, scratch: Path) -> tuple[float, float, bool]:
    """Load and re-save a checkpoint: (load s, save s, bytes identical)."""
    from modbind import trainer

    raw = path.read_bytes()
    extra = {k: v for k, v in json.loads(raw).items() if k in ("config_hash", "seed")}
    gc.collect()  # so collections left over from earlier work do not land in the timings
    t0 = time.perf_counter()
    state = trainer.load_checkpoint(path)
    load_s = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    trainer.save_checkpoint(state, scratch, extra=extra or None)
    save_s = time.perf_counter() - t0
    return load_s, save_s, scratch.read_bytes() == raw


class RoundTrips:
    """Checkpoint load/save round-trip timings, taken at several points of a run.

    The host's speed wanders on a scale of seconds, so best-of-N is steadier
    the wider the stretch of time its samples cover.
    """

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.loads: list[float] = []
        self.saves: list[float] = []

    def sample(self, path: Path, n: int, gap_s: float = 0.0) -> list[str]:
        """Time n round trips of `path`, gap_s apart; errors if one changed the bytes."""
        for _ in range(n):
            time.sleep(gap_s)
            load_s, save_s, same = roundtrip(path, self.scratch)
            self.loads.append(load_s)
            self.saves.append(save_s)
            if not same:
                return [f"checkpoint load/save round trip of {path.name} changed the bytes"]
        return []


def checkpoint_errors(path: Path, steps: int) -> list[str]:
    import numpy as np
    from modbind.trainer import load_checkpoint

    state = load_checkpoint(path)
    errors = [] if state.step == steps else [f"checkpoint step {state.step}, expected {steps}"]
    if not all(np.all(np.isfinite(a)) for enc in state.encoders.values() for a in enc.arrays()):
        errors.append("non-finite weights in checkpoint")
    return errors


class Workload:
    """One benchmark workload; subclasses define the operation and its checks."""

    name = ""
    setup_reps = 7
    min_ops = 1
    roundtrips_per_setup = 0  # of checkpoint(rep) after set-up rep `rep`, untimed
    roundtrips_before_ops = 0  # after set-up, before op 0
    roundtrips_per_op = 1
    roundtrip_gap_s = 0.0  # pause before each round trip, to spread them in time

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.steps_per_op = 0  # training steps one op runs
        self.cells_per_op = 1  # (config, seed) cells one op finishes
        self.quality: list[dict] = []  # eval metrics of the quality cells
        self.train_rates: list[float] = []  # training steps/s seen in set-up
        self.digests: dict[str, str] = {}

    def prepare(self, rep: int) -> None:
        """Work a user does once before the operations; timed as set-up."""

    def after_setup(self) -> None:
        """Benchmark bookkeeping after set-up; not timed."""

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def check(self, i: int) -> list[str]:
        """Errors in op i's outputs; an empty list means correct."""
        return []

    def checkpoint(self, i: int) -> Path:
        raise NotImplementedError

    def op_dir(self, i: int) -> Path:
        return self.work / f"op{i}"

    def op_seed(self, i: int) -> int:
        """Op 1 repeats op 0's seed (and must give the same bytes); later ops step on."""
        return self.seed + max(0, i - 1)

    def repeats(self, key: str, path: Path, errors: list[str]) -> bool:
        """Whether an earlier op had `key`; if so, `path` must have its bytes."""
        digest = sha256(path)
        if key not in self.digests:
            self.digests[key] = digest
            return False
        if self.digests[key] != digest:
            errors.append(f"{path.name} differs from the earlier op with {key}")
        return True


class TrainDesk(Workload):
    """`bind train --config desk.json --seed s`, with s from op_seed."""

    name = "train-desk"
    min_ops = 4  # ops 0, 2 and 3 give the three quality checkpoints
    quality_cells = 3
    # A run has only four op boundaries; gaps spread each op's round trips
    # over a few seconds so that their best does not hang on one moment.
    roundtrips_per_op = 6
    roundtrip_gap_s = 0.4
    steps = 1800

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.steps_per_op = self.steps

    def argv(self, i):
        return ["train", "--config", "desk.json", "--seed", str(self.op_seed(i)),
                "--out", str(self.op_dir(i))]

    def checkpoint(self, i):
        return self.op_dir(i) / "checkpoint.json"

    def check(self, i):
        ck = self.checkpoint(i)
        errors = checkpoint_errors(ck, self.steps)
        if not self.repeats(f"seed {self.op_seed(i)}", ck, errors) and len(self.quality) < self.quality_cells:
            errors += self._evaluate(i)
        return errors

    def _evaluate(self, i):
        out = self.op_dir(i) / "eval"
        code = call_cli(["eval", "--config", "desk.json", "--seed", str(self.op_seed(i)),
                         "--checkpoint", str(self.checkpoint(i)), "--out", str(out)])
        if code != 0:
            return [f"bind eval of the checkpoint failed: {code}"]
        metrics = json.loads((out / "metrics.json").read_text())["metrics"]
        self.quality.append(metrics)
        if metrics[EMERGENT_KEY] < EMERGENT_FLOOR:
            return [f"emergent accuracy {metrics[EMERGENT_KEY]} below {EMERGENT_FLOOR}"]
        return []

class EvalDeskX10(Workload):
    """`bind eval` of desk checkpoints on a copy of desk.json with 10x eval sizes.

    Set-up rep r writes the config and trains the checkpoint for seed + r;
    op i evaluates checkpoint i % setup_reps, so every op after the first
    setup_reps repeats an earlier one and must write the same metrics.json.
    """

    name = "eval-desk-x10"
    setup_reps = 3
    # Round trips between set-up reps widen the stretch of time the
    # checkpoint timings cover from the ops alone to the whole run. Only a
    # few samples of a run reach the machine's fast floor, so take many.
    roundtrips_per_setup = 4
    roundtrips_per_op = 2
    min_ops = setup_reps  # one op per checkpoint gives the quality cells

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = work / "desk_x10.json"

    def prepare(self, rep):
        doc = json.loads((CONFIGS / "desk.json").read_text())
        doc["eval"].update(X10_EVAL)
        self.config.write_text(json.dumps(doc, indent=1))
        seed = self.seed + rep
        t0 = time.perf_counter()
        code = call_cli(["train", "--config", str(self.config), "--seed", str(seed),
                         "--out", str(self.work / f"ckpt{rep}")])
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"set-up training failed: {code}")
        errors = checkpoint_errors(self.checkpoint(rep), TrainDesk.steps)
        if errors:
            raise BenchError(f"set-up checkpoint is wrong: {errors}")
        self.train_rates.append(TrainDesk.steps / elapsed)

    def argv(self, i):
        k = i % self.setup_reps
        return ["eval", "--config", str(self.config), "--seed", str(self.seed + k),
                "--checkpoint", str(self.checkpoint(k)), "--out", str(self.op_dir(i))]

    def checkpoint(self, i):
        return self.work / f"ckpt{i % self.setup_reps}" / "checkpoint.json"

    def check(self, i):
        path = self.op_dir(i) / "metrics.json"
        metrics = json.loads(path.read_text())["metrics"]
        errors = []
        if not self.repeats(f"checkpoint {i % self.setup_reps}", path, errors):
            self.quality.append(metrics)
        if metrics[EMERGENT_KEY] < EMERGENT_FLOOR:
            errors.append(f"emergent accuracy {metrics[EMERGENT_KEY]} below {EMERGENT_FLOOR}")
        return errors


class AblateQuick(Workload):
    """`bind ablate --config ablate_quick.json --seed s`, with s from op_seed."""

    name = "ablate-quick"
    # One op per run leaves two windows for round trips: before it and after
    # it. Spread over both, their best is not set by one slow stretch of the
    # machine.
    roundtrips_before_ops = 12
    roundtrips_per_op = 13
    roundtrip_gap_s = 0.5

    def after_setup(self):
        from modbind.config import apply_axis, parse_ablation_suite, parse_experiment_config
        from modbind.trainer import init_train_state, save_checkpoint
        from modbind.world import make_world

        suite = parse_ablation_suite(json.loads((CONFIGS / "ablate_quick.json").read_text()))
        self.cells_per_op = sum(len(axis.grid) for axis in suite.axes)
        for axis in suite.axes:
            for value in axis.grid:
                cfg = parse_experiment_config(apply_axis(suite.base.normalized, axis.axis, value))
                self.steps_per_op += cfg.train.epochs * cfg.train.steps_per_epoch
        # The ablation writes no checkpoint; round trips use the base config's initial state.
        base = suite.base.with_seed(self.seed)
        state = init_train_state(make_world(base.world, self.seed), base.archs, base.train)
        save_checkpoint(state, self.checkpoint(0), extra={"config_hash": base.hash, "seed": self.seed})

    def argv(self, i):
        return ["ablate", "--config", "ablate_quick.json", "--seed", str(self.op_seed(i)),
                "--out", str(self.op_dir(i))]

    def checkpoint(self, i):
        return self.work / "base_init_checkpoint.json"

    def check(self, i):
        import csv

        out = self.op_dir(i)
        manifest = json.loads((out / "ablate_manifest.json").read_text())
        errors = []
        if manifest["cells"] != self.cells_per_op or manifest["failures"] != 0:
            errors.append(f"{manifest['cells']} cells with {manifest['failures']} failures, "
                          f"expected {self.cells_per_op} ok")
        with open(out / "ablation_long.csv", newline="") as f:
            rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
        per_cell: dict[tuple, dict] = {}
        for row in rows:
            if row["status"] != "ok":
                errors.append(f"cell {row['axis']}={row['value']} has status {row['status']}")
                continue
            per_cell.setdefault((row["axis"], row["value"]), {})[row["metric"]] = float(row["metric_value"])
        if len(per_cell) != self.cells_per_op:
            errors.append(f"{len(per_cell)} ok cells in ablation_long.csv, expected {self.cells_per_op}")
        long_csv = out / "ablation_long.csv"
        if not self.repeats(f"seed {self.op_seed(i)}", long_csv, errors) and not self.quality:
            self.quality = list(per_cell.values())
        return errors


WORKLOADS = {w.name: w for w in (TrainDesk, EvalDeskX10, AblateQuick)}


@dataclass
class OpRecord:
    op_s: float
    traced: bool
    errors: list[str]


def run_op(workload: Workload, i: int, tracer: spans.Tracer | None, trips: RoundTrips) -> OpRecord:
    argv = workload.argv(i)
    traced = tracer is not None
    untraced = contextlib.nullcontext()
    gc.collect()  # so the previous op's garbage is not collected inside this op's time
    with tracer.installed(op=i) if traced else untraced:
        t0 = time.perf_counter()
        with tracer.span(spans.OP_SPAN) if traced else untraced:
            code = call_cli(argv)
        op_s = time.perf_counter() - t0
    if code != 0:
        return OpRecord(op_s, traced, [f"bind {argv[0]} returned {code}"])
    try:
        errors = workload.check(i)
        with tracer.installed(op=None) if traced else untraced:
            errors += trips.sample(workload.checkpoint(i), workload.roundtrips_per_op,
                                   workload.roundtrip_gap_s)
    except Exception as e:  # a wrong or unreadable output fails this op, not the run
        errors = [f"output check failed: {e!r}"]
    shutil.rmtree(workload.op_dir(i), ignore_errors=True)
    return OpRecord(op_s, traced, errors)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at nearest rank max(n - 10, ceil(0.9 n)).

    That is the highest percentile with at least ten samples beyond it once a
    run has 100 or more samples, and the nearest-rank p90 below that.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.9 * n))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def environment() -> dict:
    import numpy as np

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(workload, records, setup, trips: RoundTrips) -> tuple[dict, dict]:
    op_s = [r.op_s for r in records]
    tail_s, tail_pct, beyond = tail(op_s)
    failed = sum(1 for r in records if r.errors)
    q = workload.quality
    rates = workload.train_rates or [workload.steps_per_op / t for t in op_s]
    values = {
        "setup_s": median(setup),
        "op_s_p50": median(op_s),
        "op_s_tail": tail_s,
        "train_steps_per_s": median(rates),
        "cells_per_s": median([workload.cells_per_op / t for t in op_s]),
        # Best of N: a round trip takes 5-120 ms, and on a shared machine
        # seconds-long slow stretches spread single samples by a factor of two.
        "checkpoint_save_s": min(trips.saves, default=0.0),
        "checkpoint_load_s": min(trips.loads, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (len(records) - failed) / len(records),
        "emergent_zero_shot": median([m[EMERGENT_KEY] for m in q]),
        "recall_at_10": mean([m[RECALL_KEY] for m in q]),
        "emergent_zero_shot_mean": mean([m[EMERGENT_KEY] for m in q]),
    }
    info = {"op_s_tail": {"percentile": tail_pct, "samples": len(op_s), "samples_beyond": beyond},
            "quality_cells": len(q), "roundtrips": len(trips.loads)}
    return values, info


def with_units(values: dict, declared: list[dict]) -> dict:
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise BenchError(f"computed metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(args) -> int:
    if not (SRC / "modbind" / "__init__.py").is_file():
        raise BenchError(f"no modbind sources under {SRC}; run from the repository root")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import modbind

    if Path(modbind.__file__).resolve().parent != (SRC / "modbind").resolve():
        raise BenchError(f"imported modbind from {modbind.__file__}, not from {SRC}")

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)

    trips = RoundTrips(work / "roundtrip.json")
    setup_errors: list[str] = []
    setup = []
    for rep in range(workload.setup_reps):
        t0 = time.perf_counter()
        start_interpreter()
        workload.prepare(rep)
        setup.append(time.perf_counter() - t0)
        if workload.roundtrips_per_setup:
            setup_errors += trips.sample(workload.checkpoint(rep), workload.roundtrips_per_setup)
    workload.after_setup()
    if workload.roundtrips_before_ops:
        setup_errors += trips.sample(workload.checkpoint(0), workload.roundtrips_before_ops,
                                     workload.roundtrip_gap_s)

    tracer = spans.Tracer() if args.trace else None
    min_ops = max(workload.min_ops, 2 if args.trace else 1)
    records: list[OpRecord] = []
    walls: list[float] = []
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start + median(walls) <= args.seconds:
        t0 = time.perf_counter()
        op_tracer = tracer if args.trace and i % 2 == 1 else None
        records.append(run_op(workload, i, op_tracer, trips))
        walls.append(time.perf_counter() - t0)
        i += 1
    for e in setup_errors:
        print(f"check before the ops failed: {e}", file=sys.stderr)
    for r in records:
        for e in r.errors:
            print(f"op failed: {e}", file=sys.stderr)

    failed = sum(1 for r in records if r.errors)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment()}
    if args.trace:
        traced = [r.op_s for r in records if r.traced]
        untraced = [r.op_s for r in records if not r.traced]
        shape = spans.gelu_shape(tracer.spans)
        summary = spans.Summary(
            tracer.spans, n_ops=len(traced),
            kernels=kernels.gelu_pass(shape, args.seed) if shape else {},
            overhead_ratio=median(traced) / median(untraced),
        )
        metrics = with_units(spans.layer_metrics(summary), bench["per_layer"])
        info.update(gelu_shape=shape, traced_ops=len(traced), spans=len(tracer.spans),
                    traced_op_s=traced, untraced_op_s=untraced)
        tracer.write(work / "spans.csv.gz")
    else:
        values, extra = end_to_end(workload, records, setup, trips)
        metrics = with_units(values, bench["end_to_end"])
        info.update(extra, setup_s=setup, op_s=[r.op_s for r in records],
                    checkpoint_save_s=trips.saves, checkpoint_load_s=trips.loads)
    result = {"correct": failed == 0 and not setup_errors, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    # Before anything imports NumPy, so OpenBLAS starts with one thread.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
