"""Ablation suite execution: vary one config axis at a time over a seed grid.

Each cell (axis value x seed) trains and evaluates a full experiment derived
from the base config. Cell failures are recorded and the suite keeps going.
Outputs are a long-format CSV (one row per cell metric) and a seed-averaged
summary; row order is fixed by the suite definition, so reruns are
byte-identical.

Cells can run in a pool of forked worker processes. Results still come back
in definition order, so the outputs do not depend on the number of workers,
and no worker outlives the call that started it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import AblationSuiteSpec, apply_axis, parse_experiment_config
from .evaluation import run_eval_plan
from .report import canonical_json, render_csv, write_atomic
from .trainer import train_run
from .world import make_world


def format_axis_value(value) -> str:
    """Stable single-token rendering of a grid value for CSV keys."""
    if isinstance(value, str):
        return value
    return canonical_json(value)


@dataclass
class CellResult:
    axis: str
    value: str
    seed: int
    status: str  # "ok" | "error"
    config_hash: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    error: str = ""


def run_cell(base_normalized: dict, axis: str, value, seed: int) -> tuple[str, dict[str, float]]:
    """Train and evaluate one ablation cell; returns (config hash, metrics)."""
    doc = apply_axis(base_normalized, axis, value)
    doc["seed"] = seed
    cfg = parse_experiment_config(doc)
    world = make_world(cfg.world, cfg.seed)
    state, _ = train_run(world, cfg.archs, cfg.train)
    report = run_eval_plan(world, state, cfg.eval_plan, config_hash=cfg.hash, seed=seed)
    return cfg.hash, dict(report.metrics)


def _cell_result(base_normalized: dict, axis: str, value, seed: int) -> CellResult:
    """One cell as a result row; a cell that raises becomes an error row."""
    value_str = format_axis_value(value)
    try:
        # `run_cell` is looked up at call time, so a forked worker runs the
        # same function as the parent, wrapped or replaced ones included.
        cfg_hash, metrics = run_cell(base_normalized, axis, value, seed)
    except Exception as e:  # a failed cell must not end the suite
        return CellResult(axis=axis, value=value_str, seed=seed, status="error", error=str(e))
    return CellResult(
        axis=axis, value=value_str, seed=seed, status="ok", config_hash=cfg_hash, metrics=metrics
    )


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_call(verb: str, *args) -> list[int]:
    """Calls `openblas_<verb>` in each OpenBLAS mapped into this process.

    Returns one result per library that exports the function, under the plain
    name or the `scipy_openblas_` and `64_` names of NumPy's wheels. Finds
    none where the process has no `/proc/self/maps` or uses another BLAS.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in Path(f[5].strip()).name}
    results = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)  # already loaded, so this only returns its handle
        for name in (f"{prefix}_{verb}{suffix}" for prefix in ("openblas", "scipy_openblas")
                     for suffix in ("", "64_")):
            if hasattr(lib, name):
                results.append(getattr(lib, name)(*args))
                break
    return results


def _one_blas_thread() -> None:
    """Pool initializer: the workers fill the cores, so each runs BLAS on one thread.

    OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads, so a forked worker
    would otherwise keep the parent's thread count, and compete with itself.
    """
    _openblas_call("set_num_threads", 1)


def run_ablation_suite(suite: AblationSuiteSpec, progress=None) -> list[CellResult]:
    """All cells in definition order; failures become error-status rows.

    Cells run on min(usable cores, cells) workers. One worker runs them in
    this process; more fork a pool, which is shut down before this returns,
    also when `progress` raises. `progress` sees each cell in definition order.
    A cell lost with a dead worker becomes an error row naming the broken pool.
    Workers are forked, so the caller should hold no other threads, and each
    runs OpenBLAS on one thread; the caller's BLAS setting does not change.
    """
    cells = [
        (suite.base.normalized, axis_spec.axis, value, seed)
        for axis_spec in suite.axes
        for value in axis_spec.grid
        for seed in suite.seeds
    ]
    workers = min(usable_cores(), len(cells))
    results = []
    if workers <= 1:
        for args in cells:
            results.append(_cell_result(*args))
            if progress is not None:
                progress(results[-1])
        return results

    # imported here, so that every other command starts without them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Always fork, by name: spawn and forkserver start helper processes
    # (the resource tracker, the fork server) that outlive the pool. On the
    # fork context the executor forks every worker before it starts its own
    # thread, so a worker copies no thread of the pool.
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_one_blas_thread
    )
    try:
        futures = [pool.submit(_cell_result, *args) for args in cells]
        for (_, axis, value, seed), future in zip(cells, futures):
            try:
                cell = future.result()
            except BrokenProcessPool as e:
                cell = CellResult(
                    axis=axis, value=format_axis_value(value), seed=seed,
                    status="error", error=f"{type(e).__name__}: {e}",
                )
            results.append(cell)
            if progress is not None:
                progress(cell)
    finally:
        # cancel the queued cells and join the running ones, whatever happened
        pool.shutdown(wait=True, cancel_futures=True)
    return results


def summarize(results: list[CellResult]) -> list[dict]:
    """Seed-averaged metric means per (axis, value), in first-seen order."""
    groups: dict[tuple[str, str, str], list[float]] = {}
    order: list[tuple[str, str, str]] = []
    for cell in results:
        if cell.status != "ok":
            continue
        for name in sorted(cell.metrics):
            key = (cell.axis, cell.value, name)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(cell.metrics[name])
    return [
        {
            "axis": axis,
            "value": value,
            "metric": metric,
            "seeds": len(groups[(axis, value, metric)]),
            "mean": float(np.mean(groups[(axis, value, metric)])),
        }
        for axis, value, metric in order
    ]


def write_long_csv(results: list[CellResult], path: str | Path, config_hash: str) -> None:
    rows = [["axis", "value", "seed", "status", "config_hash", "metric", "metric_value"]]
    for cell in results:
        if cell.status == "ok":
            rows += [
                [cell.axis, cell.value, cell.seed, "ok", cell.config_hash,
                 name, repr(float(cell.metrics[name]))]
                for name in sorted(cell.metrics)
            ]
        else:
            rows.append([cell.axis, cell.value, cell.seed, "error", "", "error", cell.error])
    write_atomic(path, render_csv(rows, f"base_config_hash={config_hash}"))


def write_summary_csv(summary_rows: list[dict], path: str | Path, config_hash: str) -> None:
    rows = [["axis", "value", "metric", "seeds", "mean"]]
    rows += [
        [row["axis"], row["value"], row["metric"], row["seeds"], repr(row["mean"])]
        for row in summary_rows
    ]
    write_atomic(path, render_csv(rows, f"base_config_hash={config_hash}"))
