"""Ablation suite execution: vary one config axis at a time over a seed grid.

Each cell (axis value x seed) trains and evaluates a full experiment derived
from the base config. Cell failures are recorded and the suite keeps going.
Outputs are a long-format CSV (one row per cell metric) and a seed-averaged
summary; row order is fixed by the suite definition, so reruns are
byte-identical.

A run is a pure function of (config, seed), and an axis whose grid holds the
base value repeats the base run, so cells that resolve to the same config
hash and seed train once: the first such cell runs, and the others copy its
row under their own axis and value. Runs go to the fork pool of
`pool.ordered_map`. Rows still come back in definition order, so the
outputs do not depend on the number of workers, and no worker outlives the
call that started it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import AblationSuiteSpec, apply_axis, parse_experiment_config
from .evaluation import run_eval_plan
from .pool import ordered_map
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


def _run_key(base_normalized: dict, cell: tuple, index: int):
    """(config hash, seed) of the run a cell trains; a cell whose config does
    not parse is its own run (its index), so `run_cell` reports its error."""
    axis, value, seed = cell
    try:
        doc = apply_axis(base_normalized, axis, value)
        doc["seed"] = seed
        return parse_experiment_config(doc).hash, seed
    except Exception:
        return index


def run_ablation_suite(suite: AblationSuiteSpec, progress=None) -> list[CellResult]:
    """All cells in definition order; failures become error-status rows.

    Cells that resolve to the same (config hash, seed) train once: the first
    of them is a job, and each later one copies that job's row under its own
    axis, value and seed. Jobs run through `pool.ordered_map`: on
    min(usable cores, jobs) forked workers, or in this process where one
    core is usable. The pool is shut down before this returns, also when
    `progress` raises. `progress` sees each row in definition order. A job
    lost with a dead worker makes every row of its run an error row naming
    the broken pool.
    """
    base = suite.base.normalized
    cells = [
        (axis_spec.axis, value, seed)
        for axis_spec in suite.axes
        for value in axis_spec.grid
        for seed in suite.seeds
    ]
    runs: dict = {}
    # the index of the first cell of each cell's run; those cells are the jobs
    first = [runs.setdefault(_run_key(base, cell, i), i) for i, cell in enumerate(cells)]
    jobs = [cell for i, cell in enumerate(cells) if first[i] == i]

    def lost(cell, e):
        axis, value, seed = cell
        return CellResult(axis=axis, value=format_axis_value(value), seed=seed,
                          status="error", error=f"{type(e).__name__}: {e}")

    results = []
    with ordered_map(lambda cell: _cell_result(base, *cell), jobs, lost=lost) as job_results:
        for i, (axis, value, seed) in enumerate(cells):
            if first[i] == i:  # jobs are in cell order, so this is the next result
                cell = next(job_results)
            else:
                run = results[first[i]]
                cell = replace(run, axis=axis, value=format_axis_value(value), seed=seed,
                               metrics=dict(run.metrics))
            results.append(cell)
            if progress is not None:
                progress(cell)
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
