"""Ablation suite execution: vary one config axis at a time over a seed grid.

Each cell (axis value x seed) trains and evaluates a full experiment derived
from the base config, whose config is parsed once, before any run starts.
Cell failures are recorded and the suite keeps going.
Outputs are a long-format CSV (one row per cell metric) and a seed-averaged
summary; row order is fixed by the suite definition, so reruns are
byte-identical.

A run is a pure function of (config, seed), and an axis whose grid holds the
base value repeats the base run, so cells that resolve to the same config
hash and seed train once: the first such cell runs, and the others take its
outcome under their own axis and value. Runs go to the fork pool of
`pool.ordered_map`. Rows still come back in definition order, so the
outputs do not depend on the number of workers, and no worker outlives the
call that started it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import AblationSuiteSpec, ExperimentConfig, apply_axis, parse_experiment_config
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


def run_cell(cfg: ExperimentConfig) -> dict[str, float]:
    """Train and evaluate one ablation cell's config; returns its metrics."""
    world = make_world(cfg.world, cfg.seed)
    state, _ = train_run(world, cfg.archs, cfg.train)
    report = run_eval_plan(world, state, cfg.eval_plan, config_hash=cfg.hash, seed=cfg.seed)
    return dict(report.metrics)


def _failed(e: BaseException) -> tuple[None, str]:
    """The outcome of a run that raised `e`: its type name, then ": " and its message if any."""
    return None, f"{type(e).__name__}: {e}" if str(e) else type(e).__name__


def _outcome(cfg: ExperimentConfig) -> tuple[dict | None, str]:
    """(metrics, "") of one run, or (None, error): a failed run must not end the suite."""
    try:
        # `run_cell` is looked up at call time, so a forked worker runs the
        # same function as the parent, wrapped or replaced ones included.
        return run_cell(cfg), ""
    except Exception as e:
        return _failed(e)


def run_ablation_suite(suite: AblationSuiteSpec, progress=None) -> list[CellResult]:
    """All cells in definition order; failures become error-status rows.

    Each cell's config is parsed once, here, before any run starts; a cell
    whose config does not parse (only a suite built through the library has
    one) is an error row and trains nothing. Cells that resolve to the same
    (config hash, seed) share one run, a job that the first of them starts.
    Jobs run through `pool.ordered_map`: on min(usable cores, jobs) forked
    workers, or in this process where one core is usable. The pool is shut
    down before this returns, also when `progress` raises. `progress` sees
    each row in definition order. A run that raises, or a job lost with a
    dead worker, makes every row of its run an error row that names the
    exception's type (`BrokenProcessPool` for the lost job).
    """
    base = suite.base.normalized
    jobs: list[ExperimentConfig] = []
    runs: dict[tuple[str, int], int] = {}  # (config hash, seed) -> index of its job
    cells = []  # (axis, value, seed, config hash, job index or parse outcome)
    for spec in suite.axes:
        for value in spec.grid:
            for seed in suite.seeds:
                try:
                    cfg = parse_experiment_config({**apply_axis(base, spec.axis, value), "seed": seed})
                except Exception as e:
                    cells.append((spec.axis, value, seed, "", (None, str(e))))
                    continue
                key = (cfg.hash, seed)
                if key not in runs:
                    runs[key] = len(jobs)
                    jobs.append(cfg)
                cells.append((spec.axis, value, seed, key[0], runs[key]))

    outcomes = []  # the outcome of each job that has come back
    results = []
    with ordered_map(_outcome, jobs, lost=lambda cfg, e: _failed(e)) as job_outcomes:
        for axis, value, seed, cfg_hash, run in cells:
            if isinstance(run, int):
                if run == len(outcomes):  # jobs are in cell order, so this is the next one
                    outcomes.append(next(job_outcomes))
                run = outcomes[run]
            metrics, error = run
            cell = CellResult(
                axis=axis, value=format_axis_value(value), seed=seed,
                status="error" if metrics is None else "ok",
                config_hash="" if metrics is None else cfg_hash,
                metrics=dict(metrics or {}), error=error,
            )
            results.append(cell)
            if progress is not None:
                progress(cell)
    return results


def summarize(results: list[CellResult]) -> list[dict]:
    """Seed-averaged metric means per (axis, value), in first-seen order."""
    groups: dict[tuple[str, str, str], list[float]] = {}
    for cell in results:
        if cell.status != "ok":
            continue
        for name in sorted(cell.metrics):
            groups.setdefault((cell.axis, cell.value, name), []).append(cell.metrics[name])
    return [
        {"axis": axis, "value": value, "metric": metric, "seeds": len(values),
         "mean": float(np.mean(values))}
        for (axis, value, metric), values in groups.items()
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
