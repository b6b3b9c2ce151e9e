"""The `bind` command line: train, eval, ablate, retrieve, worldgen.

Every run is a pure function of (config, seed): artifacts embed the config
hash, reruns are byte-identical, and input configs are never modified.
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .ablation import run_ablation_suite, summarize, write_long_csv, write_summary_csv
from .config import (
    ConfigError,
    ExperimentConfig,
    parse_ablation_suite,
    parse_experiment_config,
)
from .evaluation import EvaluationError, ranked_items, run_eval_plan
from .numerics import NumericsError
from .report import ReportError, write_atomic
from .trainer import (
    TrainerError,
    check_resume,
    init_train_state,
    load_checkpoint,
    save_checkpoint,
    train_run,
    write_training_log,
)
from .world import WorldError, make_world


def _load_json_doc(path_str: str):
    """Read a UTF-8 JSON document from disk, falling back to the bundled configs."""
    p = Path(path_str)
    try:
        if p.exists():
            text = p.read_text(encoding="utf-8")
        else:
            bundled = resources.files("modbind").joinpath("configs", path_str)
            try:
                text = bundled.read_text(encoding="utf-8")
            except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
                raise FileNotFoundError(f"config file not found: {path_str}") from None
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        # RecursionError: nested too deep to parse
        raise ConfigError(path_str, f"invalid JSON: {e}") from e


def _load_config(args) -> ExperimentConfig:
    doc = _load_json_doc(args.config)
    if getattr(args, "seed", None) is not None and isinstance(doc, dict):
        doc["seed"] = args.seed  # replaces the file's seed, checked in the one parse
    return parse_experiment_config(doc)


def _out_dir(args, default: str) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else Path(default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, name: str, command: str, cfg_hash: str, seed: int, extra: dict) -> Path:
    doc = {
        "kind": "run_manifest",
        "command": command,
        "config_hash": cfg_hash,
        "seed": seed,
        "code_version": __version__,
    }
    doc.update(extra)
    path = out / name
    write_atomic(path, json.dumps(doc, sort_keys=True, indent=1))
    return path


def _load_state_for(cfg: ExperimentConfig, world, checkpoint: str | None):
    """Checkpointed state when given (validated against the config, `check_resume` holding
    the seed and world_hash rules), else fresh init. A checkpoint without a config_hash is
    not checked on it.
    """
    if checkpoint is None:
        return init_train_state(world, cfg.archs, cfg.train)
    state = load_checkpoint(checkpoint)
    if state.extra.get("config_hash", cfg.hash) != cfg.hash:
        raise ConfigError("checkpoint", "checkpoint config_hash does not match the run: "
                          f"{state.extra['config_hash']!r} != {cfg.hash!r}")
    try:
        check_resume(state, world, cfg.archs, cfg.train)
    except TrainerError as e:
        raise ConfigError("checkpoint", str(e)) from e
    return state


def cmd_train(args) -> int:
    cfg = _load_config(args)
    world = make_world(cfg.world, cfg.seed)
    state, summary = train_run(world, cfg.archs, cfg.train)
    out = _out_dir(args, cfg.output_dir)
    save_checkpoint(state, out / "checkpoint.json", extra={"config_hash": cfg.hash, "seed": cfg.seed})
    write_training_log(state, out / "train_log.csv", config_hash=cfg.hash)
    _write_manifest(
        out, "run_manifest.json", "train", cfg.hash, cfg.seed,
        {"steps": state.step, "summary": summary, "artifacts": ["checkpoint.json", "train_log.csv"]},
    )
    print(f"wrote {out / 'checkpoint.json'}")
    print(f"wrote {out / 'train_log.csv'}")
    print(f"wrote {out / 'run_manifest.json'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    world = make_world(cfg.world, cfg.seed)
    state = _load_state_for(cfg, world, args.checkpoint)
    report = run_eval_plan(world, state, cfg.eval_plan, config_hash=cfg.hash, seed=cfg.seed)
    out = _out_dir(args, cfg.output_dir)
    write_atomic(out / "metrics.json", report.to_json())
    write_atomic(out / "metrics.csv", f"# config_hash={cfg.hash}\n" + report.to_csv())
    _write_manifest(
        out, "eval_manifest.json", "eval", cfg.hash, cfg.seed,
        {"checkpoint": args.checkpoint or "", "artifacts": ["metrics.json", "metrics.csv"]},
    )
    print(f"wrote {out / 'metrics.json'}")
    print(f"wrote {out / 'metrics.csv'}")
    return 0


def cmd_ablate(args) -> int:
    doc = _load_json_doc(args.config)
    if args.seed is not None and isinstance(doc, dict):
        doc["seeds"] = [args.seed]  # checked with the suite's own seeds, before any cell runs
    suite = parse_ablation_suite(doc)
    out = _out_dir(args, suite.base.output_dir)

    def progress(cell):
        tag = f"{cell.axis}={cell.value} seed={cell.seed}"
        if cell.status == "ok":
            print(f"ok    {tag}")
        else:
            print(f"ERROR {tag}: {cell.error}")

    results = run_ablation_suite(suite, progress=progress)
    base_hash = suite.base.hash
    write_long_csv(results, out / "ablation_long.csv", base_hash)
    write_summary_csv(summarize(results), out / "ablation_summary.csv", base_hash)
    failures = sum(1 for r in results if r.status != "ok")
    _write_manifest(
        out, "ablate_manifest.json", "ablate", base_hash, suite.seeds[0],
        {
            "seeds": suite.seeds,
            "axes": [{"axis": a.axis, "grid_size": len(a.grid)} for a in suite.axes],
            "cells": len(results),
            "failures": failures,
            "artifacts": ["ablation_long.csv", "ablation_summary.csv"],
        },
    )
    print(f"wrote {out / 'ablation_long.csv'}")
    print(f"wrote {out / 'ablation_summary.csv'}")
    print(f"cells: {len(results)}, failures: {failures}")
    return 0


def cmd_retrieve(args) -> int:
    cfg = _load_config(args)
    world = make_world(cfg.world, cfg.seed)
    state = _load_state_for(cfg, world, args.checkpoint)
    n_items = cfg.eval_plan.retrieval_index_size
    if not (0 <= args.query_id < n_items):
        raise ConfigError("--query-id", f"must lie in [0, {n_items})")
    if not (1 <= args.k <= n_items):
        raise ConfigError("--k", f"must lie in [1, {n_items}]")
    if not (0.0 <= args.compose_weight <= 1.0):
        raise ConfigError("--compose-weight", "must lie in [0, 1]")

    if args.compose:
        parts = args.compose.split("+")
        if len(parts) != 2 or len({args.index_modality, *parts}) != 3:
            raise ConfigError("--compose", "expected modalityA+modalityB, neither --index-modality")
    elif args.query_modality:
        parts = [args.query_modality]
    else:
        raise ConfigError("--query-modality", "required unless --compose is given")
    for name in dict.fromkeys([args.index_modality, *parts]):
        if name not in state.encoders:
            raise ConfigError("--index-modality/--query-modality/--compose", f"unknown modality {name!r}")

    items = ranked_items(world, state, cfg.eval_plan, args.index_modality, tuple(parts),
                         args.compose_weight, args.query_id, args.k)
    print("rank,id,similarity")
    for rank, (j, similarity) in enumerate(items, start=1):
        print(f"{rank},{j},{similarity!r}")
    return 0


def cmd_worldgen(args) -> int:
    cfg = _load_config(args)
    world = make_world(cfg.world, cfg.seed)
    out = _out_dir(args, cfg.output_dir)
    doc = json.loads(world.to_json())
    doc["config_hash"] = cfg.hash
    write_atomic(out / "world.json", json.dumps(doc, indent=1))
    print(f"wrote {out / 'world.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bind",
        description="Hub-and-spoke multimodal embedding experiments on synthetic worlds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train encoders and write a checkpoint")
    eval_ = sub.add_parser("eval", help="run the configured evaluation plan")
    ablate = sub.add_parser("ablate", help="run an ablation suite")
    retrieve = sub.add_parser("retrieve", help="rank index items against one query")
    worldgen = sub.add_parser("worldgen", help="materialize the synthetic world as JSON")

    for p in (train, eval_, ablate, retrieve, worldgen):
        p.add_argument("--config", required=True, help="config JSON (file path or bundled name)")
        p.add_argument("--out", help="output directory (default: config output_dir)")
    for p in (train, eval_, ablate, worldgen):
        p.add_argument("--seed", type=int, help="override the config seed")
    eval_.add_argument("--checkpoint", help="checkpoint JSON (omit to evaluate a fresh init)")
    retrieve.add_argument("--checkpoint", required=True, help="checkpoint JSON")
    retrieve.add_argument("--index-modality", required=True)
    retrieve.add_argument("--query-modality", help="single query view (or use --compose)")
    retrieve.add_argument("--query-id", type=int, default=0, help="item id used as the query")
    retrieve.add_argument("--k", type=int, default=10, help="number of results")
    retrieve.add_argument("--compose", help="modalityA+modalityB: compose two views of the query item")
    retrieve.add_argument("--compose-weight", type=float, default=0.5)

    train.set_defaults(func=cmd_train)
    eval_.set_defaults(func=cmd_eval)
    ablate.set_defaults(func=cmd_ablate)
    retrieve.set_defaults(func=cmd_retrieve)
    worldgen.set_defaults(func=cmd_worldgen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericsError, WorldError, TrainerError, EvaluationError, ReportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
