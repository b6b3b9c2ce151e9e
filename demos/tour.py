"""Guided tour of the engine on the bundled desk-scale world.

Trains the default configuration from scratch, then walks through every
measurement the library offers: emergent zero-shot classification between
modalities that were never trained together, cross-modal retrieval, few-shot
probes on frozen features, embedding arithmetic, ensembling, and the
frozen-hub protocol. Runs in well under a minute on one core:

    python demos/tour.py
"""

import json
import time
from importlib import resources

from modbind.config import parse_experiment_config
from modbind.evaluation import emergent_zero_shot_accuracy, frozen_hub_eval, run_eval_plan
from modbind.trainer import init_train_state, train_run
from modbind.world import make_world


def section(title):
    print(f"\n=== {title} ===")


def main():
    text = resources.files("modbind").joinpath("configs", "desk.json").read_text(encoding="utf-8")
    cfg = parse_experiment_config(json.loads(text))
    world = make_world(cfg.world, cfg.seed)

    section("world")
    names = [m.name for m in world.modalities]
    print(f"{cfg.world.num_classes} latent classes observed through {len(names)} modalities: {', '.join(names)}")
    print(f"hub modality: {world.hub} (the only one anything is trained against)")

    section("training")
    pairs = [p.spoke for p in cfg.train.pairs]
    print(f"pairs: {' and '.join(f'(hub, {s})' for s in pairs)} -- note spoke1 and textlike never meet")
    start = time.perf_counter()
    state, summary = train_run(world, cfg.archs, cfg.train)
    print(f"trained {cfg.train.epochs} epochs x {cfg.train.steps_per_epoch} steps "
          f"in {time.perf_counter() - start:.1f}s ({summary['steps']} optimizer steps)")

    section("evaluation")
    report = run_eval_plan(world, state, cfg.eval_plan, config_hash=cfg.hash, seed=cfg.seed)
    for key in sorted(report.metrics):
        print(f"  {key:42s} {report.metrics[key]:.3f}")
    emergent = report.metrics["emergent_zero_shot/spoke1_vs_textlike"]
    print(f"spoke1 items classified by textlike prototypes: {emergent:.0%} "
          f"(chance {1.0 / cfg.world.num_classes:.0%}) without a single (spoke1, textlike) pair")

    section("untrained baseline")
    fresh = init_train_state(world, cfg.archs, cfg.train)
    chance = emergent_zero_shot_accuracy(world, fresh, "spoke1", "textlike", 100)
    print(f"same measurement with freshly initialized encoders: {chance:.0%}")

    section("frozen-hub protocol")
    key = "emergent_zero_shot/spoke1_vs_textlike"
    trained_hub = frozen_hub_eval(
        state.encoders["hub"], world, cfg.archs, cfg.train, [("spoke1", "textlike")]
    )
    random_hub = frozen_hub_eval(
        fresh.encoders["hub"], world, cfg.archs, cfg.train, [("spoke1", "textlike")]
    )
    print("spokes re-aligned from scratch against a frozen hub; emergent accuracy scores the hub itself:")
    print(f"  trained hub {trained_hub.metrics[key]:.3f}  vs  random hub {random_hub.metrics[key]:.3f}")


if __name__ == "__main__":
    main()
