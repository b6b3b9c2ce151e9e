"""Strict JSON experiment configs: schema validation, normalization, hashing.

A config document is validated before any compute; unknown keys are rejected
and every diagnostic names the offending path (e.g. config.train.pairs[0]).
This module checks the JSON itself (through the codec), modality-name
references, the seed and ablation grids; every range rule lives in the
constructor of the object that owns it. The normalized document is the
config document of the parsed objects, all defaults filled; the config hash
is the canonical-JSON sha256 of that document minus the seed and output
directory, so the hash identifies the experiment while the seed names the
realization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codec import ConfigError, check_keys, decode, from_doc, to_doc
from .encoders import EncoderArch
from .evaluation import EvalPlan
from .report import canonical_hash
from .trainer import TrainConfig, TrainerError, check_layout
from .world import WorldConfig

DEFAULT_GRIDS = {
    "temperature": ["learnable", 0.05, 0.07, 0.2, 1.0],
    "projection_head": ["linear", "mlp"],
    "epochs": [5, 15, 30],
    "batch_size": [8, 64, 256],
    "hub_capacity": [16, 64, 256],
    "noise_strength": [0.5, 1.0, 2.0],
    "alignment": ["aligned", "class_only"],
    "loss_mix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
}
# the axes, in the order a suite without "axes" runs them
ABLATION_AXES = tuple(DEFAULT_GRIDS)

# JSON type of each axis's grid values; "learnable" is also a temperature
_GRID_TYPES = {
    "temperature": float,
    "projection_head": str,
    "epochs": int,
    "batch_size": int,
    "hub_capacity": int,
    "noise_strength": float,
    "alignment": str,
    "loss_mix": tuple[float, float],
}


@dataclass
class ExperimentConfig:
    """Validated experiment: world, per-modality archs, training, evaluation."""

    world: WorldConfig
    archs: dict[str, EncoderArch]
    train: TrainConfig
    eval_plan: EvalPlan
    output_dir: str

    @property
    def seed(self) -> int:
        """The realization's seed; the training config holds it."""
        return self.train.seed

    @property
    def normalized(self) -> dict:
        """The config document of these objects, defaults filled in (see codec)."""
        return {
            "world": to_doc(self.world, config=True),
            "archs": to_doc(self.archs, config=True),
            "train": to_doc(self.train, config=True),
            "eval": to_doc(self.eval_plan, config=True),
            "output_dir": self.output_dir,
            "seed": self.seed,
        }

    @property
    def hash(self) -> str:
        doc = self.normalized
        del doc["seed"], doc["output_dir"]
        return canonical_hash(doc)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return parse_experiment_config({**self.normalized, "seed": seed})


def _check_names(value, path: str, names: list[str]) -> None:
    """Every modality name in `value` (a name, or nested lists of names) must exist."""
    if isinstance(value, str):
        if value not in names:
            raise ConfigError(path, f"unknown modality {value!r}")
    elif value is not None:
        for i, v in enumerate(value):
            _check_names(v, f"{path}[{i}]", names)


def parse_experiment_config(doc, path: str = "config") -> ExperimentConfig:
    """Validate a raw JSON document into an ExperimentConfig."""
    check_keys(doc, path, ("world", "archs", "train"), ("eval", "output_dir", "seed"))
    seed = decode(int, doc.get("seed", 0), f"{path}.seed")
    if not 0 <= seed < 2**32:
        raise ConfigError(f"{path}.seed", f"must lie in [0, 2**32), got {seed}")
    world = from_doc(WorldConfig, doc["world"], f"{path}.world", config=True)
    obs_dims = {m.name: m.obs_dim for m in world.modalities}
    names = list(obs_dims)

    check_keys(doc["archs"], f"{path}.archs", names, ())
    archs = {
        name: from_doc(
            EncoderArch, doc["archs"][name], f"{path}.archs.{name}", config=True,
            input_dim=obs_dims[name],
        )
        for name in names
    }
    train = from_doc(TrainConfig, doc["train"], f"{path}.train", config=True, seed=seed)
    for i, pc in enumerate(train.pairs):
        _check_names(pc.spoke, f"{path}.train.pairs[{i}].spoke", names)
    eval_plan = from_doc(EvalPlan, doc.get("eval", {}), f"{path}.eval", config=True)
    for key in ("emergent_pairs", "retrieval_pairs", "few_shot_modality", "arithmetic_pair",
                "ensemble_pair"):
        _check_names(getattr(eval_plan, key), f"{path}.eval.{key}", names)
    hub = next(m.name for m in world.modalities if m.hub)
    if eval_plan.ensemble_pair is not None and hub in eval_plan.ensemble_pair:
        # the ensemble ranks the hub's index; a query of the hub's own view finds itself
        raise ConfigError(f"{path}.eval.ensemble_pair", f"must not name the hub {hub!r}")
    try:
        check_layout(obs_dims, hub, archs, train)
    except TrainerError as e:
        raise ConfigError(path, str(e)) from e
    output_dir = decode(str, doc.get("output_dir", "runs/out"), f"{path}.output_dir")
    return ExperimentConfig(
        world=world, archs=archs, train=train, eval_plan=eval_plan, output_dir=output_dir
    )


# -- ablation suites ---------------------------------------------------------


@dataclass
class AxisSpec:
    axis: str
    grid: list


@dataclass
class AblationSuiteSpec:
    base: ExperimentConfig
    axes: list[AxisSpec]
    seeds: list[int]


def _grid_value(base: ExperimentConfig, axis: str, value, path: str):
    """A grid value of the axis's JSON type whose cell config is valid."""
    if not (axis == "temperature" and value == "learnable"):
        value = decode(_GRID_TYPES[axis], value, path)
    if axis == "loss_mix":
        value = list(value)
    try:
        parse_experiment_config(apply_axis(base.normalized, axis, value))
    except ConfigError as e:
        raise ConfigError(path, str(e)) from e
    return value


def parse_ablation_suite(doc, path: str = "suite") -> AblationSuiteSpec:
    check_keys(doc, path, ("base",), ("axes", "seeds"))
    base = parse_experiment_config(doc["base"], f"{path}.base")
    seeds = decode(list[int], doc.get("seeds", [base.seed]), f"{path}.seeds")
    if not seeds or min(seeds) < 0 or max(seeds) >= 2**32:
        raise ConfigError(f"{path}.seeds", "expected at least one seed, each in [0, 2**32)")
    axes_doc = doc.get("axes")
    if axes_doc is None:
        axes = [AxisSpec(axis=a, grid=list(DEFAULT_GRIDS[a])) for a in ABLATION_AXES]
    else:
        if not decode(list, axes_doc, f"{path}.axes"):
            raise ConfigError(f"{path}.axes", "expected at least one entry")
        axes = []
        for i, a in enumerate(axes_doc):
            apath = f"{path}.axes[{i}]"
            check_keys(a, apath, ("axis",), ("grid",))
            axis = decode(str, a["axis"], f"{apath}.axis")
            if axis not in ABLATION_AXES:
                raise ConfigError(f"{apath}.axis", f"must be one of {list(ABLATION_AXES)}, got {axis!r}")
            grid = decode(list, a.get("grid", DEFAULT_GRIDS[axis]), f"{apath}.grid")
            if not grid:
                raise ConfigError(f"{apath}.grid", "expected at least one entry")
            grid = [_grid_value(base, axis, v, f"{apath}.grid[{j}]") for j, v in enumerate(grid)]
            axes.append(AxisSpec(axis=axis, grid=grid))
    return AblationSuiteSpec(base=base, axes=axes, seeds=seeds)


def apply_axis(base_normalized: dict, axis: str, value) -> dict:
    """One ablation cell's config: the base document with a single axis changed."""
    doc = json.loads(json.dumps(base_normalized))
    if axis == "temperature":
        for pair in doc["train"]["pairs"]:
            if value == "learnable":
                pair["temperature"] = {"mode": "learnable", "value": 0.07}
            else:
                pair["temperature"] = {"mode": "fixed", "value": float(value)}
    elif axis == "projection_head":
        for arch in doc["archs"].values():
            arch["head"] = value
    elif axis == "epochs":
        doc["train"]["epochs"] = int(value)
    elif axis == "batch_size":
        for pair in doc["train"]["pairs"]:
            pair["batch_size"] = int(value)
    elif axis == "hub_capacity":
        hub_name = next(m["name"] for m in doc["world"]["modalities"] if m["hub"])
        doc["archs"][hub_name]["hidden_widths"] = [int(value)]
    elif axis == "noise_strength":
        if value < 0:
            raise ConfigError(axis, f"must be >= 0, got {value}")
        for m in doc["world"]["modalities"]:
            m["obs_noise_scale"] = m["obs_noise_scale"] * float(value)
    elif axis == "alignment":
        if value not in ("aligned", "class_only"):
            raise ConfigError(axis, f"must be one of ['aligned', 'class_only'], got {value!r}")
        for pair in doc["train"]["pairs"]:
            pair["aligned"] = value == "aligned"
    elif axis == "loss_mix":
        for pair in doc["train"]["pairs"]:
            pair["infonce_weight"] = float(value[0])
            pair["l2_weight"] = float(value[1])
    else:
        raise ConfigError("axis", f"unknown ablation axis {axis!r}")
    return doc
