"""Seeded synthetic multimodal universe with known ground truth.

Shared latent concepts (a Gaussian mixture over class means) are observed
through fixed per-modality nonlinear maps. One modality is the hub; every
other modality ("spoke") is only ever paired with the hub during training.
Because every observation derives from a recorded latent, emergent alignment
between never-paired spokes is directly checkable.

All sampling is a pure function of (world seed, stream name, draw counter):
distinct stream names give independent, replayable streams, which is how
train/eval disjointness is enforced ("train/..." vs "eval/..." namespaces).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import gelu_forward

WORLD_FORMAT_VERSION = 1

# prompt-like observations are drawn this much tighter than data samples
PROTOTYPE_NOISE_DIVISOR = 4.0

NONLINEARITIES = ("tanh", "gelu", "identity")

_SEPARABILITY_FACTOR = 4.0  # min pairwise class-mean distance, in within-class scales
_MAX_MEAN_ATTEMPTS = 8


class WorldError(ValueError):
    """Raised for invalid world configurations or unknown modalities."""


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent generator for (seed, stream name); deterministic and replayable."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = list(np.frombuffer(digest[:16], dtype=np.uint32))
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF] + [int(w) for w in words]))


@dataclass(frozen=True)
class ModalityId:
    id: int
    name: str


@dataclass
class ModalityObserver:
    """Fixed nonlinear view of the latent space for one modality.

    obs = nonlinearity(latent @ weight.T + bias) + obs_noise_scale * noise,
    with weight drawn once at world creation and immutable thereafter.
    """

    modality: ModalityId
    weight: np.ndarray  # (obs_dim, latent_dim)
    bias: np.ndarray  # (obs_dim,)
    nonlinearity: str = "tanh"  # one of NONLINEARITIES
    obs_noise_scale: float = 0.0

    @property
    def obs_dim(self) -> int:
        return self.weight.shape[0]

    def observe(self, latents: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Observe latent rows; rng=None gives the noiseless observation."""
        pre = latents @ self.weight.T + self.bias
        if self.nonlinearity == "tanh":
            obs = np.tanh(pre)
        elif self.nonlinearity == "gelu":
            obs = gelu_forward(pre)
        elif self.nonlinearity == "identity":
            obs = pre
        else:
            raise WorldError(f"unknown nonlinearity {self.nonlinearity!r}")
        if rng is not None and self.obs_noise_scale > 0:
            obs = obs + self.obs_noise_scale * rng.standard_normal(obs.shape)
        return obs


@dataclass
class ModalityConfig:
    name: str
    obs_dim: int
    nonlinearity: str = "tanh"
    obs_noise_scale: float = 0.0
    hub: bool = False


@dataclass
class WorldConfig:
    """A world's shape; its constructor checks every modality too."""

    latent_dim: int
    num_classes: int
    within_class_scale: float
    modalities: list[ModalityConfig]

    def __post_init__(self):
        if self.latent_dim < 2:
            raise WorldError("latent_dim must be >= 2")
        if self.num_classes < 2:
            raise WorldError("num_classes must be >= 2")
        if self.within_class_scale < 0:
            raise WorldError("within_class_scale must be non-negative")
        if len(self.modalities) < 2:
            raise WorldError("need at least two modalities (hub plus one spoke)")
        for m in self.modalities:
            if m.obs_dim < 1:
                raise WorldError(f"obs_dim must be >= 1 for {m.name!r}")
            if m.nonlinearity not in NONLINEARITIES:
                raise WorldError(
                    f"nonlinearity of {m.name!r} must be one of {list(NONLINEARITIES)}, "
                    f"got {m.nonlinearity!r}"
                )
            if m.obs_noise_scale < 0:
                raise WorldError(f"obs_noise_scale must be >= 0 for {m.name!r}")
        hubs = sum(m.hub for m in self.modalities)
        if hubs != 1:
            raise WorldError(f"exactly one hub modality required, found {hubs}")
        names = [m.name for m in self.modalities]
        if len(set(names)) != len(names):
            raise WorldError("modality names must be unique")


@dataclass
class PairBatch:
    """Aligned (hub, spoke) observations; row i of both derives from latent row i.

    class_labels and latents are held for evaluation and debugging only; the
    trainer consumes TrainingPair, which never carries them.
    """

    hub_obs: np.ndarray
    spoke_obs: np.ndarray
    spoke: ModalityId
    class_labels: np.ndarray
    latents: np.ndarray

    def training_view(self) -> "TrainingPair":
        return TrainingPair(hub_obs=self.hub_obs, spoke_obs=self.spoke_obs, spoke=self.spoke)


@dataclass
class TrainingPair:
    """Label-stripped view of a PairBatch; the only pair type the trainer sees."""

    hub_obs: np.ndarray
    spoke_obs: np.ndarray
    spoke: ModalityId


@dataclass
class LabeledEvalSet:
    modality: ModalityId
    obs: np.ndarray
    labels: np.ndarray


@dataclass
class WorldSpec:
    """Immutable generative model: class means plus per-modality observers."""

    latent_dim: int
    num_classes: int
    class_means: np.ndarray  # (C, latent_dim)
    within_class_scale: float
    modalities: list[ModalityObserver]
    hub: ModalityId
    seed: int
    _by_name: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_name = {obs.modality.name: obs for obs in self.modalities}

    def observer(self, modality: str | ModalityId) -> ModalityObserver:
        name = modality.name if isinstance(modality, ModalityId) else modality
        try:
            return self._by_name[name]
        except KeyError:
            raise WorldError(f"unknown modality {name!r}") from None

    def modality_names(self) -> list[str]:
        return [obs.modality.name for obs in self.modalities]

    def stream(self, name: str) -> np.random.Generator:
        """Named sampling stream tied to this world's seed."""
        return stream_rng(self.seed, name)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "version": WORLD_FORMAT_VERSION,
            "kind": "world",
            "seed": self.seed,
            "latent_dim": self.latent_dim,
            "num_classes": self.num_classes,
            "within_class_scale": self.within_class_scale,
            "hub": self.hub.name,
            "class_means": self.class_means.tolist(),
            "modalities": [
                {
                    "id": obs.modality.id,
                    "name": obs.modality.name,
                    "obs_dim": obs.obs_dim,
                    "nonlinearity": obs.nonlinearity,
                    "obs_noise_scale": obs.obs_noise_scale,
                    "weight": obs.weight.tolist(),
                    "bias": obs.bias.tolist(),
                }
                for obs in self.modalities
            ],
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "WorldSpec":
        doc = json.loads(text)
        if doc.get("version") != WORLD_FORMAT_VERSION or doc.get("kind") != "world":
            raise WorldError("unrecognized world document version")
        modalities = [
            ModalityObserver(
                modality=ModalityId(id=m["id"], name=m["name"]),
                weight=np.asarray(m["weight"], dtype=np.float64),
                bias=np.asarray(m["bias"], dtype=np.float64),
                nonlinearity=m["nonlinearity"],
                obs_noise_scale=m["obs_noise_scale"],
            )
            for m in doc["modalities"]
        ]
        hub = next(m.modality for m in modalities if m.modality.name == doc["hub"])
        return cls(
            latent_dim=doc["latent_dim"],
            num_classes=doc["num_classes"],
            class_means=np.asarray(doc["class_means"], dtype=np.float64),
            within_class_scale=doc["within_class_scale"],
            modalities=modalities,
            hub=hub,
            seed=doc["seed"],
        )


def make_world(config: WorldConfig, seed: int) -> WorldSpec:
    """Build a world deterministically from (config, seed).

    Class means are sampled isotropically, then rescaled so the minimum
    pairwise distance is at least 4x the within-class scale (separability
    guarantee). Observer weights are drawn once per modality from dedicated
    streams and are immutable afterwards.
    """
    target = _SEPARABILITY_FACTOR * config.within_class_scale
    rng = stream_rng(seed, "world/class_means")
    means = None
    for _ in range(_MAX_MEAN_ATTEMPTS):
        cand = rng.standard_normal((config.num_classes, config.latent_dim))
        dists = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=-1)
        min_dist = dists[~np.eye(config.num_classes, dtype=bool)].min()
        if min_dist > 0:
            if min_dist < target:
                cand = cand * (target / min_dist)
            means = cand
            break
    if means is None:
        raise WorldError("could not sample pairwise-distinct class means")

    observers = []
    hub_id = None
    for idx, mc in enumerate(config.modalities):
        w_rng = stream_rng(seed, f"world/observer/{mc.name}")
        weight = w_rng.standard_normal((mc.obs_dim, config.latent_dim)) / np.sqrt(config.latent_dim)
        bias = 0.1 * w_rng.standard_normal(mc.obs_dim)
        mid = ModalityId(id=idx, name=mc.name)
        observers.append(
            ModalityObserver(
                modality=mid,
                weight=weight,
                bias=bias,
                nonlinearity=mc.nonlinearity,
                obs_noise_scale=mc.obs_noise_scale,
            )
        )
        if mc.hub:
            hub_id = mid

    return WorldSpec(
        latent_dim=config.latent_dim,
        num_classes=config.num_classes,
        class_means=means,
        within_class_scale=config.within_class_scale,
        modalities=observers,
        hub=hub_id,
        seed=seed,
    )


def _sample_class_latents(world: WorldSpec, n: int, rng: np.random.Generator):
    """Round-robin class assignment plus within-class Gaussian noise."""
    labels = np.arange(n) % world.num_classes
    latents = world.class_means[labels] + world.within_class_scale * rng.standard_normal(
        (n, world.latent_dim)
    )
    return latents, labels


def sample_pair_batch(
    world: WorldSpec,
    spoke: str | ModalityId,
    n: int,
    rng: np.random.Generator,
    aligned: bool = True,
) -> PairBatch:
    """Draw n aligned (hub, spoke) observation pairs with balanced classes.

    With aligned=False the spoke observes an independent latent of the same
    class instead of the shared one (the spatial/temporal-alignment ablation
    knob); hub_obs and class labels are unchanged.
    """
    if n < 1:
        raise WorldError("batch size must be >= 1")
    spoke_obs_model = world.observer(spoke)
    if spoke_obs_model.modality.name == world.hub.name:
        raise WorldError("spoke must differ from the hub modality")
    hub_obs_model = world.observer(world.hub)

    latents, labels = _sample_class_latents(world, n, rng)
    hub_obs = hub_obs_model.observe(latents, rng)
    if aligned:
        spoke_latents = latents
    else:
        spoke_latents = world.class_means[labels] + world.within_class_scale * rng.standard_normal(
            (n, world.latent_dim)
        )
    spoke_obs = spoke_obs_model.observe(spoke_latents, rng)
    return PairBatch(
        hub_obs=hub_obs,
        spoke_obs=spoke_obs,
        spoke=spoke_obs_model.modality,
        class_labels=labels,
        latents=latents,
    )


def sample_training_batch(
    world: WorldSpec,
    spoke: str | ModalityId,
    n: int,
    rng: np.random.Generator,
    aligned: bool = True,
) -> TrainingPair:
    """Label-stripped pair batch; the only sampling entry point the trainer uses."""
    return sample_pair_batch(world, spoke, n, rng, aligned=aligned).training_view()


def class_prototypes(
    world: WorldSpec, modality: str | ModalityId, prompts_per_class: int, rng: np.random.Generator
):
    """Prompt-like observations: P per class, drawn tighter than data samples.

    Returns (obs, labels) where obs has C*P rows grouped by class
    ([0]*P, [1]*P, ...) and prompt latents use noise scale
    within_class_scale / 4.
    """
    if prompts_per_class < 1:
        raise WorldError("prompts_per_class must be >= 1")
    obs_model = world.observer(modality)
    c = world.num_classes
    labels = np.repeat(np.arange(c), prompts_per_class)
    noise_scale = world.within_class_scale / PROTOTYPE_NOISE_DIVISOR
    latents = world.class_means[labels] + noise_scale * rng.standard_normal(
        (c * prompts_per_class, world.latent_dim)
    )
    return obs_model.observe(latents, rng), labels


def make_eval_set(
    world: WorldSpec, modality: str | ModalityId, n_per_class: int, rng: np.random.Generator
) -> LabeledEvalSet:
    """Balanced labeled observation set for evaluation (round-robin classes)."""
    if n_per_class < 1:
        raise WorldError("n_per_class must be >= 1")
    obs_model = world.observer(modality)
    n = n_per_class * world.num_classes
    latents, labels = _sample_class_latents(world, n, rng)
    return LabeledEvalSet(
        modality=obs_model.modality, obs=obs_model.observe(latents, rng), labels=labels
    )
