"""Seeded synthetic multimodal universe with known ground truth.

Shared latent concepts (a Gaussian mixture over class means) are observed
through fixed per-modality nonlinear maps. One modality is the hub; every
other modality ("spoke") is only ever paired with the hub during training.
Because every observation derives from a recorded latent, emergent alignment
between never-paired spokes is directly checkable.

`observe` is the one sampler, and each draw is a pure function of (world seed,
stream name, draw counter): distinct stream names give independent, replayable
streams, which is how train/eval disjointness is enforced ("train/", "eval/").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import gelu_with_tanh

WORLD_FORMAT_VERSION = 1

# prompt-like observations are drawn this much tighter than data samples
PROTOTYPE_NOISE_DIVISOR = 4.0

# a modality's observation map, by the name its config gives
_NONLINEARITIES = {
    "tanh": np.tanh, "gelu": lambda pre: gelu_with_tanh(pre)[0], "identity": lambda pre: pre,
}

_SEPARABILITY_FACTOR = 4.0  # min pairwise class-mean distance, in within-class scales


class WorldError(ValueError):
    """Raised for invalid world configurations or unknown modalities."""


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent generator for (seed, stream name); deterministic and replayable.

    The seed must lie in [0, 2**32): it is one 32-bit word of the seed sequence.
    """
    if not 0 <= seed < 2**32:
        raise WorldError(f"seed must lie in [0, 2**32), got {seed}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = list(np.frombuffer(digest[:16], dtype=np.uint32))
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(w) for w in words]))


@dataclass
class ModalityObserver:
    """Fixed nonlinear view of the latent space for one modality.

    obs = nonlinearity(latent @ weight.T + bias) + obs_noise_scale * noise,
    with weight drawn once at world creation and immutable thereafter.
    """

    name: str
    weight: np.ndarray  # (obs_dim, latent_dim)
    bias: np.ndarray  # (obs_dim,)
    nonlinearity: str = "tanh"  # a key of _NONLINEARITIES
    obs_noise_scale: float = 0.0

    @property
    def obs_dim(self) -> int:
        return self.weight.shape[0]

    def observe(self, latents: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Observe latent rows; rng=None gives the noiseless observation."""
        pre = latents @ self.weight.T + self.bias
        obs = _NONLINEARITIES[self.nonlinearity](pre)
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
            if m.nonlinearity not in _NONLINEARITIES:
                raise WorldError(
                    f"nonlinearity of {m.name!r} must be one of {list(_NONLINEARITIES)}, "
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
class TrainingPair:
    """Aligned (hub, spoke) observations; row i of both derives from latent row i.

    It carries no class labels or latents: the trainer never sees them.
    """

    hub_obs: np.ndarray
    spoke_obs: np.ndarray


@dataclass
class LabeledEvalSet:
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
    hub: str  # the hub modality's name
    seed: int
    _by_name: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_name = {obs.name: obs for obs in self.modalities}
        self.observer(self.hub)  # the hub must name one of the modalities

    def observer(self, name: str) -> ModalityObserver:
        try:
            return self._by_name[name]
        except KeyError:
            raise WorldError(f"unknown modality {name!r}") from None

    def stream(self, name: str) -> np.random.Generator:
        """Named sampling stream tied to this world's seed."""
        return stream_rng(self.seed, name)

    def fingerprint(self) -> str:
        """sha256 hex digest of the numbers `make_world` drew: the class means, then each
        observer's weight and bias, each as its shape and its little-endian float64 bytes."""
        digest = hashlib.sha256()
        for a in [self.class_means, *(a for obs in self.modalities for a in (obs.weight, obs.bias))]:
            digest.update(repr(a.shape).encode("ascii"))
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return digest.hexdigest()

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "version": WORLD_FORMAT_VERSION,
            "kind": "world",
            "seed": self.seed,
            "latent_dim": self.latent_dim,
            "num_classes": self.num_classes,
            "within_class_scale": self.within_class_scale,
            "hub": self.hub,
            "class_means": self.class_means.tolist(),
            "modalities": [
                {
                    "id": i,
                    "name": obs.name,
                    "obs_dim": obs.obs_dim,
                    "nonlinearity": obs.nonlinearity,
                    "obs_noise_scale": obs.obs_noise_scale,
                    "weight": obs.weight.tolist(),
                    "bias": obs.bias.tolist(),
                }
                for i, obs in enumerate(self.modalities)
            ],
        }
        return json.dumps(doc, indent=1)


def make_world(config: WorldConfig, seed: int) -> WorldSpec:
    """Build a world deterministically from (config, seed).

    Class means are sampled isotropically, then rescaled so the minimum
    pairwise distance is at least 4x the within-class scale (separability
    guarantee). Observer weights are drawn once per modality from dedicated
    streams and are immutable afterwards.
    """
    target = _SEPARABILITY_FACTOR * config.within_class_scale
    means = stream_rng(seed, "world/class_means").standard_normal(
        (config.num_classes, config.latent_dim)
    )
    dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
    min_dist = dists[~np.eye(config.num_classes, dtype=bool)].min()
    if min_dist == 0:
        raise WorldError("class means are not pairwise distinct")
    if min_dist < target:
        means = means * (target / min_dist)

    observers = []
    for mc in config.modalities:
        w_rng = stream_rng(seed, f"world/observer/{mc.name}")
        weight = w_rng.standard_normal((mc.obs_dim, config.latent_dim)) / np.sqrt(config.latent_dim)
        bias = 0.1 * w_rng.standard_normal(mc.obs_dim)
        observers.append(
            ModalityObserver(
                name=mc.name,
                weight=weight,
                bias=bias,
                nonlinearity=mc.nonlinearity,
                obs_noise_scale=mc.obs_noise_scale,
            )
        )

    return WorldSpec(
        latent_dim=config.latent_dim,
        num_classes=config.num_classes,
        class_means=means,
        within_class_scale=config.within_class_scale,
        modalities=observers,
        hub=next(mc.name for mc in config.modalities if mc.hub),
        seed=seed,
    )


def round_robin(world: WorldSpec, n: int) -> np.ndarray:
    """n labels of round-robin classes: row i is of class i % num_classes."""
    return np.arange(n) % world.num_classes


def observe(world: WorldSpec, modalities: list[str], labels: np.ndarray,
            rng: np.random.Generator, scale: float | None = None) -> dict[str, np.ndarray]:
    """The one label -> latent -> observe rule: {modality: obs}, row i from label i. One
    latent per label, its class mean plus Gaussian noise of `scale` (default
    within_class_scale), is observed through each named modality in the order given,
    each adding its own noise from the same rng. A modality is named once: two views of
    it would be one array."""
    if len(labels) < 1:
        raise WorldError("a draw needs at least one row")
    if len(set(modalities)) != len(modalities):
        raise WorldError(f"a draw names each modality once, got {modalities}")
    scale = world.within_class_scale if scale is None else scale
    noise = rng.standard_normal((len(labels), world.latent_dim))
    latents = world.class_means[labels] + scale * noise
    return {name: world.observer(name).observe(latents, rng) for name in modalities}


def sample_training_batch(
    world: WorldSpec,
    spoke: str,
    n: int,
    rng: np.random.Generator,
    aligned: bool = True,
) -> TrainingPair:
    """Draw n aligned (hub, spoke) observation pairs with round-robin classes.

    Row i is of class i % num_classes. With aligned=False the spoke observes
    an independent latent of the same class instead of the shared one (the
    spatial/temporal-alignment ablation knob); hub_obs is unchanged.
    """
    if spoke == world.hub:
        raise WorldError("spoke must differ from the hub modality")
    labels = round_robin(world, n)
    views = [[world.hub, spoke]] if aligned else [[world.hub], [spoke]]  # one latent per view
    obs = {name: o for names in views for name, o in observe(world, names, labels, rng).items()}
    return TrainingPair(hub_obs=obs[world.hub], spoke_obs=obs[spoke])


def class_prototypes(
    world: WorldSpec, modality: str, prompts_per_class: int, rng: np.random.Generator
):
    """Prompt-like observations: P per class, drawn tighter than data samples.

    Returns (obs, labels) where obs has C*P rows grouped by class
    ([0]*P, [1]*P, ...) and prompt latents use noise scale
    within_class_scale / 4.
    """
    labels = np.arange(world.num_classes * prompts_per_class) // prompts_per_class
    scale = world.within_class_scale / PROTOTYPE_NOISE_DIVISOR
    return observe(world, [modality], labels, rng, scale)[modality], labels


def make_eval_set(
    world: WorldSpec, modality: str, n_per_class: int, rng: np.random.Generator
) -> LabeledEvalSet:
    """Balanced labeled observation set for evaluation (round-robin classes)."""
    labels = round_robin(world, n_per_class * world.num_classes)
    return LabeledEvalSet(obs=observe(world, [modality], labels, rng)[modality], labels=labels)
