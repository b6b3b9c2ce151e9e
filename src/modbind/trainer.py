"""Round-robin contrastive training over (hub, spoke) modality pairs.

One optimizer step trains one pair: encode both sides, take symmetric InfoNCE
(optionally mixed with an L2 regression term), backprop by hand, clip the
global gradient norm, and apply AdamW to the spoke encoder, the hub encoder
(unless frozen), and the log-temperature (when learnable).

Small pairs are balanced by sample replication: each pair draws its batches
from a fixed pre-generated pool sized so the pool cycles replication_factor
times per epoch. Batching is pure pool indexing driven by the global step
counter, so a run resumed from a checkpoint is step-identical to an
uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import CONFIG_REQUIRED, RUN_STATE, decode, from_doc, to_doc
from .contrastive import TemperatureParam, l2_regression_loss, symmetric_info_nce
from .encoders import EncoderArch, EncoderParams, encode, encode_backward, init_encoder, pack
from .report import render_csv, write_atomic
from .world import WorldSpec, sample_training_batch, stream_rng

CHECKPOINT_FORMAT_VERSION = 2


class TrainerError(RuntimeError):
    """Raised on invalid training configs, divergence, or bad checkpoints."""


@dataclass
class PairConfig:
    """One (hub, spoke) training pair and its per-pair knobs."""

    spoke: str
    batch_size: int = 64
    temperature: TemperatureParam = field(
        default_factory=lambda: TemperatureParam(mode="learnable", value=0.07)
    )
    replication_factor: int = 1
    infonce_weight: float = 1.0
    l2_weight: float = 0.0
    aligned: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise TrainerError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.replication_factor < 1:
            raise TrainerError(f"replication_factor must be >= 1, got {self.replication_factor}")
        if self.infonce_weight < 0 or self.l2_weight < 0:
            raise TrainerError("loss weights must be non-negative")


@dataclass
class TrainConfig:
    pairs: list[PairConfig]
    epochs: int = field(default=1, metadata=CONFIG_REQUIRED)
    steps_per_epoch: int = field(default=1, metadata=CONFIG_REQUIRED)
    learning_rate: float = field(default=1e-3, metadata=CONFIG_REQUIRED)
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.95)
    grad_clip_norm: float = 1.0
    hub_frozen: bool = False
    warmup_epochs: float = 1.0
    adam_eps: float = 1e-8
    shared_temperature: bool = False
    seed: int = field(default=0, metadata=RUN_STATE)  # the run's seed, not a config key

    def __post_init__(self):
        if not self.pairs:
            raise TrainerError("at least one training pair is required")
        spokes = [p.spoke for p in self.pairs]
        if len(set(spokes)) != len(spokes):
            raise TrainerError("pair spokes must be unique")
        if self.epochs < 0 or self.steps_per_epoch < 1:
            raise TrainerError("epochs must be >= 0 and steps_per_epoch >= 1")
        if self.learning_rate <= 0:
            raise TrainerError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise TrainerError("weight_decay must be non-negative")
        if self.grad_clip_norm <= 0:
            raise TrainerError("grad_clip_norm must be positive")
        if self.warmup_epochs < 0:
            raise TrainerError("warmup_epochs must be non-negative")
        if self.adam_eps <= 0:
            raise TrainerError("adam_eps must be positive")
        self.betas = (float(self.betas[0]), float(self.betas[1]))
        if not (0 <= self.betas[0] < 1 and 0 <= self.betas[1] < 1):
            raise TrainerError("betas must lie in [0, 1)")


@dataclass
class AdamMoments:
    """First/second moment buffers for one encoder; t counts applied updates.

    Like EncoderParams, each of `m` and `v` is packed into one contiguous
    vector (`m_flat`, `v_flat`) in the order given; the list entries are views
    into it, which AdamW updates in place.
    """

    t: int = field(default=0, kw_only=True)  # declared first: checkpoints list it first
    m: list[np.ndarray]
    v: list[np.ndarray]

    def __post_init__(self):
        self.m_flat, self.m = pack(self.m)
        self.v_flat, self.v = pack(self.v)


@dataclass
class LossRecord:
    step: int
    pair: str
    loss: float
    tau: float


@dataclass
class TrainState:
    """Everything mutable about a run: parameters, optimizer buffers, history."""

    encoders: dict[str, EncoderParams]
    moments: dict[str, AdamMoments]
    temperatures: dict[str, TemperatureParam]
    tau_moments: dict[str, AdamMoments]  # one-element m and v for each log-temperature
    step: int = 0
    loss_history: list[LossRecord] = field(default_factory=list)
    # keys a loaded checkpoint carried beside the state, such as config_hash and seed
    extra: dict = field(default_factory=dict)


_SHARED_TAU_KEY = "__shared__"


def _tau_keys(config: TrainConfig) -> list[str]:
    """Keys of the temperature moments: one per spoke, or the one shared key."""
    return [_SHARED_TAU_KEY] if config.shared_temperature else [pc.spoke for pc in config.pairs]


def adamw_step(
    params: np.ndarray,
    grads: np.ndarray,
    moments: AdamMoments,
    lr: float,
    betas: tuple[float, float],
    weight_decay: float,
    step: int,
    eps: float = 1e-8,
) -> None:
    """One AdamW update (Loshchilov & Hutter, arXiv:1711.05101), in place:
    bias correction and decoupled weight decay.

    `params` is a flat parameter vector (EncoderParams.flat) and `grads` a
    gradient of the same layout; `params`, `moments.m_flat`, `moments.v_flat`
    and `moments.t` are updated in place. `step` is the 1-based count of
    updates applied to these buffers, used for bias correction. Every check
    runs before the first write: a non-finite gradient rejects the whole step
    and leaves the state untouched. `grads` is never written.
    """
    if lr <= 0:
        raise TrainerError(f"learning rate must be positive, got {lr}")
    if step < 1:
        raise TrainerError(f"step must be >= 1, got {step}")
    m, v = moments.m_flat, moments.v_flat
    if not (params.shape == grads.shape == m.shape == v.shape):
        raise TrainerError(
            f"gradient {grads.shape} and moments {m.shape}/{v.shape} do not match "
            f"parameters {params.shape}"
        )
    if not np.isfinite(grads).all():
        raise TrainerError("non-finite gradient; step rejected")
    b1, b2 = betas
    # The same roundings, in the same order, as
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
    #   m_hat = m/(1-b1^t);  v_hat = v/(1-b2^t)
    #   p = p*(1 - lr*wd) - lr*m_hat / (sqrt(v_hat) + eps)
    # computed in place, with `tmp` the only scratch array besides `update`.
    tmp = (1.0 - b1) * grads
    m *= b1
    m += tmp
    np.multiply(1.0 - b2, grads, out=tmp)
    tmp *= grads
    v *= b2
    v += tmp
    update = m / (1.0 - b1**step)
    update *= lr
    np.divide(v, 1.0 - b2**step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    update /= tmp
    params *= 1.0 - lr * weight_decay
    params -= update
    moments.t = step


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place by max_norm/g when the global L2 norm g exceeds it.

    Squares are summed array by array, in the order given. Returns g, the
    norm before clipping.
    """
    if max_norm <= 0:
        raise TrainerError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def encoder_init_seed(seed: int, name: str) -> int:
    """Per-modality initialization seed derived from the run seed."""
    return int(stream_rng(seed, f"train/init/{name}").integers(0, 2**31 - 1))


def check_layout(
    obs_dims: dict[str, int], hub: str, archs: dict[str, EncoderArch], config: TrainConfig
) -> None:
    """Check the rules that span world, archs and training config.

    Each arch fits its modality's observations, the hub and every spoke have
    an arch, all archs share one embed_dim, and no pair's spoke is the hub.
    """
    for name, arch in archs.items():
        if name not in obs_dims:
            raise TrainerError(f"arch for unknown modality {name!r}")
        if arch.input_dim != obs_dims[name]:
            raise TrainerError(
                f"arch input_dim {arch.input_dim} does not match {name!r} obs dim {obs_dims[name]}"
            )
    for pc in config.pairs:
        if pc.spoke == hub:
            raise TrainerError(f"pair spoke {hub!r} must not be the hub modality")
    for name in [hub] + [pc.spoke for pc in config.pairs]:
        if name not in archs:
            raise TrainerError(f"missing arch for modality {name!r}")
    embed_dims = sorted({a.embed_dim for a in archs.values()})
    if len(embed_dims) != 1:
        raise TrainerError(f"all encoders must share one embed_dim, got {embed_dims}")


def init_train_state(
    world: WorldSpec,
    archs: dict[str, EncoderArch],
    config: TrainConfig,
    hub_params: EncoderParams | None = None,
) -> TrainState:
    """Fresh encoders, zero optimizer buffers, per-pair (or shared) temperatures.

    `hub_params` substitutes an externally supplied hub encoder (used to
    measure a pretrained hub's representation quality against frozen weights).
    """
    hub_name = world.hub
    if hub_params is not None:
        archs = {**archs, hub_name: hub_params.arch}
    obs_dims = {m.name: m.obs_dim for m in world.modalities}
    check_layout(obs_dims, hub_name, archs, config)

    encoders = {
        name: init_encoder(arch, encoder_init_seed(config.seed, name)) for name, arch in archs.items()
    }
    if hub_params is not None:
        encoders[hub_name] = hub_params.copy()
    encoders[hub_name].frozen = config.hub_frozen
    moments = {
        name: AdamMoments(
            m=[np.zeros_like(a) for a in enc.arrays()],
            v=[np.zeros_like(a) for a in enc.arrays()],
        )
        for name, enc in encoders.items()
    }

    temperatures: dict[str, TemperatureParam] = {}
    if config.shared_temperature:
        shared = dataclasses.replace(config.pairs[0].temperature)
        for pc in config.pairs:
            temperatures[pc.spoke] = shared
    else:
        for pc in config.pairs:
            temperatures[pc.spoke] = dataclasses.replace(pc.temperature)
    tau_moments = {key: AdamMoments(m=[np.zeros(1)], v=[np.zeros(1)]) for key in _tau_keys(config)}
    return TrainState(
        encoders=encoders, moments=moments, temperatures=temperatures, tau_moments=tau_moments
    )


def check_resume(state: TrainState, archs: dict[str, EncoderArch]) -> None:
    """A state continues a run only if it holds an encoder of every arch, unchanged."""
    for name, arch in archs.items():
        if name not in state.encoders:
            raise TrainerError(f"checkpoint is missing encoder {name!r}")
        if state.encoders[name].arch != arch:
            raise TrainerError(f"checkpoint arch mismatch for encoder {name!r}")


def _build_pools(world: WorldSpec, config: TrainConfig) -> dict[str, object]:
    """Pre-generate each pair's sample pool (label-stripped)."""
    num_pairs = len(config.pairs)
    steps_per_pair = -(-config.steps_per_epoch // num_pairs)
    pools = {}
    for pc in config.pairs:
        per_epoch = steps_per_pair * pc.batch_size
        pool_n = max(1, -(-per_epoch // pc.replication_factor))
        rng = world.stream(f"train/{config.seed}/pool/{pc.spoke}")
        pools[pc.spoke] = sample_training_batch(world, pc.spoke, pool_n, rng, aligned=pc.aligned)
    return pools


def train_run(
    world: WorldSpec,
    archs: dict[str, EncoderArch],
    config: TrainConfig,
    state: TrainState | None = None,
    max_steps: int | None = None,
) -> tuple[TrainState, dict]:
    """Run (or resume) training; returns the final state and a loss summary.

    Passing a checkpointed `state` continues exactly where it left off;
    `max_steps` caps how many additional steps this call executes.
    """
    if state is None:
        state = init_train_state(world, archs, config)
    else:
        check_resume(state, archs)
        for what, have, want in (
            ("temperature", state.temperatures, [pc.spoke for pc in config.pairs]),
            ("temperature moments", state.tau_moments, _tau_keys(config)),
        ):
            missing = [key for key in want if key not in have]
            if missing:
                raise TrainerError(f"checkpoint has no {what} for {missing}")
        if config.shared_temperature:
            # a loaded state holds one object per pair; the run trains one
            shared, *rest = [state.temperatures[pc.spoke] for pc in config.pairs]
            if any(t != shared for t in rest):
                raise TrainerError("shared_temperature needs equal temperatures for every pair")
            for pc in config.pairs:
                state.temperatures[pc.spoke] = shared
    num_pairs = len(config.pairs)
    total_steps = config.epochs * config.steps_per_epoch
    target = total_steps if max_steps is None else min(total_steps, state.step + max_steps)
    pools = _build_pools(world, config)
    warmup_steps = int(round(config.warmup_epochs * config.steps_per_epoch))
    hub_name = world.hub

    while state.step < target:
        t = state.step
        pc = config.pairs[t % num_pairs]
        pool = pools[pc.spoke]
        pool_n = pool.hub_obs.shape[0]
        start = (t // num_pairs) * pc.batch_size
        idx = np.arange(start, start + pc.batch_size) % pool_n
        hub_enc = state.encoders[hub_name]
        spoke_enc = state.encoders[pc.spoke]
        q, q_cache = encode(hub_enc, pool.hub_obs[idx])
        k, k_cache = encode(spoke_enc, pool.spoke_obs[idx])

        temp = state.temperatures[pc.spoke]
        loss = 0.0
        grad_q = np.zeros_like(q)
        grad_k = np.zeros_like(k)
        grad_log_tau = 0.0
        if pc.infonce_weight != 0:
            out = symmetric_info_nce(q, k, temp)
            loss += pc.infonce_weight * out.loss
            grad_q += pc.infonce_weight * out.grad_q
            grad_k += pc.infonce_weight * out.grad_k
            grad_log_tau += pc.infonce_weight * out.grad_log_tau
        if pc.l2_weight != 0:
            reg = l2_regression_loss(q, k)
            loss += pc.l2_weight * reg.loss
            grad_q += pc.l2_weight * reg.grad_q
            grad_k += pc.l2_weight * reg.grad_k
        if not math.isfinite(loss):
            raise TrainerError(
                f"training diverged: non-finite loss at step {t} (pair {pc.spoke})"
            )

        hub_grads = encode_backward(hub_enc, q_cache, grad_q)
        spoke_grads = encode_backward(spoke_enc, k_cache, grad_k)
        tau_learnable = temp.learnable and pc.infonce_weight != 0
        tau_grad = np.array([grad_log_tau])
        clip_list = spoke_grads.arrays()
        if not hub_enc.frozen:
            clip_list = clip_list + hub_grads.arrays()
        if tau_learnable:
            clip_list = clip_list + [tau_grad]
        clip_global_norm(clip_list, config.grad_clip_norm)

        scale = min(1.0, (t + 1) / warmup_steps) if warmup_steps > 0 else 1.0
        lr = config.learning_rate * scale

        mom = state.moments[pc.spoke]
        adamw_step(
            spoke_enc.flat, spoke_grads.flat, mom, lr, config.betas,
            config.weight_decay, mom.t + 1, eps=config.adam_eps,
        )
        if not hub_enc.frozen:
            mom = state.moments[hub_name]
            adamw_step(
                hub_enc.flat, hub_grads.flat, mom, lr, config.betas,
                config.weight_decay, mom.t + 1, eps=config.adam_eps,
            )
        if tau_learnable:
            mom = state.tau_moments[_SHARED_TAU_KEY if config.shared_temperature else pc.spoke]
            log_tau = np.array([temp.log_tau])
            # weight decay never applies to the temperature
            adamw_step(log_tau, tau_grad, mom, lr, config.betas, 0.0, mom.t + 1, eps=config.adam_eps)
            temp.apply_update(float(log_tau[0]))

        state.loss_history.append(
            LossRecord(step=t, pair=pc.spoke, loss=float(loss), tau=temp.tau)
        )
        state.step = t + 1

    return state, train_summary(state, config)


def train_summary(state: TrainState, config: TrainConfig) -> dict:
    """Per-pair loss digest: first/last step and first/last epoch means."""
    per_pair = {}
    steps_per_pair = max(1, config.steps_per_epoch // len(config.pairs))
    for pc in config.pairs:
        recs = [r for r in state.loss_history if r.pair == pc.spoke]
        if not recs:
            per_pair[pc.spoke] = {"steps": 0}
            continue
        per_pair[pc.spoke] = {
            "steps": len(recs),
            "first_loss": recs[0].loss,
            "last_loss": recs[-1].loss,
            "first_epoch_mean_loss": float(np.mean([r.loss for r in recs[:steps_per_pair]])),
            "last_epoch_mean_loss": float(np.mean([r.loss for r in recs[-steps_per_pair:]])),
            "final_tau": recs[-1].tau,
        }
    return {"steps": state.step, "pairs": per_pair}


# -- checkpointing -----------------------------------------------------------


def save_checkpoint(state: TrainState, path: str | Path, extra: dict | None = None) -> None:
    """Write the full training state as JSON; floats round-trip bit-exactly.

    The write is atomic: a failed one leaves whatever `path` held before.
    """
    doc = {
        "version": CHECKPOINT_FORMAT_VERSION,
        "kind": "checkpoint",
        "step": state.step,
        "encoders": to_doc(state.encoders),
        "moments": to_doc(state.moments),
        "temperatures": to_doc(state.temperatures),
        "tau_moments": to_doc(state.tau_moments),
        "loss_history": [[r.step, r.pair, r.loss, r.tau] for r in state.loss_history],
    }
    if extra:
        doc.update(extra)
    write_atomic(path, json.dumps(doc, indent=1))


_STATE_KEYS = ("version", "kind", "step", "encoders", "moments", "temperatures", "tau_moments",
               "loss_history")


def load_checkpoint(path: str | Path) -> TrainState:
    """Read a checkpoint back; rejects unknown versions, malformed content and
    non-finite weights, moments or losses. Keys beside the state land in `extra`.

    Format 1 stored each temperature's moments as scalars, {"m": x, "v": y,
    "t": n}; they are read as one-element AdamMoments.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TrainerError(f"corrupt checkpoint: {e}") from e
    if not isinstance(doc, dict) or doc.get("kind") != "checkpoint":
        raise TrainerError("corrupt checkpoint: not a checkpoint document")
    if doc.get("version") not in (1, CHECKPOINT_FORMAT_VERSION):
        raise TrainerError(f"unsupported checkpoint version {doc.get('version')!r}")
    try:
        if doc["version"] == 1:
            doc["tau_moments"] = {
                key: {**d, "m": [[d["m"]]], "v": [[d["v"]]]}
                for key, d in doc["tau_moments"].items()
            }
        parts = {
            key: {name: from_doc(cls, d, f"{key}.{name}") for name, d in doc[key].items()}
            for key, cls in (("encoders", EncoderParams), ("moments", AdamMoments),
                             ("temperatures", TemperatureParam), ("tau_moments", AdamMoments))
        }
        history = []
        for i, r in enumerate(decode(list, doc["loss_history"], "loss_history")):
            # a row of exactly these JSON types is what decode would return; walking
            # all 1,800 desk rows through decode would double the time of a load
            if type(r) is not list or list(map(type, r)) != [int, str, float, float]:
                r = decode(tuple[int, str, float, float], r, f"loss_history[{i}]")
            history.append(LossRecord(*r))
        step = decode(int, doc["step"], "step")
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as e:
        raise TrainerError(f"corrupt checkpoint: {e!r}") from e
    if step < 0:
        raise TrainerError(f"corrupt checkpoint: step must be >= 0, got {step}")
    encoders, moments, tau_moments = parts["encoders"], parts["moments"], parts["tau_moments"]
    for name in moments:
        if name not in encoders:
            raise TrainerError(f"corrupt checkpoint: moments for unknown encoder {name!r}")
    expected = [(f"moments.{n}", mom, encoders[n].arch.param_shapes()) for n, mom in moments.items()]
    expected += [(f"tau_moments.{n}", mom, [(1,)]) for n, mom in tau_moments.items()]
    for where, mom, shapes in expected:
        if [a.shape for a in mom.m] != shapes or [a.shape for a in mom.v] != shapes:
            raise TrainerError(f"corrupt checkpoint: moment shapes mismatch in {where}")
    arrays = [enc.flat for enc in encoders.values()]
    for mom in [*moments.values(), *tau_moments.values()]:
        arrays += [mom.m_flat, mom.v_flat]
    finite = all(math.isfinite(r.loss) and math.isfinite(r.tau) for r in history)
    if not (finite and all(np.all(np.isfinite(a)) for a in arrays)):
        raise TrainerError("corrupt checkpoint: non-finite weights, optimizer moments or losses")
    return TrainState(
        **parts,
        step=step,
        loss_history=history,
        extra={k: v for k, v in doc.items() if k not in _STATE_KEYS},
    )


def write_training_log(state: TrainState, path: str | Path, config_hash: str | None = None) -> None:
    """CSV log of every step: step, pair, loss, tau."""
    rows = [["step", "pair", "loss", "tau"]]
    rows += [[r.step, r.pair, repr(r.loss), repr(r.tau)] for r in state.loss_history]
    write_atomic(path, render_csv(rows, f"config_hash={config_hash}" if config_hash else ""))
