"""Round-robin contrastive training over (hub, spoke) modality pairs.

One optimizer step, `_train_step`, trains one pair: encode both sides, take
symmetric InfoNCE (optionally mixed with an L2 regression term), backprop by
hand, clip the global gradient norm, and apply AdamW to the spoke encoder,
the hub encoder (unless frozen), and the log-temperature (when learnable and
InfoNCE is on). `train_run` schedules the steps: pair, batch, learning rate.

Small pairs are balanced by sample replication: each pair draws its batches
from a fixed pre-generated pool sized so the pool cycles replication_factor
times per epoch. Batching is pure pool indexing driven by the global step
counter, so a run resumed from a checkpoint is step-identical to an
uninterrupted one. `init_train_state` is the one definition of a run's state:
`check_resume` lets a state continue a run only if it is laid out as the state
`init_train_state` builds for that run, whatever its trained values.
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
        if self.infonce_weight == 0 and self.l2_weight == 0:
            # the step would train on weight decay alone and log a loss of 0.0
            raise TrainerError(
                f"pair {self.spoke!r}: infonce_weight and l2_weight are both 0, so it trains on nothing"
            )


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
        # every pair trains the first pair's temperature, so the others must say so
        if self.shared_temperature:
            first = self.pairs[0]
            for pc in self.pairs[1:]:
                if pc.temperature != first.temperature:
                    raise TrainerError(
                        f"shared_temperature needs equal temperatures for every pair, but pair "
                        f"{pc.spoke!r} has {to_doc(pc.temperature, config=True)} and pair "
                        f"{first.spoke!r} {to_doc(first.temperature, config=True)}"
                    )
        for pc in self.pairs:
            # a batch drawn from a smaller pool repeats samples, and InfoNCE would
            # score copies of a positive as its negatives
            pool_n = pool_size(self, pc)
            if pool_n < pc.batch_size:
                raise TrainerError(
                    f"pair {pc.spoke!r}: replication_factor {pc.replication_factor} leaves a pool "
                    f"of {pool_n} samples, fewer than its batch_size {pc.batch_size}"
                )
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
    """Scale flat gradient vectors in place by max_norm/g when their global L2 norm g exceeds it.

    Each vector contributes its dot product with itself, in the order given.
    Returns g, the norm before clipping.
    """
    if max_norm <= 0:
        raise TrainerError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(sum(float(np.vdot(g, g)) for g in grads))
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
    world: WorldSpec, archs: dict[str, EncoderArch], config: TrainConfig
) -> TrainState:
    """Fresh encoders, zero optimizer buffers, per-pair (or shared) temperatures."""
    obs_dims = {m.name: m.obs_dim for m in world.modalities}
    check_layout(obs_dims, world.hub, archs, config)

    encoders = {
        name: init_encoder(arch, encoder_init_seed(config.seed, name)) for name, arch in archs.items()
    }
    encoders[world.hub].frozen = config.hub_frozen
    moments = {
        name: AdamMoments(
            m=[np.zeros_like(a) for a in enc.arrays()],
            v=[np.zeros_like(a) for a in enc.arrays()],
        )
        for name, enc in encoders.items()
    }

    temperatures = {pc.spoke: dataclasses.replace(pc.temperature) for pc in config.pairs}
    tau_keys = [_SHARED_TAU_KEY] if config.shared_temperature else list(temperatures)
    tau_moments = {key: AdamMoments(m=[np.zeros(1)], v=[np.zeros(1)]) for key in tau_keys}
    _share_temperature(temperatures, config)
    return TrainState(
        encoders=encoders, moments=moments, temperatures=temperatures, tau_moments=tau_moments
    )


def _share_temperature(temperatures: dict[str, TemperatureParam], config: TrainConfig) -> None:
    """Under shared_temperature, make every pair hold the first pair's temperature object."""
    if config.shared_temperature:
        shared = temperatures[config.pairs[0].spoke]
        temperatures.update((pc.spoke, shared) for pc in config.pairs)


def check_resume(
    state: TrainState, world: WorldSpec, archs: dict[str, EncoderArch], config: TrainConfig
) -> None:
    """Raise unless `state` may continue the run: whatever values training gave it, it is
    laid out as the state `init_train_state` builds for (world, archs, config), and under
    shared_temperature every pair's temperature is equal."""
    def layout(s):  # each encoder's arch and frozen flag, each temperature's settings, all keys
        return {"encoders": {n: {"arch": e.arch, "frozen": e.frozen}
                             for n, e in s.encoders.items()},
                "moments": dict.fromkeys(s.moments, "present"),
                "temperatures": {k: to_doc(t, config=True) for k, t in s.temperatures.items()},
                "temperature moments": dict.fromkeys(s.tau_moments, "present")}

    have, want = layout(state), layout(init_train_state(world, archs, config))
    for part, run in want.items():
        diffs = [f"{k!r}: {have[part].get(k, 'missing')} in the state, {run.get(k, 'missing')} "
                 f"in the run" for k in sorted(have[part].keys() | run.keys())
                 if have[part].get(k) != run.get(k)]
        if diffs:
            raise TrainerError(f"state does not fit the run: {part} " + "; ".join(diffs))
    if config.shared_temperature:
        shared, *rest = [state.temperatures[pc.spoke] for pc in config.pairs]
        if any(t != shared for t in rest):
            raise TrainerError("shared_temperature needs equal temperatures for every pair")


def pool_size(config: TrainConfig, pc: PairConfig) -> int:
    """Samples in a pair's pool: one epoch of its batches, divided by its replication_factor."""
    per_epoch = -(-config.steps_per_epoch // len(config.pairs)) * pc.batch_size
    return -(-per_epoch // pc.replication_factor)


def _build_pools(world: WorldSpec, config: TrainConfig) -> dict[str, object]:
    """Pre-generate each pair's sample pool (label-stripped)."""
    pools = {}
    for pc in config.pairs:
        rng = world.stream(f"train/{config.seed}/pool/{pc.spoke}")
        pools[pc.spoke] = sample_training_batch(
            world, pc.spoke, pool_size(config, pc), rng, aligned=pc.aligned
        )
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
        check_resume(state, world, archs, config)
        _share_temperature(state.temperatures, config)  # a loaded state holds one per pair
    num_pairs = len(config.pairs)
    total_steps = config.epochs * config.steps_per_epoch
    target = total_steps if max_steps is None else min(total_steps, state.step + max_steps)
    pools = _build_pools(world, config)
    warmup_steps = int(round(config.warmup_epochs * config.steps_per_epoch))
    # one gradient buffer per encoder of the pairs, in the encoder's own type and
    # layout; every step overwrites it
    names = [world.hub] + [pc.spoke for pc in config.pairs]
    grads = {name: dataclasses.replace(state.encoders[name]) for name in names}

    while state.step < target:
        t = state.step
        pc = config.pairs[t % num_pairs]
        pool = pools[pc.spoke]
        pool_n = pool.hub_obs.shape[0]
        start = (t // num_pairs) * pc.batch_size % pool_n
        if start + pc.batch_size <= pool_n:  # a slice is a view; only a wrapping batch copies
            idx = slice(start, start + pc.batch_size)
        else:
            idx = np.arange(start, start + pc.batch_size) % pool_n
        scale = min(1.0, (t + 1) / warmup_steps) if warmup_steps > 0 else 1.0
        _train_step(state, config, world.hub, pc, pool.hub_obs[idx], pool.spoke_obs[idx],
                    config.learning_rate * scale, grads)

    return state, train_summary(state, config)


def _train_step(state: TrainState, config: TrainConfig, hub: str, pc: PairConfig,
                hub_obs: np.ndarray, spoke_obs: np.ndarray, lr: float, grads: dict) -> None:
    """The one training step of pair `pc` on one batch: appends its LossRecord and advances
    `state.step`. `grads` holds a gradient buffer per encoder of the pairs, overwritten here."""
    hub_enc = state.encoders[hub]
    spoke_enc = state.encoders[pc.spoke]
    q, q_cache = encode(hub_enc, hub_obs)
    k, k_cache = encode(spoke_enc, spoke_obs)
    temp = state.temperatures[pc.spoke]
    if pc.infonce_weight != 0:
        out = symmetric_info_nce(q, k, temp)
        loss = pc.infonce_weight * out.loss
        grad_q, grad_k = out.grad_q, out.grad_k  # fresh arrays, scaled in place
        grad_q *= pc.infonce_weight
        grad_k *= pc.infonce_weight
        grad_log_tau = pc.infonce_weight * out.grad_log_tau
    else:
        loss, grad_q, grad_k, grad_log_tau = 0.0, np.zeros_like(q), np.zeros_like(k), 0.0
    if pc.l2_weight != 0:
        reg = l2_regression_loss(q, k)
        loss += pc.l2_weight * reg.loss
        grad_q += pc.l2_weight * reg.grad_q
        grad_k += pc.l2_weight * reg.grad_k
    if not math.isfinite(loss):
        raise TrainerError(f"training diverged: non-finite loss at step {state.step} (pair {pc.spoke})")

    # what the step trains, in update order: (params, flat grads, moments, weight decay).
    # A frozen hub gets no backward pass, no share of the clip norm and no update;
    # weight decay never applies to the temperature.
    spoke_grads = encode_backward(spoke_enc, k_cache, grad_k, grads[pc.spoke]).flat
    trained = [(spoke_enc.flat, spoke_grads, state.moments[pc.spoke], config.weight_decay)]
    if not hub_enc.frozen:
        hub_grads = encode_backward(hub_enc, q_cache, grad_q, grads[hub]).flat
        trained.append((hub_enc.flat, hub_grads, state.moments[hub], config.weight_decay))
    log_tau = np.array([temp.log_tau])
    if temp.learnable and pc.infonce_weight != 0:
        tau_key = _SHARED_TAU_KEY if config.shared_temperature else pc.spoke
        trained.append((log_tau, np.array([grad_log_tau]), state.tau_moments[tau_key], 0.0))
    clip_global_norm([g for _, g, _, _ in trained], config.grad_clip_norm)
    for params, g, mom, decay in trained:
        adamw_step(params, g, mom, lr, config.betas, decay, mom.t + 1, eps=config.adam_eps)
    if temp.learnable:  # a log_tau the step did not train comes back unchanged
        temp.apply_update(float(log_tau[0]))

    state.loss_history.append(LossRecord(state.step, pc.spoke, float(loss), temp.tau))
    state.step += 1


def train_summary(state: TrainState, config: TrainConfig) -> dict:
    """Per-pair loss digest: first/last step and first/last epoch means."""

    def epoch_mean(recs, rec):
        """Mean loss of the records in the epoch of `rec`."""
        epoch = rec.step // config.steps_per_epoch
        return float(np.mean([r.loss for r in recs if r.step // config.steps_per_epoch == epoch]))

    per_pair = {}
    for pc in config.pairs:
        recs = [r for r in state.loss_history if r.pair == pc.spoke]
        if not recs:
            per_pair[pc.spoke] = {"steps": 0}
            continue
        per_pair[pc.spoke] = {
            "steps": len(recs),
            "first_loss": recs[0].loss,
            "last_loss": recs[-1].loss,
            "first_epoch_mean_loss": epoch_mean(recs, recs[0]),
            "last_epoch_mean_loss": epoch_mean(recs, recs[-1]),
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
    non-finite weights, moments or losses. Keys beside the state land in `extra`;
    of those, a `seed` must be an integer in [0, 2**32) and a `config_hash` a string.

    Format 1 stored each temperature's moments as scalars, {"m": x, "v": y,
    "t": n}; they are read as one-element AdamMoments.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        # RecursionError: nested too deep to parse
        raise TrainerError(f"corrupt checkpoint: {e}") from e
    if not isinstance(doc, dict) or doc.get("kind") != "checkpoint":
        raise TrainerError("corrupt checkpoint: not a checkpoint document")
    version = doc.get("version")
    # exact types: JSON 2.0 and true compare equal to 2 and 1
    if type(version) is not int or version not in (1, CHECKPOINT_FORMAT_VERSION):
        raise TrainerError(f"unsupported checkpoint version {version!r}")
    extra = {k: v for k, v in doc.items() if k not in _STATE_KEYS}
    seed, config_hash = extra.get("seed", 0), extra.get("config_hash", "")
    if type(seed) is not int or not 0 <= seed < 2**32:
        raise TrainerError(f"corrupt checkpoint: seed must be an integer in [0, 2**32), got {seed!r}")
    if type(config_hash) is not str:
        raise TrainerError(f"corrupt checkpoint: config_hash must be a string, got {config_hash!r}")
    try:
        if version == 1:
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
    if moments.keys() != encoders.keys():
        raise TrainerError(
            f"corrupt checkpoint: moments for {sorted(moments)} do not match encoders {sorted(encoders)}"
        )
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
        extra=extra,
    )


def write_training_log(state: TrainState, path: str | Path, config_hash: str | None = None) -> None:
    """CSV log of every step: step, pair, loss, tau."""
    rows = [["step", "pair", "loss", "tau"]]
    rows += [[r.step, r.pair, repr(r.loss), repr(r.tau)] for r in state.loss_history]
    write_atomic(path, render_csv(rows, f"config_hash={config_hash}" if config_hash else ""))
