"""Per-modality encoder stacks: MLP trunk plus a linear or MLP projection head.

Each encoder maps raw observations to L2-row-normalized embeddings in the
shared d-dimensional space. Forward passes cache enough to run an exact
hand-derived backward pass; the MLP head variant is
Linear(in, in) -> GELU -> Linear(in, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import RUN_STATE
from .numerics import (
    NumericsError,
    gelu_backward,
    gelu_with_tanh,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    row_norms,
)
from .world import stream_rng

# the activations an arch may name, as (forward, backward): the forward returns
# the activation and a cache that encode keeps for the backward's `tanh`
_ACTIVATIONS = {
    "gelu": (gelu_with_tanh, gelu_backward),
}


@dataclass(frozen=True)
class EncoderArch:
    """Shape of one modality's encoder; embed_dim must match across modalities."""

    input_dim: int = field(metadata=RUN_STATE)  # the modality's obs_dim
    hidden_widths: tuple[int, ...]
    embed_dim: int
    head: str = "linear"  # "linear" | "mlp"
    activation: str = "gelu"  # trunk activation; "gelu" is the only one

    def __post_init__(self):
        if self.head not in ("linear", "mlp"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if self.input_dim < 1 or self.embed_dim < 1:
            raise ValueError("input_dim and embed_dim must be >= 1")
        if any(h < 1 for h in self.hidden_widths):
            raise ValueError("hidden widths must be >= 1")

    def layer_plan(self) -> list[tuple[int, int, str | None]]:
        """(in_dim, out_dim, activation) per affine layer, trunk then head."""
        plan = []
        prev = self.input_dim
        for h in self.hidden_widths:
            plan.append((prev, h, self.activation))
            prev = h
        if self.head == "linear":
            plan.append((prev, self.embed_dim, None))
        else:
            plan.append((prev, prev, "gelu"))
            plan.append((prev, self.embed_dim, None))
        return plan

    def param_shapes(self) -> list[tuple[int, ...]]:
        """Shapes of W0, b0, W1, b1, ...: the order of EncoderParams.arrays()."""
        return [shape for i, o, _ in self.layer_plan() for shape in ((o, i), (o,))]


def pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One contiguous float64 copy of `arrays`, laid end to end, and a view of it per array."""
    flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    return flat, _views(flat, [np.shape(a) for a in arrays])


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of `flat` with the given shapes, laid end to end."""
    views, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[pos : pos + size].reshape(shape))
        pos += size
    return views


@dataclass
class EncoderParams:
    """Weights/biases for every affine layer of one encoder, in layer order.

    All of them live in one contiguous float64 vector `flat`, laid out as
    W0, b0, W1, b1, ... (the order of `arrays()`); `weights[i]` and
    `biases[i]` are views into it. Construction packs the given arrays into a
    fresh vector, so `dataclasses.replace` or a decoded checkpoint never
    shares memory with its source. Optimizers update `flat` in place.
    """

    arch: EncoderArch
    # the trainer runs no backward pass or update for a frozen hub; declared
    # here so checkpoints list it before the arrays
    frozen: bool = field(default=False, kw_only=True)
    weights: list[np.ndarray]  # each (out_dim, in_dim)
    biases: list[np.ndarray]  # each (out_dim,)

    def __post_init__(self):
        arrays = self.arrays()
        shapes = [np.shape(a) for a in arrays]
        if len(self.weights) != len(self.biases) or shapes != self.arch.param_shapes():
            raise ValueError("weight and bias shapes do not match the arch's layer plan")
        self.flat, views = pack(arrays)
        self.weights, self.biases = views[0::2], views[1::2]

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order (weights and biases interleaved)."""
        return [a for wb in zip(self.weights, self.biases) for a in wb]


@dataclass
class EncoderGrads:
    """Parameter gradients in the layout of EncoderParams: one vector, a view per array."""

    flat: np.ndarray
    views: list[np.ndarray]  # in EncoderParams.arrays() order

    @classmethod
    def like(cls, params: EncoderParams) -> "EncoderGrads":
        """An uninitialized buffer for `params`' gradients, which encode_backward fills."""
        flat = np.empty_like(params.flat)
        return cls(flat=flat, views=_views(flat, params.arch.param_shapes()))

    def arrays(self) -> list[np.ndarray]:
        return self.views


@dataclass
class ForwardCache:
    """Everything the backward pass needs: per-layer inputs and pre-activations,
    each GELU layer's tanh (None for a layer without activation, or to have the
    backward pass recompute it), and the last layer's output with its row norms
    (before the eps clamp)."""

    inputs: list[np.ndarray] = field(default_factory=list)
    pre_activations: list[np.ndarray] = field(default_factory=list)
    tanh: list[np.ndarray | None] = field(default_factory=list)
    pre_norm: np.ndarray | None = None
    norms: np.ndarray | None = None


def init_encoder(arch: EncoderArch, seed: int) -> EncoderParams:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = stream_rng(seed, "encoder/init")
    weights, biases = [], []
    for in_dim, out_dim, _ in arch.layer_plan():
        a = np.sqrt(6.0 / (in_dim + out_dim))
        weights.append(rng.uniform(-a, a, size=(out_dim, in_dim)))
        biases.append(np.zeros(out_dim))
    return EncoderParams(arch=arch, weights=weights, biases=biases)


def encode(params: EncoderParams, obs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass: trunk, head, then row normalization onto the unit sphere."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 2 or obs.shape[1] != params.arch.input_dim:
        raise NumericsError(
            f"observation dim {obs.shape} does not match encoder input_dim {params.arch.input_dim}"
        )
    cache = ForwardCache()
    h = obs
    for (W, b), (_, _, act) in zip(
        zip(params.weights, params.biases), params.arch.layer_plan()
    ):
        cache.inputs.append(h)
        pre = h @ W.T
        pre += b
        cache.pre_activations.append(pre)
        h, t = _ACTIVATIONS[act][0](pre) if act else (pre, None)
        cache.tanh.append(t)
    cache.pre_norm = h
    cache.norms = row_norms(h)
    return l2_normalize_rows(h, norms=cache.norms), cache


def encode_backward(
    params: EncoderParams,
    cache: ForwardCache,
    grad_embeddings: np.ndarray,
    out: EncoderGrads | None = None,
) -> EncoderGrads:
    """Exact gradients of the (normalized) embeddings w.r.t. all parameters.

    They are written into `out` (every element is overwritten) and returned;
    a fresh buffer is allocated when `out` is None.
    """
    if grad_embeddings.shape != cache.pre_norm.shape:
        raise NumericsError(
            f"grad shape {grad_embeddings.shape} does not match embeddings {cache.pre_norm.shape}"
        )
    if out is None:
        out = EncoderGrads.like(params)
    elif [v.shape for v in out.views] != params.arch.param_shapes():
        raise NumericsError("gradient buffer does not match the encoder's parameter shapes")
    views = out.views
    g = l2_normalize_rows_backward(cache.pre_norm, grad_embeddings, norms=cache.norms)
    plan = params.arch.layer_plan()
    for i in range(len(plan) - 1, -1, -1):
        act = plan[i][2]
        if act:
            g = _ACTIVATIONS[act][1](cache.pre_activations[i], g, tanh=cache.tanh[i])
        np.matmul(g.T, cache.inputs[i], out=views[2 * i])
        g.sum(axis=0, out=views[2 * i + 1])
        if i > 0:
            g = g @ params.weights[i]
    return out

