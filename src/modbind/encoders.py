"""Per-modality encoder stacks: MLP trunk plus a linear or MLP projection head.

Each encoder maps raw observations to L2-row-normalized embeddings in the
shared d-dimensional space. `encode` caches enough to run an exact
hand-derived backward pass; `embed` is the same forward pass without that
cache, for callers that never go backward. The MLP head variant is
Linear(in, in) -> GELU -> Linear(in, d).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .codec import RUN_STATE
from .numerics import (
    _NORM_EPS,
    NumericsError,
    block_rows,
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
    views, pos = [], 0
    for a in arrays:
        size = np.size(a)
        views.append(flat[pos : pos + size].reshape(np.shape(a)))
        pos += size
    return flat, views


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
class ForwardCache:
    """Everything the backward pass needs: (input, pre-activation, tanh) per
    layer, and the row norms of the last layer's output (before the eps clamp).

    tanh is each GELU layer's tanh, or None for a layer without activation or
    to have the backward pass recompute it. The last layer has no activation,
    so its pre-activation, layers[-1][1], is the output that was normalized.
    """

    layers: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]] = field(default_factory=list)
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


def _as_obs(params: EncoderParams, obs: np.ndarray) -> np.ndarray:
    """obs as a float64 (rows, input_dim) matrix; NumericsError for any other shape."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 2 or obs.shape[1] != params.arch.input_dim:
        raise NumericsError(
            f"observation dim {obs.shape} does not match encoder input_dim {params.arch.input_dim}"
        )
    return obs


def _forward(params: EncoderParams, h: np.ndarray, layers: list | None = None) -> np.ndarray:
    """The affine layers and activations of one encoder over the rows of h.

    Returns the last layer's output, before row normalization. When `layers`
    is a list, each layer's (input, pre-activation, tanh) is appended to it.
    """
    for W, b, (_, _, act) in zip(params.weights, params.biases, params.arch.layer_plan()):
        pre = h @ W.T
        pre += b
        y, t = _ACTIVATIONS[act][0](pre) if act else (pre, None)
        if layers is not None:
            layers.append((h, pre, t))
        h = y
    return h


def encode(params: EncoderParams, obs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass: trunk, head, then row normalization onto the unit sphere."""
    cache = ForwardCache()
    h = _forward(params, _as_obs(params, obs), cache.layers)
    cache.norms = row_norms(h)
    return l2_normalize_rows(h, norms=cache.norms), cache


def embed(params: EncoderParams, obs: np.ndarray) -> np.ndarray:
    """encode(params, obs)[0] without the cache for a backward pass.

    Raises NumericsError where an output row's norm is non-finite (the
    weights overflow) or below the 1e-12 that normalization clamps at: such
    a row has no direction, and every cosine against it would read 0.

    Runs the rows in blocks of at most block_rows(widest layer) and writes
    each block's embeddings into one output array, so no layer's
    (rows, width) array outlives its block. Every step is per row or a
    row-blocked matmul, so the result is encode's bit for bit wherever BLAS
    rounds a row of a product the same in a block as in the whole array.
    OpenBLAS does at the bundled configs' widths if no block is short (it
    takes other kernels below about 40 rows at width 64), hence blocks of
    near-equal size. At some widths it does not: with a layer output of 700
    it rounds a row by its place in a group of 12 rows.
    """
    obs = _as_obs(params, obs)
    n = obs.shape[0]
    out = np.empty((n, params.arch.embed_dim))
    blocks = -(-n // block_rows(max(o for _, o, _ in params.arch.layer_plan())))
    for i in range(blocks):
        rows = slice(i * n // blocks, (i + 1) * n // blocks)
        # an overflow shows in the norms below, whatever the warning filters say
        with np.errstate(over="ignore", invalid="ignore"):
            h = _forward(params, obs[rows])
            norms = row_norms(h)
        if not np.all((norms >= _NORM_EPS) & (norms < np.inf)):
            raise NumericsError(
                "degenerate embeddings: an encoder output has a non-finite norm or a norm "
                f"below {_NORM_EPS:g} (norms from {np.min(norms):g} to {np.max(norms):g})"
            )
        out[rows] = l2_normalize_rows(h, norms)
    return out


def encode_backward(
    params: EncoderParams,
    cache: ForwardCache,
    grad_embeddings: np.ndarray,
    out: EncoderParams | None = None,
) -> EncoderParams:
    """Exact gradients of the (normalized) embeddings w.r.t. all parameters.

    A gradient buffer is an EncoderParams of the same arch (its `frozen` flag
    means nothing). The gradients are written into `out`'s weights and biases
    (every element is overwritten) and returned; a fresh buffer is allocated
    when `out` is None.
    """
    pre_norm = cache.layers[-1][1]
    if grad_embeddings.shape != pre_norm.shape:
        raise NumericsError(
            f"grad shape {grad_embeddings.shape} does not match embeddings {pre_norm.shape}"
        )
    if out is None:
        out = dataclasses.replace(params)
    elif out.arch != params.arch:
        raise NumericsError("gradient buffer does not match the encoder's arch")
    g = l2_normalize_rows_backward(pre_norm, grad_embeddings, norms=cache.norms)
    plan = params.arch.layer_plan()
    for i in range(len(plan) - 1, -1, -1):
        h, pre, t = cache.layers[i]
        act = plan[i][2]
        if act:
            g = _ACTIVATIONS[act][1](pre, g, tanh=t)
        np.matmul(g.T, h, out=out.weights[i])
        g.sum(axis=0, out=out.biases[i])
        if i > 0:
            g = g @ params.weights[i]
    return out
