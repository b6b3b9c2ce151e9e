"""Contrastive training objectives with exact hand-derived gradients.

InfoNCE over a batch of paired embeddings (q_i, k_i): the aligned pair is the
positive and every other k_j in the batch is a negative, so row i's loss is

    -log exp(q_i.k_i / tau) / sum_j exp(q_i.k_j / tau)

averaged over the batch. Negatives are cross-modal only (k_j, never q_j).
The symmetric variant adds the same loss with roles swapped. Temperature is
either fixed or learnable in log-scale, clamped to a safe range. An optional
L2 regression objective on the embedding pairs is provided for loss-mix
ablations; it can be combined with InfoNCE via a weight at the trainer level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import CONFIG_REQUIRED, OMIT_DEFAULT, RUN_STATE
from .numerics import NumericsError, as_matrix, softmax_rows  # noqa: F401  (perfbench traces it here)

TAU_CLAMP_MIN = 0.01
TAU_CLAMP_MAX = 5.0
# smallest exp sum symmetric_info_nce takes the log of; well above the subnormals
MIN_EXP_SUM = 1e-280


@dataclass
class TemperatureParam:
    """Softmax temperature, fixed or trained in log-scale.

    When learnable, `log_tau` is the optimized parameter and tau = exp(log_tau)
    clamped to [clamp_min, clamp_max]. Clamping is applied on every update so
    the invariant clamp_min <= tau <= clamp_max holds at all times.
    """

    mode: str = field(default="fixed", metadata=CONFIG_REQUIRED)  # "fixed" | "learnable"
    value: float = field(default=0.07, metadata=CONFIG_REQUIRED)
    log_tau: float = field(default=None, metadata=RUN_STATE)  # type: ignore[assignment]
    clamp_min: float = field(default=TAU_CLAMP_MIN, metadata=OMIT_DEFAULT)
    clamp_max: float = field(default=TAU_CLAMP_MAX, metadata=OMIT_DEFAULT)

    def __post_init__(self):
        if self.mode not in ("fixed", "learnable"):
            raise ValueError(f"mode must be one of ['fixed', 'learnable'], got {self.mode!r}")
        if not 0 < self.clamp_min <= self.clamp_max < math.inf:
            raise ValueError("temperature clamps must satisfy 0 < clamp_min <= clamp_max < inf")
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"temperature must be positive and finite, got {self.value}")
        self._set_log_tau(math.log(self.value) if self.log_tau is None else self.log_tau)

    def _set_log_tau(self, log_tau: float) -> None:
        # min/max would keep a NaN, so it is rejected before clamping
        if not math.isfinite(log_tau):
            raise ValueError(f"log_tau must be finite, got {log_tau}")
        self.log_tau = min(max(log_tau, math.log(self.clamp_min)), math.log(self.clamp_max))

    @property
    def learnable(self) -> bool:
        return self.mode == "learnable"

    @property
    def tau(self) -> float:
        if self.learnable:
            return math.exp(self.log_tau)
        return min(max(self.value, self.clamp_min), self.clamp_max)

    def apply_update(self, new_log_tau: float) -> None:
        """Set the trained log-temperature, enforcing the clamp range."""
        if not self.learnable:
            raise ValueError("cannot update a fixed temperature")
        self._set_log_tau(float(new_log_tau))


@dataclass
class LossOutput:
    """Scalar loss plus exact gradients w.r.t. both embedding matrices and log-tau."""

    loss: float
    grad_q: np.ndarray
    grad_k: np.ndarray
    grad_log_tau: float = 0.0


def _check_pair(q, k) -> tuple[np.ndarray, np.ndarray]:
    q = as_matrix(q)
    k = as_matrix(k)
    if q.shape != k.shape:
        raise NumericsError(f"embedding shape mismatch: {q.shape} vs {k.shape}")
    if q.shape[0] == 0:
        raise NumericsError("a loss over embedding pairs requires a non-empty batch")
    return q, k


def _direction(s: np.ndarray, temp: TemperatureParam) -> tuple[float, np.ndarray, float]:
    """Loss, dL/dS and grad_log_tau of the InfoNCE direction whose rows are S's rows.

    One exp(logits - max) serves both the log-sum-exp and the softmax.
    """
    n = s.shape[0]
    tau = temp.tau
    logits = s / tau
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    row_sums = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(row_sums[:, 0])
    loss = float(np.mean(lse - np.diag(logits)))
    d = e / row_sums
    d.flat[:: n + 1] -= 1.0  # softmax minus the identity
    d /= n * tau
    grad_log_tau = -float(np.sum(d * s)) if temp.learnable else 0.0
    return loss, d, grad_log_tau


def info_nce(q: np.ndarray, k: np.ndarray, temp: TemperatureParam) -> LossOutput:
    """One-directional InfoNCE with in-batch negatives and exact gradients.

    Returns the batch mean of -log softmax(S_i / tau)[i] where S = q @ k.T.
    grad_q/grad_k are gradients w.r.t. the (already normalized) embeddings;
    grad_log_tau is zero whenever the temperature is fixed.
    """
    q, k = _check_pair(q, k)
    loss, d, grad_log_tau = _direction(q @ k.T, temp)
    return LossOutput(loss=loss, grad_q=d @ k, grad_k=d.T @ q, grad_log_tau=grad_log_tau)


def symmetric_info_nce(q: np.ndarray, k: np.ndarray, temp: TemperatureParam) -> LossOutput:
    """Sum of both InfoNCE directions, gradients accumulated per argument.

    Both directions share one S = q @ k.T, logits L = S / tau, and one
    E = exp(L - c) with c = max(L): E's row sums r give the forward
    direction, its column sums r' the reverse one, and dL/dS is
    D = (E / r[:, None] + E / r'[None, :] - 2I) / (n tau). With rows of norm
    at most 1 (the encoders' output) the logits span at most 2/tau, so every
    sum is at least exp(-2/tau) > 1e-87 at TAU_CLAMP_MIN; a sum below
    MIN_EXP_SUM means the inputs were not such rows, and it raises
    NumericsError before the log rather than return a loss of underflowed sums.
    """
    q, k = _check_pair(q, k)
    n = q.shape[0]
    tau = temp.tau
    s = q @ k.T
    e = s / tau
    c = e.max()
    c_minus_diag = c - e.diagonal()
    e -= c
    np.exp(e, out=e)
    row_sums = e.sum(axis=1)
    col_sums = e.sum(axis=0)
    if min(row_sums.min(), col_sums.min()) < MIN_EXP_SUM:
        raise NumericsError(
            f"InfoNCE logits span too wide at tau={tau}: an exp sum underflowed below "
            f"{MIN_EXP_SUM}; embedding rows must have norm <= 1"
        )
    loss = float(
        (c_minus_diag + np.log(row_sums)).sum() / n + (c_minus_diag + np.log(col_sums)).sum() / n
    )
    scale = n * tau
    d = e / (row_sums * scale)[:, None]
    e /= col_sums * scale
    d += e
    d.flat[:: n + 1] -= 2.0 / scale  # both softmaxes minus the identity
    grad_log_tau = -float(np.vdot(d, s)) if temp.learnable else 0.0
    return LossOutput(loss=loss, grad_q=d @ k, grad_k=d.T @ q, grad_log_tau=grad_log_tau)


def l2_regression_loss(q: np.ndarray, k: np.ndarray) -> LossOutput:
    """Mean squared distance between paired embeddings: mean_i ||q_i - k_i||^2."""
    q, k = _check_pair(q, k)
    n = q.shape[0]
    diff = q - k
    loss = float(np.sum(diff**2) / n)
    grad_q = 2.0 * diff / n
    return LossOutput(loss=loss, grad_q=grad_q, grad_k=-grad_q, grad_log_tau=0.0)
