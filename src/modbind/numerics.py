"""Activations, row normalization and the row softmax.

All functions are pure, operate on float64 ndarrays, and every backward pass
is hand-derived (no autodiff graph). Matrices are plain 2-d numpy arrays in
row-major order; a batch is rows, features are columns.
"""

from __future__ import annotations

import numpy as np

# tanh-approximation GELU constants
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715

DEFAULT_NORM_EPS = 1e-12


class NumericsError(ValueError):
    """Raised on dimension mismatches or non-finite values in numeric kernels."""


def as_matrix(x) -> np.ndarray:
    """Coerce input to a float64 2-d array without copying when possible."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise NumericsError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def _gelu_tanh(x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """tanh(c*(x + a*x^3)) in a fresh array; x^3 is the product x2*x, not a power."""
    t = x2 * x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu_forward(x: np.ndarray) -> np.ndarray:
    """Elementwise GELU, tanh approximation: 0.5*x*(1 + tanh(c*(x + a*x^3)))."""
    x = np.asarray(x, dtype=np.float64)
    t = _gelu_tanh(x, x * x)
    t += 1.0
    y = 0.5 * x
    y *= t
    return y


def gelu_with_tanh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gelu_forward(x) and the tanh it took, which gelu_backward can reuse.

    Keeping t costs one array more than gelu_forward, which adds 1 to t in place.
    """
    x = np.asarray(x, dtype=np.float64)
    t = _gelu_tanh(x, x * x)
    y = 0.5 * x
    y *= t + 1.0
    return y, t


def gelu_backward(
    x: np.ndarray, upstream: np.ndarray, tanh: np.ndarray | None = None
) -> np.ndarray:
    """Upstream gradient times dGELU/dx at x (same tanh approximation):
    0.5*(1 + t) + 0.5*x*(1 - t^2)*c*(1 + 3a*x^2), with t the forward's tanh.

    `tanh` is that t as gelu_with_tanh(x) returned it; it is only read, and
    it is recomputed when not given.
    """
    x = np.asarray(x, dtype=np.float64)
    x2 = x * x
    t = _gelu_tanh(x, x2) if tanh is None else tanh
    du = (3.0 * _GELU_A) * x2
    du += 1.0
    du *= _GELU_C
    h = 0.5 * x
    h *= np.subtract(1.0, t * t, out=x2)  # x2 is not needed again
    h *= du
    grad = np.add(t, 1.0, out=du)  # nor is du
    grad *= 0.5
    grad += h
    grad *= upstream
    return grad


def row_norms(x: np.ndarray) -> np.ndarray:
    """||row||_2 of each row of x, as a column: the `norms` the two functions below take."""
    return np.linalg.norm(as_matrix(x), axis=1, keepdims=True)


def l2_normalize_rows(
    x: np.ndarray, eps: float = DEFAULT_NORM_EPS, norms: np.ndarray | None = None
) -> np.ndarray:
    """Divide each row by max(||row||_2, eps); `norms` is row_norms(x) when the caller has it."""
    if eps <= 0:
        raise NumericsError(f"eps must be positive, got {eps}")
    x = as_matrix(x)
    if norms is None:
        norms = row_norms(x)
    return x / np.maximum(norms, eps)


def l2_normalize_rows_backward(
    x: np.ndarray,
    upstream: np.ndarray,
    eps: float = DEFAULT_NORM_EPS,
    norms: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of l2_normalize_rows w.r.t. x, chained with `upstream`.

    For rows with norm >= eps: d/dx [x/||x||] projects the upstream gradient
    onto the tangent space of the sphere, scaled by 1/||x||. Rows clamped at
    eps are a constant 1/eps scaling. `norms` is row_norms(x), which the
    forward pass already took; it is computed here when not given.
    """
    x = as_matrix(x)
    upstream = as_matrix(upstream)
    if norms is None:
        norms = row_norms(x)
    clamped = norms < eps
    n = np.maximum(norms, eps)
    y = x / n
    grad = (upstream - y * np.sum(upstream * y, axis=1, keepdims=True)) / n
    if np.any(clamped):
        grad = np.where(clamped, upstream / eps, grad)
    return grad


def block_rows(width: int) -> int:
    """Rows per block when a loop walks the rows of an array `width` columns wide.

    One block of such rows, and each (rows, width) temporary made from it,
    stays at 512 KB or less. It bounds both blocked loops of the package:
    the similarity rows against `width` index items that evaluation ranks,
    and the rows that encoders.embed runs through an encoder whose widest
    layer is `width`. The size sets memory, not speed: at the 10x eval
    sizes (2000 items), 32-row and 64-row similarity blocks ran equally
    fast, and 64-row blocks raised the peak RSS of `bind eval` by about 3 MB.
    """
    return max(1, 2**16 // width)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    x = as_matrix(x)
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)

