"""Independent reference implementations used to check the package's math.

Everything here is written with explicit Python loops over lists and
math.exp/math.log, sharing no code with the package. Slow and simple on
purpose: these are the ground truth the vectorized implementations must
match. `finite_difference_check` checks hand-derived gradients against
central finite differences of the loss. `few_shot_probe_reference` is the
exception: the one-probe NumPy loop that the stacked probe fit must equal
bit for bit, so it keeps NumPy's operations in their original order.
"""

import math
from dataclasses import dataclass

import numpy as np


def dot(u, v):
    total = 0.0
    for a, b in zip(u, v):
        total += float(a) * float(b)
    return total


def normalize_rows_loops(x):
    out = []
    for row in x:
        norm = math.sqrt(sum(float(v) * float(v) for v in row))
        out.append([float(v) / norm for v in row])
    return out


def softmax_row_loops(row):
    m = max(float(v) for v in row)
    exps = [math.exp(float(v) - m) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def info_nce_loss_loops(q, k, tau):
    """Mean over rows of -log( exp(q_i.k_i/tau) / sum_j exp(q_i.k_j/tau) )."""
    n = len(q)
    total = 0.0
    for i in range(n):
        numerator = math.exp(dot(q[i], k[i]) / tau)
        denominator = 0.0
        for j in range(n):
            denominator += math.exp(dot(q[i], k[j]) / tau)
        total += -math.log(numerator / denominator)
    return total / n


def symmetric_info_nce_loss_loops(q, k, tau):
    return info_nce_loss_loops(q, k, tau) + info_nce_loss_loops(k, q, tau)


def info_nce_grads_loops(q, k, tau):
    """Loss and gradients of one InfoNCE direction (rows of q against k), by loops.

    With logits l_ij = q_i.k_j/tau and p_i = softmax(l_i), row i's loss is
    log sum_j exp(l_ij) - l_ii, and for g_ij = (p_ij - [i == j]) / (n tau):
    dL/dq_i = sum_j g_ij k_j, dL/dk_j = sum_i g_ij q_i and
    dL/dlog(tau) = -sum_ij g_ij (q_i.k_j). Returns (loss, grad_q, grad_k,
    grad_log_tau), the gradients as lists of rows.
    """
    n, dim = len(q), len(q[0])
    loss = 0.0
    grad_q = [[0.0] * dim for _ in range(n)]
    grad_k = [[0.0] * dim for _ in range(n)]
    grad_log_tau = 0.0
    for i in range(n):
        sims = [dot(q[i], k[j]) for j in range(n)]
        logits = [s / tau for s in sims]
        m = max(logits)
        loss += m + math.log(sum(math.exp(v - m) for v in logits)) - logits[i]
        p = softmax_row_loops(logits)
        for j in range(n):
            g = (p[j] - (1.0 if i == j else 0.0)) / (n * tau)
            grad_log_tau -= g * sims[j]
            for c in range(dim):
                grad_q[i][c] += g * float(k[j][c])
                grad_k[j][c] += g * float(q[i][c])
    return loss / n, grad_q, grad_k, grad_log_tau


def symmetric_info_nce_grads_loops(q, k, tau):
    """Both directions summed: the reverse one runs with the arguments swapped."""
    f_loss, f_gq, f_gk, f_tau = info_nce_grads_loops(q, k, tau)
    r_loss, r_gk, r_gq, r_tau = info_nce_grads_loops(k, q, tau)
    return f_loss + r_loss, _add_rows(f_gq, r_gq), _add_rows(f_gk, r_gk), f_tau + r_tau


def _add_rows(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def l2_regression_loss_loops(q, k):
    n = len(q)
    total = 0.0
    for i in range(n):
        for a, b in zip(q[i], k[i]):
            d = float(a) - float(b)
            total += d * d
    return total / n


def nearest_prototype_loops(query, prototypes):
    """Index of the most-similar prototype row; ties go to the lowest index."""
    best_idx = 0
    best_sim = dot(query, prototypes[0])
    for c in range(1, len(prototypes)):
        sim = dot(query, prototypes[c])
        if sim > best_sim:
            best_sim = sim
            best_idx = c
    return best_idx


def retrieval_ranking_loops(query, index_embeddings, ids):
    """Full id ranking by descending similarity, equal sims by ascending id."""
    sims = [dot(query, e) for e in index_embeddings]
    order = sorted(range(len(ids)), key=lambda j: (-sims[j], ids[j]))
    return [ids[j] for j in order]


def rank_loops(query, index_embeddings, ids, gt):
    """Position (0-based) of item id `gt` in the retrieval_ranking_loops ranking."""
    return retrieval_ranking_loops(query, index_embeddings, ids).index(gt)


def top_k_loops(sims_row, k):
    """Indices of the k most-similar items, equal sims by ascending index,
    returned in ascending index order."""
    order = sorted(range(len(sims_row)), key=lambda j: (-float(sims_row[j]), j))
    return sorted(order[:k])


def recall_at_k_loops(queries, ground_truth, index_embeddings, ids, k):
    hits = 0
    for query, gt in zip(queries, ground_truth):
        ranking = retrieval_ranking_loops(query, index_embeddings, ids)
        if gt in ranking[:k]:
            hits += 1
    return hits / len(queries)


def few_shot_probe_reference(train_embeddings, train_labels, eval_embeddings, eval_labels,
                             iterations=500, learning_rate=0.1):
    """One multinomial logistic probe by full-batch gradient descent from zero.

    Returns (weights, bias, eval accuracy). Checks no input: the package's
    balance and coverage errors are tested on their own.
    """
    x = np.asarray(train_embeddings, dtype=np.float64)
    labels = np.asarray(train_labels, dtype=np.int64)
    eval_labels = np.asarray(eval_labels, dtype=np.int64)
    n, d = x.shape
    num_classes = int(max(labels.max(), eval_labels.max())) + 1
    weights = np.zeros((num_classes, d))
    bias = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = 1.0
    for _ in range(iterations):
        logits = x @ weights.T + bias
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        g = (probs - onehot) / n
        weights -= learning_rate * (g.T @ x)
        bias -= learning_rate * g.sum(axis=0)
    pred = np.argmax(np.asarray(eval_embeddings, dtype=np.float64) @ weights.T + bias, axis=1)
    return weights, bias, float(np.mean(pred == eval_labels))


def adamw_scalar_loops(p, grads, lr, beta1, beta2, weight_decay, eps=1e-8):
    """Scalar AdamW recurrence applied over a list of gradients."""
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p = p * (1.0 - lr * weight_decay) - lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


def gelu_power_loops(x):
    """Tanh-approximation GELU elementwise, with the cube written as v**3."""
    c = math.sqrt(2.0 / math.pi)
    return [[0.5 * v * (1.0 + math.tanh(c * (v + 0.044715 * v**3))) for v in row] for row in x]


def central_diff_scalar(f, x, eps=1e-6):
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


@dataclass
class GradCheckReport:
    """Outcome of a central finite-difference check against an analytic gradient."""

    max_rel_error: float
    worst_param_index: int
    eps: float


def finite_difference_check(
    loss_fn, params: np.ndarray, analytic_grad: np.ndarray, eps: float = 1e-6
) -> GradCheckReport:
    """Central finite differences of `loss_fn` around `params`, per coordinate.

    `loss_fn` maps a parameter array (same shape as `params`) to a scalar.
    Relative error per coordinate is |g_fd - g_an| / max(|g_fd|, |g_an|, 1e-8);
    the report carries the worst coordinate (flat index).
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"finite-difference eps must lie in (0, 1e-2], got {eps}")
    params = np.asarray(params, dtype=np.float64)
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    if params.shape != analytic.shape:
        raise ValueError(
            f"analytic gradient shape {analytic.shape} does not match params {params.shape}"
        )
    flat = params.ravel().copy()
    an = analytic.ravel()
    max_rel = 0.0
    worst = 0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(loss_fn(flat.reshape(params.shape)))
        flat[i] = orig - eps
        f_minus = float(loss_fn(flat.reshape(params.shape)))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(
                f"non-finite loss during finite-difference check at flat index {i}"
            )
        g_fd = (f_plus - f_minus) / (2.0 * eps)
        rel = abs(g_fd - an[i]) / max(abs(g_fd), abs(an[i]), 1e-8)
        if rel > max_rel:
            max_rel = rel
            worst = i
    return GradCheckReport(max_rel_error=float(max_rel), worst_param_index=worst, eps=eps)
