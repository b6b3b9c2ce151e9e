"""Independent reference implementations used to check the package's math.

Everything here is written with explicit Python loops over lists and
math.exp/math.log, sharing no code with the package. Slow and simple on
purpose: these are the ground truth the vectorized implementations must
match. `finite_difference_check` checks hand-derived gradients against
central finite differences of the loss. `few_shot_probe_reference` is an
exception: the one-probe NumPy loop that the stacked probe fit must equal
bit for bit, so it keeps NumPy's operations in their original order.
`latents_replay` and `observations_replay` are the other: they spell out the
world's draws on NumPy's generator, in the order the samplers take them,
since the values the samplers must equal are that generator's.
`resume_mismatches_loops` writes out, from a TrainConfig alone, what a state
must hold to continue a run.
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


def l2_regression_grads_loops(q, k):
    """Loss and gradients of mean_i ||q_i - k_i||^2: dL/dq_i = 2 (q_i - k_i) / n = -dL/dk_i."""
    n = len(q)
    grad_q = [[2.0 * (float(a) - float(b)) / n for a, b in zip(qi, ki)] for qi, ki in zip(q, k)]
    return l2_regression_loss_loops(q, k), grad_q, [[-g for g in row] for row in grad_q]


def gelu_grad_loops(v):
    """dGELU/dx of the tanh approximation at the scalar v, by the product rule."""
    c = math.sqrt(2.0 / math.pi)
    t = math.tanh(c * (v + 0.044715 * v**3))
    return 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * v * v)


def encoder_forward_loops(layers, x):
    """Rows of x through affine layers, then onto the unit sphere, by loops.

    `layers` is a list of (W, b, gelu): W as rows of outputs, b a list, and
    gelu whether the tanh-approximation GELU follows the layer. Returns
    (embeddings, cache); the cache holds each layer's input and
    pre-activation, and the last output before normalization.
    """
    h = [[float(v) for v in row] for row in x]
    inputs = []
    for W, b, gelu in layers:
        pre = [[dot(row, w) + float(bias) for w, bias in zip(W, b)] for row in h]
        inputs.append((h, pre))
        h = gelu_power_loops(pre) if gelu else pre
    return normalize_rows_loops(h), (inputs, h)


def encoder_backward_loops(layers, cache, grad_embeddings):
    """Gradient of sum(grad_embeddings * embeddings) for every parameter, by loops.

    The embeddings are y_i = h_i / |h_i|, whose backward pass is
    dh_i = (g_i - y_i (y_i . g_i)) / |h_i|. Returns one flat list laid out
    as W0 (row by row), b0, W1, b1, ...
    """
    inputs, out = cache
    g = []
    for row, g_row in zip(out, grad_embeddings):
        norm = math.sqrt(dot(row, row))
        y = [v / norm for v in row]
        yg = dot(y, g_row)
        g.append([(float(gv) - yv * yg) / norm for gv, yv in zip(g_row, y)])
    grads = []
    for (W, _, gelu), (h, pre) in reversed(list(zip(layers, inputs))):
        if gelu:
            g = [[gv * gelu_grad_loops(pv) for gv, pv in zip(g_row, p_row)]
                 for g_row, p_row in zip(g, pre)]
        rows, n_out, n_in = range(len(h)), range(len(W)), range(len(h[0]))
        d_w = [sum(g[r][o] * h[r][j] for r in rows) for o in n_out for j in n_in]
        d_b = [sum(g[r][o] for r in rows) for o in n_out]
        grads = d_w + d_b + grads
        g = [[sum(g[r][o] * float(W[o][j]) for o in n_out) for j in n_in] for r in rows]
    return grads


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


def retrieval_ranking_loops(query, index_embeddings):
    """Every index row, by descending similarity, equal sims by ascending row."""
    sims = [dot(query, e) for e in index_embeddings]
    return sorted(range(len(sims)), key=lambda j: (-sims[j], j))


def rank_loops(query, index_embeddings, gt):
    """Position (0-based) of row `gt` in the retrieval_ranking_loops ranking."""
    return retrieval_ranking_loops(query, index_embeddings).index(gt)


def top_k_loops(sims_row, k):
    """Indices of the k most-similar items in rank order: descending
    similarity, equal sims by ascending index."""
    return sorted(range(len(sims_row)), key=lambda j: (-float(sims_row[j]), j))[:k]


def recall_at_k_loops(queries, ground_truth, index_embeddings, k):
    hits = 0
    for query, gt in zip(queries, ground_truth):
        if gt in retrieval_ranking_loops(query, index_embeddings)[:k]:
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


def latents_replay(world, labels, scale, rng):
    """One latent per label: its class mean plus `scale` times standard normal noise."""
    noise = rng.standard_normal((len(labels), world.latent_dim))
    return np.asarray(world.class_means)[np.asarray(labels)] + scale * noise


def observations_replay(world, modalities, labels, scale, rng):
    """{modality: obs} of every sampler of the world, written out: `latents_replay`, then
    each named modality observes those latents and adds its own noise, in the order
    named, from the same generator."""
    latents = latents_replay(world, labels, scale, rng)
    out = {}
    for name in modalities:
        out[name] = world.observer(name).observe(latents, rng)
    return out


def resume_mismatches_loops(state, hub, archs, config):
    """(part, key) of every entry where `state` differs from what a run of (hub, archs,
    config) holds, trained values aside, written out from the TrainConfig: each encoder
    has its arch and is frozen only as the hub of a hub_frozen run; the moments have a
    key per encoder; each pair's temperature has its config's mode, value and clamps; the
    temperature moments have a key per pair, or the one "__shared__" under
    shared_temperature. Parts in that order, keys sorted within a part."""
    want = {"encoders": {}, "moments": {}, "temperatures": {}, "temperature moments": {}}
    for name, arch in archs.items():
        want["encoders"][name] = (arch, name == hub and config.hub_frozen)
        want["moments"][name] = True
    for pc in config.pairs:
        t = pc.temperature
        want["temperatures"][pc.spoke] = (t.mode, t.value, t.clamp_min, t.clamp_max)
        want["temperature moments"]["__shared__" if config.shared_temperature else pc.spoke] = True
    have = {
        "encoders": {name: (e.arch, e.frozen) for name, e in state.encoders.items()},
        "moments": {name: True for name in state.moments},
        "temperatures": {k: (t.mode, t.value, t.clamp_min, t.clamp_max)
                         for k, t in state.temperatures.items()},
        "temperature moments": {key: True for key in state.tau_moments},
    }
    out = []
    for part in want:
        for key in sorted(set(want[part]) | set(have[part])):
            if want[part].get(key) != have[part].get(key):
                out.append((part, key))
    return out


def adamw_scalar_step_loops(p, m, v, t, g, lr, beta1, beta2, weight_decay, eps=1e-8):
    """Update t (1-based) of the scalar AdamW recurrence; returns the new (p, m, v)."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return p * (1.0 - lr * weight_decay) - lr * m_hat / (math.sqrt(v_hat) + eps), m, v


def adamw_scalar_loops(p, grads, lr, beta1, beta2, weight_decay, eps=1e-8):
    """Scalar AdamW recurrence applied over a list of gradients."""
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        p, m, v = adamw_scalar_step_loops(p, m, v, t, g, lr, beta1, beta2, weight_decay, eps)
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
