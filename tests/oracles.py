"""Independent reference implementations used to check the package's math.

Everything here is written with explicit Python loops over lists and
math.exp/math.log, sharing no code with the package. Slow and simple on
purpose: these are the ground truth the vectorized implementations must
match.
"""

import math


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
