"""Measurement protocols over trained (or untrained) encoder states.

Everything here is read-only with respect to training state: prototype-bank
zero-shot classification, cross-modal retrieval, few-shot linear probes on
frozen embeddings, embedding arithmetic, modality ensembling, and the
frozen-hub protocol that scores a supplied hub encoder by training fresh
spokes against it.

A classification or retrieval result between two modalities is "emergent"
when neither is the hub and the two were never trained as a pair; the
registry of trained pairs is recovered from the state's temperature table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .encoders import EncoderParams
# evaluation needs no backward pass, so it encodes forward-only; the name `encode`
# (with encode's arguments) is the attribute the benchmark in perfbench/ wraps
from .encoders import embed as encode
from .numerics import block_rows, softmax_rows
from .report import MetricsReport
from .trainer import TrainConfig, TrainState, init_train_state, train_run
from .world import WorldSpec, _class_latents, class_prototypes, make_eval_set

DEFAULT_ARITHMETIC_WEIGHT = 0.5
# the few-shot probe: full-batch gradient descent steps and their step size
PROBE_ITERATIONS = 500
PROBE_LEARNING_RATE = 0.1
_DEGENERATE_NORM = 1e-9


class EvaluationError(ValueError):
    """Raised for malformed evaluation inputs (dims, ids, missing classes)."""


@dataclass
class PrototypeBank:
    """One unit-norm row per class: the renormalized mean of prompt embeddings."""

    prototypes: np.ndarray  # (C, d)
    class_ids: np.ndarray  # (C,)

    def __post_init__(self):
        norms = np.linalg.norm(self.prototypes, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-8):
            raise EvaluationError("prototype rows must be unit-norm")
        if len(self.class_ids) != self.prototypes.shape[0]:
            raise EvaluationError("one class id per prototype row required")


@dataclass
class RetrievalIndex:
    """Unit-norm item embeddings with unique ids, ready for cosine ranking."""

    embeddings: np.ndarray  # (N, d)
    item_ids: np.ndarray  # (N,)

    def __post_init__(self):
        self.item_ids = np.asarray(self.item_ids)
        if len(self.item_ids) != self.embeddings.shape[0]:
            raise EvaluationError("one id per embedding row required")
        if len(np.unique(self.item_ids)) != len(self.item_ids):
            raise EvaluationError("item ids must be unique")
        norms = np.linalg.norm(self.embeddings, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-8):
            raise EvaluationError("index rows must be unit-norm")


@dataclass
class EmergentResult:
    accuracy: float
    emergent: bool


@dataclass
class EvalPlan:
    """Which measurements to run: emergent pairs, retrieval pairs, probes, demos."""

    emergent_pairs: list[tuple[str, str]] = field(default_factory=list)  # (data, prompt)
    retrieval_pairs: list[tuple[str, str]] = field(default_factory=list)  # (query, index)
    k_list: list[int] = field(default_factory=lambda: [1, 5, 10])
    few_shot_modality: str | None = None
    few_shot_ks: list[int] = field(default_factory=list)
    arithmetic_pair: tuple[str, str] | None = None
    arithmetic_queries: int = 0
    arithmetic_weight: float = DEFAULT_ARITHMETIC_WEIGHT
    ensemble_pair: tuple[str, str] | None = None
    ensemble_weights: list[float] = field(default_factory=list)
    n_per_class: int = 50
    prompts_per_class: int = 16
    retrieval_index_size: int = 200
    retrieval_k: int = 10
    stream: str = "eval"

    def __post_init__(self):
        for name in ("n_per_class", "prompts_per_class", "retrieval_index_size", "retrieval_k"):
            if getattr(self, name) < 1:
                raise EvaluationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.k_list:
            raise EvaluationError("k_list must not be empty")
        if min([*self.k_list, *self.few_shot_ks]) < 1:
            raise EvaluationError("every entry of k_list and few_shot_ks must be >= 1")
        if self.arithmetic_queries < 0:
            raise EvaluationError(f"arithmetic_queries must be >= 0, got {self.arithmetic_queries}")
        if not all(0.0 <= w <= 1.0 for w in [self.arithmetic_weight, *self.ensemble_weights]):
            raise EvaluationError("arithmetic_weight and ensemble_weights must lie in [0, 1]")
        for k in [*self.k_list, self.retrieval_k]:
            if k > self.retrieval_index_size:
                raise EvaluationError(
                    f"K={k} exceeds retrieval_index_size={self.retrieval_index_size}"
                )


def trained_pair_registry(world: WorldSpec, state: TrainState) -> set[frozenset]:
    """Modality pairs that were directly trained together in this state."""
    return {frozenset((world.hub, spoke)) for spoke in state.temperatures}


def _emergent(world: WorldSpec, state: TrainState, a: str, b: str) -> bool:
    """Whether a result between modalities a and b is emergent: they differ and
    were never trained as a pair."""
    return a != b and frozenset((a, b)) not in trained_pair_registry(world, state)


def _encoder(state: TrainState, modality: str) -> EncoderParams:
    try:
        return state.encoders[modality]
    except KeyError:
        raise EvaluationError(f"state has no encoder for modality {modality!r}") from None


def build_prototypes(
    world: WorldSpec,
    modality: str,
    encoder: EncoderParams,
    prompts_per_class: int,
    rng: np.random.Generator,
) -> PrototypeBank:
    """Encode C*P prompt observations, average per class, renormalize."""
    obs, labels = class_prototypes(world, modality, prompts_per_class, rng)
    emb = encode(encoder, obs)
    c = world.num_classes
    prototypes = np.zeros((c, emb.shape[1]))
    for cls_id in range(c):
        mean = emb[labels == cls_id].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < _DEGENERATE_NORM:
            raise EvaluationError(f"degenerate (zero-norm) prototype for class {cls_id}")
        prototypes[cls_id] = mean / norm
    return PrototypeBank(prototypes=prototypes, class_ids=np.arange(c))


def zero_shot_classify(query_embeddings: np.ndarray, bank: PrototypeBank) -> np.ndarray:
    """Nearest prototype by cosine; ties resolve to the lowest class index."""
    query_embeddings = np.asarray(query_embeddings, dtype=np.float64)
    if query_embeddings.shape[1] != bank.prototypes.shape[1]:
        raise EvaluationError(
            f"query dim {query_embeddings.shape[1]} does not match "
            f"prototype dim {bank.prototypes.shape[1]}"
        )
    sims = query_embeddings @ bank.prototypes.T
    return bank.class_ids[np.argmax(sims, axis=1)]


def emergent_zero_shot_accuracy(
    world: WorldSpec,
    state: TrainState,
    data_modality: str,
    prompt_modality: str,
    n_per_class: int,
    stream: str = "eval/emergent",
    prompts_per_class: int = 16,
) -> EmergentResult:
    """Classify fresh data_modality samples against prompt_modality prototypes.

    The result is flagged emergent only if the two modalities were never
    trained as a pair (and differ); otherwise the accuracy is still reported
    but carries emergent=False.
    """
    bank = build_prototypes(
        world,
        prompt_modality,
        _encoder(state, prompt_modality),
        prompts_per_class,
        world.stream(f"{stream}/prompts/{prompt_modality}"),
    )
    eval_set = make_eval_set(
        world, data_modality, n_per_class, world.stream(f"{stream}/data/{data_modality}")
    )
    emb = encode(_encoder(state, data_modality), eval_set.obs)
    pred = zero_shot_classify(emb, bank)
    accuracy = float(np.mean(pred == eval_set.labels))
    return EmergentResult(
        accuracy=accuracy, emergent=_emergent(world, state, data_modality, prompt_modality)
    )


def _similarity_blocks(queries: np.ndarray, items: np.ndarray):
    """(rows, queries[rows] @ items.T) for consecutive blocks of block_rows(N) query rows.

    No (queries, N) array is ever allocated.
    """
    step = block_rows(items.shape[0])
    for start in range(0, queries.shape[0], step):
        rows = slice(start, start + step)
        yield rows, queries[rows] @ items.T


def _top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """(rows, K) column indices of each row's K largest values, in ascending order.

    Per row this is the set argsort(-row, kind="stable")[:k] takes: every
    item above the row's K-th largest value, then the tied items of lowest
    index. Requires 1 <= k <= N and finite values. Callers pass one block
    of similarity rows at a time.
    """
    n = sims.shape[1]
    kth = np.partition(sims, n - k, axis=1)[:, n - k, None]
    at_least = sims >= kth
    if np.count_nonzero(at_least) == sims.shape[0] * k:
        # every row has exactly K values >= its K-th largest: nothing ties at the cut
        return np.nonzero(at_least)[1].reshape(-1, k)
    above = sims > kth
    tied = sims == kth
    room = k - np.count_nonzero(above, axis=1, keepdims=True)
    chosen = above | (tied & (np.cumsum(tied, axis=1) <= room))
    return np.nonzero(chosen)[1].reshape(-1, k)


def cross_modal_recall_at_k(
    index: RetrievalIndex,
    queries: np.ndarray,
    ground_truth_ids: np.ndarray,
    k_list: list[int],
) -> dict[int, float]:
    """recall@K per K: fraction of queries whose true item ranks in the top K.

    Rank counts items with strictly higher cosine, plus equal-cosine items
    with a lower id (deterministic tie order).
    """
    queries = np.asarray(queries, dtype=np.float64)
    if not np.all(np.isfinite(queries)):
        raise EvaluationError("query embeddings must be finite")
    n_items = index.embeddings.shape[0]
    for k in k_list:
        if k < 1 or k > n_items:
            raise EvaluationError(f"K={k} outside [1, {n_items}]")
    ground_truth_ids = np.asarray(ground_truth_ids)
    if len(ground_truth_ids) != queries.shape[0]:
        raise EvaluationError("one ground-truth id per query required")
    if len(ground_truth_ids) == 0:
        raise EvaluationError("recall needs at least one query")
    ids = index.item_ids
    by_id = np.argsort(ids)
    sorted_ids = ids[by_id]
    found = np.searchsorted(sorted_ids, ground_truth_ids).clip(max=n_items - 1)
    missing = sorted_ids[found] != ground_truth_ids
    if np.any(missing):
        raise EvaluationError(
            f"ground-truth id {ground_truth_ids[missing][0].item()!r} not present in index"
        )
    cols = by_id[found]
    ranks = np.empty(len(cols), dtype=np.int64)
    for rows, s in _similarity_blocks(queries, index.embeddings):
        c = cols[rows]
        s_gt = s[np.arange(len(c)), c][:, None]
        if np.count_nonzero(s == s_gt) == len(c):
            # each true item ties only with itself, so no id breaks a tie
            ranks[rows] = np.count_nonzero(s >= s_gt, axis=1) - 1
        else:
            ranks[rows] = np.count_nonzero(s > s_gt, axis=1) + np.count_nonzero(
                (s == s_gt) & (ids[None, :] < ids[c][:, None]), axis=1
            )
    return {k: float(np.mean(ranks < k)) for k in k_list}


def few_shot_probe(
    train_embeddings: np.ndarray,
    train_labels: np.ndarray,
    eval_embeddings: np.ndarray,
    eval_labels: np.ndarray,
) -> float:
    """Multinomial logistic probe on frozen embeddings, full-batch GD from zero.

    Shots must be class-balanced and cover every class present in the eval
    labels; returns eval accuracy.
    """
    train_embeddings = np.asarray(train_embeddings, dtype=np.float64)
    eval_embeddings = np.asarray(eval_embeddings, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    eval_labels = np.asarray(eval_labels, dtype=np.int64)
    shot_classes, shot_counts = np.unique(train_labels, return_counts=True)
    missing = np.setdiff1d(np.unique(eval_labels), shot_classes)
    if missing.size:
        raise EvaluationError(f"classes missing from shots: {missing.tolist()}")
    if shot_counts.min() != shot_counts.max():
        raise EvaluationError("shots must be balanced across classes")
    n, d = train_embeddings.shape
    num_classes = int(max(shot_classes.max(), eval_labels.max())) + 1
    weights = np.zeros((num_classes, d))
    bias = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), train_labels] = 1.0
    for _ in range(PROBE_ITERATIONS):
        probs = softmax_rows(train_embeddings @ weights.T + bias)
        g = (probs - onehot) / n
        weights -= PROBE_LEARNING_RATE * (g.T @ train_embeddings)
        bias -= PROBE_LEARNING_RATE * g.sum(axis=0)
    pred = np.argmax(eval_embeddings @ weights.T + bias, axis=1)
    return float(np.mean(pred == eval_labels))


def embed_arithmetic(e1: np.ndarray, e2: np.ndarray, w: float = DEFAULT_ARITHMETIC_WEIGHT):
    """Renormalized weighted sum w*e1 + (1-w)*e2 of unit embeddings.

    Accepts single vectors or row-wise batches; errors when a combined vector
    is degenerate (near-zero norm, e.g. antiparallel inputs at w=0.5).
    """
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.shape != e2.shape:
        raise EvaluationError(f"embedding shape mismatch: {e1.shape} vs {e2.shape}")
    if not (0.0 <= w <= 1.0):
        raise EvaluationError(f"weight must lie in [0, 1], got {w}")
    # exact endpoints: unit inputs pass through without a renormalization ulp
    if w == 1.0:
        return e1.copy()
    if w == 0.0:
        return e2.copy()
    combo = w * e1 + (1.0 - w) * e2
    if combo.ndim == 1:
        norm = np.linalg.norm(combo)
        if norm < _DEGENERATE_NORM:
            raise EvaluationError("degenerate composition: combined vector has near-zero norm")
        return combo / norm
    norms = np.linalg.norm(combo, axis=1, keepdims=True)
    if np.any(norms < _DEGENERATE_NORM):
        raise EvaluationError("degenerate composition: a combined row has near-zero norm")
    return combo / norms


def aligned_eval_items(
    world: WorldSpec, modalities: list[str], n_items: int, rng: np.random.Generator
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The same n latent items observed through several modalities.

    Returns ({modality: obs}, labels); item i is identical across modalities,
    which is what gives retrieval a ground-truth id mapping.
    """
    labels = np.arange(n_items) % world.num_classes
    latents = _class_latents(world, labels, world.within_class_scale, rng)
    obs = {name: world.observer(name).observe(latents, rng) for name in modalities}
    return obs, labels


def _draw_members(labels: np.ndarray, classes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """For each entry of `classes`, a uniformly drawn index of `labels` with that class.

    Takes one rng.integers(count) per entry, in order, so it draws exactly
    what a loop over the entries would.
    """
    counts = np.bincount(labels)
    starts = np.cumsum(counts) - counts
    by_class = np.nonzero(labels == np.arange(len(counts))[:, None])[1]
    return by_class[starts[classes] + rng.integers(counts[classes])]


def composed_retrieval_stats(
    world: WorldSpec,
    state: TrainState,
    modality_a: str,
    modality_b: str,
    n_queries: int,
    weight: float,
    k: int,
    index_size: int,
    stream: str,
) -> tuple[float, float]:
    """Fraction of composed (class-a, class-b) queries whose hub top-K covers both classes.

    The null baseline rescores the same top-K lists against a permutation of
    the (class-a, class-b) target pairs, so it shares every artifact of the
    retrieval except the semantic pairing.
    """
    if not 1 <= k <= index_size:
        raise EvaluationError(f"K={k} outside [1, {index_size}]")
    if n_queries < 1:
        raise EvaluationError(f"n_queries must be >= 1, got {n_queries}")
    hub = world.hub
    rng = world.stream(f"{stream}/index")
    idx_obs, idx_labels = aligned_eval_items(world, [hub], index_size, rng)
    hub_emb = encode(_encoder(state, hub), idx_obs[hub])

    per_class = max(4, n_queries // world.num_classes + 1)
    pool_a = make_eval_set(world, modality_a, per_class, world.stream(f"{stream}/pool/{modality_a}"))
    pool_b = make_eval_set(world, modality_b, per_class, world.stream(f"{stream}/pool/{modality_b}"))
    emb_a = encode(_encoder(state, modality_a), pool_a.obs)
    emb_b = encode(_encoder(state, modality_b), pool_b.obs)

    qrng = world.stream(f"{stream}/queries")
    class_a = qrng.integers(0, world.num_classes, n_queries)
    class_b = (class_a + 1 + qrng.integers(0, world.num_classes - 1, n_queries)) % world.num_classes
    pick_a = _draw_members(pool_a.labels, class_a, qrng)
    pick_b = _draw_members(pool_b.labels, class_b, qrng)
    composed = embed_arithmetic(emb_a[pick_a], emb_b[pick_b], weight)
    if not (np.all(np.isfinite(composed)) and np.all(np.isfinite(hub_emb))):
        raise EvaluationError("composed queries and hub embeddings must be finite")

    top = np.empty((n_queries, k), dtype=np.int64)
    for block, s in _similarity_blocks(composed, hub_emb):
        top[block] = _top_k(s, k)
    rows = np.arange(n_queries)
    covered = np.zeros((n_queries, world.num_classes), dtype=bool)
    covered[rows[:, None], idx_labels[top]] = True
    hits = covered[rows, class_a] & covered[rows, class_b]
    perm = qrng.permutation(n_queries)
    permuted_hits = covered[rows, class_a[perm]] & covered[rows, class_b[perm]]
    return float(hits.mean()), float(permuted_hits.mean())


def frozen_hub_eval(
    hub_params: EncoderParams,
    world: WorldSpec,
    archs: dict,
    config: TrainConfig,
    emergent_pairs: list[tuple[str, str]],
    n_per_class: int = 100,
    prompts_per_class: int = 16,
    stream: str = "eval/frozen_hub",
    config_hash: str = "",
) -> MetricsReport:
    """Score a supplied hub encoder: train fresh spokes against it, frozen,
    then measure emergent zero-shot accuracy between the requested pairs."""
    archs = {**archs, world.hub: hub_params.arch}
    state = init_train_state(world, archs, config)
    # replace packs a fresh buffer, so training never writes to the caller's hub
    state.encoders[world.hub] = dataclasses.replace(hub_params, frozen=True)
    state, _ = train_run(world, archs, config, state=state)
    plan = EvalPlan(emergent_pairs=emergent_pairs, n_per_class=n_per_class,
                    prompts_per_class=prompts_per_class, stream=stream)
    return run_eval_plan(world, state, plan, config_hash=config_hash, seed=config.seed)


def run_eval_plan(
    world: WorldSpec,
    state: TrainState,
    plan: EvalPlan,
    config_hash: str = "",
    seed: int = 0,
) -> MetricsReport:
    """Execute every configured measurement and collect one flat report."""
    hub = world.hub
    metrics: dict[str, float] = {}
    flags: dict[str, bool] = {}

    for data_mod, prompt_mod in plan.emergent_pairs:
        res = emergent_zero_shot_accuracy(
            world, state, data_mod, prompt_mod, plan.n_per_class,
            stream=f"{plan.stream}/emergent/{data_mod}_vs_{prompt_mod}",
            prompts_per_class=plan.prompts_per_class,
        )
        metrics[f"emergent_zero_shot/{data_mod}_vs_{prompt_mod}"] = res.accuracy
        flags[f"emergent/{data_mod}_vs_{prompt_mod}"] = res.emergent

    for query_mod, index_mod in plan.retrieval_pairs:
        rng = world.stream(f"{plan.stream}/retrieval/{query_mod}_to_{index_mod}")
        obs, _ = aligned_eval_items(world, [query_mod, index_mod], plan.retrieval_index_size, rng)
        index_emb = encode(_encoder(state, index_mod), obs[index_mod])
        query_emb = encode(_encoder(state, query_mod), obs[query_mod])
        ids = np.arange(plan.retrieval_index_size)
        index = RetrievalIndex(embeddings=index_emb, item_ids=ids)
        recalls = cross_modal_recall_at_k(index, query_emb, ids, plan.k_list)
        for k, value in recalls.items():
            metrics[f"recall_at_{k}/{query_mod}_to_{index_mod}"] = value
        flags[f"emergent/{query_mod}_to_{index_mod}"] = _emergent(
            world, state, query_mod, index_mod
        )

    if plan.few_shot_modality and plan.few_shot_ks:
        mod = plan.few_shot_modality
        eval_set = make_eval_set(
            world, mod, plan.n_per_class, world.stream(f"{plan.stream}/few_shot/eval/{mod}")
        )
        eval_emb = encode(_encoder(state, mod), eval_set.obs)
        for k in plan.few_shot_ks:
            shots = make_eval_set(
                world, mod, k, world.stream(f"{plan.stream}/few_shot/shots/{mod}/k={k}")
            )
            shot_emb = encode(_encoder(state, mod), shots.obs)
            metrics[f"few_shot_k{k}/{mod}"] = few_shot_probe(
                shot_emb, shots.labels, eval_emb, eval_set.labels
            )

    if plan.arithmetic_pair and plan.arithmetic_queries > 0:
        mod_a, mod_b = plan.arithmetic_pair
        both, permuted = composed_retrieval_stats(
            world, state, mod_a, mod_b, plan.arithmetic_queries, plan.arithmetic_weight,
            plan.retrieval_k, plan.retrieval_index_size, f"{plan.stream}/arithmetic",
        )
        metrics["arithmetic/both_class_fraction"] = both
        metrics["arithmetic/permuted_baseline"] = permuted

    if plan.ensemble_pair and plan.ensemble_weights:
        mod_a, mod_b = plan.ensemble_pair
        rng = world.stream(f"{plan.stream}/ensemble/{mod_a}_{mod_b}")
        obs, _ = aligned_eval_items(
            world, [hub, mod_a, mod_b], plan.retrieval_index_size, rng
        )
        hub_emb = encode(_encoder(state, hub), obs[hub])
        emb_a = encode(_encoder(state, mod_a), obs[mod_a])
        emb_b = encode(_encoder(state, mod_b), obs[mod_b])
        ids = np.arange(plan.retrieval_index_size)
        index = RetrievalIndex(embeddings=hub_emb, item_ids=ids)
        for w in plan.ensemble_weights:
            combined = embed_arithmetic(emb_a, emb_b, w)
            recall = cross_modal_recall_at_k(index, combined, ids, [plan.retrieval_k])
            metrics[f"ensemble_recall_at_{plan.retrieval_k}/w={w:g}"] = recall[plan.retrieval_k]

    report = MetricsReport(metrics=metrics, flags=flags, config_hash=config_hash, seed=seed)
    report.validate()
    return report
