"""Measurement protocols over trained (or untrained) encoder states.

Everything here is read-only with respect to training state: zero-shot
classification against an index of class prototypes, cross-modal retrieval,
few-shot linear probes on frozen embeddings, embedding arithmetic, modality
ensembling, and the frozen-hub protocol that scores a supplied hub encoder by
training fresh spokes against it.

A classification or retrieval result between two modalities is "emergent"
when neither is the hub and the two were never trained as a pair; the
registry of trained pairs is recovered from the state's temperature table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .encoders import EncoderParams, embed
from .numerics import NumericsError, block_rows, softmax_rows
from .pool import ordered_map
from .report import MetricsReport
from .trainer import TrainConfig, TrainState, init_train_state, train_run
from .world import WorldSpec, _class_latents, class_prototypes, make_eval_set

DEFAULT_ARITHMETIC_WEIGHT = 0.5
# the few-shot probe: full-batch gradient descent steps and their step size
PROBE_ITERATIONS = 500
PROBE_LEARNING_RATE = 0.1
_DEGENERATE_NORM = 1e-9


class EvaluationError(ValueError):
    """Raised for malformed evaluation inputs (dims, ground-truth rows, missing classes)."""


# the name `encode` (with encode's arguments) is the attribute the benchmark in
# perfbench/ wraps
def encode(params: EncoderParams, obs: np.ndarray) -> np.ndarray:
    """`embed`: forward-only, as evaluation runs no backward pass. A row
    without a direction (weights that overflow or vanish) cannot be scored,
    so it raises EvaluationError, as other unscorable inputs do."""
    try:
        return embed(params, obs)
    except NumericsError as e:
        raise EvaluationError(str(e)) from e


@dataclass
class RetrievalIndex:
    """Unit-norm embeddings ready for cosine ranking: item i is row i.

    The items are retrieval candidates, or one prototype per class, row c
    holding class c's.
    """

    embeddings: np.ndarray  # (N, d)

    def __post_init__(self):
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
) -> RetrievalIndex:
    """Encode C*P prompt observations, average per class, renormalize: row c is class c's."""
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
    return RetrievalIndex(prototypes)


def zero_shot_classify(query_embeddings: np.ndarray, prototypes: RetrievalIndex) -> np.ndarray:
    """Row of the nearest prototype by cosine, which is the class; ties go to the lower row."""
    query_embeddings = np.asarray(query_embeddings, dtype=np.float64)
    if query_embeddings.shape[1] != prototypes.embeddings.shape[1]:
        raise EvaluationError(
            f"query dim {query_embeddings.shape[1]} does not match "
            f"prototype dim {prototypes.embeddings.shape[1]}"
        )
    return np.argmax(query_embeddings @ prototypes.embeddings.T, axis=1)


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
    prototypes = build_prototypes(
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
    pred = zero_shot_classify(emb, prototypes)
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
    """(rows, K) column indices of each row's K largest values, in rank order.

    Per row this is argsort(-row, kind="stable")[:k]: larger values first,
    equal values by lower index. Requires 1 <= k <= N and finite values.
    Callers pass one block of similarity rows at a time.
    """
    n = sims.shape[1]
    kth = np.partition(sims, n - k, axis=1)[:, n - k, None]
    at_least = sims >= kth
    if np.count_nonzero(at_least) == sims.shape[0] * k:
        # every row has exactly K values >= its K-th largest: nothing ties at the cut
        top = np.nonzero(at_least)[1].reshape(-1, k)
    else:
        above = sims > kth
        tied = sims == kth
        room = k - np.count_nonzero(above, axis=1, keepdims=True)
        chosen = above | (tied & (np.cumsum(tied, axis=1) <= room))
        top = np.nonzero(chosen)[1].reshape(-1, k)
    # top holds ascending columns, so a stable sort leaves equal values by lower index
    order = np.argsort(-np.take_along_axis(sims, top, axis=1), axis=1, kind="stable")
    return np.take_along_axis(top, order, axis=1)


def cross_modal_recall_at_k(
    index: RetrievalIndex,
    queries: np.ndarray,
    ground_truth_ids: np.ndarray,
    k_list: list[int],
) -> dict[int, float]:
    """recall@K per K: fraction of queries whose true item ranks in the top K.

    An item's id is its index row, so ground_truth_ids[i] is the row of query
    i's true item. Rank counts items with strictly higher cosine, plus
    equal-cosine items of a lower row (deterministic tie order).
    """
    queries = np.asarray(queries, dtype=np.float64)
    if not np.all(np.isfinite(queries)):
        raise EvaluationError("query embeddings must be finite")
    n_items = index.embeddings.shape[0]
    for k in k_list:
        if k < 1 or k > n_items:
            raise EvaluationError(f"K={k} outside [1, {n_items}]")
    cols = np.asarray(ground_truth_ids)
    if len(cols) != queries.shape[0]:
        raise EvaluationError("one ground-truth id per query required")
    if len(cols) == 0:
        raise EvaluationError("recall needs at least one query")
    if cols.dtype.kind not in "iu" or cols.min() < 0 or cols.max() >= n_items:
        raise EvaluationError(f"ground-truth ids must be integer rows in [0, {n_items})")
    columns = np.arange(n_items)
    ranks = np.empty(len(cols), dtype=np.int64)
    for rows, s in _similarity_blocks(queries, index.embeddings):
        c = cols[rows]
        s_gt = s[np.arange(len(c)), c][:, None]
        if np.count_nonzero(s == s_gt) == len(c):
            # each true item ties only with itself, so no row breaks a tie
            ranks[rows] = np.count_nonzero(s >= s_gt, axis=1) - 1
        else:
            ranks[rows] = np.count_nonzero(s > s_gt, axis=1) + np.count_nonzero(
                (s == s_gt) & (columns < c[:, None]), axis=1
            )
    return {k: float(np.mean(ranks < k)) for k in k_list}


@dataclass
class FewShotProbe:
    """One fitted probe: logits are embeddings @ weights.T + bias."""

    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)
    accuracy: float  # on the eval set


def few_shot_probes(
    shots: list[tuple[np.ndarray, np.ndarray]],
    eval_embeddings: np.ndarray,
    eval_labels: np.ndarray,
) -> list[FewShotProbe]:
    """Multinomial logistic probes on frozen embeddings, full-batch GD from zero.

    One probe per (shot embeddings, shot labels) entry, all scored on one
    eval set. Each probe's shots must be class-balanced and cover every class
    of the eval labels, and all probes must know the same number of classes.
    The probes share one gradient-descent loop: their shot rows are stacked
    into one logits array, so the elementwise steps run once per iteration
    for all of them. Each keeps its own products, row softmax, division by
    its own shot count and bias sum, so each probe's weights equal those of
    a loop that fits it alone, bit for bit.
    """
    eval_embeddings = np.asarray(eval_embeddings, dtype=np.float64)
    eval_labels = np.asarray(eval_labels, dtype=np.int64)
    xs, ys, counts = [], [], []
    for train_embeddings, train_labels in shots:
        xs.append(np.asarray(train_embeddings, dtype=np.float64))
        ys.append(np.asarray(train_labels, dtype=np.int64))
        shot_classes, shot_counts = np.unique(ys[-1], return_counts=True)
        missing = np.setdiff1d(np.unique(eval_labels), shot_classes)
        if missing.size:
            raise EvaluationError(f"classes missing from shots: {missing.tolist()}")
        if shot_counts.min() != shot_counts.max():
            raise EvaluationError("shots must be balanced across classes")
        counts.append(int(max(shot_classes.max(), eval_labels.max())) + 1)
    if not shots:
        return []
    if len(set(counts)) > 1:
        raise EvaluationError(f"probes must share one class count, got {sorted(set(counts))}")
    sizes = [len(y) for y in ys]
    rows = [slice(a, a + size) for a, size in zip(np.cumsum([0, *sizes]), sizes)]
    # probe p has weights[p] and bias[p]; stacked shot row i belongs to probe of_row[i]
    weights = np.zeros((len(xs), counts[0], eval_embeddings.shape[1]))
    bias = np.zeros((len(xs), counts[0]))
    of_row = np.repeat(np.arange(len(xs)), sizes)
    onehot = np.zeros((len(of_row), counts[0]))
    onehot[np.arange(len(of_row)), np.concatenate(ys)] = 1.0
    n = np.array(sizes, dtype=np.float64)[of_row, None]
    logits = np.empty_like(onehot)
    grads, bias_grads = np.empty_like(weights), np.empty_like(bias)
    # views taken once: the weights change in place, and logits is one buffer
    weights_t = [w.T for w in weights]
    probe_logits = [logits[r] for r in rows]
    for _ in range(PROBE_ITERATIONS):
        for x, w_t, out in zip(xs, weights_t, probe_logits):
            np.matmul(x, w_t, out=out)
        logits += bias[of_row]
        g = softmax_rows(logits)
        g -= onehot
        g /= n
        for x, r, grad, bias_grad in zip(xs, rows, grads, bias_grads):
            np.matmul(g[r].T, x, out=grad)
            np.add.reduce(g[r], axis=0, out=bias_grad)  # what g[r].sum(axis=0) runs
        weights -= PROBE_LEARNING_RATE * grads
        bias -= PROBE_LEARNING_RATE * bias_grads
    predictions = [np.argmax(eval_embeddings @ w.T + b, axis=1) for w, b in zip(weights, bias)]
    return [
        FewShotProbe(w, b, float(np.mean(pred == eval_labels)))
        for w, b, pred in zip(weights, bias, predictions)
    ]


def few_shot_probe(
    train_embeddings: np.ndarray,
    train_labels: np.ndarray,
    eval_embeddings: np.ndarray,
    eval_labels: np.ndarray,
) -> float:
    """Eval accuracy of one probe (`few_shot_probes` with one shot set)."""
    shots = [(train_embeddings, train_labels)]
    return few_shot_probes(shots, eval_embeddings, eval_labels)[0].accuracy


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
    so row i of one modality's index is the true item of row i of another's.
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


def _emergent_group(world, state, plan, data_mod: str, prompt_mod: str):
    res = emergent_zero_shot_accuracy(
        world, state, data_mod, prompt_mod, plan.n_per_class,
        stream=f"{plan.stream}/emergent/{data_mod}_vs_{prompt_mod}",
        prompts_per_class=plan.prompts_per_class,
    )
    return ({f"emergent_zero_shot/{data_mod}_vs_{prompt_mod}": res.accuracy},
            {f"emergent/{data_mod}_vs_{prompt_mod}": res.emergent})


def _retrieval_group(world, state, plan, query_mod: str, index_mod: str):
    rng = world.stream(f"{plan.stream}/retrieval/{query_mod}_to_{index_mod}")
    obs, _ = aligned_eval_items(world, [query_mod, index_mod], plan.retrieval_index_size, rng)
    index_emb = encode(_encoder(state, index_mod), obs[index_mod])
    query_emb = encode(_encoder(state, query_mod), obs[query_mod])
    rows = np.arange(plan.retrieval_index_size)
    recalls = cross_modal_recall_at_k(RetrievalIndex(index_emb), query_emb, rows, plan.k_list)
    return ({f"recall_at_{k}/{query_mod}_to_{index_mod}": v for k, v in recalls.items()},
            {f"emergent/{query_mod}_to_{index_mod}": _emergent(world, state, query_mod, index_mod)})


def _few_shot_group(world, state, plan):
    mod = plan.few_shot_modality
    encoder = _encoder(state, mod)
    eval_set = make_eval_set(
        world, mod, plan.n_per_class, world.stream(f"{plan.stream}/few_shot/eval/{mod}")
    )
    shots = []
    for k in plan.few_shot_ks:
        shot_set = make_eval_set(
            world, mod, k, world.stream(f"{plan.stream}/few_shot/shots/{mod}/k={k}")
        )
        shots.append((encode(encoder, shot_set.obs), shot_set.labels))
    probes = few_shot_probes(shots, encode(encoder, eval_set.obs), eval_set.labels)
    return {f"few_shot_k{k}/{mod}": p.accuracy for k, p in zip(plan.few_shot_ks, probes)}, {}


def _arithmetic_group(world, state, plan):
    mod_a, mod_b = plan.arithmetic_pair
    both, permuted = composed_retrieval_stats(
        world, state, mod_a, mod_b, plan.arithmetic_queries, plan.arithmetic_weight,
        plan.retrieval_k, plan.retrieval_index_size, f"{plan.stream}/arithmetic",
    )
    return {"arithmetic/both_class_fraction": both, "arithmetic/permuted_baseline": permuted}, {}


def _ensemble_group(world, state, plan):
    mod_a, mod_b = plan.ensemble_pair
    hub = world.hub
    rng = world.stream(f"{plan.stream}/ensemble/{mod_a}_{mod_b}")
    obs, _ = aligned_eval_items(world, [hub, mod_a, mod_b], plan.retrieval_index_size, rng)
    hub_emb = encode(_encoder(state, hub), obs[hub])
    emb_a = encode(_encoder(state, mod_a), obs[mod_a])
    emb_b = encode(_encoder(state, mod_b), obs[mod_b])
    rows = np.arange(plan.retrieval_index_size)
    index = RetrievalIndex(hub_emb)
    k = plan.retrieval_k
    metrics = {}
    for w in plan.ensemble_weights:
        combined = embed_arithmetic(emb_a, emb_b, w)
        recall = cross_modal_recall_at_k(index, combined, rows, [k])
        metrics[f"ensemble_recall_at_{k}/w={w:g}"] = recall[k]
    return metrics, {}


def _measurement_groups(plan: EvalPlan) -> list[tuple]:
    """(group function, its extra arguments) for every measurement of the plan, in plan order."""
    groups = [(_emergent_group, pair) for pair in plan.emergent_pairs]
    groups += [(_retrieval_group, pair) for pair in plan.retrieval_pairs]
    if plan.few_shot_modality and plan.few_shot_ks:
        groups.append((_few_shot_group, ()))
    if plan.arithmetic_pair and plan.arithmetic_queries > 0:
        groups.append((_arithmetic_group, ()))
    if plan.ensemble_pair and plan.ensemble_weights:
        groups.append((_ensemble_group, ()))
    return groups


# The order groups start in: the few-shot probes (PROBE_ITERATIONS steps), then the
# groups that rank against an index of retrieval_index_size items, then the shortest.
# Starting the longest first shortens the pool's makespan; results merge in plan order.
# Groups run on workers only for an index of at least POOLED_INDEX_ITEMS items. Below
# that every group but the probes takes a few ms, and starting the workers costs more
# than they save. On 2 cores, desk plans with index N, N queries and N/2 per class
# took, in-process against on workers: 56-85 against 86-117 ms at N=200, 117-129
# against 126-133 ms at N=700, 139-170 against 105-128 ms at N=1000.
POOLED_INDEX_ITEMS = 1000
_START_ORDER = (
    _few_shot_group, _ensemble_group, _arithmetic_group, _retrieval_group, _emergent_group
)


def run_eval_plan(
    world: WorldSpec,
    state: TrainState,
    plan: EvalPlan,
    config_hash: str = "",
    seed: int = 0,
) -> MetricsReport:
    """Execute every configured measurement and collect one flat report.

    Each measurement group (an emergent pair, a retrieval pair, the few-shot
    probes, the arithmetic, the ensemble) draws from its own named streams,
    so the groups run through `pool.ordered_map`: on forked workers where
    more than one core is usable and the plan's index holds at least
    POOLED_INDEX_ITEMS items, else in this process. Their metrics and flags
    are merged in plan order, so the report is the same however many
    workers run. A group lost with a dead worker raises EvaluationError
    naming the broken pool.
    """
    groups = _measurement_groups(plan)
    order = sorted(range(len(groups)), key=lambda i: _START_ORDER.index(groups[i][0]))

    def run(i):
        group, args = groups[i]
        return group(world, state, plan, *args)

    def lost(i, error):
        name = groups[i][0].__name__.strip("_")
        raise EvaluationError(f"evaluation worker lost in {name}: {type(error).__name__}: {error}")

    results = [None] * len(groups)
    max_workers = None if plan.retrieval_index_size >= POOLED_INDEX_ITEMS else 1
    with ordered_map(run, order, lost=lost, max_workers=max_workers) as done:
        for i, result in zip(order, done):
            results[i] = result
    metrics: dict[str, float] = {}
    flags: dict[str, bool] = {}
    for group_metrics, group_flags in results:
        metrics.update(group_metrics)
        flags.update(group_flags)
    report = MetricsReport(metrics=metrics, flags=flags, config_hash=config_hash, seed=seed)
    report.validate()
    return report
