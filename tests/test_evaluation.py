"""Tests for measurement protocols: prototypes, retrieval, probes, arithmetic,
ensembling, the frozen-hub protocol, and the eval-plan runner.

Training runs here are tiny (seconds for the whole module) and every stream is
seeded, so directional assertions on trained states are exact reruns, not
statistical gambles.
"""

import dataclasses
import itertools
import json
import os
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import modbind.evaluation as evaluation_mod
import modbind.pool as pool_mod
from modbind.codec import from_doc, to_doc
from modbind.config import parse_experiment_config
from modbind.encoders import EncoderArch, encode, init_encoder
from modbind.evaluation import (
    POOLED_INDEX_ITEMS,
    EvalPlan,
    EvaluationError,
    PrototypeBank,
    RetrievalIndex,
    aligned_eval_items,
    build_prototypes,
    composed_retrieval_stats,
    cross_modal_recall_at_k,
    embed_arithmetic,
    emergent_zero_shot_accuracy,
    few_shot_probe,
    few_shot_probes,
    frozen_hub_eval,
    run_eval_plan,
    trained_pair_registry,
    zero_shot_classify,
)
from modbind.evaluation import _similarity_blocks, _top_k
from modbind.numerics import block_rows
from modbind.trainer import PairConfig, TrainConfig, init_train_state, train_run
from modbind.world import ModalityConfig, WorldConfig, make_world

from .conftest import unit_rows
from .oracles import (
    dot,
    few_shot_probe_reference,
    nearest_prototype_loops,
    rank_loops,
    recall_at_k_loops,
    top_k_loops,
)


def world_config(beta_noise=0.05, within_class_scale=0.2):
    return WorldConfig(
        latent_dim=4,
        num_classes=3,
        within_class_scale=within_class_scale,
        modalities=[
            ModalityConfig(name="hub", obs_dim=6, obs_noise_scale=0.05, hub=True),
            ModalityConfig(name="alpha", obs_dim=5, obs_noise_scale=0.05),
            ModalityConfig(name="beta", obs_dim=4, obs_noise_scale=beta_noise),
        ],
    )


def make_archs(world, embed_dim=6):
    return {
        m.name: EncoderArch(input_dim=m.obs_dim, hidden_widths=(8,), embed_dim=embed_dim)
        for m in world.modalities
    }


def train_config(seed=11, pairs=("alpha", "beta"), epochs=12):
    return TrainConfig(
        pairs=[PairConfig(spoke=s, batch_size=32) for s in pairs],
        epochs=epochs,
        steps_per_epoch=16,
        learning_rate=1e-2,
        seed=seed,
    )


@pytest.fixture(scope="module")
def world():
    return make_world(world_config(), seed=7)


@pytest.fixture(scope="module")
def trained(world):
    archs = make_archs(world)
    state, _ = train_run(world, archs, train_config())
    return archs, state


def peak_bytes(fn) -> int:
    """Peak bytes allocated while fn() runs, above what was allocated before.

    NumPy reports its array buffers to tracemalloc, so this counts them.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestPrototypeBank:
    def test_non_unit_rows_rejected(self, rng):
        rows = unit_rows(3, 4, rng) * 2.0
        with pytest.raises(EvaluationError):
            PrototypeBank(prototypes=rows, class_ids=np.arange(3))

    def test_id_count_mismatch_rejected(self, rng):
        rows = unit_rows(3, 4, rng)
        with pytest.raises(EvaluationError):
            PrototypeBank(prototypes=rows, class_ids=np.arange(2))


class TestBuildPrototypes:
    def test_single_noiseless_prompt_is_encoded_class_mean(self):
        cfg = world_config(beta_noise=0.0, within_class_scale=0.0)
        for m in cfg.modalities:
            m.obs_noise_scale = 0.0
        w = make_world(cfg, seed=3)
        enc = init_encoder(make_archs(w)["alpha"], seed=5)
        bank = build_prototypes(w, "alpha", enc, 1, w.stream("prompts"))
        want, _ = encode(enc, w.observer("alpha").observe(w.class_means))
        np.testing.assert_allclose(bank.prototypes, want, atol=1e-12)
        np.testing.assert_array_equal(bank.class_ids, np.arange(3))

    def test_rows_unit_norm(self, world, trained):
        _, state = trained
        bank = build_prototypes(
            world, "beta", state.encoders["beta"], 16, world.stream("prompts")
        )
        np.testing.assert_allclose(np.linalg.norm(bank.prototypes, axis=1), 1.0, atol=1e-12)

    def test_zero_prompts_rejected(self, world, trained):
        _, state = trained
        with pytest.raises(Exception):
            build_prototypes(world, "beta", state.encoders["beta"], 0, world.stream("p"))


class TestZeroShotClassify:
    def test_prototypes_classify_as_themselves(self, rng):
        bank = PrototypeBank(prototypes=unit_rows(4, 6, rng), class_ids=np.arange(4))
        np.testing.assert_array_equal(zero_shot_classify(bank.prototypes, bank), np.arange(4))

    def test_positive_rescale_invariance(self, rng):
        bank = PrototypeBank(prototypes=unit_rows(4, 6, rng), class_ids=np.arange(4))
        q = rng.standard_normal((10, 6))
        np.testing.assert_array_equal(
            zero_shot_classify(q, bank), zero_shot_classify(2.5 * q, bank)
        )

    def test_matches_loop_oracle(self, rng):
        protos = unit_rows(5, 4, rng)
        bank = PrototypeBank(prototypes=protos, class_ids=np.arange(5))
        q = unit_rows(20, 4, rng)
        pred = zero_shot_classify(q, bank)
        want = [nearest_prototype_loops(row.tolist(), protos.tolist()) for row in q]
        np.testing.assert_array_equal(pred, want)

    def test_tie_goes_to_lowest_class(self, rng):
        row = unit_rows(1, 4, rng)[0]
        protos = np.stack([row, row, -row])
        bank = PrototypeBank(prototypes=protos, class_ids=np.arange(3))
        assert zero_shot_classify(row[None, :], bank)[0] == 0

    def test_dim_mismatch_rejected(self, rng):
        bank = PrototypeBank(prototypes=unit_rows(3, 4, rng), class_ids=np.arange(3))
        with pytest.raises(EvaluationError):
            zero_shot_classify(unit_rows(2, 5, rng), bank)


class TestEmergentZeroShot:
    def test_spoke_pair_flagged_emergent(self, world, trained):
        _, state = trained
        res = emergent_zero_shot_accuracy(world, state, "alpha", "beta", 10)
        assert res.emergent

    def test_same_modality_not_emergent(self, world, trained):
        # same-modality run doubles as the upper-bound reference score
        _, state = trained
        res = emergent_zero_shot_accuracy(world, state, "alpha", "alpha", 50)
        assert not res.emergent
        assert res.accuracy >= 0.8

    def test_trained_pair_not_emergent(self, world, trained):
        _, state = trained
        assert not emergent_zero_shot_accuracy(world, state, "hub", "alpha", 5).emergent
        assert trained_pair_registry(world, state) == {
            frozenset(("hub", "alpha")),
            frozenset(("hub", "beta")),
        }

    def test_trained_spokes_align_without_direct_pairing(self, world, trained):
        _, state = trained
        res = emergent_zero_shot_accuracy(world, state, "alpha", "beta", 100)
        assert res.accuracy >= 0.8

    def test_untrained_seed_mean_near_chance(self, world):
        # single seeds swing wildly (whole classes land on one prototype);
        # only the seed average is pinned near 1/C
        archs = make_archs(world)
        vals = []
        for s in range(8):
            state = init_train_state(world, archs, train_config(seed=s))
            vals.append(emergent_zero_shot_accuracy(world, state, "alpha", "beta", 334).accuracy)
        assert abs(float(np.mean(vals)) - 1.0 / 3.0) < 0.06

    def test_prompt_averaging_beats_single_prompt_under_noise(self):
        w = make_world(world_config(beta_noise=0.6), seed=7)
        archs = make_archs(w)
        for s in range(4):
            state, _ = train_run(w, archs, train_config(seed=s))
            p16 = emergent_zero_shot_accuracy(
                w, state, "alpha", "beta", 100, prompts_per_class=16
            ).accuracy
            p1 = emergent_zero_shot_accuracy(
                w, state, "alpha", "beta", 100, prompts_per_class=1
            ).accuracy
            assert p16 >= p1

    def test_deterministic(self, world, trained):
        _, state = trained
        a = emergent_zero_shot_accuracy(world, state, "alpha", "beta", 50).accuracy
        b = emergent_zero_shot_accuracy(world, state, "alpha", "beta", 50).accuracy
        assert a == b


class TestRecallAtK:
    def test_self_retrieval_is_perfect(self, rng):
        emb = unit_rows(20, 6, rng)
        index = RetrievalIndex(embeddings=emb, item_ids=np.arange(20))
        recalls = cross_modal_recall_at_k(index, emb, np.arange(20), [1])
        assert recalls[1] == 1.0

    def test_k_equals_n_is_one(self, rng):
        index = RetrievalIndex(embeddings=unit_rows(15, 6, rng), item_ids=np.arange(15))
        recalls = cross_modal_recall_at_k(index, unit_rows(7, 6, rng), np.arange(7), [15])
        assert recalls[15] == 1.0

    @pytest.mark.parametrize("k", [0, 16])
    def test_k_out_of_range_rejected(self, rng, k):
        index = RetrievalIndex(embeddings=unit_rows(15, 6, rng), item_ids=np.arange(15))
        with pytest.raises(EvaluationError):
            cross_modal_recall_at_k(index, unit_rows(3, 6, rng), np.arange(3), [k])

    def test_matches_loop_oracle(self, rng):
        emb = unit_rows(12, 5, rng)
        ids = np.arange(12)
        index = RetrievalIndex(embeddings=emb, item_ids=ids)
        queries = unit_rows(8, 5, rng)
        gt = rng.integers(0, 12, 8)
        recalls = cross_modal_recall_at_k(index, queries, gt, [1, 3, 5])
        for k in (1, 3, 5):
            want = recall_at_k_loops(
                queries.tolist(), gt.tolist(), emb.tolist(), ids.tolist(), k
            )
            assert abs(recalls[k] - want) <= 1e-12

    def test_matches_loop_oracle_with_ties_across_blocks(self, rng):
        # 5 distinct rows over 2048 items force ties; 40 queries span two row blocks
        n, q = 2048, 40
        assert block_rows(n) < q
        emb = unit_rows(5, 6, rng)[rng.integers(0, 5, n)]
        ids = rng.permutation(3 * n)[:n]
        index = RetrievalIndex(embeddings=emb, item_ids=ids)
        queries = unit_rows(q, 6, rng)
        gt = ids[rng.integers(0, n, q)]
        k_list = [1, 300, 900, 1700, n]
        recalls = cross_modal_recall_at_k(index, queries, gt, k_list)
        for k in k_list:
            want = recall_at_k_loops(
                queries.tolist(), gt.tolist(), emb.tolist(), ids.tolist(), k
            )
            assert recalls[k] == want

    def test_ties_rank_by_ascending_id(self, rng):
        row = unit_rows(1, 4, rng)[0]
        other = unit_rows(1, 4, rng)[0]
        emb = np.stack([row, other, row])
        index = RetrievalIndex(embeddings=emb, item_ids=np.array([5, 7, 9]))
        q = row[None, :]
        assert cross_modal_recall_at_k(index, q, [5], [1])[1] == 1.0
        assert cross_modal_recall_at_k(index, q, [9], [1])[1] == 0.0
        assert cross_modal_recall_at_k(index, q, [9], [2])[2] == 1.0

    def test_monotone_in_k(self, rng):
        index = RetrievalIndex(embeddings=unit_rows(30, 6, rng), item_ids=np.arange(30))
        queries = unit_rows(25, 6, rng)
        gt = rng.integers(0, 30, 25)
        recalls = cross_modal_recall_at_k(index, queries, gt, [1, 5, 10, 30])
        values = [recalls[k] for k in (1, 5, 10, 30)]
        assert values == sorted(values)

    def test_unknown_ground_truth_rejected(self, rng):
        index = RetrievalIndex(embeddings=unit_rows(5, 6, rng), item_ids=np.arange(5))
        with pytest.raises(EvaluationError):
            cross_modal_recall_at_k(index, unit_rows(1, 6, rng), [99], [1])

    def test_no_queries_rejected(self, rng):
        # the mean over zero ranks would be NaN
        index = RetrievalIndex(embeddings=unit_rows(5, 6, rng), item_ids=np.arange(5))
        with pytest.raises(EvaluationError, match="at least one query"):
            cross_modal_recall_at_k(index, np.zeros((0, 6)), [], [1])

    def test_ground_truth_count_mismatch_rejected(self, rng):
        index = RetrievalIndex(embeddings=unit_rows(5, 6, rng), item_ids=np.arange(5))
        with pytest.raises(EvaluationError):
            cross_modal_recall_at_k(index, unit_rows(2, 6, rng), [0], [1])

    def test_non_finite_queries_rejected(self, rng):
        # a NaN query compares false with every item, so its true item would rank first
        index = RetrievalIndex(embeddings=unit_rows(5, 6, rng), item_ids=np.arange(5))
        queries = unit_rows(2, 6, rng)
        queries[1, 0] = np.nan
        with pytest.raises(EvaluationError):
            cross_modal_recall_at_k(index, queries, [0, 1], [1])

    def test_duplicate_index_ids_rejected(self, rng):
        with pytest.raises(EvaluationError):
            RetrievalIndex(embeddings=unit_rows(3, 6, rng), item_ids=np.array([0, 1, 1]))


class TestTopK:
    @pytest.mark.parametrize("k", [1, 2, 37, 4096])
    def test_matches_loop_oracle_with_ties_across_blocks(self, rng, k):
        # values from a small set, signed zeros included, in one block of 70 rows;
        # callers pass blocks of block_rows(n) rows, which TestSimilarityBlocks checks
        n, q = 4096, 70
        values = np.array([-1.0, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0])
        sims = values[rng.integers(0, len(values), (q, n))]
        sims[5] = 0.0
        sims[6, : n // 2] = -0.0
        top = _top_k(sims, k)
        assert top.shape == (q, k)
        for i in range(q):
            assert top[i].tolist() == top_k_loops(sims[i].tolist(), k)

    def test_matches_loop_oracle_without_ties(self, rng):
        sims = rng.standard_normal((9, 50))
        top = _top_k(sims, 6)
        for i in range(9):
            assert top[i].tolist() == top_k_loops(sims[i].tolist(), 6)


class TestSimilarityBlocks:
    """Ranking over blocks of similarity rows, with ties that straddle the blocks."""

    N, Q = 2048, 70  # 32-row blocks: 32, 32 and 6 rows

    @pytest.fixture(scope="class")
    def tied(self):
        # 24 unit vectors with entries in {0, +-0.5, +-1}: every dot product between them
        # is exact in any summation order, so BLAS and the loop oracle agree bit for bit.
        # Index rows repeat, and so do similarity values: ties fill every block.
        rng = np.random.default_rng(3)
        palette = np.concatenate([
            0.5 * np.array(list(itertools.product([-1.0, 1.0], repeat=4))),
            np.eye(4), -np.eye(4),
        ])
        items = palette[rng.integers(0, len(palette), self.N)]
        queries = palette[rng.integers(0, len(palette), self.Q)]
        sims = [[dot(qr, e) for e in items.tolist()] for qr in queries.tolist()]
        return items, queries, sims

    def test_blocks_are_consecutive_rows_of_the_similarity_matrix(self, tied):
        items, queries, sims = tied
        step = block_rows(self.N)
        blocks = list(_similarity_blocks(queries, items))
        assert len(blocks) >= 3
        assert [rows for rows, _ in blocks] == [
            slice(start, start + step) for start in range(0, self.Q, step)
        ]
        for rows, s in blocks:
            assert s.tolist() == sims[rows]

    def test_ranks_match_loop_oracle_with_ties_across_blocks(self, tied):
        items, queries, _ = tied
        rng = np.random.default_rng(4)
        ids = rng.permutation(3 * self.N)[: self.N]
        gt = ids[rng.integers(0, self.N, self.Q)]
        index = RetrievalIndex(embeddings=items, item_ids=ids)
        k_list = list(range(1, self.N + 1))
        recalls = cross_modal_recall_at_k(index, queries, gt, k_list)
        ranks = [
            rank_loops(qr, items.tolist(), ids.tolist(), g)
            for qr, g in zip(queries.tolist(), gt.tolist())
        ]
        assert len(set(ranks)) > 10
        for k in k_list:
            assert recalls[k] == sum(r < k for r in ranks) / self.Q

    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_block_top_k_matches_loop_oracle_with_ties_across_blocks(self, tied, k):
        items, queries, sims = tied
        top = np.concatenate([_top_k(s, k) for _, s in _similarity_blocks(queries, items)])
        assert top.shape == (self.Q, k)
        for i in range(self.Q):
            assert top[i].tolist() == top_k_loops(sims[i], k)

    @pytest.fixture(scope="class")
    def mixed(self):
        # 5-d items: the 24 exact palette vectors in the first four coordinates, and
        # 1000 random unit vectors close to e5. Queries run in three 64-row blocks:
        # random, palette, random. A palette query's similarities with palette items
        # are exact and tie; every other similarity is a continuous value, so only
        # the middle block has ties, and the outer ones take the fast paths.
        rng = np.random.default_rng(6)
        palette = np.concatenate([
            0.5 * np.array(list(itertools.product([-1.0, 1.0], repeat=4))),
            np.eye(4), -np.eye(4),
        ])
        palette = np.hstack([palette, np.zeros((24, 1))])
        near_e5 = np.hstack([0.05 * unit_rows(1000, 4, rng), np.zeros((1000, 1))])
        near_e5[:, 4] = np.sqrt(1.0 - np.sum(near_e5**2, axis=1))
        items = rng.permutation(np.concatenate([palette, near_e5]))
        ids = rng.permutation(5 * len(items))[: len(items)]
        queries = np.concatenate(
            [unit_rows(64, 5, rng), palette[rng.integers(0, 24, 64)], unit_rows(64, 5, rng)]
        )
        is_palette = np.all(items[:, 4:] == 0.0, axis=1)
        gt_cols = np.concatenate([
            rng.integers(0, len(items), 64),
            rng.choice(np.flatnonzero(is_palette), 64),
            rng.integers(0, len(items), 64),
        ])
        assert block_rows(len(items)) == 64
        return items, ids, queries, ids[gt_cols]

    def test_recall_with_tied_and_untied_blocks_matches_loop_oracle(self, mixed):
        items, ids, queries, gt = mixed
        index = RetrievalIndex(embeddings=items, item_ids=ids)
        col = {i: j for j, i in enumerate(ids.tolist())}
        tied = []
        for rows, s in _similarity_blocks(queries, items):
            s_gt = s[np.arange(s.shape[0]), [col[g] for g in gt[rows].tolist()]][:, None]
            tied.append(bool(np.count_nonzero(s == s_gt) > s.shape[0]))
        assert tied == [False, True, False]
        ranks = [
            rank_loops(qr, items.tolist(), ids.tolist(), g)
            for qr, g in zip(queries.tolist(), gt.tolist())
        ]
        assert len(set(ranks[64:128])) > 3
        k_list = sorted({r + 1 for r in ranks})
        recalls = cross_modal_recall_at_k(index, queries, gt, k_list)
        for k in k_list:
            assert recalls[k] == sum(r < k for r in ranks) / len(ranks)

    # a palette query's similarities, from the top: its own 1.0, eight palette items at
    # 0.5, then continuous values; its K-th value ties for K = 2 to 8 only
    @pytest.mark.parametrize("k, middle_tied", [(1, False), (5, True), (9, False)])
    def test_top_k_with_tied_and_untied_blocks_matches_loop_oracle(self, mixed, k, middle_tied):
        items, _, queries, _ = mixed
        tied = []
        for _, s in _similarity_blocks(queries, items):
            kth = np.sort(s, axis=1)[:, -k, None]
            tied.append(bool(np.count_nonzero(s >= kth) > s.shape[0] * k))
            top = _top_k(s, k)
            for i in range(s.shape[0]):
                assert top[i].tolist() == top_k_loops(s[i].tolist(), k)
        assert tied == [False, middle_tied, False]

    # one (2000, 2000) float64 similarity matrix is 32 MB
    def test_recall_allocates_no_queries_by_items_matrix(self, rng):
        n = 2000
        index = RetrievalIndex(embeddings=unit_rows(n, 32, rng), item_ids=np.arange(n))
        queries = unit_rows(n, 32, rng)
        peak = peak_bytes(lambda: cross_modal_recall_at_k(index, queries, np.arange(n), [1, 10]))
        assert peak < 4 * 2**20

    def test_composed_retrieval_allocates_no_queries_by_items_matrix(self, world, trained):
        _, state = trained
        peak = peak_bytes(lambda: composed_retrieval_stats(
            world, state, "alpha", "beta", 2000, 0.5, 10, 2000, "arith"
        ))
        assert peak < 8 * 2**20


class TestFewShotProbe:
    def test_memorizes_separable_clusters(self, rng):
        centers = np.eye(3, 6)
        labels = np.arange(12) % 3
        emb = centers[labels] + 0.05 * rng.standard_normal((12, 6))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        assert few_shot_probe(emb, labels, emb, labels) == 1.0

    def test_unstructured_embeddings_score_near_chance(self, rng):
        shots = unit_rows(12, 6, rng)
        eval_emb = unit_rows(300, 6, rng)
        acc = few_shot_probe(shots, np.arange(12) % 3, eval_emb, np.arange(300) % 3)
        assert 0.2 <= acc <= 0.47

    def test_missing_class_rejected(self, rng):
        shots = unit_rows(4, 6, rng)
        with pytest.raises(EvaluationError):
            few_shot_probe(shots, np.array([0, 0, 1, 1]), unit_rows(6, 6, rng), np.arange(6) % 3)

    def test_unbalanced_shots_rejected(self, rng):
        shots = unit_rows(5, 6, rng)
        with pytest.raises(EvaluationError):
            few_shot_probe(
                shots, np.array([0, 0, 1, 2, 2]), unit_rows(6, 6, rng), np.arange(6) % 3
            )


    @pytest.mark.parametrize(
        "classes, width, ks",
        [(2, 8, [3, 1, 2]), (3, 8, [1]), (5, 16, [4, 1, 7]), (10, 32, [1, 2, 4, 8]), (12, 64, [5, 1])],
    )
    def test_stacked_probes_equal_the_one_probe_loop_bit_for_bit(self, classes, width, ks):
        rng = np.random.default_rng(100 * classes + width)
        centers = unit_rows(classes, width, rng)

        def draw(per_class):
            labels = rng.permutation(np.arange(per_class * classes) % classes)
            emb = centers[labels] + 0.7 * rng.standard_normal((len(labels), width))
            return emb / np.linalg.norm(emb, axis=1, keepdims=True), labels

        eval_emb, eval_labels = draw(30)
        shots = [draw(k) for k in ks]
        probes = few_shot_probes(shots, eval_emb, eval_labels)
        assert len(probes) == len(ks)
        for (emb, labels), probe in zip(shots, probes):
            weights, bias, accuracy = few_shot_probe_reference(emb, labels, eval_emb, eval_labels)
            assert probe.weights.tobytes() == weights.tobytes()
            assert probe.bias.tobytes() == bias.tobytes()
            assert probe.accuracy == accuracy
            assert few_shot_probe(emb, labels, eval_emb, eval_labels) == accuracy

    def test_every_probe_is_checked(self, rng):
        eval_set = (unit_rows(6, 6, rng), np.arange(6) % 3)
        good = (unit_rows(6, 6, rng), np.arange(6) % 3)
        for bad, message in (
            ((unit_rows(4, 6, rng), np.array([0, 0, 1, 1])), "missing from shots"),
            ((unit_rows(5, 6, rng), np.array([0, 0, 1, 2, 2])), "balanced"),
            ((unit_rows(4, 6, rng), np.arange(4)), "one class count"),
        ):
            for shots in ([good, bad], [bad, good]):
                with pytest.raises(EvaluationError, match=message):
                    few_shot_probes(shots, *eval_set)

    def test_no_shot_sets_fit_no_probe(self, rng):
        assert few_shot_probes([], unit_rows(6, 6, rng), np.arange(6) % 3) == []


class TestEmbedArithmetic:
    def test_endpoints_are_exact(self, rng):
        e1 = unit_rows(4, 6, rng)
        e2 = unit_rows(4, 6, rng)
        np.testing.assert_array_equal(embed_arithmetic(e1, e2, 1.0), e1)
        np.testing.assert_array_equal(embed_arithmetic(e1, e2, 0.0), e2)

    def test_self_composition_is_identity(self, rng):
        e = unit_rows(4, 6, rng)
        np.testing.assert_allclose(embed_arithmetic(e, e, 0.5), e, atol=1e-12)

    def test_result_unit_norm_and_in_span(self, rng):
        e1 = unit_rows(1, 6, rng)[0]
        e2 = unit_rows(1, 6, rng)[0]
        out = embed_arithmetic(e1, e2, 0.3)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        basis = np.linalg.qr(np.stack([e1, e2]).T)[0]
        residual = out - basis @ (basis.T @ out)
        assert np.linalg.norm(residual) <= 1e-10

    def test_antiparallel_midpoint_rejected(self, rng):
        e = unit_rows(1, 6, rng)[0]
        with pytest.raises(EvaluationError):
            embed_arithmetic(e, -e, 0.5)

    @pytest.mark.parametrize("w", [-0.1, 1.0001])
    def test_weight_outside_unit_interval_rejected(self, rng, w):
        e = unit_rows(2, 6, rng)
        with pytest.raises(EvaluationError):
            embed_arithmetic(e, e, w)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(EvaluationError):
            embed_arithmetic(unit_rows(2, 6, rng), unit_rows(3, 6, rng), 0.5)

    def test_batch_rows_normalized(self, rng):
        out = embed_arithmetic(unit_rows(5, 6, rng), unit_rows(5, 6, rng), 0.4)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


class TestAlignedEvalItems:
    def test_shapes_and_labels(self, world):
        obs, labels = aligned_eval_items(world, ["hub", "alpha"], 10, world.stream("x"))
        assert set(obs) == {"hub", "alpha"}
        assert obs["hub"].shape == (10, 6)
        assert obs["alpha"].shape == (10, 5)
        np.testing.assert_array_equal(labels, np.arange(10) % 3)

    def test_modality_prefix_replays_identically(self, world):
        # retrieval with and without an extra view must see the same items
        obs_one, _ = aligned_eval_items(world, ["hub"], 10, world.stream("x"))
        obs_two, _ = aligned_eval_items(world, ["hub", "alpha"], 10, world.stream("x"))
        np.testing.assert_array_equal(obs_one["hub"], obs_two["hub"])


class TestComposedRetrievalStats:
    def test_fractions_and_determinism(self, world, trained):
        _, state = trained
        first = composed_retrieval_stats(world, state, "alpha", "beta", 50, 0.5, 5, 60, "arith")
        second = composed_retrieval_stats(world, state, "alpha", "beta", 50, 0.5, 5, 60, "arith")
        assert first == second
        both, permuted = first
        assert 0.0 <= permuted <= 1.0
        assert 0.0 <= both <= 1.0
        assert both > permuted

    @pytest.mark.parametrize("k", [0, 61])
    def test_k_outside_index_rejected(self, world, trained, k):
        _, state = trained
        with pytest.raises(EvaluationError, match=f"K={k}"):
            composed_retrieval_stats(world, state, "alpha", "beta", 50, 0.5, k, 60, "arith")

    def test_no_queries_rejected(self, world, trained):
        _, state = trained
        with pytest.raises(EvaluationError, match="n_queries"):
            composed_retrieval_stats(world, state, "alpha", "beta", 0, 0.5, 5, 60, "arith")

    def test_non_finite_hub_embeddings_rejected(self, world, trained):
        _, state = trained
        hub = dataclasses.replace(state.encoders["hub"])
        hub.flat[:] = np.nan
        broken = dataclasses.replace(state, encoders={**state.encoders, "hub": hub})
        with pytest.raises(EvaluationError, match="finite"):
            composed_retrieval_stats(world, broken, "alpha", "beta", 50, 0.5, 5, 60, "arith")


class TestFrozenHubEval:
    def test_deterministic(self, world, trained):
        archs, state = trained
        args = (state.encoders["hub"], world, archs, train_config(seed=5), [("alpha", "beta")])
        assert frozen_hub_eval(*args).to_json() == frozen_hub_eval(*args).to_json()

    def test_fresh_spokes_bind_to_supplied_hub(self, world, trained):
        archs, state = trained
        key = "emergent_zero_shot/alpha_vs_beta"
        untrained = frozen_hub_eval(
            state.encoders["hub"], world, archs, train_config(seed=5, epochs=0), [("alpha", "beta")]
        )
        rebound = frozen_hub_eval(
            state.encoders["hub"], world, archs, train_config(seed=5), [("alpha", "beta")]
        )
        assert rebound.metrics[key] > untrained.metrics[key]
        assert rebound.metrics[key] >= 0.8
        assert rebound.flags["emergent/alpha_vs_beta"]

    def test_hub_params_not_mutated(self, world, trained):
        archs, state = trained
        snap = [a.copy() for a in state.encoders["hub"].arrays()]
        frozen_hub_eval(state.encoders["hub"], world, archs, train_config(seed=5), [("alpha", "beta")])
        for before, after in zip(snap, state.encoders["hub"].arrays()):
            np.testing.assert_array_equal(before, after)

    def test_hub_of_another_arch_is_scored(self, world, trained):
        archs, _ = trained
        wide = EncoderArch(input_dim=world.observer("hub").obs_dim, hidden_widths=(16,), embed_dim=6)
        report = frozen_hub_eval(
            init_encoder(wide, seed=3), world, archs, train_config(seed=5, epochs=1),
            [("alpha", "beta")],
        )
        assert 0.0 <= report.metrics["emergent_zero_shot/alpha_vs_beta"] <= 1.0

    def test_config_hash_passthrough(self, world, trained):
        archs, state = trained
        report = frozen_hub_eval(
            state.encoders["hub"], world, archs, train_config(seed=5), [], config_hash="abc123"
        )
        assert report.config_hash == "abc123"

    def test_hub_trained_on_one_pair_supports_new_spoke(self, world):
        # a hub that never saw beta still anchors it well above chance (1/3)
        archs = make_archs(world)
        state, _ = train_run(world, archs, train_config(seed=0, pairs=("alpha",)))
        report = frozen_hub_eval(
            state.encoders["hub"], world, archs, train_config(seed=50), [("beta", "alpha")]
        )
        assert report.metrics["emergent_zero_shot/beta_vs_alpha"] >= 0.8


class TestRunEvalPlan:
    def full_plan(self):
        return EvalPlan(
            emergent_pairs=[("alpha", "beta")],
            retrieval_pairs=[("alpha", "beta")],
            k_list=[1, 5],
            few_shot_modality="alpha",
            few_shot_ks=[1, 2],
            arithmetic_pair=("alpha", "beta"),
            arithmetic_queries=30,
            arithmetic_weight=0.5,
            ensemble_pair=("alpha", "beta"),
            ensemble_weights=[0.0, 0.5, 0.95, 1.0],
            n_per_class=20,
            prompts_per_class=8,
            retrieval_index_size=40,
            retrieval_k=5,
        )

    def test_ten_times_eval_sizes_stay_under_16_mb(self, monkeypatch):
        # desk.json at the 10x eval sizes of the benchmark's eval-desk-x10 workload
        # (X10_EVAL in perfbench/run.py), on an untrained state; encoding through
        # encode, which keeps the backward pass's cache, peaks at about 27.5 MB.
        # tracemalloc sees only this process, so the measurements must run in it
        monkeypatch.setattr(pool_mod, "usable_cores", lambda: 1)
        doc = json.loads(resources.files("modbind").joinpath("configs", "desk.json").read_text())
        doc["eval"].update(retrieval_index_size=2000, arithmetic_queries=2000, n_per_class=1000)
        cfg = parse_experiment_config(doc)
        world = make_world(cfg.world, cfg.seed)
        state = init_train_state(world, cfg.archs, cfg.train)
        peak = peak_bytes(lambda: run_eval_plan(world, state, cfg.eval_plan))
        assert peak < 16 * 2**20

    def test_all_configured_metrics_present(self, world, trained):
        _, state = trained
        report = run_eval_plan(world, state, self.full_plan(), config_hash="h", seed=11)
        assert set(report.metrics) == {
            "emergent_zero_shot/alpha_vs_beta",
            "recall_at_1/alpha_to_beta",
            "recall_at_5/alpha_to_beta",
            "few_shot_k1/alpha",
            "few_shot_k2/alpha",
            "arithmetic/both_class_fraction",
            "arithmetic/permuted_baseline",
            "ensemble_recall_at_5/w=0",
            "ensemble_recall_at_5/w=0.5",
            "ensemble_recall_at_5/w=0.95",
            "ensemble_recall_at_5/w=1",
        }
        assert report.flags == {
            "emergent/alpha_vs_beta": True,
            "emergent/alpha_to_beta": True,
        }
        assert report.config_hash == "h"
        assert report.seed == 11
        report.validate()

    def test_same_report_in_process_and_in_workers(self, world, trained, monkeypatch):
        _, state = trained
        plan = dataclasses.replace(self.full_plan(), retrieval_index_size=POOLED_INDEX_ITEMS)
        reports = []
        for cores in (1, 2):
            monkeypatch.setattr(pool_mod, "usable_cores", lambda: cores)
            reports.append(run_eval_plan(world, state, plan, config_hash="h").to_json())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("index_items", [POOLED_INDEX_ITEMS - 1, POOLED_INDEX_ITEMS])
    def test_only_a_large_index_starts_workers(self, world, trained, monkeypatch, index_items):
        _, state = trained
        monkeypatch.setattr(pool_mod, "usable_cores", lambda: 2)
        pids = []  # a worker appends to its own copy, which this process never sees
        real = evaluation_mod.emergent_zero_shot_accuracy

        def spy(*args, **kwargs):
            pids.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation_mod, "emergent_zero_shot_accuracy", spy)
        plan = dataclasses.replace(self.full_plan(), retrieval_index_size=index_items)
        run_eval_plan(world, state, plan)
        assert pids == ([] if index_items >= POOLED_INDEX_ITEMS else [os.getpid()])

    def test_deterministic(self, world, trained):
        _, state = trained
        a = run_eval_plan(world, state, self.full_plan())
        b = run_eval_plan(world, state, self.full_plan())
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize(
        "change",
        [
            {"k_list": [1, 41]},
            {"retrieval_k": 41},
            {"k_list": []},
            {"few_shot_ks": [0]},
            {"arithmetic_weight": 1.5},
            {"ensemble_weights": [0.5, -0.1]},
            {"n_per_class": 0},
            {"arithmetic_queries": -1},
        ],
    )
    def test_invalid_plan_rejected(self, change):
        with pytest.raises(EvaluationError):
            dataclasses.replace(self.full_plan(), **change)

    def test_plan_round_trips_through_dict(self):
        plan = self.full_plan()
        assert from_doc(EvalPlan, to_doc(plan)) == plan

    def test_empty_plan_yields_empty_report(self, world, trained):
        _, state = trained
        report = run_eval_plan(world, state, EvalPlan())
        assert report.metrics == {}
        assert report.flags == {}
