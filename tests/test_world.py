"""Tests for the seeded synthetic multimodal world."""

import dataclasses

import numpy as np
import pytest

import modbind.world as world_mod
from modbind.world import (
    ModalityConfig,
    WorldConfig,
    WorldError,
    class_prototypes,
    make_eval_set,
    make_world,
    observe,
    sample_training_batch,
    stream_rng,
)

from .oracles import gelu_power_loops, latents_replay, observations_replay, world_fingerprint_loops


def noiseless_config(within_class_scale=0.0):
    return WorldConfig(
        latent_dim=4,
        num_classes=3,
        within_class_scale=within_class_scale,
        modalities=[
            ModalityConfig(name="hub", obs_dim=6, hub=True),
            ModalityConfig(name="alpha", obs_dim=5),
            ModalityConfig(name="beta", obs_dim=4),
        ],
    )


class TestStreamRng:
    def test_deterministic(self):
        a = stream_rng(7, "train/pool").integers(0, 2**32, 5)
        b = stream_rng(7, "train/pool").integers(0, 2**32, 5)
        np.testing.assert_array_equal(a, b)

    def test_name_sensitivity(self):
        a = stream_rng(7, "train/pool").integers(0, 2**32, 5)
        b = stream_rng(7, "eval/pool").integers(0, 2**32, 5)
        assert not np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = stream_rng(7, "train/pool").integers(0, 2**32, 5)
        b = stream_rng(8, "train/pool").integers(0, 2**32, 5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 7])
    def test_seed_outside_32_bits_rejected(self, seed):
        # a masked 2**32 + 7 would replay seed 7's streams under another seed's name
        with pytest.raises(WorldError, match=r"seed must lie in \[0, 2\*\*32\)"):
            stream_rng(seed, "train/pool")


class TestMakeWorld:
    def test_deterministic_serialization(self, tiny_world_config):
        a = make_world(tiny_world_config, seed=7).to_json()
        b = make_world(tiny_world_config, seed=7).to_json()
        assert a == b

    def test_seed_changes_world(self, tiny_world_config):
        a = make_world(tiny_world_config, seed=7).to_json()
        b = make_world(tiny_world_config, seed=8).to_json()
        assert a != b

    def test_two_class_separability(self):
        cfg = WorldConfig(
            latent_dim=8,
            num_classes=2,
            within_class_scale=0.1,
            modalities=[
                ModalityConfig(name="hub", obs_dim=4, hub=True),
                ModalityConfig(name="alpha", obs_dim=4),
            ],
        )
        for seed in range(5):
            world = make_world(cfg, seed=seed)
            dist = np.linalg.norm(world.class_means[0] - world.class_means[1])
            assert dist >= 0.4

    def test_many_class_separability(self):
        cfg = WorldConfig(
            latent_dim=16,
            num_classes=10,
            within_class_scale=0.5,
            modalities=[
                ModalityConfig(name="hub", obs_dim=8, hub=True),
                ModalityConfig(name="alpha", obs_dim=8),
            ],
        )
        world = make_world(cfg, seed=3)
        c = world.num_classes
        for i in range(c):
            for j in range(i + 1, c):
                d = np.linalg.norm(world.class_means[i] - world.class_means[j])
                assert d >= 4 * 0.5

    def test_coincident_class_means_rejected(self, monkeypatch):
        # standard-normal means never coincide; a class-mean stream that repeats one row does
        real = world_mod.stream_rng

        class RepeatedRow:
            def standard_normal(self, shape):
                return np.tile(real(0, "row").standard_normal(shape[1]), (shape[0], 1))

        monkeypatch.setattr(world_mod, "stream_rng", lambda seed, name: (
            RepeatedRow() if name == "world/class_means" else real(seed, name)))
        with pytest.raises(WorldError, match="not pairwise distinct"):
            make_world(noiseless_config(within_class_scale=0.1), seed=0)

    def test_rejects_bad_configs(self):
        good = noiseless_config()
        with pytest.raises(WorldError):
            make_world(
                WorldConfig(1, 3, 0.1, good.modalities), seed=0
            )
        with pytest.raises(WorldError):
            make_world(WorldConfig(4, 1, 0.1, good.modalities), seed=0)
        with pytest.raises(WorldError):
            make_world(WorldConfig(4, 3, -0.1, good.modalities), seed=0)
        with pytest.raises(WorldError):
            make_world(WorldConfig(4, 3, 0.1, [ModalityConfig("hub", 4, hub=True)]), seed=0)
        no_hub = [ModalityConfig("a", 4), ModalityConfig("b", 4)]
        with pytest.raises(WorldError):
            make_world(WorldConfig(4, 3, 0.1, no_hub), seed=0)
        two_hubs = [ModalityConfig("a", 4, hub=True), ModalityConfig("b", 4, hub=True)]
        with pytest.raises(WorldError):
            make_world(WorldConfig(4, 3, 0.1, two_hubs), seed=0)
        dup = [ModalityConfig("a", 4, hub=True), ModalityConfig("a", 4)]
        with pytest.raises(WorldError):
            make_world(WorldConfig(4, 3, 0.1, dup), seed=0)
        bad_dim = [ModalityConfig("hub", 0, hub=True), ModalityConfig("b", 4)]
        with pytest.raises(WorldError):
            make_world(WorldConfig(4, 3, 0.1, bad_dim), seed=0)
        bad_map = [ModalityConfig("hub", 4, hub=True), ModalityConfig("b", 4, nonlinearity="relu")]
        with pytest.raises(WorldError):
            WorldConfig(4, 3, 0.1, bad_map)

    def test_unknown_modality_lookup(self, tiny_world):
        with pytest.raises(WorldError):
            tiny_world.observer("nonexistent")


class TestFingerprint:
    def test_matches_the_value_by_value_oracle(self, tiny_world):
        assert tiny_world.fingerprint() == world_fingerprint_loops(tiny_world)
        assert len(tiny_world.fingerprint()) == 64

    def test_same_config_and_seed_give_the_same_fingerprint(self, tiny_world_config, tiny_world):
        assert make_world(tiny_world_config, seed=7).fingerprint() == tiny_world.fingerprint()
        assert make_world(tiny_world_config, seed=8).fingerprint() != tiny_world.fingerprint()

    @pytest.mark.parametrize("array", ["class_means", "hub weight", "alpha bias", "beta weight"])
    def test_every_drawn_number_moves_it(self, tiny_world_config, array):
        world = make_world(tiny_world_config, seed=7)
        before = world.fingerprint()
        target = {"class_means": world.class_means, "hub weight": world.observer("hub").weight,
                  "alpha bias": world.observer("alpha").bias,
                  "beta weight": world.observer("beta").weight}[array]
        target.flat[-1] = np.nextafter(target.flat[-1], np.inf)  # one ulp
        assert world.fingerprint() != before
        assert world.fingerprint() == world_fingerprint_loops(world)


class TestObserver:
    def test_noiseless_observation_is_deterministic(self, tiny_world, rng):
        z = rng.standard_normal((3, tiny_world.latent_dim))
        obs_model = tiny_world.observer("alpha")
        np.testing.assert_array_equal(obs_model.observe(z), obs_model.observe(z))

    def test_noise_reproducible_per_stream(self, tiny_world, rng):
        z = rng.standard_normal((3, tiny_world.latent_dim))
        obs_model = tiny_world.observer("alpha")
        a = obs_model.observe(z, tiny_world.stream("x"))
        b = obs_model.observe(z, tiny_world.stream("x"))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, obs_model.observe(z))

    @pytest.mark.parametrize("nonlinearity", ["tanh", "gelu", "identity"])
    def test_noiseless_observation_matches_the_oracle_map(self, rng, nonlinearity):
        base = noiseless_config()
        modalities = [base.modalities[0],
                      ModalityConfig("alpha", 5, nonlinearity=nonlinearity, obs_noise_scale=0.1)]
        world = make_world(dataclasses.replace(base, modalities=modalities), seed=3)
        observer = world.observer("alpha")
        z = 3.0 * rng.standard_normal((16, world.latent_dim))
        pre = z @ observer.weight.T + observer.bias
        got = observer.observe(z)
        if nonlinearity == "gelu":
            np.testing.assert_allclose(got, gelu_power_loops(pre.tolist()), rtol=0, atol=1e-12)
        else:
            assert np.array_equal(got, {"tanh": np.tanh(pre), "identity": pre}[nonlinearity])


def round_robin_labels(world, n):
    """The labels the pair sampler assigns to n rows."""
    return np.arange(n) % world.num_classes


def replayed_latents(world, n, stream):
    """The shared latents of a pair batch, redrawn from the start of the same stream."""
    labels = round_robin_labels(world, n)
    return latents_replay(world, labels, world.within_class_scale, world.stream(stream))


class TestPairSampling:
    def test_round_robin_labels_balanced(self, tiny_world):
        counts = np.bincount(round_robin_labels(tiny_world, 1000), minlength=tiny_world.num_classes)
        assert counts.max() - counts.min() <= 1

    def test_aligned_rows_share_latents(self):
        world = make_world(noiseless_config(within_class_scale=0.3), seed=5)
        batch = sample_training_batch(world, "alpha", 16, world.stream("t"))
        latents = replayed_latents(world, 16, "t")
        np.testing.assert_array_equal(batch.hub_obs, world.observer("hub").observe(latents))
        np.testing.assert_array_equal(batch.spoke_obs, world.observer("alpha").observe(latents))

    def test_unaligned_rows_share_class_only(self):
        world = make_world(noiseless_config(within_class_scale=0.3), seed=5)
        batch = sample_training_batch(world, "alpha", 16, world.stream("t"), aligned=False)
        latents = replayed_latents(world, 16, "t")
        np.testing.assert_array_equal(batch.hub_obs, world.observer("hub").observe(latents))
        aligned_spoke = world.observer("alpha").observe(latents)
        assert not np.array_equal(batch.spoke_obs, aligned_spoke)

    def test_single_row_alignment(self):
        world = make_world(noiseless_config(within_class_scale=0.3), seed=5)
        batch = sample_training_batch(world, "alpha", 1, world.stream("t"))
        latents = replayed_latents(world, 1, "t")
        assert latents.shape == (1, world.latent_dim)
        np.testing.assert_array_equal(batch.spoke_obs, world.observer("alpha").observe(latents))

    def test_hub_as_spoke_rejected(self, tiny_world):
        with pytest.raises(WorldError):
            sample_training_batch(tiny_world, "hub", 4, tiny_world.stream("t"))

    def test_empty_batch_rejected(self, tiny_world):
        with pytest.raises(WorldError):
            sample_training_batch(tiny_world, "alpha", 0, tiny_world.stream("t"))

    def test_training_view_strips_labels(self, tiny_world):
        pair = sample_training_batch(tiny_world, "alpha", 8, tiny_world.stream("t"))
        assert not hasattr(pair, "class_labels")
        assert not hasattr(pair, "latents")
        assert pair.hub_obs.shape[0] == pair.spoke_obs.shape[0] == 8

    def test_noiseless_nearest_mean_is_perfect(self):
        world = make_world(noiseless_config(within_class_scale=0.0), seed=2)
        latents = replayed_latents(world, 30, "t")
        labels = round_robin_labels(world, 30)
        for i in range(30):
            dists = [
                float(np.linalg.norm(latents[i] - world.class_means[c]))
                for c in range(world.num_classes)
            ]
            assert int(np.argmin(dists)) == labels[i]


class TestPrototypes:
    def test_grouped_rows(self, tiny_world):
        obs, labels = class_prototypes(tiny_world, "alpha", 5, tiny_world.stream("p"))
        assert obs.shape[0] == tiny_world.num_classes * 5
        np.testing.assert_array_equal(
            labels, np.repeat(np.arange(tiny_world.num_classes), 5)
        )

    def test_noiseless_single_prompt_equals_observed_mean(self):
        world = make_world(noiseless_config(within_class_scale=0.0), seed=2)
        obs, labels = class_prototypes(world, "alpha", 1, world.stream("p"))
        want = world.observer("alpha").observe(world.class_means)
        np.testing.assert_array_equal(obs, want)
        np.testing.assert_array_equal(labels, np.arange(world.num_classes))

    def test_nearest_prototype_in_observation_space(self):
        world = make_world(noiseless_config(within_class_scale=0.0), seed=2)
        protos, _ = class_prototypes(world, "alpha", 1, world.stream("p"))
        eval_set = make_eval_set(world, "alpha", 10, world.stream("e"))
        for i in range(eval_set.obs.shape[0]):
            dists = [
                float(np.linalg.norm(eval_set.obs[i] - protos[c]))
                for c in range(world.num_classes)
            ]
            assert int(np.argmin(dists)) == eval_set.labels[i]

    def test_rejects_zero_prompts(self, tiny_world):
        with pytest.raises(WorldError):
            class_prototypes(tiny_world, "alpha", 0, tiny_world.stream("p"))


class TestSamplerReplay:
    """Every sampler's output equals, array for array, the draw written out by
    `observations_replay` on the same stream: the order of draws that pinned
    artifacts depend on."""

    def test_eval_set(self, tiny_world):
        es = make_eval_set(tiny_world, "beta", 4, tiny_world.stream("e"))
        labels = round_robin_labels(tiny_world, 12)
        want = observations_replay(tiny_world, ["beta"], labels, tiny_world.within_class_scale,
                                   tiny_world.stream("e"))
        np.testing.assert_array_equal(es.obs, want["beta"])
        np.testing.assert_array_equal(es.labels, labels)

    def test_prototypes(self, tiny_world):
        obs, labels = class_prototypes(tiny_world, "alpha", 5, tiny_world.stream("p"))
        want_labels = np.repeat(np.arange(tiny_world.num_classes), 5)
        want = observations_replay(tiny_world, ["alpha"], want_labels,
                                   tiny_world.within_class_scale / 4, tiny_world.stream("p"))
        np.testing.assert_array_equal(obs, want["alpha"])
        np.testing.assert_array_equal(labels, want_labels)

    def test_aligned_training_batch(self, tiny_world):
        batch = sample_training_batch(tiny_world, "alpha", 7, tiny_world.stream("t"))
        want = observations_replay(tiny_world, ["hub", "alpha"], round_robin_labels(tiny_world, 7),
                                   tiny_world.within_class_scale, tiny_world.stream("t"))
        np.testing.assert_array_equal(batch.hub_obs, want["hub"])
        np.testing.assert_array_equal(batch.spoke_obs, want["alpha"])

    def test_class_only_training_batch(self, tiny_world):
        # the hub's latents and observations, then the spoke's own latents and observations
        batch = sample_training_batch(tiny_world, "alpha", 7, tiny_world.stream("t"), aligned=False)
        labels, rng = round_robin_labels(tiny_world, 7), tiny_world.stream("t")
        scale = tiny_world.within_class_scale
        hub = observations_replay(tiny_world, ["hub"], labels, scale, rng)["hub"]
        spoke = observations_replay(tiny_world, ["alpha"], labels, scale, rng)["alpha"]
        np.testing.assert_array_equal(batch.hub_obs, hub)
        np.testing.assert_array_equal(batch.spoke_obs, spoke)


class TestObserve:
    def test_shapes_and_labels(self, tiny_world):
        labels = round_robin_labels(tiny_world, 10)
        obs = observe(tiny_world, ["hub", "alpha"], labels, tiny_world.stream("x"))
        assert list(obs) == ["hub", "alpha"]
        assert obs["hub"].shape == (10, 6)
        assert obs["alpha"].shape == (10, 5)

    def test_modality_prefix_replays_identically(self, tiny_world):
        # retrieval with and without an extra view must see the same items
        labels = round_robin_labels(tiny_world, 10)
        obs_one = observe(tiny_world, ["hub"], labels, tiny_world.stream("x"))
        obs_two = observe(tiny_world, ["hub", "alpha"], labels, tiny_world.stream("x"))
        np.testing.assert_array_equal(obs_one["hub"], obs_two["hub"])

    @pytest.mark.parametrize("modalities", [["alpha", "alpha"], ["hub", "alpha", "hub"]])
    def test_repeated_modality_rejected(self, tiny_world, modalities):
        # two views of one modality would come back as one array, the last one drawn
        with pytest.raises(WorldError, match="names each modality once"):
            observe(tiny_world, modalities, round_robin_labels(tiny_world, 4),
                    tiny_world.stream("x"))

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_draw_rejected(self, tiny_world, n):
        # every sampler reaches this one check, and it consumes nothing from the stream
        rng = tiny_world.stream("x")
        with pytest.raises(WorldError, match="at least one row"):
            observe(tiny_world, ["hub"], round_robin_labels(tiny_world, n), rng)
        for sample in (lambda: class_prototypes(tiny_world, "alpha", n, rng),
                       lambda: make_eval_set(tiny_world, "alpha", n, rng),
                       lambda: sample_training_batch(tiny_world, "alpha", n, rng)):
            with pytest.raises(WorldError, match="at least one row"):
                sample()
        np.testing.assert_array_equal(rng.standard_normal(3), tiny_world.stream("x").standard_normal(3))


class TestEvalSet:
    def test_balanced_and_sized(self, tiny_world):
        es = make_eval_set(tiny_world, "beta", 4, tiny_world.stream("e"))
        assert es.obs.shape == (4 * tiny_world.num_classes, 4)
        counts = np.bincount(es.labels, minlength=tiny_world.num_classes)
        assert set(counts.tolist()) == {4}

    def test_stream_name_separates_draws(self, tiny_world):
        a = make_eval_set(tiny_world, "beta", 4, tiny_world.stream("train/x"))
        b = make_eval_set(tiny_world, "beta", 4, tiny_world.stream("eval/x"))
        assert not np.array_equal(a.obs, b.obs)

    def test_same_stream_repeats(self, tiny_world):
        a = make_eval_set(tiny_world, "beta", 4, tiny_world.stream("eval/x"))
        b = make_eval_set(tiny_world, "beta", 4, tiny_world.stream("eval/x"))
        np.testing.assert_array_equal(a.obs, b.obs)


class TestSerialization:
    def test_unknown_hub_rejected(self, tiny_world):
        with pytest.raises(WorldError, match="gamma"):
            dataclasses.replace(tiny_world, hub="gamma")
