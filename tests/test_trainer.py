"""Tests for the optimizer, training loop, and checkpointing."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modbind.trainer as trainer_mod
from modbind.codec import from_doc, to_doc
from modbind.config import parse_experiment_config
from modbind.contrastive import LossOutput, TemperatureParam
from modbind.encoders import EncoderArch, init_encoder
from modbind.trainer import (
    AdamMoments,
    PairConfig,
    TrainConfig,
    TrainerError,
    adamw_step,
    check_resume,
    clip_global_norm,
    init_train_state,
    load_checkpoint,
    save_checkpoint,
    train_run,
    train_summary,
    write_training_log,
)
from modbind.world import make_world, sample_training_batch

from .conftest import doc_nodes, is_number, node_at, resize, set_at, small_config_document
from .oracles import (
    adamw_scalar_loops,
    adamw_scalar_step_loops,
    encoder_backward_loops,
    encoder_forward_loops,
    l2_regression_grads_loops,
    resume_mismatches_loops,
    symmetric_info_nce_grads_loops,
)


def tiny_archs(world, embed_dim=6, hidden=(8,)):
    return {
        m.name: EncoderArch(input_dim=m.obs_dim, hidden_widths=hidden, embed_dim=embed_dim)
        for m in world.modalities
    }


def quick_config(**overrides):
    base = dict(
        pairs=[
            PairConfig(spoke="alpha", batch_size=8),
            PairConfig(spoke="beta", batch_size=8),
        ],
        epochs=2,
        steps_per_epoch=6,
        learning_rate=3e-3,
        seed=11,
    )
    base.update(overrides)
    return TrainConfig(**base)


def fresh_moments(params):
    return AdamMoments(m=[np.zeros_like(params)], v=[np.zeros_like(params)], t=0)


def adam_state(rng, n=6):
    """A flat parameter vector and its moments after one ordinary step."""
    params = rng.standard_normal(n)
    moments = fresh_moments(params)
    adamw_step(params, rng.standard_normal(n), moments, 0.1, (0.9, 0.95), 0.01, 1)
    return params, moments


def snapshot(params, moments):
    return params.copy(), moments.m_flat.copy(), moments.v_flat.copy(), moments.t


def assert_state_equals(params, moments, snap):
    np.testing.assert_array_equal(params, snap[0])
    np.testing.assert_array_equal(moments.m_flat, snap[1])
    np.testing.assert_array_equal(moments.v_flat, snap[2])
    assert moments.t == snap[3]


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self, rng):
        params = rng.standard_normal(6)
        snap = params.copy()
        adamw_step(params, np.zeros(6), fresh_moments(params), 0.1, (0.9, 0.95), 0.0, 1)
        np.testing.assert_array_equal(params, snap)

    def test_hand_checked_first_step(self):
        params = np.array([1.0])
        moments = fresh_moments(params)
        adamw_step(params, np.array([1.0]), moments, 0.1, (0.9, 0.95), 0.0, 1)
        # bias-corrected m_hat = v_hat = 1, so p drops by lr/(1 + eps) ~ 0.1
        assert abs(params[0] - 0.9) <= 1e-6
        assert moments.t == 1

    def test_pure_decay(self):
        params = np.array([2.0])
        adamw_step(params, np.array([0.0]), fresh_moments(params), 0.1, (0.9, 0.95), 0.01, 1)
        assert abs(params[0] - 2.0 * (1.0 - 0.1 * 0.01)) <= 1e-12

    def test_matches_scalar_loop_oracle(self, rng):
        # every element follows the scalar recurrence on its own, to the bit
        grads_seq = rng.standard_normal((12, 3))
        start = np.array([0.7, -1.3, 0.0])
        params = start.copy()
        moments = fresh_moments(params)
        for t, g in enumerate(grads_seq, start=1):
            adamw_step(params, g, moments, 0.05, (0.9, 0.95), 0.01, t)
        want = [
            adamw_scalar_loops(float(p), grads_seq[:, i].tolist(), 0.05, 0.9, 0.95, 0.01, 1e-8)
            for i, p in enumerate(start)
        ]
        assert params.tolist() == want
        assert moments.t == 12

    def test_updates_the_views_of_moment_arrays(self, rng):
        moments = AdamMoments(m=[np.zeros((2, 3)), np.zeros(2)], v=[np.zeros((2, 3)), np.zeros(2)])
        params = rng.standard_normal(8)
        grads = rng.standard_normal(8)
        adamw_step(params, grads, moments, 0.1, (0.9, 0.95), 0.0, 1)
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in moments.m]), (1.0 - 0.9) * grads)
        assert all(np.shares_memory(a, moments.v_flat) for a in moments.v)

    def test_non_finite_grad_rejected(self, rng):
        params, moments = adam_state(rng)
        snap = snapshot(params, moments)
        grads = rng.standard_normal(6)
        grads[4] = np.nan
        with pytest.raises(TrainerError):
            adamw_step(params, grads, moments, 0.1, (0.9, 0.95), 0.01, 2)
        assert_state_equals(params, moments, snap)

    def test_shape_mismatch_rejected(self, rng):
        params, moments = adam_state(rng)
        snap = snapshot(params, moments)
        with pytest.raises(TrainerError):
            adamw_step(params, rng.standard_normal(5), moments, 0.1, (0.9, 0.95), 0.0, 2)
        assert_state_equals(params, moments, snap)

    def test_grad_not_mutated_and_rejected_step_leaves_state(self, rng):
        params, moments = adam_state(rng)
        grads = rng.standard_normal(6)
        grads_snap = grads.copy()
        adamw_step(params, grads, moments, 0.1, (0.9, 0.95), 0.01, 2)
        np.testing.assert_array_equal(grads, grads_snap)
        snap = snapshot(params, moments)
        for bad in ({"lr": 0.0, "step": 3}, {"lr": 0.1, "step": 0}):
            with pytest.raises(TrainerError):
                adamw_step(params, grads, moments, bad["lr"], (0.9, 0.95), 0.01, bad["step"])
            assert_state_equals(params, moments, snap)


class TestClip:
    def test_under_threshold_unchanged(self):
        grads = [np.array([[0.3, 0.4]])]
        snap = grads[0].copy()
        assert clip_global_norm(grads, 1.0) == pytest.approx(0.5)
        np.testing.assert_array_equal(grads[0], snap)

    def test_over_threshold_rescaled_to_max(self, rng):
        grads = [10.0 * rng.standard_normal((3, 3)), 10.0 * rng.standard_normal(4)]
        arrays = list(grads)
        before = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
        assert clip_global_norm(grads, 1.0) == before
        assert all(g is a for g, a in zip(grads, arrays))  # scaled in place
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
        assert abs(total - 1.0) <= 1e-10

    def test_direction_preserved(self, rng):
        g = rng.standard_normal(6) * 50.0
        snap = g.copy()
        clip_global_norm([g], 1.0)
        cos = float(np.dot(g, snap) / (np.linalg.norm(g) * np.linalg.norm(snap)))
        assert abs(cos - 1.0) <= 1e-12

    def test_scales_views_of_one_vector(self, rng):
        flat = 10.0 * rng.standard_normal(10)
        want = flat * (1.0 / math.sqrt(sum(float(np.sum(g * g)) for g in (flat[:4], flat[4:]))))
        clip_global_norm([flat[:4], flat[4:]], 1.0)
        np.testing.assert_array_equal(flat, want)

    def test_bad_max_norm_rejected(self):
        with pytest.raises(TrainerError):
            clip_global_norm([np.ones(3)], 0.0)


class TestConfigValidation:
    def test_rejects_duplicate_spokes(self):
        with pytest.raises(TrainerError):
            TrainConfig(pairs=[PairConfig(spoke="a"), PairConfig(spoke="a")])

    def test_rejects_empty_pairs(self):
        with pytest.raises(TrainerError):
            TrainConfig(pairs=[])

    def test_rejects_bad_betas(self):
        with pytest.raises(TrainerError):
            TrainConfig(pairs=[PairConfig(spoke="a")], betas=(0.9, 1.0))

    def test_rejects_bad_pair_values(self):
        with pytest.raises(TrainerError):
            PairConfig(spoke="a", batch_size=0)
        with pytest.raises(TrainerError):
            PairConfig(spoke="a", replication_factor=0)
        with pytest.raises(TrainerError):
            PairConfig(spoke="a", infonce_weight=-1.0)

    def test_rejects_a_pair_without_a_loss(self):
        # with both weights 0 the step would train on weight decay alone, logging loss 0.0
        with pytest.raises(TrainerError, match="'a': infonce_weight and l2_weight are both 0"):
            PairConfig(spoke="a", infonce_weight=0.0, l2_weight=0.0)
        PairConfig(spoke="a", infonce_weight=0.0, l2_weight=1.0)
        PairConfig(spoke="a", infonce_weight=1.0, l2_weight=0.0)

    def test_rejects_a_pool_smaller_than_one_batch(self):
        # 6 steps over 2 pairs: 3 batches of 8 per pair and epoch, 24 samples
        assert trainer_mod.pool_size(quick_config(), PairConfig(spoke="alpha", batch_size=8)) == 24
        quick_config(pairs=[PairConfig(spoke="alpha", batch_size=8, replication_factor=3),
                            PairConfig(spoke="beta", batch_size=8)])  # a pool of exactly 8
        with pytest.raises(TrainerError, match="pool of 6 samples, fewer than its batch_size 8"):
            quick_config(pairs=[PairConfig(spoke="alpha", batch_size=8),
                                PairConfig(spoke="beta", batch_size=8, replication_factor=4)])

    def test_rejects_non_positive_adam_eps(self):
        with pytest.raises(TrainerError):
            TrainConfig(pairs=[PairConfig(spoke="a")], adam_eps=0.0)

    def test_round_trips(self):
        cfg = quick_config()
        back = from_doc(TrainConfig, to_doc(cfg))
        assert back == cfg


class TestTrainRun:
    def test_deterministic(self, tiny_world):
        archs = tiny_archs(tiny_world)
        cfg = quick_config()
        s1, _ = train_run(tiny_world, archs, cfg)
        s2, _ = train_run(tiny_world, archs, cfg)
        for name in archs:
            for a, b in zip(s1.encoders[name].arrays(), s2.encoders[name].arrays()):
                np.testing.assert_array_equal(a, b)
        assert [r.loss for r in s1.loss_history] == [r.loss for r in s2.loss_history]

    def test_epochs_zero_is_noop(self, tiny_world):
        archs = tiny_archs(tiny_world)
        cfg = quick_config(epochs=0)
        init = init_train_state(tiny_world, archs, cfg)
        state, _ = train_run(tiny_world, archs, cfg)
        for name in archs:
            for a, b in zip(init.encoders[name].arrays(), state.encoders[name].arrays()):
                np.testing.assert_array_equal(a, b)
        assert state.step == 0
        assert state.loss_history == []

    def test_round_robin_is_fair(self, tiny_world):
        cfg = quick_config(epochs=3, steps_per_epoch=5)  # 15 steps over 2 pairs
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), cfg)
        counts = {}
        for rec in state.loss_history:
            counts[rec.pair] = counts.get(rec.pair, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_loss_decreases(self, tiny_world):
        cfg = quick_config(epochs=4, steps_per_epoch=8)
        state, summary = train_run(tiny_world, tiny_archs(tiny_world), cfg)
        for pair in ("alpha", "beta"):
            info = summary["pairs"][pair]
            assert info["last_epoch_mean_loss"] < info["first_epoch_mean_loss"]

    def test_frozen_hub_never_moves(self, tiny_world):
        archs = tiny_archs(tiny_world)
        cfg = quick_config(hub_frozen=True)
        init = init_train_state(tiny_world, archs, cfg)
        hub_before = [a.copy() for a in init.encoders["hub"].arrays()]
        state, _ = train_run(tiny_world, archs, cfg)
        for a, b in zip(hub_before, state.encoders["hub"].arrays()):
            np.testing.assert_array_equal(a, b)
        # spokes still learn
        assert not np.array_equal(
            init.encoders["alpha"].weights[0], state.encoders["alpha"].weights[0]
        )

    @pytest.mark.parametrize("hub_frozen", [False, True], ids=["hub_trains", "hub_frozen"])
    @pytest.mark.parametrize("tau_mode", ["fixed", "learnable"])
    @pytest.mark.parametrize("l2_only", [False, True], ids=["infonce", "l2_only"])
    def test_step_trains_what_it_should(self, tiny_world, monkeypatch, hub_frozen, tau_mode, l2_only):
        # each step updates its spoke, the hub unless frozen, and the log-temperature only
        # when it is learnable and the InfoNCE term (its only gradient) is on
        archs = tiny_archs(tiny_world)
        spokes = ("alpha", "beta")
        pairs = [
            PairConfig(spoke=s, batch_size=8, temperature=TemperatureParam(mode=tau_mode),
                       infonce_weight=0.0 if l2_only else 1.0, l2_weight=1.0 if l2_only else 0.0)
            for s in spokes
        ]
        cfg = quick_config(pairs=pairs, hub_frozen=hub_frozen)
        tau_trains = tau_mode == "learnable" and not l2_only
        clipped = []
        real_clip = trainer_mod.clip_global_norm

        def spy(grads, max_norm):
            clipped.append([g.shape for g in grads])
            return real_clip(grads, max_norm)

        stepped = []
        real_adamw = trainer_mod.adamw_step

        def adamw_spy(params, grads, moments, lr, betas, weight_decay, step, eps):
            stepped.append((params.shape, lr, weight_decay))
            return real_adamw(params, grads, moments, lr, betas, weight_decay, step, eps=eps)

        monkeypatch.setattr(trainer_mod, "clip_global_norm", spy)
        monkeypatch.setattr(trainer_mod, "adamw_step", adamw_spy)
        log_tau_before = init_train_state(tiny_world, archs, cfg).temperatures["alpha"].log_tau
        state, _ = train_run(tiny_world, archs, cfg)

        steps = cfg.epochs * cfg.steps_per_epoch
        assert state.moments["hub"].t == (0 if hub_frozen else steps)
        for spoke in spokes:
            assert state.moments[spoke].t == steps // 2
            assert state.tau_moments[spoke].t == (steps // 2 if tau_trains else 0)
            assert (state.temperatures[spoke].log_tau != log_tau_before) == tau_trains
        # the clip sees one flat gradient vector per trained part: spoke, hub, log-temperature
        shapes = {name: enc.flat.shape for name, enc in state.encoders.items()}
        assert clipped == [
            [shapes[rec.pair]] + ([] if hub_frozen else [shapes["hub"]]) + ([(1,)] if tau_trains else [])
            for rec in state.loss_history
        ]
        # AdamW gets the warmed-up rate, min(1, (t+1)/warmup_steps) of it, and decays the
        # encoders' weights but never the log-temperature
        warmup_steps = 6
        assert cfg.warmup_epochs * cfg.steps_per_epoch == warmup_steps and cfg.weight_decay > 0
        want = []
        for rec in state.loss_history:
            lr = cfg.learning_rate * min(1.0, (rec.step + 1) / warmup_steps)
            want.append((shapes[rec.pair], lr, cfg.weight_decay))
            if not hub_frozen:
                want.append((shapes["hub"], lr, cfg.weight_decay))
            if tau_trains:
                want.append(((1,), lr, 0.0))
        assert [(shape, decay) for shape, _, decay in stepped] == [(s, d) for s, _, d in want]
        assert [lr for _, lr, _ in stepped] == pytest.approx([lr for _, lr, _ in want], rel=1e-12)

    def test_supplied_hub_is_not_updated_in_place(self, tiny_world):
        # training updates parameter buffers in place; the caller's hub must not share one
        archs = tiny_archs(tiny_world)
        cfg = quick_config()
        hub = init_train_state(tiny_world, archs, cfg).encoders["hub"]
        snap = hub.flat.copy()
        state = init_train_state(tiny_world, archs, cfg)
        state.encoders["hub"] = dataclasses.replace(hub)
        state, _ = train_run(tiny_world, archs, cfg, state=state)
        assert not np.array_equal(state.encoders["hub"].flat, snap)
        np.testing.assert_array_equal(hub.flat, snap)

    def test_frozen_spoke_rejected(self, tiny_world):
        # only the hub is ever frozen; a spoke marked frozen would otherwise train as usual
        archs = tiny_archs(tiny_world)
        state = init_train_state(tiny_world, archs, quick_config())
        state.encoders["beta"] = dataclasses.replace(state.encoders["beta"], frozen=True)
        with pytest.raises(TrainerError, match=r"encoders 'beta': \{.*'frozen': True\} in the "
                           r"state, \{.*'frozen': False\} in the run$"):
            train_run(tiny_world, archs, quick_config(), state=state)

    def test_trainer_never_sees_labels(self, tiny_world, monkeypatch):
        seen = []
        orig = trainer_mod.sample_training_batch

        def spy(world, spoke, n, rng, aligned=True):
            pair = orig(world, spoke, n, rng, aligned=aligned)
            seen.append(pair)
            return pair

        monkeypatch.setattr(trainer_mod, "sample_training_batch", spy)
        train_run(tiny_world, tiny_archs(tiny_world), quick_config(epochs=1))
        assert seen
        for pair in seen:
            assert not hasattr(pair, "class_labels")
            assert not hasattr(pair, "latents")

    def test_batches_are_consecutive_pool_rows_that_wrap(self, tiny_world, monkeypatch):
        # pools of 12 samples for batches of 8: a pair's batches start at rows 0, 8, 4, 0, ...,
        # and the one at 8 wraps around to rows 0-3
        pools, encoded = [], []
        sample, encode = trainer_mod.sample_training_batch, trainer_mod.encode

        def sample_spy(world, spoke, n, rng, aligned=True):
            pools.append(sample(world, spoke, n, rng, aligned=aligned))
            return pools[-1]

        def encode_spy(params, obs):
            encoded.append(np.array(obs))
            return encode(params, obs)

        monkeypatch.setattr(trainer_mod, "sample_training_batch", sample_spy)
        monkeypatch.setattr(trainer_mod, "encode", encode_spy)
        cfg = quick_config(pairs=[PairConfig(spoke="alpha", batch_size=8, replication_factor=2),
                                  PairConfig(spoke="beta", batch_size=8, replication_factor=2)])
        train_run(tiny_world, tiny_archs(tiny_world), cfg)
        assert [pool.hub_obs.shape[0] for pool in pools] == [12, 12]
        assert len(encoded) == 2 * 12
        for t in range(12):
            rows = [((t // 2) * 8 + j) % 12 for j in range(8)]
            pool = pools[t % 2]
            np.testing.assert_array_equal(encoded[2 * t], pool.hub_obs[rows])
            np.testing.assert_array_equal(encoded[2 * t + 1], pool.spoke_obs[rows])

    def test_divergence_aborts_with_step_index(self, tiny_world, monkeypatch):
        def bad_loss(q, k, temp):
            return LossOutput(
                loss=float("nan"),
                grad_q=np.zeros_like(q),
                grad_k=np.zeros_like(k),
                grad_log_tau=0.0,
            )

        monkeypatch.setattr(trainer_mod, "symmetric_info_nce", bad_loss)
        with pytest.raises(TrainerError) as err:
            train_run(tiny_world, tiny_archs(tiny_world), quick_config())
        assert "step 0" in str(err.value)

    def test_learnable_tau_moves(self, tiny_world):
        cfg = quick_config(epochs=3, steps_per_epoch=8)
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), cfg)
        for pair in cfg.pairs:
            tau = state.temperatures[pair.spoke].tau
            assert tau != pytest.approx(0.07, abs=1e-12)
            assert 0.01 <= tau <= 5.0

    def test_fixed_tau_never_moves(self, tiny_world):
        pairs = [
            PairConfig(spoke="alpha", batch_size=8, temperature=TemperatureParam("fixed", 0.2)),
            PairConfig(spoke="beta", batch_size=8, temperature=TemperatureParam("fixed", 0.2)),
        ]
        cfg = quick_config(pairs=pairs)
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), cfg)
        assert state.temperatures["alpha"].tau == 0.2
        assert state.temperatures["beta"].tau == 0.2

    def test_shared_temperature_is_single_object(self, tiny_world):
        cfg = quick_config(shared_temperature=True)
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), cfg)
        assert state.temperatures["alpha"] is state.temperatures["beta"]

    def test_shared_temperature_over_unequal_temperatures_rejected(self):
        pairs = [
            PairConfig(spoke="alpha", batch_size=8),
            PairConfig(spoke="beta", batch_size=8, temperature=TemperatureParam("fixed", 0.2)),
        ]
        with pytest.raises(TrainerError, match="shared_temperature needs equal temperatures"):
            quick_config(pairs=pairs, shared_temperature=True)

    def test_shared_temperature_over_equal_temperatures_trains_that_temperature(self, tiny_world):
        pairs = [
            PairConfig(spoke=s, batch_size=8, temperature=TemperatureParam("fixed", 0.2))
            for s in ("alpha", "beta")
        ]
        cfg = quick_config(pairs=pairs, shared_temperature=True)
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), cfg)
        assert state.temperatures["alpha"] is state.temperatures["beta"]
        assert state.temperatures["alpha"] == TemperatureParam("fixed", 0.2)

    def test_mismatched_arch_rejected(self, tiny_world):
        archs = tiny_archs(tiny_world)
        archs["alpha"] = EncoderArch(input_dim=99, hidden_widths=(8,), embed_dim=6)
        with pytest.raises(TrainerError):
            init_train_state(tiny_world, archs, quick_config())

    def test_unknown_spoke_rejected(self, tiny_world):
        cfg = quick_config(pairs=[PairConfig(spoke="gamma", batch_size=8)])
        with pytest.raises(Exception):
            train_run(tiny_world, tiny_archs(tiny_world), cfg)

    def test_embed_dim_mismatch_rejected(self, tiny_world):
        archs = tiny_archs(tiny_world)
        archs["beta"] = EncoderArch(
            input_dim=tiny_world.observer("beta").obs_dim, hidden_widths=(8,), embed_dim=7
        )
        with pytest.raises(TrainerError):
            init_train_state(tiny_world, archs, quick_config())


# -- one training step against a loop oracle ---------------------------------


def encoder_layers(arch, flat):
    """(W, b, gelu) of every layer of `arch`, sliced from a flat parameter list."""
    layers, pos = [], 0
    for in_dim, out_dim, act in arch.layer_plan():
        weights = [flat[pos + o * in_dim : pos + (o + 1) * in_dim] for o in range(out_dim)]
        pos += out_dim * in_dim
        layers.append((weights, flat[pos : pos + out_dim], act is not None))
        pos += out_dim
    return layers


def reference_state(state, cfg):
    """Plain-list copies of what a step updates: {"p", "m", "v", "t"} per encoder and per
    temperature key, the log-temperature as a one-element "p"."""
    def entry(params, mom):
        return {"p": list(map(float, params)), "m": mom.m_flat.tolist(), "v": mom.v_flat.tolist(),
                "t": mom.t}

    keys = ["__shared__"] if cfg.shared_temperature else [pc.spoke for pc in cfg.pairs]
    return {
        "enc": {name: entry(enc.flat, state.moments[name]) for name, enc in state.encoders.items()},
        "tau": {key: entry([state.temperatures[pc.spoke].log_tau], state.tau_moments[key])
                for key, pc in zip(keys, cfg.pairs)},
    }


def oracle_step(ref, cfg, archs, pc, hub_obs, spoke_obs, lr):
    """One training step of pair `pc` on `ref`, by loops; returns (loss, tau, pre-clip norm)."""
    hub, spoke = ref["enc"]["hub"], ref["enc"][pc.spoke]
    hub_layers = encoder_layers(archs["hub"], hub["p"])
    spoke_layers = encoder_layers(archs[pc.spoke], spoke["p"])
    q, q_cache = encoder_forward_loops(hub_layers, hub_obs)
    k, k_cache = encoder_forward_loops(spoke_layers, spoke_obs)
    temp = ref["tau"]["__shared__" if cfg.shared_temperature else pc.spoke]
    learnable = pc.temperature.mode == "learnable"
    tau = math.exp(temp["p"][0]) if learnable else pc.temperature.value

    loss, grad_log_tau = 0.0, 0.0
    grad_q = [[0.0] * len(q[0]) for _ in q]
    grad_k = [[0.0] * len(k[0]) for _ in k]
    terms = []
    if pc.infonce_weight:
        l, gq, gk, gt = symmetric_info_nce_grads_loops(q, k, tau)
        terms.append((pc.infonce_weight, l, gq, gk))
        grad_log_tau = pc.infonce_weight * gt
    if pc.l2_weight:
        terms.append((pc.l2_weight, *l2_regression_grads_loops(q, k)))
    for w, l, gq, gk in terms:
        loss += w * l
        grad_q = [[a + w * b for a, b in zip(ra, rb)] for ra, rb in zip(grad_q, gq)]
        grad_k = [[a + w * b for a, b in zip(ra, rb)] for ra, rb in zip(grad_k, gk)]

    # what the step trains: the spoke, the hub unless frozen, the log-temperature when it
    # has a gradient; one clip over all of them; weight decay on the encoders only
    parts = [(spoke, encoder_backward_loops(spoke_layers, k_cache, grad_k), cfg.weight_decay)]
    if not cfg.hub_frozen:
        parts.append((hub, encoder_backward_loops(hub_layers, q_cache, grad_q), cfg.weight_decay))
    if learnable and pc.infonce_weight:
        parts.append((temp, [grad_log_tau], 0.0))
    norm = math.sqrt(sum(g * g for _, grads, _ in parts for g in grads))
    scale = min(1.0, cfg.grad_clip_norm / norm)
    for entry, grads, decay in parts:
        entry["t"] += 1
        for i, g in enumerate(grads):
            entry["p"][i], entry["m"][i], entry["v"][i] = adamw_scalar_step_loops(
                entry["p"][i], entry["m"][i], entry["v"][i], entry["t"], g * scale, lr,
                cfg.betas[0], cfg.betas[1], decay, cfg.adam_eps,
            )
    if learnable:
        bounds = math.log(pc.temperature.clamp_min), math.log(pc.temperature.clamp_max)
        temp["p"][0] = min(max(temp["p"][0], bounds[0]), bounds[1])
        tau = math.exp(temp["p"][0])
    return loss, tau, norm


def assert_matches_reference(state, ref, cfg):
    """Parameters, both moments and the update count of every encoder and temperature."""
    got = [(enc.flat, state.moments[name], ref["enc"][name]) for name, enc in state.encoders.items()]
    for key, want in ref["tau"].items():
        spoke = cfg.pairs[0].spoke if key == "__shared__" else key
        got.append((np.array([state.temperatures[spoke].log_tau]), state.tau_moments[key], want))
    for params, mom, want in got:
        np.testing.assert_allclose(params, want["p"], rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(mom.m_flat, want["m"], rtol=1e-8, atol=1e-15)
        np.testing.assert_allclose(mom.v_flat, want["v"], rtol=1e-8, atol=1e-18)
        assert mom.t == want["t"]


LOSS_WEIGHTS = {"infonce": (1.0, 0.0), "l2_only": (0.0, 1.0), "both": (0.8, 0.5)}
STEP_CASES = [
    pytest.param(hub_frozen, tau_mode, LOSS_WEIGHTS[loss], False,
                 id=f"{'hub_frozen' if hub_frozen else 'hub_trains'}-{tau_mode}-{loss}")
    for hub_frozen in (False, True) for tau_mode in ("fixed", "learnable") for loss in LOSS_WEIGHTS
] + [pytest.param(False, "learnable", LOSS_WEIGHTS["infonce"], True, id="shared_temperature")]


class TestTrainStep:
    @pytest.mark.parametrize("hub_frozen, tau_mode, weights, shared", STEP_CASES)
    def test_step_writes_what_the_oracle_computes(self, tiny_world, hub_frozen, tau_mode, weights,
                                                  shared):
        # three steps, alpha, beta, alpha, at the warming-up rates of the first three steps and
        # a clip norm every step exceeds; a wrongly scaled clip moves the parameters little
        # (Adam's first update is lr*g/(|g| + eps)), but shows in m and v
        pairs = [
            PairConfig(spoke=s, batch_size=8, temperature=TemperatureParam(mode=tau_mode),
                       infonce_weight=weights[0], l2_weight=weights[1])
            for s in ("alpha", "beta")
        ]
        cfg = quick_config(pairs=pairs, hub_frozen=hub_frozen, shared_temperature=shared,
                           grad_clip_norm=0.05)
        archs = tiny_archs(tiny_world)
        state = init_train_state(tiny_world, archs, cfg)
        ref = reference_state(state, cfg)
        grads = {name: dataclasses.replace(enc) for name, enc in state.encoders.items()}
        warmup_steps = cfg.warmup_epochs * cfg.steps_per_epoch
        for t, pc in enumerate([pairs[0], pairs[1], pairs[0]]):
            rng = tiny_world.stream(f"test/step/{t}")
            batch = sample_training_batch(tiny_world, pc.spoke, 8, rng)
            lr = cfg.learning_rate * (t + 1) / warmup_steps
            loss, tau, norm = oracle_step(ref, cfg, archs, pc, batch.hub_obs, batch.spoke_obs, lr)
            assert norm > cfg.grad_clip_norm
            trainer_mod._train_step(state, cfg, "hub", pc, batch.hub_obs, batch.spoke_obs, lr,
                                    grads)
            assert state.step == t + 1
            rec = state.loss_history[-1]
            assert (rec.step, rec.pair) == (t, pc.spoke)
            assert rec.loss == pytest.approx(loss, rel=1e-10)
            assert rec.tau == pytest.approx(tau, rel=1e-12)
            assert_matches_reference(state, ref, cfg)
        assert len(state.loss_history) == 3
        if shared:
            assert state.temperatures["alpha"] is state.temperatures["beta"]


def assert_resume_matches(world, tmp_path, cfg, rewrite=None):
    """Train cfg in one go, and again with a checkpoint after 5 steps; both must agree.

    `rewrite`, when given, edits the checkpoint document before it is loaded.
    Returns the resumed run's final state.
    """
    archs = tiny_archs(world)
    full, _ = train_run(world, archs, cfg)
    half, _ = train_run(world, archs, cfg, max_steps=5)
    path = tmp_path / "half.json"
    save_checkpoint(half, path)
    if rewrite is not None:
        doc = json.loads(path.read_text())
        rewrite(doc)
        path.write_text(json.dumps(doc))
    final, _ = train_run(world, archs, cfg, state=load_checkpoint(path))

    assert final.step == full.step
    for name in archs:
        np.testing.assert_array_equal(full.encoders[name].flat, final.encoders[name].flat)
        np.testing.assert_array_equal(full.moments[name].v_flat, final.moments[name].v_flat)
    for key, mom in full.tau_moments.items():
        np.testing.assert_array_equal(mom.m_flat, final.tau_moments[key].m_flat)
        assert mom.t == final.tau_moments[key].t
    assert full.loss_history == final.loss_history
    return final


def checkpoint_with(world, tmp_path, keys, bad):
    """A checkpoint after 2 steps whose document holds `bad` at the key path `keys`."""
    state, _ = train_run(world, tiny_archs(world), quick_config(), max_steps=2)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, path)
    doc = json.loads(path.read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = bad
    path.write_text(json.dumps(doc))
    return path


class TestCheckpointing:
    def test_round_trip_bit_exact(self, tiny_world, tmp_path):
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), quick_config())
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.step == state.step
        for name, enc in state.encoders.items():
            for a, b in zip(enc.arrays(), back.encoders[name].arrays()):
                np.testing.assert_array_equal(a, b)
        for name, temp in state.temperatures.items():
            assert to_doc(back.temperatures[name]) == to_doc(temp)
        assert [r.loss for r in back.loss_history] == [r.loss for r in state.loss_history]

    def test_loaded_arrays_are_views_of_flat_buffers(self, tiny_world, tmp_path):
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), quick_config(), max_steps=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        for name, enc in back.encoders.items():
            np.testing.assert_array_equal(enc.flat, state.encoders[name].flat)
            assert all(np.shares_memory(a, enc.flat) for a in enc.arrays())
            mom = back.moments[name]
            assert all(np.shares_memory(a, mom.m_flat) for a in mom.m)
            assert all(np.shares_memory(a, mom.v_flat) for a in mom.v)
            np.testing.assert_array_equal(mom.v_flat, state.moments[name].v_flat)

    def test_failed_write_keeps_the_old_checkpoint(self, tiny_world, tmp_path, monkeypatch):
        archs = tiny_archs(tiny_world)
        path = tmp_path / "ckpt.json"
        save_checkpoint(train_run(tiny_world, archs, quick_config(), max_steps=2)[0], path)
        old_bytes = path.read_bytes()
        newer, _ = train_run(tiny_world, archs, quick_config(), max_steps=4)
        real_write_text = Path.write_text

        def write_half_then_fail(self, text, *args, **kwargs):
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError):
            save_checkpoint(newer, path)
        monkeypatch.undo()
        assert path.read_bytes() == old_bytes
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
        save_checkpoint(newer, path)
        assert load_checkpoint(path).step == 4

    def test_non_finite_log_tau_rejected(self, tiny_world, tmp_path):
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), quick_config(), max_steps=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["temperatures"]["alpha"]["log_tau"] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(TrainerError, match="log_tau must be finite"):
            load_checkpoint(path)

    def test_resume_matches_uninterrupted_run(self, tiny_world, tmp_path):
        assert_resume_matches(tiny_world, tmp_path, quick_config(epochs=2, steps_per_epoch=5))

    def test_resume_with_shared_temperature_matches_uninterrupted_run(self, tiny_world, tmp_path):
        cfg = quick_config(epochs=2, steps_per_epoch=6, shared_temperature=True)
        final = assert_resume_matches(tiny_world, tmp_path, cfg)
        assert final.temperatures["alpha"] is final.temperatures["beta"]

    def test_resume_of_format_1_matches_uninterrupted_run(self, tiny_world, tmp_path):
        def to_format_1(doc):
            doc["version"] = 1
            doc["tau_moments"] = {
                key: {"m": d["m"][0][0], "v": d["v"][0][0], "t": d["t"]}
                for key, d in doc["tau_moments"].items()
            }

        cfg = quick_config(epochs=2, steps_per_epoch=5)
        assert_resume_matches(tiny_world, tmp_path, cfg, rewrite=to_format_1)

    def test_format_1_non_finite_tau_moment_rejected(self, tiny_world, tmp_path):
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), quick_config(), max_steps=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["version"] = 1
        doc["tau_moments"] = {
            "alpha": {"m": float("nan"), "v": 0.5, "t": 1},
            "beta": {"m": 0.25, "v": 0.5, "t": 1},
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(TrainerError, match="non-finite"):
            load_checkpoint(path)

    def test_shared_temperature_resume_rejects_unequal_temperatures(self, tiny_world, tmp_path):
        archs = tiny_archs(tiny_world)
        cfg = quick_config(shared_temperature=True)
        state, _ = train_run(tiny_world, archs, cfg, max_steps=4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["temperatures"]["beta"]["log_tau"] += 0.125
        path.write_text(json.dumps(doc))
        with pytest.raises(TrainerError, match="shared_temperature"):
            train_run(tiny_world, archs, cfg, state=load_checkpoint(path))

    @pytest.mark.parametrize(
        "shared, part, key",
        [
            (False, "tau_moments", "beta"),
            (False, "temperatures", "beta"),
            (True, "tau_moments", "__shared__"),
        ],
    )
    def test_resume_without_temperature_state_of_a_pair_rejected(self, tmp_path, shared, part, key):
        doc = small_config_document()
        doc["train"]["shared_temperature"] = shared
        cfg = parse_experiment_config(doc)
        world = make_world(cfg.world, cfg.seed)
        state, _ = train_run(world, cfg.archs, cfg.train, max_steps=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        ckpt = json.loads(path.read_text())
        del ckpt[part][key]
        path.write_text(json.dumps(ckpt))
        part = {"temperatures": "temperatures", "tau_moments": "temperature moments"}[part]
        with pytest.raises(TrainerError, match=f"run: {part} '{key}': missing in the state"):
            train_run(world, cfg.archs, cfg.train, state=load_checkpoint(path))

    def test_resume_with_a_pair_spoke_missing_from_the_archs_names_it(self):
        # a library resume meets the layout rules a fresh state meets in init_train_state,
        # so a pair whose spoke has no arch is a TrainerError, not a KeyError of the step
        cfg = parse_experiment_config(small_config_document())
        world = make_world(cfg.world, cfg.seed)
        state = init_train_state(world, cfg.archs, cfg.train)
        del state.encoders["beta"], state.moments["beta"]
        archs = {name: arch for name, arch in cfg.archs.items() if name != "beta"}
        with pytest.raises(TrainerError, match="missing arch for modality 'beta'"):
            train_run(world, archs, cfg.train, state=state)

    @pytest.mark.parametrize("edit", ["drop beta", "drop hub", "add gamma"])
    def test_moments_must_cover_exactly_the_encoders(self, tiny_world, tmp_path, edit):
        archs = tiny_archs(tiny_world)
        state, _ = train_run(tiny_world, archs, quick_config(), max_steps=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        action, name = edit.split()
        if action == "drop":
            del doc["moments"][name]
        else:
            doc["moments"][name] = doc["moments"]["alpha"]
        path.write_text(json.dumps(doc))
        # a resume would otherwise die on a bare KeyError at the first step of that encoder
        with pytest.raises(TrainerError, match="corrupt checkpoint: moments for"):
            train_run(tiny_world, archs, quick_config(), state=load_checkpoint(path))

    def test_resume_arch_mismatch_rejected(self, tiny_world):
        archs = tiny_archs(tiny_world)
        state, _ = train_run(tiny_world, archs, quick_config(), max_steps=2)
        other = dict(archs)
        other["alpha"] = EncoderArch(
            input_dim=tiny_world.observer("alpha").obs_dim, hidden_widths=(16,), embed_dim=6
        )
        with pytest.raises(TrainerError):
            train_run(tiny_world, other, quick_config(), state=state)

    def test_extra_keys_come_back_beside_the_state(self, tiny_world, tmp_path):
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), quick_config(), max_steps=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, extra={"config_hash": "abc", "seed": 11})
        assert load_checkpoint(path).extra == {"config_hash": "abc", "seed": 11}

    @pytest.mark.parametrize(
        "keys, bad",
        [
            (("encoders", "alpha", "weights", 0, 0, 0), float("nan")),
            (("encoders", "hub", "biases", 0, 0), float("inf")),
            (("moments", "beta", "v", 0, 0, 0), float("nan")),
            (("tau_moments", "alpha", "m", 0, 0), float("-inf")),
            (("loss_history", 0, 2), float("nan")),
            (("loss_history", 1, 3), float("inf")),
        ],
    )
    def test_non_finite_numbers_rejected(self, tiny_world, tmp_path, keys, bad):
        path = checkpoint_with(tiny_world, tmp_path, keys, bad)
        with pytest.raises(TrainerError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "keys, bad",
        [
            (("step",), True),
            (("step",), -5),
            (("step",), "9"),
            (("step",), 2.0),
            (("loss_history", 0, 2), "x"),
            (("loss_history", 0, 0), False),
            (("loss_history", 0, 1), 7),
            (("loss_history", 0), [0, "alpha", 1.0]),
            (("tau_moments", "alpha", "m"), [[0.0, 0.0]]),
            # a run compares seed and config_hash with !=, where true == 1 and 0.0 == 0
            (("seed",), True),
            (("seed",), 0.0),
            (("seed",), -1),
            (("seed",), 2**32),
            (("seed",), "0"),
            (("config_hash",), 0),
            (("config_hash",), None),
        ],
    )
    def test_malformed_step_history_and_tau_moments_rejected(self, tiny_world, tmp_path, keys, bad):
        path = checkpoint_with(tiny_world, tmp_path, keys, bad)
        with pytest.raises(TrainerError, match="corrupt checkpoint"):
            load_checkpoint(path)

    def test_integer_loss_in_history_loads_as_float(self, tiny_world, tmp_path):
        back = load_checkpoint(checkpoint_with(tiny_world, tmp_path, ("loss_history", 1, 2), 3))
        assert back.loss_history[1].loss == 3.0 and type(back.loss_history[1].loss) is float

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(TrainerError):
            load_checkpoint(path)

    def test_nesting_too_deep_for_json_rejected(self, tmp_path):
        # json.loads raises RecursionError, not JSONDecodeError, past its depth limit
        path = tmp_path / "ckpt.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(TrainerError, match="corrupt checkpoint: maximum recursion depth"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tiny_world, tmp_path):
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), quick_config(), max_steps=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        # the version is an exact integer: JSON 2.0 and true compare equal to 2 and 1
        for version in (999, 2.0, 1.0, True, "2", None):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(TrainerError, match="unsupported checkpoint version"):
                load_checkpoint(path)

    def test_header_seed_and_config_hash_land_in_extra(self, tiny_world, tmp_path):
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), quick_config(), max_steps=2)
        path = tmp_path / "ckpt.json"
        for extra in ({"seed": 0, "config_hash": ""}, {"seed": 2**32 - 1, "config_hash": "beef"}):
            save_checkpoint(state, path, extra=extra)
            assert load_checkpoint(path).extra == extra

    def test_training_log_is_stable(self, tiny_world, tmp_path):
        state, _ = train_run(tiny_world, tiny_archs(tiny_world), quick_config())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_training_log(state, a, config_hash="beef")
        write_training_log(state, b, config_hash="beef")
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("# config_hash=beef\n")
        assert "step,pair,loss,tau" in text


def _set_temperature(doc, i, **temperature):
    doc["train"]["pairs"][i]["temperature"] = temperature


def _freeze(name):
    def mutate(state):
        state.encoders[name] = dataclasses.replace(state.encoders[name], frozen=True)
    return mutate


def _retemper(**settings):
    def mutate(state):
        state.temperatures["alpha"] = dataclasses.replace(state.temperatures["alpha"], **settings)
    return mutate


def _shared_moments(state):
    state.tau_moments = {"__shared__": state.tau_moments["alpha"]}


# (id, edit of the run's config document, edit of a fresh state of small_config_document(),
# the (part, key) pairs where that state then differs from the run, worked out by hand)
RESUME_CASES = [
    ("drop encoder", None, lambda s: s.encoders.pop("beta"), [("encoders", "beta")]),
    ("add encoder", None, lambda s: s.encoders.update(gamma=s.encoders["alpha"]),
     [("encoders", "gamma")]),
    ("change arch", None,
     lambda s: s.encoders.update(alpha=init_encoder(EncoderArch(5, (16,), 6), 0)),
     [("encoders", "alpha")]),
    ("freeze spoke", None, _freeze("alpha"), [("encoders", "alpha")]),
    ("frozen hub, trained-hub run", None, _freeze("hub"), [("encoders", "hub")]),
    ("trained hub, frozen-hub run", lambda d: d["train"].update(hub_frozen=True), None,
     [("encoders", "hub")]),
    ("drop moments", None, lambda s: s.moments.pop("hub"), [("moments", "hub")]),
    ("temperature mode", None, _retemper(mode="fixed"), [("temperatures", "alpha")]),
    ("temperature value", lambda d: _set_temperature(d, 0, mode="learnable", value=0.5), None,
     [("temperatures", "alpha")]),
    ("fixed temperature of a learnable run",
     lambda d: _set_temperature(d, 1, mode="fixed", value=0.5), None, [("temperatures", "beta")]),
    ("temperature clamp", None, _retemper(clamp_min=0.02), [("temperatures", "alpha")]),
    ("drop temperature", None, lambda s: s.temperatures.pop("beta"), [("temperatures", "beta")]),
    ("drop tau moments", None, lambda s: s.tau_moments.pop("alpha"),
     [("temperature moments", "alpha")]),
    ("pair the run does not train", lambda d: d["train"]["pairs"].pop(), None,
     [("temperatures", "beta"), ("temperature moments", "beta")]),
    ("per-pair moments, shared run", lambda d: d["train"].update(shared_temperature=True), None,
     [("temperature moments", "__shared__"), ("temperature moments", "alpha"),
      ("temperature moments", "beta")]),
    ("shared moments, per-pair run", None, _shared_moments,
     [("temperature moments", "__shared__"), ("temperature moments", "alpha"),
      ("temperature moments", "beta")]),
]


class TestCheckResume:
    """check_resume against `resume_mismatches_loops`, which writes out from the TrainConfig
    alone what a state must hold to continue a run."""

    @staticmethod
    def run_of(edit=None):
        doc = small_config_document()
        if edit is not None:
            edit(doc)
        cfg = parse_experiment_config(doc)
        return make_world(cfg.world, cfg.seed), cfg

    @pytest.mark.parametrize("edit_run, mutate, want", [c[1:] for c in RESUME_CASES],
                             ids=[c[0] for c in RESUME_CASES])
    def test_state_that_differs_from_the_run_names_each_part_and_key(self, edit_run, mutate, want):
        world, cfg = self.run_of()
        state = init_train_state(world, cfg.archs, cfg.train)
        if mutate is not None:
            mutate(state)
        _, run = self.run_of(edit_run)
        assert resume_mismatches_loops(state, world.hub, run.archs, run.train) == want
        with pytest.raises(TrainerError) as err:
            check_resume(state, world, run.archs, run.train)
        # the message names the first part that differs, then each differing key of it
        part = want[0][0]
        prefix = f"state does not fit the run: {part} "
        message = str(err.value)
        assert message.startswith(prefix)
        keys = re.findall(r"(?:^|; )'(\w+)': ", message.removeprefix(prefix))
        assert keys == [key for p, key in want if p == part]

    @pytest.mark.parametrize("edit_run", [
        None,
        lambda d: d["train"].update(hub_frozen=True),
        lambda d: d["train"].update(shared_temperature=True),
        lambda d: _set_temperature(d, 0, mode="fixed", value=0.5, clamp_min=0.02),
    ], ids=["base", "hub_frozen", "shared_temperature", "fixed clamped tau"])
    def test_fresh_and_reloaded_states_continue_their_run(self, tmp_path, edit_run):
        world, cfg = self.run_of(edit_run)
        fresh = init_train_state(world, cfg.archs, cfg.train)
        trained, _ = train_run(world, cfg.archs, cfg.train, max_steps=3)
        save_checkpoint(trained, tmp_path / "ckpt.json")
        for state in (fresh, load_checkpoint(tmp_path / "ckpt.json")):
            assert resume_mismatches_loops(state, world.hub, cfg.archs, cfg.train) == []
            check_resume(state, world, cfg.archs, cfg.train)

    def test_unequal_shared_temperatures_rejected(self):
        world, cfg = self.run_of(lambda d: d["train"].update(shared_temperature=True))
        state = init_train_state(world, cfg.archs, cfg.train)
        beta = state.temperatures["beta"]
        state.temperatures["beta"] = dataclasses.replace(beta, log_tau=beta.log_tau + 0.125)
        # the settings agree, so only the value rule speaks
        assert resume_mismatches_loops(state, world.hub, cfg.archs, cfg.train) == []
        with pytest.raises(TrainerError, match="shared_temperature needs equal temperatures"):
            check_resume(state, world, cfg.archs, cfg.train)

    @pytest.mark.parametrize("first, then, part", [
        (None, lambda d: d["train"].update(hub_frozen=True), "encoders 'hub'"),
        (lambda d: d["train"].update(hub_frozen=True), None, "encoders 'hub'"),
        (None, lambda d: _set_temperature(d, 0, mode="fixed", value=0.5), "temperatures 'alpha'"),
    ], ids=["freeze a trained hub", "thaw a frozen hub", "fix a learnable tau"])
    def test_library_resume_under_another_config_rejected(self, first, then, part):
        # train_run resumes through check_resume; each of these once trained on silently
        world, cfg = self.run_of(first)
        state, _ = train_run(world, cfg.archs, cfg.train, max_steps=2)
        _, run = self.run_of(then)
        with pytest.raises(TrainerError, match=f"fit the run: {part}: "):
            train_run(world, run.archs, run.train, state=state)
        assert state.step == 2


class TestSummary:
    def test_summary_fields(self, tiny_world):
        cfg = quick_config()
        state, summary = train_run(tiny_world, tiny_archs(tiny_world), cfg)
        assert summary["steps"] == cfg.epochs * cfg.steps_per_epoch
        for pair in ("alpha", "beta"):
            info = summary["pairs"][pair]
            assert set(info) >= {"first_epoch_mean_loss", "last_epoch_mean_loss", "final_tau"}
        same = train_summary(state, cfg)
        assert same == summary

    def test_epoch_means_follow_the_epochs_when_pairs_split_them_unevenly(self):
        # 5 steps per epoch over 2 pairs: alpha trains steps 0, 2, 4 of epoch 0, beta 1, 3
        doc = small_config_document()
        doc["train"].update(steps_per_epoch=5, epochs=3)
        cfg = parse_experiment_config(doc)
        state, summary = train_run(make_world(cfg.world, cfg.seed), cfg.archs, cfg.train)
        for pair in ("alpha", "beta"):
            by_epoch = {}
            for r in state.loss_history:
                if r.pair == pair:
                    by_epoch.setdefault(r.step // 5, []).append(r.loss)
            first, last = by_epoch[min(by_epoch)], by_epoch[max(by_epoch)]
            assert len(first) == (3 if pair == "alpha" else 2)
            info = summary["pairs"][pair]
            assert info["first_epoch_mean_loss"] == pytest.approx(math.fsum(first) / len(first), rel=1e-12)
            assert info["last_epoch_mean_loss"] == pytest.approx(math.fsum(last) / len(last), rel=1e-12)


# -- load_checkpoint under corrupted input -----------------------------------


@pytest.fixture(scope="module")
def fuzz_space(tmp_path_factory):
    """A directory to write checkpoint variants to, and the text of a 2-step checkpoint."""
    cfg = parse_experiment_config(small_config_document())
    state, _ = train_run(make_world(cfg.world, cfg.seed), cfg.archs, cfg.train, max_steps=2)
    root = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(state, root / "base.json")
    return root, (root / "base.json").read_text()


def is_matrix(value):
    """A list of at least two rows of numbers (a weight matrix or its moments)."""
    return (isinstance(value, list) and len(value) >= 2
            and all(isinstance(r, list) and r and all(map(is_number, r)) for r in value))


def under_state_arrays(path):
    return bool(path) and path[0] in ("encoders", "moments", "tau_moments")


def load_fails(root, text):
    path = root / "variant.json"
    path.write_text(text)
    with pytest.raises(TrainerError):
        load_checkpoint(path)


class TestLoadCheckpointFuzz:
    """Every corrupted checkpoint fails with TrainerError: no other exception, and no load."""

    def test_base_checkpoint_loads(self, fuzz_space):
        root, text = fuzz_space
        (root / "same.json").write_text(text)
        assert load_checkpoint(root / "same.json").step == 2

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_json(self, fuzz_space, data):
        root, text = fuzz_space
        load_fails(root, text[: data.draw(st.integers(0, len(text) - 1))])

    @given(data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf, True, False]))
    @settings(max_examples=150, deadline=None)
    def test_non_finite_or_bool_number(self, fuzz_space, data, bad):
        root, text = fuzz_space
        doc = json.loads(text)
        numbers = [p for p, v in doc_nodes(doc) if is_number(v)]
        set_at(doc, data.draw(st.sampled_from(numbers)), bad)
        load_fails(root, json.dumps(doc))

    @given(data=st.data(), grow=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_wrong_shape(self, fuzz_space, data, grow):
        # one entry more or fewer in a list of the state's arrays, in an array, or in
        # a loss_history row (the history itself may have any length)
        root, text = fuzz_space
        doc = json.loads(text)
        lists = [p for p, v in doc_nodes(doc) if isinstance(v, list) and v
                 and (under_state_arrays(p) or p[:1] == ("loss_history",) and len(p) == 2)]
        resize(node_at(doc, data.draw(st.sampled_from(lists))), grow)
        load_fails(root, json.dumps(doc))

    @given(data=st.data(), grow=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_ragged_rows(self, fuzz_space, data, grow):
        root, text = fuzz_space
        doc = json.loads(text)
        matrices = [p for p, v in doc_nodes(doc)
                    if under_state_arrays(p) and isinstance(p[-1], int) and is_matrix(v)]
        matrix = node_at(doc, data.draw(st.sampled_from(matrices)))
        resize(matrix[data.draw(st.integers(0, len(matrix) - 1))], grow)
        load_fails(root, json.dumps(doc))

    @given(data=st.data(), byte=st.integers(0x80, 0xFF))
    @settings(max_examples=60, deadline=None)
    def test_byte_outside_ascii(self, fuzz_space, data, byte):
        # the checkpoint is ASCII, where a lone byte of 0x80-0xFF is never valid UTF-8
        root, text = fuzz_space
        raw = bytearray(text.encode("ascii"))
        raw[data.draw(st.integers(0, len(raw) - 1))] = byte
        path = root / "variant.json"
        path.write_bytes(bytes(raw))
        with pytest.raises(TrainerError, match="corrupt checkpoint"):
            load_checkpoint(path)

    @given(data=st.data(), key=st.text(min_size=1, max_size=8),
           value=st.one_of(st.none(), st.integers(), st.text(max_size=4)))
    @settings(max_examples=100, deadline=None)
    def test_unknown_key(self, fuzz_space, data, key, value):
        # keys beside the state land in `extra`; inside it, every object has a fixed schema
        root, text = fuzz_space
        doc = json.loads(text)
        objects = [p for p, v in doc_nodes(doc) if p and isinstance(v, dict)]
        target = node_at(doc, data.draw(st.sampled_from(objects)))
        if key in target:
            key += "_unknown"
        target[key] = value
        load_fails(root, json.dumps(doc))
