"""Tests for the per-modality MLP encoders and their hand-written backward pass."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import modbind.encoders as encoders_mod
from modbind.cli import main
from modbind.codec import from_doc, to_doc
from modbind.config import parse_experiment_config
from modbind.encoders import (
    EncoderArch,
    EncoderParams,
    embed,
    encode,
    encode_backward,
    init_encoder,
)
from modbind.evaluation import EvalPlan, run_eval_plan
from modbind.numerics import (
    NumericsError,
    block_rows,
    l2_normalize_rows,
    l2_normalize_rows_backward,
)
from modbind.trainer import init_train_state, save_checkpoint
from modbind.world import make_world

from .conftest import encoder_from_vec, small_config_document
from .oracles import finite_difference_check

ARCHS = {
    "no_trunk_linear": EncoderArch(input_dim=6, hidden_widths=(), embed_dim=5, head="linear"),
    "hidden_linear": EncoderArch(input_dim=6, hidden_widths=(8,), embed_dim=5, head="linear"),
    "hidden_mlp": EncoderArch(input_dim=6, hidden_widths=(8,), embed_dim=5, head="mlp"),
    "two_hidden_linear": EncoderArch(input_dim=6, hidden_widths=(8, 7), embed_dim=5, head="linear"),
}


class TestArch:
    def test_layer_plan_shapes(self):
        plan = ARCHS["hidden_mlp"].layer_plan()
        assert [(i, o) for i, o, _ in plan] == [(6, 8), (8, 8), (8, 5)]
        assert plan[-1][2] is None

    def test_linear_head_plan(self):
        plan = ARCHS["no_trunk_linear"].layer_plan()
        assert plan == [(6, 5, None)]

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            EncoderArch(input_dim=0, hidden_widths=(), embed_dim=4)
        with pytest.raises(ValueError):
            EncoderArch(input_dim=4, hidden_widths=(0,), embed_dim=4)
        with pytest.raises(ValueError):
            EncoderArch(input_dim=4, hidden_widths=(), embed_dim=0)
        with pytest.raises(ValueError):
            EncoderArch(input_dim=4, hidden_widths=(), embed_dim=4, head="conv")
        for activation in ("relu", "tanh"):  # gelu is the only activation
            with pytest.raises(ValueError):
                EncoderArch(input_dim=4, hidden_widths=(), embed_dim=4, activation=activation)

    def test_dict_round_trip(self):
        arch = ARCHS["hidden_mlp"]
        assert from_doc(EncoderArch, to_doc(arch)) == arch

    def test_benchmark_kernel_pass_calls_the_activation_table(self):
        # perfbench/kernels.py times _ACTIVATIONS["gelu"] as forward(x) and
        # backward(x, upstream); a change to those signatures breaks it here
        path = Path(__file__).resolve().parents[1] / "perfbench" / "kernels.py"
        spec = importlib.util.spec_from_file_location("perfbench_kernels", path)
        kernels = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kernels)
        out = kernels.gelu_pass((4, 4), 0)
        assert sorted(out) == ["gelu_backward", "gelu_forward"]
        assert all(v["us"] > 0 for v in out.values())


class TestInit:
    def test_deterministic(self):
        a = init_encoder(ARCHS["hidden_mlp"], seed=3)
        b = init_encoder(ARCHS["hidden_mlp"], seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_seed_changes_weights(self):
        a = init_encoder(ARCHS["hidden_mlp"], seed=3)
        b = init_encoder(ARCHS["hidden_mlp"], seed=4)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_biases_zero(self):
        params = init_encoder(ARCHS["hidden_mlp"], seed=3)
        for b in params.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_uniform_fan_scaling(self):
        arch = EncoderArch(input_dim=256, hidden_widths=(256,), embed_dim=8)
        params = init_encoder(arch, seed=0)
        w = params.weights[0]
        bound = np.sqrt(6.0 / (256 + 256))
        assert np.abs(w).max() <= bound
        # uniform(-a, a) has variance a^2/3
        var = w.var()
        assert abs(var - bound**2 / 3.0) <= 0.2 * bound**2 / 3.0


class TestEncode:
    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_rows_unit_norm(self, rng, name):
        params = init_encoder(ARCHS[name], seed=1)
        emb, _ = encode(params, rng.standard_normal((7, 6)))
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-10)

    def test_identity_head_reproduces_normalized_input(self, rng):
        arch = EncoderArch(input_dim=5, hidden_widths=(), embed_dim=5, head="linear")
        params = EncoderParams(
            arch=arch, weights=[np.eye(5)], biases=[np.zeros(5)], frozen=False
        )
        x = rng.standard_normal((4, 5))
        emb, _ = encode(params, x)
        np.testing.assert_allclose(emb, l2_normalize_rows(x), atol=1e-12)

    def test_row_scale_invariance_without_bias(self, rng):
        arch = EncoderArch(input_dim=6, hidden_widths=(), embed_dim=5, head="linear")
        params = init_encoder(arch, seed=2)
        x = rng.standard_normal((3, 6))
        a, _ = encode(params, x)
        b, _ = encode(params, 2.0 * x)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_input_dim_mismatch_rejected(self, rng):
        params = init_encoder(ARCHS["hidden_linear"], seed=1)
        with pytest.raises(NumericsError):
            encode(params, rng.standard_normal((3, 7)))

    def test_deterministic(self, rng):
        params = init_encoder(ARCHS["hidden_mlp"], seed=1)
        x = rng.standard_normal((4, 6))
        a, _ = encode(params, x)
        b, _ = encode(params, x)
        np.testing.assert_array_equal(a, b)


class TestEmbed:
    """embed is encode's forward pass without the cache, in row blocks, bit for bit."""

    # desk's widths: the widest layer has 64 outputs, so blocks of 1024 rows
    WIDE = {
        head: EncoderArch(input_dim=20, hidden_widths=(64,), embed_dim=32, head=head)
        for head in ("linear", "mlp")
    }

    @pytest.fixture(params=sorted(WIDE))
    def params(self, request):
        params = init_encoder(self.WIDE[request.param], seed=4)
        params.flat[:] += np.random.default_rng(5).uniform(-0.1, 0.1, params.flat.shape)
        return params

    @pytest.mark.parametrize("rows", [1, 2, 37, 1025, 3 * 1024 + 7])
    def test_matches_encode(self, params, rows, rng):
        # 1025 rows in full blocks would leave a last block of one row, which this
        # BLAS rounds differently; 3079 rows span four blocks
        assert block_rows(64) == 1024
        x = rng.standard_normal((rows, 20))
        x[0] = 0.0  # a row whose norm is clamped at eps
        got = embed(params, x)
        assert got.shape == (rows, 32) and got.flags.c_contiguous
        assert np.array_equal(got, encode(params, x)[0])

    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_matches_encode_on_small_archs(self, rng, name):
        params = init_encoder(ARCHS[name], seed=1)
        x = rng.standard_normal((9, 6))
        assert np.array_equal(embed(params, x), encode(params, x)[0])

    def test_no_rows(self, params):
        assert embed(params, np.zeros((0, 20))).shape == (0, 32)

    @pytest.mark.parametrize("shape", [(3, 7), (20,), (2, 3, 20)])
    def test_input_dim_mismatch_raises_what_encode_raises(self, params, shape):
        x = np.zeros(shape)
        with pytest.raises(NumericsError) as from_encode:
            encode(params, x)
        with pytest.raises(NumericsError) as from_embed:
            embed(params, x)
        assert str(from_embed.value) == str(from_encode.value)


class TestEvaluationEncodesForwardOnly:
    """No evaluation path builds the training step's ForwardCache."""

    @pytest.fixture
    def no_cache(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a ForwardCache was built")

        monkeypatch.setattr(encoders_mod, "ForwardCache", refuse)

    def test_run_eval_plan_and_retrieve(self, no_cache, tmp_path):
        doc = small_config_document()
        cfg = parse_experiment_config(doc)
        world = make_world(cfg.world, cfg.seed)
        state = init_train_state(world, cfg.archs, cfg.train)
        with pytest.raises(AssertionError, match="ForwardCache"):
            encode(state.encoders["hub"], np.zeros((1, 6)))
        plan = EvalPlan(
            emergent_pairs=[("alpha", "beta")], retrieval_pairs=[("alpha", "beta")],
            k_list=[1, 5], few_shot_modality="alpha", few_shot_ks=[1, 2],
            arithmetic_pair=("alpha", "beta"), arithmetic_queries=10,
            ensemble_pair=("alpha", "beta"), ensemble_weights=[0.0, 0.5],
            n_per_class=5, prompts_per_class=4, retrieval_index_size=30, retrieval_k=5,
        )
        metrics = run_eval_plan(world, state, plan).metrics
        assert len(metrics) == 1 + 2 + 2 + 2 + 2

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(state, ckpt, extra={"config_hash": cfg.hash, "seed": cfg.seed})
        common = ["retrieve", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                  "--index-modality", "hub"]
        assert main(common + ["--query-modality", "alpha"]) == 0
        assert main(common + ["--compose", "alpha+beta"]) == 0
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 0


class TestBackward:
    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_gradient_matches_finite_difference(self, rng, name):
        arch = ARCHS[name]
        params = init_encoder(arch, seed=5)
        x = rng.standard_normal((4, 6))
        target = rng.standard_normal((4, 5))

        emb, cache = encode(params, x)
        grads = encode_backward(params, cache, target)
        grad_vec = np.concatenate([g.ravel() for g in grads.arrays()])

        def loss(v):
            e, _ = encode(encoder_from_vec(arch, v), x)
            return float(np.sum(e * target))

        report = finite_difference_check(loss, params.flat, grad_vec, eps=1e-5)
        assert report.max_rel_error <= 1e-4

    def test_zero_upstream_yields_zero_grads(self, rng):
        params = init_encoder(ARCHS["hidden_mlp"], seed=5)
        x = rng.standard_normal((4, 6))
        _, cache = encode(params, x)
        grads = encode_backward(params, cache, np.zeros((4, 5)))
        for g in grads.arrays():
            np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_upstream_shape_mismatch_rejected(self, rng):
        params = init_encoder(ARCHS["hidden_mlp"], seed=5)
        x = rng.standard_normal((4, 6))
        _, cache = encode(params, x)
        with pytest.raises(NumericsError):
            encode_backward(params, cache, rng.standard_normal((4, 7)))

    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_reused_buffer_is_bit_identical_to_a_fresh_one(self, rng, name):
        # two backward passes in a row into one buffer, the first leaving stale values;
        # row 0 is zero, so its embedding norm is below eps and takes the clamped branch
        params = init_encoder(ARCHS[name], seed=5)
        buffer = init_encoder(ARCHS[name], seed=6)
        buffer.flat[:] = np.nan
        for _ in range(2):
            x = rng.standard_normal((4, 6))
            x[0] = 0.0
            _, cache = encode(params, x)
            assert cache.norms[0, 0] < 1e-12 <= cache.norms[1:].min()
            upstream = rng.standard_normal((4, 5))
            assert encode_backward(params, cache, upstream, buffer) is buffer
            fresh = encode_backward(params, cache, upstream)
            assert buffer.flat.tobytes() == fresh.flat.tobytes()
            assert_packed(buffer.flat, buffer.arrays(), params.arch)

    def test_cached_norms_are_bit_identical_to_recomputed_ones(self, rng):
        params = init_encoder(ARCHS["hidden_mlp"], seed=5)
        x = rng.standard_normal((4, 6))
        x[0] = 0.0
        emb, cache = encode(params, x)
        upstream = rng.standard_normal((4, 5))
        pre_norm = cache.layers[-1][1]
        cached = l2_normalize_rows_backward(pre_norm, upstream, norms=cache.norms)
        recomputed = l2_normalize_rows_backward(pre_norm, upstream)
        assert cached.tobytes() == recomputed.tobytes()
        assert emb.tobytes() == l2_normalize_rows(pre_norm).tobytes()

    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_cached_tanh_is_bit_identical_to_a_recomputed_one(self, rng, name):
        # row 0 is zero, so its embedding norm is below eps and takes the clamped branch;
        # a cache without tanh has the backward pass recompute it
        params = init_encoder(ARCHS[name], seed=5)
        x = rng.standard_normal((4, 6))
        x[0] = 0.0
        emb, cache = encode(params, x)
        assert cache.norms[0, 0] < 1e-12 <= cache.norms[1:].min()
        activated = [act is not None for _, _, act in params.arch.layer_plan()]
        tanh = [t for _, _, t in cache.layers]
        assert [t is not None for t in tanh] == activated
        kept = [t.copy() for t in tanh if t is not None]
        recomputing = dataclasses.replace(
            cache, layers=[(h, pre, None) for h, pre, _ in cache.layers]
        )
        upstream = rng.standard_normal((4, 5))
        cached = encode_backward(params, cache, upstream)
        recomputed = encode_backward(params, recomputing, upstream)
        assert cached.flat.tobytes() == recomputed.flat.tobytes()
        assert [t.tobytes() for t in tanh if t is not None] == [t.tobytes() for t in kept]

    def test_buffer_of_another_arch_rejected(self, rng):
        params = init_encoder(ARCHS["hidden_mlp"], seed=5)
        _, cache = encode(params, rng.standard_normal((4, 6)))
        other = init_encoder(ARCHS["hidden_linear"], seed=5)
        with pytest.raises(NumericsError, match="gradient buffer"):
            encode_backward(params, cache, rng.standard_normal((4, 5)), other)

    def test_grads_share_the_params_layout(self, rng):
        params = init_encoder(ARCHS["hidden_mlp"], seed=5)
        _, cache = encode(params, rng.standard_normal((4, 6)))
        grads = encode_backward(params, cache, rng.standard_normal((4, 5)))
        assert_packed(grads.flat, grads.arrays(), params.arch)


def assert_packed(flat, arrays, arch):
    """`arrays` are views into `flat`, end to end, in the arch's W0, b0, W1, b1 order."""
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    assert [a.shape for a in arrays] == arch.param_shapes()
    assert all(np.shares_memory(a, flat) for a in arrays)
    np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]), flat)


class TestFlatLayout:
    def made_by(self, params):
        doc = to_doc(params)
        return {
            "init_encoder": params,
            "replace": dataclasses.replace(params, frozen=True),
            "from_doc": from_doc(EncoderParams, doc),
        }

    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_every_array_is_a_view_of_flat(self, name):
        params = init_encoder(ARCHS[name], seed=5)
        for p in self.made_by(params).values():
            assert_packed(p.flat, p.arrays(), p.arch)

    def test_copies_own_their_memory(self):
        params = init_encoder(ARCHS["hidden_mlp"], seed=5)
        for how, p in self.made_by(params).items():
            if how != "init_encoder":
                assert not np.shares_memory(p.flat, params.flat), how

    def test_writes_to_flat_show_in_the_arrays(self):
        params = init_encoder(ARCHS["hidden_linear"], seed=5)
        params.flat[:] = np.arange(params.flat.size)
        np.testing.assert_array_equal(params.weights[0].ravel(), np.arange(48))
        np.testing.assert_array_equal(params.biases[0], np.arange(48, 56))

    def test_shapes_must_match_the_arch(self):
        arch = ARCHS["hidden_linear"]
        good = init_encoder(arch, seed=5)
        with pytest.raises(ValueError):
            EncoderParams(arch=arch, weights=good.weights[::-1], biases=good.biases)
        with pytest.raises(ValueError):
            EncoderParams(arch=arch, weights=good.weights, biases=good.biases[:1])


class TestParamVector:
    def test_dict_round_trip_is_exact(self):
        params = init_encoder(ARCHS["hidden_mlp"], seed=5)
        back = from_doc(EncoderParams, to_doc(params))
        assert back.arch == params.arch
        assert back.frozen == params.frozen
        for a, b in zip(params.arrays(), back.arrays()):
            np.testing.assert_array_equal(a, b)
