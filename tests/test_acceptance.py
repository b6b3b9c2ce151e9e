"""Acceptance gate: ten criteria, one verdict line each.

Criteria 1-3 are exact-math checks against the loop oracles. Criteria 4-7 and
9 are behavioral claims on the bundled desk worlds, seed-averaged over seeds
0-4. Criterion 8 exercises the full ablation harness through the CLI and 10
repeats a whole pipeline to the byte. Every test appends a PASS/FAIL line
(with its tolerance and the measured values) that the terminal summary prints
even when the run is green. TestDeskTrends at the bottom adds two slower
seed-averaged trend checks that reuse the same trained runs; they carry no
verdict lines.
"""

import csv
import json
import math
import time
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from modbind.cli import main
from modbind.config import apply_axis, parse_experiment_config
from modbind.contrastive import TemperatureParam, info_nce, symmetric_info_nce
from modbind.encoders import EncoderArch, encode, encode_backward, init_encoder
from modbind.evaluation import (
    EvalPlan,
    RetrievalIndex,
    aligned_eval_items,
    composed_retrieval_stats,
    cross_modal_recall_at_k,
    emergent_zero_shot_accuracy,
    few_shot_probe,
    frozen_hub_eval,
    run_eval_plan,
)
from modbind.trainer import init_train_state, train_run
from modbind.world import make_eval_set, make_world

from .conftest import encoder_from_vec, pool_map
from .oracles import finite_difference_check, info_nce_loss_loops

SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="session")
def verdicts(request):
    store = getattr(request.config, "_acceptance_verdicts", None)
    if store is None:
        store = []
        request.config._acceptance_verdicts = store
    return store


def record(verdicts, num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    verdicts.append(line)
    assert ok, line


def load_bundled(name):
    text = resources.files("modbind").joinpath("configs", name).read_text()
    return parse_experiment_config(json.loads(text))


def binomial_band(p, n):
    sigma = math.sqrt(p * (1.0 - p) / n)
    return p - 3.0 * sigma, p + 3.0 * sigma


def desk_emergent(world, state, plan):
    return emergent_zero_shot_accuracy(
        world,
        state,
        "spoke1",
        "textlike",
        plan.n_per_class,
        stream="eval/emergent/spoke1_vs_textlike",
        prompts_per_class=plan.prompts_per_class,
    ).accuracy


def timed_train(cfg, world):
    """(trained state, seconds the training took)."""
    start = time.perf_counter()
    state, _ = train_run(world, cfg.archs, cfg.train)
    return state, time.perf_counter() - start


@pytest.fixture(scope="module")
def seed_runs():
    """(config, world, trained state, training seconds) over SEEDS, by bundled config.

    desk.json and desk_m1m2.json train their ten runs in one map on the
    shared pool: five rounds on two workers, where a map per config takes
    three rounds each.
    """
    names = ("desk.json", "desk_m1m2.json")
    cfgs = [load_bundled(name).with_seed(seed) for name in names for seed in SEEDS]
    jobs = [(cfg, make_world(cfg.world, cfg.seed)) for cfg in cfgs]
    trained = pool_map(lambda job: timed_train(*job), jobs)
    runs = [(*job, *result) for job, result in zip(jobs, trained)]
    return {name: runs[i * len(SEEDS) : (i + 1) * len(SEEDS)] for i, name in enumerate(names)}


@pytest.fixture(scope="module")
def desk_runs(seed_runs):
    return [
        SimpleNamespace(
            cfg=cfg,
            world=world,
            state=state,
            untrained=init_train_state(world, cfg.archs, cfg.train),
            train_seconds=train_seconds,
        )
        for cfg, world, state, train_seconds in seed_runs["desk.json"]
    ]


@pytest.fixture(scope="module")
def m1m2_runs(seed_runs):
    return [
        SimpleNamespace(cfg=cfg, world=world, state=state)
        for cfg, world, state, _ in seed_runs["desk_m1m2.json"]
    ]


def test_criterion_01_infonce_matches_loop_oracle(verdicts):
    taus = (0.05, 0.07, 0.2, 1.0)
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 17))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        tau = taus[i % len(taus)]
        got = info_nce(q, k, TemperatureParam(mode="fixed", value=tau)).loss
        want = info_nce_loss_loops(q.tolist(), k.tolist(), tau)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    record(
        verdicts,
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"info_nce vs loop oracle, 100 instances (n<=8, d<=16, tau in {taus}): "
        f"max |diff| {worst:.2e} (tol 1e-10), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_02_end_to_end_gradients_pass_finite_differences(verdicts):
    archs = {
        "no_trunk_linear": EncoderArch(input_dim=6, hidden_widths=(), embed_dim=8),
        "hidden_linear": EncoderArch(input_dim=6, hidden_widths=(5,), embed_dim=8),
        "hidden_mlp": EncoderArch(input_dim=6, hidden_widths=(5,), embed_dim=8, head="mlp"),
    }
    rng = np.random.default_rng(1)
    obs_q = rng.standard_normal((4, 6))
    obs_k = rng.standard_normal((4, 6))
    log_tau0 = math.log(0.07)
    start = time.perf_counter()
    worst = 0.0
    for arch in archs.values():
        p = init_encoder(arch, seed=2).flat.size
        vec0 = np.concatenate(
            [
                init_encoder(arch, seed=2).flat,
                init_encoder(arch, seed=3).flat,
                [log_tau0],
            ]
        )

        def loss_fn(vec, arch=arch, p=p):
            params_q = encoder_from_vec(arch, vec[:p])
            params_k = encoder_from_vec(arch, vec[p : 2 * p])
            lt = float(vec[2 * p])
            temp = TemperatureParam(mode="learnable", value=math.exp(lt), log_tau=lt)
            emb_q, _ = encode(params_q, obs_q)
            emb_k, _ = encode(params_k, obs_k)
            return symmetric_info_nce(emb_q, emb_k, temp).loss

        params_q = encoder_from_vec(arch, vec0[:p])
        params_k = encoder_from_vec(arch, vec0[p : 2 * p])
        temp = TemperatureParam(mode="learnable", value=0.07, log_tau=log_tau0)
        emb_q, cache_q = encode(params_q, obs_q)
        emb_k, cache_k = encode(params_k, obs_k)
        out = symmetric_info_nce(emb_q, emb_k, temp)
        grad_q = np.concatenate(
            [a.ravel() for a in encode_backward(params_q, cache_q, out.grad_q).arrays()]
        )
        grad_k = np.concatenate(
            [a.ravel() for a in encode_backward(params_k, cache_k, out.grad_k).arrays()]
        )
        analytic = np.concatenate([grad_q, grad_k, [out.grad_log_tau]])
        report = finite_difference_check(loss_fn, vec0, analytic)
        worst = max(worst, report.max_rel_error)
    elapsed = time.perf_counter() - start
    record(
        verdicts,
        2,
        worst <= 1e-4 and elapsed < 30.0,
        f"trunk+head+normalize+symmetric InfoNCE+log-tau finite differences, n=4 d=8, "
        f"3 archs: max rel err {worst:.2e} (tol 1e-4), {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_03_trivial_bounds(verdicts):
    rng = np.random.default_rng(2)
    single = rng.standard_normal((1, 5))
    single /= np.linalg.norm(single)
    loss_n1 = info_nce(single, single, TemperatureParam(mode="fixed", value=0.07)).loss
    eye = np.eye(3)
    got = info_nce(eye, eye, TemperatureParam(mode="fixed", value=1.0)).loss
    want = info_nce_loss_loops(eye.tolist(), eye.tolist(), 1.0)
    closed_form = -math.log(math.e / (math.e + 2.0))
    ok = (
        loss_n1 == 0.0
        and abs(got - want) <= 1e-12
        and abs(want - closed_form) <= 1e-12
    )
    record(
        verdicts,
        3,
        ok,
        f"n=1 loss {loss_n1!r} (exactly 0); n=3 orthonormal tau=1 loss {got:.15f} vs "
        f"oracle {want:.15f} = -log(e/(e+2)), |diff| {abs(got - want):.2e} (tol 1e-12)",
    )


def test_criterion_04_emergent_zero_shot_alignment(verdicts, desk_runs):
    plan = desk_runs[0].cfg.eval_plan
    trained = [desk_emergent(r.world, r.state, plan) for r in desk_runs]
    untrained = [desk_emergent(r.world, r.untrained, plan) for r in desk_runs]
    trained_mean = float(np.mean(trained))
    untrained_mean = float(np.mean(untrained))
    n = plan.n_per_class * desk_runs[0].world.num_classes
    lo, hi = binomial_band(0.10, n)
    slowest = max(r.train_seconds for r in desk_runs)
    ok = trained_mean >= 0.60 and lo <= untrained_mean <= hi and slowest < 120.0
    record(
        verdicts,
        4,
        ok,
        f"spoke1-vs-textlike zero-shot over seeds {SEEDS}: trained mean {trained_mean:.3f} "
        f"(threshold 0.60, chance 0.10); untrained mean {untrained_mean:.4f} in "
        f"[{lo:.4f}, {hi:.4f}] (3-sigma band, n={n}); slowest train {slowest:.1f}s "
        f"(limit 120s/seed)",
    )


def test_criterion_05_never_paired_retrieval(verdicts, m1m2_runs):
    plan = m1m2_runs[0].cfg.eval_plan
    n_items = plan.retrieval_index_size
    recalls = []
    shuffled = []
    for i, run in enumerate(m1m2_runs):
        rng = run.world.stream("eval/retrieval/spoke1_to_spoke2")
        obs, _ = aligned_eval_items(run.world, ["spoke1", "spoke2"], n_items, rng)
        index_emb, _ = encode(run.state.encoders["spoke2"], obs["spoke2"])
        query_emb, _ = encode(run.state.encoders["spoke1"], obs["spoke1"])
        rows = np.arange(n_items)
        index = RetrievalIndex(index_emb)
        recalls.append(cross_modal_recall_at_k(index, query_emb, rows, [10])[10])
        control_rows = np.random.default_rng(1000 + i).permutation(rows)
        shuffled.append(cross_modal_recall_at_k(index, query_emb, control_rows, [10])[10])
    recall_mean = float(np.mean(recalls))
    shuffled_mean = float(np.mean(shuffled))
    lo, hi = binomial_band(10 / n_items, n_items * len(SEEDS))
    ok = recall_mean >= 0.25 and lo <= shuffled_mean <= hi
    record(
        verdicts,
        5,
        ok,
        f"spoke1->spoke2 recall@10, N={n_items}, seeds {SEEDS}: mean {recall_mean:.3f} "
        f"(threshold 0.25, chance {10 / n_items:.3f}); shuffled-id control {shuffled_mean:.4f} "
        f"in [{lo:.4f}, {hi:.4f}] (3-sigma band, {n_items * len(SEEDS)} pooled queries)",
    )


def _inversions(values):
    """Adjacent decreases in a supposedly non-decreasing sequence."""
    return [values[i] - values[i + 1] for i in range(len(values) - 1) if values[i] > values[i + 1]]


def test_criterion_06_hub_capacity_trend(verdicts, desk_runs):
    base = load_bundled("desk.json")
    plan = base.eval_plan
    means = {64: float(np.mean([desk_emergent(r.world, r.state, plan) for r in desk_runs]))}

    def width_run(job):
        width, seed = job
        cfg = parse_experiment_config({**apply_axis(base.normalized, "hub_capacity", width), "seed": seed})
        world = make_world(cfg.world, cfg.seed)
        state, _ = train_run(world, cfg.archs, cfg.train)
        return desk_emergent(world, state, cfg.eval_plan)

    widths = (16, 256)
    accs = pool_map(width_run, [(width, seed) for width in widths for seed in SEEDS])
    for i, width in enumerate(widths):
        means[width] = float(np.mean(accs[i * len(SEEDS) : (i + 1) * len(SEEDS)]))
    sequence = [means[w] for w in (16, 64, 256)]
    drops = _inversions(sequence)
    ok = len(drops) <= 1 and all(d <= 0.01 for d in drops)
    record(
        verdicts,
        6,
        ok,
        f"hub width sweep (5-seed means): 16->{means[16]:.3f}, 64->{means[64]:.3f}, "
        f"256->{means[256]:.3f}; non-decreasing with at most one inversion <= 0.01 "
        f"(inversions: {[f'{d:.3f}' for d in drops]})",
    )


def desk_few_shot(world, state, plan, k):
    eval_set = make_eval_set(
        world, "spoke1", plan.n_per_class, world.stream("eval/few_shot/eval/spoke1")
    )
    eval_emb, _ = encode(state.encoders["spoke1"], eval_set.obs)
    shots = make_eval_set(world, "spoke1", k, world.stream(f"eval/few_shot/shots/spoke1/k={k}"))
    shot_emb, _ = encode(state.encoders["spoke1"], shots.obs)
    return few_shot_probe(shot_emb, shots.labels, eval_emb, eval_set.labels)


def test_criterion_07_few_shot_trend(verdicts, desk_runs):
    plan = desk_runs[0].cfg.eval_plan
    ks = plan.few_shot_ks
    trained = [
        float(np.mean([desk_few_shot(r.world, r.state, plan, k) for r in desk_runs])) for k in ks
    ]
    untrained = [
        float(np.mean([desk_few_shot(r.world, r.untrained, plan, k) for r in desk_runs]))
        for k in ks
    ]
    gaps = [t - u for t, u in zip(trained, untrained)]
    drops = _inversions(trained)
    ok = len(drops) <= 1 and all(d <= 0.01 for d in drops) and all(g >= 0.10 for g in gaps)
    record(
        verdicts,
        7,
        ok,
        f"spoke1 probe means over k={ks}: trained {[f'{v:.3f}' for v in trained]} "
        f"non-decreasing (<=1 inversion of <=0.01, got {[f'{d:.3f}' for d in drops]}); "
        f"margins over untrained probe {[f'{g:.3f}' for g in gaps]} (each >= 0.10)",
    )


def test_criterion_08_ablation_harness_completeness(verdicts, tmp_path):
    start = time.perf_counter()
    code = main(["ablate", "--config", "ablate_quick.json", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(tmp_path / "ablation_long.csv") as f:
        assert f.readline().startswith("# base_config_hash=")
        rows = list(csv.DictReader(f))
    grids = {}
    for row in rows:
        grids.setdefault(row["axis"], set()).add(row["value"])
    manifest = json.loads((tmp_path / "ablate_manifest.json").read_text())
    with open(tmp_path / "ablation_summary.csv") as f:
        assert f.readline().startswith("# base_config_hash=")
        summary_rows = list(csv.DictReader(f))
    summary_axes = {row["axis"] for row in summary_rows}
    expected_axes = {
        "temperature", "projection_head", "epochs", "batch_size",
        "hub_capacity", "noise_strength", "alignment", "loss_mix",
    }
    ok = (
        set(grids) == expected_axes
        and summary_axes == expected_axes
        and grids["temperature"] == {"learnable", "0.05", "0.07", "0.2", "1.0"}
        and grids["projection_head"] == {"linear", "mlp"}
        and grids["batch_size"] == {"8", "64", "256"}
        and manifest["failures"] == 0
        and all(math.isfinite(float(row["mean"])) for row in summary_rows)
        and elapsed < 1800.0
    )
    record(
        verdicts,
        8,
        ok,
        f"bind ablate ran {manifest['cells']} cells over all 8 axes "
        f"({manifest['failures']} failures); temperature grid {sorted(grids['temperature'])}, "
        f"projection {sorted(grids['projection_head'])}, batch {sorted(grids['batch_size'])}; "
        f"{elapsed:.1f}s (limit 1800s)",
    )


def test_criterion_09_arithmetic_composition(verdicts, m1m2_runs):
    plan = m1m2_runs[0].cfg.eval_plan
    both = []
    permuted = []
    for run in m1m2_runs:
        b, p = composed_retrieval_stats(
            run.world,
            run.state,
            "spoke1",
            "spoke2",
            plan.arithmetic_queries,
            plan.arithmetic_weight,
            plan.retrieval_k,
            plan.retrieval_index_size,
            "eval/arithmetic",
        )
        both.append(b)
        permuted.append(p)
    both_mean = float(np.mean(both))
    permuted_mean = float(np.mean(permuted))
    ok = permuted_mean > 0.0 and both_mean >= 2.0 * permuted_mean
    record(
        verdicts,
        9,
        ok,
        f"{plan.arithmetic_queries} composed spoke1+spoke2 queries at w={plan.arithmetic_weight}, "
        f"seeds {SEEDS}: both-class top-{plan.retrieval_k} fraction {both_mean:.3f} vs permuted "
        f"baseline {permuted_mean:.3f} (required >= 2x)",
    )


def test_criterion_10_determinism(verdicts):
    def pipeline():
        cfg = load_bundled("desk.json")
        world = make_world(cfg.world, cfg.seed)
        state, _ = train_run(world, cfg.archs, cfg.train)
        report = run_eval_plan(world, state, cfg.eval_plan, config_hash=cfg.hash, seed=cfg.seed)
        return report.to_json()

    first = pipeline()
    second = pipeline()
    ok = first == second
    record(
        verdicts,
        10,
        ok,
        f"desk train+eval pipeline repeated with identical seeds: reports byte-identical "
        f"({'yes' if ok else 'NO'}, {len(first)} bytes)",
    )


class TestDeskTrends:
    """Seed-averaged trend claims that need the full desk world, piggybacking
    on the already-trained runs. These are not acceptance criteria."""

    def test_ensemble_matches_best_single_modality(self, desk_runs):
        plan = EvalPlan(
            ensemble_pair=("textlike", "spoke1"),
            ensemble_weights=[0.0, 0.5, 0.95, 1.0],
            retrieval_index_size=200,
            retrieval_k=10,
        )
        blended, single = [], []
        for run in desk_runs:
            m = run_eval_plan(run.world, run.state, plan).metrics
            blended.append(max(m["ensemble_recall_at_10/w=0.5"], m["ensemble_recall_at_10/w=0.95"]))
            single.append(max(m["ensemble_recall_at_10/w=0"], m["ensemble_recall_at_10/w=1"]))
        assert float(np.mean(blended)) >= float(np.mean(single)) - 0.02

    def test_prompt_averaging_matches_or_beats_single_prompt(self, desk_runs):
        p16, p1 = [], []
        for run in desk_runs:
            for store, prompts in ((p16, 16), (p1, 1)):
                store.append(
                    emergent_zero_shot_accuracy(
                        run.world, run.state, "spoke1", "textlike", 100, prompts_per_class=prompts
                    ).accuracy
                )
        assert float(np.mean(p16)) >= float(np.mean(p1))

    def test_trained_hub_outranks_random_hub_when_frozen(self, desk_runs):
        key = "emergent_zero_shot/spoke1_vs_textlike"
        pairs = [("spoke1", "textlike")]

        def frozen(job):
            run, which = job  # "state" (trained) or "untrained"
            hub = getattr(run, which).encoders["hub"]
            return frozen_hub_eval(hub, run.world, run.cfg.archs, run.cfg.train, pairs).metrics[key]

        accs = pool_map(frozen, [(run, which) for which in ("state", "untrained") for run in desk_runs])
        good, rand = accs[: len(desk_runs)], accs[len(desk_runs) :]
        assert float(np.mean(good)) > float(np.mean(rand)) + 0.05
