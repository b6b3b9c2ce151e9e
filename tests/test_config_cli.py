"""Tests for config parsing, hashing, ablation plumbing, and the bind CLI.

CLI tests call main(argv) in-process and write only under tmp dirs; the one
training run they need is shared through a module-scoped fixture.
"""

import contextlib
import dataclasses
import io
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modbind
import modbind.ablation as ablation_mod
import modbind.cli as cli_mod
import modbind.evaluation as evaluation_mod
import modbind.pool as pool_mod
from modbind.ablation import (
    CellResult,
    format_axis_value,
    run_ablation_suite,
    summarize,
    write_long_csv,
    write_summary_csv,
)
from modbind.cli import main
from modbind.codec import array_to_doc
from modbind.config import (
    ABLATION_AXES,
    DEFAULT_GRIDS,
    AblationSuiteSpec,
    AxisSpec,
    ConfigError,
    apply_axis,
    parse_ablation_suite,
    parse_experiment_config,
)
from modbind.encoders import embed
from modbind.evaluation import (
    POOLED_INDEX_ITEMS,
    EvaluationError,
    embed_arithmetic,
    ranked_items,
    run_eval_plan,
)
from modbind.pool import usable_cores
from modbind.trainer import init_train_state, load_checkpoint, save_checkpoint
from modbind.world import make_world

from .conftest import doc_nodes, is_number, node_at, resize, set_at, small_config_document
from .oracles import legacy_checkpoint_text, observations_replay, world_fingerprint_loops

# pool tests run two workers, or one where the process may use one core only
POOL = min(2, usable_cores())


@pytest.fixture
def cores(monkeypatch):
    """Sets the usable cores `pool.ordered_map` sees; 1 runs every job in-process."""

    def set_cores(n):
        monkeypatch.setattr(pool_mod, "usable_cores", lambda: n)

    return set_cores


@pytest.fixture
def flaky_run_cell(monkeypatch):
    """A `run_cell` that raises for a config of 1 epoch and trains every other one."""
    real_run_cell = ablation_mod.run_cell

    def flaky(cfg):
        if cfg.train.epochs == 1:
            raise ValueError("boom")
        return real_run_cell(cfg)

    monkeypatch.setattr(ablation_mod, "run_cell", flaky)


def epochs_suite(grid, seeds=(0,)):
    return parse_ablation_suite(
        {"base": small_config_document(), "axes": [{"axis": "epochs", "grid": grid}],
         "seeds": list(seeds)}
    )


class TestConfigValidation:
    def test_parse_and_renormalize_is_idempotent(self, small_config_doc):
        cfg = parse_experiment_config(small_config_doc)
        again = parse_experiment_config(cfg.normalized)
        assert again.normalized == cfg.normalized
        assert cfg.seed == 3
        assert cfg.output_dir == "runs/test"

    def test_unknown_key_rejected_with_path(self, small_config_doc):
        small_config_doc["train"]["bogus"] = 1
        with pytest.raises(ConfigError, match=r"config\.train\.bogus"):
            parse_experiment_config(small_config_doc)

    def test_unknown_top_level_key_rejected(self, small_config_doc):
        small_config_doc["extra"] = {}
        with pytest.raises(ConfigError, match=r"config\.extra"):
            parse_experiment_config(small_config_doc)

    def test_missing_field_names_path(self, small_config_doc):
        del small_config_doc["train"]["epochs"]
        with pytest.raises(ConfigError, match=r"config\.train\.epochs.*missing"):
            parse_experiment_config(small_config_doc)

    def test_exactly_one_hub_required(self, small_config_doc):
        small_config_doc["world"]["modalities"][1]["hub"] = True
        with pytest.raises(ConfigError, match="exactly one hub"):
            parse_experiment_config(small_config_doc)
        for m in small_config_doc["world"]["modalities"]:
            m["hub"] = False
        with pytest.raises(ConfigError, match="exactly one hub"):
            parse_experiment_config(small_config_doc)

    def test_arch_for_unknown_modality_rejected(self, small_config_doc):
        small_config_doc["archs"]["gamma"] = {"hidden_widths": [8], "embed_dim": 6}
        with pytest.raises(ConfigError, match=r"config\.archs\.gamma"):
            parse_experiment_config(small_config_doc)

    def test_missing_arch_rejected(self, small_config_doc):
        del small_config_doc["archs"]["beta"]
        with pytest.raises(ConfigError, match=r"config\.archs\.beta"):
            parse_experiment_config(small_config_doc)

    def test_mismatched_embed_dims_rejected(self, small_config_doc):
        small_config_doc["archs"]["beta"]["embed_dim"] = 7
        with pytest.raises(ConfigError, match="share one embed_dim"):
            parse_experiment_config(small_config_doc)

    def test_hub_as_pair_spoke_rejected(self, small_config_doc):
        small_config_doc["train"]["pairs"][0]["spoke"] = "hub"
        with pytest.raises(ConfigError, match="must not be the hub"):
            parse_experiment_config(small_config_doc)

    def test_unknown_modality_in_eval_pair_rejected(self, small_config_doc):
        small_config_doc["eval"]["emergent_pairs"] = [["alpha", "gamma"]]
        with pytest.raises(ConfigError, match=r"config\.eval\.emergent_pairs\[0\]"):
            parse_experiment_config(small_config_doc)

    def test_k_beyond_index_size_rejected(self, small_config_doc):
        small_config_doc["eval"]["k_list"] = [1, 31]
        with pytest.raises(ConfigError, match="exceeds retrieval_index_size"):
            parse_experiment_config(small_config_doc)

    def test_bool_is_not_an_integer(self, small_config_doc):
        small_config_doc["train"]["epochs"] = True
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_experiment_config(small_config_doc)

    def test_negative_seed_rejected(self, small_config_doc):
        # 2**32 would otherwise replay seed 0's run under another seed
        for seed in (-1, 2**32):
            small_config_doc["seed"] = seed
            with pytest.raises(ConfigError, match=r"config\.seed"):
                parse_experiment_config(small_config_doc)

    def test_bad_temperature_mode_rejected(self, small_config_doc):
        small_config_doc["train"]["pairs"][0]["temperature"] = {"mode": "magic", "value": 0.07}
        with pytest.raises(ConfigError, match="must be one of"):
            parse_experiment_config(small_config_doc)

    def test_error_carries_path_attribute(self, small_config_doc):
        small_config_doc["train"]["bogus"] = 1
        with pytest.raises(ConfigError) as exc:
            parse_experiment_config(small_config_doc)
        assert exc.value.path == "config.train.bogus"

    @pytest.mark.parametrize(
        "section, key, value, path",
        [
            ("pairs", "temperature", {"mode": "fixed", "value": 0.1, "clamp_min": 1.0, "clamp_max": 0.5},
             "config.train.pairs[0].temperature"),
            ("pairs", "batch_size", 0, "config.train.pairs[0]"),
            ("train", "adam_eps", 0.0, "config.train"),
            ("modality", "nonlinearity", "relu", "config.world"),
            ("world", "within_class_scale", -0.1, "config.world"),
            ("arch", "hidden_widths", [0], "config.archs.alpha"),
            ("eval", "retrieval_k", 31, "config.eval"),
            ("eval", "arithmetic_weight", 1.5, "config.eval"),
        ],
    )
    def test_constructor_errors_name_the_object(self, small_config_doc, section, key, value, path):
        target = {
            "pairs": small_config_doc["train"]["pairs"][0],
            "train": small_config_doc["train"],
            "modality": small_config_doc["world"]["modalities"][1],
            "world": small_config_doc["world"],
            "arch": small_config_doc["archs"]["alpha"],
            "eval": small_config_doc["eval"],
        }[section]
        target[key] = value
        with pytest.raises(ConfigError) as exc:
            parse_experiment_config(small_config_doc)
        assert exc.value.path == path

    def test_zero_within_class_scale_accepted(self, small_config_doc):
        # zero spread puts every sample on its class mean, which a world allows
        small_config_doc["world"]["within_class_scale"] = 0
        assert parse_experiment_config(small_config_doc).world.within_class_scale == 0.0

    @pytest.mark.parametrize("path, token, where", [
        (("train", "learning_rate"), "NaN", "config.train.learning_rate"),
        (("world", "within_class_scale"), "Infinity", "config.world.within_class_scale"),
        (("world", "modalities", 1, "obs_noise_scale"), "-Infinity",
         "config.world.modalities[1].obs_noise_scale"),
    ])
    def test_non_finite_number_rejected_with_path(self, small_config_doc, tmp_path, capsys,
                                                  path, token, where):
        # Python's json module reads NaN and Infinity; a range check such as
        # `scale < 0` lets NaN through, so the codec rejects them
        set_at(small_config_doc, path, "@")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(small_config_doc).replace('"@"', token))
        with pytest.raises(ConfigError, match="finite") as e:
            parse_experiment_config(json.loads(cfg_path.read_text()))
        assert e.value.path == where
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def fuzz_base_document():
    """small_config_document with every optional eval measurement and train number set."""
    doc = small_config_document()
    doc["eval"].update(
        few_shot_modality="alpha", few_shot_ks=[1, 2], arithmetic_pair=["alpha", "beta"],
        arithmetic_queries=5, arithmetic_weight=0.5, ensemble_pair=["alpha", "beta"],
        ensemble_weights=[0.0, 0.5],
    )
    doc["train"].update(weight_decay=0.01, warmup_epochs=1.0, betas=[0.9, 0.95])
    doc["train"]["pairs"][0]["temperature"] = {"mode": "fixed", "value": 0.1}
    return doc


@pytest.fixture(scope="module")
def config_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


def train_rejects(root, text):
    """`bind train` on a config file holding `text` exits 2 with a config error."""
    path = root / "variant.json"
    path.write_text(text)
    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)  # so that one escape fails one example only
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--config", str(path), "--out", str(out)])
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith("config error: ")
    assert not out.exists()


class TestExperimentConfigFuzz:
    """Every corrupted config ends in exit 2 from `bind train`: no traceback, no training."""

    def test_base_document_is_valid(self):
        doc = fuzz_base_document()
        assert parse_experiment_config(doc).eval_plan.ensemble_weights == [0.0, 0.5]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_json(self, config_fuzz_dir, data):
        text = json.dumps(fuzz_base_document(), indent=1)
        train_rejects(config_fuzz_dir, text[: data.draw(st.integers(0, len(text) - 1))])

    @given(data=st.data(), kind=st.sampled_from(["list", "object", "string", "number", "null"]))
    @settings(max_examples=150, deadline=None)
    def test_wrong_shape(self, config_fuzz_dir, data, kind):
        # a node of another JSON kind; a number for a number is no change of shape.
        # null for an optional measurement leaves its sizes set, which is an error too
        doc = fuzz_base_document()
        replacement = {"list": [], "object": {}, "string": "x", "number": 2, "null": None}[kind]
        nodes = [p for p, v in doc_nodes(doc) if p and not (
            type(v) is type(replacement) or is_number(v) and kind == "number"
        )]
        set_at(doc, data.draw(st.sampled_from(nodes)), replacement)
        train_rejects(config_fuzz_dir, json.dumps(doc))

    @given(data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf, True, False]))
    @settings(max_examples=150, deadline=None)
    def test_non_finite_or_bool_number(self, config_fuzz_dir, data, bad):
        doc = fuzz_base_document()
        set_at(doc, data.draw(st.sampled_from([p for p, v in doc_nodes(doc) if is_number(v)])), bad)
        train_rejects(config_fuzz_dir, json.dumps(doc))

    @given(data=st.data(), key=st.text(min_size=1, max_size=8),
           value=st.one_of(st.none(), st.integers(), st.text(max_size=4)))
    @settings(max_examples=100, deadline=None)
    def test_unknown_key(self, config_fuzz_dir, data, key, value):
        doc = fuzz_base_document()
        target = node_at(doc, data.draw(st.sampled_from(
            [p for p, v in doc_nodes(doc) if isinstance(v, dict)]
        )))
        while key in target:
            key += "_unknown"
        target[key] = value
        train_rejects(config_fuzz_dir, json.dumps(doc))

    @given(data=st.data(), grow=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_ragged_rows(self, config_fuzz_dir, data, grow):
        # one entry more or fewer in a row of a list of pairs, or in a fixed pair
        doc = fuzz_base_document()
        rows = [p for p, v in doc_nodes(doc)
                if isinstance(v, list) and len(p) == 3 and p[1].endswith("_pairs")
                or p[-1:] in (("arithmetic_pair",), ("ensemble_pair",), ("betas",))]
        resize(node_at(doc, data.draw(st.sampled_from(rows))), grow)
        train_rejects(config_fuzz_dir, json.dumps(doc))


class TestConfigHash:
    def test_stable_across_parses(self, small_config_doc):
        a = parse_experiment_config(small_config_doc)
        b = parse_experiment_config(small_config_document())
        assert a.hash == b.hash

    def test_seed_excluded_from_hash(self, small_config_doc):
        cfg = parse_experiment_config(small_config_doc)
        reseeded = cfg.with_seed(99)
        assert reseeded.hash == cfg.hash
        assert reseeded.seed == 99
        assert reseeded.train.seed == 99

    def test_one_seed_per_config(self, small_config_doc):
        # the seed is the training config's, so a config cannot be given a second one
        cfg = parse_experiment_config(small_config_doc)
        assert cfg.seed == cfg.train.seed == 3
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, seed=5)

    def test_output_dir_excluded_from_hash(self, small_config_doc):
        a = parse_experiment_config(small_config_doc)
        small_config_doc["output_dir"] = "elsewhere"
        b = parse_experiment_config(small_config_doc)
        assert a.hash == b.hash

    @pytest.mark.parametrize(
        "name, want",
        [
            ("desk.json", "d5616438913550113b5e7a619479febab034a3622411eba4880419650025852f"),
            ("desk_m1m2.json", "170715a29678b9357f70c41c7599da8d2d1f06d47bd424604b305483e05fef71"),
            ("ablate_quick.json", "49140aca5a90eb12968657247cde4966fd7e91ea403226f5daf07e0fa477a0ff"),
        ],
    )
    def test_bundled_config_hashes_are_pinned(self, name, want):
        doc = json.loads(resources.files("modbind").joinpath("configs", name).read_text())
        if name == "ablate_quick.json":
            assert parse_ablation_suite(doc).base.hash == want
        else:
            assert parse_experiment_config(doc).hash == want

    @pytest.mark.parametrize("path", [
        ("world", "modalities", 1, "obs_noise_scale"),
        ("train", "weight_decay"),
        ("train", "pairs", 0, "l2_weight"),
    ], ids=lambda path: path[-1])
    def test_negative_zero_hashes_as_zero(self, path):
        # -0.0 == 0.0, so both name one experiment
        doc = json.loads(resources.files("modbind").joinpath("configs", "desk.json").read_text())
        hashes = []
        for value in (0.0, -0.0):
            set_at(doc, path, value)
            cfg = parse_experiment_config(doc)
            hashes.append(cfg.hash)
            assert math.copysign(1.0, node_at(cfg.normalized, path)) == 1.0
        assert hashes[0] == hashes[1]

    def test_negative_zero_ensemble_weight_reports_as_zero(self, small_config_doc):
        small_config_doc["eval"].update(ensemble_pair=["alpha", "beta"], ensemble_weights=[-0.0])
        cfg = parse_experiment_config(small_config_doc)
        world = make_world(cfg.world, cfg.seed)
        report = run_eval_plan(world, init_train_state(world, cfg.archs, cfg.train), cfg.eval_plan)
        ensemble = [m for m in report.metrics if m.startswith("ensemble")]
        assert ensemble == ["ensemble_recall_at_5/w=0"]

    def test_material_change_alters_hash(self, small_config_doc):
        a = parse_experiment_config(small_config_doc)
        small_config_doc["train"]["epochs"] = 3
        b = parse_experiment_config(small_config_doc)
        assert a.hash != b.hash


class TestApplyAxis:
    @pytest.fixture
    def base(self, small_config_doc):
        return parse_experiment_config(small_config_doc).normalized

    def test_temperature_learnable(self, base):
        doc = apply_axis(base, "temperature", "learnable")
        for pair in doc["train"]["pairs"]:
            assert pair["temperature"] == {"mode": "learnable", "value": 0.07}

    def test_temperature_fixed_value(self, base):
        doc = apply_axis(base, "temperature", 0.2)
        for pair in doc["train"]["pairs"]:
            assert pair["temperature"] == {"mode": "fixed", "value": 0.2}

    def test_projection_head(self, base):
        doc = apply_axis(base, "projection_head", "mlp")
        assert all(a["head"] == "mlp" for a in doc["archs"].values())

    def test_epochs(self, base):
        assert apply_axis(base, "epochs", 5)["train"]["epochs"] == 5

    def test_batch_size(self, base):
        doc = apply_axis(base, "batch_size", 256)
        assert all(p["batch_size"] == 256 for p in doc["train"]["pairs"])

    def test_hub_capacity_touches_only_hub(self, base):
        doc = apply_axis(base, "hub_capacity", 64)
        assert doc["archs"]["hub"]["hidden_widths"] == [64]
        assert doc["archs"]["alpha"] == base["archs"]["alpha"]

    def test_noise_strength_scales_every_modality(self, base):
        doc = apply_axis(base, "noise_strength", 2.0)
        for before, after in zip(base["world"]["modalities"], doc["world"]["modalities"]):
            assert after["obs_noise_scale"] == 2.0 * before["obs_noise_scale"]

    def test_alignment(self, base):
        assert all(
            not p["aligned"]
            for p in apply_axis(base, "alignment", "class_only")["train"]["pairs"]
        )
        assert all(
            p["aligned"] for p in apply_axis(base, "alignment", "aligned")["train"]["pairs"]
        )

    def test_loss_mix(self, base):
        doc = apply_axis(base, "loss_mix", [0.0, 1.0])
        for pair in doc["train"]["pairs"]:
            assert pair["infonce_weight"] == 0.0
            assert pair["l2_weight"] == 1.0

    def test_base_document_not_mutated(self, base):
        snapshot = json.loads(json.dumps(base))
        apply_axis(base, "noise_strength", 2.0)
        assert base == snapshot

    def test_unknown_axis_rejected(self, base):
        with pytest.raises(ConfigError):
            apply_axis(base, "sorcery", 1)

    @pytest.mark.parametrize("axis", ABLATION_AXES)
    def test_every_axis_yields_a_valid_config(self, base, axis):
        doc = apply_axis(base, axis, DEFAULT_GRIDS[axis][0])
        parse_experiment_config(doc)


class TestAblationSuite:
    def test_defaults_cover_all_axes(self, small_config_doc):
        suite = parse_ablation_suite({"base": small_config_doc})
        assert tuple(a.axis for a in suite.axes) == ABLATION_AXES
        for spec in suite.axes:
            assert spec.grid == DEFAULT_GRIDS[spec.axis]
        assert suite.seeds == [3]

    def test_temperature_default_grid_pinned(self, small_config_doc):
        suite = parse_ablation_suite({"base": small_config_doc})
        grid = next(a.grid for a in suite.axes if a.axis == "temperature")
        assert grid == ["learnable", 0.05, 0.07, 0.2, 1.0]

    def test_explicit_axes_subset(self, small_config_doc):
        suite = parse_ablation_suite(
            {"base": small_config_doc, "axes": [{"axis": "epochs", "grid": [1, 2]}], "seeds": [0, 1]}
        )
        assert [a.axis for a in suite.axes] == ["epochs"]
        assert suite.axes[0].grid == [1, 2]
        assert suite.seeds == [0, 1]

    def test_unknown_axis_rejected(self, small_config_doc):
        with pytest.raises(ConfigError, match="must be one of"):
            parse_ablation_suite({"base": small_config_doc, "axes": [{"axis": "sorcery"}]})

    def test_bad_grid_value_rejected(self, small_config_doc):
        with pytest.raises(ConfigError, match=r"axes\[0\]\.grid\[0\]"):
            parse_ablation_suite(
                {"base": small_config_doc, "axes": [{"axis": "batch_size", "grid": [0]}]}
            )

    def test_shared_temperature_base_takes_the_temperature_axis(self, small_config_doc):
        # the axis sets every pair's temperature alike, so each cell shares one
        small_config_doc["train"]["shared_temperature"] = True
        grid = ["learnable", 0.05, 0.2]
        suite = parse_ablation_suite(
            {"base": small_config_doc, "axes": [{"axis": "temperature", "grid": grid}]}
        )
        assert suite.axes[0].grid == grid

    def test_format_axis_value(self):
        assert format_axis_value("learnable") == "learnable"
        assert format_axis_value(0.05) == "0.05"
        assert format_axis_value([1.0, 0.0]) == "[1.0,0.0]"

    def test_failed_cell_does_not_end_suite(self, flaky_run_cell, tmp_path):
        results = run_ablation_suite(epochs_suite([1, 2]))
        assert [r.status for r in results] == ["error", "ok"]
        assert "boom" in results[0].error
        assert results[1].metrics

        long_path = tmp_path / "long.csv"
        write_long_csv(results, long_path, "deadbeef")
        lines = long_path.read_text().splitlines()
        assert lines[0] == "# base_config_hash=deadbeef"
        assert any(",error," in line for line in lines)

        rows = summarize(results)
        assert all(row["value"] == "2" for row in rows)
        summary_path = tmp_path / "summary.csv"
        write_summary_csv(rows, summary_path, "deadbeef")
        assert summary_path.read_text().startswith("# base_config_hash=deadbeef")

    def test_cells_are_deterministic(self, small_config_doc):
        suite = parse_ablation_suite(
            {"base": small_config_doc, "axes": [{"axis": "epochs", "grid": [1]}], "seeds": [0]}
        )
        first = run_ablation_suite(suite)
        second = run_ablation_suite(suite)
        assert [r.metrics for r in first] == [r.metrics for r in second]
        assert all(r.status == "ok" for r in first)

    def test_epochs_axis_improves_while_undertrained(self):
        # more epochs helps only up to convergence; the desk defaults already
        # converge by ~5 epochs (and drift slightly past the peak after), so
        # the trend grid has to stay below that
        base = json.loads(
            resources.files("modbind").joinpath("configs", "desk.json").read_text()
        )
        suite = parse_ablation_suite(
            {"base": base, "axes": [{"axis": "epochs", "grid": [1, 2, 5]}], "seeds": [0, 1]}
        )
        rows = summarize(run_ablation_suite(suite))
        means = {
            int(r["value"]): r["mean"]
            for r in rows
            if r["metric"] == "emergent_zero_shot/spoke1_vs_textlike"
        }
        assert means[2] >= means[1] - 0.01
        assert means[5] >= means[2] - 0.01


def session_members(sid: int) -> list[str]:
    """`pid (comm)` of every process in session `sid`, read from /proc/*/stat."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended while we looked
            continue
        # after "pid (comm)": state, ppid, pgrp, session, ...
        if int(text.rpartition(")")[2].split()[3]) == sid:
            members.append(text.partition(")")[0] + ")")
    return members


class TestAblationPool:
    def test_cli_outputs_identical_in_process_and_in_workers(self, cores, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({
            "base": small_config_document(),
            "axes": [{"axis": "epochs", "grid": [1, 2]}, {"axis": "batch_size", "grid": [4, 16]}],
            "seeds": [0, 1],
        }))
        stdout = {}
        for n in (1, POOL):
            cores(n)
            out = tmp_path / f"cores{n}"
            assert main(["ablate", "--config", str(suite_path), "--out", str(out)]) == 0
            stdout[n] = capsys.readouterr().out.replace(str(out), "OUT")
        assert stdout[1] == stdout[POOL]
        assert stdout[1].count("ok    ") == 8
        for name in ("ablation_long.csv", "ablation_summary.csv", "ablate_manifest.json"):
            assert (tmp_path / "cores1" / name).read_bytes() == (tmp_path / f"cores{POOL}" / name).read_bytes()

    def test_failed_cell_gives_the_same_rows_in_workers(self, flaky_run_cell, cores):
        suite = epochs_suite([1, 2, 1], seeds=[0, 1])
        cores(1)
        serial = run_ablation_suite(suite)
        assert [r.status for r in serial] == ["error", "error", "ok", "ok", "error", "error"]
        cores(POOL)
        assert run_ablation_suite(suite) == serial

    def test_progress_sees_definition_order(self, cores):
        cores(POOL)
        seen = []
        results = run_ablation_suite(epochs_suite([2, 1], seeds=[0, 1]), progress=seen.append)
        assert seen == results
        assert [(r.value, r.seed) for r in seen] == [("2", 0), ("2", 1), ("1", 0), ("1", 1)]

    def test_raising_progress_propagates_and_leaves_no_worker(self, cores, monkeypatch, tmp_path):
        cores(POOL)
        started = tmp_path / "started"
        real_run_cell = ablation_mod.run_cell

        def logged(*args):
            with open(started, "a") as f:
                f.write(".")
            time.sleep(0.1)  # so the queue cannot drain before progress raises
            return real_run_cell(*args)

        def progress(cell):
            raise KeyError("stop here")

        monkeypatch.setattr(ablation_mod, "run_cell", logged)
        suite = epochs_suite([1, 2, 3, 4, 5, 6, 7, 8], seeds=[0, 1])
        with pytest.raises(KeyError, match="stop here"):
            run_ablation_suite(suite, progress=progress)
        assert multiprocessing.active_children() == []
        # the cells still queued when progress raised never started
        assert len(started.read_text()) < 16

    def test_dead_worker_becomes_error_rows(self, cores, monkeypatch):
        cores(POOL)
        parent = os.getpid()
        real_run_cell = ablation_mod.run_cell

        def dying(cfg):
            if cfg.train.epochs == 1 and os.getpid() != parent:
                os._exit(1)
            return real_run_cell(cfg)

        monkeypatch.setattr(ablation_mod, "run_cell", dying)
        results = run_ablation_suite(epochs_suite([1, 2]))
        assert [(r.value, r.seed) for r in results] == [("1", 0), ("2", 0)]
        if POOL == 2:
            assert results[0].status == "error"
        for cell in results:
            assert cell.status == "ok" or cell.error.startswith("BrokenProcessPool: ")
        assert multiprocessing.active_children() == []

    @pytest.fixture
    def run_cell_calls(self, monkeypatch):
        """(epochs, batch size, seed) of every `run_cell` call made in this process."""
        calls = []
        real_run_cell = ablation_mod.run_cell

        def counted(cfg):
            calls.append((cfg.train.epochs, cfg.train.pairs[0].batch_size, cfg.seed))
            return real_run_cell(cfg)

        monkeypatch.setattr(ablation_mod, "run_cell", counted)
        return calls

    @staticmethod
    def oracle(suite):
        """Every cell parsed and run on its own, with no run shared."""
        rows = []
        for spec in suite.axes:
            for value in spec.grid:
                for seed in suite.seeds:
                    row = CellResult(spec.axis, format_axis_value(value), seed, "error")
                    try:
                        doc = apply_axis(suite.base.normalized, spec.axis, value)
                        cfg = parse_experiment_config({**doc, "seed": seed})
                    except ConfigError as e:
                        row.error = str(e)
                    else:
                        row.status, row.config_hash = "ok", cfg.hash
                        row.metrics = ablation_mod.run_cell(cfg)
                    rows.append(row)
        return rows

    # the base config has epochs 2 and batch size 8, so those values repeat its run
    REPEATING = {"axes": [{"axis": "epochs", "grid": [2, 1]}, {"axis": "batch_size", "grid": [4, 8]}],
                 "seeds": [0, 1]}

    def test_cells_of_one_run_train_once(self, cores, run_cell_calls):
        suite = parse_ablation_suite({"base": small_config_document(), **self.REPEATING})
        want = self.oracle(suite)
        run_cell_calls.clear()
        cores(1)
        got = run_ablation_suite(suite)
        # epochs 2 then 1, then batch size 4; batch size 8 repeats the base run
        assert run_cell_calls == [(2, 8, 0), (2, 8, 1), (1, 8, 0), (1, 8, 1), (2, 4, 0), (2, 4, 1)]
        assert got == want
        assert [(r.value, r.seed) for r in got[-2:]] == [("8", 0), ("8", 1)]
        assert got[-1].metrics == got[1].metrics and got[-1].metrics is not got[1].metrics
        cores(POOL)
        assert run_ablation_suite(suite) == want

    @pytest.mark.parametrize("error, text", [
        (KeyError("beta"), "KeyError: 'beta'"),
        (RuntimeError(), "RuntimeError"),
    ], ids=["KeyError", "bare-RuntimeError"])
    def test_error_row_names_the_exception_type(self, cores, monkeypatch, error, text):
        # str(KeyError('beta')) is "'beta'" and str(RuntimeError()) is empty
        def raising(cfg):
            raise error

        monkeypatch.setattr(ablation_mod, "run_cell", raising)
        for n in (1, POOL):
            cores(n)
            results = run_ablation_suite(epochs_suite([1, 2]))
            assert [(r.status, r.error) for r in results] == [("error", text)] * 2

    def test_negative_zero_noise_strength_repeats_the_zero_run(self, cores, run_cell_calls):
        doc = small_config_document()
        suite = parse_ablation_suite({"base": doc, "axes": [{"axis": "noise_strength",
                                                             "grid": [0.0, -0.0]}], "seeds": [0]})
        cores(1)
        results = run_ablation_suite(suite)
        assert len(run_cell_calls) == 1
        assert [r.status for r in results] == ["ok", "ok"]
        assert results[0].config_hash == results[1].config_hash
        assert results[0].metrics == results[1].metrics

    def test_unparsable_cell_keeps_its_own_error(self, cores, run_cell_calls):
        # parse_ablation_suite rejects these values, so the suite is built directly
        base = parse_experiment_config(small_config_document())
        suite = AblationSuiteSpec(base=base, axes=[AxisSpec("batch_size", [0, 8, -1, 0])], seeds=[0])
        want = self.oracle(suite)
        run_cell_calls.clear()
        cores(1)
        got = run_ablation_suite(suite)
        # only the cell that parses trains; the others take their rows from the parse
        assert run_cell_calls == [(2, 8, 0)]
        assert got == want
        assert [r.error for r in got] == [
            "config.train.pairs[0]: batch_size must be >= 1, got 0", "",
            "config.train.pairs[0]: batch_size must be >= 1, got -1",
            "config.train.pairs[0]: batch_size must be >= 1, got 0",
        ]

    def test_each_cell_is_parsed_once_in_this_process(self, cores, monkeypatch, tmp_path):
        calls = tmp_path / "calls"
        parent = os.getpid()

        def logged(real, name):
            def call(*args, **kwargs):
                with open(calls, "a") as f:
                    f.write(f"{name} in {'parent' if os.getpid() == parent else 'worker'}\n")
                return real(*args, **kwargs)

            return call

        for name in ("apply_axis", "parse_experiment_config"):
            monkeypatch.setattr(ablation_mod, name, logged(getattr(ablation_mod, name), name))
        suite = parse_ablation_suite({"base": small_config_document(), **self.REPEATING})
        for n in (1, POOL):
            cores(n)
            calls.write_text("")
            assert all(r.status == "ok" for r in run_ablation_suite(suite))
            # 8 cells, of which 2 repeat the base run; no worker parses a config
            assert sorted(calls.read_text().splitlines()) == (
                ["apply_axis in parent"] * 8 + ["parse_experiment_config in parent"] * 8
            )

    @pytest.mark.parametrize("axis, value, noise, message", [
        ("alignment", "sideways", 0.05, "must be one of ['aligned', 'class_only'], got 'sideways'"),
        # -1.0 times a zero noise scale is a valid world, so the sign rule is all that stops it
        ("noise_strength", -1.0, 0.0, "must be >= 0, got -1.0"),
    ])
    def test_library_suite_meets_the_axis_rules(self, run_cell_calls, axis, value, noise, message):
        doc = small_config_document()
        for m in doc["world"]["modalities"]:
            m["obs_noise_scale"] = noise
        suite = AblationSuiteSpec(base=parse_experiment_config(doc), axes=[AxisSpec(axis, [value])],
                                  seeds=[0])
        [row] = run_ablation_suite(suite)
        assert (row.status, row.error) == ("error", f"{axis}: {message}")
        assert run_cell_calls == []

    def test_dead_worker_fails_every_cell_of_its_run(self, cores, monkeypatch):
        cores(POOL)
        parent = os.getpid()
        real_run_cell = ablation_mod.run_cell

        def dying(cfg):
            # the base run: epochs 2 at batch size 8
            if (cfg.train.epochs, cfg.train.pairs[0].batch_size) == (2, 8) and os.getpid() != parent:
                os._exit(1)
            return real_run_cell(cfg)

        monkeypatch.setattr(ablation_mod, "run_cell", dying)
        suite = parse_ablation_suite({"base": small_config_document(), **self.REPEATING})
        results = run_ablation_suite(suite)

        def rows():
            """Every row and the live child processes: what a failure here needs to show."""
            lines = [f"{r.axis}={r.value} seed {r.seed}: {r.status} {r.error!r}" for r in results]
            return "\n".join([*lines, f"active children: {multiprocessing.active_children()}"])

        assert [(r.axis, r.value, r.seed) for r in results] == [
            (spec.axis, format_axis_value(v), seed)
            for spec in suite.axes for v in spec.grid for seed in suite.seeds
        ], rows()
        if POOL == 2:
            # epochs 2 and batch size 8 are the base run, which the dead worker held
            for i in (0, 6):
                assert results[i].status == "error", rows()
                assert results[i].error.startswith("BrokenProcessPool: "), rows()
            assert results[6].error == results[0].error, rows()
        for cell in results:
            assert cell.status == "ok" or cell.error.startswith("BrokenProcessPool: "), rows()
        assert multiprocessing.active_children() == [], rows()

    def test_progress_sees_repeated_cells_in_definition_order(self, cores):
        cores(POOL)
        seen = []
        suite = parse_ablation_suite({"base": small_config_document(), **self.REPEATING})
        results = run_ablation_suite(suite, progress=seen.append)
        assert seen == results
        assert [(r.axis, r.value, r.seed) for r in seen] == [
            ("epochs", "2", 0), ("epochs", "2", 1), ("epochs", "1", 0), ("epochs", "1", 1),
            ("batch_size", "4", 0), ("batch_size", "4", 1), ("batch_size", "8", 0),
            ("batch_size", "8", 1),
        ]
        assert all(r.status == "ok" for r in seen)

    def test_workers_run_blas_on_one_thread(self, cores, monkeypatch):
        before = pool_mod._openblas_call("get_num_threads")
        if not before or POOL < 2:
            pytest.skip("needs OpenBLAS and two usable cores")
        cores(POOL)

        def blas_threads(cfg):
            return {"blas_threads": float(pool_mod._openblas_call("get_num_threads")[0])}

        monkeypatch.setattr(ablation_mod, "run_cell", blas_threads)
        pool_mod._openblas_call("set_num_threads", 2)  # as if OPENBLAS_NUM_THREADS were unset
        try:
            results = run_ablation_suite(epochs_suite([1, 2]))
            assert [r.metrics for r in results] == [{"blas_threads": 1.0}] * 2
            assert pool_mod._openblas_call("get_num_threads") == [2] * len(before)
        finally:
            pool_mod._openblas_call("set_num_threads", before[0])

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_cli_leaves_no_process_in_its_session(self, tmp_path):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(
            {"base": small_config_document(), "axes": [{"axis": "epochs", "grid": [1, 2]}]}
        ))
        src = str(Path(modbind.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "modbind", "ablate", "--config", str(suite_path),
             "--out", str(tmp_path / "out")],
            env=env, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        assert "cells: 2, failures: 0" in stdout
        # the child led its own session, so its pid is the session id
        assert session_members(proc.pid) == []


def full_eval_document():
    """small_config_document() with every measurement group of an eval plan, and an
    index large enough for `bind eval` to run the groups on workers."""
    doc = small_config_document()
    doc["eval"].update(
        few_shot_modality="alpha", few_shot_ks=[1, 2], arithmetic_pair=["alpha", "beta"],
        arithmetic_queries=10, ensemble_pair=["alpha", "beta"], ensemble_weights=[0.0, 0.5],
        retrieval_index_size=POOLED_INDEX_ITEMS,
    )
    return doc


class TestEvalPool:
    """`bind eval` runs its measurement groups through the same pool as `bind ablate`."""

    @pytest.fixture
    def full_config(self, tmp_path):
        path = tmp_path / "full.json"
        path.write_text(json.dumps(full_eval_document()))
        return str(path)

    @pytest.mark.parametrize("world", ["desk", "tiny"])
    def test_cli_outputs_identical_in_process_and_in_workers(self, cores, full_config, tmp_path,
                                                             capsys, world):
        config = full_config
        if world == "desk":
            doc = json.loads(resources.files("modbind").joinpath("configs", "desk.json").read_text())
            doc["eval"]["retrieval_index_size"] = POOLED_INDEX_ITEMS
            config = tmp_path / "desk.json"
            config.write_text(json.dumps(doc))
        stdout = {}
        for n in (1, 2):
            cores(n)
            out = tmp_path / f"cores{n}"
            assert main(["eval", "--config", str(config), "--out", str(out)]) == 0
            stdout[n] = capsys.readouterr().out.replace(str(out), "OUT")
        assert stdout[1] == stdout[2]
        for name in ("metrics.json", "metrics.csv", "eval_manifest.json"):
            assert (tmp_path / "cores1" / name).read_bytes() == (tmp_path / "cores2" / name).read_bytes()
        assert multiprocessing.active_children() == []

    def test_evaluation_error_in_a_group_exits_3_with_the_in_process_message(
        self, cores, full_config, monkeypatch, tmp_path, capsys
    ):
        def failing_probes(*args):
            raise EvaluationError("the probes failed")

        monkeypatch.setattr(evaluation_mod, "few_shot_probes", failing_probes)
        stderr = {}
        for n in (1, 2):
            cores(n)
            assert main(["eval", "--config", full_config, "--out", str(tmp_path / f"c{n}")]) == 3
            stderr[n] = capsys.readouterr().err
        assert stderr[1] == stderr[2] == "error: the probes failed\n"
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_3_naming_the_broken_pool(self, cores, full_config, monkeypatch,
                                                        tmp_path, capsys):
        cores(2)
        parent = os.getpid()
        real = evaluation_mod._arithmetic_score

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(evaluation_mod, "_arithmetic_score", dying)
        assert main(["eval", "--config", full_config, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: evaluation worker lost in ")
        assert ": BrokenProcessPool: " in err
        assert not (tmp_path / "metrics.json").exists()
        assert multiprocessing.active_children() == []

    def test_run_eval_plan_in_an_ablation_worker_starts_no_pool(self, cores, monkeypatch):
        # each cell's plan has two groups and a large index, so outside a worker
        # its evaluation would fork two workers
        cores(2)
        parent = os.getpid()
        real_run_cell = ablation_mod.run_cell

        def counting_forks(cfg):
            forks = []
            os.register_at_fork(before=lambda: forks.append(1))
            real_run_cell(cfg)
            return {"forks": float(len(forks)), "in_worker": float(os.getpid() != parent)}

        monkeypatch.setattr(ablation_mod, "run_cell", counting_forks)
        base = small_config_document()
        base["eval"]["retrieval_index_size"] = POOLED_INDEX_ITEMS
        suite = parse_ablation_suite({"base": base, "axes": [{"axis": "epochs", "grid": [1, 2]}]})
        results = run_ablation_suite(suite)
        assert [r.metrics for r in results] == [{"forks": 0.0, "in_worker": 1.0}] * 2

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_cli_leaves_no_process_in_its_session(self, full_config, tmp_path):
        src = str(Path(modbind.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "modbind", "eval", "--config", full_config,
             "--out", str(tmp_path / "out")],
            env=env, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        assert "metrics.json" in stdout
        assert session_members(proc.pid) == []


@pytest.fixture(scope="module")
def cli_space(tmp_path_factory):
    """One trained checkpoint shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(small_config_document()))
    out = root / "train"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return root, cfg_path, out


@pytest.fixture(scope="module")
def desk_checkpoint(tmp_path_factory):
    """The checkpoint `bind train --config desk.json` writes."""
    out = tmp_path_factory.mktemp("desk")
    assert main(["train", "--config", "desk.json", "--out", str(out)]) == 0
    return out / "checkpoint.json"


class TestCliTrain:
    def test_artifacts_written(self, cli_space):
        _, cfg_path, out = cli_space
        for name in ("checkpoint.json", "train_log.csv", "run_manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        cfg = parse_experiment_config(json.loads(cfg_path.read_text()))
        assert manifest["config_hash"] == cfg.hash
        assert manifest["command"] == "train"
        assert (out / "train_log.csv").read_text().startswith(f"# config_hash={cfg.hash}")

    def test_rerun_is_byte_identical(self, cli_space, tmp_path):
        _, cfg_path, out = cli_space
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        for name in ("checkpoint.json", "train_log.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_seed_override_changes_realization_not_hash(self, cli_space, tmp_path):
        _, cfg_path, out = cli_space
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path), "--seed", "9"]) == 0
        base_manifest = json.loads((out / "run_manifest.json").read_text())
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config_hash"] == base_manifest["config_hash"]
        assert manifest["seed"] == 9
        assert (tmp_path / "checkpoint.json").read_bytes() != (out / "checkpoint.json").read_bytes()

    def test_seed_override_is_parsed_once_with_the_document(self, cli_space, tmp_path, monkeypatch):
        # --seed replaces the file's seed before the one parse, as ablate's does
        _, cfg_path, _ = cli_space
        doc = json.loads(cfg_path.read_text())
        doc["seed"] = -1
        bad_seed = tmp_path / "bad_seed.json"
        bad_seed.write_text(json.dumps(doc))
        parses = []
        real = cli_mod.parse_experiment_config
        monkeypatch.setattr(cli_mod, "parse_experiment_config",
                            lambda *a, **kw: parses.append(a) or real(*a, **kw))
        assert main(["train", "--config", str(bad_seed), "--out", str(tmp_path), "--seed", "9"]) == 0
        assert len(parses) == 1
        assert json.loads((tmp_path / "run_manifest.json").read_text())["seed"] == 9

    def test_bad_seed_override_is_config_error(self, cli_space, tmp_path, capsys):
        _, cfg_path, _ = cli_space
        for command in ("train", "eval", "worldgen"):
            code = main([command, "--config", str(cfg_path), "--out", str(tmp_path), "--seed", "-1"])
            assert code == 2
            assert capsys.readouterr().err == \
                "config error: config.seed: must lie in [0, 2**32), got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_input_config_not_mutated(self, cli_space, tmp_path):
        _, cfg_path, _ = cli_space
        before = cfg_path.read_bytes()
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert cfg_path.read_bytes() == before

    def test_default_output_dir_comes_from_config(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(small_config_document()))
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "runs/test/checkpoint.json").exists()


class TestCliEval:
    def test_report_written_with_hash(self, cli_space, tmp_path):
        _, cfg_path, out = cli_space
        code = main(
            ["eval", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "metrics.json").read_text())
        cfg = parse_experiment_config(json.loads(cfg_path.read_text()))
        assert report["config_hash"] == cfg.hash
        assert report["flags"]["emergent/alpha_vs_beta"] is True
        assert (tmp_path / "metrics.csv").read_text().startswith(f"# config_hash={cfg.hash}")

    def test_rerun_is_byte_identical(self, cli_space, tmp_path):
        _, cfg_path, out = cli_space
        args = ["eval", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json")]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/metrics.json").read_bytes() == (tmp_path / "b/metrics.json").read_bytes()

    def test_failed_metrics_write_keeps_the_old_file(self, cli_space, tmp_path, monkeypatch):
        _, cfg_path, out = cli_space
        (tmp_path / "metrics.json").write_text("previous")
        real_write_text = Path.write_text

        def fail_on_metrics(self, text, *args, **kwargs):
            if "metrics.json" not in self.name:
                return real_write_text(self, text, *args, **kwargs)
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", fail_on_metrics)
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
                     "--out", str(tmp_path)])
        monkeypatch.undo()
        assert code == 4
        assert (tmp_path / "metrics.json").read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]

    def test_fresh_init_when_no_checkpoint(self, cli_space, tmp_path):
        _, cfg_path, _ = cli_space
        assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "metrics.json").read_text())
        assert "emergent_zero_shot/alpha_vs_beta" in report["metrics"]

    def test_seed_mismatch_is_config_error(self, cli_space, tmp_path, capsys):
        _, cfg_path, out = cli_space
        ckpt = str(out / "checkpoint.json")
        code = main(["eval", "--config", str(cfg_path), "--seed", "4", "--checkpoint", ckpt,
                     "--out", str(tmp_path)])
        assert code == 2
        # check_resume holds the seed rule, and its message names both seeds; a world of
        # another seed draws other numbers, so both world hashes follow
        world_cfg = parse_experiment_config(small_config_document()).world
        world_3, world_4 = (world_fingerprint_loops(make_world(world_cfg, s)) for s in (3, 4))
        message = "config error: checkpoint: state does not fit the run: extra 'seed': 3 in the " \
                  f"state, 4 in the run; 'world_hash': {world_3} in the state, {world_4} in the " \
                  "run\n"
        assert capsys.readouterr().err == message
        # retrieve has no --seed flag; the seed comes from the config document
        doc = json.loads(cfg_path.read_text())
        doc["seed"] = 4
        other = tmp_path / "seed4.json"
        other.write_text(json.dumps(doc))
        code = main(["retrieve", "--config", str(other), "--checkpoint", ckpt,
                     "--index-modality", "hub", "--query-modality", "alpha"])
        assert code == 2
        assert capsys.readouterr().err == message

    def test_checkpoint_saved_from_a_loaded_state_keeps_its_seed(self, cli_space, tmp_path, capsys):
        # a plain save of a loaded state writes the seed and config_hash it was loaded with,
        # so the copy is the same bytes and is refused under another seed, as the original is
        _, cfg_path, out = cli_space
        copy = tmp_path / "copy.json"
        save_checkpoint(load_checkpoint(out / "checkpoint.json"), copy)
        assert copy.read_bytes() == (out / "checkpoint.json").read_bytes()
        code = main(["eval", "--config", str(cfg_path), "--seed", "5", "--checkpoint", str(copy),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "extra 'seed': 3 in the state, 5 in the run" in capsys.readouterr().err

    def test_checkpoint_without_seed_still_loads(self, cli_space, tmp_path):
        # as checkpoints saved before either key existed; with a world_hash the seed 4
        # world would not be the checkpoint's
        _, cfg_path, out = cli_space
        doc = json.loads((out / "checkpoint.json").read_text())
        del doc["seed"], doc["world_hash"]
        ckpt = tmp_path / "no_seed.json"
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(cfg_path), "--seed", "4", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_checkpoint_of_another_world_is_config_error(self, cli_space, tmp_path, capsys,
                                                         monkeypatch, command):
        # the same config and seed, but make_world draws other numbers, as another version
        # of the code could: the checkpoint's world_hash names the world it was trained on
        _, cfg_path, out = cli_space
        real_make_world = cli_mod.make_world
        worlds = {}

        def nudged_make_world(config, seed):
            world = real_make_world(config, seed)
            world.observer("beta").bias[0] += 1e-9
            worlds["run"] = world
            return world

        monkeypatch.setattr(cli_mod, "make_world", nudged_make_world)
        rest = {"eval": ["--out", str(tmp_path / "out")],
                "retrieve": ["--index-modality", "hub", "--query-modality", "alpha"]}[command]
        code = main([command, "--config", str(cfg_path), "--checkpoint",
                     str(out / "checkpoint.json"), *rest])
        captured = capsys.readouterr()
        trained = world_fingerprint_loops(real_make_world(
            parse_experiment_config(small_config_document()).world, 3))
        assert code == 2
        assert captured.err == (
            f"config error: checkpoint: state does not fit the run: extra 'world_hash': "
            f"{trained} in the state, {world_fingerprint_loops(worlds['run'])} in the run\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_checkpoint_without_world_hash_still_loads(self, cli_space, tmp_path):
        # as one saved before the key existed: the same metrics, byte for byte
        _, cfg_path, out = cli_space
        doc = json.loads((out / "checkpoint.json").read_text())
        del doc["world_hash"]
        ckpt = tmp_path / "no_world_hash.json"
        ckpt.write_text(json.dumps(doc))
        for name, path in (("with", out / "checkpoint.json"), ("without", ckpt)):
            assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(path),
                         "--out", str(tmp_path / name)]) == 0
        with_hash, without = ((tmp_path / n / "metrics.json").read_bytes() for n in ("with", "without"))
        assert with_hash == without

    def test_non_finite_weight_is_runtime_error(self, cli_space, tmp_path, capsys):
        # NaN weights give NaN embeddings, which the ranking would count as hits; a
        # format 2 document of the checkpoint, whose weights are rows of numbers
        _, cfg_path, out = cli_space
        doc = json.loads(legacy_checkpoint_text(load_checkpoint(out / "checkpoint.json")))
        doc["encoders"]["alpha"]["weights"][0][0][0] = float("nan")
        ckpt = tmp_path / "poisoned.json"
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_non_number_weight_is_runtime_error(self, cli_space, tmp_path, capsys):
        # JSON true would otherwise load as the weight 1.0 (a format 2 document)
        _, cfg_path, out = cli_space
        doc = json.loads(legacy_checkpoint_text(load_checkpoint(out / "checkpoint.json")))
        doc["encoders"]["alpha"]["weights"][0][0][0] = True
        ckpt = tmp_path / "poisoned.json"
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "encoders.alpha.weights[0][0][0]: expected a number" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_non_finite_log_tau_is_runtime_error(self, cli_space, tmp_path, capsys):
        # min/max clamping keeps a NaN, which would make every logit NaN
        _, cfg_path, out = cli_space
        doc = json.loads((out / "checkpoint.json").read_text())
        doc["temperatures"]["alpha"]["log_tau"] = float("nan")
        ckpt = tmp_path / "poisoned.json"
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "log_tau must be finite" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_non_finite_weight_in_an_array_object_is_runtime_error(self, cli_space, tmp_path,
                                                                    capsys):
        _, cfg_path, out = cli_space
        doc = json.loads((out / "checkpoint.json").read_text())
        w0 = load_checkpoint(out / "checkpoint.json").encoders["alpha"].weights[0].copy()
        w0[0, 0] = float("nan")
        doc["encoders"]["alpha"]["weights"][0] = array_to_doc(w0)
        ckpt = tmp_path / "poisoned.json"
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_non_number_weight_in_an_array_object_is_runtime_error(self, cli_space, tmp_path,
                                                                    capsys):
        # a format 3 weight is an array object; true in its place is no weight at all
        _, cfg_path, out = cli_space
        doc = json.loads((out / "checkpoint.json").read_text())
        doc["encoders"]["alpha"]["weights"][0] = True
        ckpt = tmp_path / "poisoned.json"
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "encoders.alpha.weights[0]: expected an array object, got bool" in \
            capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    @staticmethod
    def huge_spoke1_weights(state):
        w0 = state.encoders["spoke1"].weights[0]
        return w0 * (1e300 / np.abs(w0).max())

    @staticmethod
    def assert_desk_eval_overflows(ckpt, tmp_path, capsys):
        for action in ("error", "ignore"):  # whatever becomes of NumPy's overflow warnings
            out = tmp_path / action
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                code = main(["eval", "--config", "desk.json", "--checkpoint", str(ckpt),
                             "--out", str(out)])
            assert code == 3
            assert "degenerate embeddings" in capsys.readouterr().err
            assert not (out / "metrics.json").exists()

    def test_overflowing_weights_are_runtime_error(self, desk_checkpoint, tmp_path, capsys):
        # finite weights pass load_checkpoint; at 1e300 every spoke1 embedding
        # overflows, and rows without a direction would score at chance with exit 0
        # (a format 2 document)
        state = load_checkpoint(desk_checkpoint)
        doc = json.loads(legacy_checkpoint_text(state))
        doc["encoders"]["spoke1"]["weights"][0] = self.huge_spoke1_weights(state).tolist()
        ckpt = tmp_path / "huge.json"
        ckpt.write_text(json.dumps(doc))
        self.assert_desk_eval_overflows(ckpt, tmp_path, capsys)

    def test_overflowing_weights_in_an_array_object_are_runtime_error(self, desk_checkpoint,
                                                                      tmp_path, capsys):
        doc = json.loads(desk_checkpoint.read_text())
        huge = self.huge_spoke1_weights(load_checkpoint(desk_checkpoint))
        doc["encoders"]["spoke1"]["weights"][0] = array_to_doc(huge)
        ckpt = tmp_path / "huge.json"
        ckpt.write_text(json.dumps(doc))
        self.assert_desk_eval_overflows(ckpt, tmp_path, capsys)

    def test_checkpoint_not_utf8_is_runtime_error(self, cli_space, tmp_path, capsys):
        _, cfg_path, _ = cli_space
        ckpt = tmp_path / "bad.json"
        ckpt.write_bytes(b"\xff\xfe\x00garbage")
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "corrupt checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("key, bad, seed, message", [
        ("version", 2.0, None, "unsupported checkpoint version 2.0"),
        ("version", True, None, "unsupported checkpoint version True"),
        ("seed", True, "1", "corrupt checkpoint: seed must be"),
        ("seed", 0.0, "0", "corrupt checkpoint: seed must be"),
        ("config_hash", 7, None, "corrupt checkpoint: config_hash must be"),
    ], ids=["version-2.0", "version-true", "seed-true", "seed-0.0", "config_hash-7"])
    def test_checkpoint_header_of_wrong_type_is_runtime_error(
        self, cli_space, tmp_path, capsys, key, bad, seed, message
    ):
        # each of these once compared equal to the run's value, and the eval went ahead
        _, cfg_path, out = cli_space
        doc = json.loads((out / "checkpoint.json").read_text())
        doc[key] = bad
        ckpt = tmp_path / "header.json"
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)] + (["--seed", seed] if seed else []))
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_checkpoint_config_mismatch_is_config_error(self, cli_space, tmp_path, capsys):
        _, cfg_path, out = cli_space
        doc = json.loads(cfg_path.read_text())
        doc["train"]["epochs"] += 1
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        code = main(
            ["eval", "--config", str(other), "--checkpoint", str(out / "checkpoint.json"),
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "config_hash does not match" in capsys.readouterr().err

    # the cli_space checkpoint's alpha arch, as the error prints it
    ALPHA_ARCH = repr(parse_experiment_config(small_config_document()).archs["alpha"])

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    @pytest.mark.parametrize("edit, message", [
        ("frozen spoke", "state does not fit the run: encoders 'alpha': "
         f"{{'arch': {ALPHA_ARCH}, 'frozen': True}} in the state, "
         f"{{'arch': {ALPHA_ARCH}, 'frozen': False}} in the run"),
        ("no temperature", "state does not fit the run: temperatures 'alpha': missing in the "
         "state, {'mode': 'learnable', 'value': 0.07} in the run"),
    ], ids=["frozen spoke", "no temperature"])
    def test_checkpoint_that_could_not_continue_its_run_is_config_error(
        self, cli_space, tmp_path, capsys, command, edit, message
    ):
        # train_run would refuse to resume from either; eval and retrieve apply its rules
        _, cfg_path, out = cli_space
        doc = json.loads((out / "checkpoint.json").read_text())
        if edit == "frozen spoke":
            doc["encoders"]["alpha"]["frozen"] = True
        else:
            del doc["temperatures"]["alpha"], doc["tau_moments"]["alpha"]
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(doc))
        rest = {"eval": ["--out", str(tmp_path / "out")],
                "retrieve": ["--index-modality", "hub", "--query-modality", "alpha"]}[command]
        code = main([command, "--config", str(cfg_path), "--checkpoint", str(ckpt), *rest])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"config error: checkpoint: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_checkpoint_without_a_hash_under_other_temperatures_is_config_error(
        self, cli_space, tmp_path, capsys
    ):
        # with no config_hash to compare, the layout check keeps a learnable temperature's
        # state from being read under a fixed-temperature config
        _, _, out = cli_space
        ckpt_doc = json.loads((out / "checkpoint.json").read_text())
        del ckpt_doc["config_hash"]
        ckpt = tmp_path / "no_hash.json"
        ckpt.write_text(json.dumps(ckpt_doc))
        doc = small_config_document()
        for pair in doc["train"]["pairs"]:
            pair["temperature"] = {"mode": "fixed", "value": 0.5}
        cfg_path = tmp_path / "fixed_tau.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out")])
        learnable, fixed = "{'mode': 'learnable', 'value': 0.07}", "{'mode': 'fixed', 'value': 0.5}"
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: checkpoint: state does not fit the run: temperatures 'alpha': "
            f"{learnable} in the state, {fixed} in the run; 'beta': {learnable} in the state, "
            f"{fixed} in the run\n"
        )
        assert not (tmp_path / "out").exists()

    def test_checkpoint_of_a_frozen_hub_run_is_read(self, tmp_path):
        doc = small_config_document()
        doc["train"]["hub_frozen"] = True
        cfg_path = tmp_path / "frozen_hub.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert load_checkpoint(out / "checkpoint.json").encoders["hub"].frozen
        ckpt = str(out / "checkpoint.json")
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", ckpt, "--out", str(out)]) == 0
        assert main(["retrieve", "--config", str(cfg_path), "--checkpoint", ckpt,
                     "--index-modality", "hub", "--query-modality", "alpha"]) == 0


class TestCliRetrieve:
    def test_self_retrieval_ranks_query_first(self, cli_space, capsys):
        _, cfg_path, out = cli_space
        code = main(
            ["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
             "--index-modality", "alpha", "--query-modality", "alpha", "--query-id", "2", "--k", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,id,similarity"
        assert len(lines) == 4
        rank, item, sim = lines[1].split(",")
        assert (rank, item) == ("1", "2")
        assert abs(float(sim) - 1.0) <= 1e-9

    @staticmethod
    def replay(cfg_path, out, mods, stream):
        """(n, {modality: embedded view}) of a ranked draw of `mods` from `stream`, as the
        sampler oracle replays it."""
        cfg = parse_experiment_config(json.loads(cfg_path.read_text()))
        world = make_world(cfg.world, cfg.seed)
        encoders = load_checkpoint(out / "checkpoint.json").encoders
        n = cfg.eval_plan.retrieval_index_size
        obs = observations_replay(world, mods, np.arange(n) % world.num_classes,
                                  world.within_class_scale, world.stream(stream))
        return n, {m: embed(encoders[m], obs[m]) for m in mods}

    def test_compose_endpoint_ranks_as_its_first_view(self, cli_space, capsys):
        # at w=1 a composition ranks as its first view of the ensemble's draw; a plain query
        # of that view ranks the other draw, of recall_at_K/alpha_to_hub, as `bind eval` does
        _, cfg_path, out = cli_space
        common = ["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
                  "--index-modality", "hub", "--query-id", "4", "--k", "5"]
        assert main(common + ["--compose", "alpha+beta", "--compose-weight", "1.0"]) == 0
        composed = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        n, emb = self.replay(cfg_path, out, ["hub", "alpha", "beta"], "eval/ensemble/alpha_beta")
        sims = emb["alpha"] @ emb["hub"].T
        assert [int(j) for _, j, _ in composed] == sorted(range(n), key=lambda j: (-sims[4, j], j))[:5]
        assert [float(sim) for _, _, sim in composed] == [sims[4, int(j)] for _, j, _ in composed]
        assert main(common + ["--query-modality", "alpha"]) == 0
        plain = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [sim for _, _, sim in plain] != [sim for _, _, sim in composed]

    def test_printed_similarities_are_the_batch_values(self, cli_space, capsys):
        # the query is embedded in the batch of all items that `bind eval` ranks, drawn from
        # the stream of the measurement whose items it ranks
        _, cfg_path, out = cli_space
        common = ["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
                  "--index-modality", "hub"]
        for query, mods, stream in (
            (["--query-modality", "alpha"], ["alpha", "hub"], "eval/retrieval/alpha_to_hub"),
            (["--compose", "alpha+beta"], ["hub", "alpha", "beta"], "eval/ensemble/alpha_beta"),
        ):
            n, emb = self.replay(cfg_path, out, mods, stream)
            queries = emb["alpha"] if len(mods) == 2 else embed_arithmetic(emb["alpha"], emb["beta"])
            batch = queries @ emb["hub"].T
            for qid in (0, 7, n - 1):
                assert main(common + query + ["--query-id", str(qid), "--k", str(n)]) == 0
                rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
                assert [int(j) for _, j, _ in rows] == sorted(range(n), key=lambda j: (-batch[qid, j], j))
                assert [float(sim) for _, _, sim in rows] == [batch[qid, int(j)] for _, j, _ in rows]

    def test_prints_the_ranked_items(self, cli_space, capsys):
        _, cfg_path, out = cli_space
        assert main(["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
                     "--index-modality", "hub", "--compose", "alpha+beta", "--compose-weight", "0.25",
                     "--query-id", "3", "--k", "7"]) == 0
        cfg = parse_experiment_config(json.loads(cfg_path.read_text()))
        items = ranked_items(make_world(cfg.world, cfg.seed), load_checkpoint(out / "checkpoint.json"),
                             cfg.eval_plan, "hub", ("alpha", "beta"), 0.25, 3, 7)
        assert capsys.readouterr().out == "rank,id,similarity\n" + "".join(
            f"{rank},{j},{sim!r}\n" for rank, (j, sim) in enumerate(items, start=1))

    @pytest.mark.parametrize("compose", ["hub+alpha", "alpha+hub", "alpha+alpha"])
    def test_compose_of_the_index_or_one_view_twice_rejected(self, cli_space, capsys, compose):
        # the ensemble composes two views of its own; one of the index's would find itself
        _, cfg_path, out = cli_space
        code = main(["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
                     "--index-modality", "hub", "--compose", compose])
        assert code == 2
        assert "--compose" in capsys.readouterr().err

    def test_compose_midpoint_runs(self, cli_space, capsys):
        _, cfg_path, out = cli_space
        code = main(
            ["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
             "--index-modality", "hub", "--compose", "alpha+beta", "--query-id", "0", "--k", "5"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6

    def test_malformed_compose_rejected(self, cli_space, capsys):
        _, cfg_path, out = cli_space
        code = main(
            ["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
             "--index-modality", "hub", "--compose", "alpha+beta+hub"]
        )
        assert code == 2
        capsys.readouterr()

    def test_query_modality_or_compose_required(self, cli_space, capsys):
        _, cfg_path, out = cli_space
        code = main(
            ["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
             "--index-modality", "hub"]
        )
        assert code == 2
        assert "--query-modality" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["2", "-0.5", "nan"])
    def test_compose_weight_outside_unit_interval_rejected(self, cli_space, capsys, weight):
        _, cfg_path, out = cli_space
        code = main(
            ["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
             "--index-modality", "hub", "--compose", "alpha+beta", "--compose-weight", weight]
        )
        assert code == 2
        assert "--compose-weight" in capsys.readouterr().err

    def test_query_id_out_of_range_rejected(self, cli_space, capsys):
        _, cfg_path, out = cli_space
        code = main(
            ["retrieve", "--config", str(cfg_path), "--checkpoint", str(out / "checkpoint.json"),
             "--index-modality", "hub", "--query-modality", "alpha", "--query-id", "99"]
        )
        assert code == 2
        capsys.readouterr()


class TestCliWorldgenAndErrors:
    def test_worldgen_embeds_config_hash(self, cli_space, tmp_path):
        _, cfg_path, _ = cli_space
        assert main(["worldgen", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "world.json").read_text())
        assert doc["kind"] == "world"
        cfg = parse_experiment_config(json.loads(cfg_path.read_text()))
        assert doc["config_hash"] == cfg.hash

    def test_bundled_config_name_resolves(self, tmp_path):
        assert main(["worldgen", "--config", "desk.json", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "world.json").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        doc = small_config_document()
        del doc["train"]["epochs"]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "config.train.epochs" in capsys.readouterr().err

    def test_config_nested_too_deep_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b"\xff\xfe\x00garbage")
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["worldgen", "train"])
    def test_inverted_temperature_clamps_exit_2(self, tmp_path, capsys, command):
        doc = json.loads(resources.files("modbind").joinpath("configs", "desk.json").read_text())
        doc["train"]["pairs"][0]["temperature"] = {
            "mode": "learnable", "value": 0.07, "clamp_min": 1.0, "clamp_max": 0.5
        }
        cfg_path = tmp_path / "clamps.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "config.train.pairs[0].temperature" in capsys.readouterr().err

    def test_pool_smaller_than_a_batch_exits_2(self, tmp_path, capsys):
        # desk trains 30 batches of 64 per pair and epoch; replicated 100 times, that
        # is a pool of 20 samples, so every batch would repeat each one about 3 times
        doc = json.loads(resources.files("modbind").joinpath("configs", "desk.json").read_text())
        doc["train"]["pairs"][0]["replication_factor"] = 100
        cfg_path = tmp_path / "replicated.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config.train" in err and "pool of 20 samples, fewer than its batch_size 64" in err
        assert not out.exists()

    def test_pair_without_a_loss_exits_2(self, tmp_path, capsys):
        doc = small_config_document()
        doc["train"]["pairs"][1].update(infonce_weight=0.0, l2_weight=0.0)
        cfg_path = tmp_path / "no_loss.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config.train.pairs[1]" in err and "infonce_weight and l2_weight are both 0" in err
        assert not out.exists()

    def test_shared_temperature_over_unequal_pair_temperatures_exits_2(self, tmp_path, capsys):
        # the checkpoint would hold the first pair's temperature for every pair
        doc = json.loads(resources.files("modbind").joinpath("configs", "desk.json").read_text())
        doc["train"]["shared_temperature"] = True
        doc["train"]["pairs"][1]["temperature"] = {"mode": "fixed", "value": 0.2}
        cfg_path = tmp_path / "shared.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config.train: shared_temperature needs equal temperatures" in err
        assert "'spoke1' has {'mode': 'fixed', 'value': 0.2}" in err
        assert not out.exists()

    @pytest.mark.parametrize("eval_keys, message", [
        ({"retrieval_pairs": [["alpha", "beta"], ["alpha", "alpha"]]},
         "config.eval: retrieval_pairs[1] ranks 'alpha' against itself"),
        ({"retrieval_pairs": [["hub", "hub"]]},
         "config.eval: retrieval_pairs[0] ranks 'hub' against itself"),
        ({"ensemble_pair": ["beta", "beta"], "ensemble_weights": [0.5]},
         "config.eval: ensemble_pair names 'beta' twice"),
        ({"ensemble_pair": ["hub", "alpha"], "ensemble_weights": [1.0]},
         "config.eval.ensemble_pair: must not name the hub 'hub'"),
        ({"ensemble_pair": ["alpha", "hub"], "ensemble_weights": [0.0]},
         "config.eval.ensemble_pair: must not name the hub 'hub'"),
    ], ids=["retrieval alpha to alpha", "retrieval hub to hub", "ensemble beta twice",
            "ensemble hub first", "ensemble hub second"])
    def test_measurement_that_ranks_a_view_against_itself_exits_2(
        self, tmp_path, capsys, eval_keys, message
    ):
        # the query would find itself in the index: recall 1.0 on an untrained state
        doc = small_config_document()
        doc["eval"].update(eval_keys)
        cfg_path = tmp_path / "self.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_half_configured_measurements_exit_2(self, tmp_path, capsys):
        # each named measurement without its sizes would be left out of metrics.json
        doc = json.loads(resources.files("modbind").joinpath("configs", "desk.json").read_text())
        doc["eval"].update(few_shot_ks=[], ensemble_weights=[])
        del doc["eval"]["arithmetic_queries"]
        cfg_path = tmp_path / "half.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for command in ("train", "eval"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config.eval: few_shot_modality and few_shot_ks are set together" in err
            assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path, capsys):
        doc = small_config_document()
        doc["train"]["learning_rate"] = 1e18
        doc["train"]["warmup_epochs"] = 0.0
        cfg_path = tmp_path / "diverge.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
        assert "non-finite loss" in capsys.readouterr().err

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 4
        assert "not found" in capsys.readouterr().err

    def test_ablate_runs_explicit_axes(self, tmp_path, capsys):
        suite_doc = {
            "base": small_config_document(),
            "axes": [{"axis": "epochs", "grid": [1, 2]}],
            "seeds": [0],
        }
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite_doc))
        assert main(["ablate", "--config", str(suite_path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        long_lines = (tmp_path / "ablation_long.csv").read_text().splitlines()
        assert long_lines[1] == "axis,value,seed,status,config_hash,metric,metric_value"
        assert (tmp_path / "ablation_summary.csv").exists()
        manifest = json.loads((tmp_path / "ablate_manifest.json").read_text())
        assert manifest["cells"] == 2
        assert manifest["failures"] == 0


    @pytest.mark.parametrize("axis, value, message", [
        ("alignment", "sideways", "alignment: must be one of ['aligned', 'class_only'], got 'sideways'"),
        ("noise_strength", -1.0, "noise_strength: must be >= 0, got -1.0"),
    ])
    def test_ablate_value_outside_the_axis_exits_2(self, tmp_path, capsys, axis, value, message):
        suite_doc = {"base": small_config_document(), "axes": [{"axis": axis, "grid": [value]}]}
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite_doc))
        out = tmp_path / "out"
        assert main(["ablate", "--config", str(suite_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"suite.axes[0].grid[0]: {message}" in captured.err
        assert not out.exists()

    def test_ablate_negative_seed_exits_2_before_any_cell(self, tmp_path, capsys):
        suite_doc = {"base": small_config_document(), "axes": [{"axis": "epochs", "grid": [1, 2]}]}
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite_doc))
        out = tmp_path / "out"
        for seed in ("-1", str(2**32)):
            code = main(["ablate", "--config", str(suite_path), "--seed", seed, "--out", str(out)])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "suite.seeds" in captured.err
            assert not out.exists()


class TestCliDeskBudget:
    def test_all_subcommands_fit_the_time_budget(self, tmp_path, capsys):
        # whole tour of the bundled configs must stay under five minutes
        start = time.perf_counter()
        assert main(["worldgen", "--config", "desk.json", "--out", str(tmp_path / "w")]) == 0
        assert main(["train", "--config", "desk.json", "--out", str(tmp_path / "t")]) == 0
        ckpt = str(tmp_path / "t" / "checkpoint.json")
        code = main(
            ["eval", "--config", "desk.json", "--checkpoint", ckpt, "--out", str(tmp_path / "e")]
        )
        assert code == 0
        code = main(
            ["retrieve", "--config", "desk.json", "--checkpoint", ckpt,
             "--index-modality", "hub", "--compose", "textlike+spoke1", "--query-id", "0", "--k", "5"]
        )
        assert code == 0
        assert main(["ablate", "--config", "ablate_quick.json", "--out", str(tmp_path / "a")]) == 0
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert elapsed < 300.0
