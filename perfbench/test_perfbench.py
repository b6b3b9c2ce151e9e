"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["trainer.train_run", 1.0, 4.0, 0, 0, None],
        ["encoders.encode", 3.0, 6.0, 0, 0, None],  # overlaps train_run by 1
        ["world.make_world", 9.0, 12.0, 0, 0, None],  # runs 2 past its parent
        ["trainer.adamw_step", 2.0, 3.0, 1, 0, None],
        ["trainer.save_checkpoint", 20.0, 21.0, -1, None, {"bytes": 7}],  # outside any op
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 3.0, 3.0, 1.0, 1.0]

    summary = spans.Summary(tree, n_ops=2)
    # Nested spans of one layer both count: 2 (train_run) + 1 (adamw_step).
    assert summary.self_s("trainer") == 1.5
    assert summary.self_s("cli") == 2.0
    assert summary.self_s("encoders") == 1.5
    assert summary.self_s("report") == 0.0
    assert summary.calls("trainer.adamw_step") == 0.5
    assert summary.per_call("trainer.save_checkpoint", 1e3) == 1000.0
    assert summary.info_mean("trainer.save_checkpoint", "bytes") == 7


def test_tail_is_p90_until_it_has_ten_samples_beyond():
    assert run.tail([3.0]) == (3.0, 100.0, 0)
    assert run.tail([float(v) for v in range(1, 21)]) == (18.0, 90.0, 2)
    value, pct, beyond = run.tail([float(v) for v in range(1, 201)])
    assert (value, pct, beyond) == (190.0, 95.0, 10)


@pytest.fixture
def tiny_config(tmp_path):
    doc = json.loads((ROOT / "src" / "modbind" / "configs" / "desk.json").read_text())
    doc["train"].update(epochs=1, steps_per_epoch=12)
    doc["eval"].update(retrieval_index_size=40, arithmetic_queries=20, n_per_class=8)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def test_traced_run_intercepts_calls_restores_every_name_and_changes_no_output(tmp_path, tiny_config):
    originals = {(o, a): getattr(spans.resolve(o), a) for o, a, _, _ in spans.WRAPS}

    def train_and_eval(out):
        assert run.call_cli(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert run.call_cli(["eval", "--config", str(tiny_config), "--out", str(out),
                             "--checkpoint", str(out / "checkpoint.json")]) == 0

    train_and_eval(tmp_path / "plain")
    tracer = spans.Tracer()
    with tracer.installed(op=0):
        with tracer.span(spans.OP_SPAN):
            train_and_eval(tmp_path / "traced")

    assert {(o, a): getattr(spans.resolve(o), a) for o, a, _, _ in spans.WRAPS} == originals
    for name in ("checkpoint.json", "train_log.csv", "metrics.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    summary = spans.Summary(tracer.spans, n_ops=1)
    assert summary.calls("trainer.adamw_step") == 3 * 12  # spoke, hub and temperature per step
    assert summary.info_total("trainer.train_run", "steps") == 12
    assert summary.calls("evaluation.cross_modal_recall_at_k") > 0
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_round_trips_record_every_sample_and_catch_changed_bytes(tmp_path, tiny_config):
    assert run.call_cli(["train", "--config", str(tiny_config), "--out", str(tmp_path)]) == 0
    ckpt = tmp_path / "checkpoint.json"
    trips = run.RoundTrips(tmp_path / "roundtrip.json")
    assert trips.sample(ckpt, 3) == []
    assert len(trips.loads) == len(trips.saves) == 3

    reformatted = tmp_path / "reformatted.json"
    reformatted.write_text(json.dumps(json.loads(ckpt.read_text()), indent=2))
    assert trips.sample(reformatted, 3) != []
    assert len(trips.saves) == 4  # stops at the first changed round trip


def test_wrapped_names_are_restored_when_the_operation_raises():
    originals = {(o, a): getattr(spans.resolve(o), a) for o, a, _, _ in spans.WRAPS}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(op=0):
            assert spans.resolve("modbind.trainer").adamw_step is not originals[("modbind.trainer", "adamw_step")]
            raise RuntimeError("op failed")
    assert {(o, a): getattr(spans.resolve(o), a) for o, a, _, _ in spans.WRAPS} == originals


def test_metric_names_are_valid_and_within_limits():
    e2e, per_layer = BENCH["end_to_end"], BENCH["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in e2e + per_layer + BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_benchmark_json_lists_exactly_what_the_run_computes():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in spans.METRICS
    ]
    workload = run.TrainDesk(seed=0, work=Path("unused"))
    workload.quality = [{run.EMERGENT_KEY: 0.8, run.RECALL_KEY: 0.5}]
    records = [run.OpRecord(4.0, False, []), run.OpRecord(5.0, False, ["bad"])]
    trips = run.RoundTrips(Path("unused"))
    trips.loads, trips.saves = [0.01], [0.02]
    values, _ = run.end_to_end(workload, records, [0.2], trips)
    assert sorted(values) == sorted(m["name"] for m in BENCH["end_to_end"])
    assert values["ok_ops_ratio"] == 0.5
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
