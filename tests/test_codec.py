"""Tests for the dataclass codec behind configs and checkpoints."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from modbind.codec import (
    CONFIG_REQUIRED,
    OMIT_DEFAULT,
    RUN_STATE,
    ConfigError,
    decode,
    from_doc,
    to_doc,
)


@dataclass
class Inner:
    x: float
    tag: str | None = None


@dataclass
class Outer:
    inners: list[Inner]
    pair: tuple[int, int] = (0, 1)
    widths: tuple[int, ...] = ()
    run_only: int = field(default=0, metadata=RUN_STATE)
    knob: float = field(default=1.0, metadata=OMIT_DEFAULT)
    must: bool = field(default=False, metadata=CONFIG_REQUIRED)

    def __post_init__(self):
        if self.pair[0] > self.pair[1]:
            raise ValueError("pair must be ordered")


def test_full_document_round_trips():
    value = Outer([Inner(0.5, "a"), Inner(2.0)], pair=(1, 3), widths=(4, 5), run_only=7, knob=2.0)
    doc = to_doc(value)
    assert doc == {
        "inners": [{"x": 0.5, "tag": "a"}, {"x": 2.0, "tag": None}],
        "pair": [1, 3],
        "widths": [4, 5],
        "run_only": 7,
        "knob": 2.0,
        "must": False,
    }
    assert from_doc(Outer, doc) == value


def test_config_document_leaves_out_run_state_and_default_marked_fields():
    assert to_doc(Outer([], run_only=7), config=True) == {
        "inners": [], "pair": [0, 1], "widths": [], "must": False
    }
    assert to_doc(Outer([], knob=3.0), config=True)["knob"] == 3.0


def test_config_document_keys():
    with pytest.raises(ConfigError, match=r"^value\.must: missing required field"):
        from_doc(Outer, {"inners": []}, config=True)
    with pytest.raises(ConfigError, match=r"^value\.run_only: unknown key"):
        from_doc(Outer, {"inners": [], "must": True, "run_only": 1}, config=True)
    built = from_doc(Outer, {"inners": [], "must": True}, config=True, run_only=4)
    assert (built.run_only, built.knob) == (4, 1.0)


@pytest.mark.parametrize(
    "doc, path, message",
    [
        ({"inners": [{"x": True}]}, "value.inners[0].x", "expected a number"),
        ({"inners": [{"x": 1, "tag": 3}]}, "value.inners[0].tag", "expected a string"),
        ({"inners": [], "pair": [1]}, "value.pair", "expected exactly 2 values"),
        ({"inners": [], "pair": [False, 1]}, "value.pair[0]", "expected an integer"),
        ({"inners": [], "widths": [1, 2.5]}, "value.widths[1]", "expected an integer"),
        ({"inners": {}}, "value.inners", "expected a list"),
        ({"inners": [3]}, "value.inners[0]", "expected an object"),
        ({"inners": [], "pair": [2, 1]}, "value", "pair must be ordered"),
    ],
)
def test_errors_name_their_path(doc, path, message):
    with pytest.raises(ConfigError) as err:
        from_doc(Outer, doc)
    assert err.value.path == path
    assert message in str(err.value)


def test_int_becomes_float_and_arrays_decode():
    assert from_doc(Inner, {"x": 2}).x == 2.0
    assert isinstance(from_doc(Inner, {"x": 2}).x, float)
    arr = decode(np.ndarray, [[1, 2], [3, 4]], "w")
    assert arr.dtype == np.float64 and arr.shape == (2, 2)
    with pytest.raises(ConfigError, match="^w: expected a numeric array"):
        decode(np.ndarray, [[1, 2], [3]], "w")


@pytest.mark.parametrize(
    "value, path, message",
    [
        ([[1.0, True], [2.0, 3.0]], "w[0][1]", "expected a number, got bool"),
        ([[1.0, 2.0], [3.0, "0.5"]], "w[1][1]", "expected a number, got str"),
        ([0.5, False], "w[1]", "expected a number, got bool"),
        ([[1.0], None], "w[1]", "expected a list"),
        ([1.0, [2.0]], "w[1]", "expected a number"),
        ([[[1.0]], [[2.0]]], "w[0][0]", "expected a number, got list"),
        ("0.5", "w", "expected a list"),
    ],
    ids=["bool", "string", "bool_in_row", "row_not_a_list", "list_in_row", "three_levels", "not_a_list"],
)
def test_arrays_take_only_numbers(value, path, message):
    # np.asarray would read true as 1.0 and "0.5" as 0.5
    with pytest.raises(ConfigError) as err:
        decode(np.ndarray, value, "w")
    assert err.value.path == path
    assert message in str(err.value)


def test_negative_zero_reads_as_zero_in_a_config_document_only():
    # a config that says -0.0 says 0.0, and must hash as it; checkpoint floats keep their bits
    assert math.copysign(1.0, decode(float, -0.0, "x", config=True)) == 1.0
    assert math.copysign(1.0, decode(list[float], [-0.0], "x", config=True)[0]) == 1.0
    assert math.copysign(1.0, decode(float, -0.0, "x")) == -1.0
