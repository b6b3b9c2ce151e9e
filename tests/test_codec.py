"""Tests for the dataclass codec behind configs and checkpoints."""

import base64
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from modbind.codec import (
    CONFIG_REQUIRED,
    OMIT_DEFAULT,
    RUN_STATE,
    ConfigError,
    array_from_doc,
    array_to_doc,
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
    # rows: the nested lists of checkpoint formats 1 and 2
    assert from_doc(Inner, {"x": 2}).x == 2.0
    assert isinstance(from_doc(Inner, {"x": 2}).x, float)
    arr = decode(np.ndarray, [[1, 2], [3, 4]], "w", rows=True)
    assert arr.dtype == np.float64 and arr.shape == (2, 2)
    with pytest.raises(ConfigError, match="^w: expected a numeric array"):
        decode(np.ndarray, [[1, 2], [3]], "w", rows=True)


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
        decode(np.ndarray, value, "w", rows=True)
    assert err.value.path == path
    assert message in str(err.value)


# values whose bits a text form could lose: -0.0, a subnormal, the extremes, a NaN payload
AWKWARD = [-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308, 0.1, 1 / 3]


@pytest.mark.parametrize("shape", [(6,), (2, 3), (3, 2, 1), (0,), (0, 4), ()])
def test_array_objects_keep_every_bit(shape):
    size = math.prod(shape)
    a = np.resize(np.array(AWKWARD + [np.nan]), size).reshape(shape)
    doc = array_to_doc(a)
    assert doc["shape"] == list(shape) and all(type(n) is int for n in doc["shape"])
    raw = base64.b64decode(doc["data"], validate=True)
    assert raw == a.astype("<f8").tobytes()  # little-endian float64, element by element
    back = decode(np.ndarray, doc, "w")
    assert back.dtype == np.float64 and back.shape == shape and back.tobytes() == a.tobytes()
    # the decoded form is one the encoder writes again, character for character
    assert array_to_doc(back) == doc


def test_arrays_inside_dataclasses_become_array_objects():
    @dataclass
    class Holder:
        arrays: list[np.ndarray]

    value = Holder([np.arange(3.0), np.eye(2)])
    doc = to_doc(value)
    assert doc == {"arrays": [array_to_doc(np.arange(3.0)), array_to_doc(np.eye(2))]}
    back = from_doc(Holder, doc)
    assert [a.tobytes() for a in back.arrays] == [a.tobytes() for a in value.arrays]
    with pytest.raises(ConfigError, match=r"^value\.arrays\[0\]: expected an array object"):
        from_doc(Holder, {"arrays": [[0.0, 1.0, 2.0]]})  # rows need rows=True


def _blob(values, shape=None):
    a = np.asarray(values, dtype=np.float64)
    return {"shape": list(a.shape if shape is None else shape), "data": array_to_doc(a)["data"]}


@pytest.mark.parametrize(
    "doc, path, message",
    [
        (True, "w", "expected an array object, got bool"),
        (1.5, "w", "expected an array object, got float"),
        ([1.0, 2.0], "w", "expected an array object, got list"),
        ({"shape": [1]}, "w.data", "missing required field"),
        ({**_blob([1.0]), "dtype": "<f8"}, "w.dtype", "unknown key"),
        ({"shape": (1,), "data": _blob([1.0])["data"]}, "w.shape", "expected a list"),
        ({"shape": [True], "data": _blob([1.0])["data"]}, "w.shape", "non-negative integers"),
        ({"shape": [1.0], "data": _blob([1.0])["data"]}, "w.shape", "non-negative integers"),
        ({"shape": [-1], "data": _blob([1.0])["data"]}, "w.shape", "non-negative integers"),
        ({"shape": 1, "data": _blob([1.0])["data"]}, "w.shape", "non-negative integers"),
        ({"shape": [1], "data": 1.0}, "w.data", "expected a base64 string, got float"),
        ({"shape": [1], "data": [1.0]}, "w.data", "expected a base64 string, got list"),
        (_blob([1.0, 2.0], shape=[3]), "w.data", "16 bytes for shape [3], expected 24"),
        (_blob([1.0, 2.0], shape=[1]), "w.data", "16 bytes for shape [1], expected 8"),
        (_blob([1.0, 2.0], shape=[2, 2]), "w.data", "expected 32"),
        ({"shape": [1], "data": _blob([1.0])["data"][:-4]}, "w.data", "bytes for shape [1]"),
        ({"shape": [1], "data": _blob([1.0])["data"][:-1]}, "w.data", "invalid base64"),
        ({"shape": [1], "data": "*" + _blob([1.0])["data"][1:]}, "w.data", "invalid base64"),
        ({"shape": [1], "data": _blob([1.0])["data"] + "\n"}, "w.data", "invalid base64"),
        ({"shape": [1], "data": "\u00e9" + _blob([1.0])["data"][1:]}, "w.data", "invalid base64"),
        ({"shape": [1], "data": _blob([1.0])["data"] + "="}, "w.data", "invalid base64"),
        # 8 bytes end on a short group of 2: its last character carries 2 unused bits,
        # which the encoder writes as zeros; "A" -> "B" sets one
        ({"shape": [1], "data": "AAAAAAAAAAB="}, "w.data", "not the encoding of its bytes"),
    ],
    ids=["true", "number", "rows", "no data", "unknown key", "tuple shape", "bool in shape",
         "float in shape", "negative shape", "shape not a list", "data a number",
         "data a list", "too few bytes", "too many bytes", "shape of too many", "truncated group",
         "truncated character", "non-base64 character", "newline", "non-ascii character",
         "extra padding", "unused bits set"],
)
def test_array_objects_are_read_strictly(doc, path, message):
    with pytest.raises(ConfigError) as err:
        array_from_doc(doc, "w")
    assert err.value.path == path
    assert message in str(err.value)


def test_negative_zero_reads_as_zero_in_a_config_document_only():
    # a config that says -0.0 says 0.0, and must hash as it; checkpoint floats keep their bits
    assert math.copysign(1.0, decode(float, -0.0, "x", config=True)) == 1.0
    assert math.copysign(1.0, decode(list[float], [-0.0], "x", config=True)[0]) == 1.0
    assert math.copysign(1.0, decode(float, -0.0, "x")) == -1.0
