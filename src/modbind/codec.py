"""One JSON codec for modbind's dataclasses: configs, eval plans, checkpoint parts.

`to_doc` and `from_doc` walk `dataclasses.fields` and the field types, so no
dataclass carries serialization code of its own. Decoding checks only the
JSON shape: unknown and missing keys, JSON types (a bool is never a number,
and in a config document neither is the NaN or Infinity that Python's json
module reads), list lengths of fixed tuples. A config document's -0.0 reads
as 0.0; a checkpoint's floats keep their bits. Every range and choice rule
lives in the constructor of the dataclass that owns it; its error comes
back as a ConfigError naming the object's path.

A full document (a checkpoint part) holds every field. A config document
leaves out fields marked RUN_STATE and fields marked OMIT_DEFAULT while they
hold their default. Config hashes are taken over config documents, so these
two marks are part of every hash. A config document must also hold the
fields marked CONFIG_REQUIRED, whose defaults serve library callers only.

No config holds an array: `np.ndarray` fields are checkpoint parts. An array
is written as an array object, {"shape": [...], "data": "<base64>"}, whose
data is the array's little-endian float64 bytes (`array_to_doc` and
`array_from_doc`), so no float is formatted or parsed. Checkpoint formats 1
and 2 wrote nested lists of numbers instead; `rows=True` reads those.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import math
import types
import typing

import numpy as np

RUN_STATE = {"config": "never"}  # set by the run, not by a config document
OMIT_DEFAULT = {"config": "unless_default"}
CONFIG_REQUIRED = {"config": "required"}

_NUMBER_TYPES = {int, float}  # exact types: a bool is an int subclass, but not a number here


class ConfigError(ValueError):
    """Validation failure; the message always starts with the document path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _in_config(f: dataclasses.Field, value) -> bool:
    rule = f.metadata.get("config")
    return rule != "never" and not (rule == "unless_default" and value == f.default)


def to_doc(value, config: bool = False):
    """JSON-ready form: dataclasses become objects in field order, tuples lists and arrays
    array objects."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: to_doc(getattr(value, f.name), config)
            for f in dataclasses.fields(value)
            if not config or _in_config(f, getattr(value, f.name))
        }
    if isinstance(value, dict):
        return {k: to_doc(v, config) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_doc(v, config) for v in value]
    if isinstance(value, np.ndarray):
        return array_to_doc(value)
    return value


def array_to_doc(a: np.ndarray) -> dict:
    """The array object of `a`: its shape, and its little-endian float64 bytes in base64."""
    data = base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")
    return {"shape": list(a.shape), "data": data}


def array_from_doc(doc, path: str) -> np.ndarray:
    """The float64 array an array object stands for. Its data must be the one base64
    encoding of exactly 8 bytes per element of its shape; the array is read-only."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an array object, got {type(doc).__name__}")
    check_keys(doc, path, ("shape", "data"), ())
    shape, data = doc["shape"], doc["data"]
    if type(shape) is not list or any(type(n) is not int or n < 0 for n in shape):
        raise ConfigError(f"{path}.shape", f"expected a list of non-negative integers, got {shape!r}")
    if type(data) is not str:
        raise ConfigError(f"{path}.data", f"expected a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as e:  # binascii.Error, or a character outside ASCII
        raise ConfigError(f"{path}.data", f"invalid base64: {e}") from e
    if len(raw) != 8 * math.prod(shape):
        raise ConfigError(f"{path}.data", f"{len(raw)} bytes for shape {shape}, "
                                          f"expected {8 * math.prod(shape)}")
    # each whole group of 3 bytes has one encoding; a short last group must be encoded as
    # b64encode encodes it: zero bits after its last byte, then just enough padding
    groups = len(raw) // 3
    if data[4 * groups:] != base64.b64encode(raw[3 * groups:]).decode("ascii"):
        raise ConfigError(f"{path}.data", "invalid base64: not the encoding of its bytes")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def check_keys(doc, path: str, required, optional) -> None:
    """A JSON object holding every required key and no key outside required + optional."""
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object")
    for key in doc:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{path}.{key}", "missing required field")


@functools.cache
def _schema(cls, config: bool) -> tuple[dict, tuple, tuple]:
    """(field types, required names, optional names) of the keys a document may hold."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if not config or f.metadata.get("config") != "never"]
    required = tuple(
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        or config and f.metadata.get("config") == "required"
    )
    optional = tuple(f.name for f in fields if f.name not in required)
    return hints, required, optional


def from_doc(cls, doc, path: str = "value", config: bool = False, rows: bool = False, **given):
    """Build dataclass `cls` from a JSON object; `given` supplies fields the document lacks."""
    hints, required, optional = _schema(cls, config)
    check_keys(
        doc, path, [k for k in required if k not in given], [k for k in optional if k not in given]
    )
    kwargs = {k: decode(hints[k], v, f"{path}.{k}", config, rows) for k, v in doc.items()}
    try:
        return cls(**kwargs, **given)
    # constructors raise ValueError subclasses, or TrainerError (a RuntimeError)
    except (ValueError, RuntimeError) as e:
        raise ConfigError(path, str(e)) from e


def decode(tp, value, path: str, config: bool = False, rows: bool = False):
    """The value of type `tp` that a JSON value stands for. An array is an array object,
    or with `rows` a list of numbers or of rows of numbers (checkpoint formats 1 and 2)."""
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return from_doc(tp, value, path, config, rows)
    if origin in (typing.Union, types.UnionType):  # only `X | None` occurs
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else decode(inner, value, path, config, rows)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        if not args:
            return value
        if origin is list or args[-1] is Ellipsis:
            items = [args[0]] * len(value)
        elif len(value) != len(args):
            raise ConfigError(path, f"expected exactly {len(args)} values, got {len(value)}")
        else:
            items = args
        out = [decode(t, v, f"{path}[{i}]", config, rows)
               for i, (t, v) in enumerate(zip(items, value))]
        return out if origin is list else tuple(out)
    if tp is np.ndarray:
        if not rows:
            return array_from_doc(value, path)
        _check_numbers(value, path)
        try:
            return np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise ConfigError(path, f"expected a numeric array: {e}") from e
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        if config and not math.isfinite(value):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        # -0.0 == 0.0, so a config that says either is one experiment, with one hash
        return 0.0 if config and value == 0 else float(value)
    if tp is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if tp is str and not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if tp is bool and not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    return value


def _check_numbers(value, path: str) -> None:
    """A list of numbers or of rows of numbers: np.asarray reads true as 1.0 and "0.5" as 0.5."""
    rows = value if type(value) is list and value and type(value[0]) is list else [value]
    for i, row in enumerate(rows):
        if type(row) is list and set(map(type, row)) <= _NUMBER_TYPES:
            continue
        at = f"{path}[{i}]" if rows is value else path
        if type(row) is not list:
            raise ConfigError(at, f"expected a list, got {type(row).__name__}")
        j = next(j for j, v in enumerate(row) if type(v) not in _NUMBER_TYPES)
        raise ConfigError(f"{at}[{j}]", f"expected a number, got {type(row[j]).__name__}")
