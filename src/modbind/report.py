"""Serializable metric reports, canonical JSON hashing and artifact writing.

Reports and config hashes share one canonicalization rule: JSON with sorted
keys and fixed separators, floats in shortest round-trip form. Identical
inputs therefore hash and serialize byte-identically across runs. Every
artifact file is written whole through `write_atomic`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path


class ReportError(ValueError):
    """Raised for non-finite metrics."""


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_hash(obj) -> str:
    """sha256 hex digest of the canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def render_csv(rows, comment: str = "") -> str:
    """CSV text with "\n" line ends, after a `# comment` line when one is given."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_atomic(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8 to a temp file beside `path`, then rename it over `path`.

    A failed write leaves whatever `path` held before, and no temp file.
    There is no fsync: the rename protects against a crashed process, not
    against a crashed machine.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class MetricsReport:
    """Named scalar metrics plus boolean flags, tied to a config hash and seed."""

    metrics: dict[str, float] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)
    config_hash: str = ""
    seed: int = 0

    def validate(self) -> None:
        for name, value in self.metrics.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ReportError(f"metric {name!r} is not a finite number: {value!r}")

    def to_json(self) -> str:
        self.validate()
        doc = {
            "kind": "metrics_report",
            "config_hash": self.config_hash,
            "seed": self.seed,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "flags": dict(self.flags),
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    def to_csv(self) -> str:
        """Flat (metric, value) rows in sorted metric order; flags as 0/1."""
        self.validate()
        return render_csv(
            [
                ["metric", "value"],
                *([name, repr(float(self.metrics[name]))] for name in sorted(self.metrics)),
                *([name, int(self.flags[name])] for name in sorted(self.flags)),
            ]
        )
