"""Micro-pass for the numerics kernels that span wrappers cannot reach.

The encoders call GELU through the private table `modbind.encoders._ACTIVATIONS`,
so no module attribute sits between a layer and the activation. This pass
times the functions in that table directly, at a shape the traced run saw.

Flop and byte counts are computed, not measured: flops count the array
operations of the tanh-approximation formula per element (tanh counted as
one), bytes the compulsory float64 traffic (inputs read once, output written
once).
"""

from __future__ import annotations

import statistics
import time

FLOPS_PER_ELEMENT = {"gelu_forward": 9, "gelu_backward": 19}
BYTES_PER_ELEMENT = {"gelu_forward": 16, "gelu_backward": 24}


def seconds_per_call(fn, args, min_sample_s: float = 0.05, samples: int = 5) -> float:
    """Median seconds per call over `samples` loops that each last min_sample_s or more."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_sample_s:
            break
        n *= 2
    times = [elapsed / n]
    for _ in range(samples - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def gelu_pass(shape: tuple[int, int], seed: int) -> dict[str, dict]:
    """µs per call, computed flops and computed bytes of GELU forward and backward."""
    import numpy as np
    from modbind.encoders import _ACTIVATIONS

    forward, backward = _ACTIVATIONS["gelu"]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    upstream = rng.standard_normal(shape)
    elements = shape[0] * shape[1]
    out = {}
    for name, fn, args in (("gelu_forward", forward, (x,)), ("gelu_backward", backward, (x, upstream))):
        out[name] = {
            "us": 1e6 * seconds_per_call(fn, args),
            "flops": float(elements * FLOPS_PER_ELEMENT[name]),
            "bytes": float(elements * BYTES_PER_ELEMENT[name]),
        }
    return out
