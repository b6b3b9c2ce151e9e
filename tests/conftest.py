import math

import numpy as np
import pytest

from modbind.encoders import EncoderParams
from modbind.world import ModalityConfig, WorldConfig, make_world


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One verdict line per acceptance criterion, visible even on green runs."""
    verdicts = getattr(config, "_acceptance_verdicts", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in sorted(verdicts):
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_world_config():
    return WorldConfig(
        latent_dim=4,
        num_classes=3,
        within_class_scale=0.2,
        modalities=[
            ModalityConfig(name="hub", obs_dim=6, obs_noise_scale=0.05, hub=True),
            ModalityConfig(name="alpha", obs_dim=5, obs_noise_scale=0.05),
            ModalityConfig(name="beta", obs_dim=4, obs_noise_scale=0.05),
        ],
    )


@pytest.fixture
def tiny_world(tiny_world_config):
    return make_world(tiny_world_config, seed=7)


def unit_rows(n, d, rng):
    """Random L2-normalized rows."""
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def encoder_from_vec(arch, vec):
    """EncoderParams of `arch` whose flat vector is a copy of `vec` (W0, b0, W1, b1, ...)."""
    arrays, pos = [], 0
    for shape in arch.param_shapes():
        size = math.prod(shape)
        arrays.append(vec[pos : pos + size].reshape(shape))
        pos += size
    assert pos == len(vec), f"vector of {len(vec)} values for {pos} parameters"
    return EncoderParams(arch=arch, weights=arrays[0::2], biases=arrays[1::2])


def small_config_document():
    """A fast, fully explicit experiment config document for config/CLI tests."""
    return {
        "world": {
            "latent_dim": 4,
            "num_classes": 3,
            "within_class_scale": 0.2,
            "modalities": [
                {"name": "hub", "obs_dim": 6, "obs_noise_scale": 0.05, "hub": True},
                {"name": "alpha", "obs_dim": 5, "obs_noise_scale": 0.05},
                {"name": "beta", "obs_dim": 4, "obs_noise_scale": 0.05},
            ],
        },
        "archs": {
            "hub": {"hidden_widths": [8], "embed_dim": 6},
            "alpha": {"hidden_widths": [8], "embed_dim": 6},
            "beta": {"hidden_widths": [8], "embed_dim": 6},
        },
        "train": {
            "pairs": [
                {"spoke": "alpha", "batch_size": 8},
                {"spoke": "beta", "batch_size": 8},
            ],
            "epochs": 2,
            "steps_per_epoch": 6,
            "learning_rate": 0.003,
        },
        "eval": {
            "emergent_pairs": [["alpha", "beta"]],
            "retrieval_pairs": [["alpha", "beta"]],
            "k_list": [1, 5],
            "n_per_class": 5,
            "prompts_per_class": 4,
            "retrieval_index_size": 30,
            "retrieval_k": 5,
        },
        "output_dir": "runs/test",
        "seed": 3,
    }


@pytest.fixture
def small_config_doc():
    return small_config_document()
