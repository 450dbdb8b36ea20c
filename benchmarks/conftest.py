"""Shared benchmark infrastructure.

Each experiment module both (a) exposes pytest-benchmark timings whose
parametrized names form the figure's series, and (b) runs a `_summary`
test that regenerates the paper's table/plot series explicitly, asserts
the *shape* claims from DESIGN.md, and writes the series to
``benchmarks/results/<experiment>.txt`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro import Velox, VeloxConfig
from repro.core.models import MatrixFactorizationModel

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SMOKE_RESULTS_DIR = pathlib.Path(__file__).parent.parent / ".bench_out"


def results_dir(smoke_flag: str) -> pathlib.Path:
    """Where a summary writes its series: ``.bench_out/`` when the
    environment sets ``smoke_flag``, so a smoke run never overwrites the
    tracked record of a full run; ``benchmarks/results/`` otherwise."""
    smoke = os.environ.get(smoke_flag, "") not in ("", "0")
    return SMOKE_RESULTS_DIR if smoke else RESULTS_DIR


def write_result(
    name: str, lines: list[str], directory: pathlib.Path = RESULTS_DIR
) -> None:
    """Persist one experiment's series table (and echo it to stdout)."""
    directory.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (directory / f"{name}.txt").write_text(text)
    print(f"\n[{name}]\n{text}")


def build_mf_serving(
    dimension: int,
    num_items: int,
    num_users: int = 64,
    num_nodes: int = 1,
    prediction_cache_capacity: int = 200_000,
    feature_cache_capacity: int = 200_000,
    seed: int = 0,
) -> Velox:
    """A single-process serving deployment with a random MF model of the
    requested *feature* dimension (rank = dimension - 2).

    Figures 3 and 4 sweep `dimension` as the model-complexity axis; the
    factors are random because only compute cost, not accuracy, is being
    measured.
    """
    if dimension < 3:
        raise ValueError("dimension must be >= 3 for the MF layout")
    rng = np.random.default_rng(seed)
    rank = dimension - 2
    model = MatrixFactorizationModel(
        "bench",
        item_factors=rng.normal(0, 0.1, (num_items, rank)),
        item_bias=rng.normal(0, 0.1, num_items),
        global_mean=3.5,
    )
    weights = {
        uid: model.pack_user_weights(rng.normal(0, 0.1, rank), 0.0)
        for uid in range(num_users)
    }
    velox = Velox.deploy(
        VeloxConfig(
            num_nodes=num_nodes,
            prediction_cache_capacity=prediction_cache_capacity,
            feature_cache_capacity=feature_cache_capacity,
        ),
        auto_retrain=False,
    )
    velox.add_model(model, initial_user_weights=weights)
    return velox


@pytest.fixture(scope="session")
def bench_rng():
    return np.random.default_rng(2025)
