"""Break-even of the prediction cache against scoring directly, by d.

For each feature dimension d of a random materialized (MF) model: one
node, 2,000 items, pristine users, the feature cache warm. It times three
ways to answer 100 candidates for one user, through the scalar
``service.predict`` and as rows of one 100-row ``predict_batch`` (the
top-k shape):

* ``hit``: every candidate is in the prediction cache;
* ``direct``: the model does not cache, so every candidate is scored;
* ``miss``: the model caches and none is cached yet (score + ``put``).

``h*`` is the hit rate above which caching costs less than scoring
directly: ``(miss - direct) / (miss - hit)``. Both legs are forced by
setting ``PREDICTION_CACHE_MIN_DIMENSION`` per measurement. Best of 200
interleaved rounds, in microseconds per candidate.

    PYTHONPATH=src python benchmarks/prediction_cache_breakeven.py
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro import Velox, VeloxConfig
from repro.core import prediction
from repro.core.models import MatrixFactorizationModel

DIMENSIONS = [34, 256, 1024, 2048, 10000]
NUM_ITEMS = 2000
ROUNDS = 200
CANDIDATES = list(range(100))
ALWAYS, NEVER = 0, 10**9  # thresholds that force caching on / off


def deploy(dimension: int):
    rng = np.random.default_rng(0)
    model = MatrixFactorizationModel(
        "m",
        rng.normal(0, 0.1, (NUM_ITEMS, dimension - 2)),
        rng.normal(0, 0.1, NUM_ITEMS),
        3.5,
    )
    velox = Velox.deploy(VeloxConfig(num_nodes=1), auto_retrain=False)
    users = {uid: rng.normal(0, 0.1, dimension) for uid in range(4 * ROUNDS + 1)}
    velox.add_model(model, initial_user_weights=users)
    return velox.service


def per_candidate_us(run) -> float:
    start = time.perf_counter()
    run()
    return (time.perf_counter() - start) / len(CANDIDATES) * 1e6


def measure(dimension: int) -> dict[str, float]:
    service = deploy(dimension)
    n = len(CANDIDATES)

    def scalar(uid):
        return lambda: [service.predict("m", uid, x) for x in CANDIDATES]

    def batch(uid):
        return lambda: service.predict_batch("m", [uid] * n, CANDIDATES)

    prediction.PREDICTION_CACHE_MIN_DIMENSION = ALWAYS
    batch(0)()  # warms the feature cache and caches user 0's answers
    best: dict[str, float] = {}
    fresh = iter(range(1, 4 * ROUNDS + 1))
    for _ in range(ROUNDS):
        runs = [
            ("scalar_hit", ALWAYS, scalar(0)),
            ("row_hit", ALWAYS, batch(0)),
            ("scalar_miss", ALWAYS, scalar(next(fresh))),
            ("row_miss", ALWAYS, batch(next(fresh))),
            ("scalar_direct", NEVER, scalar(next(fresh))),
            ("row_direct", NEVER, batch(next(fresh))),
        ]
        for name, threshold, run in runs:
            prediction.PREDICTION_CACHE_MIN_DIMENSION = threshold
            best[name] = min(best.get(name, float("inf")), per_candidate_us(run))
    return best


def main() -> None:
    default = prediction.PREDICTION_CACHE_MIN_DIMENSION
    gc.disable()
    print("d       scalar: hit  direct  miss    h* | row: hit  direct  miss    h*")
    try:
        for dimension in DIMENSIONS:
            r = measure(dimension)
            line = f"{dimension:<8d}"
            for leg in ("scalar", "row"):
                hit, direct, miss = (r[f"{leg}_{k}"] for k in ("hit", "direct", "miss"))
                line += (
                    f"{hit:>11.2f}{direct:>8.2f}{miss:>6.2f}"
                    f"{(miss - direct) / (miss - hit):>6.2f} |"
                )
            print(line.rstrip(" |"))
    finally:
        prediction.PREDICTION_CACHE_MIN_DIMENSION = default
        gc.enable()


if __name__ == "__main__":
    main()
