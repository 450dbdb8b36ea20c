"""Figure 4: topK prediction latency vs itemset size and model complexity.

Paper: "Single-node topK prediction latency for both cached and
non-cached predictions for the MovieLens 10M rating dataset, varying
size of input set and dimension (d, or, factor). Results are averaged
over 10,000 trials." The series are d = 2000, 5000, 10000 factors plus
a 100%-hit prediction-cache configuration.

Shape assertions:
* latency grows ~linearly with itemset size for each d,
* the slope grows with d (bigger models cost more per item),
* the warm prediction cache is flat and cheapest — the benefit of
  caching grows with model size.

Set ``FIG4_SMOKE=1`` to write the series under ``.bench_out/`` instead of
``benchmarks/results/`` (the CI form: the same shape assertions).
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.metrics import LatencyRecorder
from repro.workloads import ZipfItemSampler

from conftest import build_mf_serving, results_dir, write_result

NUM_ITEMS = 1200
ITEMSET_SIZES = [100, 250, 500, 1000]
DIMENSIONS = [2000, 5000, 10000]
CACHE_DIMENSION = 10000  # the cache series uses the biggest model


def make_itemsets(size: int, count: int, seed: int = 4) -> list[list[int]]:
    sampler = ZipfItemSampler(NUM_ITEMS, 0.0, rng=seed)
    return [sampler.sample_distinct(size) for __ in range(count)]


def build_uncached(dimension: int):
    """No prediction or feature caching: every item pays feature
    materialization plus the d-dimensional dot product."""
    return build_mf_serving(
        dimension,
        NUM_ITEMS,
        num_users=16,
        prediction_cache_capacity=0,
        feature_cache_capacity=0,
    )


def build_cached(dimension: int, itemset: list[int], uid: int):
    """Prediction cache pre-warmed to a 100% hit rate on ``itemset``."""
    velox = build_mf_serving(dimension, NUM_ITEMS, num_users=16)
    velox.top_k(None, uid, itemset, k=1)  # warm pass
    return velox


@pytest.mark.benchmark(max_time=1.0, min_rounds=3)
@pytest.mark.parametrize("itemset_size", ITEMSET_SIZES)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_fig4_topk_uncached(benchmark, dimension, itemset_size):
    velox = build_uncached(dimension)
    itemset = make_itemsets(itemset_size, 1)[0]
    benchmark(velox.top_k, None, 3, itemset, 1)


@pytest.mark.benchmark(max_time=1.0, min_rounds=3)
@pytest.mark.parametrize("itemset_size", ITEMSET_SIZES)
def test_fig4_topk_cached(benchmark, itemset_size):
    itemset = make_itemsets(itemset_size, 1)[0]
    velox = build_cached(CACHE_DIMENSION, itemset, uid=3)
    benchmark(velox.top_k, None, 3, itemset, 1)


def test_fig4_summary(benchmark):
    """Regenerate the figure's four series and assert their shape.

    Latency per point is the *median* over trials with the garbage
    collector paused: GC pauses and allocator churn from earlier tests
    otherwise add noise comparable to the per-item dot-product cost and
    flatten the dimension series.
    """
    import gc

    trials = 9
    series: dict[object, dict[int, float]] = {}

    def measure(run) -> float:
        gc.collect()
        gc.disable()
        try:
            recorder = LatencyRecorder()
            for trial in range(trials):
                run(trial, recorder)
            return float(np.median(recorder.samples))
        finally:
            gc.enable()

    for dimension in DIMENSIONS:
        velox = build_uncached(dimension)
        means: dict[int, float] = {}
        for size in ITEMSET_SIZES:
            itemsets = make_itemsets(size, trials)

            def run(trial, recorder, velox=velox, itemsets=itemsets):
                with recorder.time():
                    velox.top_k(None, 3, itemsets[trial], k=1)

            means[size] = measure(run)
        series[dimension] = means
        del velox
        gc.collect()  # release this dimension's feature matrix

    cache_means: dict[int, float] = {}
    for size in ITEMSET_SIZES:
        itemset = make_itemsets(size, 1)[0]
        velox = build_cached(CACHE_DIMENSION, itemset, uid=3)

        def run(trial, recorder, velox=velox, itemset=itemset):
            with recorder.time():
                velox.top_k(None, 3, itemset, k=1)

        cache_means[size] = measure(run)
        del velox
        gc.collect()
    series["cache"] = cache_means

    lines = ["items  " + "  ".join(f"d={d}_s" for d in DIMENSIONS) + "  cache_s"]
    for size in ITEMSET_SIZES:
        row = f"{size:<7d}"
        for dimension in DIMENSIONS:
            row += f"{series[dimension][size]:<10.6f}"
        row += f"{cache_means[size]:.6f}"
        lines.append(row)
    write_result("fig4_prediction_latency", lines, results_dir("FIG4_SMOKE"))

    # Shape: roughly linear growth in itemset size for every dimension.
    for dimension in DIMENSIONS:
        ratio = series[dimension][1000] / series[dimension][250]
        assert 2.0 < ratio < 8.0, (
            f"d={dimension}: 1000/250 latency ratio {ratio:.1f} not ~linear (4)"
        )
    # Shape: bigger models are slower per item.
    assert series[10000][1000] > series[2000][1000]
    # Shape: the warm cache is cheapest, and by a wide margin on the
    # largest model (caching benefit grows with model size).
    assert cache_means[1000] < 0.5 * series[2000][1000]
    assert cache_means[1000] < 0.25 * series[10000][1000]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
