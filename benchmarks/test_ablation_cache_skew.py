"""Ablation: feature-cache hit rate vs item-popularity skew.

Paper Section 5 argues that because item popularity follows a Zipfian
distribution, "caching the hot items on each machine using a simple
cache eviction strategy like LRU will tend to have a high hit rate."
This ablation drives identical request volumes with varying Zipf
exponents through a deliberately small per-node feature cache and
reports hit rates and mean serving latency.

Shape assertions: hit rate increases monotonically with skew, and the
heavily-skewed workload clears a high absolute hit rate.

Set ``CACHE_SKEW_SMOKE=1`` to write the series under ``.bench_out/``
instead of ``benchmarks/results/`` (the CI form: the same assertions).
"""

from __future__ import annotations

import pytest

from repro.metrics import LatencyRecorder
from repro.workloads import ZipfItemSampler

from conftest import build_mf_serving, results_dir, write_result

NUM_ITEMS = 2000
CACHE_CAPACITY = 200  # 10% of the catalog — misses must happen
REQUESTS = 4000
SKEWS = [0.0, 0.6, 0.9, 1.2]


def run_workload(skew: float) -> tuple[float, float]:
    """Returns (feature cache hit rate, mean predict latency seconds)."""
    velox = build_mf_serving(
        dimension=52,
        num_items=NUM_ITEMS,
        num_users=64,
        num_nodes=1,
        prediction_cache_capacity=0,  # isolate the feature cache
        feature_cache_capacity=CACHE_CAPACITY,
    )
    sampler = ZipfItemSampler(NUM_ITEMS, skew, rng=7)
    recorder = LatencyRecorder()
    for index in range(REQUESTS):
        uid = index % 64
        item = sampler.sample()
        with recorder.time():
            velox.predict(None, uid, item)
    cache = velox.service.feature_caches[0]
    return cache.stats.hit_rate, recorder.summary().mean


@pytest.mark.benchmark(max_time=2.0, min_rounds=1)
@pytest.mark.parametrize("skew", SKEWS)
def test_cache_skew_workload(benchmark, skew):
    benchmark.pedantic(run_workload, args=(skew,), rounds=1, iterations=1)


def test_cache_skew_summary(benchmark):
    results = {skew: run_workload(skew) for skew in SKEWS}
    lines = ["zipf_s  hit_rate  mean_predict_latency_s"]
    for skew in SKEWS:
        hit_rate, latency = results[skew]
        lines.append(f"{skew:<8.1f}{hit_rate:<10.3f}{latency:.6f}")
    write_result("ablation_cache_skew", lines, results_dir("CACHE_SKEW_SMOKE"))

    hit_rates = [results[s][0] for s in SKEWS]
    # Shape: monotone in skew.
    assert all(b > a for a, b in zip(hit_rates, hit_rates[1:])), hit_rates
    # Shape: heavy skew achieves a high absolute hit rate despite the
    # cache covering only 10% of the catalog.
    assert hit_rates[-1] > 0.5
    # Shape: the uniform workload is bounded near the capacity fraction.
    assert hit_rates[0] < 0.25
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
