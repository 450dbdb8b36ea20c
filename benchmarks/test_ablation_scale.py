"""Ablation: the columnar slab user-weight store at scale.

The paper's serving story needs user-weight lookups to stay memory-speed
as the user base grows. This ablation sweeps deployments at 10k / 100k /
1M users and measures:

* **Per-request latency** — p50/p99 of point predictions over random
  users; the slab claim is *flat* latency across three orders of
  magnitude of users.
* **Per-user resident bytes** — slab (``Table.memory_bytes``, which
  counts the index too): one ``(rank+2)*8``-byte row plus a version, a
  key-column entry and a live flag, at most 1.2x the row on every tier;
  the baseline is a boxed ``UserModelState`` per user (priors, online
  learning scaffolding, per-object headers).
* **Snapshot transfer** — replica catch-up (export + install); the slab
  path is an O(bytes) array copy, the baseline a deep copy per state.

The two baselines come from a policy-less :class:`~repro.store.Table`
of boxed ``UserModelState`` values built through the store API — the
layout the retired dict option used to select. That option and its
serving path are gone (its per-request latency rows, recorded at commit
``4fef1e4``, live on in ``BENCH_scale.json`` and EXPERIMENTS.md).

Also asserts the wire codec's single-copy ndarray encode: a contiguous
feature vector crosses ``pack_value`` without a forced intermediate
copy.

A full run writes the human series to
``benchmarks/results/ablation_scale.txt`` and the machine-readable
``BENCH_scale.json`` at the repo root. ``SCALE_SMOKE=1`` is the fast CI
configuration (10k tier only); it writes both under ``.bench_out/`` so
the recorded full run is never overwritten.
"""

from __future__ import annotations

import os
import pathlib
import sys
import time

import numpy as np

from repro import Velox, VeloxConfig
from repro.core.models import MatrixFactorizationModel
from repro.core.online import UserModelState
from repro.frontend import PredictApiRequest, wire
from repro.replication import PartitionReplica
from repro.store import ArrayMapping, Table
from repro.tools.bench_report import write_json_summary

from conftest import write_result

SMOKE = os.environ.get("SCALE_SMOKE", "") not in ("", "0")

RANK = 10
NUM_ITEMS = 200
NUM_NODES = 8
USER_TIERS = [10_000] if SMOKE else [10_000, 100_000, 1_000_000]
NUM_PREDICTIONS = 500 if SMOKE else 2000

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = REPO_ROOT / ".bench_out"


def _user_matrix(num_users: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(14)
    return (
        np.arange(num_users, dtype=np.int64),
        rng.normal(0, 0.1, (num_users, RANK + 2)),
    )


def _deploy(num_users: int) -> Velox:
    rng = np.random.default_rng(13)
    model = MatrixFactorizationModel(
        "scale",
        item_factors=rng.normal(0, 0.1, (NUM_ITEMS, RANK)),
        item_bias=rng.normal(0, 0.1, NUM_ITEMS),
        global_mean=3.5,
    )
    velox = Velox.deploy(
        VeloxConfig(
            num_nodes=NUM_NODES,
            # Keep caches out of the measurement: every predict must hit
            # the user-weight store, not a memoized score.
            prediction_cache_capacity=1,
        ),
        auto_retrain=False,
    )
    velox.add_model(
        model, initial_user_weights=ArrayMapping(*_user_matrix(num_users))
    )
    return velox


def _boxed_table(num_users: int) -> Table:
    """The baseline layout: one boxed state object per user key."""
    table = Table("boxed", num_partitions=NUM_NODES)
    for uid, row in zip(*_user_matrix(num_users)):
        table.put(int(uid), UserModelState(RANK + 2, 1.0, prior_mean=row))
    return table


def _latency_quantiles(velox: Velox, num_users: int) -> dict:
    rng = np.random.default_rng(99)
    uids = rng.integers(num_users, size=NUM_PREDICTIONS)
    items = rng.integers(NUM_ITEMS, size=NUM_PREDICTIONS)
    samples = np.empty(NUM_PREDICTIONS)
    for i in range(NUM_PREDICTIONS):
        start = time.perf_counter()
        velox.predict(None, int(uids[i]), int(items[i]))
        samples[i] = time.perf_counter() - start
    return {
        "p50_us": round(float(np.percentile(samples, 50)) * 1e6, 2),
        "p99_us": round(float(np.percentile(samples, 99)) * 1e6, 2),
    }


def _object_bytes(value: object) -> int:
    """Shallow-ish footprint of one boxed state: the object, its dict,
    and its immediate array/list attributes."""
    total = sys.getsizeof(value)
    attrs = getattr(value, "__dict__", None)
    if attrs is None:
        return total
    total += sys.getsizeof(attrs)
    for attr in attrs.values():
        if isinstance(attr, np.ndarray):
            total += sys.getsizeof(attr)
        elif isinstance(attr, list):
            total += sys.getsizeof(attr) + sum(sys.getsizeof(x) for x in attr)
        else:
            total += sys.getsizeof(attr)
    return total


def _boxed_per_user_bytes(table: Table, num_users: int) -> float:
    """Sampled boxed-state footprint plus the container overhead (a
    policy-less table's ``memory_bytes`` is its partition dicts)."""
    rng = np.random.default_rng(7)
    sample = rng.integers(num_users, size=min(200, num_users))
    state_bytes = float(
        np.mean([_object_bytes(table.get(int(uid))) for uid in sample])
    )
    entry_tuple = sys.getsizeof(("x", 1))
    return state_bytes + entry_tuple + table.memory_bytes() / num_users


def _snapshot_transfer_seconds(table: Table) -> dict:
    """Export + install every partition onto a fresh replica (the
    snapshot-transfer catch-up path), timed separately."""
    export_s = install_s = 0.0
    for index in range(table.num_partitions):
        partition = table.partition(index)
        start = time.perf_counter()
        state, sequence = partition.export_state()
        export_s += time.perf_counter() - start
        replica = PartitionReplica(
            table.name, index, node_id=0, value_policy=table.value_policy
        )
        start = time.perf_counter()
        replica.install_snapshot(state, sequence)
        install_s += time.perf_counter() - start
    return {
        "export_s": round(export_s, 4),
        "install_s": round(install_s, 4),
        "total_s": round(export_s + install_s, 4),
    }


def _measure_slab(num_users: int) -> dict:
    velox = _deploy(num_users)
    try:
        table = velox.manager.user_state_table("scale")
        row = {"users": num_users, "store": "slab"}
        row.update(_latency_quantiles(velox, num_users))
        row["per_user_bytes"] = round(table.memory_bytes() / num_users, 1)
        row["snapshot"] = _snapshot_transfer_seconds(table)
        return row
    finally:
        velox.shutdown()


def _measure_boxed(num_users: int) -> dict:
    table = _boxed_table(num_users)
    return {
        "users": num_users,
        "store": "boxed",
        "per_user_bytes": round(_boxed_per_user_bytes(table, num_users), 1),
        "snapshot": _snapshot_transfer_seconds(table),
    }


def test_scale_summary():
    # The wire codec's single-copy claim: a contiguous feature vector is
    # appended straight from its buffer, never through an intermediate
    # materialization.
    wire.reset_ndarray_forced_copies()
    feature = np.ascontiguousarray(np.random.default_rng(3).normal(size=256))
    frame = wire.encode_request_frame(PredictApiRequest(uid=1, item=feature), 0)
    assert len(frame) > feature.nbytes
    forced_copies = wire.ndarray_forced_copies()
    assert forced_copies == 0

    rows = []
    for num_users in USER_TIERS:
        rows.append(_measure_slab(num_users))
        rows.append(_measure_boxed(num_users))

    by_tier = {
        users: {row["store"]: row for row in rows if row["users"] == users}
        for users in USER_TIERS
    }

    # -- shape claims ------------------------------------------------------
    # Flat per-request latency across the sweep.
    slab_p50 = [by_tier[u]["slab"]["p50_us"] for u in USER_TIERS]
    assert max(slab_p50) < 3.0 * min(slab_p50), slab_p50

    # >= 2x per-user memory reduction vs boxed states, every tier.
    memory_x = {
        u: by_tier[u]["boxed"]["per_user_bytes"]
        / by_tier[u]["slab"]["per_user_bytes"]
        for u in USER_TIERS
    }
    assert min(memory_x.values()) >= 2.0, memory_x

    # The slab index keeps no object per user: bytes per user stay within
    # 1.2x of the row itself, every tier (a key dict, counted with its int
    # objects, reads ~2.0x here).
    row_bytes = (RANK + 2) * 8
    slab_over_row = {
        u: by_tier[u]["slab"]["per_user_bytes"] / row_bytes for u in USER_TIERS
    }
    assert max(slab_over_row.values()) <= 1.2, slab_over_row

    # Snapshot transfer (export + install) at the largest tier: O(bytes)
    # array adoption vs a per-state deep copy. The deep copy is paid once,
    # at export — an install adopts what the export owns — so the whole
    # transfer is compared, not the install leg alone.
    transfer_x = {
        u: by_tier[u]["boxed"]["snapshot"]["total_s"]
        / max(by_tier[u]["slab"]["snapshot"]["total_s"], 1e-9)
        for u in USER_TIERS
    }
    required = 3.0 if SMOKE else 10.0
    assert transfer_x[USER_TIERS[-1]] >= required, transfer_x

    # -- report ------------------------------------------------------------
    lines = [
        f"== user-weight store scale sweep (rank {RANK}, dim {RANK + 2}, "
        f"{NUM_NODES} nodes, {NUM_PREDICTIONS} predictions/tier"
        f"{', SMOKE' if SMOKE else ''}) ==",
        "users      store  p50_us   p99_us   bytes/user  export_s  install_s",
    ]
    for row in rows:
        p50 = f"{row['p50_us']:.1f}" if "p50_us" in row else "-"
        p99 = f"{row['p99_us']:.1f}" if "p99_us" in row else "-"
        lines.append(
            f"{row['users']:<11d}{row['store']:<7}{p50:<9}{p99:<9}"
            f"{row['per_user_bytes']:<12.1f}"
            f"{row['snapshot']['export_s']:<10.4f}"
            f"{row['snapshot']['install_s']:.4f}"
        )
    lines.append("")
    for users in USER_TIERS:
        lines.append(
            f"{users} users: slab saves {memory_x[users]:.1f}x memory/user "
            f"({slab_over_row[users]:.2f}x its {row_bytes} B row), "
            f"transfers snapshots {transfer_x[users]:.1f}x faster"
        )
    lines.append("")
    lines.append(
        f"slab p50 across tiers: {slab_p50} us "
        f"(max/min {max(slab_p50) / min(slab_p50):.2f}x)"
    )
    lines.append(f"wire ndarray forced copies for contiguous encode: {forced_copies}")
    summary = {
        "smoke": SMOKE,
        "workload": {
            "rank": RANK,
            "dimension": RANK + 2,
            "num_items": NUM_ITEMS,
            "num_nodes": NUM_NODES,
            "predictions_per_tier": NUM_PREDICTIONS,
            "user_tiers": USER_TIERS,
        },
        "tiers": rows,
        "slab_p50_flatness_max_over_min": round(
            max(slab_p50) / min(slab_p50), 3
        ),
        "memory_reduction_x": {
            str(u): round(x, 2) for u, x in memory_x.items()
        },
        "slab_bytes_over_row_x": {
            str(u): round(x, 3) for u, x in slab_over_row.items()
        },
        "snapshot_transfer_speedup_x": {
            str(u): round(x, 2) for u, x in transfer_x.items()
        },
        "wire_forced_copies_contiguous": forced_copies,
    }
    if SMOKE:
        # Never over the tracked record of the full run.
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / "ablation_scale.txt").write_text("\n".join(lines) + "\n")
        print("\n[ablation_scale]\n" + "\n".join(lines))
        write_json_summary(OUT_DIR / "BENCH_scale.json", "ablation_scale", summary)
    else:
        write_result("ablation_scale", lines)
        write_json_summary(REPO_ROOT / "BENCH_scale.json", "ablation_scale", summary)
