"""Whole-deployment save/load.

Builds on the store's checkpoint/restore to persist everything a
deployment needs to come back after a full restart: the storage layer
(user states, observation logs), every model's version history, and the
configuration. Bootstrap averagers are *rebuilt* from the restored user
states rather than serialized — they are derived state, and recomputing
them guarantees consistency with whatever the store actually holds.

Layout of a deployment directory::

    <dir>/store/        — the veloxstore checkpoint (see store.persistence)
    <dir>/models.pkl    — registry: every model version + notes
    <dir>/deployment.json — config + default model + format version
"""

from __future__ import annotations

import json
import pickle
from dataclasses import asdict
from pathlib import Path

from repro.common.config import VeloxConfig
from repro.common.errors import StorageError
from repro.store.persistence import checkpoint_store, restore_store

FORMAT_VERSION = 1


def save_deployment(velox, directory: str | Path) -> Path:
    """Persist a deployment; returns the directory path."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    checkpoint_store(velox.cluster.store, path / "store")

    registry_dump = {
        name: [
            {
                "version": record.version,
                "model": record.model,
                "trained_on_observations": record.trained_on_observations,
                "note": record.note,
            }
            for record in velox.registry.history(name)
        ]
        for name in velox.registry.names()
    }
    with open(path / "models.pkl", "wb") as handle:
        pickle.dump(registry_dump, handle)

    config = asdict(velox.config)
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "default_model": velox._default_model,
        "auto_retrain": velox.manager.auto_retrain,
    }
    with open(path / "deployment.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, default=str)
    return path


def load_deployment(directory: str | Path):
    """Rebuild a :class:`~repro.core.velox.Velox` from a saved directory.

    The cluster fabric (nodes, router, network model) is recreated from
    the saved config; the store is restored with the correct per-table
    partitioners; models and their histories are re-registered; and the
    bootstrap averagers are recomputed from the restored user states.
    """
    from repro.core.velox import Velox
    from repro.core.manager import ModelHealth
    from repro.core.online import user_state_policy
    from repro.batch import BatchContext
    from repro.cluster import NetworkModel, VeloxCluster

    path = Path(directory)
    meta_path = path / "deployment.json"
    if not meta_path.exists():
        raise StorageError(f"no deployment metadata at {meta_path}")
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("format_version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported deployment format {meta.get('format_version')!r}"
        )
    config = VeloxConfig.from_dict(meta["config"])

    with open(path / "models.pkl", "rb") as handle:
        registry_dump = pickle.load(handle)

    network = NetworkModel(
        hop_latency=config.remote_hop_latency, bandwidth=config.remote_bandwidth
    )
    cluster = VeloxCluster(num_nodes=config.num_nodes, network=network)
    # Restore every user-state table with uid partitioning and the
    # storage policy add_model built (from the lowest version, the model
    # it registered), so boxed states in a checkpoint are re-encoded.
    partitioners, value_policies = {}, {}
    for name, records in registry_dump.items():
        deployed = min(records, key=lambda r: r["version"])["model"]
        partitioners[f"user_state:{name}"] = cluster.user_partitioner
        value_policies[f"user_state:{name}"] = user_state_policy(
            deployed.dimension, config.regularization
        )
    cluster.store = restore_store(
        path / "store", partitioners=partitioners, value_policies=value_policies
    )
    cluster.store.default_partitions = config.num_nodes

    velox = Velox(
        config,
        cluster,
        BatchContext(config.num_nodes, executor=config.batch_executor),
        auto_retrain=meta.get("auto_retrain", True),
    )

    for name, records in registry_dump.items():
        ordered = sorted(records, key=lambda r: r["version"])
        first, rest = ordered[0], ordered[1:]
        velox.registry.register(first["model"], note=first["note"])
        for record in rest:
            velox.registry.publish(
                record["model"],
                trained_on_observations=record["trained_on_observations"],
                note=record["note"],
            )
        # Manager-side wiring the register path would normally create.
        velox.manager.health[name] = ModelHealth(window=config.staleness_window)
        velox.manager.rebuild_averager(name)

    velox._default_model = meta.get("default_model")
    return velox
