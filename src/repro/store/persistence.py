"""Durable persistence for veloxstore: checkpoint to and restore from disk.

Tachyon checkpoints its in-memory data to an under-filesystem (HDFS) so
state survives whole-cluster restarts; this module is that layer for
veloxstore. A checkpoint directory contains one pickle file per table
(values plus per-key versions, partition layout preserved) and one per
observation log, with a manifest recording the format version and
contents.

Pickle is the serialization format because table values are arbitrary
Python objects (numpy arrays, UserModelState instances); checkpoints
are trusted local state, not an interchange format.

Slab-backed tables (those with a :class:`~repro.store.slab.SlabPolicy`)
additionally write their columnar side as raw ``.npy`` arrays — one
(keys, rows, versions) triple per partition — and restore them with
``np.load(mmap_mode=...)``: recovery maps the weight matrix instead of
parsing a pickle, and pages materialize copy-on-write as rows are
touched. The manifest's per-table ``storage`` entry records the policy
(rank, dtype, codec) so a restore can rebuild it without the caller
supplying one.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import numpy as np

from repro.common.errors import StorageError
from repro.store.oblog import Observation, ObservationLog
from repro.store.slab import SlabPolicy
from repro.store.store import VeloxStore
from repro.store.table import Table

FORMAT_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"


def checkpoint_store(store: VeloxStore, directory: str | Path) -> Path:
    """Write the whole store to ``directory``; returns the path.

    Existing checkpoint files in the directory are overwritten. Tables
    with failed partitions cannot be checkpointed (recover them first) —
    a checkpoint must be a consistent full snapshot.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    tables = {}
    for name in store.table_names():
        table = store.table(name)
        for index in range(table.num_partitions):
            if table.partition(index).failed:
                raise StorageError(
                    f"cannot checkpoint: table {name!r} partition {index} "
                    "is failed; recover it first"
                )
        file_name = f"table_{_safe_name(name)}.pkl"
        entry = {
            "file": file_name,
            "num_partitions": table.num_partitions,
        }
        # Every partition exports one shape: the object side is pickled;
        # a columnar side, when the table has one, goes out as raw .npy
        # arrays (memory-mappable on restore).
        partitions, slab_files = [], []
        for index in range(table.num_partitions):
            export, _sequence = table.partition(index).export_state()
            partitions.append(export.objects)
            if export.slab is not None:
                stem = f"table_{_safe_name(name)}_p{index}"
                files = {
                    "keys": f"{stem}_keys.npy",
                    "rows": f"{stem}_rows.npy",
                    "versions": f"{stem}_versions.npy",
                }
                np.save(path / files["keys"], export.slab.keys)
                np.save(path / files["rows"], export.slab.rows)
                np.save(path / files["versions"], export.slab.versions)
                slab_files.append(files)
        if slab_files:
            entry["storage"] = {
                "kind": "slab",
                "policy": table.value_policy.manifest_info(),
                "partitions": slab_files,
            }
        with open(path / file_name, "wb") as handle:
            pickle.dump(partitions, handle)
        tables[name] = entry

    logs = {}
    for name in store.log_names():
        records = store.log(name).read_all()
        file_name = f"log_{_safe_name(name)}.pkl"
        with open(path / file_name, "wb") as handle:
            pickle.dump(records, handle)
        logs[name] = {"file": file_name, "records": len(records)}

    manifest = {
        "format_version": FORMAT_VERSION,
        "default_partitions": store.default_partitions,
        "tables": tables,
        "logs": logs,
    }
    with open(path / MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    return path


def restore_store(
    directory: str | Path,
    partitioners: dict | None = None,
    value_policies: dict | None = None,
) -> VeloxStore:
    """Rebuild a :class:`VeloxStore` from a checkpoint directory.

    Custom partitioners are not serializable, so tables that used one
    must be given it again via ``partitioners={table_name: callable}``;
    keys land back in their recorded partitions either way (restore
    writes partition-by-partition), so lookups stay consistent as long
    as the supplied partitioner matches the original.

    Slab-backed tables rebuild their storage policy from the manifest
    (``value_policies={table_name: policy}`` overrides it) and map their
    row matrices with ``np.load(mmap_mode="c")`` — a copy-on-write
    adoption, not a parse. The checkpoint files back the mapping, so
    they must outlive the restored store.
    """
    path = Path(directory)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"no checkpoint manifest at {manifest_path}")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported checkpoint format {manifest.get('format_version')!r}"
        )

    store = VeloxStore(default_partitions=manifest["default_partitions"])
    supplied = partitioners or {}
    supplied_policies = value_policies or {}
    for name, info in manifest["tables"].items():
        with open(path / info["file"], "rb") as handle:
            partitions = pickle.load(handle)
        storage = info.get("storage")
        policy = supplied_policies.get(name)
        if policy is None and storage is not None:
            policy = _policy_from_manifest(storage["policy"])
        table = store.create_table(
            name,
            num_partitions=info["num_partitions"],
            partitioner=supplied.get(name),
            value_policy=policy,
        )
        if storage is not None:
            _load_slabs(table, path, storage["partitions"])
        _load_table(table, partitions)
    for name, info in manifest["logs"].items():
        with open(path / info["file"], "rb") as handle:
            records = pickle.load(handle)
        log = store.create_log(name)
        for record in records:
            if not isinstance(record, Observation):
                raise StorageError(
                    f"log {name!r} contains a non-observation record"
                )
            log.append(record)
    return store


def _load_slabs(table: Table, path: Path, partition_files: list[dict]) -> None:
    """Adopt each partition's checkpointed slab arrays.

    The journal keeps a read-only mapping of the row matrix for replay;
    a second, copy-on-write mapping of the same file becomes the live
    slab — load-not-parse recovery.
    """
    for index, files in enumerate(partition_files):
        keys = np.load(path / files["keys"])
        if len(keys) == 0:
            continue
        versions = np.load(path / files["versions"])
        journal_rows = np.load(path / files["rows"], mmap_mode="r")
        live_rows = np.load(path / files["rows"], mmap_mode="c")
        table.partition(index).restore_slab(
            keys, journal_rows, versions, live_rows=live_rows
        )


def _policy_from_manifest(info: dict) -> SlabPolicy:
    """Rebuild a table's storage policy from its manifest entry."""
    codec_info = info.get("codec")
    if codec_info is None:
        return SlabPolicy(info["rank"], dtype=np.dtype(info["dtype"]))
    if codec_info.get("kind") != "user_state":
        raise StorageError(
            f"unknown slab codec kind {codec_info.get('kind')!r}"
        )
    from repro.core.online import user_state_policy

    return user_state_policy(
        codec_info["dimension"], codec_info["regularization"]
    )


def _load_table(table: Table, partitions: list[dict]) -> None:
    """Install checkpointed (value, version) entries partition-by-
    partition at their recorded versions."""
    for index, entries in enumerate(partitions):
        partition = table.partition(index)
        for key, (value, version) in entries.items():
            partition.install(key, value, version)


def _safe_name(name: str) -> str:
    """Filesystem-safe, collision-free encoding of a table/log name."""
    import hashlib

    cleaned = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
    if cleaned != name:
        digest = hashlib.blake2b(name.encode("utf-8"), digest_size=4).hexdigest()
        cleaned = f"{cleaned}_{digest}"
    return cleaned
