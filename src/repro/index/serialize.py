"""Index persistence: save a built LSH index to one ``.npz`` file.

Production users build once and query many times, so the index must
survive a process restart without re-hashing the dataset.  The format
is a single compressed numpy archive — no pickle, so files are safe to
load from untrusted storage:

* the data matrix;
* the fused hash kernel's sampled parameters (projection matrices,
  offsets, coordinates or priorities — exposed explicitly by each
  family's :meth:`sample_batch` via ``BatchedHash.params``);
* per table: the raw key bytes (fixed width, ``8 * k`` per key), the
  per-bucket counts, and the concatenated bucket ids;
* the index configuration as a JSON blob.

Bucket sketches are *rebuilt* from the stored ids at load time: the
HLL hashing is deterministic in (id, seed), so the reconstruction is
bit-identical to the saved index, and rebuilding (one vectorised pass
per bucket) is far cheaper than re-hashing the dataset.
"""

from __future__ import annotations

import json

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hashing.batched import BatchedHash
from repro.hashing.bit_sampling import BitSamplingLSH
from repro.hashing.minhash import MinHashLSH, _ABSENT
from repro.hashing.pstable import PStableLSH
from repro.hashing.simhash import SimHashLSH
from repro.index.bucket import Bucket
from repro.index.lsh_index import LSHIndex
from repro.index.table import HashTable
from repro.sketches.hyperloglog import PrecomputedHllHashes

__all__ = ["save_index", "load_index"]

_FORMAT_VERSION = 1


def save_index(index: LSHIndex, path: str) -> None:
    """Serialise a built index to ``path`` (compressed npz, no pickle).

    Parameters
    ----------
    index:
        A built :class:`~repro.index.lsh_index.LSHIndex` whose family
        is one of the built-ins (bit sampling, SimHash, p-stable,
        MinHash); custom families would need their own parameter
        export and are rejected.
    path:
        Destination file; numpy appends ``.npz`` if missing.
    """
    if not index.is_built:
        raise ConfigurationError("cannot save an index that has not been built")
    if index.layout != "dict":
        raise ConfigurationError(
            "save_index writes the dict bucket layout; persist frozen "
            "indexes with repro.index.frozen.save_frozen_index"
        )
    variant = getattr(index, "variant", "plain")
    config = {
        "format_version": _FORMAT_VERSION,
        "variant": variant,
        "num_tables": index.num_tables,
        "hll_precision": index.hll_precision,
        "hll_seed": index.hll_seed,
        "lazy_threshold": index.lazy_threshold,
        "with_sketches": index.with_sketches,
        "dedup": index.dedup,
        "dim": index.dim,
    }
    payload: dict[str, np.ndarray] = {"points": index.points}
    if variant == "covering":
        # The block permutation is the whole hash; per-table key widths
        # follow the block widths, so each table records its own.
        config["radius"] = index.radius
        config["blocks"] = [block.tolist() for block in index._blocks]
        key_widths = [8 * block.size for block in index._blocks]
    else:
        batched = index._batched
        if batched.params is None or batched.kind == "generic":
            raise ConfigurationError(
                "index family does not expose serialisable kernel parameters "
                f"(kind={batched.kind!r}); only built-in families are supported"
            )
        config["k"] = index.k
        config["family"] = batched.kind
        if batched.kind == "pstable":
            config["p"] = index.family.p
            config["w"] = index.family.w
        if variant == "multiprobe":
            config["num_probes"] = index.num_probes
        for name, array in batched.params.items():
            payload[f"kernel_{name}"] = array
        key_widths = [8 * index.k] * index.num_tables
    for t, (table, key_width) in enumerate(zip(index.tables, key_widths)):
        keys = list(table.buckets)
        ids = [bucket.ids for bucket in table.buckets.values()]
        if keys:
            key_matrix = np.frombuffer(b"".join(keys), dtype=np.uint8)
            key_matrix = key_matrix.reshape(len(keys), key_width)
            concatenated = np.concatenate(ids)
        else:
            key_matrix = np.empty((0, key_width), dtype=np.uint8)
            concatenated = np.empty(0, dtype=np.int64)
        payload[f"table{t}_keys"] = key_matrix
        payload[f"table{t}_counts"] = np.asarray([arr.size for arr in ids], dtype=np.int64)
        payload[f"table{t}_ids"] = concatenated
    payload["config_json"] = np.frombuffer(
        json.dumps(config).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **payload)


def load_index(path: str) -> LSHIndex:
    """Load an index saved by :func:`save_index`.

    The returned index is query-identical to the saved one: same
    buckets, same sketches (rebuilt deterministically), same fused
    query kernel.
    """
    # Opened here, not by np.load: numpy leaks its own handle when a
    # torn archive makes the zip reader raise.
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
        config = json.loads(bytes(archive["config_json"]).decode("utf-8"))
        if config.get("format_version") != _FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported index file version: {config.get('format_version')}"
            )
        points = archive["points"]
        dim = config["dim"]
        num_tables = config["num_tables"]
        variant = config.get("variant", "plain")
        if variant == "covering":
            from repro.index.covering import CoveringLSHIndex

            index = CoveringLSHIndex(
                dim=dim,
                radius=config["radius"],
                hll_precision=config["hll_precision"],
                hll_seed=config["hll_seed"],
                lazy_threshold=config["lazy_threshold"],
                with_sketches=config["with_sketches"],
                dedup=config["dedup"],
                # The constructor's permutation draw is discarded below;
                # a fixed seed keeps loading deterministic and entropy-free.
                seed=0,
            )
            # The saved permutation replaces the constructor's draw.
            index._blocks = [
                np.asarray(block, dtype=np.int64) for block in config["blocks"]
            ]
        else:
            k = config["k"]
            kernel_params = {
                key[len("kernel_"):]: archive[key]
                for key in archive.files
                if key.startswith("kernel_")
            }
            family, fused = _rebuild_family_and_kernel(config, kernel_params, dim)
            index_kwargs = dict(
                k=k,
                num_tables=num_tables,
                hll_precision=config["hll_precision"],
                hll_seed=config["hll_seed"],
                lazy_threshold=config["lazy_threshold"],
                with_sketches=config["with_sketches"],
                dedup=config["dedup"],
            )
            if variant == "multiprobe":
                from repro.index.multiprobe_index import MultiProbeLSHIndex

                index = MultiProbeLSHIndex(
                    family, num_probes=config["num_probes"], **index_kwargs
                )
            else:
                index = LSHIndex(family, **index_kwargs)
            index._batched = BatchedHash(
                fused,
                k=k,
                num_tables=num_tables,
                dim=dim,
                kind=config["family"],
                params=kernel_params,
            )
        index.points = points
        index._hll_hashes = (
            PrecomputedHllHashes(
                points.shape[0], p=index.hll_precision, seed=index.hll_seed
            )
            if index.with_sketches
            else None
        )
        index.tables = []
        for t in range(num_tables):
            table = HashTable(
                hll_precision=index.hll_precision,
                hll_seed=index.hll_seed,
                lazy_threshold=index.lazy_threshold,
                with_sketches=index.with_sketches,
            )
            keys_matrix = archive[f"table{t}_keys"]
            counts = archive[f"table{t}_counts"]
            all_ids = archive[f"table{t}_ids"]
            boundaries = np.cumsum(counts)[:-1]
            for key_row, ids in zip(keys_matrix, np.split(all_ids, boundaries)):
                table.buckets[key_row.tobytes()] = Bucket.from_ids(
                    ids,
                    index._hll_hashes,
                    hll_precision=index.hll_precision,
                    hll_seed=index.hll_seed,
                    lazy_threshold=index.lazy_threshold,
                )
            index.tables.append(table)
    return index


def _rebuild_family_and_kernel(config: dict, params: dict[str, np.ndarray], dim: int):
    """Reconstruct the family object and fused kernel from stored arrays."""
    name = config["family"]
    if name == "pstable":
        projections = params["projections"]
        offsets = params["offsets"]
        w = float(config["w"])
        family = PStableLSH(dim, w=w, p=config["p"])

        def fused(points: np.ndarray) -> np.ndarray:
            shifted = np.asarray(points, dtype=np.float64) @ projections + offsets
            return np.floor(shifted / w).astype(np.int64)

        return family, fused
    if name == "simhash":
        planes = params["planes"]
        family = SimHashLSH(dim)

        def fused(points: np.ndarray) -> np.ndarray:
            return (np.asarray(points, dtype=np.float64) @ planes > 0.0).astype(np.int64)

        return family, fused
    if name == "bit_sampling":
        coords = params["coords"].astype(np.int64)
        family = BitSamplingLSH(dim)

        def fused(points: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(points[:, coords], dtype=np.int64)

        return family, fused
    if name == "minhash":
        priorities = params["priorities"].astype(np.int64)
        family = MinHashLSH(dim)

        def fused(points: np.ndarray) -> np.ndarray:
            present = np.asarray(points).astype(bool)
            n = present.shape[0]
            values = np.empty((n, priorities.shape[0]), dtype=np.int64)
            for j in range(priorities.shape[0]):
                masked = np.where(present, priorities[j][None, :], _ABSENT)
                values[:, j] = masked.min(axis=1)
            return values

        return family, fused
    raise ConfigurationError(f"unknown family in index file: {name!r}")
