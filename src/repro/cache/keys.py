"""Deterministic content-addressed cache keys.

A key is a blake2b digest over a domain-separated byte string: the cache
format prefix, the *engine version tag* (see
``repro.comm.exhaustive.ENGINE_VERSIONS``) and the canonical bytes of the
deduplicated truth matrix.  Two processes — or two machines — computing the
same function with the same engine therefore address the same record, and
bumping an engine's version tag orphans every record the old engine wrote
without any migration machinery.

Determinism is load-bearing (the DET lint rules watch this package): no
wall-clock, no ambient randomness, no dict-order dependence may leak into a
key or a serialized record.
"""

from __future__ import annotations

import hashlib
import json

#: Domain separator; bump only with the record schema in ``store.py``.
KEY_PREFIX = b"repro-cache-v1"


def _engine_digest(prefix: bytes, engine_version: str):
    """A blake2b hasher primed with ``prefix NUL engine_version``.

    The prologue every key shares; the engine tag must be non-empty and
    NUL-free so the separator stays unambiguous.
    """
    if not engine_version or "\0" in engine_version:
        raise ValueError("engine_version must be a non-empty NUL-free tag")
    digest = hashlib.blake2b(digest_size=20)
    digest.update(prefix)
    digest.update(b"\0")
    digest.update(engine_version.encode("ascii"))
    return digest


def _fields_key(prefix: bytes, engine_version: str, fields: dict,
                encode) -> str:
    """Hex digest of the engine prologue, then ``NUL name=encode(value)``
    for every field under sorted names."""
    digest = _engine_digest(prefix, engine_version)
    for field in sorted(fields):
        digest.update(b"\0")
        digest.update(field.encode("ascii"))
        digest.update(b"=")
        digest.update(encode(fields[field]).encode("utf-8"))
    return digest.hexdigest()


def canonical_matrix_bytes(data) -> bytes:
    """C-order uint8 bytes of a 0/1 matrix — the canonical content form."""
    import numpy as np

    array = np.ascontiguousarray(np.asarray(data, dtype=np.uint8))
    return array.tobytes()


def matrix_key(engine_version: str, shape, data_bytes: bytes) -> str:
    """Content address of one (engine, matrix) pair, as a hex digest."""
    digest = _engine_digest(KEY_PREFIX, engine_version)
    digest.update(b"\0")
    digest.update(f"{int(shape[0])}x{int(shape[1])}".encode("ascii"))
    digest.update(b"\0")
    digest.update(data_bytes)
    return digest.hexdigest()


#: Domain separator for truth-matrix shard builds (bump with the shard
#: layout in ``store.py``).
SHARD_PREFIX = b"repro-truth-shards-v1"


def build_key(engine_version: str, params: dict) -> str:
    """Content address of one sharded truth-matrix *build*.

    ``params`` names everything the build's bytes depend on: the family
    parameters, the row and column instances (their ``repr`` is the
    canonical form — Blocks are nested int tuples, so ``repr`` is stable
    across processes and Python versions in scope), the prime, and the
    block grid.  Values are folded in under sorted keys, so dict insertion
    order can never leak into the address.
    """
    return _fields_key(SHARD_PREFIX, engine_version, params, repr)


#: Domain separator for scenario-matrix cell records (bump with the cell
#: record layout in ``store.py``).
CELL_PREFIX = b"repro-matrix-cells-v1"


def cell_key(engine_version: str, coords: dict) -> str:
    """Content address of one scenario-matrix *cell* run.

    ``coords`` names everything the cell document depends on: the case
    builder, its parameters, the fault regime, the root seed and the ARQ
    framing.  Values are folded in as canonical JSON (sorted keys, compact
    separators) under sorted field names, so neither dict insertion order
    nor ``repr`` quirks can leak into the address.
    """
    return _fields_key(
        CELL_PREFIX, engine_version, coords,
        lambda value: json.dumps(value, sort_keys=True, separators=(",", ":")),
    )


def shard_name(key: str, start: int, stop: int) -> str:
    """File stem of one column-block shard of build ``key``.

    The half-open column range completes the content address: the same
    build at a different block grid writes different names, so stale grids
    can never be reassembled into the wrong matrix.
    """
    if not (0 <= int(start) < int(stop)):
        raise ValueError(f"bad shard range [{start}, {stop})")
    return f"{key}.{int(start):08d}-{int(stop):08d}"
