"""Persistent content-addressed result cache for the exact-search engines.

The exact D(f)/d^P(f) searches (:mod:`repro.comm.exhaustive`) are the
expensive spine of experiment E15 and every partition sweep; their answers
are pure functions of (matrix bytes, engine version), so they deserve to
survive the process.  This package is the deterministic on-disk store that
makes them do so:

* **keys** — ``blake2b(prefix | engine-version | shape | matrix bytes)``;
  see :mod:`repro.cache.keys`;
* **records** — versioned canonical JSON, atomically replaced, merged
  field-by-field (``d``, ``leaves``, ``tree``); see
  :mod:`repro.cache.store`, where records, shard manifests and cells are
  each one ``Tier`` (directory + suffix + version + validator) sharing
  read, write, verify and clear;
* **shards** — truth-matrix column blocks spilled under ``shards/`` as a
  manifest plus raw ``.bin`` files addressed by
  ``blake2b(family/params/block-range)``, so an interrupted streamed build
  (:func:`repro.singularity.truth_builder.sharded_truth_matrix`) resumes
  to byte-identical output;
* **cells** — finished scenario-matrix cell documents under ``cells/``
  addressed by :func:`repro.cache.keys.cell_key`, so a warm
  ``python -m repro matrix`` sweep replays without running a protocol;
* **activation** — opt-in via :func:`configure` / the ``REPRO_CACHE_DIR``
  environment variable (the :class:`repro.persist.Activation` rule
  :mod:`repro.trace` shares); without either the library never touches
  disk;
* **CLI** — ``python -m repro cache {stats,verify,sweep-tmp,clear}``;
* **observability** — ``cache.lookups`` / ``cache.hits`` / ``cache.misses``
  / ``cache.stores`` counters in :mod:`repro.obs`.

Design notes (key layout, determinism rules, bench methodology) live in
docs/performance.md.
"""

from repro.cache.keys import (
    CELL_PREFIX,
    KEY_PREFIX,
    SHARD_PREFIX,
    build_key,
    canonical_matrix_bytes,
    cell_key,
    matrix_key,
    shard_name,
)
from repro.cache.store import (
    CELL_RECORD_VERSION,
    ENV_VAR,
    RECORD_FIELDS,
    RECORD_VERSION,
    SHARD_MANIFEST_VERSION,
    CacheStore,
    active_store,
    block_ranges,
    cell_problems,
    configure,
    decode_record,
    directory,
    disabled,
    encode_record,
    record_problems,
    shard_manifest_problems,
    shard_manifest_record,
    unconfigure,
)

__all__ = [
    "CELL_PREFIX",
    "KEY_PREFIX",
    "SHARD_PREFIX",
    "build_key",
    "canonical_matrix_bytes",
    "cell_key",
    "matrix_key",
    "shard_name",
    "CELL_RECORD_VERSION",
    "ENV_VAR",
    "RECORD_FIELDS",
    "RECORD_VERSION",
    "SHARD_MANIFEST_VERSION",
    "CacheStore",
    "active_store",
    "block_ranges",
    "cell_problems",
    "configure",
    "decode_record",
    "directory",
    "disabled",
    "encode_record",
    "record_problems",
    "shard_manifest_problems",
    "shard_manifest_record",
    "unconfigure",
]
