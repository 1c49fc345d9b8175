"""The on-disk store: versioned JSON documents in three tiers.

Layout under one root:

* ``objects/<key>.json`` — exact-search result records;
* ``shards/<key>.manifest.json`` — sharded truth-matrix build manifests,
  next to the raw ``<key>.<start>-<stop>.bin`` column blocks they
  describe;
* ``cells/<key>.json`` — finished scenario-matrix cell documents.

Each JSON kind is one :class:`Tier`: a directory, a file suffix, a
schema version and the kind's validator.  Documents are canonical JSON
(sorted keys, compact separators) so that two processes writing the same
result produce byte-identical files; every write goes through
:func:`repro.persist.atomic_write`, so readers never observe a torn
document.  Documents carry no timestamps and no machine identity — the
cache is a pure function of its inputs, which is what lets CI runs,
benchmark runs and local sweeps share it safely.

``merge`` is read-modify-replace: ``communication_complexity``,
``optimal_protocol_tree`` and ``partition_number`` each contribute their
field (``d`` / ``tree`` / ``leaves``) to the same record, so a warm record
accumulates whichever results have ever been computed for that matrix.

Activation is opt-in: explicitly via :func:`configure`, ambiently via the
``REPRO_CACHE_DIR`` environment variable (resolved by a
:class:`repro.persist.Activation`).  With neither, every lookup is a no-op
and the library behaves exactly as if this package did not exist.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro import obs
from repro.cache.keys import shard_name
from repro.persist import Activation, atomic_write

#: Record schema version; readers ignore records from other versions.
RECORD_VERSION = 1

#: Result fields a record may carry (beyond v/engine/shape).
RECORD_FIELDS = ("d", "leaves", "tree")

#: Shard manifest schema version; readers ignore foreign versions.
SHARD_MANIFEST_VERSION = 1

#: Scenario-matrix cell record version; readers ignore foreign versions.
CELL_RECORD_VERSION = 1

ENV_VAR = "REPRO_CACHE_DIR"


def encode_record(record: dict) -> str:
    """Canonical JSON of a record: sorted keys, compact separators.

    Iterating ``sorted(record)`` (never raw dict/set order) keeps the bytes
    deterministic across processes — the property the DET lint rules and the
    byte-identity tests pin down.
    """
    clean = {}
    for field in sorted(record):
        clean[field] = record[field]
    return json.dumps(clean, sort_keys=True, separators=(",", ":")) + "\n"


def decode_record(text: str, version: int = RECORD_VERSION) -> dict | None:
    """Parse one document; None for malformed or foreign-version content."""
    try:
        record = json.loads(text)
    except (ValueError, TypeError):
        return None
    if not isinstance(record, dict) or record.get("v") != version:
        return None
    return record


def _canonical_problems(doc: dict, text: str | None, noun: str) -> list[str]:
    """The canonical-bytes check shared by every validator."""
    if text is not None and encode_record(doc) != text:
        return [f"{noun} bytes are not in canonical JSON form"]
    return []


def _unknown_fields(doc: dict, known) -> list[str]:
    unknown = [field for field in sorted(doc) if field not in known]
    return [f"unknown fields: {', '.join(unknown)}"] if unknown else []


def _valid_tree(serial) -> bool:
    """Shape-check a serialized protocol tree (see exhaustive.py)."""
    if not isinstance(serial, list) or not serial:
        return False
    if serial[0] == "L":
        return len(serial) == 2 and serial[1] in (0, 1)
    if serial[0] != "N" or len(serial) != 5:
        return False
    _tag, axis, right, left_subtree, right_subtree = serial
    if axis not in (0, 1):
        return False
    if not isinstance(right, list) or not all(
        isinstance(i, int) and i >= 0 for i in right
    ):
        return False
    return _valid_tree(left_subtree) and _valid_tree(right_subtree)


def record_problems(record: dict | None, text: str | None = None) -> list[str]:
    """Schema violations of one parsed record (empty list when clean).

    With ``text`` (the bytes the record was parsed from) a clean record
    must also be in canonical form.
    """
    if record is None:
        return ["unparseable or foreign-version record"]
    problems = []
    if not isinstance(record.get("engine"), str) or not record["engine"]:
        problems.append("missing or empty engine tag")
    shape = record.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(isinstance(s, int) and s > 0 for s in shape)
    ):
        problems.append("shape is not a pair of positive ints")
    for field in ("d", "leaves"):
        if field in record and not (
            isinstance(record[field], int) and record[field] >= 0
        ):
            problems.append(f"{field} is not a non-negative int")
    if "tree" in record and not _valid_tree(record["tree"]):
        problems.append("tree fails the serialized-protocol shape check")
    problems += _unknown_fields(record, ("v", "engine", "shape") + RECORD_FIELDS)
    return problems or _canonical_problems(record, text, "record")


def shard_manifest_record(
    rows: int, cols: int, block: int, engine: str
) -> dict:
    """The manifest describing one sharded truth-matrix build.

    Fixes the block *grid* (column ranges ``[i·block, min((i+1)·block,
    cols))``) so every process — the builder, a resumer, the CLI — derives
    the identical shard set from the same four integers/strings.
    """
    return {
        "v": SHARD_MANIFEST_VERSION,
        "rows": int(rows),
        "cols": int(cols),
        "block": int(block),
        "engine": str(engine),
    }


def shard_manifest_problems(
    manifest: dict | None, text: str | None = None
) -> list[str]:
    """Schema violations of one parsed shard manifest (see
    :func:`record_problems` for ``text``)."""
    if manifest is None:
        return ["unparseable or foreign-version manifest"]
    problems = []
    for field in ("rows", "cols", "block"):
        if not (isinstance(manifest.get(field), int) and manifest[field] > 0):
            problems.append(f"{field} is not a positive int")
    if not isinstance(manifest.get("engine"), str) or not manifest["engine"]:
        problems.append("missing or empty engine tag")
    problems += _unknown_fields(manifest, ("v", "rows", "cols", "block", "engine"))
    return problems or _canonical_problems(manifest, text, "manifest")


def cell_problems(record: dict | None, text: str | None = None) -> list[str]:
    """Schema violations of one parsed cell record (see
    :func:`record_problems` for ``text``)."""
    if record is None:
        return ["unparseable or foreign-version cell record"]
    if not isinstance(record.get("cell"), dict):
        return ["record carries no cell dict"]
    return _canonical_problems(record, text, "cell")


def block_ranges(cols: int, block: int) -> list[tuple[int, int]]:
    """The half-open column ranges of a build's block grid."""
    if cols < 0 or block < 1:
        raise ValueError(f"bad block grid: cols={cols}, block={block}")
    return [(start, min(start + block, cols)) for start in range(0, cols, block)]


def _listing(directory: Path, pattern: str) -> list[Path]:
    """Sorted matches of ``pattern`` in ``directory`` (empty if unreadable)."""
    try:
        return sorted(directory.glob(pattern))
    except OSError:
        return []


def _unlink_all(paths) -> int:
    """Delete ``paths``; returns how many were actually removed."""
    removed = 0
    for path in paths:
        try:
            path.unlink()
            removed += 1
        except OSError:
            continue
    return removed


class Tier:
    """One directory of versioned canonical-JSON documents of one kind.

    ``check(doc, text=None)`` is the kind's validator (:func:`record_problems`,
    :func:`shard_manifest_problems`, :func:`cell_problems`): it receives the
    parsed document — None when the bytes are malformed or of a foreign
    version — and returns its problems.  Every :meth:`read` and
    :meth:`write` goes through it, so a document that fails the check is a
    miss on the way in and an error on the way out.
    """

    def __init__(self, directory: Path, suffix: str, version: int, check,
                 noun: str):
        self.dir = directory
        self.suffix = suffix
        self.version = version
        self.check = check
        self.noun = noun
        directory.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        """Where the document addressed by ``key`` lives."""
        return self.dir / f"{key}{self.suffix}"

    def paths(self) -> list[Path]:
        """Every document file of this tier, sorted."""
        return _listing(self.dir, f"*{self.suffix}")

    def read(self, key: str) -> dict | None:
        """The document at ``key`` if it passes the check, else None."""
        try:
            text = self.path(key).read_text()
        except OSError:
            return None
        doc = decode_record(text, self.version)
        return None if self.check(doc) else doc

    def write(self, key: str, doc: dict) -> None:
        """Validate ``doc`` and commit it as canonical JSON (atomic)."""
        problems = self.check(doc if doc.get("v") == self.version else None)
        if problems:
            raise ValueError(f"bad {self.noun}: {'; '.join(problems)}")
        atomic_write(self.path(key), encode_record(doc).encode())

    def census(self) -> tuple[int, int, list[dict]]:
        """``(files, bytes, parsed documents)`` over every readable file.

        A census of what is on disk, so documents are parsed but not
        checked; those that fail to parse count as files but are not
        returned."""
        entries = total_bytes = 0
        docs = []
        for path in self.paths():
            try:
                text = path.read_text()
            except OSError:
                continue
            entries += 1
            total_bytes += len(text.encode())
            doc = decode_record(text, self.version)
            if doc is not None:
                docs.append(doc)
        return entries, total_bytes, docs

    def verify(self) -> list[str]:
        """``"<file>: <problem>"`` for every problem in this tier."""
        problems = []
        for path in self.paths():
            try:
                text = path.read_text()
            except OSError as exc:
                problems.append(f"{path.name}: unreadable ({exc})")
                continue
            doc = decode_record(text, self.version)
            problems += [f"{path.name}: {p}" for p in self.check(doc, text)]
        return problems

    def clear(self) -> int:
        """Delete every document of this tier; returns files removed."""
        return _unlink_all(self.paths())


class CacheStore:
    """One cache directory: get / merge / stats / verify / clear.

    Three kinds of content live side by side: exact-search result records
    under ``objects/``, truth-matrix column-block shards under ``shards/``
    (a manifest JSON plus one raw ``.bin`` per block — see
    :meth:`put_shard`), and scenario-matrix cell documents under
    ``cells/`` (see :meth:`put_cell`).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.shards = self.root / "shards"
        self.cells = self.root / "cells"
        self._records = Tier(
            self.objects, ".json", RECORD_VERSION, record_problems, "record"
        )
        self._manifests = Tier(
            self.shards, ".manifest.json", SHARD_MANIFEST_VERSION,
            shard_manifest_problems, "shard manifest",
        )
        self._cells = Tier(
            self.cells, ".json", CELL_RECORD_VERSION, cell_problems,
            "cell record",
        )
        self._tiers = (self._records, self._manifests, self._cells)

    # -- records --------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The record at ``key``, or None (counts hits/misses in obs)."""
        obs.counter("cache.lookups").inc()
        record = self._records.read(key)
        obs.counter("cache.misses" if record is None else "cache.hits").inc()
        return record

    def merge(self, key: str, fields: dict, engine: str, shape) -> dict:
        """Fold ``fields`` into the record at ``key`` (atomic replace).

        Unknown fields are rejected loudly — the record schema is the
        compatibility contract between processes.
        """
        existing = self._records.read(key)
        record = {
            "v": RECORD_VERSION,
            "engine": str(engine),
            "shape": [int(shape[0]), int(shape[1])],
        }
        if existing is not None and existing["engine"] == record["engine"]:
            for field in RECORD_FIELDS:
                if field in existing:
                    record[field] = existing[field]
        record.update(fields)
        self._records.write(key, record)
        obs.counter("cache.stores").inc()
        return record

    # -- truth-matrix shards --------------------------------------------
    def _shard_path(self, key: str, start: int, stop: int) -> Path:
        return self.shards / f"{shard_name(key, start, stop)}.bin"

    def get_shard_manifest(self, key: str) -> dict | None:
        """The manifest of build ``key``, or None (missing or invalid)."""
        return self._manifests.read(key)

    def put_shard_manifest(self, key: str, manifest: dict) -> dict:
        """Commit the build manifest (canonical JSON, atomic replace)."""
        self._manifests.write(key, manifest)
        return manifest

    def get_shard(self, key: str, start: int, stop: int) -> bytes | None:
        """The raw bytes of one column-block shard, or None."""
        try:
            data = self._shard_path(key, start, stop).read_bytes()
        except OSError:
            obs.counter("cache.shard.misses").inc()
            return None
        obs.counter("cache.shard.hits").inc()
        return data

    def put_shard(self, key: str, start: int, stop: int, data: bytes) -> None:
        """Spill one column block (raw C-order uint8 bytes, atomic).

        The length must tile against the committed manifest — a shard that
        cannot be reassembled byte-identically is refused at write time,
        not discovered at resume time.
        """
        manifest = self.get_shard_manifest(key)
        if manifest is None:
            raise ValueError(
                f"no valid manifest for build {key}; commit one first"
            )
        expected = manifest["rows"] * (int(stop) - int(start))
        if len(data) != expected:
            raise ValueError(
                f"shard [{start}, {stop}) carries {len(data)} bytes; "
                f"manifest demands {expected}"
            )
        atomic_write(self._shard_path(key, start, stop), data)
        obs.counter("cache.shard.stores").inc()

    def _shard_bins(self) -> list[Path]:
        return _listing(self.shards, "*.bin")

    @staticmethod
    def _parse_shard_name(path: Path) -> tuple[str, int, int] | None:
        """``(build_key, start, stop)`` of a ``.bin`` path, or None."""
        stem = path.name[: -len(".bin")]
        key, dot, span = stem.rpartition(".")
        if not dot or "-" not in span:
            return None
        start_text, _, stop_text = span.partition("-")
        try:
            start, stop = int(start_text), int(stop_text)
        except ValueError:
            return None
        if not key or start < 0 or stop <= start:
            return None
        return key, start, stop

    def shard_builds(self) -> dict[str, dict]:
        """Every build with a manifest file: key -> manifest + completeness.

        A build is *complete* when every grid block's shard is present;
        otherwise it is a resumable partial (``missing`` counts the holes).
        A manifest that fails its check is listed with ``manifest`` and
        ``missing`` both None, and counts as partial.
        """
        builds: dict[str, dict] = {}
        for path in self._manifests.paths():
            key = path.name[: -len(".manifest.json")]
            manifest = self._manifests.read(key)
            if manifest is None:
                builds[key] = {"manifest": None, "missing": None}
                continue
            ranges = block_ranges(manifest["cols"], manifest["block"])
            missing = sum(
                0 if self._shard_path(key, start, stop).exists() else 1
                for start, stop in ranges
            )
            builds[key] = {
                "manifest": manifest,
                "blocks": len(ranges),
                "missing": missing,
            }
        return builds

    # -- scenario-matrix cells ------------------------------------------
    def get_cell(self, key: str) -> dict | None:
        """The cell document at ``key``, or None (obs-counted).

        The document comes back exactly as :meth:`put_cell` canonicalized
        it (nested keys sorted), so a warm sweep re-emits byte-identical
        report JSON.
        """
        obs.counter("cache.cell.lookups").inc()
        record = self._cells.read(key)
        if record is None:
            obs.counter("cache.cell.misses").inc()
            return None
        obs.counter("cache.cell.hits").inc()
        return record["cell"]

    def put_cell(self, key: str, cell: dict) -> None:
        """Persist one finished cell document (canonical JSON, atomic).

        Like every other tier, the bytes are a pure function of the
        content: no timestamps, no machine identity, sorted keys all the
        way down.
        """
        self._cells.write(key, {"v": CELL_RECORD_VERSION, "cell": cell})
        obs.counter("cache.cell.stores").inc()

    # -- maintenance ----------------------------------------------------
    def stats(self) -> dict:
        """Per-tier counts (records, shards, cells, tmp), JSON-ready."""
        entries, total_bytes, records = self._records.census()
        fields = {
            field: sum(1 for record in records if field in record)
            for field in RECORD_FIELDS
        }
        engines = Counter(
            record["engine"]
            for record in records
            if isinstance(record.get("engine"), str)
        )

        builds = self.shard_builds()
        partial = sum(1 for info in builds.values() if info["missing"] != 0)
        shard_files = shard_bytes = orphaned = 0
        for path in self._shard_bins():
            try:
                shard_bytes += path.stat().st_size
            except OSError:
                continue
            shard_files += 1
            parsed = self._parse_shard_name(path)
            if parsed is None or parsed[0] not in builds:
                orphaned += 1

        cell_entries, cell_bytes, cells = self._cells.census()
        verdicts = Counter(
            record["cell"]["verdict"]
            for record in cells
            if isinstance(record.get("cell"), dict)
            and isinstance(record["cell"].get("verdict"), str)
        )
        return {
            "dir": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "fields": fields,
            "engines": dict(sorted(engines.items())),
            "shards": {
                "builds": len(builds),
                "complete_builds": len(builds) - partial,
                "partial_builds": partial,
                "shards": shard_files,
                "bytes": shard_bytes,
                "orphaned_shards": orphaned,
            },
            "cells": {
                "entries": cell_entries,
                "bytes": cell_bytes,
                "verdicts": dict(sorted(verdicts.items())),
            },
            "tmp": {
                "files": len(self._tmp_paths()),
                "orphaned": len(self.orphaned_tmp()),
            },
        }

    def _tmp_paths(self) -> list[Path]:
        return sorted(
            path for tier in self._tiers for path in _listing(tier.dir, "*.tmp")
        )

    @staticmethod
    def _tmp_target(path: Path) -> str | None:
        """The file a ``<name>.<pid>.<tid>.tmp`` scratch was headed for."""
        parts = path.name.split(".")
        if len(parts) < 4 or parts[-1] != "tmp":
            return None
        if not (parts[-3].isdigit() and parts[-2].isdigit()):
            return None
        return ".".join(parts[:-3])

    def orphaned_tmp(self) -> list[Path]:
        """Scratch ``.tmp`` files left behind by writers killed mid-commit.

        Record and cell writes hold their ``<name>.<pid>.<tid>.tmp`` only
        for the instant before ``os.replace``, so any such scratch present
        at inspection time is an orphan.  Shard ``.bin`` scratches are
        different: a sharded build commits its manifest *first* and then
        streams blocks for seconds to minutes, so a shard tmp at least as
        new as its build's manifest is treated as **in-flight** and
        excluded here.  The residual race is unavoidable without a lock
        and is documented in ``repro cache sweep-tmp``: a builder that
        crashed mid-stream leaves tmps that still look in-flight, and they
        are only demoted to orphans once a resumed build recommits the
        manifest (``repro cache clear`` removes them unconditionally).
        """
        orphans = []
        for path in self._tmp_paths():
            if path.parent == self.shards:
                target = self._tmp_target(path)
                if target is not None and target.endswith(".bin"):
                    parsed = self._parse_shard_name(Path(target))
                    if parsed is not None:
                        try:
                            manifest_mtime = (
                                self._manifests.path(parsed[0])
                                .stat()
                                .st_mtime_ns
                            )
                            tmp_mtime = path.stat().st_mtime_ns
                        except OSError:
                            orphans.append(path)
                            continue
                        if tmp_mtime >= manifest_mtime:
                            continue  # in-flight shard write
            orphans.append(path)
        return orphans

    def sweep_tmp(self) -> int:
        """Delete orphaned ``.tmp`` scratch files; returns how many.

        In-flight shard scratches (newer than their build's committed
        manifest) are left alone — see :meth:`orphaned_tmp` for the
        detection rule and its documented residual race.
        """
        return _unlink_all(self.orphaned_tmp())

    def verify(self) -> list[str]:
        """Problems across every tier (empty means the store is clean).

        Beyond each tier's own check, every shard ``.bin`` must belong to a
        valid manifest, sit on its block grid, carry ``rows x width`` bytes
        and hold only 0/1 values.
        """
        problems = self._records.verify() + self._manifests.verify()
        builds = {
            key: info["manifest"]
            for key, info in self.shard_builds().items()
            if info["manifest"] is not None
        }
        for path in self._shard_bins():
            parsed = self._parse_shard_name(path)
            if parsed is None:
                problems.append(f"{path.name}: unparseable shard name")
                continue
            key, start, stop = parsed
            manifest = builds.get(key)
            if manifest is None:
                problems.append(
                    f"{path.name}: orphaned shard (no valid manifest for "
                    "its build; run `repro cache clear`)"
                )
                continue
            if (start, stop) not in set(
                block_ranges(manifest["cols"], manifest["block"])
            ):
                problems.append(
                    f"{path.name}: range off the manifest's block grid"
                )
                continue
            try:
                data = path.read_bytes()
            except OSError as exc:
                problems.append(f"{path.name}: unreadable ({exc})")
                continue
            expected = manifest["rows"] * (stop - start)
            if len(data) != expected:
                problems.append(
                    f"{path.name}: {len(data)} bytes, manifest demands "
                    f"{expected}"
                )
            elif any(byte > 1 for byte in data):
                problems.append(f"{path.name}: non-0/1 truth-matrix bytes")
        problems += self._cells.verify()
        for path in self.orphaned_tmp():
            problems.append(
                f"{path.name}: orphaned tmp scratch file (writer died "
                "mid-commit; run `repro cache sweep-tmp` or `cache clear`)"
            )
        return problems

    def clear(self) -> int:
        """Delete every record, shard, cell and scratch file; returns
        records removed (the CLI reports shard files from :meth:`stats`).
        Unlike :meth:`sweep_tmp`, tmp files go unconditionally — clearing
        invalidates any in-flight build anyway."""
        removed = self._records.clear()
        self._manifests.clear()
        self._cells.clear()
        _unlink_all(self._shard_bins() + self._tmp_paths())
        return removed


# ---------------------------------------------------------------------------
# Active-store resolution: explicit configure() beats the environment.
# ---------------------------------------------------------------------------

_STORES = Activation(ENV_VAR, CacheStore)


def _store_at(path) -> CacheStore | None:
    return CacheStore(path) if path is not None else None


def configure(path) -> CacheStore | None:
    """Pin the process-wide store to ``path`` (None disables the cache even
    when ``REPRO_CACHE_DIR`` is set).  Returns the active store."""
    return _STORES.configure(_store_at(path))


def unconfigure() -> None:
    """Drop any explicit configuration; the environment rules again."""
    _STORES.unconfigure()


def active_store() -> CacheStore | None:
    """The store consulted by the exact-search entry points, or None.

    Explicit :func:`configure` wins; otherwise a non-empty
    ``REPRO_CACHE_DIR`` activates (and memoizes) a store at that path.
    """
    return _STORES.active()


def directory(path):
    """Scoped :func:`configure`: a context manager that activates ``path``,
    yields the store, and restores the previous resolution state
    afterwards."""
    return _STORES.scoped(_store_at(path))


def disabled():
    """Scoped off-switch: no persistent cache inside the block (used by the
    bench harness so engine timings never read a warm user cache)."""
    return _STORES.scoped(None)
