"""The truth-matrix shard side of the persistent cache store.

A sharded build is a manifest (the block grid) plus one raw ``.bin`` per
column block, all content-addressed under ``shards/``.  These tests pin
the invariants the streamed builder leans on: manifests round-trip
canonically, shards refuse lengths that cannot tile the grid, stats and
verify see partial builds and orphans, and clear really empties the lot.
"""

import pytest

from repro import cache
from repro.cache.keys import build_key, shard_name
from repro.cache.store import block_ranges, shard_manifest_problems


def make_key(tag="demo"):
    return build_key("test-shard-1", {"tag": tag})


class TestKeys:
    def test_build_key_is_stable_and_param_sensitive(self):
        a = build_key("v1", {"n": 5, "k": 3})
        assert a == build_key("v1", {"k": 3, "n": 5})  # order-insensitive
        assert a != build_key("v1", {"n": 5, "k": 4})
        assert a != build_key("v2", {"n": 5, "k": 3})
        assert len(a) == 40 and int(a, 16) >= 0

    def test_build_key_rejects_bad_versions(self):
        with pytest.raises(ValueError):
            build_key("", {})
        with pytest.raises(ValueError):
            build_key("v\x001", {})

    def test_shard_name_encodes_range(self):
        name = shard_name("ab" * 20, 0, 32)
        assert name.endswith(".00000000-00000032")
        with pytest.raises(ValueError):
            shard_name("ab" * 20, 5, 5)
        with pytest.raises(ValueError):
            shard_name("ab" * 20, -1, 5)


class TestBlockRanges:
    def test_tiles_exactly(self):
        assert block_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert block_ranges(8, 4) == [(0, 4), (4, 8)]
        assert block_ranges(0, 4) == []
        assert block_ranges(3, 100) == [(0, 3)]

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            block_ranges(10, 0)
        with pytest.raises(ValueError):
            block_ranges(-1, 4)


class TestManifest:
    def test_round_trip(self, tmp_path):
        with cache.directory(tmp_path) as store:
            key = make_key()
            manifest = cache.shard_manifest_record(4, 10, 4, "modnp-shard-1")
            assert shard_manifest_problems(manifest) == []
            store.put_shard_manifest(key, manifest)
            assert store.get_shard_manifest(key) == manifest
            # Re-committing the identical manifest is idempotent.
            store.put_shard_manifest(key, manifest)
            assert store.get_shard_manifest(key) == manifest

    def test_schema_problems(self):
        assert shard_manifest_problems(None)
        bad = cache.shard_manifest_record(4, 10, 4, "e")
        bad["rows"] = 0
        assert any("rows" in p for p in shard_manifest_problems(bad))
        bad = cache.shard_manifest_record(4, 10, 4, "e")
        bad["extra"] = 1
        assert any("unknown" in p for p in shard_manifest_problems(bad))


class TestShardIO:
    def test_put_get_and_stats(self, tmp_path):
        with cache.directory(tmp_path) as store:
            key = make_key()
            store.put_shard_manifest(
                key, cache.shard_manifest_record(2, 10, 4, "e")
            )
            for start, stop in block_ranges(10, 4):
                store.put_shard(key, start, stop, b"\x01" * (2 * (stop - start)))
            stats = store.stats()["shards"]
            assert stats["builds"] == 1
            assert stats["complete_builds"] == 1
            assert stats["partial_builds"] == 0
            assert stats["shards"] == 3
            assert stats["bytes"] == 20
            assert stats["orphaned_shards"] == 0
            assert store.get_shard(key, 0, 4) == b"\x01" * 8
            assert store.verify() == []

    def test_partial_build_is_visible(self, tmp_path):
        with cache.directory(tmp_path) as store:
            key = make_key()
            store.put_shard_manifest(
                key, cache.shard_manifest_record(2, 10, 4, "e")
            )
            store.put_shard(key, 0, 4, b"\x00" * 8)
            stats = store.stats()["shards"]
            assert stats["partial_builds"] == 1
            assert stats["complete_builds"] == 0
            builds = store.shard_builds()
            assert builds[key]["missing"] == 2

    def test_put_refuses_untiled_lengths(self, tmp_path):
        with cache.directory(tmp_path) as store:
            key = make_key()
            with pytest.raises(ValueError):
                store.put_shard(key, 0, 4, b"\x00" * 8)  # no manifest yet
            store.put_shard_manifest(
                key, cache.shard_manifest_record(2, 10, 4, "e")
            )
            with pytest.raises(ValueError):
                store.put_shard(key, 0, 4, b"\x00" * 7)  # wrong length

    def test_get_missing_is_none(self, tmp_path):
        with cache.directory(tmp_path) as store:
            assert store.get_shard(make_key(), 0, 4) is None


class TestVerifyAndClear:
    def test_orphan_shard_detected(self, tmp_path):
        with cache.directory(tmp_path) as store:
            key = make_key()
            store.put_shard_manifest(
                key, cache.shard_manifest_record(2, 10, 4, "e")
            )
            orphan = make_key("other")
            (store.shards / f"{shard_name(orphan, 0, 4)}.bin").write_bytes(
                b"\x00" * 8
            )
            assert store.stats()["shards"]["orphaned_shards"] == 1
            assert any("orphan" in p for p in store.verify())

    def test_verify_flags_corrupt_bytes_and_grid(self, tmp_path):
        with cache.directory(tmp_path) as store:
            key = make_key()
            store.put_shard_manifest(
                key, cache.shard_manifest_record(2, 10, 4, "e")
            )
            # Off-grid range and non-0/1 payload, planted by hand.
            (store.shards / f"{shard_name(key, 1, 3)}.bin").write_bytes(
                b"\x00" * 4
            )
            (store.shards / f"{shard_name(key, 0, 4)}.bin").write_bytes(
                b"\x07" * 8
            )
            problems = store.verify()
            assert any("block grid" in p for p in problems)
            assert any("non-0/1" in p for p in problems)

    def test_clear_removes_everything(self, tmp_path):
        with cache.directory(tmp_path) as store:
            key = make_key()
            store.put_shard_manifest(
                key, cache.shard_manifest_record(2, 10, 4, "e")
            )
            store.put_shard(key, 0, 4, b"\x00" * 8)
            # clear() counts records only; shard files report separately.
            assert store.clear() == 0
            stats = store.stats()["shards"]
            assert stats["builds"] == 0 and stats["shards"] == 0

    def test_clear_shards_counts_files(self, tmp_path):
        with cache.directory(tmp_path) as store:
            key = make_key()
            store.put_shard_manifest(
                key, cache.shard_manifest_record(2, 10, 4, "e")
            )
            store.put_shard(key, 0, 4, b"\x00" * 8)
            assert store.stats()["shards"]["shards"] == 1  # what the CLI reports
            store.clear()
            assert list(store.shards.iterdir()) == []  # manifest + shard gone

    def test_manifest_with_bad_fields_is_partial_reported_and_cleared(
        self, tmp_path
    ):
        store = cache.CacheStore(tmp_path)
        key = make_key()
        (store.shards / f"{key}.manifest.json").write_text('{"v":1}\n')
        stats = store.stats()["shards"]
        assert stats["builds"] == 1 and stats["partial_builds"] == 1
        assert store.shard_builds()[key] == {"manifest": None, "missing": None}
        assert store.get_shard_manifest(key) is None
        problems = store.verify()
        assert any("rows is not a positive int" in p for p in problems)
        assert any("missing or empty engine tag" in p for p in problems)
        with pytest.raises(ValueError):
            store.put_shard(key, 0, 4, b"\x00" * 8)
        store.clear()
        assert list(store.shards.iterdir()) == []

    def test_cli_survives_a_manifest_with_bad_fields(self, tmp_path, capsys):
        from repro.cli import main

        store = cache.CacheStore(tmp_path)
        (store.shards / f"{make_key()}.manifest.json").write_text('{"v":1}\n')
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "1 partial" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert list(store.shards.iterdir()) == []

    def test_top_level_stats_include_shards(self, tmp_path):
        with cache.directory(tmp_path) as store:
            assert "shards" in store.stats()
