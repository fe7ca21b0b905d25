"""Result-cache integrity: checksums, quarantine and crash hygiene.

Every campaign run goes through the disk cache, so damage must always read
as a miss (recompute), never as a wrong answer — and the evidence of the
damage must survive for inspection instead of being silently deleted.
"""

import json

from repro.systems.result_cache import (
    CACHE_VERSION,
    INTEGRITY_FIELD,
    ResultDiskCache,
    payload_checksum,
)

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


def _cache(tmp_path, **kwargs) -> ResultDiskCache:
    return ResultDiskCache(tmp_path / "cache", **kwargs)


class TestChecksum:
    def test_round_trip_embeds_version_and_checksum(self, tmp_path):
        cache = _cache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 5}})
        loaded = cache.load(KEY_A)
        assert loaded["result"] == {"cycles": 5}
        assert loaded["cache_version"] == CACHE_VERSION
        assert loaded[INTEGRITY_FIELD] == payload_checksum(loaded)
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_bitflip_is_quarantined_not_served(self, tmp_path):
        cache = _cache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 5}})
        path = cache.path_for(KEY_A)
        payload = json.loads(path.read_text())
        payload["result"]["cycles"] = 999_999  # silent bit-rot, valid JSON
        path.write_text(json.dumps(payload))

        assert cache.load(KEY_A) is None
        assert cache.stats.corrupt_quarantined == 1
        assert not path.exists()
        assert list(cache.corrupt_dir.iterdir())  # the evidence is kept

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = _cache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 5}})
        path = cache.path_for(KEY_A)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.load(KEY_A) is None
        assert cache.stats.corrupt_quarantined == 1
        assert len(list(cache.corrupt_dir.iterdir())) == 1

    def test_repeated_quarantine_keeps_every_specimen(self, tmp_path):
        cache = _cache(tmp_path)
        for _ in range(2):
            cache.store(KEY_A, {"result": {"cycles": 5}})
            cache.path_for(KEY_A).write_text("garbage")
            assert cache.load(KEY_A) is None
        assert cache.stats.corrupt_quarantined == 2
        assert len(list(cache.corrupt_dir.iterdir())) == 2  # suffixed, not clobbered

    def test_version_mismatch_is_dropped_as_stale_not_quarantined(self, tmp_path):
        cache = _cache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 5}})
        path = cache.path_for(KEY_A)
        payload = json.loads(path.read_text())
        payload["cache_version"] = CACHE_VERSION - 1
        path.write_text(json.dumps(payload))

        assert cache.load(KEY_A) is None
        assert cache.stats.stale_dropped == 1
        assert cache.stats.corrupt_quarantined == 0
        assert not path.exists()
        assert not cache.corrupt_dir.exists()

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = _cache(tmp_path, enabled=False)
        cache.store(KEY_A, {"result": {}})
        assert cache.load(KEY_A) is None
        assert not (tmp_path / "cache").exists()


class TestCrashHygiene:
    def test_prune_tmp_removes_orphans_and_spares_entries(self, tmp_path):
        cache = _cache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 1}})
        orphan = cache.path_for(KEY_A).parent / "deadbeef.tmp"
        orphan.write_text("half-written")
        assert cache.prune_tmp() == 1
        assert not orphan.exists()
        assert cache.load(KEY_A) is not None

    def test_clear_sweeps_entries_and_quarantine(self, tmp_path):
        cache = _cache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 1}})
        cache.store(KEY_B, {"result": {"cycles": 2}})
        cache.path_for(KEY_A).write_text("garbage")
        cache.load(KEY_A)  # → corrupt/
        assert cache.clear() == 2  # the survivor + the quarantined specimen
        assert cache.load(KEY_B) is None
