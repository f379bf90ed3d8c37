"""Chaos: damaged result-cache blobs.

A payload string of at least ``BLOB_MIN`` characters is stored once,
beside the entries, as a blob named by its sha256 (the bundle's Chrome
trace).  A blob that is missing, truncated or has one byte flipped
makes its entry corrupt, under the contract every corrupt entry has:
the entry is quarantined, the read is a typed miss, the engine
recomputes the point and the healed value round-trips.
``BLOB_MIN`` is made small here so the payloads stay small.
"""

import os
import time

import pytest

from repro.engine import (
    CORRUPT_DIR,
    ExperimentEngine,
    ResultCache,
    SweepSpec,
    content_key,
)
from repro.engine import cache as cache_module
from repro.errors import CacheCorruption

KEY = {"experiment": "blob-chaos", "point": 1}
TEXT = "0123456789abcdef" * 8
PAYLOAD = {"files": {"trace.chrome.json": TEXT, "report.md": "# short"}}

BLOB_MODES = ("missing", "truncated", "flipped")


@pytest.fixture(autouse=True)
def small_blobs(monkeypatch):
    monkeypatch.setattr(cache_module, "BLOB_MIN", 64)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def blobs_of(cache):
    return sorted(cache.root.glob(f"??/*{cache_module.BLOB_SUFFIX}"))


def damage(blob, mode):
    if mode == "missing":
        blob.unlink()
    elif mode == "truncated":
        blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
    else:
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0x01
        blob.write_bytes(bytes(data))


def text_point(params):
    return {"text": params["char"] * params["size"]}


def text_sweep():
    return SweepSpec(
        "chaos/text", text_point,
        [{"char": "a", "size": 10}, {"char": "b", "size": 200}],
        key={"experiment": "chaos-text"},
    )


@pytest.mark.parametrize("mode", BLOB_MODES)
def test_damaged_blob_quarantines_its_entry_as_a_typed_miss(cache, mode):
    cache.put(KEY, PAYLOAD)
    entry = cache._path(content_key(KEY))
    (blob,) = blobs_of(cache)
    damage(blob, mode)

    strict = ResultCache(cache.root)
    with pytest.raises(CacheCorruption, match=blob.name):
        strict.get(KEY, strict=True)
    assert strict.corruptions == 1
    assert not entry.exists()
    quarantined = sorted(p.name for p in (cache.root / CORRUPT_DIR).iterdir())
    assert entry.name in quarantined
    # An altered blob goes aside too, so no read trusts it again.
    assert not blob.exists()
    assert cache.get(KEY) is None and cache.misses == 1

    cache.put(KEY, PAYLOAD)
    assert cache.get(KEY) == PAYLOAD
    assert [b.name for b in blobs_of(cache)] == [blob.name]


@pytest.mark.parametrize("mode", BLOB_MODES)
def test_engine_recomputes_through_a_damaged_blob(tmp_path, mode):
    engine = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
    baseline = engine.run(text_sweep()).values
    (blob,) = blobs_of(engine.cache)
    damage(blob, mode)

    again = engine.run(text_sweep())
    assert again.values == baseline
    assert (again.manifest.hits, again.manifest.misses) == (1, 1)
    record = again.manifest.points[1]
    assert record.transient_errors[0]["type"] == "CacheCorruption"

    healed = engine.run(text_sweep())
    assert healed.values == baseline
    assert healed.manifest.misses == 0


def test_cache_verify_exits_one_naming_the_entry_and_its_blob(cache, capsys):
    from repro.cli import main

    cache.put(KEY, PAYLOAD)
    entry = cache._path(content_key(KEY))
    (blob,) = blobs_of(cache)
    damage(blob, "flipped")
    code = main(["cache", "verify", "--cache-dir", str(cache.root)])
    out = capsys.readouterr().out
    assert code == 1
    assert "scanned 1 | ok 0 | corrupt 1" in out
    assert entry.name in out and blob.name in out


def test_verify_checks_blobs_and_keeps_the_referenced_ones(cache):
    cache.put(KEY, PAYLOAD)
    (blob,) = blobs_of(cache)
    old = time.time() - cache_module.STALE_TEMP_MAX_AGE_S - 1.0
    os.utime(blob, (old, old))
    report = cache.verify()
    assert (report.scanned, report.ok, report.corrupt) == (1, 1, [])
    assert report.orphan_blobs == 0 and blob.exists()


def test_verify_removes_an_orphan_blob_once_it_is_stale(cache):
    cache.put(KEY, PAYLOAD)
    (blob,) = blobs_of(cache)
    cache._path(content_key(KEY)).unlink()

    # Fresh: a put may have written its blob and not yet its entry.
    report = cache.verify()
    assert report.orphan_blobs == 0 and blob.exists()

    old = time.time() - cache_module.STALE_TEMP_MAX_AGE_S - 1.0
    os.utime(blob, (old, old))
    report = cache.verify()
    assert report.orphan_blobs == 1 and not blob.exists()
    assert "orphan blobs removed 1" in report.format()


def test_cache_clear_leaves_no_blob_behind(cache, capsys):
    from repro.cli import main

    cache.put(KEY, PAYLOAD)
    cache.put({"experiment": "blob-chaos", "point": 2}, {"text": "b" * 100})
    assert len(blobs_of(cache)) == 2
    assert main(["cache", "clear", "--cache-dir", str(cache.root)]) == 0
    assert "removed 2 entries" in capsys.readouterr().out
    assert blobs_of(cache) == [] and len(cache) == 0


def test_len_counts_entries_not_blobs(cache):
    cache.put(KEY, PAYLOAD)
    cache.put({"experiment": "blob-chaos", "point": 2}, PAYLOAD)
    cache.put({"experiment": "blob-chaos", "point": 3}, {"value": 3})
    assert len(blobs_of(cache)) == 1  # one string, stored once
    assert len(cache) == 3
