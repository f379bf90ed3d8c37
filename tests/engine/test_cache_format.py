"""The result cache's entry layout: canonical text, blobs, old entries.

An entry is its own canonical JSON text, so a read checks its sha256
over the bytes it read; strings of at least ``BLOB_MIN`` characters
live in content-addressed blobs beside the entries.  These tests pin
that any JSON payload round-trips through that layout, whatever it
holds (long strings, dicts shaped like a blob reference, keys with
``/`` or ``~`` in them), and that an entry the frozen cache
(``benchmarks/_legacy_cache.py``) wrote still hits.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.engine import ResultCache, content_key
from repro.engine import cache as cache_module
from repro.engine.hashing import canonical_json

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _legacy_cache import LegacyResultCache  # noqa: E402

#: A small ``BLOB_MIN`` so examples hold several blobs cheaply.
SMALL_BLOB_MIN = 24

names = (
    st.sampled_from(["", "/", "~", "~1", "a/b", "~0/", "blobs", "sha256"])
    | st.text(max_size=6)
)
scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=SMALL_BLOB_MIN - 1)
)
long_strings = st.text(min_size=SMALL_BLOB_MIN, max_size=3 * SMALL_BLOB_MIN)
# Data that looks like what an entry stores about its blobs.
reference_like = st.fixed_dictionaries({
    "blobs": st.lists(
        st.tuples(st.lists(names, max_size=2), st.just("0" * 64)), max_size=2
    ),
    "sha256": st.just("f" * 64),
}) | st.lists(st.tuples(st.lists(names, max_size=2), st.none()), max_size=2)
payloads = st.recursive(
    scalars | long_strings | reference_like,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(names, children, max_size=4)
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(payloads, st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))
def test_any_payload_round_trips_through_canonical_text_and_blobs(payload, point):
    key = {"experiment": "format", "point": point}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cache_module, "BLOB_MIN", SMALL_BLOB_MIN):
        cache = ResultCache(tmp)
        cache.put(key, payload)
        raw = cache._path(content_key(key)).read_bytes()
        entry = json.loads(raw)
        assert canonical_json(entry).encode("ascii") == raw
        blobs = sorted(Path(tmp).glob(f"??/*{cache_module.BLOB_SUFFIX}"))
        if blobs:
            assert set(entry) == {"blobs", "key", "payload", "sha256"}
            assert {b.stem for b in blobs} == {d for _, d in entry["blobs"]}
        else:
            assert set(entry) == {"key", "payload", "sha256"}
        assert entry["sha256"] == content_key(
            {name: value for name, value in entry.items() if name != "sha256"}
        )

        got = ResultCache(tmp).get(key, strict=True)
        assert canonical_json(got) == canonical_json(payload)
        assert ResultCache(tmp).verify().ok == 1


def test_long_strings_become_blobs_with_null_in_the_payload(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "BLOB_MIN", SMALL_BLOB_MIN)
    cache = ResultCache(tmp_path)
    trace = "t" * SMALL_BLOB_MIN
    payload = {"files": {"trace.chrome.json": trace, "a/b~": [trace, "short"]}}
    cache.put({"k": 1}, payload)
    entry = json.loads(cache._path(content_key({"k": 1})).read_text())
    assert entry["payload"] == {
        "files": {"trace.chrome.json": None, "a/b~": [None, "short"]}
    }
    digest = hashlib.sha256(trace.encode()).hexdigest()
    assert entry["blobs"] == [
        [["files", "trace.chrome.json"], digest], [["files", "a/b~", 0], digest],
    ]
    # One string, stored once.
    assert [p.name for p in tmp_path.glob("??/*.blob")] == [f"{digest}.blob"]
    assert cache.get({"k": 1}) == payload


@pytest.mark.parametrize("payload", [
    {"value": {"elapsed_s": 12.5}, "metrics": {"counters": {}}},
    {"value": "x" * 100, "note": "café ☃"},
    [1, 2.5, None, True, {"nested": ["a", {"b": -0.0}]}],
])
def test_an_entry_the_frozen_cache_wrote_still_hits(tmp_path, monkeypatch, payload):
    monkeypatch.setattr(cache_module, "BLOB_MIN", SMALL_BLOB_MIN)
    key = {"experiment": "compat", "seed": 7}
    LegacyResultCache(tmp_path).put(key, payload)
    cache = ResultCache(tmp_path)
    assert cache.get(key, strict=True) == payload
    assert (cache.hits, cache.misses, cache.corruptions) == (1, 0, 0)
    report = cache.verify()
    assert (report.scanned, report.ok, report.corrupt) == (1, 1, [])
    # Healing rewrites the entry in the current layout, same payload.
    cache.put(key, payload)
    raw = cache._path(content_key(key)).read_bytes()
    assert canonical_json(json.loads(raw)).encode("ascii") == raw
    assert cache.get(key) == payload
