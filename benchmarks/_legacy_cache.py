"""Frozen result cache, kept as compatibility oracle and benchmark baseline.

This is ``repro.engine.cache.ResultCache``'s read and write path exactly
as it shipped before entries became their own canonical text: ``put``
writes ``json.dumps(..., sort_keys=True)`` with the default separators
and the Chrome trace inline, and ``_decode`` parses an entry, then
re-canonicalizes its key and payload to check the embedded sha256.
``tests/engine/test_cache_format.py`` checks that an entry this class
writes still hits through the current cache, and
``benchmarks/bench_core.py`` times a warm read on both and records the
``cache_get`` speedup ratio.  Housekeeping (``verify``, ``clear``) is
left out: nothing here uses it.  Do not modernize this file; its read
path is the baseline.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

from repro.engine.hashing import canonical_json, content_key
from repro.errors import CacheCorruption, EngineError
from repro.metrics.registry import current_registry

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory of the cache root where corrupt entries are moved.
CORRUPT_DIR = "corrupt"


def default_cache_root() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _entry_digest(key: Any, payload: Any) -> str:
    """The integrity checksum embedded in (and verified against) an entry."""
    return content_key({"key": key, "payload": payload})


class LegacyResultCache:
    """A content-addressed store of JSON payloads under one directory."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        #: Entries quarantined by this instance (reads + verify scans).
        self.corruptions = 0

    def _path(self, key_hash: str) -> Path:
        return self.root / key_hash[:2] / f"{key_hash}.json"

    # -- integrity ---------------------------------------------------------

    @staticmethod
    def _decode(path: Path, raw: bytes) -> Any:
        """Parse and checksum one entry; :class:`CacheCorruption` if bad."""
        try:
            entry = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as error:
            raise CacheCorruption(path, f"not valid UTF-8: {error}") from error
        except ValueError as error:
            raise CacheCorruption(path, f"unparsable JSON: {error}") from error
        if not isinstance(entry, dict):
            raise CacheCorruption(
                path, f"entry is {type(entry).__name__}, not an object"
            )
        missing = {"key", "payload", "sha256"} - entry.keys()
        if missing:
            raise CacheCorruption(
                path, f"missing field(s) {sorted(missing)}"
            )
        try:
            expected = _entry_digest(entry["key"], entry["payload"])
        except EngineError as error:
            raise CacheCorruption(path, f"unhashable content: {error}") from error
        if entry["sha256"] != expected:
            raise CacheCorruption(path, "sha256 checksum mismatch")
        return entry["payload"]

    def _quarantine(self, path: Path, reason: str) -> Path | None:
        """Move a corrupt entry aside; never raises (a read must not die)."""
        dest_dir = self.root / CORRUPT_DIR
        dest: Path | None = dest_dir / path.name
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            try:  # last resort: a corrupt entry must not be read again
                path.unlink()
            except OSError:
                pass
            dest = None
        self.corruptions += 1
        current_registry().inc("cache.corrupt_entries")
        return dest

    # -- core API ----------------------------------------------------------

    def get(self, key: Mapping[str, Any], *, strict: bool = False) -> Any | None:
        """Return the payload stored under *key*, or ``None`` on a miss.

        A corrupt entry is quarantined to ``corrupt/`` and counts as a
        miss: the engine recomputes the point and the next :meth:`put`
        heals the file.  ``strict=True`` raises the underlying
        :class:`~repro.errors.CacheCorruption` instead of reporting the
        miss (after quarantining).
        """
        path = self._path(content_key(key))
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as error:
            self._quarantine(path, f"unreadable: {error}")
            self.misses += 1
            if strict:
                raise CacheCorruption(path, f"unreadable: {error}") from error
            return None
        try:
            payload = self._decode(path, raw)
        except CacheCorruption as error:
            self._quarantine(path, error.reason)
            self.misses += 1
            if strict:
                raise
            return None
        self.hits += 1
        return payload

    def put(self, key: Mapping[str, Any], payload: Any) -> str:
        """Store *payload* under *key*; returns the content key.

        The payload must be JSON-serializable — the cache stores
        values, never live objects.  The write is atomic, idempotent
        under concurrency (two writers racing the same key both
        succeed; rename order decides whose identical bytes stay), and
        the temp file is removed on *any* failure, not just
        ``OSError``.
        """
        key_hash = content_key(key)
        canonical_key = json.loads(canonical_json(key))
        try:
            body = {
                "key": canonical_key,
                "payload": payload,
                "sha256": _entry_digest(canonical_key, payload),
            }
            text = json.dumps(body, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError, EngineError) as error:
            raise EngineError(
                f"cache payload is not JSON-serializable: {error}"
            ) from error
        self._write_atomic(self._path(key_hash), text)
        return key_hash

    def _write_atomic(self, path: Path, text: str, *, retried: bool = False) -> None:
        """Temp-file + rename, tolerant of a concurrent housekeeper.

        A ``verify()``/``clear()`` racing this writer may sweep the
        temp (or, externally, the whole shard directory) between the
        write and the rename, surfacing as ``FileNotFoundError`` from
        ``os.replace``.  That is contention, not corruption: retry once
        with a fresh temp after re-creating the shard.  A second loss
        means something is actively deleting our files — propagate.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
            try:
                os.replace(temp_name, path)
            except FileNotFoundError:
                if retried:
                    raise
                self._write_atomic(path, text, retried=True)
        finally:
            if os.path.exists(temp_name):
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
