"""Content-addressed on-disk result cache with integrity checking.

Completed sweep points are stored as one JSON file per content key,
sharded by the key's first two hex digits (``ab/abcdef....json``), so a
re-run of a figure — or an extension of a sweep — only computes the
points whose keys are absent.  Keys hash *all* the inputs a point's
value depends on (code version, machine spec, app parameters, seed,
point coordinates); see :mod:`repro.engine.hashing`.

An entry is its own canonical JSON text (sorted keys, no whitespace):
``{"key": K, "payload": P, "sha256": D}``.  ``"sha256"`` sorts last,
so *D* is the sha256 of the entry's bytes up to ``,"sha256":"``
followed by ``}``, which is the content key of ``{"key": K, "payload":
P}``.  A read hashes that byte slice and parses the entry once.
Payload strings of at least :data:`BLOB_MIN` characters (the bundle's
Chrome trace) are stored once, beside the entries, as blobs named by
the sha256 of their UTF-8 bytes (``ab/abcdef....blob``): the payload
holds ``null`` where each string was, and the entry's ``"blobs"``
field, which the digest covers, lists each one's route (the keys and
indices that lead to it) with its sha256.  An entry written by older
code (``json.dumps`` with the default separators) is parsed, then its
key and payload are re-canonicalized to check its sha256, so an
existing cache keeps hitting.

Writes are atomic (temp file + rename) so a killed run never leaves a
truncated entry.  A read that fails a check — truncated JSON, garbage
bytes, a bit-flipped payload under an intact structure, a foreign
schema, a blob missing or altered — is *quarantined*: the entry (and
an altered blob) moves to ``corrupt/`` under the cache root, the
``cache.corrupt_entries`` counter ticks, and the read reports a typed
miss so the engine recomputes and heals the entry.
``repro cache verify`` scans the whole store the same way.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.engine.hashing import canonical_json, content_key
from repro.errors import CacheCorruption, EngineError
from repro.metrics.registry import current_registry

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory of the cache root where corrupt entries are moved.
CORRUPT_DIR = "corrupt"

#: Temp files younger than this are live concurrent writers mid-put,
#: not leftovers; ``verify()``/``clear()`` only sweep older ones.  A
#: blob no entry references is swept on the same terms, because a
#: ``put`` writes its blobs before its entry.
STALE_TEMP_MAX_AGE_S = 60.0

#: Payload strings at least this many characters long are stored as
#: blobs beside the entries instead of inside them.
BLOB_MIN = 1 << 20

#: A blob's file suffix; CI finds entries as ``*.json``, so not that.
BLOB_SUFFIX = ".blob"

#: Every entry :meth:`ResultCache.put` writes ends in
#: ``,"sha256":"<64 hex digits>"}``.
_DIGEST_FIELD = b',"sha256":"'
_DIGEST_TAIL = len(_DIGEST_FIELD) + 64 + 2

_HEX = frozenset("0123456789abcdef")


def default_cache_root() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _entry_digest(key: Any, payload: Any) -> str:
    """The integrity checksum embedded in (and verified against) an entry."""
    return content_key({"key": key, "payload": payload})


def _parse(path: Path, raw: bytes) -> dict[str, Any]:
    """Parse one entry and check its fields; :class:`CacheCorruption`
    if it is not an entry."""
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
    return entry


@dataclass
class CacheVerifyReport:
    """What a full-store integrity scan found (``repro cache verify``)."""

    root: str
    scanned: int = 0
    ok: int = 0
    #: ``(quarantined path, reason)`` per corrupt entry found.
    corrupt: list[tuple[str, str]] = field(default_factory=list)
    stale_temps: int = 0
    #: Stale blobs no entry references, removed.
    orphan_blobs: int = 0

    def format(self) -> str:
        lines = [
            f"cache {self.root}: scanned {self.scanned} | ok {self.ok} | "
            f"corrupt {len(self.corrupt)} | stale temps removed "
            f"{self.stale_temps} | orphan blobs removed {self.orphan_blobs}"
        ]
        for path, reason in self.corrupt:
            lines.append(f"  quarantined {path}: {reason}")
        return "\n".join(lines)


class ResultCache:
    """A content-addressed store of JSON payloads under one directory."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        #: Entries quarantined by this instance (reads + verify scans).
        self.corruptions = 0

    def _path(self, key_hash: str) -> Path:
        return self.root / key_hash[:2] / f"{key_hash}.json"

    def _blob_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}{BLOB_SUFFIX}"

    # -- integrity ---------------------------------------------------------

    def _decode(self, path: Path, raw: bytes) -> dict[str, Any]:
        """Check and parse one entry, its blobs put back into its
        payload; :class:`CacheCorruption` if anything is bad."""
        tail = raw[-_DIGEST_TAIL:]
        canonical = tail.startswith(_DIGEST_FIELD) and tail.endswith(b'"}')
        if canonical:
            digest = hashlib.sha256(memoryview(raw)[:-_DIGEST_TAIL])
            digest.update(b"}")
            if digest.hexdigest().encode("ascii") != tail[len(_DIGEST_FIELD):-2]:
                raise CacheCorruption(path, "sha256 checksum mismatch")
        entry = _parse(path, raw)
        if canonical:
            self._load_blobs(path, entry)
            return entry
        try:
            expected = _entry_digest(entry["key"], entry["payload"])
        except EngineError as error:
            raise CacheCorruption(path, f"unhashable content: {error}") from error
        if entry["sha256"] != expected:
            raise CacheCorruption(path, "sha256 checksum mismatch")
        return entry

    def _load_blobs(self, path: Path, entry: dict[str, Any]) -> None:
        """Put each blob the entry lists back at its route, which must
        hold ``null``."""
        references = entry.get("blobs", [])
        if not isinstance(references, list):
            raise CacheCorruption(path, "blobs field is not a list")
        for reference in references:
            try:
                route, digest = reference
                *steps, last = ["payload", *route]
                holder: Any = entry
                for step in steps:
                    holder = holder[step]
                valid = (
                    holder[last] is None and isinstance(digest, str)
                    and len(digest) == 64 and set(digest) <= _HEX
                )
            except (KeyError, IndexError, TypeError, ValueError):
                valid = False
            if not valid:
                raise CacheCorruption(
                    path, f"malformed blob reference {reference!r}"
                )
            holder[last] = self._read_blob(path, digest)

    def _read_blob(self, path: Path, digest: str) -> str:
        """The string stored as blob *digest*, checked by its sha256;
        an altered blob moves to ``corrupt/``."""
        blob = self._blob_path(digest)
        try:
            data = blob.read_bytes()
        except OSError as error:
            raise CacheCorruption(
                path, f"blob {blob.name} unreadable: {error.strerror}"
            ) from error
        if hashlib.sha256(data).hexdigest() != digest:
            self._move_aside(blob)
            raise CacheCorruption(path, f"blob {blob.name} fails its sha256")
        return data.decode("utf-8", "surrogatepass")

    def _move_aside(self, path: Path) -> Path | None:
        """Move *path* into ``corrupt/``, or delete it; never raises."""
        dest_dir = self.root / CORRUPT_DIR
        dest = dest_dir / path.name
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            try:  # last resort: a corrupt file must not be read again
                path.unlink()
            except OSError:
                pass
            return None
        return dest

    def _quarantine(self, path: Path, reason: str) -> Path | None:
        """Move a corrupt entry aside; never raises (a read must not die)."""
        dest = self._move_aside(path)
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
            payload = self._decode(path, raw)["payload"]
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
        values, never live objects.  Its long strings are written as
        blobs first, then the entry.  Every write is atomic, idempotent
        under concurrency (two writers racing the same key both
        succeed; rename order decides whose identical bytes stay), and
        the temp file is removed on *any* failure, not just
        ``OSError``.
        """
        key_hash = content_key(key)
        blobs: list[list[Any]] = []
        try:
            body = {"key": key, "payload": self._spill(payload, [], blobs)}
            if blobs:
                body["blobs"] = blobs
            text = canonical_json(body).encode("ascii")
        except (TypeError, ValueError, EngineError) as error:
            raise EngineError(
                f"cache payload is not JSON-serializable: {error}"
            ) from error
        digest = hashlib.sha256(text).hexdigest().encode("ascii")
        self._write_atomic(
            self._path(key_hash), text[:-1] + _DIGEST_FIELD + digest + b'"}'
        )
        return key_hash

    def _spill(self, value: Any, route: list[Any], blobs: list[list[Any]]) -> Any:
        """*value* with each string of at least :data:`BLOB_MIN`
        characters written out as a blob and replaced by ``None``;
        ``[route, sha256]`` of each blob goes into *blobs*."""
        if isinstance(value, str):
            if len(value) < BLOB_MIN:
                return value
            data = value.encode("utf-8", "surrogatepass")
            digest = hashlib.sha256(data).hexdigest()
            self._write_atomic(self._blob_path(digest), data)
            blobs.append([route, digest])
            return None
        if isinstance(value, Mapping):
            return {
                name: self._spill(item, [*route, name], blobs)
                for name, item in value.items()
            }
        if isinstance(value, (list, tuple)):
            return [
                self._spill(item, [*route, index], blobs)
                for index, item in enumerate(value)
            ]
        return value

    def _write_atomic(self, path: Path, data: bytes, *, retried: bool = False) -> None:
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
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
            try:
                os.replace(temp_name, path)
            except FileNotFoundError:
                if retried:
                    raise
                self._write_atomic(path, data, retried=True)
        finally:
            if os.path.exists(temp_name):
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass

    def contains(self, key: Mapping[str, Any]) -> bool:
        """Whether *key* has a stored entry (without touching stats)."""
        return self._path(content_key(key)).exists()

    # -- housekeeping ------------------------------------------------------

    def _shards(self):
        # Entries live under two-hex-char shard directories (_path); other
        # subdirectories (quarantine, run manifests) are not cache entries.
        if not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if (
                shard.is_dir()
                and len(shard.name) == 2
                and set(shard.name) <= _HEX
            ):
                yield shard

    def __len__(self) -> int:
        """The number of entries (blobs are not entries)."""
        return sum(
            1 for shard in self._shards() for entry in shard.glob("*.json")
        )

    def clear(self) -> int:
        """Delete every entry and blob; returns how many entries went.

        Also sweeps stale temp files and the quarantine directory
        (neither counts toward the return value).
        """
        removed = 0
        for shard in self._shards():
            for entry in sorted(shard.glob("*.json")):
                entry.unlink()
                removed += 1
            for blob in sorted(shard.glob(f"*{BLOB_SUFFIX}")):
                blob.unlink()
            for temp in sorted(shard.glob(".tmp-*")):
                self._sweep_stale(temp)
        corrupt_dir = self.root / CORRUPT_DIR
        if corrupt_dir.is_dir():
            for entry in sorted(corrupt_dir.iterdir()):
                entry.unlink()
        return removed

    def verify(self) -> CacheVerifyReport:
        """Scan every entry and the blobs it references, quarantine the
        corrupt, sweep stale temps and stale unreferenced blobs.

        The report lists each quarantined file with its reason; the CLI
        (``repro cache verify``) prints it and exits non-zero when
        anything was corrupt.
        """
        report = CacheVerifyReport(root=str(self.root))
        referenced: set[str] = set()
        blobs: list[Path] = []
        for shard in self._shards():
            for entry in sorted(shard.glob("*.json")):
                report.scanned += 1
                try:
                    stored = self._decode(entry, entry.read_bytes())
                except (OSError, CacheCorruption) as error:
                    reason = (
                        error.reason
                        if isinstance(error, CacheCorruption)
                        else f"unreadable: {error}"
                    )
                    dest = self._quarantine(entry, reason)
                    report.corrupt.append(
                        (str(dest if dest is not None else entry), reason)
                    )
                else:
                    report.ok += 1
                    referenced.update(
                        digest for _, digest in stored.get("blobs", [])
                    )
            for temp in sorted(shard.glob(".tmp-*")):
                if self._sweep_stale(temp):
                    report.stale_temps += 1
            blobs += sorted(shard.glob(f"*{BLOB_SUFFIX}"))
        # Entries in any shard may reference a blob in any other, so
        # blobs are swept only once every entry has been read.
        for blob in blobs:
            if blob.stem not in referenced and self._sweep_stale(blob):
                report.orphan_blobs += 1
        return report

    def _sweep_stale(self, path: Path) -> bool:
        """Unlink *path* only if it is old enough to be abandoned.

        A fresh temp is a live concurrent :meth:`put` between its
        write and its rename, and a fresh unreferenced blob one between
        its blob and its entry; deleting either would fail that writer
        for no reason (the thundering-herd false positive).  Only files
        past :data:`STALE_TEMP_MAX_AGE_S` — crashed writers — go.
        """
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False  # already renamed or swept by someone else
        if age < STALE_TEMP_MAX_AGE_S:
            return False
        try:
            path.unlink()
            return True
        except OSError:
            return False
