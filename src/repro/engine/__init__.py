"""Experiment-execution layer: parallel fan-out + content-addressed cache.

Public surface:

* :class:`ExperimentEngine` — runs :class:`SweepSpec`\\ s across worker
  processes with deterministic result ordering, memoizing points in a
  :class:`ResultCache` and emitting a :class:`RunManifest` per sweep.
* :class:`ExecutionPolicy` — per-point wall-clock timeouts and seeded
  retries; :class:`RunJournal` — the write-ahead journal behind
  ``--resume``; :meth:`ResultCache.verify` — full-store integrity
  scans with quarantine of corrupt shards.
* :mod:`repro.engine.sweeps` — the repo's concrete sweep definitions
  (magicfilter unrolls, cluster scaling, fault/checkpoint studies),
  shared by the CLI, the service, the benchmarks and the tests; every
  cached computation is one :class:`~repro.engine.sweeps.Experiment`
  record with a module-level worker, the single source of its
  parameters and sweep key.
* :mod:`repro.engine.chaos` — deterministic fault injection for the
  chaos harness (``tests/chaos/``).
"""

from repro.engine.cache import (
    CACHE_DIR_ENV,
    CORRUPT_DIR,
    CacheVerifyReport,
    ResultCache,
    default_cache_root,
)
from repro.engine.engine import (
    SCHEMA_VERSION,
    ExperimentEngine,
    ReplicatedRun,
    SweepRun,
    SweepSpec,
)
from repro.engine.hashing import canonical_json, canonicalize, content_key
from repro.engine.journal import JOURNAL_SCHEMA, RunJournal
from repro.engine.manifest import (
    PointRecord,
    RunManifest,
    load_manifests,
    scan_manifests,
)
from repro.engine.resilience import ExecutionPolicy

__all__ = [
    "CACHE_DIR_ENV",
    "CORRUPT_DIR",
    "CacheVerifyReport",
    "ExecutionPolicy",
    "ExperimentEngine",
    "JOURNAL_SCHEMA",
    "PointRecord",
    "ReplicatedRun",
    "ResultCache",
    "RunJournal",
    "RunManifest",
    "SCHEMA_VERSION",
    "SweepRun",
    "SweepSpec",
    "canonical_json",
    "canonicalize",
    "content_key",
    "default_cache_root",
    "load_manifests",
    "scan_manifests",
]
