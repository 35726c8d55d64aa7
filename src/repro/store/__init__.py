"""``repro.store`` — the content-addressed cross-run trace repository.

Traces are grammars, and grammars from successive runs of the same
application are mostly identical (the Pilgrim insight); this package
turns that into *sublinear* fleet storage.  A serialized trace is split
into its format-v2 sections, each unique section blob is stored once
under its SHA-256, and a run becomes a manifest of hash references
delta-encoded against the workload's prior run.

Strictly layered, upward-only (pinned by ``tests/test_store.py``)::

    (4) maintenance.py   gc (mark-sweep + refcount audit), retention,
                         compaction
             │
             ▼
    (3) repository.py    TraceStore: put/get/ls/diff/drifted/
                         dedup_stats, obs counters
             │
             ▼
    (2) manifest.py      RunRecord binary manifests + SectionRef;
        index.py         RunIndex lineage + golden pinning
             │
             ▼
    (1) objects.py       sharded on-disk CAS: atomic writes, refcount
                         sidecars, integrity re-verification on read
             │
             ▼
        repro.core       (split_sections, Container, errors)

The ingest service persists folded tenants *into* this store
(``repro serve --store DIR``), so the whole package sits below
:mod:`repro.ingest` and never imports it.
"""

import sys
import types
from typing import Any, Optional

from .index import RunIndex
from .maintenance import (GCReport, RetentionReport, apply_retention,
                          compute_refcounts, gc)
from .manifest import RunRecord, SectionRef
from .objects import ObjectStore, hash_blob
from .repository import (DEFAULT_ROOT, DedupStats, DiffEntry, PutResult,
                         StoreDiff, TraceStore)

__all__ = [
    "DEFAULT_ROOT", "DedupStats", "DiffEntry", "GCReport", "ObjectStore",
    "PutResult", "RetentionReport", "RunIndex", "RunRecord", "SectionRef",
    "StoreDiff", "TraceStore", "apply_retention", "compute_refcounts",
    "gc", "hash_blob",
]


class _StoreFacadeModule(types.ModuleType):
    """Make ``repro.store`` callable: the package doubles as the facade
    verb (``repro.store(root)``, see :func:`repro.api.store`), so
    importing the subpackage can never shadow the public API — the
    same arrangement as ``repro.bench``."""

    def __call__(self, root: Optional[str] = None, *,
                 metrics: Any = None) -> TraceStore:
        from ..api import store as _store
        return _store(root, metrics=metrics)


sys.modules[__name__].__class__ = _StoreFacadeModule
