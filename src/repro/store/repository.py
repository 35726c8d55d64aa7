"""The trace store facade — layer 3 (``repro.store.TraceStore``).

Pilgrim's core insight is that traces are grammars, and grammars from
successive runs of the same application are mostly identical — so
fleet-scale storage should be *sublinear* in run count.  This layer
makes that operational:

* ``put`` splits a serialized trace into its v2 sections (each already
  CRC-framed and deterministically encoded), stores every unique
  section blob once in the CAS, and records the run as a manifest of
  hash references delta-encoded against the prior run of the same
  workload;
* ``get`` reassembles the byte-identical blob (header + section blobs,
  integrity re-verified on read);
* ``diff`` / ``drifted`` answer the fleet question — *which runs
  drifted from the golden pattern?* — at section granularity without
  decoding anything;
* ``dedup_stats`` reports how sublinear the storage actually is.

Obs counters (``store.hits`` / ``store.misses`` /
``store.bytes_deduped`` and friends) ride an injected
:class:`~repro.obs.MetricsRegistry`; everything defaults to the
null registry, so an uninstrumented store costs nothing.

Imports :mod:`repro.core`, :mod:`repro.obs`, and the store layers below
it (objects, manifest, index) — never :mod:`repro.ingest`: the ingest
aggregator persists *into* this store, so the store must sit below it
(DESIGN.md §8; pinned by the layering test in ``tests/test_store.py``).
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from ..core.errors import StoreFormatError
from ..core.trace_format import TRACE, split_sections
from ..obs import NULL_REGISTRY
from .index import RunIndex
from .manifest import (RunRecord, SectionRef, resolve_ref, validate_name)
from .objects import ObjectStore

#: default store root (overridable per call site / --root / REPRO_STORE)
DEFAULT_ROOT = ".repro-store"


@dataclass
class PutResult:
    """What :meth:`TraceStore.put` returns."""

    record: RunRecord
    #: sections whose blobs this put actually wrote
    created: int = 0
    #: sections resolved by reference to blobs that already existed
    reused: int = 0

    @property
    def run_id(self) -> str:
        return self.record.run_id

    def summary(self) -> str:
        r = self.record
        return (f"{r.run_id} {r.workload}: {len(r.sections)} sections, "
                f"{r.total_bytes} bytes logical, {r.new_bytes} new / "
                f"{r.reused_bytes} by reference "
                f"({100 * r.reused_fraction:.1f}% deduplicated)")


@dataclass(frozen=True)
class DiffEntry:
    """One section's fate between two runs."""

    name: str
    kind: str               # "same" | "changed" | "added" | "removed"
    a_size: int = 0
    b_size: int = 0

    def as_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "a_size": self.a_size, "b_size": self.b_size}


@dataclass
class StoreDiff:
    """Section-level diff of two stored runs."""

    run_a: str
    run_b: str
    entries: list[DiffEntry] = field(default_factory=list)

    @property
    def drifted(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.kind != "same"]

    @property
    def identical(self) -> bool:
        return not self.drifted

    def as_dict(self) -> dict:
        return {"run_a": self.run_a, "run_b": self.run_b,
                "identical": self.identical,
                "drifted_sections": len(self.drifted),
                "sections": [e.as_dict() for e in self.entries]}

    def summary(self) -> str:
        if self.identical:
            return (f"{self.run_a} vs {self.run_b}: identical "
                    f"({len(self.entries)} sections)")
        names = ", ".join(e.name for e in self.drifted)
        return (f"{self.run_a} vs {self.run_b}: {len(self.drifted)} of "
                f"{len(self.entries)} sections drifted ({names})")


@dataclass
class DedupStats:
    """How sublinear the store actually is for a workload (or fleet)."""

    workload: Optional[str]
    runs: int = 0
    #: sum of every run's reassembled size — what N traces would cost
    #: without the store
    logical_bytes: int = 0
    #: unique section bytes actually on disk for those runs
    stored_bytes: int = 0

    @property
    def ratio(self) -> float:
        """logical / stored — 2.0 means two runs for the price of one."""
        if not self.stored_bytes:
            return 1.0 if not self.logical_bytes else float("inf")
        return self.logical_bytes / self.stored_bytes

    def as_dict(self) -> dict:
        return {"workload": self.workload, "runs": self.runs,
                "logical_bytes": self.logical_bytes,
                "stored_bytes": self.stored_bytes,
                "dedup_ratio": round(self.ratio, 4)}


class TraceStore:
    """Content-addressed cross-run trace repository."""

    def __init__(self, root: str = DEFAULT_ROOT, *, metrics=None):
        self.root = root
        self.objects = ObjectStore(root)
        self.index = RunIndex(root)
        self.runs_dir = os.path.join(root, "runs")
        registry = metrics if metrics is not None else NULL_REGISTRY
        self.obs = registry.scope("store")

    # -- manifests -----------------------------------------------------------------

    def _manifest_path(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, f"{run_id}.mft")

    def read_record(self, run_id: str) -> RunRecord:
        try:
            with open(self._manifest_path(run_id), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise StoreFormatError(
                f"no manifest for run {run_id} in {self.root}") from None
        record = RunRecord.from_bytes(data)
        if record.run_id != run_id:
            raise StoreFormatError(
                f"manifest {run_id}.mft declares run id "
                f"{record.run_id}")
        return record

    def _write_record(self, record: RunRecord) -> None:
        os.makedirs(self.runs_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-mft-", dir=self.runs_dir)
        with os.fdopen(fd, "wb") as fh:
            fh.write(record.to_bytes())
        os.replace(tmp, self._manifest_path(record.run_id))

    # -- put / get -----------------------------------------------------------------

    def put(self, blob: bytes, workload: str, *,
            tenant: str = "default") -> PutResult:
        """Store one serialized trace as a run of *workload*.

        Splits the blob into its v2 sections, stores each unique
        section once, and writes a manifest delta-encoded against the
        workload's prior run.  Returns the :class:`PutResult` with the
        dedup accounting the CI smoke job asserts on.
        """
        validate_name(workload, "workload")
        validate_name(tenant, "tenant")
        header, sections = split_sections(blob)
        parent = self.index.latest(workload) or ""
        refs: list[SectionRef] = []
        created = reused = 0
        created_this_put: set[str] = set()
        for name, sec in sections:
            digest, was_created = self.objects.put(sec)
            if was_created:
                created_this_put.add(digest)
            ref_reused = digest not in created_this_put
            self.objects.incref(digest)
            refs.append(SectionRef(name=name, digest=digest,
                                   size=len(sec), reused=ref_reused))
            if ref_reused:
                reused += 1
            else:
                created += 1
        run_id = self.index.issue_run_id()
        record = RunRecord(
            run_id=run_id, workload=workload, tenant=tenant,
            nprocs=TRACE.header(header, check=False)[2][0],
            created_ms=int(time.time() * 1000), parent=parent,
            header=header, sections=refs)
        self._write_record(record)
        self.index.append(workload, run_id)
        self.index.save()
        if self.obs.enabled:
            self.obs.counter("puts").inc()
            self.obs.counter("hits").inc(reused)
            self.obs.counter("misses").inc(created)
            self.obs.counter("bytes_deduped").inc(record.reused_bytes)
            self.obs.counter("bytes_written").inc(record.new_bytes)
        return PutResult(record=record, created=created, reused=reused)

    def get(self, ref: str, *, verify: bool = True) -> bytes:
        """Reassemble a run's byte-identical trace blob.

        *ref* is a run id, ``workload@latest``, or ``workload@golden``.
        Every section blob is integrity re-verified against its content
        address unless ``verify=False``.
        """
        record = self.read_record(self.resolve(ref))
        parts = [record.header]
        for sec in record.sections:
            parts.append(self.objects.get(sec.digest, verify=verify))
        if self.obs.enabled:
            self.obs.counter("gets").inc()
        return b"".join(parts)

    def resolve(self, ref: str) -> str:
        """A run id from any accepted reference form."""
        run_id, selector = resolve_ref(ref)
        if run_id is not None:
            return run_id
        workload, _, which = selector.partition("@")
        got = (self.index.latest(workload) if which == "latest"
               else self.index.golden(workload))
        if got is None:
            raise StoreFormatError(
                f"no {which} run for workload {workload!r}")
        return got

    # -- lineage management ----------------------------------------------------------

    def delete_run(self, run_id: str) -> RunRecord:
        """Drop a run: decref its sections, remove its manifest, unlink
        it from the lineage.  Blobs stay until :func:`gc` sweeps them."""
        record = self.read_record(run_id)
        workload = self.index.workload_of(run_id)
        if workload is None:
            raise StoreFormatError(
                f"run {run_id} has a manifest but no lineage entry")
        for sec in record.sections:
            self.objects.decref(sec.digest)
        os.unlink(self._manifest_path(run_id))
        self.index.remove(workload, run_id)
        self.index.save()
        if self.obs.enabled:
            self.obs.counter("deletes").inc()
        return record

    def pin_golden(self, run_id: str) -> str:
        """Pin *run_id* as its workload's golden run; returns the
        workload key."""
        workload = self.index.workload_of(run_id)
        if workload is None:
            raise StoreFormatError(f"unknown run {run_id}")
        self.index.pin_golden(workload, run_id)
        self.index.save()
        return workload

    # -- queries -------------------------------------------------------------------

    def ls(self, workload: Optional[str] = None) -> list[RunRecord]:
        workloads = [workload] if workload else self.index.workloads()
        return [self.read_record(rid)
                for w in workloads for rid in self.index.runs(w)]

    def diff(self, ref_a: str, ref_b: str) -> StoreDiff:
        """Section-level structural diff of two runs (no decode)."""
        a = self.read_record(self.resolve(ref_a))
        b = self.read_record(self.resolve(ref_b))
        a_secs = {s.name: s for s in a.sections}
        b_secs = {s.name: s for s in b.sections}
        entries: list[DiffEntry] = []
        for s in a.sections:
            other = b_secs.get(s.name)
            if other is None:
                entries.append(DiffEntry(s.name, "removed",
                                         a_size=s.size))
            elif other.digest == s.digest:
                entries.append(DiffEntry(s.name, "same", a_size=s.size,
                                         b_size=other.size))
            else:
                entries.append(DiffEntry(s.name, "changed",
                                         a_size=s.size,
                                         b_size=other.size))
        for s in b.sections:
            if s.name not in a_secs:
                entries.append(DiffEntry(s.name, "added",
                                         b_size=s.size))
        return StoreDiff(run_a=a.run_id, run_b=b.run_id, entries=entries)

    def drifted(self, workload: str) -> list[tuple[str, StoreDiff]]:
        """Every run of *workload* diffed against its golden run —
        the fleet query.  Raises when no golden run is pinned."""
        golden = self.index.golden(workload)
        if golden is None:
            raise StoreFormatError(
                f"no golden run pinned for workload {workload!r} "
                f"(pin one with: repro store pin RUN_ID)")
        out = []
        for rid in self.index.runs(workload):
            if rid == golden:
                continue
            out.append((rid, self.diff(golden, rid)))
        return out

    def dedup_stats(self, workload: Optional[str] = None) -> DedupStats:
        records = self.ls(workload)
        stats = DedupStats(workload=workload, runs=len(records))
        seen: set[str] = set()
        for rec in records:
            stats.logical_bytes += rec.total_bytes
            for sec in rec.sections:
                if sec.digest not in seen:
                    seen.add(sec.digest)
                    stats.stored_bytes += sec.size
        return stats
