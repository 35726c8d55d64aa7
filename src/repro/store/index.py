"""Run index — layer 2 (workload → run lineage, golden pinning).

One small binary file (``<root>/index.bin``) maps each workload key to
its ordered run lineage plus an optional *golden* run — the pinned
reference pattern drift queries compare against.  A global counter
issues run ids, so ids are unique across workloads and ``repro store
get r000042`` needs no workload qualifier.

The file is the :data:`INDEX` container (one CRC'd section) and is
rewritten atomically on every mutation — the index is tiny (ids only;
the heavy state lives in manifests and the CAS), so full rewrite is
cheaper than being clever.  A corrupt index raises a structured
:class:`~repro.core.errors.StoreFormatError`, never a bare parse error.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

from ..core.container import Container, Section
from ..core.errors import StoreFormatError
from ..core.packing import read_value, write_value
from .manifest import validate_name, validate_run_id


class WorkloadLineage:
    """One workload's ordered runs + golden pin."""

    __slots__ = ("runs", "golden")

    def __init__(self, runs: Optional[list[str]] = None,
                 golden: str = ""):
        self.runs: list[str] = list(runs or [])
        self.golden = golden


class RunIndex:
    """The store's run registry, persisted as ``index.bin``."""

    def __init__(self, root: str):
        self.root = root
        self.path = os.path.join(root, "index.bin")
        self.next_id = 1
        self.lineages: dict[str, WorkloadLineage] = {}
        self._load()

    # -- persistence ---------------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        self.next_id, self.lineages = INDEX.read(data).values[0]

    def save(self) -> None:
        payload = bytearray()
        write_value(payload, (
            self.next_id,
            tuple((w, lin.golden, tuple(lin.runs))
                  for w, lin in sorted(self.lineages.items()))))
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-idx-", dir=self.root)
        with os.fdopen(fd, "wb") as fh:
            fh.write(INDEX.write((bytes(payload),)))
        os.replace(tmp, self.path)

    # -- mutation ------------------------------------------------------------------

    def issue_run_id(self) -> str:
        rid = f"r{self.next_id:06d}"
        self.next_id += 1
        return rid

    def append(self, workload: str, run_id: str) -> None:
        lin = self.lineages.setdefault(workload, WorkloadLineage())
        lin.runs.append(run_id)

    def remove(self, workload: str, run_id: str) -> None:
        lin = self.lineages.get(workload)
        if lin is None or run_id not in lin.runs:
            raise StoreFormatError(
                f"run {run_id} is not in {workload!r}'s lineage")
        lin.runs.remove(run_id)
        if lin.golden == run_id:
            lin.golden = ""
        if not lin.runs:
            del self.lineages[workload]

    def pin_golden(self, workload: str, run_id: str) -> None:
        lin = self.lineages.get(workload)
        if lin is None or run_id not in lin.runs:
            raise StoreFormatError(
                f"cannot pin {run_id}: not a run of {workload!r}")
        lin.golden = run_id

    # -- queries -------------------------------------------------------------------

    def workloads(self) -> list[str]:
        return sorted(self.lineages)

    def runs(self, workload: str) -> list[str]:
        lin = self.lineages.get(workload)
        return list(lin.runs) if lin else []

    def all_runs(self) -> list[str]:
        return [rid for lin in self.lineages.values()
                for rid in lin.runs]

    def latest(self, workload: str) -> Optional[str]:
        lin = self.lineages.get(workload)
        return lin.runs[-1] if lin and lin.runs else None

    def golden(self, workload: str) -> Optional[str]:
        lin = self.lineages.get(workload)
        return lin.golden or None if lin else None

    def workload_of(self, run_id: str) -> Optional[str]:
        for workload, lin in self.lineages.items():
            if run_id in lin.runs:
                return workload
        return None


def _lineages(body) -> tuple[int, dict[str, WorkloadLineage]]:
    """The index section's ``(next_id, entries)`` tuple, validated."""
    if not isinstance(body, tuple) or len(body) != 2:
        raise StoreFormatError("index body is not a 2-tuple")
    next_id, entries = body
    if isinstance(next_id, bool) or not isinstance(next_id, int) \
            or next_id < 1:
        raise StoreFormatError(f"index counter {next_id!r} invalid")
    if not isinstance(entries, tuple):
        raise StoreFormatError("index entries are not a tuple")
    lineages: dict[str, WorkloadLineage] = {}
    for entry in entries:
        if not isinstance(entry, tuple) or len(entry) != 3:
            raise StoreFormatError(f"malformed index entry {entry!r}")
        workload, golden, runs = entry
        validate_name(workload, "workload")
        if golden != "":
            validate_run_id(golden)
        if not isinstance(runs, tuple):
            raise StoreFormatError(
                f"index runs for {workload!r} are not a tuple")
        for rid in runs:
            validate_run_id(rid)
        if golden and golden not in runs:
            raise StoreFormatError(
                f"index pins golden {golden} for {workload!r} but "
                f"the lineage does not contain it")
        lineages[workload] = WorkloadLineage(list(runs), golden)
    return next_id, lineages


INDEX = Container(b"PIDX", 1, None,
                  (Section("index", lambda r: _lineages(read_value(r))),),
                  StoreFormatError, what="run index")
