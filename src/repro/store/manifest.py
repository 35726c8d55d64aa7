"""Run manifests — layer 2 (what the store knows about one run).

A run is *not* stored as a trace blob.  It is stored as a manifest: the
few header bytes inline, plus an ordered list of content-hash references
into the object store, one per trace-format-v2 section.  Reassembly is
pure concatenation (``header + section blobs``), so a round trip through
the store is byte-identical by construction — and two runs that share
sections share storage.

The on-disk form is the :data:`MANIFEST` container (magic ``PRUN``,
version 1, one uncompressed CRC'd section), so :mod:`repro.fuzz` attacks
manifests with the machinery it aims at traces and ingest frames; the
section is::

    write_value((run_id, workload, tenant, nprocs, created_ms, parent,
                 header_hex, ((name, digest, size, reused), ...)))

Every read path raises a structured
:class:`~repro.core.errors.StoreFormatError` — a corrupt hash ref must
never surface as a ``KeyError`` or ``FileNotFoundError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from ..core.container import Container, Section
from ..core.errors import StoreFormatError
from ..core.packing import read_value, write_value
from .objects import validate_digest

#: run ids are index-issued ("r000042"); workload keys double as path
#: components, so both are validated on every read
_RUN_ID_RE = re.compile(r"^r[0-9]{6,}$")
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


def validate_run_id(run_id: str) -> str:
    if not isinstance(run_id, str) or not _RUN_ID_RE.match(run_id):
        raise StoreFormatError(f"invalid run id {run_id!r} "
                               f"(want rNNNNNN)")
    return run_id


def validate_name(name: str, what: str) -> str:
    """Workload / tenant keys become file-path components — validated
    so a hostile manifest cannot traverse outside the store root."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise StoreFormatError(
            f"invalid {what} {name!r} (want alphanumeric, dot, dash, "
            f"underscore; max 100 chars)")
    return name


@dataclass(frozen=True)
class SectionRef:
    """One section of one run: a named reference into the CAS."""

    name: str
    digest: str
    size: int
    #: True when the blob already existed at put time — the section was
    #: resolved *by reference* instead of stored again
    reused: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "digest": self.digest,
                "size": self.size, "reused": self.reused}


@dataclass
class RunRecord:
    """One stored run: identity, lineage, and its section refs."""

    run_id: str
    workload: str
    tenant: str
    nprocs: int
    created_ms: int
    #: the prior run of the same workload this run was delta-encoded
    #: against (empty string for a workload's first run)
    parent: str
    #: the trace's preamble (magic/version/flags/nprocs), stored inline
    header: bytes
    sections: list[SectionRef] = field(default_factory=list)

    # -- derived -------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Logical trace size (what ``get`` reassembles)."""
        return len(self.header) + sum(s.size for s in self.sections)

    @property
    def reused_bytes(self) -> int:
        return sum(s.size for s in self.sections if s.reused)

    @property
    def new_bytes(self) -> int:
        return sum(s.size for s in self.sections if not s.reused)

    @property
    def reused_fraction(self) -> float:
        """Fraction of section bytes resolved by reference to blobs
        that already existed (the acceptance metric: an identical
        re-run resolves ~100%)."""
        section_bytes = sum(s.size for s in self.sections)
        if not section_bytes:
            return 0.0
        return self.reused_bytes / section_bytes

    def digests(self) -> list[str]:
        return [s.digest for s in self.sections]

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id, "workload": self.workload,
            "tenant": self.tenant, "nprocs": self.nprocs,
            "created_ms": self.created_ms, "parent": self.parent or None,
            "total_bytes": self.total_bytes,
            "new_bytes": self.new_bytes,
            "reused_bytes": self.reused_bytes,
            "reused_fraction": round(self.reused_fraction, 4),
            "sections": [s.as_dict() for s in self.sections],
        }

    # -- serialization ---------------------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = bytearray()
        write_value(payload, (
            self.run_id, self.workload, self.tenant, self.nprocs,
            self.created_ms, self.parent, self.header.hex(),
            tuple((s.name, s.digest, s.size, s.reused)
                  for s in self.sections)))
        return MANIFEST.write((bytes(payload),))

    @classmethod
    def from_bytes(cls, data: bytes) -> "RunRecord":
        return MANIFEST.read(data).values[0]

    @classmethod
    def _from_tuple(cls, body) -> "RunRecord":
        if not isinstance(body, tuple) or len(body) != 8:
            raise StoreFormatError(
                f"manifest body is not an 8-tuple (got "
                f"{type(body).__name__} of {len(body) if isinstance(body, tuple) else '?'})")
        (run_id, workload, tenant, nprocs, created_ms, parent,
         header_hex, sections) = body
        validate_run_id(run_id)
        validate_name(workload, "workload")
        validate_name(tenant, "tenant")
        if isinstance(nprocs, bool) or not isinstance(nprocs, int) \
                or nprocs < 1:
            raise StoreFormatError(f"manifest nprocs {nprocs!r} invalid")
        if isinstance(created_ms, bool) or not isinstance(created_ms, int) \
                or created_ms < 0:
            raise StoreFormatError(
                f"manifest created_ms {created_ms!r} invalid")
        if parent != "":
            validate_run_id(parent)
        if not isinstance(header_hex, str):
            raise StoreFormatError("manifest header is not a hex string")
        try:
            header = bytes.fromhex(header_hex)
        except ValueError:
            raise StoreFormatError(
                f"manifest header {header_hex!r} is not hex") from None
        if not isinstance(sections, tuple) or not sections:
            raise StoreFormatError("manifest holds no section refs")
        refs = []
        for entry in sections:
            if not isinstance(entry, tuple) or len(entry) != 4:
                raise StoreFormatError(
                    f"malformed section ref {entry!r}")
            name, digest, size, reused = entry
            validate_name(name, "section name")
            validate_digest(digest)
            if isinstance(size, bool) or not isinstance(size, int) \
                    or size < 0:
                raise StoreFormatError(
                    f"section {name!r} size {size!r} invalid")
            if not isinstance(reused, bool):
                raise StoreFormatError(
                    f"section {name!r} reused flag {reused!r} invalid")
            refs.append(SectionRef(name, digest, size, reused))
        return cls(run_id=run_id, workload=workload, tenant=tenant,
                   nprocs=nprocs, created_ms=created_ms, parent=parent,
                   header=header, sections=refs)


MANIFEST = Container(
    b"PRUN", 1, None,
    (Section("manifest", lambda r: RunRecord._from_tuple(read_value(r))),),
    StoreFormatError, what="run manifest")


def resolve_ref(ref: str) -> tuple[Optional[str], Optional[str]]:
    """Parse a CLI run reference: a bare run id (``r000001``) returns
    ``(run_id, None)``; ``workload@latest`` / ``workload@golden``
    return ``(None, ...)`` handled by the store."""
    if _RUN_ID_RE.match(ref):
        return ref, None
    if "@" in ref:
        workload, _, which = ref.partition("@")
        validate_name(workload, "workload")
        if which not in ("latest", "golden"):
            raise StoreFormatError(
                f"unknown run selector {which!r} (want latest|golden)")
        return None, ref
    raise StoreFormatError(
        f"cannot resolve {ref!r}: want a run id (rNNNNNN) or "
        f"workload@latest / workload@golden")
