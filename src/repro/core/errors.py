"""Structured trace-format errors.

Pilgrim's headline property is *(near) lossless* tracing, so the trace
file is a contract: a reader must either produce exactly the records the
writer saw or fail loudly with a diagnosable error.  Every read path in
:mod:`repro.core.packing`, :mod:`repro.core.trace_format`, and
:mod:`repro.core.decoder` raises one of these instead of leaking raw
``IndexError``/``KeyError`` (or, worse, returning silently wrong data).

The hierarchy bottoms out on :class:`ValueError` so callers that predate
the structured errors (``except ValueError``) keep working.
"""

from __future__ import annotations


class TraceFormatError(ValueError):
    """A trace blob violates the on-disk format contract."""


class TruncatedTraceError(TraceFormatError):
    """The blob ends before the structure it promises is complete."""


class ChecksumError(TraceFormatError):
    """A section's stored CRC32 does not match its bytes."""

    def __init__(self, section: str, stored: int, computed: int):
        super().__init__(
            f"{section} section checksum mismatch: "
            f"stored {stored:#010x}, computed {computed:#010x}")
        self.section = section
        self.stored = stored
        self.computed = computed


class UnsupportedVersionError(TraceFormatError):
    """The trace declares a format version this reader cannot parse."""

    def __init__(self, found: int, expected: int):
        super().__init__(
            f"unsupported trace version {found} (this reader "
            f"understands version {expected})")
        self.found = found
        self.expected = expected


class CorruptTraceError(TraceFormatError):
    """The blob is structurally inconsistent (bad tag, bad rule
    reference, impossible count, trailing bytes, ...)."""


class FrameFormatError(TraceFormatError):
    """An ingest-protocol frame violates the wire-format contract (bad
    magic, unknown frame kind, failed CRC, truncated payload).  Lives in
    the same hierarchy as the trace errors because a frame is a
    container like a trace (:mod:`repro.core.container`) — and because
    the server loop's contract is the decoder's: structured errors only,
    never a crash."""


class StoreFormatError(TraceFormatError):
    """A trace-store artifact (run manifest, run index, refcount
    sidecar) violates its on-disk contract.  Lives in the trace-error
    hierarchy because the store's files are containers like a trace — and
    because the store's read paths inherit the decoder's contract:
    structured errors only, never a bare ``KeyError`` and never a
    leaked ``FileNotFoundError``."""


class MissingObjectError(StoreFormatError):
    """A manifest references a content hash the object store does not
    hold (deleted out-of-band, or a corrupt hash ref).  Carries the
    digest so callers can report exactly which blob is gone."""

    def __init__(self, digest: str, detail: str = ""):
        super().__init__(
            f"object {digest[:12]}… is not in the store"
            + (f" ({detail})" if detail else ""))
        self.digest = digest


class StoreIntegrityError(StoreFormatError):
    """A stored object's bytes no longer hash to its address (on-disk
    corruption caught by the read-path re-verification)."""

    def __init__(self, digest: str, computed: str):
        super().__init__(
            f"object {digest[:12]}… failed integrity re-verification: "
            f"stored bytes hash to {computed[:12]}…")
        self.digest = digest
        self.computed = computed


class ReplayFormatError(CorruptTraceError):
    """A trace parsed cleanly but cannot be *re-executed*: its decoded
    call stream is internally inconsistent (a request completed twice,
    an unknown communicator id, a construction order that derives
    different ids than were recorded, a call with no replay handler).
    Lives in the trace-error hierarchy because the replay engine is a
    read path like any other — fuzzed traces must produce structured
    errors, never a bare ``MpiSimError``/``AssertionError``/crash."""


class MissingRankError(CorruptTraceError):
    """A rank inside ``[0, nprocs)`` has no data in the trace — its
    entry is absent from the CFG rank map (typically a salvaged or
    degraded trace whose shard was lost).  Carries the rank so callers
    like ``verify --allow-degraded`` can skip it deliberately."""

    def __init__(self, rank: int, detail: str = ""):
        super().__init__(
            f"rank {rank} has no data in this trace"
            + (f" ({detail})" if detail else ""))
        self.rank = rank
