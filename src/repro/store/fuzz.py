"""Store-manifest corruption fuzzer (``repro fuzz --store``).

Third victim of the shared mutation engine: the trace fuzzer attacks
trace blobs at :func:`~repro.core.trace_format.section_spans`, the
ingest fuzzer attacks frame streams at ``frame_spans``, and this module
attacks run manifests at :func:`~repro.store.manifest.manifest_spans` —
all through the same
:func:`~repro.core.fuzz.iter_blob_mutations` generator.

On top of the blind bit flips and truncations (which the manifest CRC
must catch), a *semantic corpus* re-encodes the manifest with targeted
damage the CRC cannot see — a hash ref pointing at an absent object, a
truncated digest, a negative size, a wrong-arity section tuple — and
drives the full read path (parse → resolve → reassemble) against a real
store.  The contract under attack: every failure is a structured
:class:`~repro.core.errors.StoreFormatError` subclass
(:class:`~repro.core.errors.MissingObjectError` for dangling refs),
never a bare ``KeyError`` and never a leaked ``FileNotFoundError``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..core.errors import TraceFormatError
from ..core.fuzz import CODEC_BOMBS, CRASH, SILENT, FuzzOutcome, \
    FuzzReport, iter_blob_mutations
from ..core.packing import write_value
from ..core.trace_format import emit_section
from .manifest import MANIFEST_MAGIC, MANIFEST_VERSION, RunRecord, \
    manifest_spans
from .repository import TraceStore


def _seal(payload: bytes) -> bytes:
    """A manifest blob with a correct CRC around arbitrary payload
    bytes — only the parser behind the checksum can catch the damage."""
    out = bytearray(MANIFEST_MAGIC)
    out.append(MANIFEST_VERSION)
    emit_section(out, payload, compress=False)
    return bytes(out)


def _reencode(body: tuple) -> bytes:
    """A structurally valid manifest blob around an arbitrary body
    tuple: only semantic validation can catch the damage."""
    payload = bytearray()
    write_value(payload, body)
    return _seal(bytes(payload))


def corpus_manifest_mutations(record: RunRecord
                              ) -> Iterator[tuple[str, bytes]]:
    """Semantically targeted manifests every CRC accepts."""
    body = (record.run_id, record.workload, record.tenant,
            record.nprocs, record.created_ms, record.parent,
            record.header.hex(),
            tuple((s.name, s.digest, s.size, s.reused)
                  for s in record.sections))

    def with_sections(sections) -> bytes:
        return _reencode(body[:7] + (tuple(sections),))

    secs = list(body[7])
    name, digest, size, reused = secs[0]
    absent = ("f" if digest[0] != "f" else "0") + digest[1:]
    yield ("hash ref points at an absent object",
           with_sections([(name, absent, size, reused)] + secs[1:]))
    yield ("hash ref truncated to 12 chars",
           with_sections([(name, digest[:12], size, reused)] + secs[1:]))
    yield ("hash ref holds non-hex characters",
           with_sections([(name, "z" * 64, size, reused)] + secs[1:]))
    yield ("section size is negative",
           with_sections([(name, digest, -1, reused)] + secs[1:]))
    yield ("section ref tuple has wrong arity",
           with_sections([(name, digest, size)] + secs[1:]))
    yield ("section ref is not a tuple",
           with_sections([name] + secs[1:]))
    yield ("empty section list", with_sections([]))
    yield ("run id malformed", _reencode(("nope",) + body[1:]))
    yield ("workload escapes as a path",
           _reencode((body[0], "../evil") + body[2:]))
    yield ("nprocs is zero", _reencode(body[:3] + (0,) + body[4:]))
    yield ("nprocs is a bool", _reencode(body[:3] + (True,) + body[4:]))
    yield ("created_ms is negative",
           _reencode(body[:4] + (-5,) + body[5:]))
    yield ("parent run id malformed",
           _reencode(body[:5] + ("deadbeef",) + body[6:]))
    yield ("header is not hex",
           _reencode(body[:6] + ("xyzzy",) + body[7:]))
    yield ("body is not a tuple", _reencode(("x",)))
    yield ("body has wrong arity", _reencode(body[:5]))
    for desc, value in CODEC_BOMBS:
        yield f"codec bomb as the body: {desc}", _seal(value)


def _exercise(store: TraceStore, blob: bytes) -> None:
    """The full manifest read path: parse, then resolve every hash ref
    against the live store and reassemble — lazily corrupt refs must
    not hide behind a parse that never dereferences them."""
    parsed = RunRecord.from_bytes(blob)
    parts = [parsed.header]
    for sec in parsed.sections:
        parts.append(store.objects.get(sec.digest))
    b"".join(parts)


def run_store_fuzz(store: TraceStore, run_id: str, *, seed: int = 0,
                   n_random: int = 400,
                   record: Optional[RunRecord] = None) -> FuzzReport:
    """Attack one stored run's manifest; every mutation must raise a
    structured :class:`TraceFormatError` subclass or (for mutations
    that happen to keep the manifest valid) reassemble cleanly."""
    record = record if record is not None else store.read_record(run_id)
    blob = record.to_bytes()
    report = FuzzReport()
    mutations = list(corpus_manifest_mutations(record))
    mutations += list(iter_blob_mutations(
        blob, manifest_spans(blob), seed=seed, n_random=n_random))
    for desc, mut in mutations:
        if mut == blob:
            continue
        report.total += 1
        try:
            _exercise(store, mut)
        except TraceFormatError as e:
            report.structured += 1
            cls = type(e).__name__
            report.by_error[cls] = report.by_error.get(cls, 0) + 1
        except Exception as e:  # noqa: BLE001 — the point of the fuzzer
            report.failures.append(FuzzOutcome(
                desc, CRASH, f"{type(e).__name__}: {e}"))
        else:
            # every field of the manifest is covered by magic/version
            # checks, the section CRC, and semantic validation — a
            # mutation that still parses AND resolves is an integrity
            # bug, exactly as in the trace fuzzer
            report.failures.append(FuzzOutcome(desc, SILENT))
    return report
