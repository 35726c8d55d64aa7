"""Differential lossless round-trip verification.

"As we developed both compressor and decompressor, we can check
correctness by comparing uncompressed traces to compressed next
decompressed traces" (§4).  This module is that check, grown into a real
verifier.  The uncompressed side comes from an independent observer: a
:class:`RoundTrip` tee runs the :class:`PilgrimTracer` under test beside
a :class:`~repro.core.backends.RawTracer`, which encodes every call and
memory hook with its own encoders and keeps each rank's signatures
verbatim — no CST, no grammar.  The check decompresses the Pilgrim
blob and proves four properties against those streams:

* **terminal_streams** — each rank's decoded terminal stream equals its
  raw signature stream mapped through the merged CST, symbol for
  symbol;
* **records** — the fully decoded :class:`DecodedCall` records (function
  name + every parameter) equal the records re-derived from the raw
  per-rank signatures;
* **call_counts** — call counts are conserved per rank and in total
  (``decoder.call_count(rank) == len(raw[rank])``), i.e. compression
  neither drops nor invents calls;
* **reencode** — parse(serialize(trace)) re-serializes to the identical
  byte string, so the on-disk form is a fixed point of the reader.

``verify_workload`` wraps the whole flow (trace a registered workload,
then verify) for the ``repro verify`` CLI subcommand and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mpisim.hooks import TracerHooks
from .backends import RawTracer
from .decoder import TraceDecoder
from .records import sig_to_params
from .trace_format import TraceFile
from .tracer import PilgrimTracer

_MAX_MISMATCHES = 20


@dataclass
class VerifyReport:
    ok: bool
    nprocs: int
    total_calls: int
    mismatches: list[str]
    #: named property -> passed (terminal_streams/records/call_counts/
    #: reencode); empty on legacy construction
    checks: dict[str, bool] = field(default_factory=dict)
    per_rank_calls: list[int] = field(default_factory=list)
    trace_bytes: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        detail = ", ".join(
            f"{name}={'ok' if passed else 'FAIL'}"
            for name, passed in self.checks.items())
        return (f"lossless round-trip: {status} "
                f"({self.total_calls} calls on {self.nprocs} ranks"
                + (f"; {detail}" if detail else "") + ")")


def _note(mismatches: list[str], msg: str) -> bool:
    """Record a mismatch, truncating the list; returns False for its
    callers' convenience (the check just failed)."""
    if len(mismatches) < _MAX_MISMATCHES:
        mismatches.append(msg)
    elif len(mismatches) == _MAX_MISMATCHES:
        mismatches.append("... (truncated)")
    return False


class RoundTrip(TracerHooks):
    """Run *tracer* and a :class:`RawTracer` on the same calls: every
    call and memory hook goes to both.  The raw side is built with the tracer's encoder
    settings, so on a sound tracer its streams are what the trace
    decodes to (attach the tee to the simulator in the tracer's place,
    then hand it to :func:`verify_roundtrip`)."""

    def __init__(self, tracer: PilgrimTracer) -> None:
        self.tracer = tracer
        self.raw = RawTracer(
            relative_ranks=tracer.relative_ranks,
            per_signature_request_pools=tracer.per_signature_request_pools)

    @property
    def result(self):
        return self.tracer.result

    @property
    def total_calls(self) -> int:
        """The traced calls (what the simulator's ``RunResult`` reads)."""
        return self.tracer.total_calls

    def on_run_start(self, sim) -> None:
        self.tracer.on_run_start(sim)
        self.raw.on_run_start(sim)

    def on_call(self, rank, fname, values, t0, t1) -> None:
        self.tracer.on_call(rank, fname, values, t0, t1)
        self.raw.on_call(rank, fname, values, t0, t1)

    def on_mem(self, rank, fname, args, result, t) -> None:
        self.tracer.on_mem(rank, fname, args, result, t)
        self.raw.on_mem(rank, fname, args, result, t)

    def on_run_end(self, sim) -> None:
        # the raw side's streams are complete: its serialized blob is
        # never read, and building it would re-encode every signature
        self.tracer.on_run_end(sim)


def verify_roundtrip(tee: RoundTrip, *,
                     allow_degraded: bool = False) -> VerifyReport:
    """Compare the raw (never compressed) signature streams against
    decode(compress(...)).

    Requires a :class:`RoundTrip` whose run has finished
    (``tee.result`` populated).

    A degraded result (the resilient pipeline abandoned some rank span)
    fails outright unless ``allow_degraded=True``, in which case the
    four properties are asserted on the *surviving* ranks only and a
    fifth check, ``salvage_accounting``, proves the salvage report's
    call deficit exactly accounts for every call the trace dropped.
    """
    if not isinstance(tee, RoundTrip):
        raise TypeError(f"verify_roundtrip needs a RoundTrip(tracer) run, "
                        f"not a {type(tee).__name__}")
    tracer, streams = tee.tracer, tee.raw.streams
    if tracer.result is None:
        raise ValueError("run not finalized — nothing to verify")

    result = tracer.result
    degraded = bool(getattr(result, "degraded", False))
    salvage = getattr(result, "salvage", None)
    blob = result.trace_bytes
    decoder = TraceDecoder.from_bytes(blob, salvage=allow_degraded)
    index = {sig: t for t, sig in enumerate(decoder.trace.cst.sigs)}
    mismatches: list[str] = []
    checks = {"terminal_streams": True, "records": True,
              "call_counts": True, "reencode": True}
    total = 0
    per_rank: list[int] = []
    lost: set[int] = set()

    if degraded:
        if not allow_degraded:
            checks["degraded"] = _note(
                mismatches,
                (salvage.summary() if salvage is not None else
                 "result is degraded")
                + " — pass allow_degraded=True to verify the survivors")
        else:
            checks["salvage_accounting"] = True
            if salvage is None:
                checks["salvage_accounting"] = _note(
                    mismatches, "degraded result carries no SalvageReport")
            else:
                lost = set(salvage.lost_ranks)

    if decoder.nprocs != tracer.nprocs:
        checks["call_counts"] = _note(
            mismatches, f"decoded nprocs {decoder.nprocs} != "
            f"traced {tracer.nprocs}")

    for rank in range(tracer.nprocs):
        if rank in lost:
            per_rank.append(0)
            continue
        raw_sigs = streams[rank]
        dec_terms = decoder.rank_terminals(rank)
        dec_sigs = [decoder.trace.cst.sigs[t] for t in dec_terms]
        total += len(raw_sigs)
        per_rank.append(len(raw_sigs))

        # conservation: the decoder's count must match without expansion
        # tricks, per rank and against the stream it actually yields
        n_dec = decoder.call_count(rank)
        if n_dec != len(raw_sigs) or n_dec != len(dec_terms):
            checks["call_counts"] = _note(
                mismatches, f"rank {rank}: {len(raw_sigs)} raw calls, "
                f"{len(dec_terms)} decoded, call_count says {n_dec}")

        # exact terminal streams: map the raw signatures to the decoded
        # CST's numbering and compare symbol for symbol
        if len(raw_sigs) != len(dec_sigs):
            checks["terminal_streams"] = _note(
                mismatches, f"rank {rank}: length {len(raw_sigs)} raw vs "
                f"{len(dec_sigs)} decoded")
            continue
        missing = [sig for sig in raw_sigs if sig not in index]
        for sig in missing:
            checks["terminal_streams"] = _note(
                mismatches, f"raw signature {sig!r} missing from merged CST")
        if not missing and [index[sig] for sig in raw_sigs] != dec_terms:
            checks["terminal_streams"] = _note(
                mismatches, f"rank {rank}: terminal streams differ")

        for i, (a, b) in enumerate(zip(raw_sigs, dec_sigs)):
            if a != b:
                checks["records"] = _note(
                    mismatches, f"rank {rank} call {i}: {a!r} != {b!r}")
            elif sig_to_params(a) != sig_to_params(b):
                checks["records"] = _note(
                    mismatches, f"rank {rank} call {i}: decoded params "
                    f"differ for {a!r}")

    if lost:
        # conservation on the survivors: the decoded total must equal the
        # surviving raw total, and the salvage report's deficit must be
        # exactly the calls the lost ranks actually made
        if decoder.call_count() != total:
            checks["call_counts"] = _note(
                mismatches, f"surviving calls: {total} raw, "
                f"{decoder.call_count()} decoded")
        true_deficit = sum(len(streams[r]) for r in lost
                           if r < len(streams))
        if salvage is not None and salvage.call_deficit != true_deficit:
            checks["salvage_accounting"] = _note(
                mismatches, f"salvage reports a deficit of "
                f"{salvage.call_deficit} calls; the lost ranks really "
                f"made {true_deficit}")
        if total + true_deficit != tracer.total_calls:
            checks["call_counts"] = _note(
                mismatches, f"survivors ({total}) + lost "
                f"({true_deficit}) != {tracer.total_calls} traced")
    elif total != tracer.total_calls or decoder.call_count() != total:
        checks["call_counts"] = _note(
            mismatches, f"total calls: {tracer.total_calls} traced, "
            f"{total} raw, {decoder.call_count()} decoded")

    if TraceFile.from_bytes(blob).to_bytes() != blob:
        checks["reencode"] = _note(
            mismatches, "parse(serialize(trace)) is not byte-stable")

    return VerifyReport(ok=all(checks.values()), nprocs=tracer.nprocs,
                        total_calls=total, mismatches=mismatches,
                        checks=checks, per_rank_calls=per_rank,
                        trace_bytes=len(blob))


def verify_workload(name: str, nprocs: int, *, seed: int = 1,
                    options=None, allow_degraded: bool = False,
                    **params) -> VerifyReport:
    """Trace a registered workload under a :class:`RoundTrip` and
    round-trip verify it (the ``repro verify`` CLI entry point).

    This is a thin wrapper over :func:`repro.api.verify` — tracer
    configuration belongs in *options* (a :class:`~repro.core.backends.
    TracerOptions`); extra keywords are workload parameters.
    """
    from .. import api  # late import: repro.api sits above repro.core
    return api.verify(name, nprocs, seed=seed, options=options,
                      allow_degraded=allow_degraded, **params)
