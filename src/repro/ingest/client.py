"""Ingest client — layer 4 (the ``repro push`` produce side).

:class:`ChunkingTracer` subclasses :class:`~repro.core.tracer.
PilgrimTracer`, builds streaming ranks (encode + CST, no Sequitur) and,
every *chunk_calls* traced calls, drains each rank's new state into one
:class:`~repro.core.shard.ShardPartial` per rank and hands that flush to
an emit callback instead of folding locally — ``on_run_end`` skips
``finalize()``: the server owns the fold and all the grammar work.

:class:`IngestClient` speaks the frame protocol over a plain blocking
socket: HELLO/HELLO_ACK handshake, one CHUNK per flush
(:meth:`IngestClient.send_partials`: every rank's partial in one record
in one frame, compressed once, written once, ACKed once), a bounded
window of unACKed CHUNKs (the client blocks on ACKs when the window
fills; the server folds inline, so TCP pushes back on its sends), FIN
with per-rank call counts for the conservation check, then RESULT with
the folded trace.  Reconnects ride
:class:`~repro.resilience.retry.TaskSupervisor`: on a connection
failure the client redials with backoff, re-HELLOs with ``resume=True``,
learns the server's durable ``next_seq``, drops everything already
absorbed and resends the rest — at-least-once delivery made
exactly-once by the server's duplicate suppression.

:func:`push` ties it together and is what ``api.push()`` / ``repro
push`` call.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.backends import TracerOptions
from ..core.errors import TraceFormatError
from ..core.shard import (ShardPartial, StreamingRankCompressor,
                          write_flush)
from ..core.tracer import TIMING_AGGREGATE, TIMING_LOSSY, PilgrimTracer
from ..resilience.retry import RetryPolicy, TaskSupervisor
from ..workloads import make as _make_workload
from . import protocol as proto
from .session import DEFAULT_WINDOW

#: transport failures worth a reconnect (ConnectionError ⊂ OSError;
#: EOFError marks a stream that ended mid-frame)
RETRYABLE = (OSError, EOFError)


class IngestError(RuntimeError):
    """The server refused the stream (an ERROR frame): carries the
    server-side error class name and detail."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"server error {code}: {detail}")
        self.code = code
        self.detail = detail


class ChunkingTracer(PilgrimTracer):
    """A tracer that streams partial shards instead of finalizing.

    A *flush* drains every rank with something new into one
    :class:`~repro.core.shard.ShardPartial` each, in ascending rank
    order, at a cost proportional to what the ranks saw since the last
    one.  *emit_flush* receives each flush whole, as a list — the unit
    the wire carries (:meth:`IngestClient.send_partials`); *emit*
    receives the same partials one at a time, for callers that record or
    time them individually.  ``chunk_calls`` is the flush period in
    traced calls across all ranks; 1 streams after every call, huge
    values degenerate to one whole-run chunk.
    """

    rank_class = StreamingRankCompressor

    def __init__(self, emit: Optional[Callable[[ShardPartial], None]] = None,
                 *, emit_flush: Optional[
                     Callable[[list[ShardPartial]], None]] = None,
                 chunk_calls: int = 256, **kwargs):
        if chunk_calls < 1:
            raise ValueError(
                f"chunk_calls must be >= 1, got {chunk_calls}")
        if (emit is None) == (emit_flush is None):
            raise TypeError("pass exactly one of emit and emit_flush")
        super().__init__(**kwargs)
        self._emit = emit
        self._emit_flush = emit_flush if emit_flush is not None \
            else self._emit_each
        self.chunk_calls = chunk_calls
        self._unflushed = 0

    def on_call(self, rank, fname, values, t0, t1) -> None:
        super().on_call(rank, fname, values, t0, t1)
        self._unflushed += 1
        if self._unflushed >= self.chunk_calls:
            self.flush_now()

    def flush_now(self) -> None:
        """Emit one partial per rank that observed anything since the
        previous flush (buffered batch calls are drained first)."""
        self._unflushed = 0
        flushed = (rc.flush_partial() for rc in self.ranks)
        partials = [p for p in flushed if p is not None]
        if partials:
            self._emit_flush(partials)

    def _emit_each(self, partials: list[ShardPartial]) -> None:
        for p in partials:
            self._emit(p)

    def on_run_end(self, sim) -> None:
        # the server owns the fold: ship the tail, never finalize; then
        # drop the ranks' working sets (RankCompressor.release) and views
        self.flush_now()
        for rc in self.ranks:
            rc.release()
        self._observe, self.encoders, self.timing = [], [], []

    def config(self) -> proto.IngestConfig:
        return proto.IngestConfig(
            loop_detection=self.loop_detection,
            cfg_dedup=self.cfg_dedup,
            lossy_timing=self.timing_mode == TIMING_LOSSY,
            timing_base=self.timing_base,
            per_function_base=dict(self.per_function_base or {}))


class IngestClient:
    """Blocking frame-protocol client with reconnect + resend."""

    def __init__(self, host: str, port: int, tenant: str, *,
                 window: int = DEFAULT_WINDOW,
                 retry: Optional[RetryPolicy] = None,
                 timeout: float = 30.0):
        self.host = host
        self.port = port
        self.tenant = proto.validate_tenant(tenant)
        self.window = window
        self.timeout = timeout
        self.supervisor = TaskSupervisor(
            retry if retry is not None else RetryPolicy(), RETRYABLE)
        self._sock: Optional[socket.socket] = None
        self._dec = proto.FrameDecoder()
        self._next_seq = 0
        self._acked = 0
        #: seq -> CHUNK frame bytes, kept until ACKed (resend buffer)
        self._unacked: dict[int, bytes] = {}
        self._nprocs = 0
        self._config: Optional[proto.IngestConfig] = None
        self.reconnects = 0
        #: CHUNK frames (flushes) and the partials they carried; resends
        #: after a reconnect are not counted again
        self.chunks_sent = 0
        self.partials_sent = 0
        #: socket writes and the bytes they carried, resends included
        self.sendalls = 0
        self.bytes_sent = 0

    # -- transport -----------------------------------------------------------------

    def connect(self, nprocs: int, config: proto.IngestConfig) -> None:
        self._nprocs = nprocs
        self._config = config
        self.supervisor.run(
            lambda attempt: self._dial(resume=False), site="ingest.connect")

    def _dial(self, *, resume: bool) -> None:
        self._close_sock()
        self._dec = proto.FrameDecoder()
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        self._sock = sock
        assert self._config is not None
        self._send(proto.encode_hello(self.tenant, self._nprocs,
                                      self._config, resume=resume))
        kind, payload = self._read_frame()
        if kind == proto.ERROR:
            code, detail = proto.parse_error(payload)
            if "live session" in detail:
                # reconnect race: the server has not yet reaped the dead
                # connection holding our tenant's slot — retryable, the
                # supervisor's backoff gives the reaper time
                raise ConnectionError(f"tenant slot still held: {detail}")
            raise IngestError(code, detail)
        if kind != proto.HELLO_ACK:
            raise IngestError("protocol",
                              f"expected HELLO_ACK, got "
                              f"{proto.KIND_NAMES.get(kind, kind)}")
        next_seq = proto.parse_hello_ack(payload)
        # everything below next_seq is durably absorbed server-side
        for seq in [s for s in self._unacked if s < next_seq]:
            del self._unacked[seq]
        self._acked = max(self._acked, next_seq)
        for seq in sorted(self._unacked):
            self._send(self._unacked[seq])

    def _reconnect(self) -> None:
        self.reconnects += 1
        self.supervisor.run(
            lambda attempt: self._dial(resume=True),
            site="ingest.reconnect")

    def _close_sock(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _send(self, frame: bytes) -> None:
        """The one socket write: every frame, first send or resend."""
        assert self._sock is not None
        self._sock.sendall(frame)
        self.sendalls += 1
        self.bytes_sent += len(frame)

    def _read_frame(self) -> tuple[int, bytes]:
        assert self._sock is not None
        while True:
            for kind, payload in self._dec.frames():
                return kind, payload
            data = self._sock.recv(65536)
            if not data:
                raise EOFError("server closed the connection")
            self._dec.feed(data)

    # -- the produce path ----------------------------------------------------------

    def send_partial(self, partial: ShardPartial) -> None:
        self.send_partials([partial])

    def send_partials(self, partials: list[ShardPartial]) -> None:
        """One flush (ascending ranks) as one CHUNK: one record, written
        uncompressed by one call, in a frame compressed and CRC'd once —
        one ``sendall``, one resend-buffer entry, one sequence number, one
        window slot.  Only a flush whose record would overflow
        ``MAX_FRAME_PAYLOAD`` is halved into consecutive CHUNKs."""
        record = write_flush(partials, compress=False)
        # 10 bytes of room for the seq varint
        if len(record) > proto.MAX_FRAME_PAYLOAD - 10 and len(partials) > 1:
            mid = len(partials) // 2
            self.send_partials(partials[:mid])
            self.send_partials(partials[mid:])
        else:
            self._send_chunk(record, len(partials))

    def _send_chunk(self, record: bytes, n_partials: int) -> None:
        seq = self._next_seq
        self._next_seq += 1
        frame = proto.encode_chunk(seq, record, compress=True)
        self._unacked[seq] = frame
        self.chunks_sent += 1
        self.partials_sent += n_partials
        while True:
            try:
                self._send(frame)
                # honor the window: block on ACKs until within bounds
                while len(self._unacked) > self.window:
                    self._pump_one()
                return
            except RETRYABLE:
                self._reconnect()

    def _pump_one(self) -> None:
        kind, payload = self._read_frame()
        if kind == proto.ACK:
            seq = proto.parse_ack(payload)
            self._unacked.pop(seq, None)
            self._acked = max(self._acked, seq + 1)
        elif kind == proto.ERROR:
            raise IngestError(*proto.parse_error(payload))
        else:
            raise IngestError("protocol",
                              f"unexpected {proto.KIND_NAMES.get(kind, kind)}"
                              f" frame mid-stream")

    def finish(self, per_rank_calls: list[int]) -> bytes:
        """FIN + drain ACKs until RESULT; returns the folded trace."""
        fin = proto.encode_fin(per_rank_calls)
        while True:
            try:
                self._send(fin)
                while True:
                    kind, payload = self._read_frame()
                    if kind == proto.ACK:
                        seq = proto.parse_ack(payload)
                        self._unacked.pop(seq, None)
                        self._acked = max(self._acked, seq + 1)
                    elif kind == proto.RESULT:
                        self.close()
                        return payload
                    elif kind == proto.ERROR:
                        raise IngestError(*proto.parse_error(payload))
                    else:
                        raise IngestError(
                            "protocol",
                            f"unexpected "
                            f"{proto.KIND_NAMES.get(kind, kind)} frame "
                            f"awaiting RESULT")
            except RETRYABLE:
                self._reconnect()

    def close(self) -> None:
        self._close_sock()


@dataclass
class PushResult:
    """What :func:`push` returns."""

    workload: str
    nprocs: int
    tenant: str
    seed: int
    trace_bytes: bytes
    total_calls: int
    per_rank_calls: list[int] = field(default_factory=list)
    #: CHUNK frames sent — one per flush (more only past the frame bound)
    chunks_sent: int = 0
    #: the per-rank partials those chunks carried
    partials_sent: int = 0
    reconnects: int = 0

    @property
    def trace_size(self) -> int:
        return len(self.trace_bytes)


def push(workload: str, nprocs: int = 8, *,
         host: str = "127.0.0.1", port: int = 0,
         tenant: str = "default",
         seed: int = 1,
         options: Optional[TracerOptions] = None,
         chunk_calls: int = 256,
         params: Optional[dict] = None,
         noise: float = 0.05,
         retry: Optional[RetryPolicy] = None,
         timeout: float = 30.0) -> PushResult:
    """Run *workload* locally, stream partial shards to an ingest
    server, and return the server-folded trace (byte-identical to the
    one-shot in-process run — the subsystem's core invariant)."""
    opts = options if options is not None else TracerOptions()
    client = IngestClient(host, port, tenant, retry=retry, timeout=timeout)
    tracer = ChunkingTracer(
        emit_flush=client.send_partials, chunk_calls=chunk_calls,
        timing_mode=TIMING_LOSSY if opts.lossy_timing else TIMING_AGGREGATE,
        **opts.extra)
    client.connect(nprocs, tracer.config())
    try:
        wl = _make_workload(workload, nprocs, **(params or {}))
        wl.run(seed=seed, tracer=tracer, noise=noise)
        per_rank = [rc.streamed_calls for rc in tracer.ranks]
        blob = client.finish(per_rank)
    finally:
        client.close()
    if not blob:
        raise TraceFormatError("server returned an empty trace")
    return PushResult(workload=workload, nprocs=nprocs, tenant=tenant,
                      seed=seed, trace_bytes=blob,
                      total_calls=sum(per_rank),
                      per_rank_calls=per_rank,
                      chunks_sent=client.chunks_sent,
                      partials_sent=client.partials_sent,
                      reconnects=client.reconnects)
