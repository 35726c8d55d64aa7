"""Ingest asyncio server — layer 4 (transport + orchestration).

One connection carries one tenant's stream.  Per connection:

* the **reader** coroutine feeds socket bytes through a
  :class:`~repro.ingest.protocol.FrameDecoder` and classifies CHUNKs
  against the session state machine, re-ACKing duplicates immediately
  and putting fresh chunks on a **bounded** queue — when the fold
  consumer falls behind, ``queue.put`` blocks the reader, the kernel
  socket buffer fills, and TCP pushes back on the client (the
  backpressure chain the session layer documents);
* the **consumer** coroutine drains the queue into the tenant's fold one
  CHUNK at a time — every partial of the chunk (one flush of the client's
  tracer) parsed and checked before any is absorbed — then advances the
  durable sequence watermark and ACKs once, and on FIN runs the final
  fold and sends RESULT.

Error isolation is per connection: a corrupt stream (structured
``TraceFormatError``) or a session violation gets an ERROR frame and a
closed connection; the tenant's durable state stays for resume, and no
other tenant's session is touched — the acceptance test drives a
fuzzed client alongside healthy ones to pin exactly that.

Imports all lower layers (protocol, session, aggregator) — the top of
the upward-only dependency chain together with :mod:`.client`.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from ..core.errors import TraceFormatError
from ..obs import NULL_REGISTRY
from . import protocol as proto
from .aggregator import Aggregator, FoldError
from .session import DEFAULT_WINDOW, SEQ_NEW, Session, SessionError, \
    SessionRegistry

#: reader chunk size; small enough that backpressure engages promptly
_READ_SIZE = 64 * 1024

#: sentinel the reader enqueues after FIN so the consumer finalizes
_FIN = object()


class IngestServer:
    """The multi-tenant trace-ingest service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 aggregator: Optional[Aggregator] = None,
                 registry: Optional[SessionRegistry] = None,
                 metrics=None,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 0,
                 window: int = DEFAULT_WINDOW,
                 idle_timeout: float = 60.0,
                 store=None):
        self.host = host
        self.port = port
        self.aggregator = aggregator if aggregator is not None else \
            Aggregator(metrics=metrics, checkpoint_dir=checkpoint_dir,
                       store=store)
        self.registry = registry if registry is not None else \
            SessionRegistry()
        mreg = metrics if metrics is not None else NULL_REGISTRY
        self.obs = mreg.scope("ingest.server")
        #: checkpoint a tenant's fold every N absorbed chunks (0 = only
        #: implicit persistence via explicit checkpoint calls)
        self.checkpoint_every = checkpoint_every
        self.window = window
        self.idle_timeout = idle_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self.connections = 0
        self.errors = 0

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        for state in self.aggregator.restore():
            self.registry.adopt(state)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- one connection ------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        if self.obs.enabled:
            self.obs.counter("connections").inc()
        session = Session(self.registry, window=self.window)
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.window)
        wlock = asyncio.Lock()
        consumer: Optional[asyncio.Task] = None
        dec = proto.FrameDecoder()
        try:
            while True:
                try:
                    data = await asyncio.wait_for(
                        reader.read(_READ_SIZE), self.idle_timeout)
                except asyncio.TimeoutError:
                    raise SessionError(
                        f"idle for {self.idle_timeout}s, dropping "
                        f"connection") from None
                if not data:
                    dec.check_eof()
                    break
                dec.feed(data)
                fin_seen = False
                for kind, payload in dec.frames():
                    if kind == proto.HELLO:
                        consumer = await self._on_hello(
                            payload, session, queue, writer, wlock)
                    elif kind == proto.CHUNK:
                        seq, blob = proto.parse_chunk(payload)
                        if session.on_chunk(seq) == SEQ_NEW:
                            await queue.put((seq, blob))
                        else:
                            await self._send(writer, wlock,
                                             proto.encode_ack(seq))
                    elif kind == proto.FIN:
                        session.on_fin(proto.parse_fin(payload))
                        await queue.put(_FIN)
                        fin_seen = True
                    else:
                        raise SessionError(
                            f"unexpected {proto.KIND_NAMES[kind]} frame "
                            f"from client")
                if fin_seen:
                    assert consumer is not None
                    await consumer
                    consumer = None
                    session.finish()
                    break
        except (TraceFormatError, SessionError, FoldError) as e:
            # structured failure: tell the client, drop the connection,
            # leave every other session (and this tenant's durable
            # state) untouched
            self.errors += 1
            if self.obs.enabled:
                self.obs.counter("errors").inc()
            try:
                await self._send(writer, wlock, proto.encode_error(
                    type(e).__name__, str(e)))
            except (OSError, ConnectionError):
                pass
        except (OSError, ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished; durable state stays for resume
        finally:
            if consumer is not None:
                consumer.cancel()
                try:
                    await consumer
                except (asyncio.CancelledError, Exception):
                    pass
            session.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _on_hello(self, payload: bytes, session: Session,
                        queue: asyncio.Queue,
                        writer: asyncio.StreamWriter,
                        wlock: asyncio.Lock) -> asyncio.Task:
        tenant, nprocs, resume, config = proto.parse_hello(payload)
        next_seq = session.on_hello(tenant, nprocs, config, resume=resume)
        self.aggregator.start(tenant, nprocs, config, resume=resume)
        if self.obs.enabled:
            self.obs.gauge("active_sessions").set(
                self.registry.active_sessions)
        await self._send(writer, wlock, proto.encode_hello_ack(next_seq))
        return asyncio.ensure_future(
            self._consume(session, queue, writer, wlock))

    async def _consume(self, session: Session, queue: asyncio.Queue,
                       writer: asyncio.StreamWriter,
                       wlock: asyncio.Lock) -> None:
        """Drain chunks into the fold; finalize on FIN.

        A chunk is absorbed whole or not at all, and ``next_seq`` moves
        only after it is: errors raised here (corrupt partial blob, fold
        inconsistency, conservation mismatch) leave the tenant's durable
        state where the last ACK put it, and propagate to the reader via
        the awaited task or surface as an ERROR frame directly."""
        tenant = session.tenant
        assert tenant is not None
        agg = self.aggregator
        try:
            while True:
                item = await queue.get()
                if item is _FIN:
                    st = session.tenant_state
                    assert st is not None
                    blob = agg.finish(tenant, st.fin_calls)
                    await self._send(writer, wlock,
                                     proto.encode_result(blob))
                    agg.discard(tenant)
                    self.registry.drop(tenant)
                    return
                seq, partials_blob = item
                agg.absorb(tenant, partials_blob)
                session.absorbed(seq)
                if self.obs.enabled:
                    self.obs.counter("chunks").inc()
                st = session.tenant_state
                if (self.checkpoint_every and st is not None
                        and st.next_seq % self.checkpoint_every == 0):
                    agg.checkpoint(tenant, st)
                await self._send(writer, wlock, proto.encode_ack(seq))
        except (TraceFormatError, SessionError, FoldError) as e:
            self.errors += 1
            if self.obs.enabled:
                self.obs.counter("errors").inc()
            try:
                await self._send(writer, wlock, proto.encode_error(
                    type(e).__name__, str(e)))
            except (OSError, ConnectionError):
                pass
            writer.close()

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, wlock: asyncio.Lock,
                    frame: bytes) -> None:
        async with wlock:
            writer.write(frame)
            await writer.drain()


class RunningServer:
    """A server running on a background event-loop thread — what tests
    and ``serve_in_thread`` hand out.  ``stop()`` is idempotent."""

    def __init__(self, server: IngestServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, timeout: float = 5.0) -> None:
        if not self.thread.is_alive():
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout)

    def __enter__(self) -> "RunningServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(host: str = "127.0.0.1", port: int = 0,
                    **kwargs) -> RunningServer:
    """Start an :class:`IngestServer` on a daemon thread and return once
    it is accepting connections (``.port`` holds the bound port)."""
    server = IngestServer(host, port, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    startup_error: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as e:  # noqa: BLE001 — reported to caller
            startup_error.append(e)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-ingest-server",
                              daemon=True)
    thread.start()
    started.wait()
    if startup_error:
        raise startup_error[0]
    return RunningServer(server, loop, thread)
