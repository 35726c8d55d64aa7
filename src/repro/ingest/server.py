"""Ingest server — layer 4 (transport + orchestration).

One connection carries one tenant's stream, on blocking sockets: an
accept thread starts one handler thread per connection.  A handler
feeds each read to a :class:`~repro.ingest.protocol.FrameDecoder` and
handles the read's frames inline under one server lock, so one
connection's frames are handled at a time: HELLO opens the session and
the fold, a fresh CHUNK is absorbed whole and advances the durable
watermark, FIN runs the final fold.  The ACKs and the RESULT a read
earned go out in one ``sendall`` after the lock is released.
Backpressure is TCP flow control on the inline fold: a handler that
folds does not read, and the client's sends block.

Error isolation is per connection: a corrupt stream (structured
``TraceFormatError``) or a session violation gets an ERROR frame, after
the ACKs the same read earned, and a closed connection; the tenant's
durable state stays for resume, and no other tenant's session is
touched (the acceptance test drives a fuzzed client beside healthy
ones).  Imports all lower layers: the top of the upward-only dependency
chain together with :mod:`.client`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Optional

from ..core.errors import TraceFormatError
from ..obs import NULL_REGISTRY
from . import protocol as proto
from .aggregator import Aggregator, FoldError
from .session import SEQ_NEW, Session, SessionError, SessionRegistry

#: bytes read per ``recv``; small enough that backpressure engages promptly
_READ_SIZE = 64 * 1024


class IngestServer:
    """The multi-tenant trace-ingest service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 aggregator: Optional[Aggregator] = None,
                 registry: Optional[SessionRegistry] = None,
                 metrics=None,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 0,
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
        self.idle_timeout = idle_timeout
        self._listener: Optional[socket.socket] = None
        #: one connection's frames at a time; also guards ``_conns``
        self._lock = threading.Lock()
        #: live connection -> its handler thread
        self._conns: dict[socket.socket, threading.Thread] = {}
        self.connections = 0
        self.errors = 0

    def start(self) -> None:
        """Restore checkpointed tenants and bind the listening socket."""
        for state in self.aggregator.restore():
            self.registry.adopt(state)
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]

    def serve_forever(self) -> None:
        """Accept connections, one handler thread each, from
        :meth:`start` until :meth:`stop`."""
        listener = self._listener
        while listener is not None:  # None: stop() came first
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # stop() shut the listener down
            with self._lock:
                if self._listener is None:  # stop() came in between
                    conn.close()
                    return
                self.connections += 1
                if self.obs.enabled:
                    self.obs.counter("connections").inc()
                thread = threading.Thread(
                    target=self._handle, args=(conn,), daemon=True,
                    name=f"repro-ingest-conn-{self.connections}")
                self._conns[conn] = thread
                thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting, cut every live connection, and wait up to
        *timeout* seconds for the handler threads.  Idempotent."""
        deadline = time.monotonic() + timeout
        with self._lock:
            listener, self._listener = self._listener, None
            conns = dict(self._conns)
        # shutdown wakes a thread blocked in accept() or recv()
        for sock in [listener, *conns] if listener is not None else conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if listener is not None:
            listener.close()
        for thread in conns.values():
            thread.join(max(0.0, deadline - time.monotonic()))

    def _handle(self, conn: socket.socket) -> None:
        session = Session(self.registry)
        dec = proto.FrameDecoder()
        out: list[bytes] = []
        try:
            conn.settimeout(self.idle_timeout)
            while session.state != Session.CLOSED:
                try:
                    data = conn.recv(_READ_SIZE)
                except socket.timeout:
                    raise SessionError(
                        f"idle for {self.idle_timeout}s, dropping "
                        f"connection") from None
                if not data:
                    dec.check_eof()
                    break
                dec.feed(data)
                with self._lock:
                    for kind, payload in dec.frames():
                        out.append(self._on_frame(kind, payload, session))
                if out:
                    conn.sendall(b"".join(out))
                    out.clear()
        except (TraceFormatError, SessionError, FoldError) as e:
            # structured failure: tell the client, drop the connection,
            # leave every other session and this tenant's durable state
            with self._lock:
                self.errors += 1
                if self.obs.enabled:
                    self.obs.counter("errors").inc()
            out.append(proto.encode_error(type(e).__name__, str(e)))
            try:
                conn.sendall(b"".join(out))
            except OSError:
                pass
        except OSError:
            pass  # client vanished; durable state stays for resume
        finally:
            with self._lock:
                session.close()
                self._conns.pop(conn, None)
            conn.close()

    def _on_frame(self, kind: int, payload: bytes,
                  session: Session) -> bytes:
        """Handle one client frame under the server lock; return the
        frame it earns.  A chunk is absorbed whole or not at all, so an
        error here leaves ``next_seq`` where the last ACK put it."""
        agg = self.aggregator
        if kind == proto.HELLO:
            tenant, nprocs, resume, config = proto.parse_hello(payload)
            next_seq = session.on_hello(tenant, nprocs, config,
                                        resume=resume)
            agg.start(tenant, nprocs, config, resume=resume)
            if self.obs.enabled:
                self.obs.gauge("active_sessions").set(
                    self.registry.active_sessions)
            return proto.encode_hello_ack(next_seq)
        if kind == proto.CHUNK:
            seq, blob = proto.parse_chunk(payload)
            if session.on_chunk(seq) == SEQ_NEW:
                agg.absorb(session.tenant, blob)
                session.absorbed(seq)
                if self.obs.enabled:
                    self.obs.counter("chunks").inc()
                st = session.tenant_state
                if (self.checkpoint_every
                        and st.next_seq % self.checkpoint_every == 0):
                    agg.checkpoint(session.tenant, st)
            return proto.encode_ack(seq)
        if kind == proto.FIN:
            session.on_fin(proto.parse_fin(payload))
            tenant, st = session.tenant, session.tenant_state
            blob = agg.finish(tenant, st.fin_calls)
            agg.discard(tenant)
            self.registry.drop(tenant)
            session.finish()
            return proto.encode_result(blob)
        raise SessionError(
            f"unexpected {proto.KIND_NAMES[kind]} frame from client")


class RunningServer:
    """A server accepting on a background thread — what tests and
    ``serve_in_thread`` hand out.  ``stop()`` is idempotent."""

    def __init__(self, server: IngestServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        self.server.stop(timeout)
        self.thread.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "RunningServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(host: str = "127.0.0.1", port: int = 0,
                    **kwargs) -> RunningServer:
    """Start an :class:`IngestServer` on a daemon thread and return once
    it is accepting connections (``.port`` holds the bound port)."""
    server = IngestServer(host, port, **kwargs)
    server.start()
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-ingest-server", daemon=True)
    thread.start()
    return RunningServer(server, thread)
