"""Ingest session layer — layer 2 (per-tenant stream state machines).

Sans-io, like the protocol layer below it: a :class:`Session` consumes
already-parsed frames and tracks where one tenant's stream stands —
sequence numbers, duplicate suppression, reconnect bookkeeping — while
the :class:`SessionRegistry` holds the durable per-tenant state that
survives a dropped connection so a client can resume idempotently.

Two counters make the reconnect story exact:

* ``Session.expected_seq`` (per connection) — what the connection has
  accepted; used to classify an incoming CHUNK as duplicate / in-order /
  gap.
* ``TenantState.next_seq`` (per tenant, durable) — what the *fold* has
  absorbed; advanced only after a chunk is safely in the aggregate,
  and reported back in HELLO_ACK.  Anything the client has not seen
  ACKed it resends; anything already absorbed the server recognizes as
  a duplicate and re-ACKs without re-folding.

Backpressure is the transport's, not this layer's: the server folds
each chunk inline, before it reads the next, so a fold that falls behind
stops the reads and TCP flow control pushes back on the client.  The
client bounds its own unACKed buffer at :data:`DEFAULT_WINDOW` chunks
(one chunk = one flush of the client's tracer, however many ranks it
covers).

Imports: :mod:`repro.ingest.protocol` and ``repro.core`` only —
dependencies flow upward (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .protocol import IngestConfig

#: bound on the chunks (flushes) a client sends ahead of their ACKs
DEFAULT_WINDOW = 32

#: CHUNK classification results
SEQ_NEW = "new"
SEQ_DUPLICATE = "duplicate"


class SessionError(RuntimeError):
    """A frame violated the session state machine (wrong state, unknown
    tenant, conflicting reconnect, ...).  Distinct from
    :class:`~repro.core.errors.FrameFormatError`: the frame itself was
    well-formed — its *timing or content* was not."""


class SequenceError(SessionError):
    """A CHUNK arrived with a gap in the sequence numbers — data was
    lost between client and server, the stream cannot be trusted."""

    def __init__(self, expected: int, got: int):
        super().__init__(
            f"sequence gap: expected chunk {expected}, got {got}")
        self.expected = expected
        self.got = got


@dataclass
class TenantState:
    """Durable per-tenant stream state (outlives any one connection)."""

    tenant: str
    nprocs: int
    config: IngestConfig
    #: first sequence number the fold has NOT yet absorbed
    next_seq: int = 0
    finished: bool = False
    #: per-rank call totals declared by FIN (conservation check input)
    fin_calls: Optional[list[int]] = None


class SessionRegistry:
    """All tenants known to one server, plus which are live right now.

    One live connection per tenant: a second concurrent HELLO for the
    same tenant is refused (isolation — a misbehaving duplicate must not
    corrupt an in-flight session).  A *finished* or *fresh* HELLO for a
    known-idle tenant resets its state; ``resume=True`` keeps it.
    """

    def __init__(self) -> None:
        self._tenants: dict[str, TenantState] = {}
        self._active: set[str] = set()

    @property
    def active_sessions(self) -> int:
        return len(self._active)

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def get(self, tenant: str) -> Optional[TenantState]:
        return self._tenants.get(tenant)

    def hello(self, tenant: str, nprocs: int, config: IngestConfig, *,
              resume: bool = False) -> TenantState:
        if tenant in self._active:
            raise SessionError(
                f"tenant {tenant!r} already has a live session")
        st = self._tenants.get(tenant)
        if st is None or not resume:
            # fresh stream (also the path that restarts a finished or
            # abandoned tenant from scratch)
            st = TenantState(tenant=tenant, nprocs=nprocs, config=config)
            self._tenants[tenant] = st
        else:
            if st.finished:
                raise SessionError(
                    f"tenant {tenant!r} already finished; resume is "
                    f"meaningless — start a fresh session")
            if st.nprocs != nprocs or st.config != config:
                raise SessionError(
                    f"tenant {tenant!r} resume does not match the "
                    f"original session (nprocs/config changed)")
        self._active.add(tenant)
        return st

    def release(self, tenant: str) -> None:
        self._active.discard(tenant)

    def drop(self, tenant: str) -> None:
        """Forget a tenant entirely (after its fold is delivered or
        deliberately discarded)."""
        self._active.discard(tenant)
        self._tenants.pop(tenant, None)

    def adopt(self, state: TenantState) -> None:
        """Install externally restored state (checkpoint recovery)."""
        self._tenants[state.tenant] = state


class Session:
    """One connection's view of one tenant's stream."""

    # states
    AWAIT_HELLO = "await-hello"
    ACTIVE = "active"
    FINISHING = "finishing"
    CLOSED = "closed"

    def __init__(self, registry: SessionRegistry):
        self.registry = registry
        self.state = self.AWAIT_HELLO
        self.tenant_state: Optional[TenantState] = None
        #: next sequence number this connection will accept
        self.expected_seq = 0
        self.chunks_accepted = 0
        self.duplicates = 0

    @property
    def tenant(self) -> Optional[str]:
        return self.tenant_state.tenant if self.tenant_state else None

    def on_hello(self, tenant: str, nprocs: int, config: IngestConfig, *,
                 resume: bool = False) -> int:
        """Open the session; returns the seq the client must send next
        (0 for a fresh stream, the durable ``next_seq`` on resume)."""
        if self.state != self.AWAIT_HELLO:
            raise SessionError(
                f"HELLO in state {self.state} (session already open)")
        st = self.registry.hello(tenant, nprocs, config, resume=resume)
        self.tenant_state = st
        self.expected_seq = st.next_seq
        self.state = self.ACTIVE
        return st.next_seq

    def on_chunk(self, seq: int) -> str:
        """Classify an in-order CHUNK.  :data:`SEQ_NEW` means the caller
        must hand the chunk to the fold; :data:`SEQ_DUPLICATE`
        means re-ACK and drop (idempotent resend after reconnect)."""
        if self.state != self.ACTIVE:
            raise SessionError(f"CHUNK in state {self.state}")
        if seq < self.expected_seq:
            self.duplicates += 1
            return SEQ_DUPLICATE
        if seq > self.expected_seq:
            raise SequenceError(self.expected_seq, seq)
        self.expected_seq += 1
        self.chunks_accepted += 1
        return SEQ_NEW

    def on_fin(self, per_rank_calls: list[int]) -> None:
        if self.state != self.ACTIVE:
            raise SessionError(f"FIN in state {self.state}")
        st = self.tenant_state
        assert st is not None
        if len(per_rank_calls) != st.nprocs:
            raise SessionError(
                f"FIN declares {len(per_rank_calls)} ranks, session "
                f"opened with {st.nprocs}")
        st.fin_calls = list(per_rank_calls)
        self.state = self.FINISHING

    def absorbed(self, seq: int) -> None:
        """The fold committed chunk *seq*: advance the durable
        watermark so a reconnect resumes past it."""
        st = self.tenant_state
        assert st is not None
        if seq != st.next_seq:
            raise SessionError(
                f"fold absorbed chunk {seq} out of order "
                f"(durable next_seq is {st.next_seq})")
        st.next_seq = seq + 1

    def finish(self) -> None:
        """The fold was delivered; the tenant's stream is complete."""
        if self.tenant_state is not None:
            self.tenant_state.finished = True
        self.close()

    def close(self) -> None:
        """Connection gone (cleanly or not): release the live-session
        slot but keep the durable tenant state for resume."""
        if self.tenant_state is not None:
            self.registry.release(self.tenant_state.tenant)
        self.state = self.CLOSED
