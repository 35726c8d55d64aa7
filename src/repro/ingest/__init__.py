"""Streaming trace-ingest service — a strictly layered subsystem.

Layers (dependencies flow **upward only**; see DESIGN.md):

1. :mod:`.protocol` — sans-io framing: length-prefixed, CRC-checked
   frames carrying flush records of
   :class:`~repro.core.shard.ShardPartial` s, one
   :class:`~repro.core.container.Container` declaration.
2. :mod:`.session` — sans-io per-tenant stream state machines:
   sequence numbers, duplicate suppression, idempotent reconnect from
   a durable watermark.
3. :mod:`.aggregator` — the incremental fold: expands each rank's
   partial grammars onto ``TermLog`` columns that drain as a one-shot
   rank's do (so the result is byte-identical to a one-shot run), then
   the tracer's ``TracePipeline.run`` over every rank for the final
   trace; per-tenant isolation and disk checkpoints.
4. :mod:`.server` / :mod:`.client` — the blocking-socket transport, one
   handler thread per connection folding inline (TCP flow control is
   the backpressure), and the blocking produce side with its window of
   unACKed chunks (``repro serve`` / ``repro push``).

The core invariant, property-tested in ``tests/test_ingest.py``: any
chunking of a rank's stream into partials folds to a **byte-identical**
trace versus the one-shot in-process run.
"""

from ..core.errors import FrameFormatError, TraceFormatError
from .aggregator import Aggregator, FoldError, RankFold, TenantFold
from .client import (ChunkingTracer, IngestClient, IngestError, PushResult,
                     push)
from .protocol import FrameDecoder, IngestConfig
from .server import IngestServer, RunningServer, serve_in_thread
from .session import (DEFAULT_WINDOW, SequenceError, Session, SessionError,
                      SessionRegistry, TenantState)

__all__ = [
    "Aggregator",
    "ChunkingTracer",
    "DEFAULT_WINDOW",
    "FoldError",
    "FrameDecoder",
    "FrameFormatError",
    "IngestClient",
    "IngestConfig",
    "IngestError",
    "IngestServer",
    "PushResult",
    "RankFold",
    "RunningServer",
    "SequenceError",
    "Session",
    "SessionError",
    "SessionRegistry",
    "TenantFold",
    "TenantState",
    "TraceFormatError",
    "push",
    "serve_in_thread",
]
