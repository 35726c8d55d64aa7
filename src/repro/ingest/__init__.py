"""Streaming trace-ingest service — a strictly layered subsystem.

Layers (dependencies flow **upward only**; see DESIGN.md):

1. :mod:`.protocol` — sans-io framing: length-prefixed, CRC-checked
   frames carrying flush records of
   :class:`~repro.core.shard.ShardPartial` s, one
   :class:`~repro.core.container.Container` declaration.
2. :mod:`.session` — sans-io per-tenant stream state machines:
   sequence numbers, duplicate suppression, idempotent reconnect,
   the bounded-window backpressure contract.
3. :mod:`.aggregator` — the incremental fold: re-feeds each rank's
   partial grammars through one fresh Sequitur (the same mechanism as
   the watermark spill, so the result is byte-identical to a one-shot
   run), then ``tree_reduce``/``merge_shards``/``TracePipeline`` for
   the final trace; per-tenant isolation and disk checkpoints.
4. :mod:`.server` / :mod:`.client` — asyncio transport + orchestration
   and the blocking produce side (``repro serve`` / ``repro push``).

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
