"""``repro.core`` — the Pilgrim tracing and compression system.

Public surface:

* :class:`PilgrimTracer` / :class:`PilgrimResult` — attach to a
  :class:`repro.mpisim.SimMPI` run; produces the compressed trace.
* :class:`TraceFile` / :class:`TraceDecoder` — the binary format and its
  decoder (decompression back to per-rank call records).
* :func:`verify_roundtrip` (``repro.api.verify``) — the paper's
  lossless round-trip check, grown into a differential verifier; its
  :class:`RoundTrip` tee runs a tracer beside the ``raw`` backend.
* :class:`Container` (:mod:`repro.core.container`) — the one
  declaration every binary format is written and read through; with
  the :class:`TraceFormatError` hierarchy (:mod:`repro.core.errors`)
  and the corruption fuzzer (:mod:`repro.fuzz`) it makes "lossless" a
  checked property of the format.
* The sharded pipeline: :class:`RankShard` / :class:`RankCompressor` /
  the one-pass :func:`reduce_shards` (:mod:`repro.core.shard`), its
  oracle :func:`merge_shards` / :func:`tree_reduce`, :class:`TracePipeline`.
* The tracer-backend registry (:mod:`repro.core.backends`):
  :func:`make_tracer` / :func:`register_backend` / :class:`TracerOptions`
  — the one construction path the CLI, runner, and benchmarks share.
* Building blocks, exported for tests/benchmarks: :class:`Sequitur`,
  :class:`Grammar`, :class:`CST`, :func:`merge_grammars`,
  :class:`IntervalTree`, :class:`TimingCompressor`.
"""

from .avl import IntervalTree
from .backends import (NullTracer, RawTracer, TracerOptions,
                       available_backends, make_tracer, register_backend)
from .container import Container, Section
from .cst import CST, MergedCST
from .decoder import TraceDecoder
from .encoder import CommIdSpace, MemoryTable, PerRankEncoder
from .errors import (ChecksumError, CorruptTraceError, FrameFormatError,
                     MissingObjectError, MissingRankError, ReplayFormatError,
                     StoreFormatError, StoreIntegrityError, TraceFormatError,
                     TruncatedTraceError, UnsupportedVersionError)
from .grammar import Grammar
from .interproc import CFGMergeResult, expand_rank, merge_grammars
from .pipeline import PipelineResult, TracePipeline, tree_reduce
from .records import DecodedCall, sig_to_params
from .sequitur import Sequitur
from .shard import (GrammarSet, RankCompressor, RankShard, ShardPartial,
                    merge_shards, reduce_shards)
from .symbolic import IdPool, ObjectIdTable, RequestIdAllocator
from .timing import (BinClampWarning, TimingCompressor, TimingMeta,
                     bin_value, reconstruct_times, unbin_value)
from .trace_format import TraceFile, section_hashes, split_sections
from .tracer import TIMING_AGGREGATE, TIMING_LOSSY, PilgrimResult, PilgrimTracer
from .verify import RoundTrip, VerifyReport, verify_roundtrip

__all__ = [
    "BinClampWarning",
    "CFGMergeResult", "CST", "ChecksumError", "CommIdSpace", "Container",
    "CorruptTraceError", "DecodedCall", "FrameFormatError",
    "Grammar", "GrammarSet", "IdPool", "IntervalTree", "MemoryTable",
    "MergedCST", "MissingObjectError", "MissingRankError", "NullTracer",
    "ReplayFormatError",
    "ObjectIdTable", "PerRankEncoder",
    "PilgrimResult", "PilgrimTracer", "PipelineResult", "RankCompressor",
    "RankShard", "RawTracer", "RequestIdAllocator", "RoundTrip", "Section",
    "Sequitur",
    "ShardPartial",
    "StoreFormatError", "StoreIntegrityError",
    "TIMING_AGGREGATE", "TIMING_LOSSY", "TimingCompressor", "TimingMeta",
    "TraceDecoder",
    "TraceFile", "TraceFormatError", "TracePipeline", "TracerOptions",
    "TruncatedTraceError", "UnsupportedVersionError", "VerifyReport",
    "available_backends", "bin_value", "expand_rank",
    "make_tracer", "merge_grammars", "merge_shards",
    "reconstruct_times", "reduce_shards", "section_hashes",
    "sig_to_params", "split_sections",
    "tree_reduce", "unbin_value", "verify_roundtrip",
]
