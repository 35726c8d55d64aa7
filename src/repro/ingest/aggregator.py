"""Ingest aggregation layer — layer 3 (the incremental fold).

Each tenant's stream of :class:`~repro.core.shard.ShardPartial` chunks
is folded into per-rank accumulators (:class:`RankFold`) that mirror the
state a one-shot :class:`~repro.core.shard.RankCompressor` would hold at
the same point:

* the CST rebuilt from append-only signature slices plus sparse integer
  count/nanosecond deltas (integer addition is associative, so any
  chunking sums to the same totals);
* the call stream and, under lossy timing, the two bin streams as
  :class:`~repro.core.grammar.TermLog` columns: every part that arrives
  is expanded onto its column, which drains into its own live Sequitur
  at :data:`~repro.core.shard.LOG_LIMIT`, as a one-shot rank's does.
  Sequitur is online, so neither where parts begin nor where a column
  drains shows in the final bytes.

A :class:`RankFold` freezes like a traced rank, so ``finish()`` runs the
existing pipeline — :meth:`~repro.core.pipeline.TracePipeline.run`, the
tracer's finalize — and the folded trace is byte-identical to the
one-shot in-process run (``tests/test_ingest.py`` pins it across
workload families and chunk sizes).

A CHUNK (one flush record, :func:`read_partials`) is absorbed
all-or-nothing: the record is parsed, then every partial is checked
against the fold — what it says of itself must add up
(:meth:`RankFold.check`) — and only then is any of them applied: a
refused chunk leaves the fold exactly as it found it, so the session can
be resumed and the good stream resent.

Tenants are isolated: one tenant's corrupt partial raises inside its
own fold and never touches another tenant's state.  Checkpoints pair
each fold with its session watermark so a restarted server resumes
exactly where the durable state says.

Imports: ``repro.core``, :mod:`repro.ingest.protocol`, and
:mod:`repro.ingest.session` — dependencies flow upward (see DESIGN.md).
"""

from __future__ import annotations

import os
from contextlib import suppress
from operator import lt
from typing import Optional

from ..core.container import Container, Section
from ..core.errors import (CorruptTraceError, StoreFormatError,
                           TraceFormatError)
from ..core.grammar import Grammar, TermLog
from ..core.packing import Reader, read_value, write_value
from ..core.pipeline import TracePipeline
from ..core import shard as _shard
from ..core.shard import RankShard, ShardPartial, read_flush, write_flush
from ..core.timing import timing_meta
from ..obs import NULL_REGISTRY, PhaseProfiler
from .protocol import IngestConfig, validate_tenant
from .session import TenantState

class FoldError(RuntimeError):
    """A tenant's fold is inconsistent (rank out of range, signature
    slice out of order, conservation mismatch at FIN)."""


def read_partials(blob: bytes) -> list[ShardPartial]:
    """Every partial of one CHUNK (the blob after its sequence number):
    one flush record of one or more partials, ranks strictly ascending —
    what one flush of a tracer produces, and nothing else."""
    partials = read_flush(blob)
    if not partials:
        raise CorruptTraceError("chunk's flush record holds no partial")
    return partials


def _terminals(grammars) -> tuple[int, int]:
    """How many terminals *grammars* expand to in all, and the largest
    any of them names (-1 if none).  A flat part — nearly every one —
    costs four C-speed passes over its rule.  ``ValueError`` for a token
    repeated fewer than one time or a rule that reaches itself,
    ``IndexError`` for a reference to a rule that is not there."""
    total, top = 0, -1
    for g in grammars:
        rules = g.rules
        if len(rules) == 1 and rules[0]:
            values, exps = zip(*rules[0])
            if min(values) >= 0 and min(exps) > 0:
                total += sum(exps)
                top = max(top, max(values))
                continue
        if any(e < 1 for rule in rules for _v, e in rule):
            raise ValueError("a token repeats fewer than one time")
        total += g.expanded_length()
        top = max(top, max(g.iter_terminals(), default=-1))
    return total, top


class RankFold:
    """One rank's accumulated streaming state, frozen like a traced rank."""

    __slots__ = ("rank", "sigs", "counts", "dur_ns", "observed_calls", "logs")

    def __init__(self, rank: int, config: IngestConfig):
        self.rank = rank
        self.sigs: list[tuple] = []
        self.counts: list[int] = []
        self.dur_ns: list[int] = []
        self.observed_calls = 0
        #: the call stream's column, then under lossy timing the
        #: duration and interval bin streams'
        self.logs = tuple(TermLog(config.loop_detection)
                          for _ in range(3 if config.lossy_timing else 1))

    def check(self, p: ShardPartial) -> None:
        """Refuse *p* if :meth:`apply` could not take it whole; touches
        nothing, so a refusal leaves the fold as it was."""
        if p.rank != self.rank:
            raise FoldError(
                f"partial for rank {p.rank} routed to fold {self.rank}")
        if len(p.idx) != len(p.d_counts) or len(p.idx) != len(p.d_dur_ns):
            raise FoldError(
                f"rank {p.rank}: ragged CST delta arrays "
                f"({len(p.idx)}/{len(p.d_counts)}/{len(p.d_dur_ns)})")
        known = len(self.sigs) + len(p.new_sigs)
        if not all(map(lt, p.idx, p.idx[1:])):
            raise FoldError(
                f"rank {p.rank}: CST delta indices are not strictly "
                f"ascending")
        if p.idx and not 0 <= p.idx[0] <= p.idx[-1] < known:
            raise FoldError(
                f"rank {p.rank}: CST delta targets signature "
                f"{p.idx[0] if p.idx[0] < 0 else p.idx[-1]} but the fold "
                f"knows {known}")
        # conservation, per partial: FIN only compares totals, which a
        # partial wrong about itself two ways at once would still meet
        try:
            n, top = _terminals(p.parts)
            expanded = (n,) if p.timing_duration is None else (
                n, _terminals((p.timing_duration,))[0],
                _terminals((p.timing_interval,))[0])
        except (ValueError, IndexError, RecursionError) as e:
            raise FoldError(
                f"rank {p.rank}: a grammar of the partial does not "
                f"expand ({e})") from e
        if sum(p.d_counts) != p.n_calls or set(expanded) != {p.n_calls}:
            raise FoldError(
                f"rank {p.rank}: partial declares {p.n_calls} calls but "
                f"its count deltas sum to {sum(p.d_counts)} and its parts "
                f"(and timing logs) expand to {expanded} terminals")
        if top >= known:
            raise FoldError(
                f"rank {p.rank}: a grammar part names terminal {top} but "
                f"the fold knows {known} signatures")

    def apply(self, p: ShardPartial) -> None:
        """Fold in a partial that :meth:`check` has passed."""
        if p.new_sigs:
            self.sigs.extend(p.new_sigs)
            self.counts.extend([0] * len(p.new_sigs))
            self.dur_ns.extend([0] * len(p.new_sigs))
        counts, dur_ns = self.counts, self.dur_ns
        for i, dc, dns in zip(p.idx, p.d_counts, p.d_dur_ns):
            counts[i] += dc
            dur_ns[i] += dns
        for log, parts in zip(self.logs, (
                p.parts, (p.timing_duration,), (p.timing_interval,))):
            for part in parts:
                log.extend(part.expand())
            if len(log) >= _shard.LOG_LIMIT:
                log.drain()
        self.observed_calls += p.n_calls

    def freeze(self, memo: Optional[dict] = None) -> RankShard:
        """Freeze the fold into the single-rank shard a one-shot
        ``RankCompressor.freeze()`` would have produced; a column that
        never drained goes through *memo* (:meth:`Grammar.compress`)."""
        return RankShard.single(
            self.rank, self.observed_calls, self.sigs, self.counts,
            self.dur_ns, [log.freeze(memo) for log in self.logs])

    def to_partial(self) -> ShardPartial:
        """The fold's whole accumulated state as one partial, each
        column one flat part read off without touching its live
        Sequitur — what checkpoints persist (a checkpoint restore is
        just :meth:`TenantFold.absorb` of this into a fresh fold;
        partials compose)."""
        idx = [i for i, c in enumerate(self.counts) if c or self.dur_ns[i]]
        calls, *timing = (Grammar.flat(log.expand()) for log in self.logs)
        td, ti = timing or (None, None)
        return ShardPartial(
            rank=self.rank, n_calls=self.observed_calls,
            new_sigs=list(self.sigs),
            idx=idx, d_counts=[self.counts[i] for i in idx],
            d_dur_ns=[self.dur_ns[i] for i in idx],
            parts=[calls], timing_duration=td, timing_interval=ti)


class TenantFold:
    """One tenant's whole fold: per-rank accumulators + config."""

    def __init__(self, tenant: str, nprocs: int, config: IngestConfig):
        validate_tenant(tenant)
        if nprocs < 1:
            raise FoldError(f"tenant {tenant!r}: nprocs {nprocs} < 1")
        self.tenant = tenant
        self.nprocs = nprocs
        self.config = config
        self.ranks: dict[int, RankFold] = {}
        self.partials_absorbed = 0
        self.bytes_absorbed = 0

    def absorb_blob(self, blob: bytes) -> list[ShardPartial]:
        """Absorb one CHUNK's partials — the only chunk absorb routine.
        Parse all, check all, then apply all: any ``TraceFormatError`` or
        ``FoldError`` leaves the fold as it was before the chunk."""
        partials = read_partials(blob)
        self._absorb_all(partials)
        self.bytes_absorbed += len(blob)
        return partials

    def absorb(self, p: ShardPartial) -> None:
        self._absorb_all((p,))

    def _absorb_all(self, partials) -> None:
        """*partials* are for distinct ranks, so each can be checked
        against its rank's fold before any of them is applied."""
        folds = []
        for p in partials:
            if not 0 <= p.rank < self.nprocs:
                raise FoldError(
                    f"tenant {self.tenant!r}: partial for rank {p.rank} "
                    f"outside [0, {self.nprocs})")
            if (p.timing_duration is not None) != self.config.lossy_timing:
                raise FoldError(
                    f"tenant {self.tenant!r}: partial timing presence does "
                    f"not match the session's lossy_timing config")
            fold = self.ranks.get(p.rank) or RankFold(p.rank, self.config)
            fold.check(p)
            folds.append(fold)
        for p, fold in zip(partials, folds):
            self.ranks[p.rank] = fold
            fold.apply(p)
        self.partials_absorbed += len(partials)

    @property
    def total_calls(self) -> int:
        return sum(f.observed_calls for f in self.ranks.values())

    def all_ranks(self) -> list[RankFold]:
        """Every rank's fold in rank order, a rank that sent nothing an
        empty one: what the pipeline freezes."""
        return [self.ranks.get(r) or RankFold(r, self.config)
                for r in range(self.nprocs)]

    def finish(self, expected_calls: Optional[list[int]] = None,
               scope=None) -> bytes:
        """Fold to the final trace blob through the tracer's pipeline.

        *expected_calls* (from the FIN frame) is the conservation check:
        the fold must account for exactly the calls the client traced.
        *scope* (a metrics scope) gets the ``phase.<name>`` timers.
        """
        ranks = self.all_ranks()
        got = [f.observed_calls for f in ranks]
        if expected_calls is not None and list(expected_calls) != got:
            raise FoldError(
                f"tenant {self.tenant!r}: conservation mismatch — client "
                f"declared {sum(expected_calls)} calls, fold holds "
                f"{sum(got)} (per-rank {expected_calls} vs {got})")
        cfg = self.config
        pipeline = TracePipeline(
            loop_detection=cfg.loop_detection, cfg_dedup=cfg.cfg_dedup,
            profiler=PhaseProfiler(scope),
            timing_meta=timing_meta(cfg.lossy_timing, cfg.timing_base,
                                    cfg.per_function_base))
        return pipeline.run(ranks).trace_bytes

    # -- checkpointing -------------------------------------------------------------

    def to_bytes(self, state: TenantState) -> bytes:
        head = bytearray()
        write_value(head, (self.tenant, self.nprocs, state.next_seq,
                           state.finished, self.config.to_tuple()))
        return CHECKPOINT.write((bytes(head), write_flush(
            [self.ranks[r].to_partial() for r in sorted(self.ranks)])))

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["TenantFold", TenantState]:
        (tenant, nprocs, next_seq, finished, config), record = \
            CHECKPOINT.read(data).values
        fold = cls(tenant, nprocs, config)
        try:
            fold._absorb_all(read_flush(record))
        except FoldError as e:
            raise CorruptTraceError(
                f"checkpoint of tenant {tenant!r} does not fold ({e})") from e
        state = TenantState(tenant=tenant, nprocs=nprocs, config=config,
                            next_seq=next_seq, finished=finished)
        return fold, state


def _read_checkpoint_head(r: Reader) -> tuple:
    """The session the checkpoint resumes: tenant, nprocs, the next
    sequence number, whether it finished, and the fold's config."""
    head = read_value(r)
    if (not isinstance(head, tuple) or len(head) != 5
            or not isinstance(head[0], str)
            or isinstance(head[1], bool) or not isinstance(head[1], int)
            or isinstance(head[2], bool) or not isinstance(head[2], int)
            or not isinstance(head[3], bool)):
        raise CorruptTraceError("malformed checkpoint header")
    tenant, nprocs, next_seq, finished, cfg_tuple = head
    validate_tenant(tenant)
    if nprocs < 1 or next_seq < 0:
        raise CorruptTraceError(
            f"checkpoint declares nprocs {nprocs} and next sequence number "
            f"{next_seq}: want nprocs >= 1 and a sequence number >= 0")
    try:
        config = IngestConfig.from_tuple(cfg_tuple)
    except TraceFormatError as e:
        raise CorruptTraceError(
            f"malformed checkpoint config ({e})") from e
    return tenant, nprocs, next_seq, finished, config


#: a session's watermark plus its fold's state, as one flush record
#: holding every live rank's :meth:`RankFold.to_partial`
CHECKPOINT = Container(
    b"PICK", 3, None,
    (Section("header", _read_checkpoint_head), Section("flush")),
    what="Pilgrim ingest checkpoint")


class Aggregator:
    """All tenant folds behind one server, with obs counters,
    checkpoint persistence, and optional trace-store archival."""

    def __init__(self, *, metrics=None,
                 checkpoint_dir: Optional[str] = None, store=None):
        registry = metrics if metrics is not None else NULL_REGISTRY
        self.obs = registry.scope("ingest")
        self.checkpoint_dir = checkpoint_dir
        #: a :class:`repro.store.TraceStore` (or None): every completed
        #: fold is put as a run of workload == tenant, so successive
        #: pushes of the same tenant dedup against each other
        self.store = store
        #: tenant -> run id of its most recently archived fold
        self.stored_runs: dict[str, str] = {}
        self.tenants: dict[str, TenantFold] = {}

    def start(self, tenant: str, nprocs: int, config: IngestConfig, *,
              resume: bool = False) -> TenantFold:
        fold = self.tenants.get(tenant)
        if fold is None or not resume:
            fold = TenantFold(tenant, nprocs, config)
            self.tenants[tenant] = fold
        elif fold.nprocs != nprocs or fold.config != config:
            raise FoldError(
                f"tenant {tenant!r}: resume config does not match the "
                f"existing fold")
        if self.obs.enabled:
            self.obs.gauge("tenants").set(len(self.tenants))
        return fold

    def absorb(self, tenant: str, blob: bytes) -> list[ShardPartial]:
        """One CHUNK's partials into *tenant*'s fold, all or nothing."""
        fold = self._fold(tenant)
        partials = fold.absorb_blob(blob)
        if self.obs.enabled:
            self.obs.counter("partials").inc(len(partials))
            self.obs.counter("calls").inc(sum(p.n_calls for p in partials))
            self.obs.counter("bytes").inc(len(blob))
        return partials

    def finish(self, tenant: str,
               expected_calls: Optional[list[int]] = None) -> bytes:
        blob = self._fold(tenant).finish(expected_calls, self.obs)
        if self.obs.enabled:
            self.obs.counter("folds").inc()
            self.obs.counter("trace_bytes").inc(len(blob))
        if self.store is not None:
            self._archive(tenant, blob)
        return blob

    def _archive(self, tenant: str, blob: bytes) -> None:
        """Persist a completed fold into the trace store.

        Archival is best-effort relative to the client: the fold
        succeeded and the RESULT frame must still go out, so a store
        rejection (e.g. a tenant name outside the stricter workload
        grammar) is counted, not raised."""
        try:
            put = self.store.put(blob, tenant, tenant=tenant)
        except StoreFormatError:
            if self.obs.enabled:
                self.obs.counter("store_errors").inc()
            return
        self.stored_runs[tenant] = put.run_id
        if self.obs.enabled:
            self.obs.counter("stored_runs").inc()

    def discard(self, tenant: str) -> None:
        """Forget a delivered tenant, its checkpoint too: a restart must
        not reopen a stream that was already delivered."""
        self.tenants.pop(tenant, None)
        if self.checkpoint_dir is not None:
            with suppress(FileNotFoundError):
                os.remove(os.path.join(self.checkpoint_dir, f"{tenant}.ckpt"))
        if self.obs.enabled:
            self.obs.gauge("tenants").set(len(self.tenants))

    def _fold(self, tenant: str) -> TenantFold:
        fold = self.tenants.get(tenant)
        if fold is None:
            raise FoldError(f"no fold open for tenant {tenant!r}")
        return fold

    # -- checkpointing -------------------------------------------------------------

    def checkpoint(self, tenant: str, state: TenantState) -> Optional[str]:
        """Persist one tenant's fold + session watermark; returns the
        path (None when no checkpoint dir is configured)."""
        if self.checkpoint_dir is None:
            return None
        fold = self._fold(tenant)
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        path = os.path.join(self.checkpoint_dir, f"{tenant}.ckpt")
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(fold.to_bytes(state))
        os.replace(tmp, path)
        if self.obs.enabled:
            self.obs.counter("checkpoints").inc()
        return path

    def restore(self) -> list[TenantState]:
        """Load every checkpoint in the configured dir; installs the
        folds here and returns the session states for the registry."""
        if self.checkpoint_dir is None or \
                not os.path.isdir(self.checkpoint_dir):
            return []
        states = []
        for name in sorted(os.listdir(self.checkpoint_dir)):
            if not name.endswith(".ckpt"):
                continue
            with open(os.path.join(self.checkpoint_dir, name), "rb") as fh:
                fold, state = TenantFold.from_bytes(fh.read())
            self.tenants[fold.tenant] = fold
            states.append(state)
        return states
