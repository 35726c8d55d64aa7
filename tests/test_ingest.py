"""The streaming ingest subsystem's core invariant and its service.

The invariant (tentpole): **any** chunking of a rank's stream into
partial shards folds, server-side, to a trace byte-identical to the
one-shot in-process run — across workload families, chunk sizes
(including per-call streaming and whole-run), lossy timing, and the
memory watermark.  Property-tested in-memory (fast), then pinned over
real sockets with concurrent multi-tenant pushes, reconnects, and a
corrupt client that must not disturb healthy tenants.
"""

from __future__ import annotations

import functools
import os
import socket
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.backends import TracerOptions, make_tracer
from repro.core.grammar import Grammar
from repro.core.shard import write_flush
from repro.ingest import (ChunkingTracer, IngestClient, IngestError,
                          protocol as proto, push, serve_in_thread)
from repro.ingest.aggregator import Aggregator, TenantFold
from repro.obs import MetricsRegistry
from repro.workloads import make

FAMILIES = ("stencil2d", "osu_latency", "npb_mg", "flash_sedov",
            "milc_su3_rmd")

#: per-call streaming, tiny, mid-size, and one whole-run chunk
CHUNKINGS = (1, 7, 97, 10 ** 9)


def _one_shot(family: str, nprocs: int, seed: int, *,
              lossy: bool, watermark=None) -> bytes:
    tracer = make_tracer("pilgrim", TracerOptions(
        lossy_timing=lossy, memory_watermark=watermark))
    make(family, nprocs).run(seed=seed, tracer=tracer, noise=0.05)
    return tracer.result.trace_bytes


def _folded(family: str, nprocs: int, seed: int, *, chunk_calls: int,
            lossy: bool, watermark=None) -> bytes:
    """Stream through ChunkingTracer into an Aggregator, no sockets."""
    agg = Aggregator()
    tracer = ChunkingTracer(
        lambda p: agg.absorb("t", p.to_bytes()),
        chunk_calls=chunk_calls,
        timing_mode="lossy" if lossy else "aggregate",
        memory_watermark=watermark)
    agg.start("t", nprocs, tracer.config())
    make(family, nprocs).run(seed=seed, tracer=tracer, noise=0.05)
    return agg.finish("t", [rc.streamed_calls for rc in tracer.ranks])


class TestFoldByteIdentity:
    """The tentpole property, over >= 4 workload families."""

    @settings(max_examples=10, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           nprocs=st.sampled_from([2, 4]),
           seed=st.integers(0, 2 ** 16),
           chunk_calls=st.sampled_from(CHUNKINGS),
           lossy=st.booleans())
    def test_chunked_fold_byte_identity(self, family, nprocs, seed,
                                        chunk_calls, lossy):
        ref = _one_shot(family, nprocs, seed, lossy=lossy)
        got = _folded(family, nprocs, seed, chunk_calls=chunk_calls,
                      lossy=lossy)
        assert got == ref

    @pytest.mark.parametrize("family", ["stencil2d", "milc_su3_rmd"])
    @pytest.mark.parametrize("chunk_calls", [1, 23, 10 ** 9])
    def test_identity_under_memory_watermark(self, family, chunk_calls):
        ref = _one_shot(family, 4, 5, lossy=True, watermark=7)
        got = _folded(family, 4, 5, chunk_calls=chunk_calls,
                      lossy=True, watermark=7)
        assert got == ref

    def test_every_family_whole_run_and_per_call(self):
        for family in FAMILIES[:4]:
            ref = _one_shot(family, 2, 3, lossy=False)
            for chunk_calls in (1, 10 ** 9):
                assert _folded(family, 2, 3, chunk_calls=chunk_calls,
                               lossy=False) == ref, family


@functools.lru_cache(maxsize=None)
def _recorded(family: str, nprocs: int, seed: int, *, chunk_calls: int,
              lossy: bool = False, watermark=None):
    """One run's partial stream, flush by flush: (config, flushes, fin)."""
    flushes: list = []
    tracer = ChunkingTracer(
        emit_flush=flushes.append, chunk_calls=chunk_calls,
        timing_mode="lossy" if lossy else "aggregate",
        memory_watermark=watermark)
    make(family, nprocs).run(seed=seed, tracer=tracer, noise=0.05)
    return (tracer.config(), flushes,
            [rc.streamed_calls for rc in tracer.ranks])


_cached_one_shot = functools.lru_cache(maxsize=None)(_one_shot)


def _regroup(partials: list, sizes: list) -> list:
    """Cut a partial stream into chunks of the drawn sizes (cycled),
    and earlier wherever the next partial's rank would not ascend — the
    one thing the format forbids inside a chunk."""
    chunks, want = [[]], 0
    for p in partials:
        last = chunks[-1]
        if last and (len(last) >= sizes[want % len(sizes)]
                     or p.rank <= last[-1].rank):
            want += 1
            chunks.append(last := [])
        last.append(p)
    return chunks


class TestChunkRegrouping:
    """The wire unit is a flush, but the fold must not care: any
    regrouping of a recorded partial stream into chunks — one partial
    each (what the parent sent) up to every partial of an ascending run
    of ranks — folds to the one-shot trace."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=12, deadline=None)
    @given(seed=st.sampled_from([1, 2]),
           chunk_calls=st.sampled_from([1, 9, 64, 10 ** 9]),
           timing=st.sampled_from([(False, None), (True, None), (True, 7)]),
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6))
    def test_any_regrouping_folds_byte_identical(self, family, seed,
                                                 chunk_calls, timing, sizes):
        lossy, watermark = timing
        ref = _cached_one_shot(family, 4, seed, lossy=lossy,
                               watermark=watermark)
        config, flushes, fin = _recorded(
            family, 4, seed, chunk_calls=chunk_calls, lossy=lossy,
            watermark=watermark)
        partials = [p for flush in flushes for p in flush]
        agg = Aggregator()
        agg.start("t", 4, config)
        dec = proto.FrameDecoder()
        for seq, chunk in enumerate(_regroup(partials, sizes)):
            dec.feed(proto.encode_chunk(
                seq, write_flush(chunk, compress=False), compress=True))
            [(kind, payload)] = dec.frames()
            got_seq, blob = proto.parse_chunk(payload)
            assert (kind, got_seq) == (proto.CHUNK, seq)
            assert len(agg.absorb("t", blob)) == len(chunk)
        assert agg.tenants["t"].partials_absorbed == len(partials)
        assert agg.finish("t", fin) == ref

    def test_regroup_reaches_both_ends(self):
        _, flushes, _ = _recorded("stencil2d", 4, 1, chunk_calls=64)
        partials = [p for flush in flushes for p in flush]
        assert all(len(c) == 1 for c in _regroup(partials, [1]))
        whole = _regroup(partials, [4])
        assert max(map(len, whole)) == 4 and len(whole) < len(partials) / 2
        assert [p for c in whole for p in c] == partials


class TestSocketEndToEnd:
    def test_push_matches_in_process(self):
        ref = repro.trace("stencil2d", 4, seed=5,
                          options=TracerOptions(lossy_timing=True)
                          ).trace_bytes
        with serve_in_thread() as srv:
            res = push("stencil2d", 4, port=srv.port, seed=5,
                       options=TracerOptions(lossy_timing=True),
                       chunk_calls=32)
        assert res.trace_bytes == ref
        assert res.chunks_sent > 10
        # a flush carries every rank's partial: 4 ranks, one CHUNK
        assert res.chunks_sent < res.partials_sent <= 4 * res.chunks_sent
        assert res.total_calls == sum(res.per_rank_calls)

    def test_one_send_and_one_ack_per_flush(self):
        """The transport shape: a push of F flushes performs F CHUNK
        ``sendall``s (plus HELLO and FIN) and receives F ACKs, while the
        fold absorbs exactly the partials per-rank streaming would."""
        kinds = []

        class Counting(IngestClient):
            def _read_frame(self):
                kind, payload = super()._read_frame()
                kinds.append(kind)
                return kind, payload

        reg = MetricsRegistry()
        flushes = []
        with serve_in_thread(metrics=reg) as srv:
            client = Counting("127.0.0.1", srv.port, "t")

            def emit_flush(partials):
                flushes.append(len(partials))
                client.send_partials(partials)

            tracer = ChunkingTracer(emit_flush=emit_flush, chunk_calls=64)
            client.connect(4, tracer.config())
            make("stencil2d", 4).run(seed=5, tracer=tracer, noise=0.05)
            blob = client.finish([rc.streamed_calls for rc in tracer.ranks])
        assert blob == repro.trace("stencil2d", 4, seed=5).trace_bytes
        n_flushes = len(flushes)
        assert n_flushes > 5 and max(flushes) == 4
        assert client.chunks_sent == n_flushes
        assert client.sendalls == n_flushes + 2
        assert kinds.count(proto.ACK) == n_flushes
        assert kinds == ([proto.HELLO_ACK] + [proto.ACK] * n_flushes
                         + [proto.RESULT])
        counters = reg.snapshot()["counters"]
        assert counters["ingest.server.chunks"] == n_flushes
        assert counters["ingest.partials"] == sum(flushes) \
            == client.partials_sent
        per_rank_stream = []
        make("stencil2d", 4).run(
            seed=5, noise=0.05,
            tracer=ChunkingTracer(per_rank_stream.append, chunk_calls=64))
        assert len(per_rank_stream) == sum(flushes)
        assert counters["ingest.calls"] == sum(
            p.n_calls for p in per_rank_stream)

    def test_concurrent_tenants_are_isolated(self):
        jobs = [("t0", "stencil2d", 1), ("t1", "osu_latency", 2),
                ("t2", "stencil2d", 3), ("t3", "npb_mg", 4)]
        refs = {t: repro.trace(w, 2, seed=s).trace_bytes
                for t, w, s in jobs}
        results, errors = {}, []

        def _push(tenant, wl, seed, port):
            try:
                results[tenant] = push(wl, 2, port=port, tenant=tenant,
                                       seed=seed, chunk_calls=16)
            except Exception as e:  # noqa: BLE001 — collected for assert
                errors.append((tenant, e))

        with serve_in_thread() as srv:
            threads = [threading.Thread(target=_push,
                                        args=(t, w, s, srv.port))
                       for t, w, s in jobs]
            for th in threads:
                th.start()
            for th in threads:
                th.join(120)
        assert not errors, errors
        for tenant, wl, seed in jobs:
            assert results[tenant].trace_bytes == refs[tenant], tenant

    def test_corrupt_client_does_not_disturb_healthy_tenants(self):
        ref = repro.trace("osu_latency", 2, seed=7).trace_bytes
        with serve_in_thread() as srv:
            # a garbage stream: must get a structured ERROR frame back
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=10) as bad:
                bad.sendall(b"\xde\xad\xbe\xef" * 16)
                dec = proto.FrameDecoder()
                while True:
                    data = bad.recv(65536)
                    if not data:
                        break
                    dec.feed(data)
                frames = list(dec.frames())
            assert frames and frames[0][0] == proto.ERROR
            code, _ = proto.parse_error(frames[0][1])
            assert code == "FrameFormatError"
            # a mid-session corruption: valid HELLO, then garbage
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=10) as bad:
                bad.sendall(proto.encode_hello("evil", 2,
                                               proto.IngestConfig()))
                bad.sendall(b"\x00" * 64)
                while bad.recv(65536):
                    pass
            # the healthy tenant's stream still folds byte-identically
            res = push("osu_latency", 2, port=srv.port, tenant="good",
                       seed=7, chunk_calls=16)
            assert res.trace_bytes == ref
            assert srv.server.errors >= 2

    def test_reconnect_resumes_idempotently(self):
        ref = repro.trace("stencil2d", 2, seed=11).trace_bytes
        with serve_in_thread() as srv:
            client = IngestClient("127.0.0.1", srv.port, "t")
            sent = [0]

            def emit(p):
                # sever the transport under the client mid-stream, twice
                if sent[0] in (3, 9):
                    client._sock.close()
                    time.sleep(0.05)
                client.send_partial(p)
                sent[0] += 1

            tracer = ChunkingTracer(emit, chunk_calls=32)
            client.connect(2, tracer.config())
            make("stencil2d", 2).run(seed=11, tracer=tracer, noise=0.05)
            blob = client.finish(
                [rc.streamed_calls for rc in tracer.ranks])
        assert client.reconnects >= 2
        assert blob == ref

    def test_reconnects_between_and_inside_flushes_are_exactly_once(
            self, monkeypatch):
        """A frame bound just above the largest single partial splits
        the big early flushes over several CHUNKs; the transport is
        severed once before the first CHUNK of a flush and once before a
        later CHUNK of one."""
        ref = repro.trace("stencil2d", 4, seed=11).trace_bytes
        _, recorded, _ = _recorded("stencil2d", 4, 11, chunk_calls=64)
        bound = 16 + max(len(ref), *(len(p.to_bytes(compress=False))
                                     for flush in recorded for p in flush))
        monkeypatch.setattr(proto, "MAX_FRAME_PAYLOAD", bound)
        reg = MetricsRegistry()
        cuts = []
        with serve_in_thread(metrics=reg) as srv:
            client = IngestClient("127.0.0.1", srv.port, "t")
            send_chunk = client._send_chunk
            flush_starts = []

            def cutting(record, n_partials):
                where = ("between" if client.chunks_sent in flush_starts
                         else "inside")
                if client.chunks_sent and where not in cuts:
                    cuts.append(where)
                    client._sock.close()
                    time.sleep(0.05)
                send_chunk(record, n_partials)

            def emit_flush(partials):
                flush_starts.append(client.chunks_sent)
                client.send_partials(partials)

            client._send_chunk = cutting
            tracer = ChunkingTracer(emit_flush=emit_flush, chunk_calls=64)
            client.connect(4, tracer.config())
            make("stencil2d", 4).run(seed=11, tracer=tracer, noise=0.05)
            blob = client.finish(
                [rc.streamed_calls for rc in tracer.ranks])
        assert sorted(cuts) == ["between", "inside"]
        assert client.reconnects >= 2
        assert client.chunks_sent > len(flush_starts)    # flushes split
        assert blob == ref
        counters = reg.snapshot()["counters"]
        assert counters["ingest.server.chunks"] == client.chunks_sent
        assert counters["ingest.partials"] == client.partials_sent
        assert counters["ingest.calls"] == sum(
            rc.streamed_calls for rc in tracer.ranks)

    def _refused_then_resumed(self, spoil, code_and_detail):
        """A live server is sent three good flushes and a fourth whose
        second partial *spoil* made unabsorbable: the chunk is refused
        whole with an ERROR frame, the tenant's fold and ``next_seq``
        stay where the last ACK put them, and a ``resume=True`` session
        that resends the good stream from there folds the in-process
        trace."""
        ref = repro.trace("stencil2d", 4, seed=5).trace_bytes
        config, flushes, fin = _recorded("stencil2d", 4, 5, chunk_calls=64)
        assert len(flushes) > 4 and len(flushes[3]) == 4

        def chunk(seq, partials):
            return proto.encode_chunk(
                seq, write_flush(partials, compress=False), compress=True)

        def session(port, frames, *, resume):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                sock.sendall(proto.encode_hello("t", 4, config,
                                                resume=resume))
                sock.sendall(b"".join(frames))
                dec = proto.FrameDecoder()
                while data := sock.recv(65536):
                    dec.feed(data)
                return list(dec.frames())

        bad = list(flushes[3])
        bad[1] = spoil(bad[1])
        expected = TenantFold("t", 4, config)
        for flush in flushes[:3]:
            for p in flush:
                expected.absorb(p)

        def fold_state(fold):
            return (fold.partials_absorbed,
                    {r: (f.sigs, f.counts, f.dur_ns, f.calls, len(f.parts))
                     for r, f in fold.ranks.items()})

        with serve_in_thread() as srv:
            got = session(srv.port, [chunk(i, f) for i, f in
                                     enumerate(flushes[:3])] + [chunk(3, bad)],
                          resume=False)
            assert [k for k, _ in got] == [
                proto.HELLO_ACK, proto.ACK, proto.ACK, proto.ACK, proto.ERROR]
            code, detail = proto.parse_error(got[-1][1])
            assert code == code_and_detail[0] and code_and_detail[1] in detail
            assert srv.server.registry.get("t").next_seq == 3
            assert fold_state(srv.server.aggregator.tenants["t"]) \
                == fold_state(expected)
            got = session(srv.port, [chunk(i, f) for i, f in
                                     enumerate(flushes) if i >= 3]
                          + [proto.encode_fin(fin)], resume=True)
        assert got[0] == (proto.HELLO_ACK, b"\x03")
        assert [k for k, _ in got[1:]] == \
            [proto.ACK] * (len(flushes) - 3) + [proto.RESULT]
        assert got[-1][1] == ref

    def test_refused_chunk_then_resumed_session_folds_byte_identical(self):
        """Bugfix regression (PR 15): a delta aimed at a signature nobody
        knows."""
        self._refused_then_resumed(
            lambda p: replace(p, idx=[5000], d_counts=[1], d_dur_ns=[1]),
            ("FoldError", "signature 5000"))

    def test_a_partial_that_does_not_add_up_is_refused_then_resent(self):
        """Bugfix regression: the fold used to take a partial declaring
        five calls whose counts summed to two and whose part expanded to
        three terminals, one of them unknown to the CST — and a FIN
        declaring the same five then passed the conservation check over
        a trace whose grammar, counts and call total disagreed."""
        self._refused_then_resumed(
            lambda p: replace(p, n_calls=5, idx=[0], d_counts=[2],
                              d_dur_ns=[1],
                              parts=[Grammar((((0, 2), (10 ** 6, 1)),))]),
            ("FoldError", "count deltas sum to 2"))

    def test_conservation_mismatch_is_refused(self):
        with serve_in_thread() as srv:
            client = IngestClient("127.0.0.1", srv.port, "t")
            tracer = ChunkingTracer(client.send_partial, chunk_calls=16)
            client.connect(2, tracer.config())
            make("osu_latency", 2).run(seed=1, tracer=tracer)
            wrong = [rc.streamed_calls + 1 for rc in tracer.ranks]
            with pytest.raises(IngestError) as ei:
                client.finish(wrong)
            assert ei.value.code == "FoldError"
            assert "conservation" in ei.value.detail


class TestSatelliteGuards:
    """The smaller PR-8 satellites: eager option validation, the
    freeze() guard, and the upward-only layering rule."""

    def test_tracer_options_validate_eagerly(self):
        with pytest.raises(ValueError, match="batch_size"):
            TracerOptions(batch_size=0)
        with pytest.raises(ValueError, match="memory_watermark"):
            TracerOptions(memory_watermark=0)
        TracerOptions(batch_size=1, memory_watermark=1)

    def test_chunk_calls_validates(self):
        with pytest.raises(ValueError, match="chunk_calls"):
            ChunkingTracer(lambda p: None, chunk_calls=0)

    def test_freeze_refused_after_streaming(self):
        tracer = ChunkingTracer(lambda p: None, chunk_calls=16)
        make("osu_latency", 2).run(seed=1, tracer=tracer)
        with pytest.raises(RuntimeError, match="flush_partial"):
            tracer.finalize()

    def test_layering_is_upward_only(self):
        """Each ingest layer may import only layers strictly below it
        (and repro.core / repro.obs / repro.resilience)."""
        import ast
        import os

        import repro.ingest as ingest_pkg
        pkg_dir = os.path.dirname(ingest_pkg.__file__)
        order = {"protocol": 1, "session": 2, "aggregator": 3,
                 "server": 4, "client": 4}
        for mod, level in order.items():
            tree = ast.parse(
                open(os.path.join(pkg_dir, mod + ".py")).read())
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.ImportFrom) and node.module:
                    names.append(node.module)
                elif isinstance(node, ast.ImportFrom) and node.level:
                    # "from . import protocol as proto" style
                    names.extend(a.name for a in node.names)
                elif isinstance(node, ast.Import):
                    names.extend(a.name for a in node.names)
                for name in names:
                    leaf = name.split(".")[-1]
                    if leaf in order and leaf != mod:
                        assert order[leaf] < level, (
                            f"{mod} (layer {level}) imports {leaf} "
                            f"(layer {order[leaf]}): dependencies must "
                            f"flow upward only")

    def test_one_chunk_writer_and_one_chunk_absorb_routine(self):
        """No second path: ``src/`` frames CHUNKs in one function and
        absorbs them in one routine, whatever the number of partials."""
        import repro as pkg
        root = os.path.dirname(pkg.__file__)
        src = {}
        for base, _, names in os.walk(root):
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path) as fh:
                        src[os.path.relpath(path, root)] = fh.read()

        def users(needle):
            return sorted(rel for rel, text in src.items() if needle in text)

        # the writer: protocol.encode_chunk; the client calls it from one
        # place and has one socket write; the fuzzer records its corpus
        # with it (and hand-frames one hostile CHUNK whose sequence
        # number is not a number)
        assert users("def encode_chunk(") == ["ingest/protocol.py"]
        assert users("encode_chunk(") == [
            "fuzz.py", "ingest/client.py", "ingest/protocol.py"]
        assert users("encode_frame(CHUNK") == ["ingest/protocol.py"]
        assert users("encode_frame(proto.CHUNK") == ["fuzz.py"]
        client = src["ingest/client.py"]
        assert client.count("encode_chunk(") == 1
        assert client.count(".sendall(") == 1
        # one codec under both: the flush record's writer (the client's
        # CHUNKs, the checkpoint, the fuzzer's corpus) and its reader
        assert users("def write_flush(") == users("def read_flush(") \
            == ["core/shard.py"]
        assert users("write_flush(") == [
            "bench/ingest.py", "core/shard.py", "fuzz.py",
            "ingest/aggregator.py", "ingest/client.py"]
        assert users("read_flush(") == ["core/shard.py",
                                        "ingest/aggregator.py"]
        assert client.count("write_flush(") == 1
        # the absorb routine: read_partials -> TenantFold.absorb_blob ->
        # Aggregator.absorb, called once by the server's consumer
        assert users("read_partials(") == [
            "bench/ingest.py", "fuzz.py", "ingest/aggregator.py"]
        assert users("absorb_blob(") == ["ingest/aggregator.py"]
        assert src["ingest/aggregator.py"].count("absorb_blob(") == 2
        assert src["ingest/server.py"].count(".absorb(") == 1

    def test_chunking_tracer_takes_one_sink(self):
        with pytest.raises(TypeError, match="exactly one"):
            ChunkingTracer()
        with pytest.raises(TypeError, match="exactly one"):
            ChunkingTracer(lambda p: None, emit_flush=lambda ps: None)

    def test_facade_exports(self):
        assert callable(repro.serve)
        assert callable(repro.push)
        assert "push" in repro.api.__all__ and "serve" in repro.api.__all__
