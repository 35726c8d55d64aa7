"""The two codec bombs, behind valid CRCs, through every read path.

A *depth bomb* (tuples nested thousands deep) used to leak a bare
``RecursionError`` from the store's manifest and index readers, and to
depend on the caller's stack depth everywhere else; a *varint bomb*
(hundreds of kilobytes of continuation bytes) cost the scalar reader
quadratic time, and a live ``repro serve`` accepted it inside a
CRC-valid CHUNK frame.  Both are now refused by the codec's own bounds
(``MAX_VALUE_DEPTH`` / ``MAX_VARINT_BYTES``) with a structured error in
bounded time.
"""

from __future__ import annotations

import os
import socket
import sys
from time import perf_counter

import pytest

import repro
from repro import fuzz
from repro.core.errors import (CorruptTraceError, StoreFormatError,
                               TraceFormatError)
from repro.core.trace_format import TraceFile
from repro.fuzz import CODEC_BOMBS, HOSTILE_TABLES
from repro.ingest import protocol as proto, push, serve_in_thread
from repro.ingest.aggregator import read_partials
from repro.store import TraceStore
from repro.store.index import INDEX, RunIndex
from repro.store.manifest import RunRecord

#: the acceptance bound for the 320 KB varint case; the quadratic reader
#: took 4.4 s on it
BOUND_S = 0.050


def _refused(parse, blob, error=CorruptTraceError) -> float:
    """Seconds *parse* took to refuse *blob* with *error* (best of 3,
    so a scheduling hiccup is not a failure)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        with pytest.raises(error):
            parse(blob)
        best = min(best, perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def trace_blob() -> bytes:
    return repro.trace("stencil2d", 2, seed=3).trace_bytes


@pytest.fixture(scope="module")
def trace_bombs(trace_blob) -> list:
    bombs = [(d, b) for d, b in fuzz.trace_corpus(trace_blob)
             if d.startswith("codec bomb")]
    assert len(bombs) == len(CODEC_BOMBS) == 2
    return bombs


@pytest.fixture(scope="module")
def frame_bombs() -> list:
    # the sequence-number bomb, then each codec bomb as the signature of
    # a chunk's first partial and of its second
    bombs = [(d, b) for d, b in fuzz.frame_corpus(
                 fuzz.frame_stream(*fuzz.record_stream(chunk_calls=64)))
             if d.startswith(("CHUNK sequence number", "codec bomb"))]
    assert len(bombs) == 1 + 2 * len(CODEC_BOMBS)
    return bombs


class TestStructuredAndBounded:
    def test_trace(self, trace_bombs):
        for desc, blob in trace_bombs:
            assert _refused(TraceFile.from_bytes, blob) < BOUND_S, desc
            # salvage drops the CST (so every rank) instead of crashing
            salvaged = TraceFile.from_bytes(blob, salvage=True)
            assert "CST" in salvaged.salvage.lost_sections

    def test_hostile_tables(self, trace_blob):
        # what only the columnar CST makes possible: terminals out of
        # range, order or number, bad column shapes and references, and
        # counts that claim 2**40 of something or more fields than the
        # section has bytes — refused before they are allocated
        tables = [(d, b) for d, b in fuzz.trace_corpus(trace_blob)
                  if d.startswith("hostile table")]
        assert len(tables) == len(HOSTILE_TABLES) >= 16
        assert sum("2**40" in d for d, _ in tables) == 5
        for desc, blob in tables:
            assert _refused(TraceFile.from_bytes, blob,
                            TraceFormatError) < BOUND_S, desc
            salvaged = TraceFile.from_bytes(blob, salvage=True)
            assert "CST" in salvaged.salvage.lost_sections, desc

    def test_depth_bomb_does_not_depend_on_the_callers_stack(self,
                                                              trace_bombs):
        blob = trace_bombs[0][1]

        def deep(n):
            return deep(n - 1) if n else _refused(TraceFile.from_bytes, blob)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            for frames in (0, 500, 5000):
                deep(frames)
        finally:
            sys.setrecursionlimit(limit)

    def test_shard_partial(self, frame_bombs):
        for desc, stream in frame_bombs[1:]:
            dec = proto.FrameDecoder()
            dec.feed(stream)
            (_, _), (kind, payload) = list(dec.frames())
            assert kind == proto.CHUNK
            seq, partials = proto.parse_chunk(payload)
            assert seq == 0
            assert _refused(read_partials, partials) < BOUND_S, desc

    def test_chunk_sequence_number(self, frame_bombs):
        dec = proto.FrameDecoder()
        dec.feed(frame_bombs[0][1])
        (_, _), (kind, payload) = list(dec.frames())
        assert kind == proto.CHUNK and len(payload) > 300_000
        assert _refused(proto.parse_chunk, payload) < BOUND_S

    def test_manifest_and_index(self, tmp_path):
        store = TraceStore(str(tmp_path / "st"))
        put = store.put(repro.trace("stencil2d", 2).trace_bytes, "w")
        record = store.read_record(put.run_id)
        bombs = [(d, b) for d, b in fuzz.manifest_corpus(record)
                 if d.startswith("codec bomb")]
        assert len(bombs) == 2
        for desc, blob in bombs:
            assert _refused(RunRecord.from_bytes, blob,
                            StoreFormatError) < BOUND_S, desc
        for desc, value in CODEC_BOMBS:
            root = tmp_path / f"idx{len(value)}"
            os.makedirs(root)
            (root / "index.bin").write_bytes(INDEX.write((value,)))
            assert _refused(RunIndex, str(root),
                            StoreFormatError) < BOUND_S, desc

    def test_live_ingest_session(self, frame_bombs):
        ref = repro.trace("osu_latency", 2, seed=7).trace_bytes
        with serve_in_thread() as srv:
            for desc, stream in frame_bombs:
                with socket.create_connection(("127.0.0.1", srv.port),
                                              timeout=10) as bad:
                    start = perf_counter()
                    bad.sendall(stream)
                    dec = proto.FrameDecoder()
                    while data := bad.recv(65536):
                        dec.feed(data)
                    took = perf_counter() - start
                frames = list(dec.frames())
                assert [k for k, _ in frames] == [proto.HELLO_ACK,
                                                  proto.ERROR], desc
                code, detail = proto.parse_error(frames[1][1])
                assert code == "CorruptTraceError", (desc, detail)
                assert took < 2.0, desc     # sockets and a thread hop
            # the server is still serving, and still byte-exact
            res = push("osu_latency", 2, port=srv.port, tenant="good",
                       seed=7, chunk_calls=16)
        assert res.trace_bytes == ref


class TestFuzzersCarryTheBombs:
    def test_trace_and_replay_fuzzers(self, trace_blob):
        for target in fuzz.trace_target, fuzz.salvage_target:
            report = fuzz.run(target(trace_blob), n_random=0)
            assert report.ok, report.failures
        replay = fuzz.run(fuzz.replay_target(trace_blob), n_random=0)
        assert replay.ok, replay.failures
        assert replay.by_error["CorruptTraceError"] >= 6

    def test_store_fuzzer(self, tmp_path, trace_blob):
        store = TraceStore(str(tmp_path / "st"))
        put = store.put(trace_blob, "w")
        report = fuzz.run(fuzz.store_target(store, put.run_id), n_random=0)
        assert report.ok, report.failures

    def test_frame_fuzzer(self):
        report = fuzz.run(fuzz.frames_target(
            fuzz.frame_stream(*fuzz.record_stream(chunk_calls=64))), n_random=0)
        assert report.ok, report.failures
        assert report.by_error["CorruptTraceError"] >= 3
