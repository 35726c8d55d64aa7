"""Every container's bytes, and every fuzz corpus entry's error, pinned.

``tests/data/container_golden.json`` was recorded on the commit it names
(``recorded_on``), the last before the containers became declarations,
by ``tests/data/record_container_golden_v2.py`` — this file as it was
then, reading that commit's four fuzz modules, kept verbatim — run
against that checkout's source; it reproduces the golden byte for byte::

    PYTHONPATH=<checkout at recorded_on>/src \
        python tests/data/record_container_golden_v2.py OUT.json

This file reads the same corpora through :mod:`repro.fuzz`, so
re-recording with it — on purpose only — needs a checkout that has that
module::

    PYTHONPATH=<checkout>/src python tests/test_container_golden.py

For ``stencil2d`` at 4 ranks with aggregate timing and ``npb_is`` at 4
ranks with lossy timing it holds the ``sha256`` and length of the trace,
of each rank's frozen shard, of each flush record a streaming run sends,
of the recorded ingest frame stream, of the run manifest (``created_ms``
zeroed) and of the store's ``index.bin``; the checkpoint of the first
half of the stream is kept whole.  Beside the bytes it holds what every
corpus entry of the fuzz targets that existed then does: the error
class it raises, or ``ok``.

Every container but the checkpoint must stay byte-identical to it, and
every corpus entry must keep its description and its error; entries
added since (:data:`ADDED`) carry theirs here.  The
checkpoint moved on purpose (``CHECKPOINT_VERSION`` 2 -> 3: its header
gained a CRC), and the recorded one is what the refusal test reads.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest

from repro import api, fuzz
from repro.core.backends import TracerOptions
from repro.core.errors import TraceFormatError, UnsupportedVersionError
from repro.core.shard import read_flush, write_flush
from repro.ingest.aggregator import CHECKPOINT, TenantFold
from repro.ingest.client import ChunkingTracer
from repro.ingest.session import TenantState
from repro.store import TraceStore
from repro.workloads import make

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "container_golden.json")
ROWS = {"stencil2d/4/aggregate": ("stencil2d", False),
        "npb_is/4/lossy": ("npb_is", True)}
NPROCS = 4
CHUNK_CALLS = 16
#: corpus entries the recording commit did not have, and what each
#: target must answer them with
ADDED = {"header declares 2**40 ranks": {
    "trace": "CorruptTraceError", "salvage": "CorruptTraceError",
    "replay": "CorruptTraceError"}}


def _pin(blob: bytes) -> list:
    return [hashlib.sha256(blob).hexdigest(), len(blob)]


def _corpus(target) -> dict:
    """Each corpus entry's error class name, or ``ok``."""
    out = {}
    for desc, blob in target.corpus:
        try:
            target.exercise(blob)
        except TraceFormatError as e:
            out[desc] = type(e).__name__
        else:
            out[desc] = "ok"
    return out


def observe_row(workload: str, lossy: bool) -> dict:
    result = api.trace(workload, NPROCS, seed=1,
                       options=TracerOptions(lossy_timing=lossy))
    trace = result.trace_bytes
    flushes = []
    tracer = ChunkingTracer(emit_flush=flushes.append,
                            chunk_calls=CHUNK_CALLS,
                            timing_mode="lossy" if lossy else "aggregate")
    make(workload, NPROCS).run(seed=1, tracer=tracer, noise=0.05)
    cut = len(flushes) // 2
    fold = TenantFold("golden", NPROCS, tracer.config())
    for flush in flushes[:cut]:
        fold.absorb_blob(write_flush(flush))
    checkpoint = fold.to_bytes(TenantState(
        tenant="golden", nprocs=NPROCS, config=tracer.config(),
        next_seq=cut))
    frames = fuzz.frame_stream(*fuzz.record_stream(
        workload, NPROCS, seed=1, chunk_calls=CHUNK_CALLS,
        lossy_timing=lossy))
    with tempfile.TemporaryDirectory() as root:
        store = TraceStore(root)
        record = store.put(trace, workload).record
        with open(os.path.join(root, "index.bin"), "rb") as fh:
            index = fh.read()
        store_corpus = _corpus(fuzz.store_target(store, record.run_id))
    return {
        "trace": _pin(trace),
        "shards": [_pin(rc.freeze().to_bytes())
                   for rc in result.tracer.ranks],
        "flushes": [_pin(write_flush(flush)) for flush in flushes],
        "frames": _pin(frames),
        "checkpoint": checkpoint.hex(),
        "manifest": _pin(replace(record, created_ms=0).to_bytes()),
        "index": _pin(index),
        "corpus": {
            "trace": _corpus(fuzz.trace_target(trace)),
            "salvage": _corpus(fuzz.salvage_target(trace)),
            "replay": _corpus(fuzz.replay_target(trace)),
            "frames": _corpus(fuzz.frames_target(frames)),
            "store": store_corpus,
        },
    }


def observe_all() -> dict:
    return {row: observe_row(*args) for row, args in ROWS.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def observed() -> dict:
    return observe_all()


def test_the_golden_names_its_commit_and_covers_both_runs(golden):
    assert len(golden["recorded_on"]) == 40
    assert sorted(k for k in golden if k != "recorded_on") == sorted(ROWS)
    for row in ROWS:
        assert len(golden[row]["shards"]) == NPROCS
        assert len(golden[row]["flushes"]) > 2
        assert {kind: len(entries) for kind, entries
                in golden[row]["corpus"].items()} == {
            "trace": 26, "salvage": 26, "replay": 26, "frames": 23,
            "store": 18}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_every_container_but_the_checkpoint_is_byte_identical(
        row, golden, observed):
    want, got = golden[row], observed[row]
    for name in ("trace", "shards", "flushes", "frames", "manifest",
                 "index"):
        assert got[name] == want[name], (row, name)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_every_corpus_entry_raises_its_recorded_error(row, golden,
                                                      observed):
    want = {kind: dict(entries) for kind, entries
            in golden[row]["corpus"].items()}
    for desc, by_kind in ADDED.items():
        for kind, error in by_kind.items():
            want[kind][desc] = error
    assert observed[row]["corpus"] == want


@pytest.mark.parametrize("row", sorted(ROWS))
def test_the_recorded_checkpoint_is_refused_by_name(row, golden, observed):
    """The recording commit's checkpoint kept its header outside every
    CRC (version 2); today's is a CRC'd header section ahead of the
    flush record, and the old one is refused by version.  Both hold the
    same fold, though not cut into the same parts: the recording
    commit's fold kept every part it received, today's sends each
    stream as one."""
    old = bytes.fromhex(golden[row]["checkpoint"])
    with pytest.raises(UnsupportedVersionError) as ei:
        TenantFold.from_bytes(old)
    assert (ei.value.found, ei.value.expected) == (2, 3) \
        == (old[4], CHECKPOINT.version)
    new = bytes.fromhex(observed[row]["checkpoint"])
    assert new != old
    assert _fold_state(old[old.index(b"PPRT"):]) == \
        _fold_state(CHECKPOINT.read(new).values[1])


def _fold_state(record: bytes) -> list:
    """Per rank, what a checkpoint's flush record says of the fold:
    signatures, counts, nanoseconds, calls and the expanded call and
    timing streams — not where its parts begin."""
    return [(p.rank, p.new_sigs, p.idx, p.d_counts, p.d_dur_ns, p.n_calls,
             [t for g in p.parts for t in g.expand()],
             *(g and g.expand() for g in (p.timing_duration,
                                          p.timing_interval)))
            for p in read_flush(record)]


if __name__ == "__main__":
    src = os.path.dirname(os.path.dirname(api.__file__))
    commit = subprocess.run(
        ["git", "-C", src, "rev-parse", "HEAD"], check=True,
        capture_output=True, text=True).stdout.strip()
    doc = dict(recorded_on=commit, **observe_all())
    out = sys.argv[1] if len(sys.argv) > 1 else GOLDEN
    with open(out, "w") as fh:  # one line per container of each run
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: " + (json.dumps(v) if not isinstance(v, dict)
                                   else "{\n" + ",\n".join(
                f"  {json.dumps(k2)}: {json.dumps(v[k2], sort_keys=True)}"
                for k2 in sorted(v)) + "\n}")
            for k, v in sorted(doc.items())) + "\n}\n")
    print(f"recorded {out} on {commit}")
