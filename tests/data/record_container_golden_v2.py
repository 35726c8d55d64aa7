"""The script that recorded ``container_golden.json``, as it was then.

It ran against the commit the golden names (``recorded_on``), whose fuzz
corpora lived in four modules — ``repro.core.fuzz``,
``repro.ingest.fuzz``, ``repro.store.fuzz`` and the replay entry point —
since merged into ``repro.fuzz``.  It is kept verbatim so that the
recording can be repeated from that commit::

    PYTHONPATH=<checkout at recorded_on>/src \
        python tests/data/record_container_golden_v2.py OUT.json

and ``OUT.json`` compared with the committed file byte for byte.  A
checkout that has ``repro.fuzz`` re-records with
``tests/test_container_golden.py`` instead, which reads the same corpora
through the merged driver.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

from repro import api
from repro.core.backends import TracerOptions
from repro.core.errors import TraceFormatError
from repro.core.fuzz import _deep_decode, corpus_mutations
from repro.core.shard import write_flush
from repro.ingest.aggregator import TenantFold
from repro.ingest.client import ChunkingTracer
from repro.ingest.fuzz import (build_frame_corpus, corpus_frame_mutations,
                               decode_stream)
from repro.ingest.session import TenantState
from repro.replay.engine import replay_trace
from repro.store import TraceStore
from repro.store.fuzz import _exercise, corpus_manifest_mutations
from repro.workloads import make

GOLDEN = os.path.join(os.path.dirname(__file__), "container_golden.json")
ROWS = {"stencil2d/4/aggregate": ("stencil2d", False),
        "npb_is/4/lossy": ("npb_is", True)}
NPROCS = 4
CHUNK_CALLS = 16


def _pin(blob: bytes) -> list:
    return [hashlib.sha256(blob).hexdigest(), len(blob)]


def _corpus(corpus, exercise) -> dict:
    """Each corpus entry's error class name, or ``ok``."""
    out = {}
    for desc, blob in corpus:
        try:
            exercise(blob)
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
    frames = build_frame_corpus(workload, NPROCS, seed=1,
                                chunk_calls=CHUNK_CALLS, lossy_timing=lossy)
    with tempfile.TemporaryDirectory() as root:
        store = TraceStore(root)
        record = store.put(trace, workload).record
        with open(os.path.join(root, "index.bin"), "rb") as fh:
            index = fh.read()
        store_corpus = _corpus(corpus_manifest_mutations(record),
                               lambda b: _exercise(store, b))
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
            "trace": _corpus(corpus_mutations(trace), _deep_decode),
            "salvage": _corpus(corpus_mutations(trace),
                               lambda b: _deep_decode(b, salvage=True)),
            "replay": _corpus(corpus_mutations(trace), replay_trace),
            "frames": _corpus(corpus_frame_mutations(frames), decode_stream),
            "store": store_corpus,
        },
    }


if __name__ == "__main__":
    src = os.path.dirname(os.path.dirname(api.__file__))
    commit = subprocess.run(
        ["git", "-C", src, "rev-parse", "HEAD"], check=True,
        capture_output=True, text=True).stdout.strip()
    doc = dict(recorded_on=commit,
               **{row: observe_row(*args) for row, args in ROWS.items()})
    out = sys.argv[1] if len(sys.argv) > 1 else GOLDEN
    with open(out, "w") as fh:  # one line per container of each run
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: " + (json.dumps(v) if not isinstance(v, dict)
                                   else "{\n" + ",\n".join(
                f"  {json.dumps(k2)}: {json.dumps(v[k2], sort_keys=True)}"
                for k2 in sorted(v)) + "\n}")
            for k, v in sorted(doc.items())) + "\n}\n")
    print(f"recorded {out} on {commit}")
