"""One workload's chain, measured inside one fresh process.

``run.py`` spawns this module once per workload (``PYTHONHASHSEED=0``,
``PYTHONPATH=src``).  Every workload runs the same chain through public
``repro`` functions only::

    api.trace(backend="null")            the untraced "application"
    api.trace(backend="pilgrim")         (or api.push to a live api.serve)
    TraceStore.put -> TraceStore.get
    TraceDecoder.from_bytes(...).all_terminals()
    api.replay                           directed, must not diverge

End-to-end numbers (``--trace 0``) come from passes with no spans.  With
``--trace 1`` each repeat runs the null stage, one untraced pass and one
traced pass of the same chain; the traced pass records a span from this
file around each call into a layer, a timing proxy tracer splits the
produce stage into simulator / hot path / finalize, and off-chain probes
time what the chain cannot separate.  The spans are written through the
``repro.obs`` writers and the layer table is computed from that file
(``layers.py``).

The last line of standard output is one JSON document.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any, Optional

from repro import api
from repro.core.backends import make_tracer, register_backend
from repro.core.decoder import TraceDecoder
from repro.core.pipeline import tree_reduce
from repro.core.shard import merge_shards
from repro.ingest import (ChunkingTracer, FrameDecoder, IngestClient,
                          TenantFold)
from repro.ingest.protocol import encode_chunk
from repro.mpisim.hooks import TracerHooks
from repro.obs import (NULL_RECORDER, MetricsRegistry, SpanRecorder,
                       peak_rss_kb, write_chrome_trace, write_spans_jsonl)
from repro.store import TraceStore, apply_retention
from repro.workloads import make as make_workload

import layers
import spec

_pc = time.perf_counter

#: the pilgrim backend behind the timing proxy (traced passes only)
TIMED_BACKEND = "pilgrim+e2e-timer"
#: what ``calibrate()`` takes on this box when nothing disturbs it: every
#: reported time is scaled to a machine on which it takes exactly this
CALIBRATION_S = 0.0140


def calibrate() -> float:
    """Seconds for a fixed kernel of dict, list, tuple and int traffic
    that runs no ``repro`` code.  A slow phase of the host (README, noise
    protocol) slows it as much as it slows the chain, so the run's floor
    of it says how fast the machine was while the run measured."""
    tick = _pc()
    table: dict = {}
    total = 0
    pending = []
    for i in range(60000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        total += len(table)
        pending.append((key, total))
        if len(pending) > 64:
            pending = []
    return _pc() - tick


class HookTimer(TracerHooks):
    """Timing proxy owned by the benchmark: forwards every hook to the
    real tracer, accumulates wall time inside the per-call hooks and
    records it as ``core.hot``; ``on_run_end`` becomes ``core.finalize``.
    (``record_batch`` is not overridden: the base class unrolls it to
    ``on_call``, which is timed.)

    *nested* accumulates time the inner tracer spends calling back out
    of the hot path (the ingest client's sends); it is split off as
    ``ingest.send``.
    """

    def __init__(self, inner: TracerHooks, rec: SpanRecorder,
                 nested: Optional[SimpleNamespace] = None):
        self.inner = inner
        self.rec = rec
        self.nested = nested
        self.hot = 0.0

    def __getattr__(self, name: str) -> Any:
        # result, ranks, total_calls, config(): whatever callers read
        return getattr(self.inner, name)

    def on_run_start(self, sim) -> None:
        self.inner.on_run_start(sim)

    def on_call(self, rank, fname, args, t0, t1) -> None:
        tick = _pc()
        self.inner.on_call(rank, fname, args, t0, t1)
        self.hot += _pc() - tick

    def on_mem(self, rank, fname, args, result, t) -> None:
        tick = _pc()
        self.inner.on_mem(rank, fname, args, result, t)
        self.hot += _pc() - tick

    def on_run_end(self, sim) -> None:
        sent = self.nested.seconds if self.nested else 0.0
        self.rec.record("core.hot", dur_s=self.hot - sent, scope="core_hot")
        if self.nested:
            self.rec.record("ingest.send", dur_s=sent, scope="ingest")
        with self.rec.span("core.finalize", scope="core_finalize"):
            self.inner.on_run_end(sim)
            if self.nested:
                self.rec.record("ingest.send", scope="ingest",
                                dur_s=self.nested.seconds - sent)


@dataclass
class Pass:
    """What one chain pass leaves behind for checks and probes."""
    produced: list
    blobs: list
    calls: int
    backs: list
    decoded: list
    replays: list
    store: TraceStore
    times: dict = field(default_factory=dict)


class Chain:
    def __init__(self, wl: spec.Workload, seed: int, workdir: str):
        self.wl = wl
        self.units = wl.units(seed)
        self.options = api.TracerOptions(lossy_timing=wl.lossy_timing,
                                         batch_size=wl.batch_size)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self._roots = 0
        self.spans = SpanRecorder()
        register_backend(
            TIMED_BACKEND,
            lambda opts: HookTimer(make_tracer("pilgrim", opts), self.spans),
            replace=True)
        self.attempted = 0
        self.failed = 0
        self.calls = 0
        #: ``calibrate()`` samples taken between the passes of every repeat
        self.calibration: list = []
        #: the first pass's traces: every later pass must repeat them
        self.reference: Optional[list] = None
        self.whatif_report: Optional[str] = None
        self.server = None
        if wl.push:
            self.server = api.serve(
                store_dir=os.path.join(workdir, "server-store"))
            # the in-process traces every pushed fold must equal
            self.reference = [self._trace(u, self.options).trace_bytes
                              for u in self.units]

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- checks ------------------------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED CHECK [{self.wl.name}]: {what}", file=sys.stderr)

    def verify(self, p: Pass) -> None:
        """Every correctness check of one pass, one count per trace."""
        for i, u in enumerate(self.units):
            r = p.produced[i]
            self.check(p.backs[i] == p.blobs[i], f"{u.name}: get != put")
            self.check(p.decoded[i] == r.total_calls,
                       f"{u.name}: decoded {p.decoded[i]} calls, "
                       f"traced {r.total_calls}")
            self.check(p.replays[i].diverged is False,
                       f"{u.name}: directed replay diverged")
            if self.reference is not None:
                # same seed => same bytes; on push workloads the
                # reference is the in-process trace
                self.check(p.blobs[i] == self.reference[i],
                           f"{u.name}: trace bytes differ from reference")
        if self.reference is None:
            self.reference = p.blobs
        self.calls = p.calls

    # -- stages ------------------------------------------------------------------------

    def sample_speed(self) -> None:
        gc.collect()
        self.calibration.extend(calibrate() for _ in range(3))

    def speed(self) -> float:
        """Factor that scales this run's times to the reference machine."""
        return CALIBRATION_S / min(self.calibration)

    @contextmanager
    def stage(self, rec: SpanRecorder, name: str, scope: str):
        """One span, garbage of the stage before collected first (the
        collector itself stays enabled)."""
        with rec.span("gc", scope="harness"):
            gc.collect()
        with rec.span(name, scope=scope) as sp:
            yield sp

    def each(self, rec: SpanRecorder, times: dict, name: str, scope: str,
             fn, items, collect: bool = True) -> list:
        """One stage: ``fn(item)`` for every item under one span, each
        call timed on its own as ``times["<name>#<i>"]`` — the quiet
        gaps of this box are shorter than a whole stage."""
        out = []
        with (self.stage(rec, name, scope) if collect
              else rec.span(name, scope=scope)):
            for i, item in enumerate(items):
                tick = _pc()
                out.append(fn(item))
                times[f"{name}#{i}"] = _pc() - tick
        return out

    def _trace(self, u: spec.Unit, options, backend: str = "pilgrim"):
        return api.trace(u.family, u.nprocs, backend=backend,
                         options=options, seed=u.seed, params=dict(u.params))

    def null_pass(self, rec: SpanRecorder, times: dict) -> list:
        return self.each(rec, times, "null", "pair",
                         lambda u: self._trace(u, None, "null"), self.units)

    def _push(self, u: spec.Unit):
        return api.push(u.family, u.nprocs, port=self.server.port,
                        tenant=u.name, seed=u.seed, options=self.options,
                        chunk_calls=spec.INGEST_CHUNK_CALLS,
                        params=dict(u.params))

    def _push_traced(self, u: spec.Unit, rec: SpanRecorder):
        """What ``api.push`` does, opened up so the timing proxy fits
        between the simulator, the tracer and the client's sends."""
        client = IngestClient("127.0.0.1", self.server.port, u.name)
        send = SimpleNamespace(seconds=0.0)
        partials = []

        def emit(p) -> None:
            tick = _pc()
            client.send_partial(p)
            send.seconds += _pc() - tick
            partials.append(p)

        tracer = HookTimer(
            ChunkingTracer(emit, chunk_calls=spec.INGEST_CHUNK_CALLS),
            rec, nested=send)
        config = tracer.config()
        client.connect(u.nprocs, config)
        try:
            make_workload(u.family, u.nprocs, **dict(u.params)).run(
                seed=u.seed, tracer=tracer, noise=0.05)
            per_rank = [rc.streamed_calls for rc in tracer.ranks]
            with rec.span("ingest.finish", scope="ingest"):
                blob = client.finish(per_rank)
        finally:
            client.close()
        return SimpleNamespace(trace_bytes=blob, total_calls=sum(per_rank),
                               per_rank=per_rank, partials=partials,
                               config=config, reconnects=client.reconnects)

    def _producer(self, rec: SpanRecorder):
        """How one unit's trace is produced in this kind of pass."""
        if not self.wl.push:
            backend = TIMED_BACKEND if rec.enabled else "pilgrim"
            return lambda u: self._trace(u, self.options, backend)
        if rec.enabled:
            return lambda u: self._push_traced(u, rec)
        return self._push

    def fresh_store(self) -> TraceStore:
        self._roots += 1
        return TraceStore(os.path.join(self.workdir, f"store-{self._roots}"))

    def archive(self, rec: SpanRecorder, times: dict, blobs: list):
        """Cold put, then verified get, of every trace in a fresh root."""
        store = self.fresh_store()
        puts = self.each(rec, times, "store.put", "store",
                         lambda ub: store.put(ub[1], ub[0].family),
                         zip(self.units, blobs))
        backs = self.each(rec, times, "store.get", "store",
                          lambda p: store.get(p.run_id), puts)
        return store, backs

    def decode(self, rec: SpanRecorder, times: dict, blobs: list,
               collect: bool = True) -> list:
        """Parse, then expand; returns the calls found per trace."""
        decoders = self.each(rec, times, "decode.parse", "decoder",
                             TraceDecoder.from_bytes, blobs, collect)
        return self.each(rec, times, "decode.expand", "decoder",
                         lambda d: sum(map(len, d.all_terminals())),
                         decoders, collect)

    def chain_pass(self, rec: SpanRecorder = NULL_RECORDER) -> Pass:
        """produce -> put -> get -> decode -> replay."""
        times: dict = {}
        produced = self.each(rec, times, "produce", "mpisim",
                             self._producer(rec), self.units)
        blobs = [r.trace_bytes for r in produced]
        store, backs = self.archive(rec, times, blobs)
        decoded = self.decode(rec, times, backs)
        replays = self.each(rec, times, "replay", "replay", api.replay,
                            backs)
        return Pass(produced=produced, blobs=blobs,
                    calls=sum(r.total_calls for r in produced),
                    backs=backs, decoded=decoded, replays=replays,
                    store=store, times=times)

    def drop(self, store: TraceStore) -> None:
        shutil.rmtree(store.root, ignore_errors=True)

    # -- end to end (--trace 0) ----------------------------------------------------------

    def repeat(self) -> dict:
        """One untraced repeat: the null stage, the chain pass right
        after it, then ``k_decode`` more decodes, each trace keeping its
        least time.  Returns the seconds of everything timed."""
        self.sample_speed()
        times: dict = {}
        self.null_pass(NULL_RECORDER, times)
        p = self.chain_pass()
        self.verify(p)
        self.drop(p.store)
        times.update(p.times)
        self.sample_speed()
        again: dict = {}
        for _ in range(self.wl.k_decode):
            self.decode(NULL_RECORDER, again, p.blobs, collect=False)
            times.update({k: min(times[k], v) for k, v in again.items()})
        return times

    def end_to_end(self, times: dict) -> dict:
        """The end-to-end metrics of one repeat's (or the floor's)
        seconds.  The counts come from the reference pass, which every
        pass repeats exactly or fails its checks."""
        stage = layers.stage_seconds(times)
        calls = self.calls
        return {
            "chain_s": sum(stage[name] for name in layers.CHAIN_STAGES),
            "tracer_us_per_call":
                (stage["produce"] - stage["null"]) * 1e6 / calls,
            "trace_bytes": sum(map(len, self.reference)),
            "decode_calls_per_s":
                calls / (stage["decode.parse"] + stage["decode.expand"]),
            "replay_calls_per_s": calls / stage["replay"],
        }

    # -- per layer (--trace 1) -----------------------------------------------------------

    def traced_repeat(self, index: int) -> None:
        rec = self.spans
        with rec.span("pass", scope="pair", index=index) as root:
            self.sample_speed()
            nulls = self.null_pass(rec, {})
            plain = self.chain_pass()
            self.verify(plain)
            self.drop(plain.store)
            self.sample_speed()
            rec.record("chain.untraced", scope="pair",
                       dur_s=sum(plain.times.values()),
                       **{f"plain.{k}": v for k, v in plain.times.items()})
            with rec.span("chain", scope="chain"):
                p = self.chain_pass(rec)
            self.verify(p)
            self.sample_speed()
            self.probes(rec, p)
            sizes = [TraceDecoder.from_bytes(b).trace for b in p.blobs]
            sections = [t.section_sizes() for t in sizes]
            root.attrs.update(
                units=len(self.units), calls=p.calls,
                sched_steps=sum(r.run.steps for r in nulls),
                signatures=sum(len(t.cst) for t in sizes),
                unique_grammars=sum(t.cfg.n_unique for t in sizes),
                cst_bytes=sum(s.get("cst", 0) for s in sections),
                cfg_bytes=sum(s.get("cfg", 0) for s in sections),
                timing_bytes=sum(v for s in sections
                                 for k, v in s.items()
                                 if k.startswith("timing")))
            self.drop(p.store)

    def probes(self, rec: SpanRecorder, p: Pass) -> None:
        """Off-chain timings of what the chain pass cannot separate."""
        if not self.wl.push:
            with self.stage(rec, "probe.freeze", "probe"):
                shards = [[rc.freeze() for rc in r.tracer.ranks]
                          for r in p.produced]
            with self.stage(rec, "probe.reduce", "probe"):
                for per_rank in shards:
                    tree_reduce(per_rank, merge_shards)

        cold = p.store.dedup_stats()
        with self.stage(rec, "probe.put_warm", "probe") as sp:
            warm = [p.store.put(b, u.family).record
                    for u, b in zip(self.units, p.blobs)]
        sp.attrs.update(
            reused_bytes=sum(r.reused_bytes for r in warm),
            total_bytes=sum(r.total_bytes for r in warm),
            stored_bytes=cold.stored_bytes,
            logical_bytes=cold.logical_bytes)
        with self.stage(rec, "probe.gc", "probe"):
            kept = apply_retention(p.store, keep_last=1)
        self.check(kept.gc.conserved, "store gc: refcounts not conserved")

        for u, blob in zip(self.units, p.blobs):
            if u.family == spec.WHATIF_FAMILY:
                with self.stage(rec, "probe.whatif", "probe"):
                    what = api.replay(blob, options=api.ReplayOptions(
                        net=spec.WHATIF_NET))
                report = json.dumps(what.report_dict(), sort_keys=True)
                if self.whatif_report is None:
                    self.whatif_report = report
                self.check(report == self.whatif_report,
                           "what-if report differs between repeats")
                break

        observed = replace(self.options, metrics=MetricsRegistry())
        with self.stage(rec, "probe.obs_on", "probe") as sp:
            on = [self._trace(u, observed) for u in self.units]
        sp.attrs["obs_spans"] = sum(len(r.spans) for r in on)
        for r, ref in zip(on, self.reference):
            self.check(r.trace_bytes == ref,
                       "trace bytes change with metrics on")
        if self.wl.push:
            # the chain produced by push: pair obs-on with an
            # in-process produce
            with self.stage(rec, "probe.obs_off", "probe"):
                for u in self.units:
                    self._trace(u, self.options)
            self.ingest_probes(rec, p)

    def ingest_probes(self, rec: SpanRecorder, p: Pass) -> None:
        chunks = [[q.to_bytes() for q in r.partials] for r in p.produced]
        with self.stage(rec, "probe.frame", "probe") as sp:
            for blobs in chunks:
                dec = FrameDecoder()
                for seq, blob in enumerate(blobs):
                    dec.feed(encode_chunk(seq, blob))
                    for _ in dec.frames():
                        pass
        sp.attrs.update(
            chunks=sum(map(len, chunks)),
            bytes_sent=sum(len(b) for blobs in chunks for b in blobs),
            reconnects=sum(r.reconnects for r in p.produced))
        with self.stage(rec, "probe.fold", "probe"):
            folds = []
            for u, r, blobs in zip(self.units, p.produced, chunks):
                fold = TenantFold(u.name, u.nprocs, r.config)
                for blob in blobs:
                    fold.absorb_blob(blob)
                folds.append(fold)
        with self.stage(rec, "probe.fold_finish", "probe"):
            folded = [f.finish() for f in folds]
        for u, blob, ref in zip(self.units, folded, self.reference):
            self.check(blob == ref, f"{u.name}: local fold != reference")
        with self.stage(rec, "probe.ack", "probe"):
            for u, r, ref in zip(self.units, p.produced, self.reference):
                client = IngestClient("127.0.0.1", self.server.port,
                                      f"ack-{u.name}", window=0)
                client.connect(u.nprocs, r.config)
                try:
                    for q in r.partials:
                        with rec.span("ack", scope="ingest"):
                            client.send_partial(q)
                    blob = client.finish(r.per_rank)
                finally:
                    client.close()
                self.check(blob == ref,
                           f"{u.name}: window=0 push != reference")

    def write_spans(self, out_dir: str) -> str:
        """Chrome-trace JSON and JSONL through the ``repro.obs`` writers;
        returns the JSONL path the layer table is computed from."""
        os.makedirs(out_dir, exist_ok=True)
        spans = self.spans.export()
        meta = {"workload": self.wl.name, "benchmark": "e2e"}
        write_chrome_trace(
            os.path.join(out_dir, f"{self.wl.name}.trace.json"), spans,
            meta=meta)
        path = os.path.join(out_dir, f"{self.wl.name}.spans.jsonl")
        write_spans_jsonl(path, spans, meta=meta)
        return path


def summarize(value: float, samples: list) -> dict:
    """The reported value of one metric next to the median, quartiles
    and count of its per-repeat samples."""
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (samples[0],) * 3)
    return {"value": value, "median": statistics.median(samples),
            "q1": q1, "q3": q3, "n": len(samples)}


def run_repeats(one, seconds: float, min_repeats: int) -> int:
    """Call ``one(i)`` at least *min_repeats* times, then for as long as
    another repeat still fits in *seconds*."""
    start = _pc()
    done = 0
    while True:
        tick = _pc()
        one(done)
        done += 1
        now = _pc()
        if done >= min_repeats and now - start + (now - tick) > seconds:
            return done


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-repeats", type=int, required=True,
                    help="0 = set-up only: exit after the warm-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="launcher's time.time() just before the spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    wl = spec.BY_NAME[args.workload]
    chain = Chain(wl, args.seed, args.workdir)
    try:
        chain.repeat()                               # the warm-up repeat
        setup_s = time.time() - args.t0
        repeats = 0
        if args.trace:
            repeats = run_repeats(chain.traced_repeat, args.seconds,
                                  args.min_repeats)
            passes, counts, acks = layers.pass_records(
                chain.write_spans(args.out))
            speed = chain.speed()
            acks = [a * speed for a in acks]
            value = layers.layer_metrics(
                layers.scaled(layers.floor(passes), speed), counts, acks)
            rows = [layers.layer_metrics(layers.scaled(t, speed), counts,
                                         acks) for t in passes]
            unattributed = value["unattributed_fraction"]
            chain.check(unattributed <= spec.MAX_UNATTRIBUTED,
                        f"unattributed_fraction {unattributed:.4f} > "
                        f"{spec.MAX_UNATTRIBUTED}")
            value["harness.calibration_ms"] = min(chain.calibration) * 1e3
            value["failed_fraction"] = chain.failed / chain.attempted
        elif args.min_repeats:
            timed: list = []
            repeats = run_repeats(lambda i: timed.append(chain.repeat()),
                                  args.seconds, args.min_repeats)
            speed = chain.speed()
            value = chain.end_to_end(
                layers.scaled(layers.floor(timed), speed))
            rows = [chain.end_to_end(layers.scaled(t, speed))
                    for t in timed]
            value["peak_rss_mb"] = peak_rss_kb() / 1024
        else:
            value, rows = {}, []
        if not args.trace:
            value["setup_s"] = setup_s
        # measured once per process: the value is its own only sample
        metrics = {name: summarize(v, [r[name] for r in rows if name in r]
                                   or [v])
                   for name, v in value.items()}
    finally:
        chain.close()
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "repeats": repeats, "attempted": chain.attempted,
        "failed": chain.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
