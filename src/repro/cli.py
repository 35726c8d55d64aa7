"""Command-line interface: ``python -m repro <command>``.

The workflows a downstream user actually runs:

* ``trace``    — run a workload under a tracer backend, write the trace
* ``store``    — the content-addressed cross-run trace store
  (``put``/``get``/``ls``/``diff``/``drift``/``pin``/``gc``/``stats``)
* ``verify``   — differential lossless round-trip check on workload(s)
* ``faults``   — describe fault plans / run the chaos recovery matrix
* ``fuzz``     — corruption-fuzz every container reader (structured
  errors only)
* ``info``     — summarize a trace file (sizes, signatures, grammars)
* ``dump``     — decode a trace to flat text (or OTF-style events)
* ``replay``   — re-execute a trace, as recorded or under what-if
  conditions (``--net``/``--fault-plan``/``--extrapolate-ranks``) with
  a first-divergence report; exit 0 = matched, 1 = diverged, 2 = error
* ``miniapp``  — generate a proxy mini-app from a trace
* ``bench``    — run registered microbenchmarks, optionally gating a
  stored baseline (``--compare ... --max-regression PCT``)
* ``compare``  — Pilgrim vs the ScalaTrace baseline on one workload
* ``stats``    — render a ``--metrics`` JSONL dump as paper-style tables
  (``--spans`` adds the span tree with per-span total/self time)
* ``timeline`` — validate a Chrome trace-event file, or convert a span
  JSONL dump into one
* ``workloads``— list available workloads
* ``backends`` — list registered tracer backends
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import api
from .analysis import fmt_kb, print_table, run_experiment
from .core import (TraceFormatError, TracerOptions, available_backends,
                   make_tracer)
from .core.export import to_text, write_otf_text
from .core.trace_format import section_sizes
from .obs import EventLog, MetricsRegistry, write_metrics_jsonl
from .replay import generate_miniapp, replay_trace, structurally_equal
from .resilience import FaultPlan
from .workloads import REGISTRY


def _parse_params(pairs: list[str]) -> dict:
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --param {pair!r}; expected key=value")
        k, v = pair.split("=", 1)
        try:
            out[k] = int(v)
        except ValueError:
            out[k] = v
    return out


def _fault_plan_arg(args):
    """The --fault-plan/--fault-seed pair as a parsed FaultPlan (None
    when injection was not requested)."""
    if not getattr(args, "fault_plan", None):
        return None
    return FaultPlan.parse(args.fault_plan,
                           seed=getattr(args, "fault_seed", 0))


def cmd_trace(args) -> int:
    # span telemetry rides the metrics registry, so --timeline/--spans
    # imply an enabled registry even without a --metrics dump path
    want_telemetry = bool(args.metrics or args.timeline or args.spans)
    metrics = MetricsRegistry() if want_telemetry else None
    events = EventLog() if args.events else None
    result = api.trace(
        args.workload, args.procs, backend=args.backend, seed=args.seed,
        params=_parse_params(args.param), events=events,
        fault_plan=_fault_plan_arg(args),
        options=TracerOptions(
            lossy_timing=args.lossy_timing, metrics=metrics))
    r = result.result
    result.write(args.output)
    manifest_path = f"{args.output}.manifest.json"
    detail = "".join(
        f", {getattr(r, attr)} {label}"
        for attr, label in (("n_signatures", "signatures"),
                            ("n_unique_grammars", "unique grammars"))
        if hasattr(r, attr))
    print(f"traced {args.workload} on {args.procs} ranks with "
          f"{args.backend}: {r.total_calls} calls{detail}")
    print(f"wrote {r.trace_size} bytes to {args.output} "
          f"(manifest: {manifest_path})")
    if result.fired_faults:
        print(f"injected {len(result.fired_faults)} fault(s): "
              + ", ".join(result.fired_faults))
    if result.degraded:
        print(f"DEGRADED: {result.salvage.summary()}")
        if not args.allow_degraded:
            print("(pass --allow-degraded to accept a partial trace)")
            return 1
    if args.metrics:
        # one self-contained dump: metrics plus any captured events and
        # the run's span tree
        write_metrics_jsonl(args.metrics, metrics,
                            meta={"command": "trace",
                                  "workload": args.workload,
                                  "nprocs": args.procs,
                                  "seed": args.seed},
                            events=events.records() if events else None,
                            spans=result.spans or None)
        print(f"wrote metrics to {args.metrics} (render: "
              f"repro stats {args.metrics})")
    if args.timeline:
        n = result.write_timeline(args.timeline)
        print(f"wrote {n} timeline events to {args.timeline} "
              f"(open in Perfetto / chrome://tracing)")
    if args.spans:
        n = result.write_spans(args.spans)
        print(f"wrote {n} span lines to {args.spans} (render: "
              f"repro stats --spans {args.spans})")
    if events is not None and args.events != args.metrics:
        events.write(args.events)
        print(f"wrote {len(events)} runtime events to {args.events}"
              + (f" ({events.dropped} dropped)" if events.dropped else ""))
    return 0


def cmd_verify(args) -> int:
    """Differential round-trip verification of one or more workloads."""
    rows = []
    failed = False
    for name in args.workload:
        report = api.verify(name, args.procs, seed=args.seed,
                            options=TracerOptions(
                                lossy_timing=args.lossy_timing),
                            fault_plan=_fault_plan_arg(args),
                            allow_degraded=args.allow_degraded,
                            **_parse_params(args.param))
        status = "OK" if report.ok else "FAILED"
        if report.ok and "salvage_accounting" in report.checks:
            status = "OK (degraded)"
        rows.append((name, report.nprocs, report.total_calls,
                     fmt_kb(report.trace_bytes), status))
        if not report.ok:
            failed = True
            print(f"{name}: {report.summary()}")
            for m in report.mismatches:
                print(f"  {m}")
    print_table("lossless round-trip verification",
                ["workload", "ranks", "calls", "trace", "result"], rows)
    return 1 if failed else 0


def cmd_faults(args) -> int:
    """Describe fault plans and run the chaos recovery matrix."""
    from .resilience.chaos import run_fault_matrix
    plans = None
    if args.plan:
        plans = [FaultPlan.parse(p, seed=args.fault_seed)
                 for p in args.plan]
    elif args.plans:
        plans = [FaultPlan.random(args.plan_seed + i, nprocs=args.procs)
                 for i in range(args.plans)]
    if not args.chaos:
        # describe-only mode: print what each plan would inject
        if plans is None:
            raise SystemExit("repro faults: give PLAN strings, --plans N "
                             "to sample random plans, or --chaos to run "
                             "the recovery matrix")
        for plan in plans:
            print(plan.describe())
        return 0
    cases = run_fault_matrix(args.chaos, nprocs=args.procs,
                             n_plans=args.plans or 8, seed=args.seed,
                             base_plan_seed=args.plan_seed, plans=plans)
    for case in cases:
        print(case.describe())
    bad = [c for c in cases if not c.ok]
    recovered = sum(c.outcome == "recovered" for c in cases)
    degraded = sum(c.outcome == "degraded" for c in cases)
    print(f"chaos matrix: {len(cases)} cases, {recovered} recovered "
          f"byte-identical, {degraded} degraded with conserving salvage, "
          f"{len(bad)} FAILED")
    return 1 if bad else 0


def cmd_fuzz(args) -> int:
    """Corruption-fuzz every container reader (or the ``--target`` ones)
    against a freshly traced workload."""
    import tempfile

    from .fuzz import TARGETS, build_targets, run
    unknown = sorted(set(args.target or ()) - set(TARGETS))
    if unknown:
        raise SystemExit(f"repro fuzz: unknown target(s) {unknown}; choose "
                         f"from {', '.join(TARGETS)}")
    failed = False
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as root:
        targets = build_targets(args.workload, args.procs, root,
                                seed=args.seed, lossy=args.lossy_timing,
                                params=_parse_params(args.param))
        for name in args.target or TARGETS:
            report = run(targets[name], seed=args.fuzz_seed,
                         n_random=args.mutations)
            print(f"{args.workload} ({args.procs} ranks): {name}, "
                  f"{len(targets[name].blob)} bytes")
            print(report.summary())
            for failure in report.failures[:20]:
                print(f"  {failure}")
            failed |= not report.ok
    return 1 if failed else 0


def cmd_serve(args) -> int:
    """Run the streaming trace-ingest service in the foreground."""
    import asyncio

    from .ingest.server import IngestServer

    store = api.store(args.store) if args.store else None
    server = IngestServer(args.host, args.port,
                          checkpoint_dir=args.checkpoint_dir,
                          checkpoint_every=args.checkpoint_every,
                          store=store)

    async def _run() -> None:
        await server.start()
        # flushed immediately so scripts (and the CI smoke job) can
        # scrape the bound port from the first line of output
        print(f"repro ingest listening on {server.host}:{server.port}",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro ingest: shutting down")
    return 0


def cmd_push(args) -> int:
    """Trace a workload locally, streaming partial shards to a server."""
    res = api.push(args.workload, args.procs,
                   host=args.host, port=args.port, tenant=args.tenant,
                   seed=args.seed,
                   options=TracerOptions(lossy_timing=args.lossy_timing),
                   chunk_calls=args.chunk_calls,
                   params=_parse_params(args.param))
    print(f"{args.workload} ({args.procs} ranks, tenant {args.tenant!r}): "
          f"{res.total_calls} calls in {res.chunks_sent} chunks "
          f"({res.partials_sent} partials) -> "
          f"{res.trace_size} byte trace"
          + (f", {res.reconnects} reconnects" if res.reconnects else ""))
    if args.check:
        ref = api.trace(args.workload, args.procs, seed=args.seed,
                        params=_parse_params(args.param),
                        options=TracerOptions(
                            lossy_timing=args.lossy_timing)).trace_bytes
        ok = ref == res.trace_bytes
        print("byte-identity vs in-process run: "
              + ("OK" if ok else "FAILED"))
        if not ok:
            return 1
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(res.trace_bytes)
        print(f"wrote {args.output}")
    return 0


def cmd_store(args) -> int:
    """The content-addressed cross-run trace store."""
    st = api.store(args.root)
    verb = args.store_verb
    if verb == "put":
        with open(args.trace, "rb") as fh:
            blob = fh.read()
        put = st.put(blob, args.workload, tenant=args.tenant)
        if args.json:
            print(json.dumps({
                "run_id": put.run_id,
                "workload": put.record.workload,
                "sections": len(put.record.sections),
                "total_bytes": put.record.total_bytes,
                "new_bytes": put.record.new_bytes,
                "reused_bytes": put.record.reused_bytes,
                "reused_fraction": round(put.record.reused_fraction, 4),
            }, indent=2, sort_keys=True))
        else:
            print(put.summary())
        return 0
    if verb == "get":
        blob = st.get(args.ref, verify=not args.no_verify)
        if args.output:
            with open(args.output, "wb") as fh:
                fh.write(blob)
            print(f"wrote {len(blob)} bytes to {args.output}")
        else:
            sys.stdout.buffer.write(blob)
        return 0
    if verb == "ls":
        records = st.ls(args.workload)
        if args.json:
            print(json.dumps([
                {"run_id": r.run_id, "workload": r.workload,
                 "tenant": r.tenant, "nprocs": r.nprocs,
                 "parent": r.parent or None,
                 "golden": st.index.golden(r.workload) == r.run_id,
                 "total_bytes": r.total_bytes,
                 "reused_fraction": round(r.reused_fraction, 4)}
                for r in records], indent=2, sort_keys=True))
        elif records:
            print_table(
                f"trace store {st.root}",
                ["run", "workload", "ranks", "bytes", "dedup", "golden"],
                [(r.run_id, r.workload, r.nprocs, fmt_kb(r.total_bytes),
                  f"{100 * r.reused_fraction:.0f}%",
                  "*" if st.index.golden(r.workload) == r.run_id else "")
                 for r in records])
        else:
            print(f"trace store {st.root}: no runs")
        return 0
    if verb == "diff":
        # exit status follows GNU diff: 0 identical, 1 drifted
        diff = st.diff(args.ref_a, args.ref_b)
        if args.json:
            print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
        else:
            print(diff.summary())
            for e in diff.drifted:
                print(f"  {e.kind:8s} {e.name} "
                      f"({e.a_size} -> {e.b_size} bytes)")
        return 0 if diff.identical else 1
    if verb == "drift":
        pairs = st.drifted(args.workload)
        if args.json:
            print(json.dumps([d.as_dict() for _, d in pairs],
                             indent=2, sort_keys=True))
        else:
            for _, diff in pairs:
                print(diff.summary())
            if not pairs:
                print(f"{args.workload}: no runs besides the golden")
        return 1 if any(not d.identical for _, d in pairs) else 0
    if verb == "pin":
        workload = st.pin_golden(args.run_id)
        print(f"pinned {args.run_id} as golden for {workload!r}")
        return 0
    if verb == "gc":
        from .store import apply_retention, gc
        if args.keep_last:
            report = apply_retention(st, args.keep_last,
                                     workload=args.workload)
            doc = report.as_dict()
            gc_report = report.gc
        else:
            gc_report = gc(st, repair=args.repair)
            doc = gc_report.as_dict()
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            if args.keep_last:
                print(f"retention: kept {report.kept_runs} runs, "
                      f"deleted {len(report.deleted_runs)}")
            print(gc_report.summary())
        return 0 if gc_report.conserved else 1
    if verb == "stats":
        stats = st.dedup_stats(args.workload)
        objs = st.objects.stats()
        if args.json:
            doc = stats.as_dict()
            doc["objects"] = {"count": objs.objects, "bytes": objs.bytes,
                              "refs": objs.refs}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print_table(
                f"trace store {st.root}"
                + (f" (workload {args.workload})" if args.workload else ""),
                ["metric", "value"],
                [("runs", stats.runs),
                 ("logical bytes", fmt_kb(stats.logical_bytes)),
                 ("stored bytes", fmt_kb(stats.stored_bytes)),
                 ("dedup ratio", f"{stats.ratio:.2f}x"),
                 ("objects", objs.objects),
                 ("object refs", objs.refs)])
        return 0
    raise SystemExit(f"repro store: unknown verb {verb!r}")


def cmd_info(args) -> int:
    blob = open(args.trace, "rb").read()
    dec = api.decode(blob, salvage=args.salvage)
    if dec.salvage is not None:
        print(f"note: {dec.salvage.summary()}")
    # a salvaged trace's sizes are those of what was recovered
    sizes = section_sizes(blob) if dec.salvage is None \
        else dec.trace.section_sizes()
    hist = dict(sorted(dec.function_histogram().items(),
                       key=lambda kv: -kv[1]))
    if args.json:
        print(json.dumps({
            "trace": args.trace,
            "ranks": dec.nprocs,
            "total_calls": dec.call_count(),
            "signatures": len(dec.trace.cst.sigs),
            "unique_grammars": dec.trace.cfg.n_unique,
            "section_bytes": dict(sizes),
            "total_bytes": len(blob),
            "calls_per_function": hist,
        }, indent=2, sort_keys=True))
        return 0
    print_table(f"trace {args.trace}",
                ["field", "value"],
                [("ranks", dec.nprocs),
                 ("total calls", dec.call_count()),
                 ("signatures", len(dec.trace.cst.sigs)),
                 ("unique grammars", dec.trace.cfg.n_unique),
                 *[(f"section {k}", fmt_kb(v)) for k, v in sizes.items()]])
    print_table("calls per function", ["function", "count"],
                list(hist.items()))
    return 0


def cmd_dump(args) -> int:
    blob = open(args.trace, "rb").read()
    ranks = [int(r) for r in args.rank] if args.rank else None
    if args.otf:
        sys.stdout.write(write_otf_text(blob, ranks))
    else:
        sys.stdout.write(to_text(blob, ranks=ranks,
                                 max_calls_per_rank=args.limit))
    return 0


def cmd_replay(args) -> int:
    """Re-execute a trace, optionally under what-if conditions.

    Exit status follows the GNU diff convention: 0 = replay matched the
    record (no divergence), 1 = diverged, 2 = error (unreadable trace,
    bad option spec, unreplayable stream).
    """
    from .replay import ReplayOptions, run_divergence
    try:
        blob = open(args.trace, "rb").read()
    except OSError as e:
        print(f"repro replay: cannot open {args.trace}: "
              f"{e.strerror or e}", file=sys.stderr)
        return 2
    try:
        if args.check:
            # legacy fixed-point mode: re-trace the replay, compare blobs
            tracer = make_tracer("pilgrim")
            result = replay_trace(blob, seed=args.seed, tracer=tracer)
            print(f"replayed {result.nprocs} ranks, virtual makespan "
                  f"{result.app_time * 1e3:.3f} ms")
            ok = structurally_equal(blob, tracer.result.trace_bytes)
            print(f"structural fixed point: {'OK' if ok else 'FAILED'}")
            return 0 if ok else 1
        opts = ReplayOptions(
            seed=args.seed, noise=args.noise, net=args.net,
            fault_plan=args.fault_plan or None,
            fault_seed=args.fault_seed,
            extrapolate_ranks=args.extrapolate_ranks,
            spans=bool(args.spans))
        res = run_divergence(blob, opts)
    except (TraceFormatError, ValueError) as e:
        print(f"repro replay: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    if args.report:
        res.write_report(args.report)
    if args.spans:
        res.write_spans(args.spans)
    if args.json:
        print(json.dumps(res.report_dict(), indent=2, sort_keys=True))
    else:
        mode = "what-if" if opts.what_if else "directed"
        print(f"replayed {res.nprocs} ranks ({mode}), virtual makespan "
              f"{res.run.app_time * 1e3:.3f} ms")
        for fired in res.fired_faults:
            print(f"  fault fired: {fired}")
        print(res.summary())
        for pt in res.report.points:
            print(f"  {pt.describe()}")
    return 1 if res.diverged else 0


def cmd_miniapp(args) -> int:
    blob = open(args.trace, "rb").read()
    source = generate_miniapp(blob)
    with open(args.output, "w") as fh:
        fh.write(source)
    print(f"wrote {len(source.splitlines())}-line mini-app to {args.output}")
    print(f"run it with: python {args.output}")
    return 0


def cmd_bench(args) -> int:
    """Run microbenchmarks from the ``repro.bench`` registry."""
    from . import bench
    if args.list:
        for name in bench.available_benchmarks():
            print(f"{name:10s} {bench.REGISTRY[name].description}")
        return 0
    names = args.benchmark or ["hotpath"]
    unknown = [n for n in names if n not in bench.REGISTRY]
    if unknown:
        raise SystemExit(f"repro bench: unknown benchmark(s) {unknown}; "
                         f"known: {bench.available_benchmarks()}")
    baseline = None
    if args.compare:
        with open(args.compare) as fh:
            try:
                baseline = json.load(fh)
            except ValueError as e:
                raise SystemExit(f"repro bench: {args.compare} is not a "
                                 f"benchmark JSON document ({e})")
    procs = args.procs if len(args.procs) > 1 else args.procs[0]
    if isinstance(procs, list) and names != ["finalize"]:
        raise SystemExit("repro bench: only finalize takes several -n")
    params: dict = {"nprocs": procs, "seed": args.seed}
    if args.families:
        params["families"] = args.families
    failed = False
    for name in names:
        doc = bench.run_benchmark(name, repeats=args.repeats,
                                  warmup=args.warmup, params=dict(params))
        paths = bench.write_results(doc, args.output_dir)
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print_table(
                f"benchmark {name} ({args.repeats} repeats, "
                f"{args.warmup} warmup)",
                ["metric", "median", "iqr"],
                [(m, f"{s['median']:.4g}", f"{s['iqr']:.3g}")
                 for m, s in doc["stats"].items()])
        print("wrote " + ", ".join(str(p) for p in paths))
        if baseline is not None:
            if baseline.get("benchmark") not in (None, name):
                print(f"note: baseline {args.compare} is for benchmark "
                      f"{baseline['benchmark']!r}")
            regressions, missing = bench.compare_results(
                doc, baseline, args.max_regression)
            for r in regressions:
                print(f"REGRESSION {r}")
            for m in missing:
                print(f"MISSING baseline metric {m} absent from this run")
            if regressions or missing:
                failed = True
            else:
                print(f"{name}: within {args.max_regression:g}% of "
                      f"{args.compare}")
    return 1 if failed else 0


def cmd_compare(args) -> int:
    metrics = MetricsRegistry() if args.metrics else None
    rows = [run_experiment(args.workload, P, seed=args.seed, baseline=False,
                           options=TracerOptions(metrics=metrics),
                           **_parse_params(args.param))
            for P in args.procs]
    if metrics is not None:
        write_metrics_jsonl(args.metrics, metrics,
                            meta={"command": "compare",
                                  "workload": args.workload,
                                  "procs": args.procs,
                                  "seed": args.seed})
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in rows],
                         indent=2, sort_keys=True))
        return 0
    print_table(
        f"{args.workload}: Pilgrim vs ScalaTrace baseline",
        ["procs", "MPI calls", "ScalaTrace", "Pilgrim", "ratio"],
        [(r.nprocs, r.mpi_calls, fmt_kb(r.scalatrace_size),
          fmt_kb(r.pilgrim_size),
          f"{r.scalatrace_size / max(r.pilgrim_size, 1):.1f}x")
         for r in rows])
    if metrics is not None:
        print(f"wrote metrics to {args.metrics} (render: "
              f"repro stats {args.metrics})")
    return 0


def cmd_timeline(args) -> int:
    """Validate a Chrome trace-event file, or convert a span JSONL dump
    into one."""
    from .obs import CHROME_TRACE_SCHEMA, validate_json, write_chrome_trace
    doc = None
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except ValueError:
        doc = None  # not one JSON document; try span JSONL below
    if isinstance(doc, dict) and "traceEvents" in doc:
        try:
            validate_json(doc, CHROME_TRACE_SCHEMA)
        except ValueError as e:
            print(f"repro timeline: {args.file} INVALID: {e}",
                  file=sys.stderr)
            return 1
        events = doc["traceEvents"]
        n_spans = sum(1 for e in events if e.get("ph") == "X")
        tracks = sorted({e.get("pid", 0) for e in events})
        print(f"{args.file}: valid Chrome trace-event JSON "
              f"({n_spans} spans on {len(tracks)} process track(s))")
        return 0
    from .obs import read_spans_jsonl
    spans = read_spans_jsonl(args.file)
    if not spans:
        print(f"repro timeline: no span records in {args.file} "
              f"(expected a --spans/--metrics JSONL dump or a Chrome "
              f"trace-event file)", file=sys.stderr)
        return 1
    out = args.output or f"{args.file}.trace.json"
    n = write_chrome_trace(out, spans)
    print(f"wrote {n} timeline events from {len(spans)} spans to {out} "
          f"(open in Perfetto / chrome://tracing)")
    return 0


def cmd_stats(args) -> int:
    from .analysis import render_spans, render_stats, summarize_metrics
    from .obs import read_metrics_jsonl
    records = []
    for path in args.file:
        try:
            records.extend(read_metrics_jsonl(path))
        except OSError as e:
            raise SystemExit(f"repro stats: cannot read {path}: "
                             f"{e.strerror or e}")
        except ValueError as e:
            raise SystemExit(f"repro stats: {path} is not metrics JSONL "
                             f"({e})")
    if not records:
        print("no metric or event records found")
        return 0
    summary = summarize_metrics(records)
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
        return 0
    render_stats(summary, source=", ".join(args.file),
                 top_events=args.events)
    if args.spans:
        render_spans(summary.spans)
    return 0


def cmd_analyze(args) -> int:
    from .analysis.insights import (call_time_share, comm_matrix,
                                    load_balance, message_size_histogram)
    blob = open(args.trace, "rb").read()
    mat = comm_matrix(blob)
    print_table("p2p traffic", ["metric", "value"],
                [("total messages", mat.total_messages),
                 ("total bytes", fmt_kb(mat.total_bytes))])
    if mat.total_messages:
        print_table("hottest pairs", ["src", "dst", "bytes"],
                    [(s_, d, fmt_kb(b))
                     for s_, d, b in mat.hottest_pairs(args.top)])
        print_table("message sizes (log2 buckets)", ["2^k bytes", "messages"],
                    list(message_size_histogram(blob).items()))
    print_table("call time share", ["function", "share"],
                [(f, f"{100 * v:.1f}%")
                 for f, v in list(call_time_share(blob).items())[:10]])
    lb = load_balance(blob)
    print_table("load balance", ["metric", "value"],
                [("imbalance (max/mean calls)", f"{lb.imbalance:.3f}"),
                 ("max rank calls", max(lb.per_rank_calls)),
                 ("min rank calls", min(lb.per_rank_calls))])
    return 0


def cmd_workloads(args) -> int:
    for name in sorted(REGISTRY):
        print(name)
    return 0


def cmd_backends(args) -> int:
    for name in available_backends():
        print(name)
    return 0


def _add_fault_flags(p) -> None:
    p.add_argument("--fault-plan", metavar="PLAN",
                   help="inject faults: 'kind@site[*times][:key=val];...' "
                        "e.g. 'kill@merge*2;corrupt@shard.freeze:rank=1' "
                        "(see repro faults)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for fault probability/byte-damage draws "
                        "(default 0)")
    p.add_argument("--allow-degraded", action="store_true",
                   help="accept a partial trace when recovery is "
                        "impossible (salvage report printed)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace",
                       help="run a workload under a tracer backend")
    p.add_argument("workload")
    p.add_argument("-n", "--procs", type=int, default=16)
    p.add_argument("-o", "--output", default="trace.pilgrim")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE")
    p.add_argument("--lossy-timing", action="store_true")
    p.add_argument("--backend", default="pilgrim",
                   choices=available_backends(),
                   help="tracer backend from the repro.core.backends "
                        "registry (default: pilgrim)")
    _add_fault_flags(p)
    p.add_argument("--metrics", metavar="FILE",
                   help="enable self-instrumentation; dump the metrics "
                        "registry (and events, if captured) as JSONL")
    p.add_argument("--events", metavar="FILE",
                   help="enable the runtime event log; dump it as JSONL")
    p.add_argument("--timeline", metavar="FILE",
                   help="export the run's span tree as Chrome "
                        "trace-event JSON (Perfetto / chrome://tracing); "
                        "implies span telemetry")
    p.add_argument("--spans", metavar="FILE",
                   help="dump the run's spans as JSONL (render: repro "
                        "stats --spans FILE); implies span telemetry")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("verify",
                       help="differentially verify lossless round-trips")
    p.add_argument("workload", nargs="+",
                   help="workload name(s) to trace and verify")
    p.add_argument("-n", "--procs", type=int, default=16)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE")
    p.add_argument("--lossy-timing", action="store_true")
    _add_fault_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("faults",
                       help="describe fault plans / run the chaos "
                            "recovery matrix")
    p.add_argument("plan", nargs="*",
                   help="fault plan string(s) to describe (or to use "
                        "for --chaos instead of random plans)")
    p.add_argument("--chaos", nargs="+", metavar="WORKLOAD",
                   help="run the recovery matrix on these workloads: "
                        "every plan must recover byte-identically or "
                        "degrade with a conserving salvage report")
    p.add_argument("-n", "--procs", type=int, default=8)
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed for --chaos (default 1)")
    p.add_argument("--plans", type=int, default=0, metavar="N",
                   help="number of random plans to sample (default 8 "
                        "for --chaos)")
    p.add_argument("--plan-seed", type=int, default=100,
                   help="base seed for random plan sampling (default 100)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for explicit PLAN strings (default 0)")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser("fuzz",
                       help="corruption-fuzz every container reader "
                            "(structured errors only, never a crash or a "
                            "silent difference)")
    p.add_argument("workload")
    p.add_argument("-n", "--procs", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fuzz-seed", type=int, default=0)
    p.add_argument("--mutations", type=int, default=400,
                   help="random mutations on top of the boundary set")
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE")
    p.add_argument("--lossy-timing", action="store_true")
    p.add_argument("--target", action="append", metavar="NAME",
                   help="fuzz only this reader (repeatable; default: "
                        "every one of repro.fuzz.TARGETS)")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("serve",
                       help="run the streaming trace-ingest service "
                            "(clients stream partial shards with "
                            "'repro push')")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = pick a free one; the bound port "
                        "is printed on the first line)")
    p.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                   help="persist per-tenant fold checkpoints here and "
                        "restore them on startup")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="CHUNKS",
                   help="checkpoint a tenant's fold every N absorbed "
                        "chunks — a chunk is one flush of the pushing "
                        "tracer, all its ranks' partials together "
                        "(0 = never; needs --checkpoint-dir)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="archive every completed fold into the trace "
                        "store at DIR (workload == tenant, so repeated "
                        "pushes dedup against each other)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("push",
                       help="trace a workload while streaming partial "
                            "shards to an ingest server")
    p.add_argument("workload")
    p.add_argument("-n", "--procs", type=int, default=8)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="the ingest server's port (printed by "
                        "'repro serve')")
    p.add_argument("--tenant", default="default",
                   help="tenant id isolating this stream's fold")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--chunk-calls", type=int, default=256,
                   metavar="CALLS",
                   help="flush every N traced calls, as one chunk "
                        "carrying each rank's partial shard "
                        "(1 streams per call)")
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE")
    p.add_argument("--lossy-timing", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="also run the same trace in-process and assert "
                        "the server fold is byte-identical")
    p.add_argument("-o", "--output", default=None,
                   help="write the folded trace here")
    p.set_defaults(fn=cmd_push)

    p = sub.add_parser("store",
                       help="the content-addressed cross-run trace "
                            "store (structural dedup, drift queries)")
    store_sub = p.add_subparsers(dest="store_verb", required=True)

    def _store_verb(name: str, help_: str, *, json_flag: bool = True):
        sp = store_sub.add_parser(name, help=help_)
        sp.add_argument("--root", metavar="DIR", default=None,
                        help="store root (default: $REPRO_STORE or "
                             ".repro-store)")
        if json_flag:
            sp.add_argument("--json", action="store_true",
                            help="machine-readable JSON output")
        sp.set_defaults(fn=cmd_store)
        return sp

    sp = _store_verb("put", "store a trace file as a run of a workload")
    sp.add_argument("trace", help="serialized trace file to store")
    sp.add_argument("-w", "--workload", required=True,
                    help="workload key the run belongs to (runs of the "
                         "same workload dedup against each other)")
    sp.add_argument("--tenant", default="default")

    sp = _store_verb("get", "reassemble a stored run's trace blob",
                     json_flag=False)
    sp.add_argument("ref", help="run id, WORKLOAD@latest, or "
                                "WORKLOAD@golden")
    sp.add_argument("-o", "--output", default=None,
                    help="write here (default: stdout)")
    sp.add_argument("--no-verify", action="store_true",
                    help="skip per-section integrity re-verification")

    sp = _store_verb("ls", "list stored runs")
    sp.add_argument("workload", nargs="?", default=None)

    sp = _store_verb("diff", "section-level diff of two runs "
                             "(exit 0 identical, 1 drifted)")
    sp.add_argument("ref_a")
    sp.add_argument("ref_b")

    sp = _store_verb("drift", "diff every run of a workload against "
                              "its golden run")
    sp.add_argument("workload")

    sp = _store_verb("pin", "pin a run as its workload's golden run",
                     json_flag=False)
    sp.add_argument("run_id")

    sp = _store_verb("gc", "sweep unreferenced blobs; audit refcount "
                           "conservation (exit 1 on mismatch)")
    sp.add_argument("--repair", action="store_true",
                    help="rewrite mismatched refcount sidecars to the "
                         "counts computed from the manifests")
    sp.add_argument("--keep-last", type=int, default=0, metavar="N",
                    help="first apply retention: keep each workload's "
                         "newest N runs (golden always kept)")
    sp.add_argument("--workload", default=None,
                    help="restrict --keep-last to one workload")

    sp = _store_verb("stats", "dedup ratio and object-store totals")
    sp.add_argument("workload", nargs="?", default=None)

    p = sub.add_parser("info", help="summarize a trace file")
    p.add_argument("trace")
    p.add_argument("--salvage", action="store_true",
                   help="best-effort parse of a damaged trace; prints "
                        "the salvage report")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of tables")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("dump", help="decode a trace to text")
    p.add_argument("trace")
    p.add_argument("--rank", action="append", default=[])
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--otf", action="store_true",
                   help="OTF-style ENTER/LEAVE events instead of calls")
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("replay",
                       help="re-execute a trace, as recorded or under "
                            "what-if conditions (exit 0 = matched, "
                            "1 = diverged, 2 = error)")
    p.add_argument("trace")
    p.add_argument("--seed", type=int, default=0,
                   help="replay simulator seed (completion-order RNG)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="compute-time noise std-dev during the replay")
    p.add_argument("--net", metavar="SPEC", default=None,
                   help="what-if network override, e.g. "
                        "alpha=1.5e-6,beta=3e-10[,overhead=..]")
    p.add_argument("--fault-plan", metavar="PLAN", default=None,
                   help="what-if fault injection, e.g. "
                        "'delay@sched*4:rank=2' (see 'repro faults')")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault plan (default 0)")
    p.add_argument("--extrapolate-ranks", type=int, default=None,
                   metavar="N",
                   help="replay on N ranks instead of the recorded "
                        "count (single-pattern SPMD traces only)")
    p.add_argument("--json", action="store_true",
                   help="print the divergence report as canonical JSON")
    p.add_argument("--report", metavar="FILE",
                   help="also write the JSON divergence report to FILE")
    p.add_argument("--spans", metavar="FILE",
                   help="record replay phase spans and write them as "
                        "JSONL to FILE (render with 'repro stats "
                        "--spans')")
    p.add_argument("--check", action="store_true",
                   help="legacy fixed-point mode: re-trace the replay "
                        "and compare trace bytes")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("miniapp", help="generate a proxy mini-app")
    p.add_argument("trace")
    p.add_argument("-o", "--output", default="miniapp.py")
    p.set_defaults(fn=cmd_miniapp)

    p = sub.add_parser("bench",
                       help="run microbenchmarks, optionally gating "
                            "against a stored baseline")
    p.add_argument("benchmark", nargs="*",
                   help="benchmark name(s); default: hotpath")
    p.add_argument("--list", action="store_true",
                   help="list registered benchmarks and exit")
    p.add_argument("--repeats", type=int, default=5,
                   help="timed repetitions per benchmark (default 5)")
    p.add_argument("--warmup", type=int, default=1,
                   help="untimed warmup repetitions (default 1)")
    p.add_argument("-n", "--procs", type=int, nargs="+", default=[8],
                   help="ranks (default 8; finalize takes several)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--families", nargs="+", metavar="NAME",
                   help="workload families (default: the 5-family "
                        "representative set; replay adds flash_cellular; "
                        "finalize takes NAME:KEY=VALUE,...)")
    p.add_argument("--output-dir", default="benchmarks/results",
                   help="where <name>.json lands (default "
                        "benchmarks/results); BENCH_<name>.json is "
                        "always written to the current directory")
    p.add_argument("--compare", metavar="BASELINE.json",
                   help="gate each benchmark's metrics against this "
                        "stored result document")
    p.add_argument("--max-regression", type=float, default=25.0,
                   metavar="PCT",
                   help="allowed slowdown over the baseline before "
                        "exiting nonzero (default 25)")
    p.add_argument("--json", action="store_true",
                   help="print the full result document instead of a "
                        "table")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("compare", help="Pilgrim vs the baseline")
    p.add_argument("workload")
    p.add_argument("-n", "--procs", type=int, nargs="+",
                   default=[8, 16, 32])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE")
    p.add_argument("--metrics", metavar="FILE",
                   help="profile both tracers; dump the shared registry "
                        "as JSONL")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON rows instead of a table")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("stats",
                       help="render a metrics/events JSONL dump")
    p.add_argument("file", nargs="+",
                   help="JSONL file(s) from --metrics/--events; several "
                        "files are aggregated")
    p.add_argument("--events", type=int, default=0, metavar="N",
                   help="also show the last N buffered runtime events")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON aggregate instead of tables")
    p.add_argument("--spans", action="store_true",
                   help="also render the span tree (total/self wall time "
                        "per span, worker spans tagged by pid)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("timeline",
                       help="validate a Chrome trace-event file or "
                            "convert a span JSONL dump into one")
    p.add_argument("file",
                   help="a --timeline Chrome trace JSON (validated) or "
                        "a --spans/--metrics JSONL dump (converted)")
    p.add_argument("-o", "--output", default=None,
                   help="output path for the converted Chrome trace "
                        "(default: FILE.trace.json)")
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser("analyze", help="post-mortem trace analysis")
    p.add_argument("trace")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("workloads", help="list available workloads")
    p.set_defaults(fn=cmd_workloads)

    p = sub.add_parser("backends", help="list registered tracer backends")
    p.set_defaults(fn=cmd_backends)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TraceFormatError as e:
        # corrupt/truncated/foreign trace file: a structured one-line
        # diagnosis, not a traceback
        print(f"repro: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # output piped into head/less that exited early; not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except OSError as e:
        if getattr(e, "filename", None):
            print(f"repro: cannot open {e.filename}: "
                  f"{e.strerror or e}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
