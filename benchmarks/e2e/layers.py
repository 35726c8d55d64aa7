"""The layer table, computed from the span file a traced run wrote.

A traced repeat is one ``pass`` span (``harness.traced_repeat``) holding
the ``null`` stage, a synthetic ``chain.untraced`` span, the ``chain``
span with one child per stage, and the off-chain ``probe.*`` spans.
Inside ``chain`` every span's ``scope`` names its layer; a layer's self
time is its spans' durations minus their children's, and the ``chain``
span's own self time is what no layer accounts for.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from repro.obs import build_span_tree, read_spans_jsonl, span_self_ns

import spec

#: stages of one chain pass, in order
CHAIN_STAGES = ("produce", "store.put", "store.get", "decode.parse",
                "decode.expand", "replay")
PROBES = ("probe.freeze", "probe.reduce", "probe.put_warm", "probe.gc",
          "probe.whatif", "probe.obs_on", "probe.obs_off", "probe.frame",
          "probe.fold", "probe.fold_finish")


def floor(times: list) -> dict:
    """The least of every timing across repeats: what the work costs
    when nothing else disturbs it.  Interference on a shared box only
    ever adds time, in bursts that outlast a repeat, so the floor
    repeats where the median does not (README, noise protocol)."""
    return {key: min(t[key] for t in times) for key in times[0]}


def stage_seconds(times: dict) -> dict:
    """Per-unit seconds (``"<stage>#<unit>"``) summed per stage."""
    out: dict = defaultdict(float)
    for key, seconds in times.items():
        out[key.partition("#")[0]] += seconds
    return out


def scaled(times: dict, speed: float) -> dict:
    """Seconds on the reference machine (``harness.calibrate``)."""
    return {key: seconds * speed for key, seconds in times.items()}


def _dur(node: dict) -> float:
    """Seconds."""
    s = node["span"]
    return max(0, s["end_ns"] - s["start_ns"]) / 1e9


def _walk(node: dict):
    for child in node["children"]:
        yield child
        yield from _walk(child)


def pass_records(path: str) -> tuple[list, dict, list]:
    """Per traced pass the seconds of every stage, probe and layer; the
    counts the passes carry (the last pass's: they repeat exactly); and
    the pooled ``window=0`` ACK round-trips in milliseconds, sorted."""
    passes, counts, acks = [], {}, []
    for node in build_span_tree(read_spans_jsonl(path)):
        if node["span"]["name"] != "pass":
            continue
        by_name: dict = defaultdict(list)
        for child in _walk(node):
            by_name[child["span"]["name"]].append(child)
        chain = by_name["chain"][0]
        counts = dict(node["span"]["attrs"])
        for name in by_name:
            if name.startswith("probe."):
                counts.update(by_name[name][0]["span"].get("attrs", {}))
        untraced = by_name["chain.untraced"][0]["span"]["attrs"]
        times = {k: v for k, v in untraced.items() if k.startswith("plain.")}
        for name in ("null",) + CHAIN_STAGES + PROBES:
            times[name] = sum(map(_dur, by_name[name]))
        for layer in spec.LAYERS:
            times[f"self.{layer}"] = 0.0
        for child in _walk(chain):
            times[f"self.{child['span']['scope']}"] += \
                span_self_ns(child) / 1e9
        times["self.unattributed"] = span_self_ns(chain) / 1e9
        passes.append(times)
        acks.extend(_dur(n) * 1e3 for n in by_name["ack"])
    return passes, counts, sorted(acks)


def layer_metrics(times: dict, counts: dict, acks: list) -> dict:
    """Every per-layer metric of one pass's seconds (or of the floor).
    What a workload does not exercise reads 0, so ``ingest.*`` is zero
    wherever nothing was pushed."""
    rec = {**counts, **stage_seconds(times)}
    calls, units, null_s = rec["calls"], rec["units"], rec["null"]
    plain_produce = rec["plain.produce"]
    selfs = {layer: rec[f"self.{layer}"] for layer in spec.LAYERS}
    chain_s = sum(selfs.values()) + rec["self.unattributed"]
    plain_s = sum(rec[f"plain.{stage}"] for stage in CHAIN_STAGES)
    finalize_s = selfs["core_finalize"]
    out = {
        "mpisim.run_s": null_s,
        "mpisim.us_per_call": null_s * 1e6 / calls,
        "mpisim.sched_steps": rec["sched_steps"],
        "core.hot_us_per_call": selfs["core_hot"] * 1e6 / calls,
        "core.calls": calls,
        "core.signatures": rec["signatures"],
        "core.unique_grammars": rec["unique_grammars"],
        "core.overhead_ratio": plain_produce / null_s,
        "core.finalize_ms": finalize_s * 1e3,
        "core.freeze_ms": rec["probe.freeze"] * 1e3,
        "core.reduce_ms": rec["probe.reduce"] * 1e3,
        "core.serialize_ms": max(0.0, finalize_s - rec["probe.freeze"]
                                 - rec["probe.reduce"]) * 1e3,
        "core.cst_bytes": rec["cst_bytes"],
        "core.cfg_bytes": rec["cfg_bytes"],
        "core.timing_bytes": rec["timing_bytes"],
        "decode.parse_ms": rec["decode.parse"] * 1e3,
        "decode.expand_ms": rec["decode.expand"] * 1e3,
        "store.archive_ms":
            (rec["store.put"] + rec["store.get"]) * 1e3 / units,
        "store.put_cold_ms": rec["store.put"] * 1e3 / units,
        "store.put_warm_ms": rec["probe.put_warm"] * 1e3 / units,
        "store.get_ms": rec["store.get"] * 1e3 / units,
        "store.reused_fraction": rec["reused_bytes"] / rec["total_bytes"],
        "store.disk_bytes_per_trace_byte":
            rec["stored_bytes"] / rec["logical_bytes"],
        "store.gc_ms": rec["probe.gc"] * 1e3,
        "replay.directed_s": rec["replay"],
        "replay.over_mpisim": rec["replay"] / null_s,
        "replay.whatif_s": rec["probe.whatif"],
        "obs.on_over_off":
            rec["probe.obs_on"] / (rec["probe.obs_off"] or plain_produce),
        "obs.spans": rec["obs_spans"],
        "unattributed_fraction": rec["self.unattributed"] / chain_s,
        "tracing_overhead_fraction":
            sum(rec[stage] for stage in CHAIN_STAGES) / plain_s - 1,
    }
    for layer, seconds in selfs.items():
        out[f"share.{layer}"] = seconds / chain_s
    chunks = rec.get("chunks", 0)
    per_chunk = 1e6 / chunks if chunks else 0.0
    out.update({
        "ingest.push_calls_per_s": calls / plain_produce if chunks else 0.0,
        "ingest.ack_p50_ms": statistics.median(acks) if acks else 0.0,
        "ingest.ack_p99_ms":
            acks[int(0.99 * len(acks))] if acks else 0.0,
        "ingest.frame_us_per_chunk": rec["probe.frame"] * per_chunk,
        "ingest.fold_us_per_chunk": rec["probe.fold"] * per_chunk,
        "ingest.fold_finish_ms": rec["probe.fold_finish"] * 1e3,
        "ingest.chunks": chunks,
        "ingest.bytes_sent": rec.get("bytes_sent", 0),
        "ingest.reconnects": rec.get("reconnects", 0),
    })
    return out
