"""Microbenchmark harness (``repro bench``).

A registry of named microbenchmarks over the tracing pipeline.  Each
benchmark is a *factory*: it performs its (possibly expensive) setup
once — capturing workload event streams, pre-building trace blobs —
and returns a zero-argument closure that produces one sample of every
metric per invocation.  The runner calls the closure ``warmup`` times
untimed, then ``repeats`` times, and reports per-metric median and
interquartile range.

All metrics are lower-is-better timings or ratios, which is what lets
:func:`compare_results` gate regressions with one rule: a metric
regresses when it exceeds ``baseline * (1 + max_regression/100)``.
CI keeps a baseline of machine-independent ratios under
``benchmarks/baselines/``; humans read the absolute numbers from
``BENCH_<name>.json``.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

SampleFn = Callable[[], dict]
BenchFactory = Callable[[dict], SampleFn]


@dataclass(frozen=True)
class Benchmark:
    name: str
    description: str
    factory: BenchFactory


REGISTRY: dict[str, Benchmark] = {}


def register(name: str, description: str = ""):
    """Register a benchmark factory under *name*; used as a decorator."""
    def _register(fn: BenchFactory) -> BenchFactory:
        if name in REGISTRY:
            raise ValueError(f"benchmark {name!r} already registered")
        REGISTRY[name] = Benchmark(name, description, fn)
        return fn
    return _register


def available_benchmarks() -> list[str]:
    return sorted(REGISTRY)


def _iqr(vals: list[float]) -> float:
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q3 - q1


def run_benchmark(name: str, *, repeats: int = 5, warmup: int = 1,
                  params: Optional[dict] = None) -> dict:
    """Run benchmark *name* and return its result document (the JSON
    that lands in ``benchmarks/results/<name>.json``)."""
    try:
        bench = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"known: {available_benchmarks()}") from None
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    params = dict(params or {})
    sample = bench.factory(params)
    for _ in range(warmup):
        sample()
    runs = [sample() for _ in range(repeats)]

    samples: dict[str, list[float]] = {}
    for run in runs:
        for key, val in run.items():
            samples.setdefault(key, []).append(float(val))
    metrics: dict[str, float] = {}
    stats: dict[str, dict] = {}
    for key in sorted(samples):
        vals = samples[key]
        med = statistics.median(vals)
        metrics[key] = med
        stats[key] = {"median": med, "iqr": _iqr(vals),
                      "min": min(vals), "max": max(vals),
                      "samples": vals}
    return {
        "benchmark": name,
        "description": bench.description,
        "created_unix": round(time.time(), 3),
        "repeats": repeats,
        "warmup": warmup,
        "params": params,
        "metrics": metrics,
        "stats": stats,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
    }


@dataclass(frozen=True)
class Regression:
    """One metric that exceeded its regression budget."""

    metric: str
    baseline: float
    current: float
    limit: float

    @property
    def pct_change(self) -> float:
        if not self.baseline:
            return float("inf")
        return 100.0 * (self.current / self.baseline - 1.0)

    def __str__(self) -> str:
        return (f"{self.metric}: {self.current:.4g} vs baseline "
                f"{self.baseline:.4g} ({self.pct_change:+.1f}%, "
                f"limit {self.limit:.4g})")


def compare_results(current: dict, baseline: dict,
                    max_regression: float) -> tuple[list, list]:
    """Gate *current* against *baseline*: every metric in
    ``baseline["metrics"]`` must stay within ``(1 + max_regression/100)``
    of its baseline value.  Returns ``(regressions, missing)`` where
    *missing* lists baseline metrics the current run did not produce
    (also a gate failure — a renamed metric must not silently pass)."""
    regressions: list[Regression] = []
    missing: list[str] = []
    base = baseline.get("metrics") or {}
    cur = current.get("metrics") or {}
    for name in sorted(base):
        if name not in cur:
            missing.append(name)
            continue
        b, c = float(base[name]), float(cur[name])
        limit = b * (1.0 + max_regression / 100.0)
        if c > limit:
            regressions.append(Regression(name, b, c, limit))
    return regressions, missing


def bench_manifest(doc: dict, *, outputs: Optional[dict] = None):
    """A :class:`~repro.obs.RunManifest` describing one benchmark run
    (the sidecar :func:`write_results` writes next to the result JSON)."""
    from ..obs import (RunManifest, git_describe, host_environment,
                       peak_rss_kb)
    params = dict(doc.get("params") or {})
    return RunManifest(
        command="bench",
        workload=doc.get("benchmark"),
        nprocs=params.get("nprocs"),
        seed=params.get("seed"),
        options={"repeats": doc.get("repeats"),
                 "warmup": doc.get("warmup"), "params": params},
        git=git_describe(), environment=host_environment(),
        peak_rss_kb=peak_rss_kb(),
        totals={"metrics": dict(doc.get("metrics") or {})},
        outputs=dict(outputs or {}))


def write_results(doc: dict, output_dir: str = "benchmarks/results", *,
                  root_copy: bool = True, manifest: bool = True
                  ) -> list[Path]:
    """Write the result document to ``<output_dir>/<name>.json`` and
    (by default) a ``BENCH_<name>.json`` copy in the current directory —
    the at-a-glance artifact the README points to.  A
    :class:`~repro.obs.RunManifest` sidecar
    (``<output_dir>/<name>.json.manifest.json``) rides along by
    default."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{doc['benchmark']}.json"]
    if root_copy:
        paths.append(Path(f"BENCH_{doc['benchmark']}.json"))
    for p in paths:
        p.write_text(text)
    if manifest:
        from ..obs import RunManifest
        side = bench_manifest(
            doc, outputs={"result_bytes": len(text.encode())})
        paths.append(Path(side.write(
            RunManifest.default_path(str(paths[0])))))
    return paths


# built-in benchmarks register themselves on import
from . import decode, finalize, hotpath, ingest, replay  # noqa: E402,F401


class _BenchFacadeModule(types.ModuleType):
    """Make ``repro.bench`` callable: the package doubles as the facade
    verb (``repro.bench("hotpath")``, see :func:`repro.api.bench`), so
    importing the subpackage can never shadow the public API."""

    def __call__(self, name: str = "hotpath", *, repeats: int = 5,
                 warmup: int = 1, params: Optional[dict] = None) -> dict:
        return run_benchmark(name, repeats=repeats, warmup=warmup,
                             params=params)


sys.modules[__name__].__class__ = _BenchFacadeModule
