"""Fig 8 — Pilgrim's overhead decomposition for the FLASH codes.

The paper splits tracing overhead into intra-process compression,
inter-process CST compression, and inter-process CFG compression, with
two findings we assert:

* the CST merge is a negligible sliver (0.2–0.4% in the paper);
* the CFG merge share grows with the number of unique grammars
  (StirTurb: 2 grammars, tiny share; Cellular: 498 grammars, dominant).

All tracers are constructed through the :mod:`repro.core.backends`
registry (via ``run_experiment``).  ``PilgrimResult.phases`` is the
decomposition itself, with or without a metrics registry: ``intra``
(the per-call hot path) and ``sequitur`` (each rank's deferred
compression) make up the intra-process share, and the pipeline's stages
(``shard``, ``cst_merge`` — the one-pass reduce — ``cfg_merge``,
``serialize``) the inter-process one, stage by stage.  The split of the
hot path itself (encode vs the rest) is measured offline by ``repro
bench hotpath`` (``encode_us_per_call`` against ``us_per_call``).
"""

from __future__ import annotations

from conftest import once, save_results
from repro.analysis import print_table, run_experiment
from repro.core.backends import TracerOptions
from repro.obs import MetricsRegistry

CODES = {
    "flash_sedov": dict(iters=40),
    "flash_cellular": dict(iters=40),
    "flash_stirturb": dict(iters=40),
}
# 48 ranks: StirTurb has plateaued at its 27 boundary classes while
# Cellular's per-rank partner sets keep every grammar unique — the
# unique-grammar contrast Fig 8 hinges on
NPROCS = 48


def test_fig8_overhead_decomposition(benchmark):
    # the same PhaseProfiler that backs `repro trace --metrics` supplies
    # these numbers (the registry only publishes them), so figure and
    # CLI can never drift apart
    def run():
        return {code: run_experiment(
                    code, NPROCS, scalatrace=False, baseline=False,
                    options=TracerOptions(metrics=MetricsRegistry()), **kw)
                for code, kw in CODES.items()}

    rows = once(benchmark, run)

    def shares(r):
        total = r.time_intra + r.time_cst_merge + r.time_cfg_merge
        return (r.time_intra / total, r.time_cst_merge / total,
                r.time_cfg_merge / total)

    print_table(
        f"Fig 8: Pilgrim overhead decomposition ({NPROCS} procs)",
        ["code", "uniq grammars", "intra", "inter CST", "inter CFG"],
        [(code, r.n_unique_grammars,
          *(f"{100 * s:.1f}%" for s in shares(r)))
         for code, r in rows.items()],
        note="paper: CST merge 0.2-0.4%; CFG share grows with unique "
             "grammar count")
    # in the order the run meets them: intra-process, then the pipeline
    phase_names = list(dict.fromkeys(p for r in rows.values()
                                     for p in r.phases))
    print_table(
        "Fig 8 by phase: profiler phases (seconds)",
        ["code", *phase_names],
        [(code, *(f"{r.phases.get(p, 0.0):.4f}" for p in phase_names))
         for code, r in rows.items()],
        note="from the repro.obs phase profiler (same source as "
             "`repro stats`)")
    save_results("fig8_decomposition", {
        code: {"unique_grammars": r.n_unique_grammars,
               "intra": r.time_intra, "cst": r.time_cst_merge,
               "cfg": r.time_cfg_merge, "phases": r.phases}
        for code, r in rows.items()})

    for code, r in rows.items():
        # the phases are the coarse totals: the hot path and the
        # deferred Sequitur are the intra time, exactly, and the
        # finalize phases are present
        assert r.phases["intra"] + r.phases["sequitur"] == r.time_intra, code
        assert "cfg_merge" in r.phases and "serialize" in r.phases, code
        # the CST merge is one pass, one phase: no per-level sub-phases,
        # and with the freeze it is the coarse inter-CST time
        assert not [p for p in r.phases if ".level." in p], code
        assert abs(r.phases["shard"] + r.phases["cst_merge"]
                   - r.time_cst_merge) < 1e-9, code

    for code, r in rows.items():
        intra, cst, cfg = shares(r)
        # CST merge is a tiny sliver everywhere
        assert cst < 0.1, code
        assert intra > 0.3, code

    # more unique grammars => larger CFG-merge share (the paper's Fig 8
    # ordering: StirTurb << Sedov < Cellular)
    cell, stir = rows["flash_cellular"], rows["flash_stirturb"]
    assert cell.n_unique_grammars > stir.n_unique_grammars
    assert shares(cell)[2] > shares(stir)[2]


def test_fig8_cfg_share_grows_with_unique_grammars(benchmark):
    """Directly sweep the unique-grammar count via the dedup ablation.
    At repo scale the merge times are sub-millisecond and noisy, so the
    asserted quantity is the *work* the identity check saves: the size of
    the merged grammar the final Sequitur pass must process."""
    def run():
        base = run_experiment("flash_stirturb", 64, iters=30,
                              scalatrace=False, baseline=False)
        nodedup = run_experiment("flash_stirturb", 64, iters=30,
                                 scalatrace=False, baseline=False,
                                 pilgrim_kwargs={"cfg_dedup": False})
        return base, nodedup

    base, nodedup = once(benchmark, run)
    print_table(
        "CFG merge work vs unique grammar count (StirTurb, 64 procs)",
        ["variant", "uniq grammars", "trace size", "CFG merge seconds"],
        [("dedup (27 classes)", base.n_unique_grammars,
          base.pilgrim_size, f"{base.time_cfg_merge:.4f}"),
         ("no dedup (64)", nodedup.n_unique_grammars,
          nodedup.pilgrim_size, f"{nodedup.time_cfg_merge:.4f}")],
        note="the identity check is what keeps the final Sequitur pass "
             "cheap (§3.5.2)")
    assert nodedup.n_unique_grammars == 64
    assert base.n_unique_grammars == 27
    assert base.pilgrim_size < nodedup.pilgrim_size
