"""The content-addressed cross-run trace store (``repro.store``).

The contract under test, layer by layer:

* **objects** — CAS round-trips, idempotent puts, integrity
  re-verification on read, refcount sidecars, debris pruning;
* **manifest / index** — binary round-trips, exhaustive corruption
  rejection as structured :class:`StoreFormatError` subclasses;
* **repository** — ``get(put(trace))`` is byte-identical for every
  workload family and timing mode, identical re-runs are >= 90% by
  reference, diffs and drift queries answer without decoding;
* **maintenance** — GC sweeps exactly the unreferenced blobs and the
  refcount audit *conserves* (sidecar == computed for every object);
* **integration** — the CLI verbs, the ingest-server archival hook,
  the manifest fuzzer, and the upward-only layering rule.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import api, cli, fuzz
from repro.core import (MissingObjectError, StoreFormatError,
                        StoreIntegrityError, TraceFormatError,
                        TracerOptions, section_hashes, split_sections)
from repro.obs import MetricsRegistry
from repro.store import (ObjectStore, RunIndex, RunRecord, SectionRef,
                         TraceStore, apply_retention, compute_refcounts,
                         gc, hash_blob)
from repro.store.manifest import (MANIFEST, resolve_ref, validate_name,
                                  validate_run_id)

FAMILIES = ("stencil2d", "osu_latency", "npb_mg", "flash_sedov",
            "milc_su3_rmd")


def _trace_bytes(family: str = "stencil2d", nprocs: int = 4,
                 seed: int = 1, *, lossy: bool = False) -> bytes:
    return api.trace(family, nprocs, seed=seed,
                     options=TracerOptions(
                         lossy_timing=lossy)).trace_bytes


class TestSectionSplit:
    """The core helpers the store is built on."""

    def test_split_reassembles_byte_identical(self):
        blob = _trace_bytes()
        header, sections = split_sections(blob)
        assert header + b"".join(s for _, s in sections) == blob
        assert [n for n, _ in sections]  # named, ordered

    def test_trailing_bytes_rejected(self):
        blob = _trace_bytes()
        with pytest.raises(TraceFormatError, match="trailing"):
            split_sections(blob + b"\x00")

    def test_section_hashes_track_content(self):
        a = section_hashes(_trace_bytes(seed=1))
        b = section_hashes(_trace_bytes(seed=1))
        c = section_hashes(_trace_bytes(seed=2))
        assert a == b
        assert a.keys() == c.keys() and a != c


class TestObjectStore:
    def test_roundtrip_and_idempotent_put(self, tmp_path):
        objs = ObjectStore(str(tmp_path))
        digest, created = objs.put(b"hello world")
        assert created and digest == hash_blob(b"hello world")
        digest2, created2 = objs.put(b"hello world")
        assert digest2 == digest and not created2
        assert objs.get(digest) == b"hello world"
        assert objs.contains(digest)
        assert objs.size(digest) == 11

    def test_missing_object_is_structured(self, tmp_path):
        objs = ObjectStore(str(tmp_path))
        with pytest.raises(MissingObjectError):
            objs.get("0" * 64)
        with pytest.raises(StoreFormatError):
            objs.get("not-a-digest")

    def test_integrity_reverified_on_read(self, tmp_path):
        objs = ObjectStore(str(tmp_path))
        digest, _ = objs.put(b"payload under test")
        path = objs.path_for(digest)
        with open(path, "wb") as fh:
            fh.write(b"payload under tesT")
        with pytest.raises(StoreIntegrityError):
            objs.get(digest)
        assert objs.get(digest, verify=False) == b"payload under tesT"

    def test_refcounts(self, tmp_path):
        objs = ObjectStore(str(tmp_path))
        digest, _ = objs.put(b"x")
        assert objs.refcount(digest) == 0
        objs.incref(digest)
        objs.incref(digest)
        assert objs.refcount(digest) == 2
        objs.decref(digest)
        assert objs.refcount(digest) == 1
        objs.set_refcount(digest, 7)
        assert objs.refcount(digest) == 7

    def test_delete_and_prune(self, tmp_path):
        objs = ObjectStore(str(tmp_path))
        digest, _ = objs.put(b"doomed")
        objs.incref(digest)
        assert objs.delete(digest) == 6
        assert not objs.contains(digest)
        assert objs.delete(digest) == 0  # idempotent
        # stranded temp debris from an interrupted put is pruned
        shard = os.path.dirname(objs.path_for(hash_blob(b"q")))
        os.makedirs(shard, exist_ok=True)
        open(os.path.join(shard, ".tmp-dead"), "wb").close()
        assert objs.prune() >= 1
        assert not os.path.exists(os.path.join(shard, ".tmp-dead"))

    def test_stats(self, tmp_path):
        objs = ObjectStore(str(tmp_path))
        d1, _ = objs.put(b"aaaa")
        objs.put(b"bb")
        objs.incref(d1)
        stats = objs.stats()
        assert stats.objects == 2
        assert stats.bytes == 6
        assert stats.refs == 1


class TestManifestAndIndex:
    def _record(self) -> RunRecord:
        return RunRecord(
            run_id="r000042", workload="stencil", tenant="default",
            nprocs=8, created_ms=1_700_000_000_000, parent="r000041",
            header=b"PILG\x02\x08",
            sections=[
                SectionRef("cst", "a" * 64, 120, False),
                SectionRef("cfg", "b" * 64, 80, True)])

    def test_manifest_roundtrip(self):
        rec = self._record()
        back = RunRecord.from_bytes(rec.to_bytes())
        assert back == rec
        assert back.total_bytes == 206  # 6-byte header + sections
        assert back.reused_bytes == 80 and back.new_bytes == 120
        assert back.reused_fraction == pytest.approx(0.4)

    def test_manifest_spans_cover_blob(self):
        blob = self._record().to_bytes()
        spans = MANIFEST.spans(blob)
        assert spans["magic"] == (0, 4)
        assert max(end for _, end in spans.values()) == len(blob)

    def test_corruption_is_always_structured(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        for desc, mut in fuzz.manifest_corpus(self._record()):
            with pytest.raises(StoreFormatError):
                # a dangling-but-well-formed hash ref parses; it must
                # then fail dereference with MissingObjectError (a
                # StoreFormatError subclass), never FileNotFoundError
                rec = RunRecord.from_bytes(mut)
                for sec in rec.sections:
                    st_.objects.get(sec.digest)

    def test_name_and_run_id_validation(self):
        validate_name("a.b-c_9", "workload")
        for bad in ("", ".hidden", "../evil", "a/b", "x" * 101):
            with pytest.raises(StoreFormatError):
                validate_name(bad, "workload")
        validate_run_id("r000001")
        for bad in ("", "r1", "x000001", "r00001a"):
            with pytest.raises(StoreFormatError):
                validate_run_id(bad)

    def test_resolve_ref_forms(self):
        assert resolve_ref("r000007") == ("r000007", None)
        assert resolve_ref("w@latest") == (None, "w@latest")
        assert resolve_ref("w@golden") == (None, "w@golden")
        with pytest.raises(StoreFormatError):
            resolve_ref("w@newest")
        with pytest.raises(StoreFormatError):
            resolve_ref("not a ref")

    def test_index_roundtrip(self, tmp_path):
        idx = RunIndex(str(tmp_path))
        r1, r2 = idx.issue_run_id(), idx.issue_run_id()
        idx.append("w", r1)
        idx.append("w", r2)
        idx.pin_golden("w", r1)
        idx.save()
        back = RunIndex(str(tmp_path))
        assert back.runs("w") == [r1, r2]
        assert back.golden("w") == r1
        assert back.latest("w") == r2
        assert back.workload_of(r2) == "w"
        assert back.issue_run_id() == "r000003"

    def test_corrupt_index_is_structured(self, tmp_path):
        idx = RunIndex(str(tmp_path))
        idx.append("w", idx.issue_run_id())
        idx.save()
        data = bytearray(open(idx.path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(idx.path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(StoreFormatError):
            RunIndex(str(tmp_path))


class TestTraceStore:
    def test_roundtrip_across_families_and_timing(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        for fam in ("stencil2d", "npb_mg"):
            for lossy in (False, True):
                blob = _trace_bytes(fam, 4, lossy=lossy)
                put = st_.put(blob, f"{fam}{'-lossy' if lossy else ''}")
                assert st_.get(put.run_id) == blob

    def test_identical_rerun_is_by_reference(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        blob = _trace_bytes(seed=1)
        st_.put(blob, "w")
        put = st_.put(blob, "w")
        assert put.record.reused_fraction == 1.0
        assert put.record.reused_fraction >= 0.9  # the CI acceptance bar
        assert put.created == 0
        assert put.record.parent  # delta-encoded against the prior run
        assert st_.dedup_stats("w").ratio >= 2.0

    def test_selectors_and_golden(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        b1, b2 = _trace_bytes(seed=1), _trace_bytes(seed=2)
        r1 = st_.put(b1, "w").run_id
        st_.put(b2, "w")
        assert st_.get("w@latest") == b2
        with pytest.raises(StoreFormatError, match="golden"):
            st_.get("w@golden")
        assert st_.pin_golden(r1) == "w"
        assert st_.get("w@golden") == b1

    def test_diff_and_drift(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        r1 = st_.put(_trace_bytes(seed=1), "w").run_id
        r2 = st_.put(_trace_bytes(seed=2), "w").run_id
        r3 = st_.put(_trace_bytes(seed=1), "w").run_id
        assert st_.diff(r1, r3).identical
        drifted = st_.diff(r1, r2)
        assert not drifted.identical
        assert all(e.kind == "changed" for e in drifted.drifted)
        with pytest.raises(StoreFormatError, match="golden"):
            st_.drifted("w")
        st_.pin_golden(r1)
        verdicts = dict(st_.drifted("w"))
        assert not verdicts[r2].identical and verdicts[r3].identical

    def test_unknown_refs_are_structured(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        with pytest.raises(StoreFormatError):
            st_.get("r999999")
        with pytest.raises(StoreFormatError):
            st_.get("nobody@latest")
        with pytest.raises(StoreFormatError):
            st_.put(_trace_bytes(), "../evil")

    def test_obs_counters(self, tmp_path):
        reg = MetricsRegistry()
        st_ = TraceStore(str(tmp_path), metrics=reg)
        blob = _trace_bytes()
        st_.put(blob, "w")
        st_.put(blob, "w")
        st_.get("w@latest")
        snap = reg.snapshot()["counters"]
        n_secs = len(split_sections(blob)[1])
        assert snap["store.puts"] == 2
        assert snap["store.misses"] == n_secs
        assert snap["store.hits"] == n_secs
        assert snap["store.bytes_deduped"] == sum(
            len(s) for _, s in split_sections(blob)[1])
        assert snap["store.gets"] == 1


class TestMaintenance:
    def test_gc_sweeps_only_unreferenced(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        b1, b2 = _trace_bytes(seed=1), _trace_bytes(seed=2)
        r1 = st_.put(b1, "w").run_id
        r2 = st_.put(b2, "w").run_id
        before = st_.objects.stats().objects
        st_.delete_run(r2)
        report = gc(st_)
        assert report.conserved and not report.mismatches
        assert 0 < report.removed_objects < before
        assert st_.get(r1) == b1  # survivors untouched

    def test_gc_audit_detects_and_repairs(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        rec = st_.put(_trace_bytes(), "w").record
        victim = rec.sections[0].digest
        st_.objects.set_refcount(victim, 9)
        report = gc(st_)
        assert not report.conserved
        assert (victim, 9, 1) in report.mismatches
        report = gc(st_, repair=True)
        assert report.conserved and report.repaired == 1
        assert gc(st_).conserved
        assert st_.objects.refcount(victim) == 1

    def test_compute_refcounts_matches_sidecars(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        blob = _trace_bytes()
        st_.put(blob, "w")
        st_.put(blob, "w")
        expected = compute_refcounts(st_)
        for digest, n in expected.items():
            assert st_.objects.refcount(digest) == n == 2

    def test_retention_keeps_golden(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        runs = [st_.put(_trace_bytes(seed=s), "w").run_id
                for s in (1, 2, 3)]
        st_.pin_golden(runs[0])
        report = apply_retention(st_, 1)
        assert report.deleted_runs == [runs[1]]
        assert report.kept_runs == 2
        assert report.gc is not None and report.gc.conserved
        assert st_.index.runs("w") == [runs[0], runs[2]]


class TestStoreFuzz:
    def test_manifest_fuzz_is_structured(self, tmp_path):
        st_ = TraceStore(str(tmp_path))
        put = st_.put(_trace_bytes(), "w")
        report = fuzz.run(fuzz.store_target(st_, put.run_id), n_random=150)
        assert report.ok, report.failures[:5]
        assert report.total > 100
        # the dangling-ref corpus entry must surface as the dedicated
        # subclass, not a bare FileNotFoundError
        assert report.by_error.get("MissingObjectError", 0) >= 1


class TestStoreCLI:
    def _trace_file(self, tmp_path, name: str, seed: int) -> str:
        path = str(tmp_path / name)
        with open(path, "wb") as fh:
            fh.write(_trace_bytes(seed=seed))
        return path

    def test_cli_verbs_end_to_end(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        t1 = self._trace_file(tmp_path, "t1.pilgrim", 1)
        t2 = self._trace_file(tmp_path, "t2.pilgrim", 2)
        assert cli.main(["store", "put", t1, "-w", "w",
                         "--root", root]) == 0
        assert cli.main(["store", "put", t2, "-w", "w",
                         "--root", root]) == 0
        assert cli.main(["store", "put", t1, "-w", "w",
                         "--root", root]) == 0
        out = str(tmp_path / "back.pilgrim")
        assert cli.main(["store", "get", "r000001", "--root", root,
                         "-o", out]) == 0
        assert open(out, "rb").read() == open(t1, "rb").read()
        assert cli.main(["store", "ls", "--root", root]) == 0
        assert "r000003" in capsys.readouterr().out
        # GNU-diff exit convention: 0 identical, 1 drifted
        assert cli.main(["store", "diff", "r000001", "r000003",
                         "--root", root]) == 0
        assert cli.main(["store", "diff", "r000001", "r000002",
                         "--root", root]) == 1
        assert cli.main(["store", "pin", "r000001", "--root", root]) == 0
        assert cli.main(["store", "drift", "w", "--root", root]) == 1
        assert cli.main(["store", "stats", "--root", root]) == 0
        assert "dedup ratio" in capsys.readouterr().out
        assert cli.main(["store", "gc", "--root", root]) == 0
        assert cli.main(["store", "gc", "--keep-last", "1",
                         "--root", root]) == 0
        # golden + newest survive retention and still round-trip
        assert cli.main(["store", "get", "w@golden", "--root", root,
                         "-o", out]) == 0
        assert open(out, "rb").read() == open(t1, "rb").read()

    def test_cli_structured_error_diagnosis(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert cli.main(["store", "get", "r000099",
                         "--root", root]) == 1
        err = capsys.readouterr().err
        assert "StoreFormatError" in err

    def test_cli_store_fuzz(self, capsys):
        assert cli.main(["fuzz", "osu_latency", "-n", "2", "--target",
                         "store", "--mutations", "60"]) == 0
        assert "structured errors" in capsys.readouterr().out


class TestIngestHook:
    def test_served_folds_are_archived_byte_identical(self, tmp_path):
        root = str(tmp_path / "ingest-store")
        with api.serve(store_dir=root) as srv:
            res = api.push("osu_latency", 2, port=srv.port,
                           tenant="teamA", seed=1, chunk_calls=32)
            res2 = api.push("osu_latency", 2, port=srv.port,
                            tenant="teamA", seed=1, chunk_calls=32)
            assert srv.server.aggregator.stored_runs["teamA"] == "r000002"
        st_ = TraceStore(root)
        runs = st_.ls("teamA")
        assert [r.tenant for r in runs] == ["teamA", "teamA"]
        assert st_.get(runs[0].run_id) == res.trace_bytes
        assert st_.get(runs[1].run_id) == res2.trace_bytes
        assert runs[1].reused_fraction == 1.0
        assert st_.dedup_stats("teamA").ratio >= 2.0

    def test_archival_failure_never_loses_the_result(self, tmp_path):
        # ".teamB" is a legal ingest tenant but not a legal store
        # workload: the fold must still complete and RESULT must still
        # reach the client; the store just counts the rejection
        reg = MetricsRegistry()
        root = str(tmp_path / "ingest-store")
        with api.serve(store_dir=root, metrics=reg) as srv:
            res = api.push("osu_latency", 2, port=srv.port,
                           tenant=".teamB", seed=1, chunk_calls=32)
        assert res.trace_bytes
        assert TraceStore(root).ls() == []
        assert reg.snapshot()["counters"]["ingest.store_errors"] == 1


class TestLayering:
    def test_store_layering_is_upward_only(self):
        """Each store layer may import only layers strictly below it
        (and repro.core / repro.obs); nothing in the store may import
        repro.ingest — the ingest aggregator persists *into* the store,
        so the store sits below it (DESIGN.md §8)."""
        import ast

        import repro.store as store_pkg
        pkg_dir = os.path.dirname(store_pkg.__file__)
        order = {"objects": 1, "manifest": 2, "index": 3,
                 "repository": 4, "maintenance": 5}
        for mod, level in order.items():
            tree = ast.parse(
                open(os.path.join(pkg_dir, mod + ".py")).read())
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.ImportFrom) and node.module:
                    names.append(node.module)
                elif isinstance(node, ast.ImportFrom) and node.level:
                    names.extend(a.name for a in node.names)
                elif isinstance(node, ast.Import):
                    names.extend(a.name for a in node.names)
                for name in names:
                    assert "ingest" not in name, (
                        f"store/{mod} imports {name}: the store must "
                        f"stay below repro.ingest")
                    leaf = name.split(".")[-1]
                    if leaf in order and leaf != mod:
                        assert order[leaf] < level, (
                            f"{mod} (layer {level}) imports {leaf} "
                            f"(layer {order[leaf]}): dependencies must "
                            f"flow upward only")

    def test_facade_exports(self):
        import repro
        assert callable(repro.store)
        assert "store" in repro.api.__all__
        assert isinstance(api.store.__module__, str)


class TestHypothesisProperties:
    @settings(max_examples=10, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           nprocs=st.sampled_from([2, 4]),
           seed=st.integers(0, 2**16),
           lossy=st.booleans())
    def test_put_get_is_byte_identical(self, tmp_path_factory, family,
                                       nprocs, seed, lossy):
        blob = _trace_bytes(family, nprocs, seed, lossy=lossy)
        st_ = TraceStore(str(tmp_path_factory.mktemp("store")))
        assert st_.get(st_.put(blob, family).run_id) == blob

    @settings(max_examples=6, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           nprocs=st.sampled_from([2, 4]),
           seeds=st.lists(st.integers(0, 50), min_size=2, max_size=4))
    def test_n_runs_store_sublinearly(self, tmp_path_factory, family,
                                      nprocs, seeds):
        # guarantee at least one exact re-run, the dedup sweet spot
        seeds = seeds + [seeds[0]]
        st_ = TraceStore(str(tmp_path_factory.mktemp("store")))
        total = 0
        for seed in seeds:
            blob = _trace_bytes(family, nprocs, seed)
            total += len(blob)
            st_.put(blob, family)
        stats = st_.dedup_stats(family)
        assert stats.logical_bytes == total
        assert stats.stored_bytes < total  # strictly sublinear
        assert stats.ratio > 1.0
