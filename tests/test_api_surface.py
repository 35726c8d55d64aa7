"""API-surface snapshot: ``repro.api`` signatures are pinned.

The facade is the compatibility contract — the CLI, the experiment
runner, the chaos harness, and downstream users all call it.  This test
renders every pinned callable's ``inspect.signature`` (parameter names,
kinds, defaults) plus the public attribute sets into a canonical dict
and compares it against the checked-in snapshot, so any signature change
fails CI until the snapshot is updated *deliberately*:

    python tests/test_api_surface.py --update
"""

import inspect
import json
import sys
from dataclasses import fields
from pathlib import Path

import repro
import repro.api as api
from repro.ingest import PushResult

SNAPSHOT = Path(__file__).parent / "data" / "api_surface.json"

#: the callables whose signatures form the contract
PINNED_FUNCTIONS = ["trace", "decode", "verify", "compare", "bench",
                    "serve", "push", "store", "replay"]

#: facade verb -> CLI subcommand, where the names differ.  ``decode``
#: is surfaced as the read-side verbs; everything else matches 1:1.
VERB_TO_CLI = {"decode": "info"}


def _describe_signature(fn) -> dict:
    out = {}
    for name, p in inspect.signature(fn).parameters.items():
        entry = {"kind": p.kind.name}
        if p.default is not inspect.Parameter.empty:
            entry["default"] = repr(p.default)
        out[name] = entry
    return out


def current_surface() -> dict:
    surface = {
        "functions": {name: _describe_signature(getattr(api, name))
                      for name in PINNED_FUNCTIONS},
        "TraceResult": sorted(
            n for n in dir(api.TraceResult) if not n.startswith("_")),
        "ReplayOptions": sorted(
            n for n in dir(api.ReplayOptions) if not n.startswith("_")),
        "ReplayResult": sorted(
            n for n in dir(api.ReplayResult) if not n.startswith("_")),
        "PushResult": sorted(f.name for f in fields(PushResult)),
        # every settable option is part of the contract: a new knob
        # shows up here as a deliberate snapshot diff
        "TracerOptions": sorted(f.name for f in fields(api.TracerOptions)),
        "api.__all__": sorted(api.__all__),
        "repro.__all__": sorted(repro.__all__),
    }
    return surface


def test_api_surface_matches_snapshot():
    assert SNAPSHOT.exists(), (
        f"missing snapshot {SNAPSHOT}; generate it with "
        f"python {Path(__file__).name} --update")
    expected = json.loads(SNAPSHOT.read_text())
    got = current_surface()
    assert got == expected, (
        "repro.api's public surface changed. If this is intentional, "
        "refresh the snapshot with: python tests/test_api_surface.py "
        "--update (and call the change out in the PR)")


def test_facade_is_reexported_from_package_root():
    for name in PINNED_FUNCTIONS:
        if name in ("bench", "store"):
            # these subpackages double as their facade verbs (callable
            # modules), so the submodule import cannot shadow the API
            assert callable(getattr(repro, name))
            continue
        assert getattr(repro, name) is getattr(api, name)
    assert "TracerOptions" in repro.__all__
    assert "VerifyReport" in repro.__all__


def test_unknown_loose_kwarg_is_rejected():
    import pytest
    with pytest.raises(TypeError):
        repro.trace("stencil2d", 2, params={"iters": 2}, bogus_option=1)


def test_every_api_verb_has_a_cli_subcommand():
    """The facade and the CLI must not drift apart: every ``repro.api``
    verb is reachable as a CLI subcommand (modulo the documented
    renames) — the structural fix for replay having shipped without a
    verb."""
    from repro.cli import build_parser
    sub_actions = [a for a in build_parser()._actions
                   if isinstance(a, __import__("argparse")
                                 ._SubParsersAction)]
    assert sub_actions, "CLI has no subcommands?"
    subcommands = set(sub_actions[0].choices)
    verbs = [n for n in api.__all__ if callable(getattr(api, n))
             and not isinstance(getattr(api, n), type)]
    missing = [v for v in verbs
               if VERB_TO_CLI.get(v, v) not in subcommands]
    assert not missing, (
        f"api verbs without a CLI subcommand: {missing} "
        f"(CLI has {sorted(subcommands)})")


def test_replay_accepts_a_path(tmp_path):
    blob = repro.trace("stencil2d", 2, params={"iters": 2}).trace_bytes
    path = tmp_path / "t.pilgrim"
    path.write_bytes(blob)
    assert not repro.replay(path).diverged


def test_replay_unknown_loose_kwarg_is_rejected():
    import pytest
    with pytest.raises(TypeError):
        repro.replay(b"", bogus_option=1)



def test_client_and_fold_imports_do_not_load_asyncio():
    """No ``repro`` module loads asyncio: the ingest server runs on
    blocking sockets, and neither it nor the CLI that serves it imports
    an event loop (asyncio alone adds ~2 MB to a process)."""
    import os
    import subprocess
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = ("import sys, repro.api, repro.ingest, repro.core, "
            "repro.ingest.server, repro.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('asyncio')))")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
    from repro import ingest
    from repro.ingest import server
    assert ingest.serve_in_thread is server.serve_in_thread
    assert ingest.IngestServer is server.IngestServer
    assert ingest.RunningServer is server.RunningServer


if __name__ == "__main__":
    if "--update" in sys.argv:
        SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT.write_text(
            json.dumps(current_surface(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {SNAPSHOT}")
    else:
        print(json.dumps(current_surface(), indent=2, sort_keys=True))
