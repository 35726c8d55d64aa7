"""Same seed, same bytes, under any ``PYTHONHASHSEED``.

Nothing a trace holds may depend on the order of a set or of a dict
keyed by strings: the probe below traces every registry family,
aggregate and lossy, at 4 ranks (``npb_bt`` / ``npb_sp`` need a square,
9), seed 3, in a fresh interpreter per hash seed, and the sha256 lists
must be equal.  ``benchmarks/e2e`` pins ``PYTHONHASHSEED=0``, so only
this test would see a trace that moves with the hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import hashlib, json
from repro import api
from repro.core.backends import TracerOptions
from repro.workloads import REGISTRY
print(json.dumps([
    hashlib.sha256(api.trace(
        family, 9 if family in ("npb_bt", "npb_sp") else 4, seed=3,
        options=TracerOptions(lossy_timing=lossy)).trace_bytes).hexdigest()
    for family in sorted(REGISTRY) for lossy in (False, True)]))
"""


def _hashes(hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(out.stdout)


def test_trace_bytes_do_not_depend_on_the_hash_seed():
    first, second = _hashes("0"), _hashes("98765")
    assert len(first) == 52 and len(set(first)) == 52
    assert first == second
