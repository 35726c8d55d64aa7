"""Decoded trace records.

A decoded record pairs the MPI function with its symbolically-encoded
parameters (named via the registry).  ``materialize`` additionally undoes
the relative-rank encoding given the owning rank, recovering absolute
ranks/tags — the representation a replay engine or analysis tool consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..mpisim import funcs as F
from .errors import CorruptTraceError
from .relative import MARK_ABS, MARK_REL, MARK_SPECIAL, decode as rel_decode


@dataclass(frozen=True)
class DecodedCall:
    """One MPI call reconstructed from a compressed trace."""

    rank: int
    fname: str
    #: parameter name -> encoded value (symbolic ids, relative ranks)
    params: dict[str, Any]
    #: per-signature mean duration from the CST (seconds)
    avg_duration: float = 0.0
    #: total calls sharing this signature across all ranks
    sig_count: int = 0

    def materialized(self) -> dict[str, Any]:
        """Parameters with relative ranks/tags resolved to absolute values
        (symbolic object ids are left symbolic — that is the trace's
        'near lossless' representation of handles and buffers)."""
        spec = F.FUNCS[self.fname]
        out: dict[str, Any] = {}
        for p in spec.params:
            v = self.params.get(p.name)
            if p.kind == F.K_RANK and isinstance(v, tuple) and len(v) == 2 \
                    and v[0] in (MARK_SPECIAL, MARK_REL, MARK_ABS):
                out[p.name] = rel_decode(v, self._ctx_rank())
            elif p.kind in (F.K_ROOT, F.K_TAG, F.K_COLOR, F.K_KEY) \
                    and isinstance(v, tuple) and len(v) == 2:
                out[p.name] = rel_decode(v, self._ctx_rank())
            else:
                out[p.name] = v
        return out

    def _ctx_rank(self) -> int:
        # Relative encodings are taken against the caller's rank in the
        # call's communicator; for world-comm calls that equals the world
        # rank.  Sub-communicator context requires replaying communicator
        # construction (repro.core.decoder.CommReplayer does this); records
        # materialized through the decoder get the right context injected.
        return self.rank

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"[{self.rank}] {self.fname}({args})"


def sig_to_params(sig: tuple) -> tuple[str, dict[str, Any]]:
    """Split a flat signature tuple into (fname, named params)."""
    if not sig:
        raise CorruptTraceError("empty signature")
    spec = F.BY_ID.get(sig[0])
    if spec is None:
        raise CorruptTraceError(f"unknown function id {sig[0]!r}")
    values = sig[1:]
    if len(values) != len(spec.params):
        raise CorruptTraceError(
            f"signature arity mismatch for {spec.name}: "
            f"{len(values)} values vs {len(spec.params)} params")
    return spec.name, {p.name: v for p, v in zip(spec.params, values)}
