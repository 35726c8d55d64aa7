"""``repro.replay`` — trace replay, what-if divergence, mini-app
generation (paper §6).

* :func:`replay_trace` — re-execute a Pilgrim trace on a fresh simulated
  world, completing non-blocking operations in the recorded order (the
  fixed-point check); built on :func:`build_rank_programs` /
  :func:`run_replay`, the shared entry points.
* :func:`run_divergence` / :class:`ReplayOptions` /
  :class:`ReplayResult` — what-if re-execution under modified conditions
  (alpha–beta network overrides, seeded scheduler faults, rank-count
  extrapolation) with a lockstep :class:`LockstepComparator` producing a
  first-divergence-per-rank :class:`DivergenceReport`.  The public
  facade is :func:`repro.api.replay`.
* :func:`generate_miniapp` — emit a standalone Python proxy program with
  the same communication pattern as the trace (the paper's planned
  "mini-app generator").
"""

from .codegen import generate_miniapp, load_miniapp
from .comparator import (DIVERGENCE_REPORT_SCHEMA, DivergencePoint,
                         DivergenceReport, LockstepComparator)
from .divergence import (ExtrapolationError, ReplayOptions, ReplayResult,
                         parse_net, run_divergence)
from .engine import (RankReplayer, ReplayState, build_rank_programs,
                     replay_trace, run_replay, structurally_equal)

__all__ = [
    "DIVERGENCE_REPORT_SCHEMA", "DivergencePoint", "DivergenceReport",
    "ExtrapolationError", "LockstepComparator", "RankReplayer",
    "ReplayOptions", "ReplayResult", "ReplayState",
    "build_rank_programs", "generate_miniapp", "load_miniapp",
    "parse_net", "replay_trace", "run_divergence", "run_replay",
    "structurally_equal",
]
