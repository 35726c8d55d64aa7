"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries
— *what* goes wrong (``kind``), *where* (``site``), *how often*
(``times``/``probability``) and optionally *to whom* (``rank``).  An
armed :class:`FaultInjector` replays the plan deterministically: one
seeded RNG drives every probabilistic decision and every corruption
offset, so a (workload, seed, plan) triple always fails the same way.
That determinism is what makes the chaos property testable — a failed
chaos case can be re-run byte-for-byte.

Injection sites (consulted by the pipeline, the tracer, and the
simulated-MPI scheduler):

==================  =======================================================
``shard.freeze``    freezing one rank's compressor into a shard
``merge``           absorbing one rank's shard into the reduce
``serialize``       the final CFG merge + on-disk serialization
``sched``           the simulator's rank scheduler (``delay``/``drop``)
==================  =======================================================

Fault kinds:

================  =========================================================
``oserror``       raise :class:`InjectedOSError` (transient I/O failure)
``memoryerror``   raise :class:`InjectedMemoryError` (allocation failure)
``kill``          raise :class:`WorkerDiedError` (the worker process died)
``stall``         raise :class:`WorkerStallError` (deadline expired on a
                  hung worker)
``corrupt``       flip one bit of the artifact's serialized payload
``truncate``      cut the artifact's serialized bytes short
``delay``         requeue the resumed rank at the scheduler tail
``drop``          suppress one runtime-event emission
================  =========================================================

When no plan is armed every injection point is a ``None`` check —
measured as a no-op on the hot paths (the ``repro bench`` CI gate covers
this).

This module is intentionally stdlib-only (no ``repro.core`` imports) so
the core pipeline can depend on it without import cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

ERROR_KINDS = frozenset({"oserror", "memoryerror", "kill", "stall"})
BYTE_KINDS = frozenset({"corrupt", "truncate"})
SCHED_KINDS = frozenset({"delay", "drop"})
KINDS = ERROR_KINDS | BYTE_KINDS | SCHED_KINDS

#: sites a spec may name
SITES = ("shard.freeze", "merge", "serialize", "sched")

#: ``times`` value meaning "never exhausts" (a permanent fault)
FOREVER = -1

#: corruption never touches the first bytes of an artifact: the fixed
#: header (magic/version/flags) and the tiny base_rank/nranks varints are
#: not CRC-protected, and a flip there could *silently* change meaning
#: instead of being detected.  Payload sections are all checksummed, so
#: any flip past this offset is guaranteed to be caught.
_CORRUPT_HEADER_SKIP = 16


class FaultError(Exception):
    """Base of every injected failure (mixed into concrete classes)."""


class InjectedOSError(FaultError, OSError):
    """A transient I/O failure raised at an injection point."""


class InjectedMemoryError(FaultError, MemoryError):
    """A transient allocation failure raised at an injection point."""


class WorkerDiedError(FaultError, RuntimeError):
    """A merge/freeze worker died mid-task (modelled, not a real crash)."""


class WorkerStallError(WorkerDiedError):
    """A worker hung past its deadline; treated like a death and retried."""


_ERROR_CLASSES = {
    "oserror": InjectedOSError,
    "memoryerror": InjectedMemoryError,
    "kill": WorkerDiedError,
    "stall": WorkerStallError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault: *kind* at *site*, firing up to *times* times."""

    kind: str
    site: str
    #: fires this many times then passes; FOREVER (-1) never exhausts
    times: int = 1
    #: restrict to one rank (every site but serialize carries one)
    rank: Optional[int] = None
    #: chance of firing per opportunity (drawn from the plan's seeded RNG)
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {sorted(KINDS)}")
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"known: {SITES}")
        if (self.kind in SCHED_KINDS) != (self.site == "sched"):
            raise ValueError(f"{self.kind!r} cannot target {self.site!r}: "
                             f"'sched' takes 'delay' and 'drop' only")
        if self.times == 0 or self.times < FOREVER:
            raise ValueError(f"times must be positive or FOREVER (-1), "
                             f"got {self.times}")
        if self.times == FOREVER and self.kind in SCHED_KINDS:
            raise ValueError("scheduler faults must be bounded "
                             "(times=FOREVER would livelock the run)")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], "
                             f"got {self.probability}")

    def matches(self, site: str, rank: Optional[int]) -> bool:
        return self.site == site and (self.rank is None or rank is None
                                      or self.rank == rank)

    def describe(self) -> str:
        out = f"{self.kind}@{self.site}"
        if self.times != 1:
            out += f"*{'forever' if self.times == FOREVER else self.times}"
        if self.rank is not None:
            out += f":rank={self.rank}"
        if self.probability < 1.0:
            out += f":p={self.probability:g}"
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative set of faults to inject into one run."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def empty(self) -> bool:
        return not self.specs

    def describe(self) -> str:
        body = "; ".join(s.describe() for s in self.specs) or "<empty>"
        return f"FaultPlan(seed={self.seed}: {body})"

    # -- construction --------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse the CLI spec syntax: ``kind@site[*times][:key=val]...``
        entries separated by ``;``.

        Examples::

            oserror@shard.freeze*2
            kill@merge:rank=3
            corrupt@shard.freeze:rank=1
            kill@shard.freeze*forever:rank=2      (permanent -> degraded)
            delay@sched*8; drop@sched*4
        """
        specs = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            head, *opts = chunk.split(":")
            if "@" not in head:
                raise ValueError(
                    f"bad fault spec {chunk!r}: expected kind@site")
            kind, site = head.split("@", 1)
            times = 1
            if "*" in site:
                site, times_s = site.split("*", 1)
                times = FOREVER if times_s == "forever" else int(times_s)
            kwargs: dict = {}
            for opt in opts:
                if "=" not in opt:
                    raise ValueError(f"bad fault option {opt!r} in {chunk!r}")
                k, v = opt.split("=", 1)
                if k == "rank":
                    kwargs["rank"] = int(v)
                elif k in ("p", "probability"):
                    kwargs["probability"] = float(v)
                elif k == "times":
                    kwargs["times"] = FOREVER if v == "forever" else int(v)
                else:
                    raise ValueError(f"unknown fault option {k!r}")
            if "times" not in kwargs:
                kwargs["times"] = times
            specs.append(FaultSpec(kind.strip(), site.strip(), **kwargs))
        return cls(specs=tuple(specs), seed=seed)

    @classmethod
    def random(cls, seed: int, nprocs: int = 8,
               allow_permanent: bool = True) -> "FaultPlan":
        """A deterministic pseudo-random plan for the chaos matrix.

        Transient faults are drawn from every site; permanent (rank-
        losing) faults are always pinned to a specific rank so the run
        degrades instead of collapsing entirely.  Serialize faults are
        kept below the default retry budget — an unserializable trace is
        the one failure this system cannot degrade around.
        """
        rng = random.Random(seed)
        vocab = [
            lambda: FaultSpec("oserror", "shard.freeze",
                              times=rng.randint(1, 2),
                              rank=rng.randrange(nprocs)
                              if rng.random() < 0.5 else None),
            lambda: FaultSpec("memoryerror", "shard.freeze",
                              times=rng.randint(1, 2)),
            lambda: FaultSpec("corrupt", "shard.freeze",
                              rank=rng.randrange(nprocs)),
            lambda: FaultSpec("truncate", "shard.freeze",
                              rank=rng.randrange(nprocs)),
            lambda: FaultSpec("kill", "merge", times=rng.randint(1, 3)),
            lambda: FaultSpec("stall", "merge", times=rng.randint(1, 2)),
            lambda: FaultSpec("kill", "merge", rank=rng.randrange(nprocs),
                              times=rng.randint(1, 2)),
            lambda: FaultSpec("oserror", "serialize", times=1),
            lambda: FaultSpec("memoryerror", "serialize", times=1),
            lambda: FaultSpec("delay", "sched", times=rng.randint(1, 16)),
            lambda: FaultSpec("drop", "sched", times=rng.randint(1, 4)),
        ]
        if allow_permanent:
            vocab.append(lambda: FaultSpec(
                "kill", "shard.freeze", times=FOREVER,
                rank=rng.randrange(nprocs)))
        n = rng.randint(1, 3)
        return cls(specs=tuple(rng.choice(vocab)() for _ in range(n)),
                   seed=seed)


class FaultInjector:
    """An armed :class:`FaultPlan`: consulted at every injection point,
    firing deterministically from the plan's seed.

    One injector instance is shared by everything participating in a run
    (scheduler, tracer, pipeline), so the sequence of fires — and thus
    the failure the run experiences — is a pure function of
    (program, seed, plan)."""

    __slots__ = ("plan", "rng", "_remaining", "fired")

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self._remaining = [s.times for s in plan.specs]
        #: audit log of every fired fault, for diagnostics and reports
        self.fired: list[str] = []

    @property
    def wants_sched(self) -> bool:
        """Whether the scheduler needs to consult this injector at all
        (False keeps the scheduler loop entirely fault-free)."""
        return any(s.site == "sched" for s in self.plan.specs)

    @property
    def exhausted(self) -> bool:
        return all(r == 0 for r in self._remaining)

    def _take(self, site: str, rank: Optional[int],
              kinds: frozenset) -> Optional[FaultSpec]:
        for i, spec in enumerate(self.plan.specs):
            if self._remaining[i] == 0 or spec.kind not in kinds:
                continue
            if not spec.matches(site, rank):
                continue
            if spec.probability < 1.0 and \
                    self.rng.random() >= spec.probability:
                continue
            if self._remaining[i] > 0:
                self._remaining[i] -= 1
            where = site if rank is None else f"{site}[rank={rank}]"
            self.fired.append(f"{spec.kind}@{where}")
            return spec
        return None

    # -- injection points ----------------------------------------------------------

    def raise_failure(self, site: str, rank: Optional[int] = None) -> None:
        """Error-kind injection: raises if an error fault fires here."""
        spec = self._take(site, rank, ERROR_KINDS)
        if spec is not None:
            raise _ERROR_CLASSES[spec.kind](
                f"injected {spec.kind} at {site}"
                + (f" (rank {rank})" if rank is not None else ""))

    def corrupt_bytes(self, site: str, data: bytes,
                      rank: Optional[int] = None) -> Optional[bytes]:
        """Byte-kind injection: a damaged copy of *data*, or None when no
        corruption fault fires here.  Damage always lands where the
        format's CRC/length checks are guaranteed to catch it."""
        spec = self._take(site, rank, BYTE_KINDS)
        if spec is None:
            return None
        n = len(data)
        if spec.kind == "truncate":
            lo = min(_CORRUPT_HEADER_SKIP, n - 1) if n > 1 else 0
            return data[:self.rng.randrange(lo, n)] if n else data
        if n <= _CORRUPT_HEADER_SKIP:
            return data + b"\xff"  # too small to flip safely: grow instead
        off = self.rng.randrange(_CORRUPT_HEADER_SKIP, n)
        mut = bytearray(data)
        mut[off] ^= 1 << self.rng.randrange(8)
        return bytes(mut)

    def sched_action(self, rank: int) -> Optional[str]:
        """Scheduler injection: ``"delay"``, ``"drop"`` or None."""
        spec = self._take("sched", rank, SCHED_KINDS)
        return spec.kind if spec is not None else None


def arm(plan) -> Optional[FaultInjector]:
    """Normalize a plan-or-injector-or-None into an injector-or-None."""
    if plan is None:
        return None
    if isinstance(plan, FaultInjector):
        return plan
    if isinstance(plan, FaultPlan):
        return FaultInjector(plan) if plan.specs else None
    raise TypeError(f"expected FaultPlan or FaultInjector, "
                    f"got {type(plan).__name__}")

