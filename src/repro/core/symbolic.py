"""Symbolic id management for MPI objects and memory (§3.3, §3.4.3).

Pilgrim never stores raw handles or addresses: every opaque object gets a
locally-unique small symbolic id drawn from a pool of free ids, returned
to the pool when the object is released.  Processes that create objects
in the same order therefore assign the same ids — the property the
inter-process compression feeds on.

Three flavours live here:

* :class:`IdPool` — lowest-free-id allocator (a heap of revoked ids plus
  a high-water counter), so reuse is deterministic.
* :class:`ObjectIdTable` — key → symbolic id mapping over one pool, for
  datatypes, groups, and memory segments.
* :class:`RequestIdAllocator` — the paper's fix for non-deterministic
  request completion order: one pool *per creation signature* (request
  argument excluded), so the k-th outstanding request of a given
  signature always carries the same id, regardless of completion order.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Hashable, Optional


class IdPool:
    """Hands out the smallest free non-negative id."""

    __slots__ = ("_free", "_next")

    def __init__(self) -> None:
        self._free: list[int] = []
        self._next = 0

    def acquire(self) -> int:
        if self._free:
            return heapq.heappop(self._free)
        nid = self._next
        self._next += 1
        return nid

    def release(self, nid: int) -> None:
        heapq.heappush(self._free, nid)

    @property
    def high_water(self) -> int:
        """Total distinct ids ever created (the paper's observation is
        that this stays small when applications reuse/free objects)."""
        return self._next


class ObjectIdTable:
    """key → symbolic id over a single IdPool."""

    __slots__ = ("_ids", "_pool")

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._pool = IdPool()

    def lookup(self, key: Hashable) -> Optional[int]:
        return self._ids.get(key)

    def assign(self, key: Hashable) -> int:
        if key in self._ids:
            raise KeyError(f"key {key!r} already has symbolic id")
        sid = self._pool.acquire()
        self._ids[key] = sid
        return sid

    def lookup_or_assign(self, key: Hashable) -> int:
        sid = self._ids.get(key)
        if sid is None:
            sid = self._pool.acquire()
            self._ids[key] = sid
        return sid

    def release(self, key: Hashable) -> int:
        sid = self._ids.pop(key)
        self._pool.release(sid)
        return sid

    @property
    def live_count(self) -> int:
        return len(self._ids)

    @property
    def high_water(self) -> int:
        return self._pool.high_water


class RequestIdAllocator:
    """Per-signature request id pools (§3.4.3).

    A request's symbolic id is the pair ``(pool_index, slot)`` where
    ``pool_index`` identifies the creation signature (in order of first
    appearance on this rank — identical across ranks for SPMD codes) and
    ``slot`` is drawn from that signature's own free-id pool.
    """

    __slots__ = ("_pool_index", "_pools", "_active", "_refs")

    def __init__(self) -> None:
        #: creation signature -> dense pool index
        self._pool_index: dict[tuple, int] = {}
        self._pools: list[IdPool] = []
        #: live request identity -> (pool index, slot)
        self._active: dict[int, tuple[int, int]] = {}
        #: strong references to live request objects: ids are keyed by
        #: ``id(request)``, so without a reference a garbage-collected
        #: (e.g. fire-and-forget isend) request would let a NEW object at
        #: the same address alias its symbolic id
        self._refs: dict[int, object] = {}

    def pool_of(self, creation_sig: tuple) -> int:
        """The dense index of *creation_sig*'s pool, opened on first sight
        (so indices follow first *creation*, not first mention)."""
        idx = self._pool_index.get(creation_sig)
        if idx is None:
            idx = self._pool_index[creation_sig] = len(self._pools)
            self._pools.append(IdPool())
        return idx

    def create(self, idx: int, request_key: int,
               ref: object = None) -> tuple[int, int]:
        """Assign an id from pool *idx* when a request-producing call is
        recorded."""
        pool = self._pools[idx]
        # inlined IdPool.acquire — request creation is on the tracing
        # hot path and the extra call frame is measurable there
        if pool._free:
            slot = heappop(pool._free)
        else:
            slot = pool._next
            pool._next = slot + 1
        sym = (idx, slot)
        self._active[request_key] = sym
        if ref is not None:
            self._refs[request_key] = ref
        return sym

    def on_create(self, request_key: int, creation_sig: tuple,
                  ref: object = None) -> tuple[int, int]:
        """:meth:`create` in the pool of *creation_sig*."""
        return self.create(self.pool_of(creation_sig), request_key, ref)

    def lookup(self, request_key: int) -> Optional[tuple[int, int]]:
        return self._active.get(request_key)

    def on_release(self, request_key: int) -> Optional[tuple[int, int]]:
        """Free the id when the request completes (Wait/Test success) or
        is explicitly freed.  Unknown requests are ignored (e.g. already
        released by an earlier Waitany consuming it)."""
        sym = self._active.pop(request_key, None)
        self._refs.pop(request_key, None)
        if sym is not None:
            # inlined IdPool.release (hot path, see on_create)
            heappush(self._pools[sym[0]]._free, sym[1])
        return sym

    @property
    def n_pools(self) -> int:
        return len(self._pools)

    @property
    def live_count(self) -> int:
        return len(self._active)
