"""Point-to-point operations: sends, receives, probes, persistent requests.

Protocol model: ``MPI_Send``/``MPI_Isend`` are *eager* — the message is
injected and the send completes after a sender-side overhead, matching the
behaviour of real MPI for small/medium messages (and keeping naive
exchange patterns deadlock-free, as buffered sends do in practice).
``MPI_Ssend``/``MPI_Issend`` are genuinely synchronous: the send request
completes only when a matching receive consumes the message, so
head-to-head ``Ssend`` pairs deadlock — and the simulator reports it.

Matching follows the standard: per (communicator, receiver) queues, posting
order, wildcards on source and tag, non-overtaking between a given pair.
"""

from __future__ import annotations

from typing import Any, Optional

from . import constants as C
from . import datatypes as dt
from .api_base import ApiBase, CommView
from .comm import Comm, MessageEnvelope
from .errors import InvalidArgumentError, TruncationError
from .future import _UNSET, Future
from .request import Request
from .status import EMPTY, Status

_ANY_SOURCE, _ANY_TAG, _PROC_NULL = C.ANY_SOURCE, C.ANY_TAG, C.PROC_NULL


class ProbeEntry:
    """A pending blocking probe parked in the posted queue (``peer`` and
    ``tag`` as on a posted receive request, so one test matches both)."""

    __slots__ = ("peer", "tag", "future", "post_time")

    def __init__(self, peer: int, tag: int, future: Future, post_time: float):
        self.peer = peer
        self.tag = tag
        self.future = future
        self.post_time = post_time


class ApiP2P(ApiBase):
    """Point-to-point mixin."""

    # -- delivery engine -----------------------------------------------------------

    def _inject(self, view: CommView, comm: Comm, dest: int, tag: int,
                nbytes: int, data: Any, send_req: Optional[Request]) -> None:
        """Deliver a message to *dest* (a peer-group rank) on *comm*: to
        the first matching posted receive, else to the unexpected queue."""
        dst_world = view.peer.ranks[dest]
        src = view.rank
        now = self.clock.now
        posted = comm._posted.get(dst_world)
        if posted:
            i = 0
            while i < len(posted):
                entry = posted[i]
                if (entry.peer == src or entry.peer == _ANY_SOURCE) \
                        and (entry.tag == tag or entry.tag == _ANY_TAG):
                    if entry.__class__ is ProbeEntry:
                        net = self._net
                        arrive = now + (net.alpha + net.beta * nbytes)
                        del posted[i]
                        self._sched.resolve(entry.future, (
                            Status(nbytes, False, src, tag),
                            arrive if arrive > entry.post_time
                            else entry.post_time))
                        continue  # a probe does not consume the message
                    if not entry.freed:
                        del posted[i]
                        self._complete_recv(entry, src, tag, nbytes, data,
                                            now, send_req)
                        return
                i += 1
        unexpected = comm._unexpected.get(dst_world)
        if unexpected is None:
            unexpected = comm.unexpected_queue(dst_world)
        unexpected.append(
            MessageEnvelope(src, tag, nbytes, data, now, send_req))

    def _complete_recv(self, rreq: Request, src: int, tag: int, nbytes: int,
                       data: Any, send_time: float,
                       send_req: Optional[Request]) -> None:
        if nbytes > rreq.nbytes:
            raise TruncationError(
                f"rank {rreq.owner}: message of {nbytes} bytes "
                f"(src={src}, tag={tag}) truncates a "
                f"{rreq.nbytes}-byte receive")
        net = self._net  # NetworkModel.p2p_time, in line
        t = send_time + (net.alpha + net.beta * nbytes)
        if rreq.post_time > t:
            t = rreq.post_time
        events = self._events
        if events is not None:
            wildcard = rreq.peer == _ANY_SOURCE
            events.emit("p2p.match", dst=rreq.owner, src=src,
                        tag=tag, bytes=nbytes, comm=rreq.comm_cid,
                        wildcard=wildcard, vtime=t)
            if wildcard:
                # a wildcard receive resolved to a concrete source — the
                # non-determinism Pilgrim must record to stay lossless
                events.emit("p2p.wildcard", dst=rreq.owner,
                            resolved_src=src, tag=tag, comm=rreq.comm_cid)
        if send_req is not None and send_req._value is _UNSET:
            # synchronous-mode send completes at matching time
            self._sched.complete_request(send_req, Status(*EMPTY), t)
        self._sched.complete_request(rreq, Status(nbytes, False, src, tag),
                                     t, data)

    def _post_recv(self, view: CommView, comm: Comm, source: int, tag: int,
                   nbytes: int, buf: int, datatype: dt.Datatype) -> Request:
        now = self.clock.now
        handle = self._next_req_handle
        self._next_req_handle = handle + 1
        rreq = Request("irecv", self.rank, handle, comm.cid, source, tag,
                       nbytes, datatype.handle, buf, now)
        if source == _PROC_NULL:
            # complete on the spot: nobody can be waiting on it yet
            rreq.status = Status(*EMPTY)
            rreq.complete_time = now
            rreq.active = False
            rreq._value = None
            return rreq
        # try unexpected messages first, in arrival order
        unexpected = view.unexpected
        if unexpected:
            for i, env in enumerate(unexpected):
                if (source == env.src or source == _ANY_SOURCE) \
                        and (tag == env.tag or tag == _ANY_TAG):
                    del unexpected[i]
                    self._complete_recv(rreq, env.src, env.tag, env.nbytes,
                                        env.data, env.send_time,
                                        env.send_req)
                    return rreq
        view.posted.append(rreq)
        return rreq

    def _post_send(self, kind: str, view: CommView, comm: Comm, dest: int,
                   tag: int, nbytes: int, buf: int, datatype: dt.Datatype,
                   data: Any) -> Request:
        clock = self.clock
        handle = self._next_req_handle
        self._next_req_handle = handle + 1
        sreq = Request(kind, self.rank, handle, comm.cid, dest, tag, nbytes,
                       datatype.handle, buf, clock.now)
        if dest != _PROC_NULL:
            net = self._net  # NetworkModel.send_overhead, in line
            cost = net.overhead + net.beta * (
                nbytes if nbytes < 8192 else 8192)
            if cost > 0:
                clock.now += cost
            if kind == "issend":  # completes when a receive matches it
                self._inject(view, comm, dest, tag, nbytes, data, sreq)
                return sreq
            self._inject(view, comm, dest, tag, nbytes, data, None)
        # eager (or to nobody): complete on the spot, nobody waits on it yet
        sreq.status = Status(*EMPTY)
        sreq.complete_time = clock.now
        sreq.active = False
        sreq._value = None
        return sreq

    # -- non-blocking user calls -------------------------------------------------

    def isend(self, buf: int, count: int, datatype: dt.Datatype, dest: int,
              tag: int = 0, comm: Optional[Comm] = None,
              data: Any = None) -> Request:
        comm = comm or self.world
        view = self._check_p2p_args(comm, dest, count, datatype, tag, False)
        t0 = self.clock.now
        self.clock.now = t0 + self._overhead
        req = self._post_send("isend", view, comm, dest, tag,
                              count * datatype.size, buf, datatype, data)
        self._rec("MPI_Isend", t0, (
            buf, count, datatype, dest, tag, comm, req))
        return req

    def issend(self, buf: int, count: int, datatype: dt.Datatype, dest: int,
               tag: int = 0, comm: Optional[Comm] = None,
               data: Any = None) -> Request:
        comm = comm or self.world
        view = self._check_p2p_args(comm, dest, count, datatype, tag, False)
        t0 = self.clock.now
        self.clock.now = t0 + self._overhead
        req = self._post_send("issend", view, comm, dest, tag,
                              count * datatype.size, buf, datatype, data)
        self._rec("MPI_Issend", t0, (
            buf, count, datatype, dest, tag, comm, req))
        return req

    def irecv(self, buf: int, count: int, datatype: dt.Datatype, source: int,
              tag: int = C.ANY_TAG, comm: Optional[Comm] = None, *,
              directed_source: Optional[int] = None) -> Request:
        """``directed_source`` (replay support): match as if posted with
        that concrete source while recording the original wildcard — the
        directed outcome is one MPI could legally have produced."""
        comm = comm or self.world
        view = self._check_p2p_args(comm, source, count, datatype, tag, True)
        t0 = self.clock.now
        self.clock.now = t0 + self._overhead
        match_src = directed_source if (source == _ANY_SOURCE and
                                        directed_source is not None) \
            else source
        req = self._post_recv(view, comm, match_src, tag,
                              count * datatype.size, buf, datatype)
        self._rec("MPI_Irecv", t0, (
            buf, count, datatype, source, tag, comm, req))
        return req

    # -- blocking user calls ---------------------------------------------------------

    def _blocking_send(self, fname: str, kind: str, buf: int, count: int,
                       datatype: dt.Datatype, dest: int, tag: int,
                       comm: Optional[Comm], data: Any):
        comm = comm or self.world
        view = self._check_p2p_args(comm, dest, count, datatype, tag, False)
        clock = self.clock
        t0 = clock.now
        clock.now = t0 + self._overhead
        self._ctx.last_call = fname
        req = self._post_send(kind, view, comm, dest, tag,
                              count * datatype.size, buf, datatype, data)
        if req._value is _UNSET:
            yield req
        if req.complete_time > clock.now:
            clock.now = req.complete_time
        self._rec(fname, t0, (buf, count, datatype, dest, tag, comm))
        return None

    def send(self, buf: int, count: int, datatype: dt.Datatype, dest: int,
             tag: int = 0, comm: Optional[Comm] = None, data: Any = None):
        return self._blocking_send("MPI_Send", "isend", buf, count, datatype,
                                   dest, tag, comm, data)

    def ssend(self, buf: int, count: int, datatype: dt.Datatype, dest: int,
              tag: int = 0, comm: Optional[Comm] = None, data: Any = None):
        return self._blocking_send("MPI_Ssend", "issend", buf, count,
                                   datatype, dest, tag, comm, data)

    def bsend(self, buf: int, count: int, datatype: dt.Datatype, dest: int,
              tag: int = 0, comm: Optional[Comm] = None, data: Any = None):
        return self._blocking_send("MPI_Bsend", "isend", buf, count, datatype,
                                   dest, tag, comm, data)

    def rsend(self, buf: int, count: int, datatype: dt.Datatype, dest: int,
              tag: int = 0, comm: Optional[Comm] = None, data: Any = None):
        return self._blocking_send("MPI_Rsend", "isend", buf, count, datatype,
                                   dest, tag, comm, data)

    def recv(self, buf: int, count: int, datatype: dt.Datatype, source: int,
             tag: int = C.ANY_TAG, comm: Optional[Comm] = None,
             status: Any = True, *, directed_source: Optional[int] = None):
        """Blocking receive. Returns ``(data, Status)``; pass
        ``status=None`` (MPI_STATUS_IGNORE) to skip status recording.
        ``directed_source`` pins a wildcard receive for replay."""
        comm = comm or self.world
        view = self._check_p2p_args(comm, source, count, datatype, tag, True)
        clock = self.clock
        t0 = clock.now
        clock.now = t0 + self._overhead
        self._ctx.last_call = "MPI_Recv"
        match_src = directed_source if (source == _ANY_SOURCE and
                                        directed_source is not None) \
            else source
        req = self._post_recv(view, comm, match_src, tag,
                              count * datatype.size, buf, datatype)
        if req._value is _UNSET:
            yield req
        if req.complete_time > clock.now:
            clock.now = req.complete_time
        st = req.status if status is not None else None
        self._rec("MPI_Recv", t0, (
            buf, count, datatype, source, tag, comm, st))
        return req._value, st

    def sendrecv(self, sendbuf: int, sendcount: int, sendtype: dt.Datatype,
                 dest: int, sendtag: int,
                 recvbuf: int, recvcount: int, recvtype: dt.Datatype,
                 source: int, recvtag: int = C.ANY_TAG,
                 comm: Optional[Comm] = None, status: Any = True,
                 data: Any = None, *,
                 directed_source: Optional[int] = None):
        comm = comm or self.world
        self._check_p2p_args(comm, dest, sendcount, sendtype, sendtag, False)
        view = self._check_p2p_args(comm, source, recvcount, recvtype,
                                    recvtag, True)
        clock = self.clock
        t0 = clock.now
        clock.now = t0 + self._overhead
        self._ctx.last_call = "MPI_Sendrecv"
        match_src = directed_source if (source == _ANY_SOURCE and
                                        directed_source is not None) \
            else source
        rreq = self._post_recv(view, comm, match_src, recvtag,
                               recvcount * recvtype.size, recvbuf, recvtype)
        sreq = self._post_send("isend", view, comm, dest, sendtag,
                               sendcount * sendtype.size, sendbuf, sendtype,
                               data)
        if sreq._value is _UNSET:
            yield sreq
        if rreq._value is _UNSET:
            yield rreq
        done = max(sreq.complete_time, rreq.complete_time)
        if done > clock.now:
            clock.now = done
        st = rreq.status if status is not None else None
        self._rec("MPI_Sendrecv", t0, (
            sendbuf, sendcount, sendtype, dest, sendtag, recvbuf, recvcount,
            recvtype, source, recvtag, comm, st))
        return rreq._value, st

    # -- probes ---------------------------------------------------------------------

    def probe(self, source: int, tag: int = C.ANY_TAG,
              comm: Optional[Comm] = None, *,
              directed_source: Optional[int] = None):
        comm = comm or self.world
        comm.check_usable()
        self._check_peer(comm, source, wildcard_ok=True)
        view = self._views[comm]
        t0 = self._tick()
        self._ctx.last_call = "MPI_Probe"
        match_src = directed_source if (source == _ANY_SOURCE and
                                        directed_source is not None) \
            else source
        st = self._scan_unexpected(view, match_src, tag)
        if st is None:
            fut = Future(("probe(src=%s,tag=%s)@%s rank=%s", source, tag,
                          comm.name, self.rank))
            view.posted.append(
                ProbeEntry(match_src, tag, fut, self.clock.now))
            st, t = yield fut
            self.clock.sync_to(t)
        self._rec("MPI_Probe", t0, (source, tag, comm, st))
        return st

    def iprobe(self, source: int, tag: int = C.ANY_TAG,
               comm: Optional[Comm] = None):
        comm = comm or self.world
        comm.check_usable()
        self._check_peer(comm, source, wildcard_ok=True)
        t0 = self._tick()
        st = self._scan_unexpected(self._views[comm], source, tag)
        flag = st is not None
        self._rec("MPI_Iprobe", t0, (source, tag, comm, flag, st))
        return flag, st

    @staticmethod
    def _scan_unexpected(view: CommView, source: int,
                         tag: int) -> Optional[Status]:
        for env in view.unexpected:
            if (source == env.src or source == _ANY_SOURCE) \
                    and (tag == env.tag or tag == _ANY_TAG):
                return Status(env.nbytes, False, env.src, env.tag)
        return None

    # -- persistent requests ---------------------------------------------------------

    def send_init(self, buf: int, count: int, datatype: dt.Datatype,
                  dest: int, tag: int = 0, comm: Optional[Comm] = None,
                  data: Any = None) -> Request:
        comm = comm or self.world
        view = self._check_p2p_args(comm, dest, count, datatype, tag, False)
        t0 = self._tick()
        req = self._new_request("send_init", comm_cid=comm.cid, peer=dest,
                                tag=tag, nbytes=count * datatype.size,
                                datatype_handle=datatype.handle, buf_addr=buf)
        req.persistent = True
        req.active = False
        req._persistent_start = lambda: self._post_send(
            "isend", view, comm, dest, tag, count * datatype.size, buf,
            datatype, data)
        self._rec("MPI_Send_init", t0, (
            buf, count, datatype, dest, tag, comm, req))
        return req

    def recv_init(self, buf: int, count: int, datatype: dt.Datatype,
                  source: int, tag: int = C.ANY_TAG,
                  comm: Optional[Comm] = None) -> Request:
        comm = comm or self.world
        view = self._check_p2p_args(comm, source, count, datatype, tag, True)
        t0 = self._tick()
        req = self._new_request("recv_init", comm_cid=comm.cid, peer=source,
                                tag=tag, nbytes=count * datatype.size,
                                datatype_handle=datatype.handle, buf_addr=buf)
        req.persistent = True
        req.active = False
        req._persistent_start = lambda: self._post_recv(
            view, comm, source, tag, count * datatype.size, buf, datatype)
        self._rec("MPI_Recv_init", t0, (
            buf, count, datatype, source, tag, comm, req))
        return req

    def start(self, request: Request) -> None:
        request.check_usable()
        if not request.persistent:
            raise InvalidArgumentError("MPI_Start on a non-persistent request")
        if request.active:
            raise InvalidArgumentError("MPI_Start on an active request")
        t0 = self._tick()
        request.current = request._persistent_start()
        request.active = True
        self._rec("MPI_Start", t0, (request,))

    def startall(self, array_of_requests: list[Request]) -> None:
        t0 = self._tick()
        for req in array_of_requests:
            req.check_usable()
            if not req.persistent or req.active:
                raise InvalidArgumentError("MPI_Startall on unstartable request")
            req.current = req._persistent_start()
            req.active = True
        self._rec("MPI_Startall", t0, (
            len(array_of_requests), list(array_of_requests)))

    # -- cancel / free -------------------------------------------------------------

    def cancel(self, request: Request) -> None:
        """Cancel a pending receive (sends are eager and cannot be cancelled
        once injected — matching real-MPI best-effort semantics)."""
        request.check_usable()
        t0 = self._tick()
        target = request.wait_target()
        if (target is not None and not target.done
                and target.kind == "irecv"):
            comm = self.rt.comm_by_cid(target.comm_cid)
            posted = comm.posted_queue(self.rank)
            for i, entry in enumerate(posted):
                if entry is target:
                    del posted[i]
                    target.cancelled = True
                    st = Status(cancelled=True, MPI_SOURCE=C.ANY_SOURCE,
                                MPI_TAG=C.ANY_TAG)
                    self._sched.complete_request(target, st, self.clock.now)
                    break
        self._rec("MPI_Cancel", t0, (request,))

    def request_free(self, request: Request) -> None:
        request.check_usable()
        t0 = self._tick()
        request.freed = True
        self._rec("MPI_Request_free", t0, (request,))

    def request_get_status(self, request: Request):
        request.check_usable()
        t0 = self._tick()
        target = request.wait_target()
        flag = target.done
        st = target.status if flag else None
        self._rec("MPI_Request_get_status", t0, (request, flag, st))
        return flag, st
