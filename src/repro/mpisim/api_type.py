"""Datatype construction calls plus small environment queries.

Derived-datatype creation calls are traced with their full recipes so the
tracer can associate, e.g., a ``MPI_Type_indexed`` creation with later
``MPI_Send`` uses through the symbolic id (§3.3's ``MPI_Type_indexed``
example).
"""

from __future__ import annotations

from typing import Sequence

from . import datatypes as dt
from .api_base import ApiBase
from .status import Status


class ApiType(ApiBase):
    """Datatype/environment mixin."""

    def type_contiguous(self, count: int, oldtype: dt.Datatype) -> dt.Datatype:
        t0 = self._tick()
        newtype = self.types.contiguous(count, oldtype)
        self._rec("MPI_Type_contiguous", t0, (count, oldtype, newtype))
        return newtype

    def type_vector(self, count: int, blocklength: int, stride: int,
                    oldtype: dt.Datatype) -> dt.Datatype:
        t0 = self._tick()
        newtype = self.types.vector(count, blocklength, stride, oldtype)
        self._rec("MPI_Type_vector", t0, (
            count, blocklength, stride, oldtype, newtype))
        return newtype

    def type_indexed(self, array_of_blocklengths: Sequence[int],
                     array_of_displacements: Sequence[int],
                     oldtype: dt.Datatype) -> dt.Datatype:
        t0 = self._tick()
        newtype = self.types.indexed(array_of_blocklengths,
                                     array_of_displacements, oldtype)
        self._rec("MPI_Type_indexed", t0, (
            len(array_of_blocklengths), tuple(array_of_blocklengths),
            tuple(array_of_displacements), oldtype, newtype))
        return newtype

    def type_create_struct(self, array_of_blocklengths: Sequence[int],
                           array_of_displacements: Sequence[int],
                           array_of_types: Sequence[dt.Datatype]
                           ) -> dt.Datatype:
        t0 = self._tick()
        newtype = self.types.struct(array_of_blocklengths,
                                    array_of_displacements, array_of_types)
        self._rec("MPI_Type_create_struct", t0, (
            len(array_of_blocklengths), tuple(array_of_blocklengths),
            tuple(array_of_displacements), tuple(array_of_types), newtype))
        return newtype

    def type_commit(self, datatype: dt.Datatype) -> None:
        t0 = self._tick()
        self.types.commit(datatype)
        self._rec("MPI_Type_commit", t0, (datatype,))

    def type_free(self, datatype: dt.Datatype) -> None:
        t0 = self._tick()
        self.types.free(datatype)
        self._rec("MPI_Type_free", t0, (datatype,))

    def type_size(self, datatype: dt.Datatype) -> int:
        t0 = self._tick()
        size = datatype.size
        self._rec("MPI_Type_size", t0, (datatype, size))
        return size

    def type_get_extent(self, datatype: dt.Datatype) -> tuple[int, int]:
        t0 = self._tick()
        lb, extent = 0, datatype.extent
        self._rec("MPI_Type_get_extent", t0, (datatype, lb, extent))
        return lb, extent

    def get_count(self, status: Status, datatype: dt.Datatype) -> int:
        t0 = self._tick()
        count = status.get_count(datatype.size)
        self._rec("MPI_Get_count", t0, (status, datatype, count))
        return count

    # -- environment -----------------------------------------------------------

    def abort(self, comm=None, errorcode: int = 1) -> None:
        """``MPI_Abort``: terminate the whole simulated job.  Recorded
        first (a tracer must see the call), then the run is torn down by
        raising out of the calling rank."""
        from .errors import MpiSimError
        comm = comm or self.world
        t0 = self._tick()
        self._rec("MPI_Abort", t0, (comm, errorcode))
        raise MpiSimError(
            f"MPI_Abort called on rank {self.rank} with errorcode "
            f"{errorcode}")

    def initialized(self) -> bool:
        t0 = self._tick()
        self._rec("MPI_Initialized", t0, (True,))
        return True

    def get_processor_name(self) -> str:
        t0 = self._tick()
        name = f"simnode{self.rank // self.rt.node_size:04d}"
        self._rec("MPI_Get_processor_name", t0, (name, len(name)))
        return name
