"""``MPI_Status`` objects.

The simulator fills all five fields of the standard's status structure.
Pilgrim (the tracer) then deliberately keeps only ``MPI_SOURCE`` and
``MPI_TAG`` (§3.3.2) — that filtering lives in the tracer, not here, so
the substrate itself stays lossless.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import constants as C


@dataclass(slots=True)
class Status:
    """Completion information for a receive (or other completed operation).

    Built positionally where calls complete: ``Status(nbytes, False, src,
    tag)``, ``Status(*EMPTY)``."""

    count: int = 0          # number of received *bytes* (MPI: typed entries)
    cancelled: bool = False
    MPI_SOURCE: int = C.ANY_SOURCE
    MPI_TAG: int = C.ANY_TAG
    MPI_ERROR: int = C.SUCCESS

    def get_count(self, datatype_size: int) -> int:
        """``MPI_Get_count``: element count for the given datatype size."""
        if datatype_size <= 0:
            return 0
        if self.count % datatype_size != 0:
            return C.UNDEFINED
        return self.count // datatype_size


#: ``Status(*EMPTY)``: the status of an operation on ``MPI_PROC_NULL`` or
#: a null request (the standard's 'empty' status: source=PROC_NULL,
#: tag=ANY_TAG, count=0), its fields in constructor order
EMPTY = (0, False, C.PROC_NULL, C.ANY_TAG, C.SUCCESS)
