"""A minimal MPI-style facade over the NIC-based collectives.

The paper's stated integration target is a message-passing library
("we plan to incorporate this barrier algorithm into LA-MPI", §9).
This package provides that shape: a communicator whose ``barrier()``,
``bcast()`` and ``allgather()`` ride the NIC-based engines, with
automatic operation sequencing — callers never touch sequence numbers.

Usage (host processes are simulation generators)::

    from repro.cluster import build_myrinet_cluster
    from repro.mpi import create_communicators

    cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=8)
    comms = create_communicators(cluster)

    def program(comm):
        yield from comm.barrier()
        data = yield from comm.bcast(value="hello", size_bytes=64)
        gathered = yield from comm.allgather(comm.rank * 10)

    for comm in comms:
        cluster.sim.process(program(comm))
    cluster.sim.run()
"""

from repro.mpi.communicator import (
    MyrinetRankComm,
    QuadricsRankComm,
    create_communicators,
    repair_communicators,
)

__all__ = [
    "create_communicators",
    "MyrinetRankComm",
    "QuadricsRankComm",
    "repair_communicators",
]
