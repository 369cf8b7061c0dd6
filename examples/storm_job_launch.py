#!/usr/bin/env python
"""STORM-style job launch on NIC collectives (§9's last target).

The paper closes: "we intend to incorporate this NIC-based barrier,
along with the NIC-based broadcast into a resource management framework
(e.g. STORM) to investigate their benefits in increasing the resource
utilization and the efficiency of resource management."

STORM's insight (Frachtenberg et al., SC'02) was that job launch and
scheduling are *collective* operations: send the binary/environment to
all nodes (broadcast), synchronize the start (barrier), collect the
exit status (gather).  This example stages a batch of simulated job
launches over the NIC collectives and over host-driven messaging, and
compares launch latencies — the management-plane efficiency the paper
wanted to investigate.

Run:  python examples/storm_job_launch.py
"""

from repro.cluster import build_myrinet_cluster
from repro.collectives import ProcessGroup, host_barrier
from repro.collectives.algorithms import binomial_children, binomial_parent
from repro.mpi import create_communicators
from repro.myrinet.gm_api import GmRecvEvent

NODES = 8
JOB_IMAGE_BYTES = 4096  # environment + launch descriptor
JOBS = 5


def nic_launcher():
    """Job launch over NIC collectives: bcast image -> barrier -> gather."""
    cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=NODES)
    comms = create_communicators(cluster)
    launch_times = []

    def node_manager(comm):
        for job in range(JOBS):
            start = cluster.sim.now
            descriptor = yield from comm.bcast(
                value={"job": job, "cmd": "ring_app"} if comm.rank == 0 else None,
                size_bytes=JOB_IMAGE_BYTES,
            )
            # Simulated fork/exec setup on the host.
            yield from cluster.cpus[comm.node].compute(5.0)
            yield from comm.barrier()  # synchronized job start
            statuses = yield from comm.allgather(0)  # exit codes
            assert set(statuses.values()) == {0}
            if comm.rank == 0:
                launch_times.append(cluster.sim.now - start)

    procs = [cluster.sim.process(node_manager(c)) for c in comms]
    cluster.sim.run()
    assert all(p.completion.processed for p in procs)
    return launch_times


def _recv_tagged(port, tag):
    """Wait for the GM message carrying ``tag``; others stay queued."""
    event = yield from port.recv_matching(
        lambda ev: isinstance(ev, GmRecvEvent)
        and isinstance(ev.payload, tuple)
        and ev.payload[0] == tag
    )
    return event.payload[1]


def host_launcher():
    """The same management plane over host-driven GM messaging: the
    image goes down a binomial tree, one GM send per hop, and every
    node sends its exit status to node 0."""
    cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=NODES)
    group = ProcessGroup(list(range(NODES)))
    launch_times = []

    def node_manager(node):
        port = cluster.ports[node]
        for job in range(JOBS):
            start = cluster.sim.now
            descriptor = {"job": job, "cmd": "ring_app"}
            if binomial_parent(node, NODES) is not None:
                descriptor = yield from _recv_tagged(port, ("image", job, node))
            for child in binomial_children(node, NODES):
                yield from port.send(
                    child, JOB_IMAGE_BYTES,
                    payload=(("image", job, child), descriptor),
                )
            yield from cluster.cpus[node].compute(5.0)
            yield from host_barrier(port, group, job)
            if node != 0:
                yield from port.send(0, 4, payload=(("status", job), 0))
                continue
            for _ in range(NODES - 1):
                status = yield from _recv_tagged(port, ("status", job))
                assert status == 0
            launch_times.append(cluster.sim.now - start)

    procs = [cluster.sim.process(node_manager(i)) for i in range(NODES)]
    cluster.sim.run()
    assert all(p.completion.processed for p in procs)
    return launch_times


def main() -> None:
    nic_times = nic_launcher()
    host_times = host_launcher()
    nic_mean = sum(nic_times) / len(nic_times)
    host_mean = sum(host_times) / len(host_times)
    print(f"{NODES}-node job launch (bcast {JOB_IMAGE_BYTES}B image + "
          f"sync + status gather), {JOBS} jobs:\n")
    print(f"  NIC collectives : {nic_mean:8.2f} us per launch")
    print(f"  host-driven     : {host_mean:8.2f} us per launch")
    print(f"  speedup         : {host_mean / nic_mean:8.2f}x\n")
    print("The management plane rides the same offload win as MPI_Barrier —")
    print("exactly the STORM integration benefit the paper hypothesized.")


if __name__ == "__main__":
    main()
