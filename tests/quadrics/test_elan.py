"""Integration tests for the Elan3 NIC: RDMA, chaining, host events."""


from repro.quadrics import RdmaDescriptor


def run(qc, *programs):
    procs = [qc.sim.process(p) for p in programs]
    qc.sim.run()
    for proc in procs:
        assert proc.completion.processed, f"{proc} never finished"


def test_zero_byte_rdma_fires_remote_event(qcluster):
    qc = qcluster

    def prog():
        yield from qc.ports[0].trigger_rdma(RdmaDescriptor(dst=1, remote_event="hit"))

    run(qc, prog())
    assert qc.nics[1].event("hit").count == 1
    assert qc.tracer.counters["elan.rdma_issued"] == 1
    assert qc.tracer.counters["elan.event_fired"] == 1


def test_rdma_with_data_crosses_both_pci_buses(qcluster):
    qc = qcluster

    def prog():
        yield from qc.ports[0].trigger_rdma(
            RdmaDescriptor(dst=1, remote_event="data_done", size_bytes=256)
        )

    run(qc, prog())
    assert qc.pcis[0].tracer.counters.get("pci0.dma.host_to_nic", 0) == 1
    assert qc.pcis[1].tracer.counters.get("pci1.dma.nic_to_host", 0) >= 1


def test_chained_rdma_descriptor(qcluster):
    """Arrival at node 1 triggers a pre-armed RDMA to node 2 (§7)."""
    qc = qcluster
    qc.nics[1].chain("incoming", 1, RdmaDescriptor(dst=2, remote_event="final"))

    def prog():
        yield from qc.ports[0].trigger_rdma(
            RdmaDescriptor(dst=1, remote_event="incoming")
        )

    run(qc, prog())
    assert qc.nics[2].event("final").count == 1


def test_chain_of_three_hops_accumulates_latency(qcluster):
    qc = qcluster
    qc.nics[1].chain("s1", 1, RdmaDescriptor(dst=2, remote_event="s2"))
    qc.nics[2].chain("s2", 1, RdmaDescriptor(dst=3, remote_event="s3"))
    arrival_time = []
    qc.nics[3].event("s3").arm(1, lambda: arrival_time.append(qc.sim.now))

    single_hop_time = []
    qc.nics[1].event("single").arm(1, lambda: single_hop_time.append(qc.sim.now))

    def prog():
        yield from qc.ports[0].trigger_rdma(RdmaDescriptor(dst=1, remote_event="single"))
        start = qc.sim.now
        yield from qc.ports[0].trigger_rdma(RdmaDescriptor(dst=1, remote_event="s1"))
        return start

    run(qc, prog())
    assert len(arrival_time) == 1
    # Three wire hops + two chained triggers must cost clearly more than one hop.
    assert arrival_time[0] > single_hop_time[0]


def test_local_event_set_after_injection(qcluster):
    qc = qcluster

    def prog():
        yield from qc.ports[0].trigger_rdma(
            RdmaDescriptor(dst=1, remote_event="r", local_event="sent")
        )

    run(qc, prog())
    assert qc.nics[0].event("sent").count == 1


def test_arm_host_notify_delivers_to_host(qcluster):
    qc = qcluster
    qc.nics[1].arm_host_notify("done", 1, value=("barrier", 7))
    got = []

    def sender():
        yield from qc.ports[0].trigger_rdma(RdmaDescriptor(dst=1, remote_event="done"))

    def waiter():
        ev = yield from qc.ports[1].recv_matching(lambda e: e == ("barrier", 7))
        got.append((ev, qc.sim.now))

    run(qc, sender(), waiter())
    assert got and got[0][0] == ("barrier", 7)


def test_rdma_packets_counted_on_wire(qcluster):
    qc = qcluster

    def prog():
        yield from qc.ports[0].trigger_rdma(RdmaDescriptor(dst=1, remote_event="x"))

    run(qc, prog())
    assert qc.tracer.counters["wire.rdma"] == 1
