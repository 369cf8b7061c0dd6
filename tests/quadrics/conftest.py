"""Shared fixtures: a minimal Quadrics/Elan3 test cluster."""

import pytest

from repro.host import HostCpu, HostParams
from repro.network import Fabric, WireParams
from repro.pci import PciBus, PciParams
from repro.quadrics import Elan3Nic, ElanParams, ElanPort, HardwareBarrier
from repro.sim import Simulator, Tracer
from repro.topology import QuaternaryFatTree

TEST_ELAN = ElanParams(
    t_event_fire=0.5,
    t_rdma_issue=0.5,
    t_pio_command=0.2,
    t_host_event=0.3,
    t_hw_flag_check=0.2,
    hw_retry_backoff_us=5.0,
)

TEST_WIRE = WireParams(
    inject_us=0.05,
    switch_latency_us=0.1,
    propagation_us=0.02,
    bandwidth_bytes_per_us=400.0,
)

TEST_PCI = PciParams(pio_write_us=0.3, dma_setup_us=0.3, bandwidth_bytes_per_us=500.0)

TEST_HOST = HostParams(
    send_overhead_us=0.4,
    recv_overhead_us=0.3,
    poll_us=0.2,
    poll_interval_us=0.4,
    barrier_call_us=0.2,
)


class QuadricsTestCluster:
    def __init__(self, n=8, elan=TEST_ELAN, faults=None, sim=None):
        self.sim = sim if sim is not None else Simulator()
        self.tracer = Tracer()
        self.topology = QuaternaryFatTree(n)
        self.fabric = Fabric(
            self.sim, self.topology, TEST_WIRE, tracer=self.tracer, faults=faults
        )
        self.pcis = [
            PciBus(self.sim, TEST_PCI, name=f"pci{i}", tracer=self.tracer)
            for i in range(n)
        ]
        self.cpus = [HostCpu(self.sim, TEST_HOST, node_id=i) for i in range(n)]
        self.nics = [
            Elan3Nic(self.sim, i, elan, self.fabric, self.pcis[i], tracer=self.tracer)
            for i in range(n)
        ]
        self.ports = [
            ElanPort(self.sim, i, self.nics[i], self.cpus[i], self.pcis[i])
            for i in range(n)
        ]
        self.elan = elan

    def hardware_barrier(self, ranks=None):
        return HardwareBarrier(
            self.sim,
            self.topology,
            TEST_WIRE,
            ranks if ranks is not None else range(len(self.nics)),
            t_flag_check_us=TEST_ELAN.t_hw_flag_check,
            retry_backoff_us=TEST_ELAN.hw_retry_backoff_us,
        )


@pytest.fixture
def qcluster():
    return QuadricsTestCluster()
