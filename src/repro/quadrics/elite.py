"""Elite switch hardware barrier (the machinery behind ``elan_hgsync``).

QsNet's hardware barrier is an atomic test-and-set performed through the
switch fabric: the root repeatedly broadcasts a *test* probing every
NIC's arrived flag, the replies combine in the Elite switches on the way
up, and once every participant has arrived a *set/release* broadcast
lets everyone exit.  The paper (§8.2) notes two consequences this model
reproduces mechanically:

- the test-and-set needs "a higher number of network transactions" than
  a chained-RDMA barrier, so at small node counts the NIC-based barrier
  *beats* the hardware barrier;
- the probe only passes when callers are synchronized — a straggler
  forces retry rounds (backoff), which is why ``elan_hgsync`` "requires
  that the calling processes are well synchronized".

The switch-side combining is abstracted into a controller that samples
every NIC's arrived flag at the instant the probe would reach it; the
up/down traversal latencies come from the real fat-tree hop counts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from typing import Optional

from repro.network.fabric import WireParams
from repro.sim import Simulator, Store, Tracer
from repro.topology.fat_tree import QuaternaryFatTree


class HardwareBarrier:
    """The fabric-resident test-and-set barrier controller."""

    def __init__(
        self,
        sim: Simulator,
        topology: QuaternaryFatTree,
        wire: WireParams,
        ranks: Iterable[int],
        t_flag_check_us: float,
        retry_backoff_us: float,
        tracer: Optional[Tracer] = None,
        max_rounds: int = 10000,
        backoff_factor: float = 1.0,
        backoff_cap_us: float = 0.0,
    ):
        self.sim = sim
        self.topology = topology
        self.wire = wire
        self.tracer = tracer or Tracer()
        self.ranks = tuple(ranks)
        if not self.ranks:
            raise ValueError("hardware barrier needs at least one participant")
        if max_rounds < 1:
            raise ValueError("need at least one probe round")
        self.t_flag_check_us = t_flag_check_us
        self.retry_backoff_us = retry_backoff_us
        self.max_rounds = max_rounds
        self.backoff_factor = backoff_factor
        self.backoff_cap_us = backoff_cap_us
        self._arrived: dict[int, set[int]] = defaultdict(set)
        self._release: dict[int, Store] = {
            rank: Store(sim, name=f"hwbar.release{rank}") for rank in self.ranks
        }
        self._controller_started: set[int] = set()
        self._failed: set[int] = set()
        self.retries = 0
        self.rounds = 0
        self.failures = 0

    # ------------------------------------------------------------------
    def _traversal_us(self) -> float:
        """One tree traversal (root to leaves or back)."""
        hops = self.topology.broadcast_hops()
        return self.wire.head_latency(hops, hops + 1)

    def enter(self, rank: int, seq: int) -> Store:
        """Mark ``rank`` arrived at barrier ``seq``.

        Returns the store the caller should ``take()`` from to learn of
        the release.  The first arrival starts the probe controller.
        """
        if rank not in self._release:
            raise ValueError(f"rank {rank} is not a participant")
        if seq in self._failed:
            # The controller already gave up on this barrier: the
            # straggler (whose lateness exhausted the budget) learns of
            # the failure immediately on arrival.
            self._release[rank].post(("hw-failed", seq))
            return self._release[rank]
        self._arrived[seq].add(rank)
        if seq not in self._controller_started:
            self._controller_started.add(seq)
            self.sim.process(self._controller(seq), name=f"hwbar.ctl{seq}")
        return self._release[rank]

    def fallback_ordinal(self, seq: int) -> int:
        """This failed barrier's index among all failed barriers.

        Barriers are sequential per rank, so by the time any rank asks,
        no *later* barrier can have failed yet — every rank computes
        the same ordinal.  The software-tree fallback uses it to index
        its (cumulative) event words independently of how many
        barriers the hardware path served.
        """
        return sorted(self._failed).index(seq)

    def _controller(self, seq: int):
        expected = set(self.ranks)
        down = self._traversal_us()
        tracer = self.tracer
        rounds_used = 0
        while True:
            self.rounds += 1
            rounds_used += 1
            t0 = self.sim.now
            yield down  # test broadcast reaches every NIC
            yield self.t_flag_check_us  # NICs check their flags (parallel)
            yield down  # combined reply climbs back to the root
            if tracer.enabled:
                tracer.add_span(t0, self.sim.now, "elite", "test_round", seq=seq)
            if self._arrived[seq] >= expected:
                break
            if rounds_used >= self.max_rounds:
                # Probe budget exhausted: the barrier is not going to
                # pass.  Tell every *arrived* rank (stragglers get the
                # word from ``enter``) and drop the barrier's state —
                # the library layer degrades to the software tree.
                self.failures += 1
                tracer.count("elite.hw_give_up")
                arrived = sorted(self._arrived[seq])
                self._failed.add(seq)
                del self._arrived[seq]
                for rank in arrived:
                    self._release[rank].post(("hw-failed", seq))
                return
            self.retries += 1
            backoff = self.retry_backoff_us * self.backoff_factor ** (
                rounds_used - 1
            )
            if self.backoff_cap_us > 0:
                backoff = min(backoff, self.backoff_cap_us)
            yield backoff
        # The *set* half of the atomic test-and-set: a second full
        # transaction commits the flags ("a higher number of network
        # transactions" than a chained-RDMA step, §8.2).
        t0 = self.sim.now
        yield down
        yield self.t_flag_check_us
        yield down
        yield down  # release broadcast
        if tracer.enabled:
            tracer.add_span(t0, self.sim.now, "elite", "set_release", seq=seq)
        del self._arrived[seq]
        for rank in self.ranks:
            self._release[rank].post(seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HardwareBarrier ranks={len(self.ranks)} retries={self.retries}>"
