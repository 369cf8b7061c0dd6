"""The wormhole fabric: moves packets between NIC ports.

Timing model (cut-through / wormhole, used by both Myrinet and QsNet):

- the packet head leaves the source NIC after ``inject_us``;
- each switch adds ``switch_latency_us`` fall-through delay;
- each physical link adds ``propagation_us``;
- the tail arrives ``size / bandwidth`` after the head (serialization);
- contention: each directional link along the path is held for the
  serialization time, acquired in path order — back-to-back packets on
  the same link queue up, packets on disjoint paths don't interact.

Link grants are *arbitrated*, not first-come-first-served on the event
heap: every request and release lands in a per-link pool, and a
decision pass runs one delta phase later (:meth:`Simulator.
schedule_phase`), granting bandwidth in canonical packet order
(:func:`~repro.network.packet.canonical_packet_key`).  Real switch ports
arbitrate same-cycle heads deterministically (port order); resolving
them by event scheduling order instead makes delivery times depend on
same-timestamp tie-breaking — the schedule race simlint SL101 detects.

Dropped packets (fault injection) consume the send side's time but never
arrive — exactly how a wormhole network loses a packet whose CRC fails
at a switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

from repro.network.faults import FaultInjector
from repro.network.packet import Packet, canonical_packet_key
from repro.sim import Simulator, Tracer
from repro.topology.base import Topology
from repro.topology.fat_tree import QuaternaryFatTree


@dataclass(frozen=True)
class WireParams:
    """Physical-layer constants (all µs / bytes-per-µs)."""

    inject_us: float
    switch_latency_us: float
    propagation_us: float
    bandwidth_bytes_per_us: float

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_us <= 0:
            raise ValueError("bandwidth must be positive")
        for name in ("inject_us", "switch_latency_us", "propagation_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def head_latency(self, switch_hops: int, link_hops: int) -> float:
        return (
            self.inject_us
            + switch_hops * self.switch_latency_us
            + link_hops * self.propagation_us
        )

    def serialization(self, size_bytes: int) -> float:
        return size_bytes / self.bandwidth_bytes_per_us


DeliveryHandler = Callable[[Packet], None]


class ArbitrationDomain:
    """One decision event per (instant, delta phase), shared by all links.

    Each link arbiter used to arm its own :meth:`Simulator.
    schedule_phase` event per decision; at 4096+ nodes those events were
    a third of all kernel traffic.  The domain pools every arbiter that
    needs a phase-``p`` decision at the current instant into one list
    and runs them under a single kernel event.  Processing order within
    a pass is observationally irrelevant: a phase-``p`` pass only grants
    requests born in earlier phases, any request a grant causes is born
    in phase ``p`` or later (``p + skip`` past an elided climb) and so
    decided at ``p+1`` at the earliest regardless of which arbiter ran
    first, and releases only arrive from timed (phase-0) events — no
    arbiter's decision can observe another arbiter's position in the
    list.  The queues never leak across instants because every
    scheduled call at a timestamp drains before the clock advances.
    """

    __slots__ = ("sim", "_queues")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._queues: dict[int, list] = {}

    def mark(self, arbiter: "LinkArbiter", phase: int) -> None:
        q = self._queues.get(phase)
        if q is None:
            q = self._queues[phase] = []
            self.sim.schedule_phase(phase, self._run, phase)
        q.append(arbiter)

    def _run(self, phase: int) -> None:
        for arbiter in self._queues.pop(phase):
            arbiter._pass(phase)


class LinkArbiter:
    """One directional link's bandwidth units with deterministic grants.

    Requests pool up; a decision pass runs one delta phase later and
    grants free units in ``(birth phase, canonical key)`` order.  The
    one-phase lag guarantees every same-instant contender has registered
    before any winner is picked, whatever order the scheduler popped
    their events in; it costs zero simulated time.  Requests born while
    a pass is deciding (a packet granted an earlier hop in that same
    pass) wait for the next phase — a structural, schedule-independent
    property of the route.

    A pass is armed only where it can grant: at ``max(now phase, head
    birth) + 1`` and only while a unit is free.  A request on a full
    link arms nothing (the release that frees a unit does), and a head
    left over from an earlier instant is decided at its birth phase + 1,
    the first phase that can grant it.  The grants and their phases are
    those of a pass at every phase.
    """

    __slots__ = (
        "sim", "domain", "name", "capacity", "in_use",
        "_pending", "_n", "_pass_phase",
    )

    def __init__(
        self, sim: Simulator, domain: ArbitrationDomain, capacity: int, name: str
    ):
        self.sim = sim
        self.domain = domain
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        # Heap of (birth_phase, canonical_key, n, grant_fn, grant_args);
        # ``n`` only separates requests identical in every protocol
        # coordinate (interchangeable packets) and keeps the comparison
        # off the callback.  A fabric worm's entry has ``grant_fn``
        # None and its traversal record as ``grant_args``: the pass
        # advances it to its next link itself, with no callback.
        self._pending: list[tuple] = []
        self._n = 0
        # Phase of the live armed pass; -1 when unarmed.  Arming an
        # earlier pass supersedes a later one, which then finds the
        # phase changed and returns without deciding.
        self._pass_phase = -1

    def request(self, key: tuple, fn: Callable, *args) -> None:
        """Queue ``fn(*args)`` for the grant of one unit."""
        self._push(self.sim._phase, key, fn, args)

    def _push(self, birth: int, key: tuple, fn: Optional[Callable], args) -> None:
        self._n += 1
        heappush(self._pending, (birth, key, self._n, fn, args))
        if self.in_use < self.capacity:
            phase = birth + 1
            armed = self._pass_phase
            if armed < 0 or armed > phase:
                self._pass_phase = phase
                # Inlined ``domain.mark`` — this is the hottest
                # arbitration call site (one per link per packet).
                domain = self.domain
                q = domain._queues.get(phase)
                if q is None:
                    domain._queues[phase] = [self]
                    domain.sim.schedule_phase(phase, domain._run, phase)
                else:
                    q.append(self)

    def release(self) -> None:
        self.in_use -= 1
        pending = self._pending
        if pending:
            self._ensure_pass(max(self.sim._phase, pending[0][0]) + 1)

    def _ensure_pass(self, phase: int) -> None:
        # A live pass at this phase or earlier decides first and re-arms
        # for whatever it leaves; otherwise arm one.  An armed pass
        # always fires at the instant it was armed (the domain's event
        # lands at the current timestamp, and every same-time call
        # drains before time advances), so the guard needs no time
        # component.
        armed = self._pass_phase
        if 0 <= armed <= phase:
            return
        self._pass_phase = phase
        self.domain.mark(self, phase)

    def _pass(self, phase: int) -> None:
        if phase != self._pass_phase:
            return  # superseded by an earlier pass
        self._pass_phase = -1
        pending = self._pending
        capacity = self.capacity
        # ``in_use`` can be cached across the loop: a grant only ever
        # advances the *granted* worm (this link's next hops are other
        # links; releases arrive solely from timed events later).
        in_use = self.in_use
        while in_use < capacity and pending and pending[0][0] < phase:
            _birth, key, _n, fn, args = heappop(pending)
            in_use += 1
            self.in_use = in_use
            if fn is not None:
                fn(*args)
                continue
            # A fabric worm ``[packet, links, latency, idx, skip,
            # complete]``: claim its next link or, holding them all, let
            # it drain.  Past an elided route's injection hop the claim
            # is born ``skip`` phases on: the phase at which it would
            # reach that link after crossing the free up-edges one
            # phase each.
            links = args[1]
            idx = args[3] + 1
            if idx == len(links):
                self.sim.schedule_detached(args[2], args[5], args[0], links)
            else:
                args[3] = idx
                links[idx]._push(
                    phase + args[4] if idx == 1 else phase, key, None, args
                )
        if pending and in_use < capacity:
            self._ensure_pass(max(phase, pending[0][0]) + 1)


class Fabric:
    """Connects NIC ports over a topology with wormhole timing."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        params: WireParams,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
        reference: bool = False,
    ):
        self.sim = sim
        self.topology = topology
        self.params = params
        self.tracer = tracer or Tracer()
        self.faults = faults
        self._handlers: dict[int, DeliveryHandler] = {}
        self._bandwidth = params.bandwidth_bytes_per_us
        self._domain = ArbitrationDomain(sim)
        self._links: dict[tuple[str, str], LinkArbiter] = {}
        # Topologies are immutable for the lifetime of a simulation, so
        # the route, its arbitrated link resources, the size-independent
        # head latency, and the elided delta-phase count are memoized
        # per (src, dst) pair.
        self._route_cache: dict[tuple[int, int], tuple] = {}
        # Fat tree: each port's (climb, descent) link chains, built on
        # first use; a route is a slice of its source's climb and its
        # destination's descent, cut at the lca level.
        self._fat_tree = isinstance(topology, QuaternaryFatTree)
        self._chains: dict[int, tuple[list, list]] = {}
        # Contention-free up-edge elision (fat tree only): a worm holds
        # its capacity-1 injection link for its whole lifetime, so a
        # level-l stage group's up-edge sees at most its 4**l sources
        # concurrently — exactly its parallel-link capacity.  Those
        # claims can never block, so each is replaced by its structural
        # cost alone: one delta phase.  The proof needs every worm to
        # hold one injection slot (duplication creates two worms per
        # source; delay decouples the claim from the injection hold), so
        # any fault injection disables the fast path, as does reference
        # mode (the equivalence tests' unbatched baseline).
        self._elide_up_edges = faults is None and not reference and self._fat_tree
        # Per-kind counter labels, interned once: building
        # f"wire.{kind}" per packet shows up at millions of packets.
        self._kind_labels: dict[str, str] = {}
        self.delivered_count = 0
        # Per-source transmit observers: the failure detector's
        # heartbeat loop suppresses beats to peers the NIC has recently
        # transmitted *anything* to, and the workload layer's per-flow
        # telemetry watches the same stream.  Each port keeps an
        # *ordered list* of callbacks — a single-slot dict here silently
        # dropped the earlier subscriber on re-register, which would
        # have disabled liveness piggybacking the moment a second
        # observer appeared.  Invocation order is registration order.
        self._tx_observers: dict[int, list[Callable[[int, float], None]]] = {}
        # Per-flow transmit accounting: flow label -> [packets, bytes,
        # dropped].  The label comes from the payload's ``group_id``
        # (collective traffic), else its ``flow`` attribute (workload
        # cross-traffic), else the packet kind.
        self._flow_counters: dict[str, list[int]] = {}
        # Fabric-level sinks: (dst port, packet kind) -> handler.  A
        # sink terminates matching packets *instead of* the NIC protocol
        # stack — cross-traffic competes for links like any worm but
        # must not perturb NIC protocol state.
        self._sinks: dict[tuple[int, str], DeliveryHandler] = {}

    def observe_tx(self, port: int, callback: Callable[[int, float], None]) -> None:
        """Register ``callback(dst, now)`` for every packet ``port`` sends.

        Multiple observers per port coexist; they are invoked in
        registration order on every transmit.
        """
        self._tx_observers.setdefault(port, []).append(callback)

    def attach_sink(self, port: int, kind: str, handler: DeliveryHandler) -> None:
        """Terminate ``kind`` packets arriving at ``port`` in ``handler``.

        The sink replaces the NIC delivery for that (port, kind) pair
        only; all other traffic still reaches the attached NIC.
        """
        key = (port, kind)
        if key in self._sinks:
            raise ValueError(f"sink for {kind!r} already attached at port {port}")
        self._sinks[key] = handler

    def flow_counters(self) -> dict[str, dict[str, int]]:
        """Per-flow transmit totals, keyed by flow label, sorted.

        Each entry reports ``packets`` (transmits attempted), ``bytes``
        (sum of their sizes), and ``dropped`` (fault-injected losses).
        """
        return {
            label: {"packets": c[0], "bytes": c[1], "dropped": c[2]}
            for label, c in sorted(self._flow_counters.items())
        }

    def _flow_label(self, packet: Packet) -> str:
        payload = packet.payload
        group_id = getattr(payload, "group_id", None)
        if isinstance(group_id, int):
            return f"group:{group_id}"
        flow = getattr(payload, "flow", None)
        if isinstance(flow, str):
            return f"flow:{flow}"
        return f"kind:{packet.kind}"

    # ------------------------------------------------------------------
    def attach(self, port: int, handler: DeliveryHandler) -> None:
        """Register the delivery callback for NIC ``port``."""
        if not 0 <= port < self.topology.n_nodes:
            raise ValueError(f"port {port} not in topology")
        if port in self._handlers:
            raise ValueError(f"port {port} already attached")
        self._handlers[port] = handler

    def _link(self, a: str, b: str) -> LinkArbiter:
        key = (a, b)
        res = self._links.get(key)
        if res is None:
            capacity = self.topology.link_capacity(a, b)
            res = LinkArbiter(self.sim, self._domain, capacity, name=f"link:{a}->{b}")
            self._links[key] = res
        return res

    def _port_chains(self, port: int) -> tuple[list, list]:
        """A fat-tree port's ``(climb, descent)`` links, level by level.

        ``climb[l]`` leaves level ``l`` upward (``climb[0]`` is the
        injection link) and ``descent[l]`` enters level ``l`` from above
        (``descent[0]`` is the ejection link).
        """
        chains = self._chains.get(port)
        if chains is None:
            nodes = self.topology.climb(port)
            pairs = list(zip(nodes, nodes[1:]))
            chains = self._chains[port] = (
                [self._link(a, b) for a, b in pairs],
                [self._link(b, a) for a, b in pairs],
            )
        return chains

    def _route_entry(self, src: int, dst: int) -> tuple:
        """Memoized ``(arbitrated links, head latency, elided phases)``.

        With up-edge elision on, the links between the ascent's switch
        stages (the fat-tree route climbs ``top`` stages before
        descending) are dropped from the arbitrated list: they can never
        block, and their delta-phase cost is re-added wholesale as
        ``skip`` so every surviving link sees the packet at exactly the
        phase it would have without elision.  The injection link is
        always arbitrated — holding it is what makes the proof go
        through — as are the descent and ejection links, which genuinely
        contend.
        """
        entry = self._route_cache.get((src, dst))
        if entry is None:
            if self._fat_tree and src != dst:
                top = self.topology.lca_level(src, dst)
                climb = self._port_chains(src)[0]
                descent = self._port_chains(dst)[1]
                head = self.params.head_latency(2 * top - 1, 2 * top)
                skip = top - 1 if self._elide_up_edges else 0
                links = [*climb[: top - skip], *descent[top - 1 :: -1]]
            else:
                route = self.topology.route(src, dst)
                nodes = [f"nic{src}", *route.hops, f"nic{dst}"]
                links = [self._link(a, b) for a, b in zip(nodes, nodes[1:])]
                head = self.params.head_latency(route.switch_count, route.link_count)
                skip = 0
            entry = (links, head, skip)
            self._route_cache[(src, dst)] = entry
        return entry

    # ------------------------------------------------------------------
    def transmit(self, packet: Packet) -> None:
        """Fire-and-forget: inject ``packet``; it arrives later (or not).

        The caller (NIC model) accounts for its own processing time; this
        method only models the wire.
        """
        if packet.dst not in self._handlers:
            raise ValueError(f"no NIC attached at port {packet.dst}")
        packet.sent_at = self.sim.now
        if self._tx_observers:
            observers = self._tx_observers.get(packet.src)
            if observers:
                for observer in observers:
                    observer(packet.dst, self.sim.now)
        tracer = self.tracer
        label = self._kind_labels.get(packet.kind)
        if label is None:
            label = self._kind_labels.setdefault(packet.kind, f"wire.{packet.kind}")
        tracer.count(label)
        tracer.count("wire.packets")
        flow_label = self._flow_label(packet)
        flow = self._flow_counters.get(flow_label)
        if flow is None:
            flow = self._flow_counters[flow_label] = [0, 0, 0]
        flow[0] += 1
        flow[1] += packet.size_bytes
        # Wormhole path: claim each directional link in order (the link
        # arbiters' passes hand the worm from one link to the next — no
        # per-packet Process, no per-hop callback), then let the whole
        # worm drain.  Head latency accrues after the claims, exactly as
        # a worm stalled mid-path holds its upstream channels.  The
        # canonical arbitration key is hoisted here: it is invariant
        # along the path, and recomputing it per link was ~700k
        # redundant tuple builds per 1024-node point.  The worm's
        # traversal state lives in one mutable record, ``[packet, links,
        # latency, next_idx, skip, complete]``, allocated once per
        # packet.
        links, head, skip = self._route_entry(packet.src, packet.dst)
        latency = head + packet.size_bytes / self._bandwidth
        key = canonical_packet_key(packet)
        if self.faults is not None:
            decision = self.faults.inspect(packet)
            if decision.drop:
                tracer.count("wire.dropped")
                flow[2] += 1
                if tracer.enabled:
                    tracer.record(
                        self.sim.now, "wire", f"nic{packet.src}", "DROPPED",
                        pkt=packet.wire_id,
                    )
                return
            if decision.corrupt:
                packet.corrupted = True
                tracer.count("wire.corrupted")
            if decision.duplicate:
                # A switch-level duplicate: an extra copy of the same
                # protocol packet travels the same path independently.
                tracer.count("wire.duplicated")
                clone = packet.clone()
                self._inject(
                    canonical_packet_key(clone),
                    [clone, links, latency, 0, skip, self._complete],
                )
            if decision.delay_us > 0.0:
                tracer.count("wire.delayed")
                self.sim.schedule_detached(
                    decision.delay_us, self._inject, key,
                    [packet, links, latency, 0, skip, self._complete],
                )
                return
        self._inject(key, [packet, links, latency, 0, skip, self._complete])

    def _inject(self, key: tuple, worm: list) -> None:
        worm[1][0]._push(self.sim._phase, key, None, worm)

    def _complete(self, packet: Packet, links: list) -> None:
        """Tail of a delivery: free the path, hand over."""
        for link in links:
            link.release()
        self._finish(packet)

    def _finish(self, packet: Packet) -> None:
        packet.delivered_at = self.sim.now
        self.delivered_count += 1
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "wire",
                f"nic{packet.src}",
                f"delivered {packet.kind} to nic{packet.dst}",
                pkt=packet.wire_id,
                kind=packet.kind,
                src=packet.src,
                dst=packet.dst,
                sent_at=packet.sent_at,
                size=packet.size_bytes,
            )
            self.tracer.add_span(
                packet.sent_at,
                self.sim.now,
                f"wire.n{packet.src}-n{packet.dst}",
                packet.kind,
                pkt=packet.wire_id,
                size=packet.size_bytes,
            )
        if self._sinks:
            sink = self._sinks.get((packet.dst, packet.kind))
            if sink is not None:
                sink(packet)
                return
        self._handlers[packet.dst](packet)

    # ------------------------------------------------------------------
    def broadcast(self, packet: Packet, targets: Iterable[int]) -> None:
        """Hardware broadcast (QsNet): replicate to every target port.

        The fat tree replicates in the switches, so every copy shares the
        same head latency (climb to the root, fan out down) — all
        deliveries occur simultaneously.  Myrinet has no hardware
        broadcast; callers must not use this on a Clos fabric.
        """
        if not self._fat_tree:
            raise TypeError("hardware broadcast requires a fat-tree topology")
        targets = tuple(targets)  # any iterable, read once
        packet.sent_at = self.sim.now
        hops = self.topology.broadcast_hops()
        latency = self.params.head_latency(hops, hops + 1) + self.params.serialization(
            packet.size_bytes
        )
        self.tracer.count("wire.bcast")
        for port in targets:
            if port not in self._handlers:
                raise ValueError(f"no NIC attached at port {port}")
        if self._tx_observers:
            observers = self._tx_observers.get(packet.src)
            if observers:
                for observer in observers:
                    for port in targets:
                        observer(port, self.sim.now)
        self.sim.schedule(latency, self._deliver_broadcast, packet, targets)

    def _deliver_broadcast(self, packet: Packet, targets: tuple[int, ...]) -> None:
        packet.delivered_at = self.sim.now
        if self.tracer.enabled:
            self.tracer.add_span(
                packet.sent_at,
                self.sim.now,
                f"wire.n{packet.src}-bcast",
                packet.kind,
                pkt=packet.wire_id,
                size=packet.size_bytes,
                targets=len(targets),
            )
        for port in targets:
            self._handlers[port](packet)
