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
heap: every link is an :class:`~repro.sim.resources.ArbitratedResource`,
the one arbiter of every serialized unit, whose decision pass runs one
delta phase after a claim and grants bandwidth in canonical packet
order (:func:`~repro.network.packet.canonical_packet_key`).  All links
share one :class:`~repro.sim.resources.ArbitrationDomain`, so the link
decisions of one instant and phase are one kernel event.  Real switch
ports arbitrate same-cycle heads deterministically (port order); resolving
them by event scheduling order instead makes delivery times depend on
same-timestamp tie-breaking — the schedule race simlint SL101 detects.

Dropped packets (fault injection) consume the send side's time but never
arrive — exactly how a wormhole network loses a packet whose CRC fails
at a switch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.network.faults import FaultInjector
from repro.network.packet import Packet, canonical_packet_key
from repro.sim import Simulator, Tracer
from repro.sim.resources import ArbitratedResource, ArbitrationDomain
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
        self._links: dict[tuple[str, str], ArbitratedResource] = {}
        # Routes are assembled per worm from link tables filled on first
        # use (so links are still created lazily), and nothing is kept
        # per (src, dst) pair: fabric state stays O(links) however many
        # pairs a run touches (a per-pair memo is about N log N entries).
        # Fat tree: each port's (climb, descent) link chains; a worm
        # cuts its route from its source's climb and its destination's
        # descent at the lca level.
        self._fat_tree = isinstance(topology, QuaternaryFatTree)
        self._chains: dict[int, tuple[list, list]] = {}
        # Loopback: each port's one-link route to itself.
        self._loops: list = [None] * topology.n_nodes
        # Contention-free up-edge elision (fat tree only): a worm holds
        # its capacity-1 injection link for its whole lifetime, so a
        # level-l stage group's up-edge sees at most its 4**l sources
        # concurrently — exactly its parallel-link capacity.  Those
        # claims can never block, so each is replaced by its structural
        # cost alone: one delta phase.  The proof needs only one worm
        # per injection link at a time, and every fault keeps that: a
        # duplicate's clone claims the injection link before any other
        # link, a delayed worm claims it first too, just later, and a
        # dropped packet claims no link.  Only reference mode (the
        # equivalence tests' unbatched baseline) turns elision off.
        # ``_levels[l]`` is ``(head latency, elided up-edges)`` of a
        # route turning at switch stage ``l`` (0: a loopback): on both
        # networks it crosses ``2*l - 1`` switches on ``2*l`` links.
        depth = topology.dimension if self._fat_tree else topology.levels
        self._levels = [(params.head_latency(0, 0), 0)] + [
            (params.head_latency(2 * level - 1, 2 * level),
             level - 1 if self._fat_tree and not reference else 0)
            for level in range(1, depth + 1)
        ]
        if not self._fat_tree:
            # Clos: a route turning at stage ``l`` climbs ``l`` links
            # (injection, leaf→spine/mid, mid→top, top→apex), descends
            # ``l - 1`` switch links and ends on its destination's
            # ejection link.  ``_up[src * _stride + l]`` is ``(climb,
            # turning switch's down table)``.  A stage-``s`` switch's
            # down table holds ``(link, child's down table)`` per child,
            # the child over ``dst`` being ``dst // group_sizes[s-2] %
            # half``; ``_blocks[l]`` lists the divisors of a descent
            # from stage ``l``.  Every slot is filled from
            # ``topology.route`` on first use, so the routing rule lives
            # in the topology alone.
            self._route_level = topology.route_level
            self._stride = depth + 1
            self._up: list = [None] * (topology.n_nodes * self._stride)
            self._eject: list = [None] * topology.n_nodes
            self._half = topology.radix // 2
            sizes = topology.group_sizes
            self._blocks = [tuple(sizes[s - 2] for s in range(level, 1, -1))
                            for level in range(depth + 1)]
            self._down_tables: dict[str, list] = {}
        # Per-kind counter labels, interned once: building
        # f"wire.{kind}" per packet shows up at millions of packets.
        self._kind_labels: dict[str, str] = {}
        # A packet with no payload (a heartbeat, a bare ACK) has its
        # counter label and flow row fixed by its kind: kind ->
        # (``wire.<kind>``, the ``kind:<kind>`` flow row), made by the
        # first such packet of the kind.
        self._bare_kinds: dict[str, tuple[str, list[int]]] = {}
        self.delivered_count = 0
        # Packet ``wire_id``s, numbered in transmit order per fabric, so
        # two runs in one interpreter trace the same ids.
        self._wire_ids = itertools.count()
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

    def _flow_row(self, label: str) -> list[int]:
        row = self._flow_counters.get(label)
        if row is None:
            row = self._flow_counters[label] = [0, 0, 0]
        return row

    def _kind_label(self, kind: str) -> str:
        label = self._kind_labels.get(kind)
        if label is None:
            label = self._kind_labels[kind] = f"wire.{kind}"
        return label

    # ------------------------------------------------------------------
    def attach(self, port: int, handler: DeliveryHandler) -> None:
        """Register the delivery callback for NIC ``port``."""
        if not 0 <= port < self.topology.n_nodes:
            raise ValueError(f"port {port} not in topology")
        if port in self._handlers:
            raise ValueError(f"port {port} already attached")
        self._handlers[port] = handler

    def _link(self, a: str, b: str) -> ArbitratedResource:
        key = (a, b)
        res = self._links.get(key)
        if res is None:
            res = ArbitratedResource(
                self.sim, self.topology.link_capacity(a, b),
                name=f"link:{a}->{b}", domain=self._domain,
            )
            self._links[key] = res
        return res

    def _port_chains(self, port: int) -> tuple[list, list]:
        """A fat-tree port's ``(climb, descent)`` links, level by level.

        ``climb[l]`` leaves level ``l`` upward (``climb[0]`` is the
        injection link).  ``descent`` is kept top-down, so the last
        ``top`` links descend from level ``top`` (``descent[-1]`` is the
        ejection link).
        """
        chains = self._chains.get(port)
        if chains is None:
            nodes = self.topology.climb(port)
            pairs = list(zip(nodes, nodes[1:]))
            chains = self._chains[port] = (
                [self._link(a, b) for a, b in pairs],
                [self._link(b, a) for a, b in reversed(pairs)],
            )
        return chains

    def _loopback(self, port: int) -> list:
        """``port``'s one-link route to itself."""
        loop = self._loops[port]
        if loop is None:
            name = f"nic{port}"
            loop = self._loops[port] = [self._link(name, name)]
        return loop

    def _clos_route(self, src: int, dst: int) -> tuple[list, int]:
        """A Clos worm's links, assembled from the link tables, and the
        stage its route turns at."""
        level = self._route_level(src, dst)
        entry = self._up[src * self._stride + level]
        if entry is not None:
            climb, table = entry
            links = [*climb]
            half = self._half
            for block in self._blocks[level]:
                hop = table[dst // block % half]
                if hop is None:
                    break
                link, table = hop
                links.append(link)
            else:
                eject = self._eject[dst]
                if eject is not None:
                    links.append(eject)
                    return links, level
        self._fill_clos_tables(src, dst, level)
        return self._clos_route(src, dst)

    def _fill_clos_tables(self, src: int, dst: int, level: int) -> None:
        """Fill every empty table slot on the Clos route ``src -> dst``
        (turning at stage ``level``) from the topology's route."""
        hops = self.topology.route(src, dst).hops
        nodes = [f"nic{src}", *hops, f"nic{dst}"]
        links = [self._link(a, b) for a, b in zip(nodes, nodes[1:])]
        # Leaves need no down table: their down links are ejections.
        inner = [self._down_table(name) for name in hops[1:-1]]
        tables = [None, *inner, None] if inner else [None]
        index = src * self._stride + level
        if self._up[index] is None:
            self._up[index] = (tuple(links[:level]), tables[level - 1])
        # Down link k leaves the stage-(level - k) switch hops[level-1+k].
        for k, block in enumerate(self._blocks[level]):
            table = tables[level - 1 + k]
            slot = dst // block % self._half
            if table[slot] is None:
                table[slot] = (links[level + k], tables[level + k])
        if self._eject[dst] is None:
            self._eject[dst] = links[-1]

    def _down_table(self, switch: str) -> list:
        table = self._down_tables.get(switch)
        if table is None:
            table = self._down_tables[switch] = [None] * self._half
        return table

    # ------------------------------------------------------------------
    def transmit(self, packet: Packet) -> None:
        """Fire-and-forget: inject ``packet``; it arrives later (or not).

        The caller (NIC model) accounts for its own processing time; this
        method only models the wire.
        """
        src = packet.src
        dst = packet.dst
        if dst not in self._handlers:
            raise ValueError(f"no NIC attached at port {dst}")
        now = self.sim.now
        packet.wire_id = next(self._wire_ids)
        packet.sent_at = now
        if self._tx_observers:
            observers = self._tx_observers.get(src)
            if observers:
                for observer in observers:
                    observer(dst, now)
        counters = self.tracer.counters
        kind = packet.kind
        if packet.payload is None:
            # Label, flow row and canonical key follow from the kind
            # (and seq) alone: ``canonical_packet_key``, inlined.
            bare = self._bare_kinds.get(kind)
            if bare is None:
                bare = self._bare_kinds[kind] = (
                    self._kind_label(kind), self._flow_row(f"kind:{kind}"),
                )
            label, flow = bare
            seq = packet.seq
            key = (src, dst, kind, -1 if seq is None else seq, -1, -1, -1)
        else:
            label = self._kind_labels.get(kind) or self._kind_label(kind)
            flow_label = self._flow_label(packet)
            flow = self._flow_counters.get(flow_label) or self._flow_row(flow_label)
            key = canonical_packet_key(packet)
        counters[label] += 1
        counters["wire.packets"] += 1
        flow[0] += 1
        flow[1] += packet.size_bytes
        # Wormhole path: claim each directional link in order (the
        # links' passes hand the worm from one link to the next — no
        # per-packet Process, no per-hop callback), then let the whole
        # worm drain.  Head latency accrues after the claims, exactly as
        # a worm stalled mid-path holds its upstream channels.  The
        # canonical arbitration key is hoisted here: it is invariant
        # along the path, and recomputing it per link was ~700k
        # redundant tuple builds per 1024-node point.  The worm's
        # traversal state lives in one mutable record, ``[packet, links,
        # latency, next_idx, skip, fn]``, allocated once per packet; the
        # drain releases the links and runs ``fn(packet)``.
        #
        # A fat-tree worm climbs ``top`` levels and descends them.  With
        # up-edge elision on (every mode but reference), the climb's
        # links between switch stages are dropped: they can never
        # block, and their delta-phase cost is re-added wholesale as
        # ``skip`` so every surviving link sees the worm at exactly the
        # phase it would have without elision.  The injection link is
        # always claimed — holding it is what makes the proof go
        # through — as are the descent links, which genuinely contend.
        if src == dst:
            links = self._loops[src] or self._loopback(src)
            head, skip = self._levels[0]
        elif self._fat_tree:
            top = ((src ^ dst).bit_length() + 1) // 2
            head, skip = self._levels[top]
            chains = self._chains
            climb = (chains.get(src) or self._port_chains(src))[0]
            descent = (chains.get(dst) or self._port_chains(dst))[1]
            links = [*climb[: top - skip], *descent[-top:]]
        else:
            links, level = self._clos_route(src, dst)
            head, skip = self._levels[level]
        latency = head + packet.size_bytes / self._bandwidth
        faults = self.faults
        if faults is not None:
            decision = faults.inspect(packet)
            if decision.drop:
                counters["wire.dropped"] += 1
                flow[2] += 1
                return
            if decision.corrupt:
                packet.corrupted = True
                counters["wire.corrupted"] += 1
            if decision.duplicate:
                # A switch-level duplicate: an extra copy of the same
                # protocol packet travels the same path independently.
                # The copies are equal under the canonical key.
                counters["wire.duplicated"] += 1
                clone = packet.clone()
                clone.wire_id = next(self._wire_ids)
                self._inject(key, [clone, links, latency, 0, skip, self._finish])
            if decision.delay_us > 0.0:
                counters["wire.delayed"] += 1
                self.sim.schedule_detached(
                    decision.delay_us, self._inject, key,
                    [packet, links, latency, 0, skip, self._finish],
                )
                return
        links[0]._push(
            self.sim._phase, key, None, None,
            [packet, links, latency, 0, skip, self._finish],
        )

    def _inject(self, key: tuple, worm: list) -> None:
        worm[1][0]._push(self.sim._phase, key, None, None, worm)

    def _finish(self, packet: Packet) -> None:
        """A delivery whose worm has drained and freed its path."""
        packet.delivered_at = self.sim.now
        self.delivered_count += 1
        if self.tracer.enabled:
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
        packet.wire_id = next(self._wire_ids)
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
