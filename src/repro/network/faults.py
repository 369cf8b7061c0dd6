"""Fault injection for the unreliable (Myrinet) wire.

Fault classes, composable:

- probabilistic loss: every packet is dropped with ``drop_probability``
  using a deterministic RNG stream;
- corruption: the packet is *delivered* but flagged corrupted — the
  receiving NIC's CRC check must discard it and let the sender's
  timeout (or the receiver-driven NACK) recover;
- duplication: the packet is delivered twice — receivers must suppress
  the second copy via their sequence machinery;
- delay/jitter: the packet is held at the injection point for a random
  extra delay before entering the wormhole path (switch buffering);
- scripted loss: a :class:`DropPlan` drops the *k*-th packet matching a
  predicate — lets reliability tests lose exactly the message they want
  (e.g. "drop the first barrier packet from node 3 to node 7 and verify
  the receiver-driven NACK recovers it");
- black-holes: a :class:`Blackhole` drops *every* matching packet,
  optionally only inside a sim-time window — dead links, link flaps
  (window + heal) and NIC crash windows are all expressed with it.

Probabilistic faults draw from *per-flow, per-class* substreams keyed
by ``(src, dst, kind)`` rather than one global stream: whether the k-th
packet of a flow is lost/corrupted/duplicated/delayed is then a pure
function of the flow, the fault class, and k.  A single global stream
consumed in wire-inspection order would make the fault pattern depend
on how same-timestamp transmissions happen to be ordered — exactly the
schedule-dependence the simlint perturbation runner exists to rule out.
(Within one flow the order is causal: a single NIC serializes its
injections, so occurrence indices are stable under tie-break
permutation.)  Every *enabled* class draws for every inspected packet,
whatever the scripted faults decide, so stream positions never depend
on blackhole windows or plan state.  Scripted :class:`DropPlan`
occurrences count in inspection order by design — their predicates are
expected to pin down the flow they target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from repro.network.packet import Packet
from repro.sim.rng import DeterministicRng


@dataclass(frozen=True)
class FaultDecision:
    """What the injector wants done with one inspected packet.

    ``drop`` wins over everything else; ``corrupt``/``duplicate``/
    ``delay_us`` compose (a duplicate of a corrupted packet carries the
    corruption on both copies).
    """

    drop: bool = False
    corrupt: bool = False
    duplicate: bool = False
    delay_us: float = 0.0


_DELIVER = FaultDecision()
_DROP = FaultDecision(drop=True)


@dataclass
class DropPlan:
    """Drop the ``occurrence``-th (1-based) packet matching ``matches``."""

    matches: Callable[[Packet], bool]
    occurrence: int = 1
    label: str = ""
    _seen: int = field(default=0, init=False)
    _armed: bool = field(default=True, init=False)

    def should_drop(self, packet: Packet) -> bool:
        if not self._armed or not self.matches(packet):
            return False
        self._seen += 1
        if self._seen == self.occurrence:
            self._armed = False
            return True
        return False

    @property
    def fired(self) -> bool:
        return not self._armed

    @property
    def seen(self) -> int:
        """Matching packets observed so far."""
        return self._seen

    def describe(self) -> str:
        name = self.label or "drop-plan"
        return (
            f"{name}: matched {self._seen} of {self.occurrence} "
            f"needed occurrences"
        )


class Blackhole:
    """A handle to one black-hole rule: drop every matching packet.

    Optionally windowed in sim time (``start_us`` inclusive,
    ``until_us`` exclusive, either side open) — a link flap is a
    windowed blackhole that "heals" when the window closes; a permanent
    link death has no window and can be ended early with :meth:`heal`.
    The handle counts its own drops for the chaos report.

    ``ports``, when given, are the only ports whose packets (as source
    or destination) the rule can match; the injector then consults it
    only for those packets.  Without them it sees every packet.
    """

    __slots__ = (
        "matches", "start_us", "until_us", "label", "dropped", "healed",
        "healed_at", "ports", "order",
    )

    def __init__(
        self,
        matches: Callable[[Packet], bool],
        start_us: Optional[float] = None,
        until_us: Optional[float] = None,
        label: str = "",
        ports: Optional[tuple[int, ...]] = None,
    ):
        self.matches = matches
        self.start_us = start_us
        self.until_us = until_us
        self.label = label
        self.ports = ports
        self.order = 0  # registration index, set by the injector
        self.dropped = 0
        self.healed = False
        self.healed_at: Optional[float] = None

    def active(self, now: float) -> bool:
        if self.healed:
            return False
        if self.start_us is not None and now < self.start_us:
            return False
        if self.until_us is not None and now >= self.until_us:
            return False
        return True

    def heal(self, now: Optional[float] = None) -> None:
        """Stop dropping, permanently (the link came back).

        Healing only changes what happens to packets *injected from now
        on*: everything the hole already dropped stays dropped, and a
        NACK-retransmit already in flight is delivered exactly once —
        the receiver engines suppress the extra copy a late retry round
        produces (counted ``*.rx_duplicate``), they never re-apply it.
        Idempotent; the first call's timestamp wins.
        """
        if not self.healed:
            self.healed = True
            self.healed_at = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        window = ""
        if self.start_us is not None or self.until_us is not None:
            window = f" [{self.start_us}, {self.until_us})"
        return f"<Blackhole {self.label or 'unnamed'}{window} dropped={self.dropped}>"


class FaultInjector:
    """Decides, per packet, what the wire does to it."""

    def __init__(
        self,
        rng: Optional[DeterministicRng] = None,
        drop_probability: float = 0.0,
        corrupt_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        delay_probability: float = 0.0,
        delay_jitter_us: float = 0.0,
    ):
        probabilities = {
            "drop_probability": drop_probability,
            "corrupt_probability": corrupt_probability,
            "duplicate_probability": duplicate_probability,
            "delay_probability": delay_probability,
        }
        for name, p in probabilities.items():
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} out of range: {p}")
        if any(probabilities.values()) and rng is None:
            raise ValueError("probabilistic faults need an rng")
        if delay_jitter_us < 0:
            raise ValueError(f"delay_jitter_us must be non-negative: {delay_jitter_us}")
        self.rng = rng
        self.drop_probability = drop_probability
        self.corrupt_probability = corrupt_probability
        self.duplicate_probability = duplicate_probability
        self.delay_probability = delay_probability
        self.delay_jitter_us = delay_jitter_us
        self.plans: list[DropPlan] = []
        # Every hole in registration order (the first active match
        # wins), and the same holes indexed: by each port they name, or
        # in ``_open_holes`` when any packet may match.
        self._blackholes: list[Blackhole] = []
        self._port_holes: dict[int, list[Blackhole]] = {}
        self._open_holes: list[Blackhole] = []
        # (src, dst, kind) -> the flow's substream per fault class, in
        # draw order (drop, corrupt, duplicate, delay), None where the
        # class is off.  The drop class keeps its pre-existing
        # "flow/..." stream names so seeded drop patterns survive the
        # addition of the other classes.
        self._flow_streams: dict[tuple, tuple] = {}
        self._flow_drops: dict[tuple, int] = {}
        self.dropped: int = 0
        self.corrupted: int = 0
        self.duplicated: int = 0
        self.delayed: int = 0
        self.inspected: int = 0

    def _streams(self, flow: tuple) -> tuple:
        """A flow's ``(drop, corrupt, duplicate, delay)`` substreams."""
        src, dst, kind = flow
        return tuple(
            self.rng.substream(f"{cls}/{src}->{dst}/{kind}") if p else None
            for cls, p in (
                ("flow", self.drop_probability),
                ("corrupt", self.corrupt_probability),
                ("dup", self.duplicate_probability),
                ("delay", self.delay_probability),
            )
        )

    # -- scripted faults -------------------------------------------------
    def _add_hole(self, hole: Blackhole) -> Blackhole:
        hole.order = len(self._blackholes)
        self._blackholes.append(hole)
        if hole.ports is None:
            self._open_holes.append(hole)
        else:
            for port in sorted(set(hole.ports)):
                self._port_holes.setdefault(port, []).append(hole)
        return hole

    def add_plan(self, plan: DropPlan) -> DropPlan:
        self.plans.append(plan)
        return plan

    def drop_nth_matching(
        self,
        matches: Callable[[Packet], bool],
        occurrence: int = 1,
        label: str = "",
    ) -> DropPlan:
        """Convenience: register and return a one-shot drop plan."""
        return self.add_plan(DropPlan(matches, occurrence, label))

    def drop_all_matching(
        self, matches: Callable[[Packet], bool], label: str = ""
    ) -> Blackhole:
        """Black-hole every packet matching ``matches`` (a dead link /
        dead peer scenario).  Returns the handle: call ``heal()`` to
        bring the link back, read ``dropped`` for its toll."""
        return self._add_hole(Blackhole(matches, label=label))

    def blackhole_window(
        self,
        matches: Callable[[Packet], bool],
        start_us: float,
        until_us: float,
        label: str = "",
        ports: Optional[tuple[int, ...]] = None,
    ) -> Blackhole:
        """Black-hole matching packets only inside a sim-time window."""
        if until_us <= start_us:
            raise ValueError(f"empty blackhole window [{start_us}, {until_us})")
        return self._add_hole(Blackhole(
            matches, start_us=start_us, until_us=until_us, label=label,
            ports=ports,
        ))

    def flap_link(
        self, a: int, b: int, start_us: float, until_us: float
    ) -> Blackhole:
        """Link flap: the a<->b pair black-holes for a window, then heals."""
        return self.blackhole_window(
            lambda p: p.src in (a, b) and p.dst in (a, b),
            start_us,
            until_us,
            label=f"flap:{a}<->{b}",
            ports=(a, b),
        )

    def kill_link(self, a: int, b: int) -> Blackhole:
        """Permanent a<->b link death: the pair black-holes until
        healed."""
        return self._add_hole(Blackhole(
            lambda p: p.src in (a, b) and p.dst in (a, b),
            label=f"dead:{a}<->{b}",
            ports=(a, b),
        ))

    def kill_node(self, node: int, at_us: Optional[float] = None) -> Blackhole:
        """Permanent fail-stop node death: from ``at_us`` on (or
        immediately), the node neither sends nor receives, and the hole
        never heals on its own.  The NIC-side half of the kill (the
        ``crashed`` flag that silences its heartbeat loop) is the
        caller's job."""
        return self._add_hole(Blackhole(
            lambda p: p.src == node or p.dst == node,
            start_us=at_us,
            label=f"kill:n{node}",
            ports=(node,),
        ))

    def crash_window(self, node: int, start_us: float, until_us: float) -> Blackhole:
        """The wire-side half of a NIC crash: while down, the node
        neither sends nor receives.  The NIC-side half (volatile-state
        wipe at restart) is :meth:`LanaiNic.schedule_crash`."""
        return self.blackhole_window(
            lambda p: p.src == node or p.dst == node,
            start_us,
            until_us,
            label=f"crash:nic{node}",
            ports=(node,),
        )

    def unfired_plans(self) -> tuple[DropPlan, ...]:
        """Plans still armed — fired plans are pruned on the spot, so
        anything left here at quiescence never matched enough packets
        (the quiescence auditor reports these as SL107)."""
        return tuple(self.plans)

    # -- the per-packet decision -----------------------------------------
    def inspect(self, packet: Packet) -> FaultDecision:
        """Decide what happens to ``packet`` (call once per transmit)."""
        self.inspected += 1
        # Draw every enabled probabilistic class before looking at the
        # scripted faults: the per-flow stream position then advances
        # once per inspected packet of that flow, unconditionally, so
        # the k-th packet's fate never depends on blackhole/plan state.
        # (Probabilities are checked in range at construction, so each
        # bernoulli is a bare ``random() < p``.)
        flow = (packet.src, packet.dst, packet.kind)
        streams = self._flow_streams.get(flow)
        if streams is None:
            streams = self._flow_streams[flow] = self._streams(flow)
        drop_s, corrupt_s, dup_s, delay_s = streams
        p_drop = drop_s is not None and drop_s.random() < self.drop_probability
        corrupt = (
            corrupt_s is not None
            and corrupt_s.random() < self.corrupt_probability
        )
        duplicate = (
            dup_s is not None and dup_s.random() < self.duplicate_probability
        )
        delay_us = 0.0
        if delay_s is not None:
            # Two draws per packet whatever the bernoulli says, so the
            # draw count within the class stream stays constant.
            delayed = delay_s.random() < self.delay_probability
            jitter = delay_s.uniform(0.0, self.delay_jitter_us)
            if delayed:
                delay_us = jitter

        now = packet.sent_at if packet.sent_at is not None else 0.0
        dropped = False
        holes = self._open_holes
        if self._port_holes:
            at_src = self._port_holes.get(packet.src)
            at_dst = self._port_holes.get(packet.dst)
            if at_src or at_dst:
                # The holes naming either end, with the open ones, in
                # registration order.
                holes = sorted(
                    {*holes, *(at_src or ()), *(at_dst or ())},
                    key=attrgetter("order"),
                )
        for hole in holes:
            if hole.active(now) and hole.matches(packet):
                hole.dropped += 1
                dropped = True
                break
        if not dropped:
            for plan in self.plans:
                if plan.should_drop(packet):
                    if plan.fired:
                        # One-shot plans never match again; pruning keeps
                        # the per-packet scan from growing with history.
                        self.plans.remove(plan)
                    dropped = True
                    break
        if dropped or p_drop:
            self.dropped += 1
            self._flow_drops[flow] = self._flow_drops.get(flow, 0) + 1
            return _DROP
        if not (corrupt or duplicate or delay_us):
            return _DELIVER
        if corrupt:
            self.corrupted += 1
        if duplicate:
            self.duplicated += 1
        if delay_us:
            self.delayed += 1
        return FaultDecision(corrupt=corrupt, duplicate=duplicate, delay_us=delay_us)

    def should_drop(self, packet: Packet) -> bool:
        """Boolean-only view of :meth:`inspect` (legacy callers/tests)."""
        return self.inspect(packet).drop

    # -- reporting -------------------------------------------------------
    def stats(self) -> dict:
        """A serializable snapshot for the chaos report."""
        return {
            "inspected": self.inspected,
            "dropped": self.dropped,
            "corrupted": self.corrupted,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "per_flow_drops": {
                f"{src}->{dst}/{kind}": count
                for (src, dst, kind), count in sorted(self._flow_drops.items())
            },
            "blackholes": [
                {
                    "label": hole.label,
                    "dropped": hole.dropped,
                    "healed": hole.healed,
                    "healed_at": hole.healed_at,
                    "start_us": hole.start_us,
                    "until_us": hole.until_us,
                }
                for hole in self._blackholes
            ],
            "plans_armed": len(self.plans),
            "unfired_plans": [plan.describe() for plan in self.plans],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector p={self.drop_probability} plans={len(self.plans)}"
            f" dropped={self.dropped}/{self.inspected}>"
        )
