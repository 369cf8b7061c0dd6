"""Per-node membership views and the failure detector that feeds them.

Each NIC carries a :class:`MembershipView`.  Liveness evidence arrives
two ways:

* **Piggybacked** — every received wire packet refreshes the sender's
  ``last_heard`` timestamp for free (``observe_alive``), so explicit
  heartbeats are only needed across otherwise-silent links.
* **Active probing** — when :func:`enable_failure_detector` starts the
  detector on a NIC (it is off by default; see
  ``GmParams.heartbeat_period_us`` / ``ElanParams.heartbeat_period_us``)
  a bounded heartbeat loop runs there: each period it sends a tiny
  HEARTBEAT packet to every watched peer it has not *transmitted*
  anything to within one period, and declares dead any peer it has not
  heard from for longer than the suspicion timeout.  The loop exits at
  ``horizon_us`` so the event heap always drains and quiescence stays
  clean.

The detector is the same on both networks.  Its one NIC hook is the
probe cost, ``nic.heartbeat_probe_cost``: the LANai injects a probe
like any packet and pays a CPU task for it, while Elan3 probes are
out-of-band link-level packets that cost nothing (``None``).

Death verdicts are typed :class:`PeerDead` records.  They unify the
scattered retry-exhaustion escalations: the Myrinet timeout loop and the
NIC engines report exhaustion through ``declare_dead`` with
``origin="retry-exhaustion"`` alongside the detector's
``origin="heartbeat-timeout"``, so a repair controller has one place to
look regardless of how the failure was noticed —
:func:`wait_for_conviction` polls it, and :func:`launch_kills` runs the
one kill → convict → repair controller on top of it.

Determinism: the detector's only randomness is the initial phase offset
of each node's heartbeat loop, drawn from a named
``DeterministicRng`` substream (``hb/<node>``), so runs are bit-identical
for a fixed seed and invariant under tie-break permutations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.network import Packet, PacketKind

__all__ = [
    "PeerDead",
    "MembershipView",
    "enable_failure_detector",
    "launch_kills",
    "wait_for_conviction",
]


@dataclass(frozen=True)
class PeerDead:
    """Typed verdict: ``node`` was declared dead at ``detected_at``.

    ``origin`` records the evidence class — ``"heartbeat-timeout"`` from
    the active detector, ``"retry-exhaustion"`` from ACK/NACK budget
    escalation, ``"external"`` for controller-injected verdicts (the
    chaos fuzzer's ground truth).
    """

    node: int
    detected_at: float
    origin: str
    detail: str = ""


@dataclass
class MembershipView:
    """One NIC's view of which peers are alive.

    Cheap and always-on: ``observe_alive`` is a dict write on the
    receive path.  Verdicts are idempotent — the first ``declare_dead``
    for a node wins; later ones are ignored so redundant evidence
    (heartbeat timeout racing retry exhaustion) does not produce
    duplicate repair work.
    """

    node_id: int
    last_heard: dict[int, float] = field(default_factory=dict)
    last_sent: dict[int, float] = field(default_factory=dict)
    dead: dict[int, PeerDead] = field(default_factory=dict)

    def observe_alive(self, node: int, now: float) -> None:
        if node == self.node_id or node in self.dead:
            return
        prev = self.last_heard.get(node)
        if prev is None or now > prev:
            self.last_heard[node] = now

    def observe_sent(self, node: int, now: float) -> None:
        """Record an outgoing packet to ``node`` (any kind).

        The heartbeat loop keys its send decision on this — my outgoing
        traffic is what proves *my* liveness to the peer, so a beat is
        only needed when I have not transmitted anything to them for a
        full period.  Keying the decision on *receive* evidence instead
        would let one side's regular beats suppress the other side's
        forever, and the silent (but healthy) side gets convicted.
        """
        prev = self.last_sent.get(node)
        if prev is None or now > prev:
            self.last_sent[node] = now

    def declare_dead(self, node: int, now: float, origin: str,
                     detail: str = "") -> Optional[PeerDead]:
        """Record a death verdict; returns it, or None if already dead."""
        if node == self.node_id or node in self.dead:
            return None
        verdict = PeerDead(node=node, detected_at=now, origin=origin,
                           detail=detail)
        self.dead[node] = verdict
        self.last_heard.pop(node, None)
        return verdict

    def is_dead(self, node: int) -> bool:
        return node in self.dead

    def alive_peers(self, peers) -> list[int]:
        return [p for p in peers if p != self.node_id and p not in self.dead]

    def silent_for(self, node: int, now: float, since_default: float) -> float:
        """Microseconds since we last heard from ``node``.

        Peers never heard from are measured against ``since_default``
        (detector start time) so a node dead from t=0 is still caught.
        """
        return now - self.last_heard.get(node, since_default)


def enable_failure_detector(
    nic,
    peers,
    rng=None,
    period_us: float = 0.0,
    timeout_us: float = 0.0,
    horizon_us: float = 0.0,
) -> None:
    """Start the heartbeat/suspicion loop on ``nic`` watching ``peers``.

    Parameters default to the NIC's params; a zero period refuses to
    start.  ``rng`` (a ``DeterministicRng``) seeds the phase offset;
    without one it is zero.
    """
    params = nic.params
    period = period_us or params.heartbeat_period_us
    if period <= 0:
        raise ValueError("failure detector needs a positive heartbeat period")
    timeout = timeout_us or params.heartbeat_timeout_us or 3.0 * period
    horizon = horizon_us or params.heartbeat_horizon_us or 64.0 * period
    offset = 0.0
    if rng is not None:
        offset = rng.substream(f"hb/{nic.node_id}").uniform(0.0, period)
    watched = tuple(sorted(p for p in peers if p != nic.node_id))
    nic.fabric.observe_tx(nic.node_id, nic.membership.observe_sent)
    # The ".hb" suffix matters: LANai CPU arbitration ranks the
    # detector below every protocol loop by it.
    nic.sim.process(
        _heartbeat_loop(nic, watched, period, timeout, horizon, offset),
        name=f"{nic.name}.hb",
    )


def _heartbeat_loop(nic, peers, period_us, timeout_us, horizon_us, offset_us):
    """Each period: convict every watched peer silent past the timeout,
    probe every peer not *transmitted* to within one period.

    Outgoing protocol traffic suppresses probes (every packet is a free
    heartbeat at the peer's receive path), so a busy link never carries
    one.  Keying the send decision on receive evidence instead would let
    one side's beats silence the other's, and the silent but healthy
    side would be convicted.
    """
    sim = nic.sim
    membership = nic.membership
    # Every period reads these for every peer: bound once.  The view's
    # dicts are read directly (``dead``, ``last_heard``, ``last_sent``
    # are what ``is_dead``, ``silent_for`` and the send test read).
    dead = membership.dead
    last_heard = membership.last_heard
    last_sent = membership.last_sent
    transmit = nic.fabric.transmit
    counters = nic.tracer.counters
    probe_cost = nic.heartbeat_probe_cost
    node_id = nic.node_id
    hb_bytes = nic.params.heartbeat_bytes
    dead_counter = f"{nic.counter_prefix}.peer_dead_hb"
    tx_counter = f"{nic.counter_prefix}.heartbeat_tx"
    start = sim.now
    if offset_us > 0:
        yield offset_us
    while sim.now < horizon_us:
        if nic.crashed:
            yield period_us
            continue
        for peer in peers:
            if peer in dead:
                continue
            now = sim.now
            silent = now - last_heard.get(peer, start)
            if silent > timeout_us:
                verdict = membership.declare_dead(
                    peer,
                    now,
                    "heartbeat-timeout",
                    detail=f"silent {silent:.1f}us > {timeout_us:.1f}us",
                )
                if verdict is not None:
                    counters[dead_counter] += 1
                continue
            if now - last_sent.get(peer, start) >= period_us:
                if probe_cost is not None:
                    yield from probe_cost()
                transmit(Packet(node_id, peer, PacketKind.HEARTBEAT, hb_bytes))
                counters[tx_counter] += 1
        yield period_us


def wait_for_conviction(
    cluster,
    victim: int,
    at_us: float,
    poll_us: float,
    within_us: float = math.inf,
):
    """The recovery controller's detect step: sleep until the kill at
    ``at_us``, then poll every ``poll_us`` until every live survivor has
    convicted ``victim``.  Returns ``True``, or ``False`` at the first
    poll past ``at_us + within_us``.

    The survivor set re-evaluates every poll: a node that crashes
    during the detection window stops owing a conviction — its own
    detector went down with it.
    """
    sim = cluster.sim
    nics = cluster.nics
    if sim.now < at_us:
        yield at_us - sim.now
    deadline = at_us + within_us
    while not all(
        nics[s].membership.is_dead(victim)
        for s in range(cluster.n)
        if s != victim and not nics[s].crashed
    ):
        if sim.now > deadline:
            return False
        yield poll_us
    return True


def launch_kills(
    cluster,
    kills,
    repair,
    poll_us: float,
    within_us: float = math.inf,
):
    """Spawn the kill → convict → repair arc; returns the processes.

    Each ``(victim, at_us)`` kill takes the node down at ``at_us``: a
    permanent wire blackhole plus the NIC's ``crashed`` flag, set by the
    victim's own process so a kill may land mid-recovery.  One
    controller then handles the kills in order: :func:`wait_for_conviction`,
    then ``repair(k, victim, convicted)`` in the same event, so no
    survivor starts a new-epoch op before the repair.  A false return
    stops the controller.
    """
    sim = cluster.sim

    def killer(victim: int, at_us: float):
        yield at_us
        cluster.nics[victim].crashed = True

    def controller():
        for k, (victim, at_us) in enumerate(kills):
            convicted = yield from wait_for_conviction(
                cluster, victim, at_us, poll_us, within_us=within_us
            )
            if not repair(k, victim, convicted):
                return

    procs = []
    for victim, at_us in kills:
        cluster.faults.kill_node(victim, at_us=at_us)
        procs.append(sim.process(killer(victim, at_us), name=f"killer@{victim}"))
    procs.append(sim.process(controller(), name="recovery-controller"))
    return procs
