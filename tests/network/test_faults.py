"""Unit tests for fault injection."""

import pytest

from repro.network import DropPlan, FaultInjector, Packet, PacketKind
from repro.sim import DeterministicRng


def _pkt(src=0, dst=1, kind=PacketKind.BARRIER, sent_at=None):
    packet = Packet(src, dst, kind, 8)
    packet.sent_at = sent_at
    return packet


class TestDropPlan:
    def test_drops_first_match(self):
        plan = DropPlan(lambda p: p.dst == 1)
        assert plan.should_drop(_pkt(dst=1)) is True
        assert plan.fired

    def test_one_shot(self):
        plan = DropPlan(lambda p: True)
        assert plan.should_drop(_pkt()) is True
        assert plan.should_drop(_pkt()) is False

    def test_counts_occurrences(self):
        plan = DropPlan(lambda p: p.kind == PacketKind.BARRIER, occurrence=3)
        assert plan.should_drop(_pkt()) is False
        assert plan.should_drop(_pkt(kind=PacketKind.ACK)) is False  # no match
        assert plan.should_drop(_pkt()) is False
        assert plan.should_drop(_pkt()) is True

    def test_non_matching_never_counted(self):
        plan = DropPlan(lambda p: p.src == 9, occurrence=1)
        for _ in range(5):
            assert plan.should_drop(_pkt(src=0)) is False
        assert not plan.fired


class TestFaultInjector:
    def test_no_faults_by_default(self):
        fi = FaultInjector()
        assert not any(fi.should_drop(_pkt()) for _ in range(100))
        assert fi.dropped == 0
        assert fi.inspected == 100

    def test_probabilistic_requires_rng(self):
        with pytest.raises(ValueError):
            FaultInjector(drop_probability=0.5)

    def test_probability_range_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(rng=DeterministicRng(1), drop_probability=1.0)

    def test_probabilistic_drops_roughly_at_rate(self):
        fi = FaultInjector(rng=DeterministicRng(42), drop_probability=0.2)
        drops = sum(fi.should_drop(_pkt()) for _ in range(2000))
        assert 300 <= drops <= 500  # 0.2 +/- slack

    def test_deterministic_given_seed(self):
        def run():
            fi = FaultInjector(rng=DeterministicRng(7), drop_probability=0.3)
            return [fi.should_drop(_pkt()) for _ in range(50)]

        assert run() == run()

    def test_scripted_plan_takes_priority(self):
        fi = FaultInjector()
        fi.drop_nth_matching(lambda p: p.dst == 3, occurrence=2)
        assert fi.should_drop(_pkt(dst=3)) is False
        assert fi.should_drop(_pkt(dst=3)) is True
        assert fi.dropped == 1


class TestFaultClasses:
    def test_corruption_delivers_flagged(self):
        fi = FaultInjector(rng=DeterministicRng(3), corrupt_probability=0.25)
        decisions = [fi.inspect(_pkt()) for _ in range(1000)]
        assert not any(d.drop for d in decisions)
        corrupted = sum(d.corrupt for d in decisions)
        assert 180 <= corrupted <= 320  # 0.25 +/- slack
        assert fi.corrupted == corrupted

    def test_duplication_rate(self):
        fi = FaultInjector(rng=DeterministicRng(4), duplicate_probability=0.25)
        duplicated = sum(fi.inspect(_pkt()).duplicate for _ in range(1000))
        assert 180 <= duplicated <= 320
        assert fi.duplicated == duplicated

    def test_delay_bounded_by_jitter(self):
        fi = FaultInjector(
            rng=DeterministicRng(5), delay_probability=0.5, delay_jitter_us=4.0
        )
        delays = [fi.inspect(_pkt()).delay_us for _ in range(500)]
        assert all(0.0 <= d <= 4.0 for d in delays)
        assert any(d > 0.0 for d in delays)
        assert fi.delayed == sum(1 for d in delays if d)

    def test_classes_compose_and_drop_wins(self):
        fi = FaultInjector(
            rng=DeterministicRng(6),
            drop_probability=0.3,
            corrupt_probability=0.3,
            duplicate_probability=0.3,
        )
        decisions = [fi.inspect(_pkt()) for _ in range(800)]
        # A dropped packet reports nothing else; survivors may carry
        # corruption and duplication at once.
        for d in decisions:
            if d.drop:
                assert not (d.corrupt or d.duplicate or d.delay_us)
        assert any(d.corrupt and d.duplicate for d in decisions)

    def test_per_flow_streams_are_interleaving_independent(self):
        # The k-th packet of a flow meets the same fate however the two
        # flows' inspections interleave (the simlint SL101 guarantee).
        def run(order):
            fi = FaultInjector(
                rng=DeterministicRng(11),
                drop_probability=0.2,
                corrupt_probability=0.2,
            )
            fates = {(0, 1): [], (2, 3): []}
            for src, dst in order:
                d = fi.inspect(_pkt(src=src, dst=dst))
                fates[(src, dst)].append((d.drop, d.corrupt))
            return fates

        flows = [(0, 1), (2, 3)]
        alternating = run(flows * 50)
        batched = run([flows[0]] * 50 + [flows[1]] * 50)
        assert alternating == batched

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(
                rng=DeterministicRng(1), delay_probability=0.1, delay_jitter_us=-1.0
            )


class TestBlackhole:
    def test_drop_all_matching_black_holes_the_flow(self):
        fi = FaultInjector()
        hole = fi.drop_all_matching(lambda p: p.dst == 3, label="dead:3")
        for _ in range(4):
            assert fi.should_drop(_pkt(dst=3)) is True
        assert fi.should_drop(_pkt(dst=2)) is False
        assert hole.dropped == 4
        assert fi.dropped == 4

    def test_heal_stops_dropping(self):
        fi = FaultInjector()
        hole = fi.drop_all_matching(lambda p: True)
        assert fi.should_drop(_pkt()) is True
        hole.heal()
        assert fi.should_drop(_pkt()) is False
        assert hole.dropped == 1
        assert hole.healed

    def test_window_is_half_open(self):
        fi = FaultInjector()
        hole = fi.blackhole_window(lambda p: True, 10.0, 20.0)
        assert fi.should_drop(_pkt(sent_at=9.9)) is False
        assert fi.should_drop(_pkt(sent_at=10.0)) is True
        assert fi.should_drop(_pkt(sent_at=19.9)) is True
        assert fi.should_drop(_pkt(sent_at=20.0)) is False
        assert hole.dropped == 2

    def test_empty_window_rejected(self):
        fi = FaultInjector()
        with pytest.raises(ValueError):
            fi.blackhole_window(lambda p: True, 20.0, 20.0)

    def test_flap_link_matches_both_directions_only(self):
        fi = FaultInjector()
        fi.flap_link(0, 1, 0.0, 100.0)
        assert fi.should_drop(_pkt(src=0, dst=1, sent_at=50.0)) is True
        assert fi.should_drop(_pkt(src=1, dst=0, sent_at=50.0)) is True
        assert fi.should_drop(_pkt(src=0, dst=2, sent_at=50.0)) is False
        assert fi.should_drop(_pkt(src=0, dst=1, sent_at=150.0)) is False

    def test_crash_window_isolates_the_node(self):
        fi = FaultInjector()
        fi.crash_window(5, 10.0, 30.0)
        assert fi.should_drop(_pkt(src=5, dst=0, sent_at=15.0)) is True
        assert fi.should_drop(_pkt(src=0, dst=5, sent_at=15.0)) is True
        assert fi.should_drop(_pkt(src=0, dst=1, sent_at=15.0)) is False

    def test_port_holes_see_only_packets_of_their_ports(self):
        """Kill, crash, flap and dead-link holes are consulted only for
        packets to or from a port they name; a predicate hole still sees
        every packet, and the first active match in registration order
        takes the drop."""
        consulted = []

        def spy(hole):
            matches = hole.matches
            hole.matches = lambda p: consulted.append(hole.label) or matches(p)
            return hole

        fi = FaultInjector()
        spy(fi.kill_node(4, at_us=0.0))
        spy(fi.crash_window(5, 0.0, 50.0))
        spy(fi.flap_link(6, 7, 0.0, 50.0))
        spy(fi.kill_link(2, 3))
        spy(fi.drop_all_matching(lambda p: p.kind == PacketKind.ACK, label="any"))
        spy(fi.kill_node(5, at_us=0.0))
        assert fi.should_drop(_pkt(src=0, dst=1, sent_at=1.0)) is False
        assert consulted == ["any"]
        consulted.clear()
        assert fi.should_drop(_pkt(src=5, dst=4, sent_at=1.0)) is True
        assert consulted == ["kill:n4"]  # registered first: it takes the drop
        consulted.clear()
        assert fi.should_drop(_pkt(src=6, dst=3, sent_at=1.0)) is False
        assert consulted == ["flap:6<->7", "dead:2<->3", "any"]
        consulted.clear()
        assert fi.should_drop(_pkt(src=5, dst=1, sent_at=60.0)) is True
        assert consulted == ["any", "kill:n5"]  # the crash window has closed
        assert [h["dropped"] for h in fi.stats()["blackholes"]] == [1, 0, 0, 0, 0, 1]

    def test_blackhole_does_not_shift_probabilistic_streams(self):
        # Stream positions advance once per inspected packet whatever
        # the scripted faults decide: the post-window fate sequence is
        # the same with and without the blackhole.
        def fates(with_hole):
            fi = FaultInjector(rng=DeterministicRng(12), corrupt_probability=0.3)
            if with_hole:
                fi.blackhole_window(lambda p: True, 0.0, 10.0)
            return [
                fi.inspect(_pkt(sent_at=float(i))).corrupt for i in range(40)
            ][15:]

        assert fates(True) == fates(False)


class TestStats:
    def test_stats_snapshot(self):
        fi = FaultInjector(rng=DeterministicRng(9), drop_probability=0.5)
        hole = fi.drop_all_matching(lambda p: p.dst == 7, label="dead:7")
        fi.drop_nth_matching(lambda p: p.src == 42, occurrence=2, label="never")
        for _ in range(20):
            fi.inspect(_pkt(dst=7))
            fi.inspect(_pkt(src=1, dst=2))
        stats = fi.stats()
        assert stats["inspected"] == 40
        assert stats["dropped"] == fi.dropped
        assert stats["blackholes"] == [
            {
                "label": "dead:7",
                "dropped": hole.dropped,
                "healed": False,
                "healed_at": None,
                "start_us": None,
                "until_us": None,
            }
        ]
        assert stats["plans_armed"] == 1
        assert stats["unfired_plans"] == [
            "never: matched 0 of 2 needed occurrences"
        ]
        assert stats["per_flow_drops"][f"0->7/{PacketKind.BARRIER}"] == 20

    def test_unfired_plans_excludes_fired(self):
        fi = FaultInjector()
        fi.drop_nth_matching(lambda p: p.dst == 1, label="fires")
        pending = fi.drop_nth_matching(lambda p: p.dst == 9, label="pends")
        fi.should_drop(_pkt(dst=1))
        assert fi.unfired_plans() == (pending,)


def test_fired_one_shot_plans_are_pruned():
    # Regression: fired one-shot plans stayed in the injector and were
    # re-scanned on every subsequent packet.
    injector = FaultInjector()
    injector.add_plan(DropPlan(lambda p: p.dst == 1))
    injector.add_plan(DropPlan(lambda p: p.dst == 2))
    assert injector.should_drop(_pkt(dst=1)) is True
    assert len(injector.plans) == 1
    assert injector.should_drop(_pkt(dst=1)) is False
    assert injector.should_drop(_pkt(dst=2)) is True
    assert injector.plans == []


# The decision stream of ``inspect``, pinned as a digest: enabled fault
# classes, a fixed interleaving of flows (kinds included) and one
# blackhole window.  A change to the per-flow substream names, to the
# draw order inside one packet, or to the number of draws per packet
# moves the digest.
_STREAM_CASES = {
    "all-classes": (
        dict(drop_probability=0.1, corrupt_probability=0.15,
             duplicate_probability=0.2, delay_probability=0.25,
             delay_jitter_us=5.0),
        "c0ec46ca214a04e7",
    ),
    "corrupt-and-delay": (
        dict(corrupt_probability=0.3, delay_probability=0.4,
             delay_jitter_us=2.0),
        "ff89022f8532379a",
    ),
    "duplicate-only": (
        dict(duplicate_probability=0.35),
        "00f014e2156bc607",
    ),
}


def _decision_stream_digest(classes):
    import hashlib

    fi = FaultInjector(rng=DeterministicRng(2024), **classes)
    fi.blackhole_window(lambda p: p.src == 3, 40.0, 80.0, label="flap")
    flows = [
        (0, 1, PacketKind.BARRIER), (1, 0, PacketKind.HEARTBEAT),
        (3, 2, PacketKind.DATA), (0, 1, PacketKind.HEARTBEAT),
        (2, 3, PacketKind.ACK), (3, 0, PacketKind.HEARTBEAT),
    ]
    lines = []
    for i in range(600):
        src, dst, kind = flows[(i * 7 + i // 5) % len(flows)]
        d = fi.inspect(_pkt(src=src, dst=dst, kind=kind, sent_at=i * 0.5))
        lines.append(f"{d.drop}{d.corrupt}{d.duplicate}{d.delay_us!r}")
    lines.append(repr(sorted(fi.stats().items())))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(_STREAM_CASES))
def test_inspect_decision_stream_is_pinned(case):
    classes, digest = _STREAM_CASES[case]
    assert _decision_stream_digest(classes) == digest
