"""Unit tests for the chained-RDMA barrier's chain construction.

A rank's chain links are derived from its ops in the compiled barrier
schedule (the IR that SL201–SL208 prove), so these tests drive
:func:`_chain_links` with compiled or hand-built IR op lists.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.quadrics_barrier import _chain_links, _Link
from repro.collectives.schedule_ir import ScheduleOp, compile_schedule

ALGORITHMS = ["dissemination", "pairwise-exchange", "gather-broadcast"]


def _ops(algo: str, n: int, rank: int):
    return compile_schedule("barrier", algo, n).ops(rank)


def _send(phase, peer):
    return ScheduleOp("send", phase, peer, -1, 0)


def _recv(phase, peer):
    return ScheduleOp("recv", phase, peer, phase, -1)


def _reduce(phase, peer):
    return ScheduleOp("reduce", phase, peer)


def _dma(phase):
    return ScheduleOp("dma", phase, nbytes=0)


class TestFlattenOps:
    def test_dissemination_alternates_send_wait(self):
        links = _chain_links(_ops("dissemination", 8, 0))
        kinds = [link.kind for link in links]
        assert kinds == ["send", "wait"] * 3

    def test_gather_broadcast_leaf(self):
        links = _chain_links(_ops("gather-broadcast", 8, 7))
        # Leaf: send to parent, then wait for the release.
        assert [link.kind for link in links] == ["send", "wait"]

    def test_gather_broadcast_root(self):
        links = _chain_links(_ops("gather-broadcast", 8, 0))
        assert [link.kind for link in links] == ["wait", "send"]

    def test_adjacent_sends_merge(self):
        ops = (
            _send(0, 1),
            _send(1, 2), _recv(1, 3), _reduce(1, 3),
            _dma(2),
        )
        links = _chain_links(ops)
        assert links == [_Link("send", (1, 2)), _Link("wait", (3,))]

    def test_empty_phases_disappear(self):
        # An empty phase 0 compiles to no ops; reduce and dma ops have
        # no link either.
        ops = (_send(1, 1), _recv(1, 2), _reduce(1, 2), _dma(2))
        assert len(_chain_links(ops)) == 2

    def test_recv_then_send_order(self):
        ops = (_recv(0, 2), _reduce(0, 2), _send(0, 1), _dma(1))
        links = _chain_links(ops)
        assert [link.kind for link in links] == ["wait", "send"]

    def test_one_phase_receives_form_one_wait(self):
        ops = (
            _recv(0, 1), _reduce(0, 1), _recv(0, 2), _reduce(0, 2),
            _recv(1, 3), _reduce(1, 3),
            _dma(2),
        )
        # Receives of one phase share a wait; the next phase's receive
        # is a wait of its own (waits never merge across phases).
        assert _chain_links(ops) == [
            _Link("wait", (1, 2)), _Link("wait", (3,)),
        ]


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_links_read_in_order_are_the_ir_sends_and_recvs(algo):
    """Read in order, a rank's chain links give exactly its IR ``send``
    and ``recv`` ops, in IR order — so the wire-matching (SL201) and
    deadlock-freedom (SL202) proofs of the IR speak for the chain."""
    for n in range(2, 65):
        schedule = compile_schedule("barrier", algo, n)
        for rank in range(n):
            ops = schedule.ops(rank)
            expected = [
                ("wait" if op.kind == "recv" else "send", op.peer)
                for op in ops
                if op.kind in ("send", "recv")
            ]
            links = _chain_links(ops)
            assert [
                (link.kind, peer) for link in links for peer in link.peers
            ] == expected, (algo, n, rank)
            # A wait link holds the receives of exactly one phase.
            recv_phase = {op.peer: op.phase for op in ops if op.kind == "recv"}
            for link in links:
                if link.kind == "wait":
                    assert len({recv_phase[p] for p in link.peers}) == 1


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    rank_frac=st.floats(min_value=0.0, max_value=0.999),
    algo=st.sampled_from(ALGORITHMS),
)
def test_ops_preserve_all_peers(n, rank_frac, algo):
    """Deriving links loses no sends/recvs and never leaves two sends
    adjacent."""
    rank = int(rank_frac * n)
    ops = _ops(algo, n, rank)
    links = _chain_links(ops)
    sends = [p for link in links if link.kind == "send" for p in link.peers]
    waits = [p for link in links if link.kind == "wait" for p in link.peers]
    assert sorted(sends) == sorted(op.peer for op in ops if op.kind == "send")
    assert sorted(waits) == sorted(op.peer for op in ops if op.kind == "recv")
    # No two adjacent sends (they must have merged).
    for a, b in zip(links, links[1:]):
        assert not (a.kind == "send" and b.kind == "send")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=32),
    algo=st.sampled_from(ALGORITHMS),
)
def test_every_send_lands_in_exactly_one_remote_wait(n, algo):
    """A sender's wait-map lookup is well-defined: each
    (sender → receiver) pair appears in exactly one wait link of the
    receiver."""
    schedule = compile_schedule("barrier", algo, n)
    chains = {rank: _chain_links(schedule.ops(rank)) for rank in range(n)}
    for sender in range(n):
        for link in chains[sender]:
            if link.kind != "send":
                continue
            for dst in link.peers:
                hits = [
                    t
                    for t, dst_link in enumerate(chains[dst])
                    if dst_link.kind == "wait" and sender in dst_link.peers
                ]
                assert len(hits) == 1, (algo, n, sender, dst)
