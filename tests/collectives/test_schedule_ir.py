"""The compiled collective schedule IR and its two-layer cache (per
group, and the process-wide LRU that holds IR entries only)."""

import pytest

from repro.collectives import ProcessGroup
from repro.collectives.algorithms import (
    SCHEDULE_CACHE,
    configure_schedule_cache,
    make_schedule,
    schedule_cache_stats,
)
from repro.collectives.schedule_ir import (
    CollectiveSchedule,
    bitmap_bytes,
    compile_schedule,
    normalize_algorithm,
    reduce_safe,
)

ALGORITHMS = ["dissemination", "pairwise-exchange", "gather-broadcast"]


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts from an empty, default-sized schedule cache."""
    configure_schedule_cache()
    SCHEDULE_CACHE.clear()
    yield
    configure_schedule_cache()
    SCHEDULE_CACHE.clear()


# ----------------------------------------------------------------------
# Structural invariants of compiled schedules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 13, 16])
def test_sends_and_recvs_pair_up(algorithm, n):
    schedule = compile_schedule("allgather", algorithm, n, payload_bytes=4)
    sends = []
    recvs = []
    for rank in range(n):
        ops = schedule.ops(rank)
        assert ops[-1].kind == "dma", "every rank ends with result delivery"
        for op in ops:
            if op.kind == "send":
                sends.append((rank, op.peer, op.phase))
            elif op.kind == "recv":
                recvs.append((op.peer, rank, op.peer_phase))
    # Every send is matched by exactly one recv expecting that sender's
    # phase tag — the wire-matching contract of the replay engine.
    assert sorted(sends) == sorted(recvs)
    assert schedule.total_messages() == len(sends)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_reducing_schedules_follow_recvs_with_reduce(n):
    schedule = compile_schedule("allreduce", "pairwise-exchange", n, payload_bytes=4)
    for rank in range(n):
        ops = schedule.ops(rank)
        for i, op in enumerate(ops):
            if op.kind == "recv":
                assert ops[i + 1].kind == "reduce"
                assert ops[i + 1].peer == op.peer


def test_reduce_safety_and_normalization():
    assert reduce_safe("pairwise-exchange", 6)
    assert reduce_safe("gather-broadcast", 6)
    assert reduce_safe("dissemination", 8)
    assert not reduce_safe("dissemination", 6)
    # A reducing collective silently substitutes a safe pattern...
    assert normalize_algorithm("allreduce", "dissemination", 6) == "pairwise-exchange"
    assert normalize_algorithm("allreduce", "dissemination", 8) == "dissemination"
    # ...while union-merge collectives keep what they asked for.
    assert normalize_algorithm("allgather", "dissemination", 6) == "dissemination"


def test_requested_algorithm_recorded_and_warned_once():
    import warnings

    from repro.collectives import schedule_ir

    schedule_ir._normalization_warned.clear()
    try:
        # Non-pow2 reduction: dissemination is substituted and the
        # substitution is recorded and warned about — exactly once.
        with pytest.warns(RuntimeWarning, match="normalized to 'pairwise-exchange'"):
            schedule = compile_schedule("allreduce", "dissemination", 6, 4)
        assert schedule.algorithm == "pairwise-exchange"
        assert schedule.requested_algorithm == "dissemination"
        assert schedule.normalized
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = compile_schedule("allreduce", "dissemination", 6, 4)
        assert again is schedule  # cached under the *requested* name
        # Pow2 and non-reducing shapes are untouched, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            clean = compile_schedule("allreduce", "dissemination", 8, 4)
            union = compile_schedule("allgather", "dissemination", 6, 4)
        assert not clean.normalized and clean.requested_algorithm == "dissemination"
        assert not union.normalized
    finally:
        schedule_ir._normalization_warned.clear()


def test_reducing_wire_bytes_are_value_plus_bitmap():
    n = 16
    schedule = compile_schedule("allreduce", "pairwise-exchange", n, payload_bytes=8)
    sends = [op for ops in schedule.ops_by_rank for op in ops if op.kind == "send"]
    assert sends, "no sends compiled"
    # O(1) + bitmap per hop, independent of how many contributions the
    # partial already folds — the O(N)-map-per-hop regression guard.
    assert {op.nbytes for op in sends} == {8 + bitmap_bytes(n)}


# ----------------------------------------------------------------------
# Cached replay is bit-identical to fresh derivation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cached_schedule_identical_to_fresh(algorithm):
    cached = compile_schedule("allgather", algorithm, 8, payload_bytes=4)
    assert compile_schedule("allgather", algorithm, 8, payload_bytes=4) is cached
    SCHEDULE_CACHE.clear()
    fresh = compile_schedule("allgather", algorithm, 8, payload_bytes=4)
    assert fresh is not cached
    assert fresh == cached  # dataclass equality: op-for-op identical


def test_group_compiles_once_per_shape():
    group = ProcessGroup(list(range(8)))
    first = group.collective_schedule("allgather", payload_bytes=4)
    assert group.collective_schedule("allgather", payload_bytes=4) is first
    assert isinstance(first, CollectiveSchedule)
    # A different payload is a different compilation.
    other = group.collective_schedule("allgather", payload_bytes=64)
    assert other is not first
    assert other.payload_bytes == 64


# ----------------------------------------------------------------------
# The process-wide LRU cache (IR entries only)
# ----------------------------------------------------------------------
def test_cache_hit_rate_counts_ir_compiles():
    make_schedule("dissemination", 8)  # a pattern build is not cached
    for _ in range(4):
        compile_schedule("barrier", "dissemination", 8)
    stats = schedule_cache_stats()
    # One miss (the first compile), three hits; the compile's pattern
    # build is not an entry of its own.
    assert stats["hits"] == 3
    assert stats["misses"] == 1
    assert stats["hit_rate"] == pytest.approx(0.75)
    assert stats["size"] == 1


def test_cache_evicts_lru_and_resizes():
    configure_schedule_cache(4)
    for n in [2, 4, 8, 16, 32]:
        compile_schedule("barrier", "dissemination", n)
    stats = schedule_cache_stats()
    assert stats["size"] == 4
    assert stats["evictions"] == 1
    # n=2 was the least recently used; recompiling it misses.
    misses = stats["misses"]
    compile_schedule("barrier", "dissemination", 2)
    assert schedule_cache_stats()["misses"] == misses + 1
    # Growing the cache keeps residents; shrinking drops the oldest.
    configure_schedule_cache(2)
    assert schedule_cache_stats()["size"] == 2
