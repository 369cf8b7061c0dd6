"""Regression tests for per-cluster group-id allocation.

Group ids used to come from one process-global ``itertools.count``, so
the ids a cluster build handed out depended on how many groups *any*
earlier test or sweep in the same interpreter had created — id-keyed
artifacts (traces, flow labels, audit rows) then differed between a
fresh process and a warm one.
"""

from repro.cluster import build_cluster
from repro.collectives import GroupIdAllocator, ProcessGroup
from repro.mpi import create_communicators


def _context_ids(comms):
    ctx = comms[0]._ctx
    return [g.group_id for g in ctx._groups()]


def test_allocator_counts_and_resets():
    alloc = GroupIdAllocator()
    assert [alloc.allocate() for _ in range(3)] == [1, 2, 3]
    alloc.reset()
    assert alloc.allocate() == 1
    assert GroupIdAllocator(start=10).allocate() == 10


def test_back_to_back_myrinet_builds_hand_out_identical_ids():
    def ids():
        cluster = build_cluster("lanai_xp_xeon2400", 4)
        return _context_ids(create_communicators(cluster))

    assert ids() == ids()


def test_back_to_back_quadrics_builds_hand_out_identical_ids():
    def ids():
        cluster = build_cluster("elan3_piii700", 4)
        return _context_ids(create_communicators(cluster))

    assert ids() == ids()


def test_cluster_ids_unaffected_by_stray_group_construction():
    cluster_a = build_cluster("lanai_xp_xeon2400", 4)
    ids_a = _context_ids(create_communicators(cluster_a))
    # A bare group (no cluster context) draws from the fallback
    # allocator and must not shift any cluster's numbering.
    ProcessGroup([0, 1, 2, 3])
    cluster_b = build_cluster("lanai_xp_xeon2400", 4)
    ids_b = _context_ids(create_communicators(cluster_b))
    assert ids_a == ids_b


def test_two_jobs_on_one_cluster_get_distinct_ids():
    cluster = build_cluster("lanai_xp_xeon2400", 8)
    first = _context_ids(create_communicators(cluster, nodes=list(range(0, 5))))
    second = _context_ids(create_communicators(cluster, nodes=list(range(3, 8))))
    assert not set(first) & set(second)
