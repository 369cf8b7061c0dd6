"""The paper's contribution: NIC-based barriers and their baselines.

Layout:

- :mod:`~repro.collectives.algorithms` — the three barrier message
  schedules of §5: gather-broadcast, pairwise-exchange, dissemination.
- :mod:`~repro.collectives.group` — process groups (rank ↔ node maps).
- :mod:`~repro.collectives.messages` — wire messages and host
  notifications of the NIC collectives, and
  :class:`~repro.collectives.messages.CollectiveRequest`, the one
  request handle for a NIC collective on either network (``wait`` /
  ``test`` / ``spin`` over the port's ``recv_matching`` /
  ``poll_matching`` / ``spin_matching``).
- :mod:`~repro.collectives.engine` — the one NIC sequence engine every
  Myrinet collective runs on: the per-sequence record (the single send
  record with a bit vector, §6.3), the lifecycle automaton, and the
  public engines — the **direct scheme** barrier (prior work: NIC
  triggers messages through the p2p protocol), the **collective
  protocol scheme** barrier (this paper: dedicated queue, static
  packet, bit vector, NACKs), the binomial broadcast, and the data
  collectives' base.
- :mod:`~repro.collectives.host_barrier` — host-based barrier over GM
  send/recv (the baseline of Figs. 5-6).
- :mod:`~repro.collectives.quadrics_barrier` — NIC-based barrier over
  chained RDMA descriptors on Elan3 (§7); its ``ibarrier`` returns the
  same request handle.
- :mod:`~repro.collectives.schedule_ir` — the compiled collective
  schedule IR (ordered send/recv/reduce/dma ops per rank) the engine
  replays; cached process-wide and per group.
- :mod:`~repro.collectives.tuning` — persisted algorithm decision
  tables the auto-tuner emits and ``ProcessGroup`` consults.
"""

from repro.collectives.algorithms import (
    BarrierSchedule,
    Phase,
    configure_schedule_cache,
    dissemination,
    gather_broadcast,
    make_schedule,
    pairwise_exchange,
    schedule_cache_stats,
)
from repro.collectives.failures import (
    FailureReason,
    Revoked,
    ScheduleVerificationError,
    classify_reason,
    is_revocation,
)
from repro.collectives.group import (
    GroupIdAllocator,
    ProcessGroup,
)
from repro.collectives.membership import MembershipView, PeerDead
from repro.collectives.messages import (
    BarrierDone,
    BarrierFailed,
    BarrierFailure,
    BarrierMsg,
    BarrierNack,
    BcastDone,
    BcastMsg,
    CollectiveFailure,
    CollectiveRequest,
    DataCollDone,
    DataCollFailed,
)
from repro.collectives.engine import (
    SEQUENCE_AUTOMATON,
    NicBroadcastEngine,
    NicCollectiveBarrierEngine,
    NicDirectBarrierEngine,
    NicSequenceEngine,
    SequenceLayout,
    SequenceState,
    nic_barrier,
    nic_broadcast_recv,
    nic_broadcast_root,
    nic_ibarrier,
    nic_ibcast,
)
from repro.collectives.host_barrier import host_barrier
from repro.collectives.quadrics_barrier import (
    QuadricsChainedBarrier,
    prearm_chained_group,
)
from repro.collectives.allgather import (
    AllgatherDone,
    NicAllgatherEngine,
    nic_allgather,
    nic_iallgather,
)
from repro.collectives.alltoall import (
    AlltoallDone,
    NicAlltoallEngine,
    nic_alltoall,
    nic_ialltoall,
)
from repro.collectives.allreduce import (
    NicAllreduceEngine,
    nic_allreduce,
    nic_iallreduce,
)
from repro.collectives.reduce import (
    NicReduceEngine,
    nic_ireduce,
    nic_reduce,
)
from repro.collectives.schedule_ir import (
    CollectiveSchedule,
    ScheduleOp,
    compile_schedule,
    reduce_safe,
)
from repro.collectives.tuning import (
    DecisionTable,
    install_decision_table,
    pick_algorithm,
)

__all__ = [
    "BarrierSchedule",
    "Phase",
    "dissemination",
    "pairwise_exchange",
    "gather_broadcast",
    "make_schedule",
    "ProcessGroup",
    "GroupIdAllocator",
    "BarrierMsg",
    "BarrierNack",
    "BarrierDone",
    "BarrierFailed",
    "BarrierFailure",
    "SEQUENCE_AUTOMATON",
    "NicSequenceEngine",
    "SequenceLayout",
    "SequenceState",
    "CollectiveFailure",
    "DataCollDone",
    "DataCollFailed",
    "NicCollectiveBarrierEngine",
    "NicDirectBarrierEngine",
    "nic_barrier",
    "host_barrier",
    "FailureReason",
    "Revoked",
    "ScheduleVerificationError",
    "classify_reason",
    "is_revocation",
    "MembershipView",
    "PeerDead",
    "QuadricsChainedBarrier",
    "NicBroadcastEngine",
    "BcastMsg",
    "BcastDone",
    "nic_broadcast_root",
    "nic_broadcast_recv",
    "NicAllgatherEngine",
    "AllgatherDone",
    "nic_allgather",
    "NicAlltoallEngine",
    "AlltoallDone",
    "nic_alltoall",
    "NicAllreduceEngine",
    "nic_allreduce",
    "NicReduceEngine",
    "nic_reduce",
    "CollectiveSchedule",
    "ScheduleOp",
    "compile_schedule",
    "reduce_safe",
    "CollectiveRequest",
    "nic_ibarrier",
    "nic_ibcast",
    "nic_iallgather",
    "nic_iallreduce",
    "nic_ireduce",
    "nic_ialltoall",
    "DecisionTable",
    "install_decision_table",
    "pick_algorithm",
    "configure_schedule_cache",
    "schedule_cache_stats",
]
