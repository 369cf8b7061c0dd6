"""The paper's contribution: NIC-based barriers and their baselines.

Layout:

- :mod:`~repro.collectives.algorithms` — the three barrier message
  schedules of §5: gather-broadcast, pairwise-exchange, dissemination.
- :mod:`~repro.collectives.group` — process groups (rank ↔ node maps).
- :mod:`~repro.collectives.messages` — barrier wire messages and host
  notifications.
- :mod:`~repro.collectives.protocol` — the collective protocol state:
  the single send record with a bit vector, and the receiver-driven
  retransmission bookkeeping (§3, §6.3).
- :mod:`~repro.collectives.myrinet_engines` — the two NIC-resident
  barrier engines for Myrinet: the **direct scheme** (prior work: NIC
  triggers messages through the p2p protocol) and the **collective
  protocol scheme** (this paper: dedicated queue, static packet, bit
  vector, NACKs).
- :mod:`~repro.collectives.host_barrier` — host-based barrier over GM
  send/recv (the baseline of Figs. 5-6).
- :mod:`~repro.collectives.quadrics_barrier` — NIC-based barrier over
  chained RDMA descriptors on Elan3 (§7).
- :mod:`~repro.collectives.schedule_ir` — the compiled collective
  schedule IR (ordered send/recv/reduce/dma ops per rank) the data
  engines replay; cached process-wide and per group.
- :mod:`~repro.collectives.nonblocking` — non-blocking host APIs
  (``nic_ibarrier`` & friends) returning request handles with
  ``test``/``wait``.
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
    reset_group_ids,
)
from repro.collectives.membership import MembershipView, PeerDead
from repro.collectives.messages import (
    BarrierDone,
    BarrierFailed,
    BarrierFailure,
    BarrierMsg,
    BarrierNack,
)
from repro.collectives.protocol import (
    CollectiveGroupState,
    CollectiveScheduleLayout,
    CollectiveSendRecord,
)
from repro.collectives.data_engine import (
    CollectiveFailure,
    DataCollDone,
    DataCollFailed,
)
from repro.collectives.myrinet_engines import (
    NicCollectiveBarrierEngine,
    NicDirectBarrierEngine,
    nic_barrier,
)
from repro.collectives.host_barrier import host_barrier
from repro.collectives.quadrics_barrier import (
    QuadricsChainedBarrier,
    prearm_chained_group,
)
from repro.collectives.broadcast import (
    BcastDone,
    BcastMsg,
    NicBroadcastEngine,
    nic_broadcast_recv,
    nic_broadcast_root,
)
from repro.collectives.allgather import (
    AllgatherDone,
    NicAllgatherEngine,
    nic_allgather,
)
from repro.collectives.alltoall import (
    AlltoallDone,
    NicAlltoallEngine,
    nic_alltoall,
)
from repro.collectives.allreduce import (
    NicAllreduceEngine,
    nic_allreduce,
)
from repro.collectives.reduce import (
    NicReduceEngine,
    nic_reduce,
)
from repro.collectives.schedule_ir import (
    CollectiveSchedule,
    ScheduleOp,
    compile_schedule,
    reduce_safe,
)
from repro.collectives.nonblocking import (
    CollectiveRequest,
    nic_iallgather,
    nic_iallreduce,
    nic_ialltoall,
    nic_ibarrier,
    nic_ibcast,
    nic_ireduce,
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
    "reset_group_ids",
    "BarrierMsg",
    "BarrierNack",
    "BarrierDone",
    "BarrierFailed",
    "BarrierFailure",
    "CollectiveGroupState",
    "CollectiveScheduleLayout",
    "CollectiveSendRecord",
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
