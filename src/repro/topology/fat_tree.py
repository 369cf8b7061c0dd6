"""Quadrics QsNet quaternary fat tree of Elite switches.

QsNet builds a 4-ary *n*-tree: Elite switches have 8 links (4 down,
4 up); a dimension-*n* network connects ``4**n`` nodes.  The paper's
8-node system used a dimension-two Elite-16 fat tree.

Routing goes *up* to the lowest common ancestor level, then *down*:
two nodes whose indices share the top ``n - l`` base-4 digits meet at
level ``l`` (level 1 = leaf switches).  A route therefore traverses
``2*l - 1`` switches.

The fat tree also supports the hardware broadcast the Elanlib barrier
uses: a packet climbs to a root switch and is replicated down every
subtree, so the switch-hop count of a broadcast equals the tree height
climbing plus the deepest descent — uniform for all destinations.
"""

from __future__ import annotations

from repro.topology.base import Route, Topology


class QuaternaryFatTree(Topology):
    """A 4-ary n-tree with ``4**dimension`` node capacity.

    ``dimension`` is inferred as the smallest n with ``4**n >= n_nodes``
    when not given explicitly.
    """

    ARITY = 4

    def __init__(self, n_nodes: int, dimension: int | None = None):
        super().__init__(n_nodes)
        if dimension is None:
            dimension = 1
            while self.ARITY**dimension < n_nodes:
                dimension += 1
        if self.ARITY**dimension < n_nodes:
            raise ValueError(
                f"dimension {dimension} fat tree holds {self.ARITY ** dimension}"
                f" nodes < {n_nodes}"
            )
        self.dimension = dimension

    # ------------------------------------------------------------------
    def lca_level(self, src: int, dst: int) -> int:
        """Level (1 = leaf) of the lowest common ancestor switch stage.

        Ports meet at level ``l`` when their highest differing base-4
        digit is the ``l``-th from the bottom.  A base-4 digit is two
        bits, so ``l`` is the bit length of ``src ^ dst`` rounded up to
        whole digits (0 when ``src == dst``).
        """
        return ((src ^ dst).bit_length() + 1) // 2

    def switches(self) -> list[str]:
        out = []
        for level in range(1, self.dimension + 1):
            # Stage `level` has 4**(dimension-level) logical switch groups.
            for idx in range(self.ARITY ** (self.dimension - level)):
                out.append(f"elite_l{level}_{idx}")
        return out

    def climb(self, port: int) -> list[str]:
        """``port``'s NIC then the stage group above it at every level.

        A route from ``src`` climbs ``climb(src)`` to the lca level and
        descends ``climb(dst)`` back down from it.
        """
        self._check_port(port)
        return [f"nic{port}"] + [
            f"elite_l{level}_{port // self.ARITY**level}"
            for level in range(1, self.dimension + 1)
        ]

    def route(self, src: int, dst: int) -> Route:
        self._check_port(src)
        self._check_port(dst)
        if src == dst:
            return Route(src, dst, ())
        top = self.lca_level(src, dst)
        up = self.climb(src)[1 : top + 1]
        down = self.climb(dst)[top - 1 : 0 : -1]
        return Route(src, dst, tuple(up + down))

    def broadcast_hops(self) -> int:
        """Switch hops for a hardware broadcast (climb to root + descend)."""
        return 2 * self.dimension - 1

    def link_capacity(self, a: str, b: str) -> int:
        """A 4-ary n-tree has *full bisection*: a level-``l`` stage
        group (serving ``4**l`` nodes) owns ``4**l`` parallel links to
        the stage above.  Our switch identifiers name whole stage
        groups, so the edge between two switch stages carries the
        group's full parallel-link count; NIC↔leaf edges stay single
        links (one injection port per node)."""
        if a.startswith("nic") or b.startswith("nic"):
            return 1
        level_a = int(a.split("_l")[1].split("_")[0])
        level_b = int(b.split("_l")[1].split("_")[0])
        return self.ARITY ** min(level_a, level_b)
